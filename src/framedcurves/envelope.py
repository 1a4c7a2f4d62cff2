"""Envelopes of tangent-hyperplane families and discriminants of normal forms.

For a framed curve the hyperplanes are carried by the last frame vector: in
frame coordinates xi = E(t)^{-1} x the family is F(t, x) = xi_3, in all three
geometries.  With K = E^{-1} E' this gives F_t = -(K xi)_3 and
F_tt = ((K K - K') xi)_3, so rows 3 of K and of K K - K' decide everything.
The envelope is swept out, per parameter value, by the characteristic line
{F = F_t = 0}; for n = 2 (and K_30 = <gamma', nu> = 0) it is the geodesic
through the curve point xi = e_0 along w = (K_32 e_1 - K_31 e_2) /
hypot(K_31, K_32), so every strip is centered at gamma(t).  The edge of
regression is where F_tt = 0 as well.

Normal-form generating families

    F(t, x) = t^{a3}/a3! + x1 t^{a3-a1}/(a3-a1)! + x2 t^{a3-a2}/(a3-a2)! + x3

have their discriminants {F = F_t = 0} solved in closed form: with x1 = s,
both x2 and x3 are polynomial in (t, s), and the deeper locus F_tt = 0 is
linear in s.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import factorial

import numpy as np

from .errors import DegeneracyError, DimensionMismatch, DomainError
from .fileio import FLOAT_FIELD, atomic_open, format_floats, format_ints, rows_text, spaced
from .frames import FrameField
from .ratpoly import Poly
from .spaceform import SpaceForm

_CHAIN_GAP = 0.5  # a locus polyline breaks where s jumps by more than this
_EXPORT_CHUNK = 4096  # most rows formatted and written per block by the exporters


# -- hyperplane families --------------------------------------------------------


@dataclass
class HyperplaneFamily:
    """The family F(t, x) = (E(t)^{-1} x)_3 of a frame field, sampled at its nodes.

    ``frames`` holds E, whose e_0 column gamma(t) lies on every characteristic
    line.  ``k3`` and ``q3`` are row 3 of K = E^{-1} E' and of K K - K', read off
    the curvatures, so F_t = -k3 . xi and F_tt = q3 . xi at xi = E^{-1} x.
    ``normal`` and ``normal1`` are the ambient nu = e_3 and nu', which the
    ambient residuals <x - gamma, nu>_G and <x - gamma, nu'>_G use.
    """

    sf: SpaceForm
    t: np.ndarray
    frames: np.ndarray  # (N, 4, 4)
    normal: np.ndarray  # (N, 4)
    normal1: np.ndarray  # (N, 4)
    k3: np.ndarray  # (N, 4)
    q3: np.ndarray  # (N, 4)


def hyperplane_family(field: FrameField) -> HyperplaneFamily:
    """The tangent-hyperplane family carried by e_{n+1} of a frame field, in
    closed form in kappa and kappa' (delta never enters): nu' = -kappa_2 e_1 -
    kappa_3 e_2, and rows 3 of K and K K - K' are (0, kappa_2, kappa_3, 0) and
    (kappa_2, kappa_1 kappa_3 - kappa_2', -kappa_1 kappa_2 - kappa_3', -(kappa_2^2 + kappa_3^2)).
    """
    mats, (k1, k2, k3), (_, d2, d3) = field.matrices, field.kappa.T, field.dkappa.T
    return HyperplaneFamily(field.sf, np.asarray(field.s, dtype=float), mats, mats[:, :, -1],
                            -(k2[:, None] * mats[:, :, 1] + k3[:, None] * mats[:, :, 2]),
                            np.pad(field.kappa[:, 1:], [(0, 0), (1, 1)]),
                            np.stack([k2, k1 * k3 - d2, -k1 * k2 - d3, -(k2 * k2 + k3 * k3)], axis=-1))


# -- meshes ----------------------------------------------------------------------


@dataclass
class EnvelopeMesh:
    """Quad strip mesh stored as columns: one row per vertex, one per face."""

    vertices: np.ndarray  # (M, 3) projected coordinates; euclidean: the view ambient[:, 1:]
    ambient: np.ndarray  # (M, dim)
    params: np.ndarray  # (M, 2) rows (t, s)
    faces: np.ndarray  # (F, 4) int32 0-based quad vertex indices
    residuals: np.ndarray  # (M, 2) rows (F, F_t)
    singular: np.ndarray  # (M,) bool, |F_tt| <= tol
    meta: dict = dataclass_field(default_factory=dict)


@dataclass
class Polyline:
    """A chained curve of locus points."""

    params: np.ndarray  # (M, 2)
    points: np.ndarray  # (M, 3) projected
    ambient: np.ndarray  # (M, dim)


def project_point(x, sf: SpaceForm):
    """Affine-chart projection used for 3D export, on (..., dim) arrays.

    Euclidean: drop the leading 1, as the view ``x[..., 1:]`` of a float
    array (no copy).  Spherical: gnomonic (central) projection x_i / x_0.
    Hyperbolic: Beltrami-Klein x_i / x_0.  Both charts send geodesic
    hyperplanes to affine planes, so singular structure survives.
    """
    x = np.asarray(x, dtype=float)
    if sf.kind == "euclidean":
        return x[..., 1:]
    x0 = x[..., :1]
    x0 = np.where(np.abs(x0) < 1e-9, np.where(x0 >= 0, 1e-9, -1e-9), x0)
    return x[..., 1:] / x0


def _grid_quads(keep, ns):
    """0-based int32 quads joining consecutive kept rows of a (nodes, ns) vertex
    grid; a mesh holds at most ``config.MAX_MESH_VERTICES`` vertices.

    Kept rows are stored back to back, so a dropped row leaves a gap that no
    quad spans.
    """
    keep = np.asarray(keep, dtype=bool)
    row = np.cumsum(keep, dtype=np.int32) - 1
    lower = row[np.flatnonzero(keep[:-1] & keep[1:])]
    quads = np.empty((len(lower), ns - 1, 4), dtype=np.int32)  # corners a, a+1, a+ns+1, a+ns
    np.add(lower[:, None] * ns, np.arange(ns - 1, dtype=np.int32), out=quads[..., 0])
    for corner, step in ((1, 1), (2, ns + 1), (3, ns)):
        np.add(quads[..., 0], step, out=quads[..., corner])
    return quads.reshape(-1, 4)


def _assemble(sf, t, s_grid, keep, strips, tol, meta):
    """The mesh of the strips at nodes t[keep], filled a block of strips at a time.

    ``strips(lo, hi)`` gives the kept strips lo..hi-1: their ambient points,
    (k, ns, 4), and F, F_t, F_tt, (k, ns); it runs with overflow ignored.  A
    block holds about ``_EXPORT_CHUNK`` vertices, so nothing mesh-sized exists
    but the mesh.  A node whose vertices or residuals leave the float range
    raises DomainError, naming the first such t.
    """
    ns = len(s_grid)
    t = t[keep]
    count = len(t) * ns
    ambient, residuals, params = np.empty((count, 4)), np.empty((count, 2)), np.empty((count, 2))
    singular = np.empty(count, dtype=bool)
    grid = params.reshape(-1, ns, 2)
    grid[..., 0], grid[..., 1] = t[:, None], s_grid
    vertices = project_point(ambient, sf) if sf.kind == "euclidean" else np.empty((count, 3))
    step = max(_EXPORT_CHUNK // ns, 1)
    for lo in range(0, len(t), step):
        with np.errstate(over="ignore", invalid="ignore"):
            amb, f, ft, ftt = strips(lo, lo + step)
        finite = np.isfinite(amb).all(axis=(1, 2)) & (np.isfinite(f) & np.isfinite(ft) & np.isfinite(ftt)).all(axis=1)
        if not finite.all():
            raise DomainError(f"the mesh at t = {float(t[lo + np.argmin(finite)])!r} is beyond the float range")
        rows = slice(lo * ns, lo * ns + f.size)
        ambient[rows] = amb.reshape(-1, 4)
        residuals[rows, 0], residuals[rows, 1] = f.ravel(), ft.ravel()
        singular[rows] = (np.abs(ftt) <= tol).ravel()
        if sf.kind != "euclidean":
            vertices[rows] = project_point(amb, sf).reshape(-1, 3)
    return EnvelopeMesh(vertices=vertices, ambient=ambient, params=params, faces=_grid_quads(keep, ns),
                        residuals=residuals, singular=singular, meta=meta)


def _dot(a, b):
    """Row-wise dot products of (N, d) arrays, bit for bit ``a[i] @ b[i]``.

    A stacked matmul runs the same BLAS dot per row; einsum and
    ``norm(axis=1)`` sum in another order and differ in the last bit.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _matvec(a, b):
    """(K, ns, d) @ (K, d) -> (K, ns), bit for bit ``a[k] @ b[k]``."""
    return (a @ b[:, :, None])[..., 0]


def _characteristic_lines(fam, tol):
    """Keep mask over all nodes; at the kept ones the ambient line direction
    E w and the coefficients (a, b) of F_tt = c(s) a + sigma(s) b on the line.

    F = xi_3 = 0 and F_t = -(K xi)_3 = 0 cut out the line through xi = e_0
    along w = (K_32 e_1 - K_31 e_2) / hypot(K_31, K_32), so E w is J-unit and
    J-orthogonal to gamma, nu and nu' to within the frame's Gram defect.  On
    xi = c e_0 + sigma w, F_tt = (K K - K')_3 . xi gives a = (K K - K')_30
    and b = (K K - K')_3 . w.  For the structure matrix w is
    (kappa_3 e_1 - kappa_2 e_2) / hypot(kappa_2, kappa_3); it flips where
    kappa_3 changes sign with kappa_2 = 0, and ``_continued`` undoes such
    flips between consecutive kept nodes.  A node is degenerate when
    hypot(K_31, K_32) <= tol max|K_3.|, the max over the whole field, in every
    geometry; scaling row 3 of K keeps the same nodes.
    """
    k31, k32 = fam.k3[:, 1], fam.k3[:, 2]
    size = np.hypot(k31, k32)
    keep = size > tol * np.max(np.abs(fam.k3), initial=0.0)
    w = np.zeros((np.count_nonzero(keep), fam.frames.shape[-1]))
    w[:, 1], w[:, 2] = k32[keep] / size[keep], -k31[keep] / size[keep]
    direction = _matvec(fam.frames[keep], w)
    sign = _continued(keep, direction)
    q = fam.q3[keep]
    return keep, sign[:, None] * direction, q[:, 0], sign * _dot(q, w)


def _continued(keep, direction):
    """Signs (+-1) for the directions at the kept nodes that make consecutive
    ones have dot >= 0.

    Each run of consecutive kept nodes keeps the sign of its first direction;
    a degenerate node starts a new run.
    """
    index = np.flatnonzero(keep)
    joined = np.diff(index, prepend=-2) == 1  # row k continues the run of row k - 1
    flips = np.cumsum(joined & (_dot(direction, np.roll(direction, 1, axis=0)) < 0))
    run_start = np.maximum.accumulate(np.where(joined, 0, np.arange(len(index))))
    return np.where((flips - flips[run_start]) % 2 == 1, -1.0, 1.0)


def _geodesic(sf, s):
    """(c, sigma) of the geodesic c gamma + sigma v: (1, s) in euclidean space,
    (cos, sin) of s on the sphere, (cosh, sinh) in hyperbolic space."""
    if sf.kind == "euclidean":
        return np.ones_like(s), s
    if sf.kind == "spherical":
        return np.cos(s), np.sin(s)
    return np.cosh(s), np.sinh(s)


def envelope_mesh(fam: HyperplaneFamily, s_grid, tol=1e-9) -> EnvelopeMesh:
    """Mesh the envelope of a hyperplane family, one strip per parameter node.

    Per node the two incidence conditions cut a geodesic line through
    gamma(t); it is parametrized by signed arc length (angle / rapidity on the
    quadrics) centered at gamma(t), along the direction of
    ``_characteristic_lines``.  Nodes where the two conditions are not
    independent are excluded and recorded in meta["degenerate_nodes"].  The
    residuals are the ambient (F, F_t) = (<x - gamma, nu>_G, <x - gamma, nu'>_G),
    G the form matrix or diag(0, 1, ..., 1) on the euclidean slice; a vertex
    is singular where |F_tt| <= tol, with F_tt in frame coordinates.  A node
    whose strip leaves the float range raises DomainError.
    """
    sf = fam.sf
    s_grid = np.asarray(s_grid, dtype=float)
    keep, direction, a, b = _characteristic_lines(fam, tol)
    if not keep.any():
        raise DegeneracyError(0, "hyperplane family is degenerate at every node")
    gamma = fam.frames[keep, :, 0]
    g = np.diag([0.0, 1.0, 1.0, 1.0]) if sf.kind == "euclidean" else sf.form
    nu, nu1 = (n[keep] @ g for n in (fam.normal, fam.normal1))
    with np.errstate(over="ignore", invalid="ignore"):
        c, s = _geodesic(sf, s_grid)

    def strips(lo, hi):
        base = gamma[lo:hi, None, :]
        amb = c[None, :, None] * base + s[None, :, None] * direction[lo:hi, None, :]
        offset, ftt = amb - base, c[None, :] * a[lo:hi, None] + s[None, :] * b[lo:hi, None]
        return amb, _matvec(offset, nu[lo:hi]), _matvec(offset, nu1[lo:hi]), ftt

    t = np.asarray(fam.t, dtype=float)
    meta = {"degenerate_nodes": t[~keep].tolist(), "s_grid": s_grid.tolist()}
    return _assemble(sf, t, s_grid, keep, strips, tol, meta)


# -- normal forms and discriminants ------------------------------------------------


@dataclass(frozen=True)
class NormalFormFamily:
    """Generating family of a type vector (n = 2).

    Its discriminant polynomials x2, x3 and F_tt are built once, here.
    """

    a: tuple

    def __post_init__(self):
        a = tuple(int(x) for x in self.a)
        if len(a) != 3 or a[0] < 1 or not (a[0] < a[1] < a[2]):
            raise DimensionMismatch(f"normal forms take a strictly increasing triple, got {a}")
        object.__setattr__(self, "a", a)
        a1, a2, a3 = a
        x2 = (Poly.monomial_t(a2, Fraction(-factorial(a3 - a2 - 1), factorial(a3 - 1)))
              + Poly({(a2 - a1, 1): Fraction(-factorial(a3 - a2 - 1), factorial(a3 - a1 - 1))}))
        x3 = (Poly({(a3, 0): Fraction(-1, factorial(a3))})
              + Poly({(a3 - a1, 1): Fraction(-1, factorial(a3 - a1))})
              + Poly.monomial_t(a3 - a2, Fraction(-1, factorial(a3 - a2))) * x2)
        ftt = Poly({(a3 - 2, 0): Fraction(1, factorial(a3 - 2))})
        if a3 - a1 >= 2:
            ftt = ftt + Poly({(a3 - a1 - 2, 1): Fraction(1, factorial(a3 - a1 - 2))})
        if a3 - a2 >= 2:
            ftt = ftt + Poly.monomial_t(a3 - a2 - 2, Fraction(1, factorial(a3 - a2 - 2))) * x2
        object.__setattr__(self, "_polys", (x2, x3, ftt))

    def f(self, t, x):
        return self._derivative(t, x, 0)

    def _derivative(self, t, x, order):
        a1, a2, a3 = self.a
        x1, x2, x3 = x
        total = 0.0
        for coeff, deg in ((1.0, a3), (x1, a3 - a1), (x2, a3 - a2), (x3, 0)):
            d = deg - order
            if d >= 0:
                total = total + coeff * t**d / factorial(d)
        return total

    def f_t(self, t, x):
        return self._derivative(t, x, 1)

    def f_tt(self, t, x):
        return self._derivative(t, x, 2)

    # closed-form discriminant: x1 = s, (x2, x3) polynomial in (t, s)

    def x2_poly(self) -> Poly:
        return self._polys[0]

    def x3_poly(self) -> Poly:
        return self._polys[1]

    def f_tt_on_discriminant(self) -> Poly:
        """F_tt with x1 = u and x2 substituted -- linear in u."""
        return self._polys[2]

    def discriminant_point(self, t, s):
        x2, x3, _ = self._polys
        return float(s), x2.evalf(float(t), float(s)), x3.evalf(float(t), float(s))


def discriminant_mesh(nf: NormalFormFamily, t_grid, s_grid, tol=1e-9) -> EnvelopeMesh:
    """Mesh of {F = F_t = 0} with x1 = s as the strip parameter.

    A node whose vertices or residuals leave the float range raises DomainError.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    s_grid = np.asarray(s_grid, dtype=float)
    s = s_grid[None, :]

    def strips(lo, hi):
        t = t_grid[lo:hi, None]
        x = np.broadcast_arrays(s, nf.x2_poly().evalf(t, s), nf.x3_poly().evalf(t, s))
        ambient = np.stack([np.ones_like(x[0]), *x], axis=-1)
        return ambient, nf.f(t, x), nf.f_t(t, x), nf.f_tt_on_discriminant().evalf(t, s)

    keep = np.ones(len(t_grid), dtype=bool)
    return _assemble(SpaceForm("euclidean"), t_grid, s_grid, keep, strips, tol, {"normal_form": nf.a})


# -- singular locus -------------------------------------------------------------------


def singular_locus(obj, grid, tol=1e-9):
    """Points with the additional second-derivative incidence, as polylines.

    ``grid`` is the one grid the family uses: t for a normal form, s for a
    hyperplane family.  Normal-form families solve F_tt = 0 exactly on the
    discriminant (linear in s) at the nodes of the t grid.
    Tangent-hyperplane families solve F_tt = c(s) a + sigma(s) b = 0 (frame
    coordinates) at their own nodes on the characteristic lines of
    ``envelope_mesh``, so s is the mesh's s in every geometry; on the sphere
    both roots s* (|s*| <= pi/2) and s* -+ pi count.  They are kept within
    the range of the s grid, the strip parameters ``envelope_mesh`` takes,
    so every locus point lies on the mesh.  Chains break where the solution
    leaves that range or jumps by more than _CHAIN_GAP.
    """
    grid = np.asarray(grid, dtype=float)
    if isinstance(obj, NormalFormFamily):
        ftt = obj.f_tt_on_discriminant()
        a_poly = ftt.diff_u()
        b_poly = ftt.subs_u(0)
        if a_poly.deg_u() > 0:
            raise DomainError("substituted second derivative is not linear in s")
        # array evalf equals scalar evalf bit for bit, so the nodes are solved at once
        a_val = a_poly.evalf(grid)
        solved = ~(np.abs(a_val) <= 1e-13)  # a NaN coefficient is not skipped
        ts = grid[solved]
        s_star = -b_poly.evalf(ts) / a_val[solved]
        x2, x3 = obj.x2_poly().evalf(ts, s_star), obj.x3_poly().evalf(ts, s_star)
        points = np.column_stack([s_star, x2, x3])
        ambient = np.column_stack([np.ones(len(ts)), points])
        return _chain(np.flatnonzero(solved), ts, s_star, points, ambient)
    if not isinstance(obj, HyperplaneFamily):
        raise DomainError("singular_locus expects a NormalFormFamily or a HyperplaneFamily")

    fam, sf = obj, obj.sf
    keep, direction, a, b = _characteristic_lines(fam, tol)
    if sf.kind == "euclidean":
        solved = np.abs(b) > 1e-13 * np.maximum(1.0, np.abs(a))
        s_star = -a / np.where(solved, b, 1.0)
    elif sf.kind == "spherical":
        # the roots of a cos s + b sin s are pi apart: s* with |s*| <= pi/2 and s* -+ pi
        solved = (np.abs(a) > 1e-13) | (np.abs(b) > 1e-13)
        s_star = np.arctan2(np.where(b < 0, a, -a), np.abs(b))
    else:
        ratio = -a / np.where(np.abs(b) > 1e-13, b, 1.0)
        solved = (np.abs(b) > 1e-13) & (np.abs(ratio) < 1.0)
        s_star = np.arctanh(np.where(solved, ratio, 0.0))
    polylines = []
    for shift in (0.0, -np.pi, np.pi) if sf.kind == "spherical" else (0.0,):
        s_k = s_star + shift
        on = solved & (s_k >= np.min(grid)) & (s_k <= np.max(grid))
        s_k = s_k[on] + 0.0  # an exact root a = 0 gives -0.0; write it as 0.0
        c, s = _geodesic(sf, s_k)
        ambient = c[:, None] * fam.frames[keep, :, 0][on] + s[:, None] * direction[on]
        index = np.flatnonzero(keep)[on]
        polylines += _chain(index, fam.t[index], s_k, project_point(ambient, sf), ambient)
    return polylines


def _chain(index, t, s, points, ambient):
    """Polylines through the solutions at node numbers ``index`` (increasing).

    A chain breaks at a node without a solution and where s jumps by more than
    _CHAIN_GAP; chains of fewer than two points are dropped.
    """
    cuts = np.flatnonzero((np.diff(index) != 1) | (np.abs(np.diff(s)) > _CHAIN_GAP)) + 1
    return [
        Polyline(params=np.column_stack([t[lo:hi], s[lo:hi]]), points=points[lo:hi],
                 ambient=ambient[lo:hi])
        for lo, hi in zip([0, *cuts], [*cuts, len(index)])
        if hi - lo >= 2
    ]


# -- exporters -------------------------------------------------------------------------


def _column_texts(columns, strip):
    """The text of each column of a block, given as the rows of an int64 array
    of float64 bit patterns: a string for a column of one value, else an
    ``S`` array whose fields are as wide as the column's longest text.

    Columns are compared by bit pattern, so -0.0 never shares the text of
    0.0.  A column equal to an earlier one shares its text.  Each
    other column formats one value per run if its value changes on fewer
    than half its rows, else its first strip if it repeats with period
    ``strip``, else each of its values.  One ``format_floats`` call formats
    them all, and each field is a view of that text cut to its column's width.
    """
    keys = [column.tobytes() for column in columns]
    first = [keys.index(key) for key in keys]
    own = sorted(set(first))
    n = columns.shape[1]
    segments = []  # per own column: the values it formats, and the run lengths if any
    for j in own:
        column = columns[j]
        starts = np.flatnonzero(column[1:] != column[:-1]) + 1
        if 2 * len(starts) < n:
            starts = np.concatenate([[0], starts])
            segments.append((column[starts], np.diff(starts, append=n)))
        elif strip < n and (column[strip:] == column[:-strip]).all():
            segments.append((column[:strip], None))
        else:
            segments.append((column, None))
    text = format_floats(np.concatenate([values for values, _ in segments]).view(np.float64))
    texts, stop = {}, 0
    for j, (values, runs) in zip(own, segments):
        column, stop = text[stop:stop + len(values)], stop + len(values)
        if len(values) == 1:
            texts[j] = column[0].decode()
            continue
        # the bytewise OR of the fields ends where the longest text does
        words = column.view(np.uint64).reshape(-1, FLOAT_FIELD // 8).T
        width = len(np.array([np.bitwise_or.reduce(w) for w in words]).tobytes().rstrip(b"\0"))
        field = np.ndarray(len(column), f"S{width}", column, strides=(FLOAT_FIELD,))
        if runs is not None:
            field = np.repeat(field, runs)
        texts[j] = field if len(field) == n else np.resize(field, n)
    return [texts[j] for j in first]


def _write_vertices(handle, params, ambient, points, singular):
    """``# param``, ``# ambient``, optional mark and ``v`` lines of every row,
    formatted and written a block at a time: as many whole strips (the first
    run of rows with the first t's bit pattern) as fit in ``_EXPORT_CHUNK``
    rows, or ``_EXPORT_CHUNK`` rows of a longer strip.

    ``_column_texts`` gives each column of a block its text: a column of one
    value is a constant string of the row template, and every other field is
    as wide as its column's longest text.
    """
    params, ambient, points = (np.asarray(x, dtype=float) for x in (params, ambient, points))
    dim = ambient.shape[1]
    t = params[:_EXPORT_CHUNK + 1, 0].view(np.int64)
    strip = 1 + int(np.flatnonzero(np.append(t[1:] != t[:-1], True))[0])
    rows = _EXPORT_CHUNK // strip * strip or _EXPORT_CHUNK
    for lo in range(0, len(params), rows):
        hi = lo + rows
        block = np.concatenate([params[lo:hi].T, ambient[lo:hi].T, points[lo:hi].T])
        cols = _column_texts(block.view(np.int64), strip)
        marked = singular[lo:hi]
        mark = np.where(marked, b"# mark singular-locus\n", b"") if marked.any() else ""
        handle.write(rows_text(["# param ", *spaced(cols[:2]), "\n# ambient ",
                                *spaced(cols[2:2 + dim]), "\n", mark, "v ",
                                *spaced(cols[2 + dim:]), "\n"], len(marked)))


def _write_records(handle, tag, indices):
    """One ``tag i j ...`` line per row of a non-negative integer array of 0-based
    indices, each written 1-based as OBJ numbers vertices, in chunks; each index
    in a chunk's range is formatted once."""
    for start in range(0, len(indices), _EXPORT_CHUNK):
        chunk = indices[start:start + _EXPORT_CHUNK]
        lo = int(chunk.min())
        cols = format_ints(np.arange(lo + 1, int(chunk.max()) + 2))[chunk - lo]
        handle.write(rows_text([f"{tag} ", *spaced(cols.T), "\n"]))


def export_obj(mesh: EnvelopeMesh, path):
    """ASCII mesh export: per-vertex comments and v lines, then 1-based faces.

    Floats are written with ``repr`` (shortest round-trip form).  The text is
    built and written to disk in chunks of ``_EXPORT_CHUNK`` rows, so memory
    stays bounded: beside the mesh, which is read and never copied, an export
    holds one chunk's text and scratch, the vertex numbers of a face chunk included.
    """
    with atomic_open(path) as handle:
        _write_vertices(handle, mesh.params, mesh.ambient, mesh.vertices, mesh.singular)
        _write_records(handle, "f", mesh.faces)
        if not len(mesh.params) and not len(mesh.faces):
            handle.write(b"\n")


def export_polylines(polylines, path):
    """ASCII polyline export: v lines plus 2-vertex l records."""
    sizes = np.array([len(pl.points) for pl in polylines], dtype=int)
    last = np.cumsum(sizes)[sizes > 0] - 1  # 0-based index of each chain's last vertex
    first = np.setdiff1d(np.arange(sizes.sum()), last)  # every vertex with a successor
    with atomic_open(path) as handle:
        if not sizes.sum():
            handle.write(b"\n")
            return
        _write_vertices(handle, *(np.concatenate([getattr(pl, key) for pl in polylines])
                                  for key in ("params", "ambient", "points")),
                        np.zeros(sizes.sum(), dtype=bool))
        _write_records(handle, "l", np.column_stack([first, first + 1]))
