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
from .fileio import atomic_open, format_floats, rows_text, spaced
from .frames import FrameField
from .ratpoly import Poly
from .spaceform import SpaceForm

DEFAULT_S_WINDOW = 1.5
_CHAIN_GAP = 0.5  # a locus polyline breaks where s jumps by more than this
_EXPORT_CHUNK = 4096  # rows formatted and written per batch by the OBJ exporters


# -- hyperplane families --------------------------------------------------------


@dataclass
class HyperplaneFamily:
    """The family F(t, x) = (E(t)^{-1} x)_3 of a frame field, sampled at its nodes.

    ``frames`` holds E, whose e_0 column gamma(t) lies on every characteristic
    line.  ``k3`` and ``q3`` are row 3 of K = E^{-1} E' and of K K - K', so that
    F_t = -k3 . xi and F_tt = q3 . xi in frame coordinates xi = E^{-1} x.
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
    """The tangent-hyperplane family carried by e_{n+1} of a frame field.

    E' = E K and K K - K' come from the K and K' the field carries.
    """
    mats, k = field.matrices, field.k
    return HyperplaneFamily(field.sf, np.asarray(field.s, dtype=float), mats, mats[:, :, -1],
                            (mats @ k)[:, :, -1], k[:, -1], (k @ k - field.dk)[:, -1])


# -- meshes ----------------------------------------------------------------------


@dataclass
class EnvelopeMesh:
    """Quad strip mesh stored as columns: one row per vertex, one per face."""

    vertices: np.ndarray  # (M, 3) projected coordinates
    ambient: np.ndarray  # (M, dim)
    params: np.ndarray  # (M, 2) rows (t, s)
    faces: np.ndarray  # (F, 4) 0-based quad vertex indices
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

    Euclidean: drop the leading 1.  Spherical: gnomonic (central) projection
    x_i / x_0.  Hyperbolic: Beltrami-Klein x_i / x_0.  Both charts send
    geodesic hyperplanes to affine planes, so singular structure survives.
    """
    x = np.asarray(x, dtype=float)
    if sf.kind == "euclidean":
        return x[..., 1:].copy()
    x0 = x[..., :1]
    x0 = np.where(np.abs(x0) < 1e-9, np.where(x0 >= 0, 1e-9, -1e-9), x0)
    return x[..., 1:] / x0


def _grid_quads(keep, ns):
    """0-based quads joining consecutive kept rows of a (nodes, ns) vertex grid.

    Kept rows are stored back to back, so a dropped row leaves a gap that no
    quad spans.
    """
    keep = np.asarray(keep, dtype=bool)
    row = np.cumsum(keep) - 1
    lower = row[np.flatnonzero(keep[:-1] & keep[1:])]
    a = (lower[:, None] * ns + np.arange(ns - 1)[None, :]).ravel()
    return np.stack([a, a + 1, a + ns + 1, a + ns], axis=1)


def _assemble(sf, t, s_grid, keep, ambient, f, ft, ftt, tol, meta):
    """The mesh of the strips at nodes t[keep].

    ``ambient`` is (K, ns, dim) and f, ft, ftt are (K, ns), one row per kept node.
    """
    ns = len(s_grid)
    t = t[keep]
    ambient = ambient.reshape(-1, ambient.shape[-1])
    return EnvelopeMesh(
        vertices=project_point(ambient, sf),
        ambient=ambient,
        params=np.column_stack([np.repeat(t, ns), np.tile(s_grid, len(t))]),
        faces=_grid_quads(keep, ns),
        residuals=np.column_stack([f.ravel(), ft.ravel()]),
        singular=(np.abs(ftt) <= tol).ravel(),
        meta=meta,
    )


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


def _strip_grid(s_grid):
    """The strip parameters as floats; None gives the default 51 nodes on
    [-DEFAULT_S_WINDOW, DEFAULT_S_WINDOW]."""
    if s_grid is None:
        return np.linspace(-DEFAULT_S_WINDOW, DEFAULT_S_WINDOW, 51)
    return np.asarray(s_grid, dtype=float)


def envelope_mesh(fam: HyperplaneFamily, s_grid=None, tol=1e-9) -> EnvelopeMesh:
    """Mesh the envelope of a hyperplane family, one strip per parameter node.

    Per node the two incidence conditions cut a geodesic line through
    gamma(t); it is parametrized by signed arc length (angle / rapidity on the
    quadrics) centered at gamma(t), along the direction of
    ``_characteristic_lines``.  Nodes where the two conditions are not
    independent are excluded and recorded in meta["degenerate_nodes"].  The
    residuals are the ambient (F, F_t) = (<x - gamma, nu>_G, <x - gamma, nu'>_G),
    G the form matrix or diag(0, 1, ..., 1) on the euclidean slice; a vertex
    is singular where |F_tt| <= tol, with F_tt in frame coordinates.
    """
    sf = fam.sf
    s_grid = _strip_grid(s_grid)
    keep, direction, a, b = _characteristic_lines(fam, tol)
    if not keep.any():
        raise DegeneracyError(0, "hyperplane family is degenerate at every node")
    gamma = fam.frames[keep, :, 0]
    c, s = _geodesic(sf, s_grid)
    amb = c[None, :, None] * gamma[:, None, :] + s[None, :, None] * direction[:, None, :]
    g = np.diag([0.0, 1.0, 1.0, 1.0]) if sf.kind == "euclidean" else sf.form
    f, ft = (_matvec(amb - gamma[:, None, :], n[keep] @ g) for n in (fam.normal, fam.normal1))
    ftt = c[None, :] * a[:, None] + s[None, :] * b[:, None]
    t = np.asarray(fam.t, dtype=float)
    meta = {"degenerate_nodes": t[~keep].tolist(), "s_grid": s_grid.tolist()}
    return _assemble(sf, t, s_grid, keep, amb, f, ft, ftt, tol, meta)


# -- normal forms and discriminants ------------------------------------------------


@dataclass(frozen=True)
class NormalFormFamily:
    """Generating family of a type vector (n = 2)."""

    a: tuple

    def __post_init__(self):
        a = tuple(int(x) for x in self.a)
        if len(a) != 3 or a[0] < 1 or not (a[0] < a[1] < a[2]):
            raise DimensionMismatch(f"normal forms take a strictly increasing triple, got {a}")
        object.__setattr__(self, "a", a)

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
        a1, a2, a3 = self.a
        term1 = Poly.monomial_t(a2, Fraction(-factorial(a3 - a2 - 1), factorial(a3 - 1)))
        term2 = Poly(
            {(a2 - a1, 1): Fraction(-factorial(a3 - a2 - 1), factorial(a3 - a1 - 1))}
        )
        return term1 + term2

    def x3_poly(self) -> Poly:
        a1, a2, a3 = self.a
        out = Poly({(a3, 0): Fraction(-1, factorial(a3))})
        out = out + Poly({(a3 - a1, 1): Fraction(-1, factorial(a3 - a1))})
        out = out + Poly.monomial_t(a3 - a2, Fraction(-1, factorial(a3 - a2))) * self.x2_poly()
        return out

    def f_tt_on_discriminant(self) -> Poly:
        """F_tt with x1 = u and x2 substituted -- linear in u."""
        a1, a2, a3 = self.a
        out = Poly({(a3 - 2, 0): Fraction(1, factorial(a3 - 2))})
        if a3 - a1 >= 2:
            out = out + Poly({(a3 - a1 - 2, 1): Fraction(1, factorial(a3 - a1 - 2))})
        if a3 - a2 >= 2:
            out = out + Poly.monomial_t(a3 - a2 - 2, Fraction(1, factorial(a3 - a2 - 2))) * self.x2_poly()
        return out

    def discriminant_point(self, t, s):
        return (
            float(s),
            self.x2_poly().evalf(float(t), float(s)),
            self.x3_poly().evalf(float(t), float(s)),
        )


def discriminant_mesh(nf: NormalFormFamily, t_grid, s_grid, tol=1e-9) -> EnvelopeMesh:
    """Mesh of {F = F_t = 0} with x1 = s as the strip parameter.

    A node whose vertices or residuals leave the float range raises DomainError.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    s_grid = np.asarray(s_grid, dtype=float)
    t, s = t_grid[:, None], s_grid[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.broadcast_arrays(s, nf.x2_poly().evalf(t, s), nf.x3_poly().evalf(t, s))
        ambient = np.stack([np.ones_like(x[0]), *x], axis=-1)
        f, ft, ftt = nf.f(t, x), nf.f_t(t, x), nf.f_tt_on_discriminant().evalf(t, s)
    finite = np.isfinite(ambient).all(axis=-1) & np.isfinite(f) & np.isfinite(ft) & np.isfinite(ftt)
    finite = finite.all(axis=1)
    if not finite.all():
        raise DomainError(f"the discriminant at t = {float(t_grid[~finite][0])!r} is beyond the float range")
    keep = np.ones(len(t_grid), dtype=bool)
    return _assemble(SpaceForm("euclidean"), t_grid, s_grid, keep, ambient, f, ft, ftt, tol,
                     {"normal_form": nf.a})


# -- singular locus -------------------------------------------------------------------


def singular_locus(obj, tol=1e-9, t_grid=None, s_grid=None):
    """Points with the additional second-derivative incidence, as polylines.

    Normal-form families solve F_tt = 0 exactly on the discriminant (linear
    in s) at the nodes of ``t_grid``, which applies to normal forms only.
    Tangent-hyperplane families solve F_tt = c(s) a + sigma(s) b = 0 (frame
    coordinates) at their own nodes on the characteristic lines of
    ``envelope_mesh``, so s is the mesh's s in every geometry; on the sphere
    both roots s* (|s*| <= pi/2) and s* -+ pi count.  They are kept within
    the range of ``s_grid``, the strip parameters ``envelope_mesh`` takes
    (same default), so every locus point lies on the mesh.  Chains break
    where the solution leaves that range or jumps by more than _CHAIN_GAP.
    """
    if isinstance(obj, NormalFormFamily):
        if t_grid is None:
            t_grid = np.linspace(-1.0, 1.0, 201)
        ftt = obj.f_tt_on_discriminant()
        a_poly = ftt.diff_u()
        b_poly = ftt.subs_u(0)
        if a_poly.deg_u() > 0:
            raise DomainError("substituted second derivative is not linear in s")
        # array evalf equals scalar evalf bit for bit, so the nodes are solved at once
        t = np.asarray(t_grid, dtype=float)
        a_val = a_poly.evalf(t)
        solved = ~(np.abs(a_val) <= 1e-13)  # a NaN coefficient is not skipped
        ts = t[solved]
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
    s_grid = _strip_grid(s_grid)
    polylines = []
    for shift in (0.0, -np.pi, np.pi) if sf.kind == "spherical" else (0.0,):
        s_k = s_star + shift
        on = solved & (s_k >= np.min(s_grid)) & (s_k <= np.max(s_grid))
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


def _write_vertices(handle, params, ambient, points, singular):
    """``# param``, ``# ambient``, optional mark and ``v`` lines of every row,
    formatted and written ``_EXPORT_CHUNK`` rows at a time.

    A column equal to an earlier one shares its text, and each distinct value
    of the other columns (by bit pattern, so that -0.0, NaN and inf keep their
    own ``repr``) is formatted once.
    """
    params, ambient, points = (np.asarray(x, dtype=float) for x in (params, ambient, points))
    dim = ambient.shape[1]
    for lo in range(0, len(params), _EXPORT_CHUNK):
        hi = lo + _EXPORT_CHUNK
        block = np.concatenate([params[lo:hi], ambient[lo:hi], points[lo:hi]], axis=1)
        keys = [col.tobytes() for col in block.T]
        first = [keys.index(key) for key in keys]
        own = sorted(set(first))
        bits, inverse = np.unique(block[:, own].view(np.int64), return_inverse=True)
        text = format_floats(bits.view(np.float64))[inverse.reshape(len(block), len(own))]
        cols = [text[:, own.index(j)] for j in first]
        marked = singular[lo:hi]
        mark = np.where(marked, b"# mark singular-locus\n", b"") if marked.any() else ""
        handle.write(rows_text(["# param ", *spaced(cols[:2]), "\n# ambient ",
                                *spaced(cols[2:2 + dim]), "\n", mark, "v ",
                                *spaced(cols[2 + dim:]), "\n"]))


def _write_records(handle, tag, indices):
    """One ``tag i j ...`` line per row of an integer array, in chunks."""
    if not len(indices):
        return
    lo = int(indices.min())
    names = np.array([str(i) for i in range(lo, int(indices.max()) + 1)], dtype=object)
    head, sep = f"{tag} ", f"\n{tag} "
    for start in range(0, len(indices), _EXPORT_CHUNK):
        cols = names[indices[start:start + _EXPORT_CHUNK].T - lo].tolist()
        handle.write(head + sep.join(map(" ".join, zip(*cols))) + "\n")


def export_obj(mesh: EnvelopeMesh, path):
    """ASCII mesh export: per-vertex comments and v lines, then 1-based faces.

    Floats are written with ``repr`` (shortest round-trip form).  The text is
    built and written to disk in chunks of rows, so memory stays bounded.
    """
    faces = mesh.faces + 1
    with atomic_open(path) as handle:
        _write_vertices(handle, mesh.params, mesh.ambient, mesh.vertices, mesh.singular)
        _write_records(handle, "f", faces)
        if not len(mesh.params) and not len(faces):
            handle.write("\n")


def export_polylines(polylines, path):
    """ASCII polyline export: v lines plus 2-vertex l records."""
    sizes = np.array([len(pl.points) for pl in polylines], dtype=int)
    last = np.cumsum(sizes)[sizes > 0]  # 1-based index of each chain's last vertex
    first = np.setdiff1d(np.arange(1, sizes.sum() + 1), last)  # every vertex with a successor
    with atomic_open(path) as handle:
        if not sizes.sum():
            handle.write("\n")
            return
        _write_vertices(handle, *(np.concatenate([getattr(pl, key) for pl in polylines])
                                  for key in ("params", "ambient", "points")),
                        np.zeros(sizes.sum(), dtype=bool))
        _write_records(handle, "l", np.column_stack([first, first + 1]))
