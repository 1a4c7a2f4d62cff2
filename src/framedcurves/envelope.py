"""Envelopes of tangent-hyperplane families and discriminants of normal forms.

For a framed curve the hyperplanes are carried by the last frame vector; the
envelope is swept out, per parameter value, by the solution set of the two
incidence conditions (the hyperplane equation and its t-derivative).  For
n = 2 that solution set is a geodesic line through the curve point itself,
so every strip is centered at gamma(t).

Normal-form generating families

    F(t, x) = t^{a3}/a3! + x1 t^{a3-a1}/(a3-a1)! + x2 t^{a3-a2}/(a3-a2)! + x3

have their discriminants {F = F_t = 0} solved in closed form: with x1 = s,
both x2 and x3 are polynomial in (t, s), and the deeper locus F_tt = 0 is
linear in s.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import factorial

import numpy as np

from .errors import CapabilityError, DegeneracyError, DimensionMismatch, DomainError
from .fileio import atomic_write_text, format_float
from .frames import FrameField, structure_matrix, structure_poly_matrix
from .ratpoly import Poly
from .spaceform import SpaceForm, inner_product, space_form

DEFAULT_S_WINDOW = 1.5
_EXPORT_CHUNK = 4096  # mesh rows formatted per batch in export_obj


# -- hyperplane families --------------------------------------------------------


@dataclass
class HyperplaneFamily:
    """Tangent-hyperplane samples with first and second derivative access.

    ``normal*`` rows are full ambient vectors (euclidean normals keep their
    leading zero); euclidean families also carry offsets r, r', r''.  ``base``
    holds gamma(t), which lies on every characteristic line.
    """

    sf: SpaceForm
    t: np.ndarray
    normal: np.ndarray
    normal1: np.ndarray
    normal2: np.ndarray
    offset: np.ndarray = None
    offset1: np.ndarray = None
    offset2: np.ndarray = None
    base: np.ndarray = None


def _field_derivative_tables(field: FrameField):
    """Per-node (E, E', E'') via the best available channel."""
    mats = field.matrices
    n = len(field.s)
    if field.matrix_derivative_fn is not None:
        fn = field.matrix_derivative_fn
        e1 = np.stack([np.asarray(fn(float(t), 1), dtype=float) for t in field.s])
        e2 = np.stack([np.asarray(fn(float(t), 2), dtype=float) for t in field.s])
        return mats, e1, e2
    curv = field.curvature
    if curv is not None and curv.kappa_polys is not None:
        kp = structure_poly_matrix(curv)
        kp1 = [[p.diff_t() for p in row] for row in kp]
        e1 = np.empty_like(mats)
        e2 = np.empty_like(mats)
        for i, t in enumerate(field.s):
            k = np.array([[p.evalf(float(t)) for p in row] for row in kp])
            k1 = np.array([[p.evalf(float(t)) for p in row] for row in kp1])
            e1[i] = mats[i] @ k
            e2[i] = mats[i] @ (k @ k + k1)
        return mats, e1, e2
    if curv is not None:
        e1 = np.empty_like(mats)
        for i, t in enumerate(field.s):
            e1[i] = mats[i] @ structure_matrix(curv.delta, curv.values(float(t)))
        e2 = np.gradient(e1, field.s, axis=0)
        return mats, e1, e2
    if n < 2:
        raise CapabilityError("cannot differentiate a single-frame field")
    e1 = np.gradient(mats, field.s, axis=0)
    e2 = np.gradient(e1, field.s, axis=0)
    return mats, e1, e2


def hyperplane_family(field: FrameField, curve=None) -> HyperplaneFamily:
    """The tangent-hyperplane family carried by e_{n+1} of a frame field.

    Euclidean offsets are r = -gamma . e_{n+1} with derivatives by the product
    rule; gamma jets come from ``curve`` when given, else from the field's own
    derivative channels.
    """
    sf = field.sf
    e0, e1, e2 = _field_derivative_tables(field)
    normal = e0[:, :, -1].copy()
    normal1 = e1[:, :, -1].copy()
    normal2 = e2[:, :, -1].copy()
    base = e0[:, :, 0].copy()
    fam = HyperplaneFamily(sf, np.asarray(field.s, dtype=float), normal, normal1, normal2, base=base)
    if sf.kind != "euclidean":
        return fam

    n = len(field.s)
    g0 = np.empty((n, sf.dim - 1))
    g1 = np.empty_like(g0)
    g2 = np.empty_like(g0)
    for i, t in enumerate(field.s):
        if curve is not None:
            jet = curve.jet(float(t), 2)
            g0[i], g1[i], g2[i] = jet[1:, 0], jet[1:, 1], jet[1:, 2]
        else:
            g0[i], g1[i], g2[i] = e0[i][1:, 0], e1[i][1:, 0], e2[i][1:, 0]
    sp = slice(1, None)
    fam.offset = -np.einsum("ij,ij->i", g0, normal[:, sp])
    fam.offset1 = -(
        np.einsum("ij,ij->i", g1, normal[:, sp]) + np.einsum("ij,ij->i", g0, normal1[:, sp])
    )
    fam.offset2 = -(
        np.einsum("ij,ij->i", g2, normal[:, sp])
        + 2.0 * np.einsum("ij,ij->i", g1, normal1[:, sp])
        + np.einsum("ij,ij->i", g0, normal2[:, sp])
    )
    return fam


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


def _strip_euclidean(fam, i, s_grid, tol):
    e = fam.normal[i][1:]
    e1 = fam.normal1[i][1:]
    cross = np.cross(e, e1)
    norm = np.linalg.norm(cross)
    if norm <= max(tol, 1e-13) * max(np.linalg.norm(e) * np.linalg.norm(e1), 1e-300):
        return None
    u = cross / norm
    p0 = fam.base[i][1:]
    pts = p0[None, :] + s_grid[:, None] * u[None, :]
    amb = np.concatenate([np.ones((len(s_grid), 1)), pts], axis=1)
    f = pts @ e + fam.offset[i]
    ft = pts @ e1 + fam.offset1[i]
    ftt = pts @ fam.normal2[i][1:] + fam.offset2[i]
    return amb, f, ft, ftt, u


def _strip_quadric(fam, i, s_grid, tol, prev_b2):
    sf = fam.sf
    j = sf.form.matrix
    rows = np.stack([fam.normal[i] @ j, fam.normal1[i] @ j])
    sv = np.linalg.svd(rows, compute_uv=False)
    if sv[0] <= 0 or sv[1] <= max(tol, 1e-13) * sv[0]:
        return None
    _, _, vh = np.linalg.svd(rows)
    w_basis = vh[2:]  # orthonormal basis of the solution plane
    gamma = fam.base[i]
    # pick the basis vector least aligned with gamma, project J-orthogonally
    overlaps = [abs(float(w @ gamma)) for w in w_basis]
    w = w_basis[int(np.argmin(overlaps))]
    gg = inner_product(gamma, gamma, sf.form)
    b2 = w - (inner_product(w, gamma, sf.form) / gg) * gamma
    q = inner_product(b2, b2, sf.form)
    if q <= max(tol, 1e-13):
        return None
    b2 = b2 / np.sqrt(q)
    if prev_b2 is not None and float(b2 @ prev_b2) < 0:
        b2 = -b2
    if sf.kind == "spherical":
        amb = np.cos(s_grid)[:, None] * gamma[None, :] + np.sin(s_grid)[:, None] * b2[None, :]
    else:
        amb = np.cosh(s_grid)[:, None] * gamma[None, :] + np.sinh(s_grid)[:, None] * b2[None, :]
    f = amb @ (j @ fam.normal[i])
    ft = amb @ (j @ fam.normal1[i])
    ftt = amb @ (j @ fam.normal2[i])
    return amb, f, ft, ftt, b2


def envelope_mesh(
    fam: HyperplaneFamily,
    s_grid=None,
    tol=1e-9,
    threads=1,
) -> EnvelopeMesh:
    """Mesh the envelope of a hyperplane family, one strip per parameter node.

    Per node the two incidence conditions cut a geodesic line through
    gamma(t); it is parametrized by signed arc length (angle / rapidity on the
    quadrics) centered at gamma(t).  Nodes where the two conditions are not
    independent are excluded and recorded in meta["degenerate_nodes"].
    """
    sf = fam.sf
    if sf.n != 2:
        raise CapabilityError("envelope meshing is wired for n = 2")
    if s_grid is None:
        s_grid = np.linspace(-DEFAULT_S_WINDOW, DEFAULT_S_WINDOW, 51)
    s_grid = np.asarray(s_grid, dtype=float)

    def build(i):
        if sf.kind == "euclidean":
            return _strip_euclidean(fam, i, s_grid, tol)
        return _strip_quadric(fam, i, s_grid, tol, None)

    indices = range(len(fam.t))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            raw = list(pool.map(build, indices))
    else:
        raw = [build(i) for i in indices]

    # orientation continuity for the quadric strips (sequential pass)
    if sf.kind != "euclidean":
        prev = None
        for i, strip in enumerate(raw):
            if strip is None:
                prev = None
                continue
            b2 = strip[4]
            if prev is not None and float(b2 @ prev) < 0:
                strip = _strip_quadric(fam, i, s_grid, tol, prev)
                raw[i] = strip
                b2 = strip[4]
            prev = b2

    keep = np.array([strip is not None for strip in raw], dtype=bool)
    if not keep.any():
        raise DegeneracyError(0, "hyperplane family is degenerate at every node")
    strips = [strip[:4] for strip in raw if strip is not None]
    amb, f, ft, ftt = (np.stack(col) for col in zip(*strips))
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
        a1, a2, a3 = self.a
        x1, x2, x3 = x
        return (
            t**a3 / factorial(a3)
            + x1 * t ** (a3 - a1) / factorial(a3 - a1)
            + x2 * t ** (a3 - a2) / factorial(a3 - a2)
            + x3
        )

    def _derivative(self, t, x, order):
        a1, a2, a3 = self.a
        x1, x2, x3 = x
        total = 0.0
        for coeff, deg in ((1.0, a3), (x1, a3 - a1), (x2, a3 - a2)):
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
    """Mesh of {F = F_t = 0} with x1 = s as the strip parameter."""
    t_grid = np.asarray(t_grid, dtype=float)
    s_grid = np.asarray(s_grid, dtype=float)
    t, s = t_grid[:, None], s_grid[None, :]
    x = np.broadcast_arrays(s, nf.x2_poly().evalf(t, s), nf.x3_poly().evalf(t, s))
    ambient = np.stack([np.ones_like(x[0]), *x], axis=-1)
    keep = np.ones(len(t_grid), dtype=bool)
    return _assemble(
        space_form("euclidean"), t_grid, s_grid, keep, ambient, nf.f(t, x), nf.f_t(t, x),
        nf.f_tt_on_discriminant().evalf(t, s), tol, {"normal_form": nf.a},
    )


# -- singular locus -------------------------------------------------------------------


def singular_locus(obj, tol=1e-9, t_grid=None, chain_gap=0.5, s_window=DEFAULT_S_WINDOW):
    """Points with the additional second-derivative incidence, as polylines.

    Normal-form families solve F_tt = 0 exactly on the discriminant (linear
    in s); hyperplane families solve per node on the characteristic line.
    Chains break where the solution leaves the s-window or jumps by more than
    chain_gap.
    """
    if isinstance(obj, NormalFormFamily):
        if t_grid is None:
            t_grid = np.linspace(-1.0, 1.0, 201)
        ftt = obj.f_tt_on_discriminant()
        a_poly = ftt.diff_u()
        b_poly = ftt.subs_u(0)
        if a_poly.deg_u() > 0:
            raise DomainError("substituted second derivative is not linear in s")
        records = []
        for t in np.asarray(t_grid, dtype=float):
            a_val = a_poly.evalf(float(t))
            if abs(a_val) <= 1e-13:
                records.append(None)
                continue
            s_star = -b_poly.evalf(float(t)) / a_val
            x = (float(s_star),) + (
                obj.x2_poly().evalf(float(t), float(s_star)),
                obj.x3_poly().evalf(float(t), float(s_star)),
            )
            records.append(((float(t), float(s_star)), x, (1.0,) + x))
        return _chain_records(records, chain_gap)

    if isinstance(obj, HyperplaneFamily):
        fam = obj
        sf = fam.sf
        records = []
        for i, t in enumerate(fam.t):
            rec = None
            if sf.kind == "euclidean":
                strip = _strip_euclidean(fam, i, np.array([0.0]), tol)
                if strip is not None:
                    u = strip[4]
                    num = float(fam.base[i][1:] @ fam.normal2[i][1:]) + float(fam.offset2[i])
                    den = float(u @ fam.normal2[i][1:])
                    if abs(den) > 1e-13 * max(1.0, abs(num)):
                        s_star = -num / den
                        if abs(s_star) <= s_window:
                            point = fam.base[i][1:] + s_star * u
                            ambient = np.concatenate(([1.0], point))
                            rec = ((float(t), float(s_star)), tuple(point), tuple(ambient))
            else:
                strip = _strip_quadric(fam, i, np.array([0.0]), tol, None)
                if strip is not None:
                    b2 = strip[4]
                    jm = sf.form.matrix
                    cg = float(fam.base[i] @ (jm @ fam.normal2[i]))
                    cb = float(b2 @ (jm @ fam.normal2[i]))
                    s_star = None
                    if sf.kind == "spherical":
                        if abs(cg) > 1e-13 or abs(cb) > 1e-13:
                            s_star = float(np.arctan2(-cg, cb))
                    else:
                        if abs(cb) > 1e-13 and abs(cg / cb) < 1.0:
                            s_star = float(np.arctanh(-cg / cb))
                    if s_star is not None and abs(s_star) <= s_window:
                        if sf.kind == "spherical":
                            ambient = np.cos(s_star) * fam.base[i] + np.sin(s_star) * b2
                        else:
                            ambient = np.cosh(s_star) * fam.base[i] + np.sinh(s_star) * b2
                        rec = ((float(t), s_star), tuple(project_point(ambient, sf)), tuple(ambient))
            records.append(rec)
        return _chain_records(records, chain_gap)

    if isinstance(obj, EnvelopeMesh):
        records = [
            ((float(obj.params[k, 0]), float(obj.params[k, 1])), tuple(obj.vertices[k]), tuple(obj.ambient[k]))
            for k in np.flatnonzero(obj.singular)
        ]
        return _chain_records(records, chain_gap)
    raise DomainError("singular_locus expects a NormalFormFamily, HyperplaneFamily, or EnvelopeMesh")


def _chain_records(records, chain_gap):
    polylines = []
    current = []
    prev_s = None
    for rec in records:
        if rec is None:
            if len(current) >= 2:
                polylines.append(current)
            current, prev_s = [], None
            continue
        (t, s), point, ambient = rec
        if prev_s is not None and abs(s - prev_s) > chain_gap:
            if len(current) >= 2:
                polylines.append(current)
            current = []
        current.append(rec)
        prev_s = s
    if len(current) >= 2:
        polylines.append(current)
    out = []
    for chain in polylines:
        params = np.array([c[0] for c in chain])
        points = np.array([c[1] for c in chain])
        ambient = np.array([c[2] for c in chain])
        out.append(Polyline(params=params, points=points, ambient=ambient))
    return out


# -- exporters -------------------------------------------------------------------------


def export_obj(mesh: EnvelopeMesh, path, triangulate=False):
    """ASCII mesh export: per-vertex comments and v lines, then 1-based faces.

    Floats are written with ``repr`` (shortest round-trip form).  Rows are
    formatted in chunks so the temporary Python objects stay bounded.
    """
    head = "# param {!r} {!r}\n# ambient " + " ".join(["{!r}"] * mesh.ambient.shape[1]) + "\n"
    tail = "v " + " ".join(["{!r}"] * mesh.vertices.shape[1]) + "\n"
    plain, marked = (head + tail).format, (head + "# mark singular-locus\n" + tail).format
    rows = np.concatenate([mesh.params, mesh.ambient, mesh.vertices], axis=1)
    faces = mesh.faces + 1
    if triangulate:
        faces = faces[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)
    face = ("f" + " {}" * faces.shape[1] + "\n").format
    blocks = []
    for lo in range(0, len(rows), _EXPORT_CHUNK):
        chunk = zip(rows[lo:lo + _EXPORT_CHUNK].tolist(), mesh.singular[lo:lo + _EXPORT_CHUNK].tolist())
        blocks.append("".join((marked if m else plain)(*row) for row, m in chunk))
    for lo in range(0, len(faces), _EXPORT_CHUNK):
        blocks.append("".join(face(*row) for row in faces[lo:lo + _EXPORT_CHUNK].tolist()))
    atomic_write_text(path, "".join(blocks) or "\n")


def export_polylines(polylines, path):
    """ASCII polyline export: v lines plus 2-vertex l records."""
    lines = []
    offset = 0
    segments = []
    for pl in polylines:
        for k in range(len(pl.points)):
            t, s = pl.params[k]
            lines.append(f"# param {format_float(t)} {format_float(s)}")
            lines.append("# ambient " + " ".join(format_float(x) for x in pl.ambient[k]))
            lines.append("v " + " ".join(format_float(x) for x in pl.points[k]))
        for k in range(len(pl.points) - 1):
            segments.append((offset + k + 1, offset + k + 2))
        offset += len(pl.points)
    for i, j in segments:
        lines.append(f"l {i} {j}")
    atomic_write_text(path, "\n".join(lines) + "\n")
