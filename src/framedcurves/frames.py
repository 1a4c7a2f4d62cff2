"""Adapted and osculating frames along curves in the three model geometries.

A frame is a 4x4 matrix whose columns are (e_0, e_1, e_2, e_3) with e_0 the
base point on the model (curves in 3-space, n = 2).  Signed orthonormality
means E^T J E = J for the quadric models; in the euclidean affine convention
e_0 has leading coordinate 1, the remaining columns have leading coordinate 0
and spatially orthonormal parts, and the position part of e_0 is
unconstrained.

The structure equation in arc length reads

    e_0' = e_1
    e_1' = -delta e_0 + kappa_1 e_2 + kappa_2 e_3
    e_2' = -kappa_1 e_1 + kappa_3 e_3
    e_3' = -kappa_2 e_1 - kappa_3 e_2

i.e. E' = E K with the coefficient matrix K below.  The dual curve of a frame
field is gamma_hat = E^{-T} w, w = (0, 0, 0, 1); its derivative jets satisfy
the companion recursion d_{k+1} = d_k' + L d_k with L = -K^T, which stays in
exact rational arithmetic because the curvatures are polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import (
    DegeneracyError,
    DimensionMismatch,
    DomainError,
    IntegrationError,
)
from .ratpoly import Poly, as_fraction
from .spaceform import SpaceForm, group_exp

_GS_TOL = 1e-12


# -- frames -------------------------------------------------------------------


def gram_defect(matrix, sf: SpaceForm):
    """How far a frame matrix is from signed orthonormality (sup norm).

    Euclidean frames are affine: the defect combines the leading-row pattern
    (1, 0, 0, 0) with orthonormality of the spatial block of e_1, e_2, e_3;
    the position part of e_0 is free.  Lorentz frames far out on the
    hyperbolic sheet have entries of size e^s, and E^T J E cancels down from
    |E[:, j]|^2, so the hyperbolic defect is max|E^T J E - J| / max_j |E[:, j]|^2.

    A (..., 4, 4) stack gives an array of the stack's shape, and a single
    frame gives a float.
    """
    matrix = np.asarray(matrix, dtype=float)
    if sf.kind == "euclidean":
        lead = np.maximum(np.abs(matrix[..., 0, 0] - 1.0), np.max(np.abs(matrix[..., 0, 1:]), axis=-1))
        block = matrix[..., 1:, 1:]
        gram = np.swapaxes(block, -1, -2) @ block - np.eye(3)
        defect = np.maximum(lead, np.max(np.abs(gram), axis=(-2, -1)))
    else:
        j = sf.form
        defect = np.max(np.abs(np.swapaxes(matrix, -1, -2) @ j @ matrix - j), axis=(-2, -1))
        if sf.kind == "hyperbolic":
            defect = defect / np.max(np.sum(matrix * matrix, axis=-2), axis=-1)
    return float(defect) if defect.ndim == 0 else defect


# -- signed Gram-Schmidt ------------------------------------------------------


def gram_schmidt_signed(vectors, form):
    """Orthonormalize an ordered list against a (possibly indefinite) form matrix.

    Each output vector spans the same leading flag as the input.  The sign of
    output k is chosen so that <input_k, output_k> > 0.  A vector whose
    projection is null for the form (|<v,v>| below tolerance relative to its
    size) raises a degeneracy error naming its index.
    """
    out = []
    signs = []
    for i, v in enumerate(vectors):
        v = np.asarray(v, dtype=float).copy()
        for e, sgn in zip(out, signs):
            v -= sgn * float(v @ form @ e) * e
        q = float(v @ form @ v)
        scale = float(np.dot(v, v))
        if abs(q) <= _GS_TOL * max(scale, 1.0):
            raise DegeneracyError(i)
        e = v / np.sqrt(abs(q))
        out.append(e)
        signs.append(1.0 if q > 0 else -1.0)
    return out


# -- curvature data and structure matrices ------------------------------------


@dataclass(frozen=True)
class CurvatureData:
    """delta in {0, 1, -1} plus the curvatures (kappa_1, kappa_2, kappa_3).

    Each curvature is an exact polynomial in arc length; a coefficient list
    (low degree first) is read as one.
    """

    delta: int
    kappa: tuple

    def __post_init__(self):
        if self.delta not in (0, 1, -1):
            raise DomainError(f"delta must be 0, 1 or -1, got {self.delta}")
        if len(self.kappa) != 3:
            raise DimensionMismatch("structure equation is wired for n = 2 (three curvatures)")
        kappa = tuple(p if isinstance(p, Poly) else Poly.from_t_coeffs(p) for p in self.kappa)
        object.__setattr__(self, "kappa", kappa)

    @classmethod
    def constant(cls, delta, values):
        try:
            polys = [[as_fraction(v)] for v in values]
        except TypeError as exc:
            raise DomainError(
                f"constant curvatures must be exact; write 0.1 as the string \"0.1\" ({exc})"
            ) from exc
        return cls(delta, polys)


def structure_matrix(delta, kappa_values):
    """K with E' = E K for n = 2; ``(..., 3)`` curvature values give ``(..., 4, 4)``."""
    kappa = np.asarray(kappa_values, dtype=float)
    k1, k2, k3 = kappa[..., 0], kappa[..., 1], kappa[..., 2]
    out = np.zeros(kappa.shape[:-1] + (4, 4))
    out[..., 0, 1] = -delta
    out[..., 1, 0] = 1.0
    out[..., 1, 2], out[..., 2, 1] = -k1, k1
    out[..., 1, 3], out[..., 3, 1] = -k2, k2
    out[..., 2, 3], out[..., 3, 2] = -k3, k3
    return out


def structure_poly_matrix(curv):
    """K as a 4x4 matrix of exact polynomials.

    ``curv`` is anything with ``delta`` and three ``kappa`` polynomials: a
    CurvatureData, or a CurvatureFamily whose curvatures also carry lambda.
    """
    k1, k2, k3 = curv.kappa
    z, d = Poly(), Poly.const(curv.delta)
    return [
        [z, Poly() - d, z, z],
        [Poly.const(1), z, Poly() - k1, Poly() - k2],
        [z, k1, z, Poly() - k3],
        [z, k2, k3, z],
    ]


def dual_coefficient_jets(curv, r):
    """Exact jets of the dual curve in the co-moving basis.

    gamma_hat = E^{-T} w satisfies gamma_hat^{(k)} = E^{-T} d_k with d_0 = w
    and d_{k+1} = d_k' + L d_k, L = -K^T.  Because E^{-T} is invertible, rank
    questions about the dual's jets reduce to the d_k alone.  ``curv`` is as
    for ``structure_poly_matrix``.
    """
    k = structure_poly_matrix(curv)
    size = 4
    l_matrix = [[Poly() - k[j][i] for j in range(size)] for i in range(size)]
    d = [Poly(), Poly(), Poly(), Poly.const(1)]
    out = [d]
    for _ in range(r):
        nxt = []
        for i in range(size):
            acc = d[i].diff_t()
            for j in range(size):
                acc = acc + l_matrix[i][j] * d[j]
            nxt.append(acc)
        d = nxt
        out.append(d)
    return out


# -- frame fields --------------------------------------------------------------


@dataclass
class FrameField:
    """Frames sampled along arc length / parameter nodes.

    Every field carries exact derivatives through one of two channels:
    ``matrix_fn(t, k)`` returns the k-th derivative of the full frame matrix
    (closed form), or ``curvature`` gives them by the structure equation.
    ``field_derivatives`` reads both.
    """

    sf: SpaceForm
    s: np.ndarray
    matrices: np.ndarray  # (N, 4, 4)
    curvature: CurvatureData = None
    matrix_fn: object = None
    meta: dict = dataclass_field(default_factory=dict)

    def __len__(self):
        return len(self.s)

    def gram_defects(self):
        return gram_defect(self.matrices, self.sf)


def frame_field_from_function(sf, matrix_fn, nodes):
    """Sample a closed-form frame field; ``matrix_fn(t, k)`` is the k-th derivative."""
    nodes = np.asarray(nodes, dtype=float)
    mats = np.stack([np.asarray(matrix_fn(t, 0), dtype=float) for t in nodes])
    return FrameField(sf, nodes, mats, matrix_fn=matrix_fn)


def field_derivatives(field: FrameField):
    """(E, E', K, K K - K') at every node, with K = E^{-1} E'.

    The one exact derivative channel of a field.  Closed-form fields solve
    K = E^{-1} E' and K K - K' = 2 K K - E^{-1} E'' from E' and E'';
    curvature fields evaluate K and K' from the polynomial structure matrix
    and give E' = E K.
    """
    mats = field.matrices
    fn = field.matrix_fn
    if fn is not None:
        e1, e2 = (np.stack([np.asarray(fn(float(t), order), dtype=float) for t in field.s])
                  for order in (1, 2))
        k = np.linalg.solve(mats, e1)
        return mats, e1, k, 2.0 * (k @ k) - np.linalg.solve(mats, e2)
    kp = structure_poly_matrix(field.curvature)
    t = np.asarray(field.s, dtype=float)
    k = np.stack([np.stack([p.evalf(t) for p in row], axis=-1) for row in kp], axis=-2)
    k1 = np.stack([np.stack([p.diff_t().evalf(t) for p in row], axis=-1) for row in kp], axis=-2)
    return mats, mats @ k, k, k @ k - k1


# -- re-orthonormalization -----------------------------------------------------


#: relative noise |column|^2 * eps beyond which reorthonormalize leaves a Lorentz frame alone
_NOISE_FLOOR = 1e-10


def reorthonormalize(matrix, sf: SpaceForm):
    """Project a near-frame back onto the signed-orthonormal set.

    Lorentz frames far out on the upper sheet have coordinates of size e^s,
    and evaluating the indefinite form there cancels catastrophically: the
    projection injects relative noise of order |column|^2 * eps per call.
    Once that exceeds ``_NOISE_FLOOR`` the matrix is returned unchanged.
    """
    matrix = np.asarray(matrix, dtype=float)
    if sf.kind == "euclidean":
        out = matrix.copy()
        out[0, 0] = 1.0
        out[0, 1:] = 0.0
        spatial = gram_schmidt_signed(list(matrix[1:, 1:].T), np.eye(3))
        for j, col in enumerate(spatial):
            out[1:, j + 1] = col
        return out
    if sf.kind == "hyperbolic":
        size2 = float(np.max(np.sum(matrix * matrix, axis=0)))
        if size2 * np.finfo(float).eps > _NOISE_FLOOR:
            return matrix
    try:
        cols = gram_schmidt_signed(list(matrix.T), sf.form)
    except DegeneracyError:
        return matrix
    return np.stack(cols, axis=1)


# -- structure-equation integration (adaptive 4th-order Magnus) ------------------

#: accepted plus rejected Magnus steps one integration may take before it fails,
#: not counting the accepted steps cut short to end on a node;
#: kappa = (1, 0, t^2) at tol 1e-10 needs 4.2k-6.8k over span 20 and 14.5k-26.6k over span 40
MAX_STEPS = 50_000

_GAUSS = np.sqrt(3.0) / 6.0  # Gauss nodes at h/2 -+ sqrt(3) h / 6
_COMMUTATOR = np.sqrt(3.0) / 12.0


def _kappa_function(curv: CurvatureData):
    """s -> (kappa_1, kappa_2, kappa_3) in floats, on a last axis of length 3.

    Horner's rule on float coefficients prepared once, for the whole array s
    at once.
    """
    try:
        coeffs = [p.t_coeff_floats()[::-1] for p in curv.kappa]
    except OverflowError as exc:
        raise DomainError(f"a curvature coefficient is beyond the float range ({exc})") from exc

    def values(s):
        s = np.asarray(s, dtype=float)
        out = np.empty(s.shape + (3,))
        for k, c in enumerate(coeffs):
            acc = np.zeros(s.shape)
            for a in c:
                acc = acc * s + a
            out[..., k] = acc
        return out

    return values


def _magnus_propagators(delta, kappa, starts, widths):
    """Propagators P_i with E(s_i + h_i) = E(s_i) P_i, one 4th-order Magnus step each.

    K acts on the right, so the commutator carries the opposite sign of the
    textbook Y' = A Y form; with the textbook sign the step is 2nd order.
    """
    h = np.asarray(widths, dtype=float)
    nodes = np.asarray(starts, dtype=float) + np.array([[0.5 - _GAUSS], [0.5 + _GAUSS]]) * h
    k1, k2 = structure_matrix(delta, kappa(nodes))
    h = h[:, None, None]
    return group_exp(0.5 * h * (k1 + k2) + _COMMUTATOR * h * h * (k1 @ k2 - k2 @ k1))


def integrate_structure_equation(sf: SpaceForm, curv: CurvatureData, span, tol=1e-10, nodes=None):
    """Propagate the identity frame by E' = E K(s), returning a FrameField at the nodes.

    The frame is the 4x4 identity at s = span[0]; the field from another
    start E_0 is E_0 times this one.

    Adaptive 4th-order Magnus steps with K_1, K_2 at the Gauss nodes
    s + h/2 -+ sqrt(3) h / 6:

        E <- E exp(h/2 (K_1 + K_2) + sqrt(3)/12 h^2 (K_1 K_2 - K_2 K_1)).

    Each step multiplies by a group element, so the frame stays in the
    structure group to round-off without any projection.  Step doubling sets
    the step size: two half steps are accepted when they differ from one full
    step by at most tol (1 + max|E|).  ``meta`` records the accepted and
    rejected steps.  Past MAX_STEPS of them, not counting accepted steps cut
    short to end on a node (a dense node grid forces one per node), it raises
    IntegrationError, so a huge but finite curvature fails instead of stepping
    for as long as the span lasts.  The geometry fixes delta (euclidean 0,
    spherical 1, hyperbolic -1); any other pair raises DomainError.
    """
    if curv.delta != sf.delta:
        raise DomainError(
            f"the {sf.kind} structure equation needs delta = {sf.delta}, got delta = {curv.delta}"
        )
    s0, s1 = float(span[0]), float(span[1])
    if nodes is None:
        nodes = np.linspace(s0, s1, 201)
    nodes = np.asarray(nodes, dtype=float)
    direction = 1.0 if s1 >= s0 else -1.0
    order = np.argsort(direction * nodes)
    sorted_nodes = nodes[order]

    delta, kappa = curv.delta, _kappa_function(curv)
    e = np.eye(4)
    s = s0
    h = direction * max(abs(s1 - s0), 1e-12) / 100.0
    out = np.empty((len(nodes), 4, 4))
    next_idx = 0
    steps = rejected = landed = 0

    # emit any nodes at (or numerically before) the start
    while next_idx < len(sorted_nodes) and direction * (sorted_nodes[next_idx] - s) <= 1e-14:
        out[order[next_idx]] = e
        next_idx += 1

    min_h = 1e-13 * max(abs(s1 - s0), 1.0)
    while next_idx < len(sorted_nodes):
        if steps - landed + rejected >= MAX_STEPS:
            raise IntegrationError(s, f"integration took {MAX_STEPS} steps by s={s} "
                                      "without finishing")
        target = sorted_nodes[next_idx]
        cut = bool(direction * (s + h - target) > 0)
        if cut:
            h = target - s
        half = 0.5 * h
        p_half, p_rest, p_full = _magnus_propagators(delta, kappa, (s, s + half, s), (half, half, h))
        fine = e @ p_half @ p_rest
        coarse = e @ p_full
        err = float(np.max(np.abs(fine - coarse))) / (tol * (1.0 + float(np.max(np.abs(fine)))))
        if err <= 1.0:
            steps += 1
            landed += cut
            s = s + h
            e = fine
            while (
                next_idx < len(sorted_nodes)
                and direction * (sorted_nodes[next_idx] - s) <= 1e-12 * max(1.0, abs(s))
            ):
                out[order[next_idx]] = e
                next_idx += 1
        else:
            rejected += 1
        if err > 0.0:
            factor = 0.9 * err**-0.2
        else:  # 0 for an exact step; NaN once the flow overflows, which must shrink h
            factor = 5.0 if err == 0.0 else 0.2
        h *= min(5.0, max(0.2, factor))
        if abs(h) < min_h:
            raise IntegrationError(s)

    return FrameField(sf, nodes, out, curvature=curv, meta={"steps": steps, "rejected": rejected})
