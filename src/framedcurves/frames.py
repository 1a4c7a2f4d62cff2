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

i.e. E' = E K with the coefficient matrix K below.  ``CurvatureFamily`` holds
delta and the curvatures as exact polynomials in (t, lambda); a single curve
is a family that does not depend on lambda, and only such a one integrates.
The dual curve of a frame field is gamma_hat = E^{-T} w, w = (0, 0, 0, 1);
its derivative jets are E^{-T} d_k with d_0 = w and d_{k+1} = d_k' - K^T d_k,
written out entry by entry in ``CurvatureFamily.dual_jet_polys``, which stays
in exact rational arithmetic because the curvatures are polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from .errors import (
    DegeneracyError,
    DimensionMismatch,
    DomainError,
    IntegrationError,
)
from .ratpoly import Poly, poly_det
from .spaceform import SpaceForm, group_exp

_GS_TOL = 1e-12
_GRAM_BLOCK = 4096  # frames per block of FrameField.gram_defects


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


# -- the curvature model and the structure matrix ---------------------------------


def _exact_poly(p):
    """A ``Poly`` as it is, a list or tuple as its coefficients in t (low degree first), else a constant."""
    if isinstance(p, Poly):
        return p
    try:
        return Poly.from_t_coeffs(p) if isinstance(p, (list, tuple)) else Poly.const(p)
    except TypeError as exc:
        raise DomainError(f"coefficients must be exact; write 0.1 as the string \"0.1\" ({exc})") from exc


@dataclass(frozen=True)
class CurvatureFamily:
    """delta in {0, 1, -1} plus the curvatures kappa_i(t, lambda) as exact polynomials.

    ``u`` is the family parameter lambda, and a single curve is a family that
    does not depend on it.  Each curvature is a ``Poly``, a coefficient list
    in t (low degree first) or an exact number; a float raises DomainError.
    """

    delta: int
    kappa: tuple

    def __post_init__(self):
        if self.delta not in (0, 1, -1):
            raise DomainError(f"delta must be 0, 1 or -1, got {self.delta}")
        if len(self.kappa) != 3:
            raise DimensionMismatch("structure equation is wired for n = 2 (three curvatures)")
        object.__setattr__(self, "kappa", tuple(_exact_poly(p) for p in self.kappa))

    @classmethod
    def frenet(cls, kappa1, kappa3, delta=0):
        """Family with kappa_2 identically zero."""
        return cls(delta, (kappa1, Poly(), kappa3))

    def dual_jet_polys(self, r):
        """Co-moving dual jets d_0 .. d_r as 4-vectors of (t, u) polynomials.

        gamma_hat = E^{-T} w satisfies gamma_hat^{(k)} = E^{-T} d_k with
        d_0 = w and d_{k+1} = d_k' - K^T d_k.  Because E^{-T} is invertible,
        rank questions about the dual's jets reduce to the d_k alone.
        """
        k1, k2, k3 = self.kappa
        d = [Poly(), Poly(), Poly(), Poly.const(1)]
        out = [d]
        for _ in range(r):
            a, b, c, e = d
            d = [a.diff_t() - b, b.diff_t() + self.delta * a - k1 * c - k2 * e,
                 c.diff_t() + k1 * b - k3 * e, e.diff_t() + k2 * b + k3 * c]
            out.append(d)
        return out

    def detector(self, jets=None):
        """det[d_0 .. d_3](t, u): zero exactly where the dual type leaves (1,2,3).

        ``jets`` is ``dual_jet_polys(r)`` for some r >= 3, if the caller has it.
        """
        d = jets or self.dual_jet_polys(3)
        return poly_det([[d[j][i] for j in range(4)] for i in range(4)])


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


# -- frame fields --------------------------------------------------------------


@dataclass
class FrameField:
    """Frames E sampled along arc length / parameter nodes, with kappa and kappa' there.

    ``kappa`` and ``dkappa`` hold the curvatures and their derivatives at each
    node, (N, 3) each.  K = E^{-1} E' is ``structure_matrix(sf.delta, kappa)``
    and K' is ``structure_matrix(0, dkappa)`` less its constant (1, 0) entry,
    so E' = E K and E'' = E (K K + K') are exact wherever E is.
    """

    sf: SpaceForm
    s: np.ndarray
    matrices: np.ndarray  # (N, 4, 4)
    kappa: np.ndarray  # (N, 3)
    dkappa: np.ndarray  # (N, 3)
    meta: dict = dataclass_field(default_factory=dict)

    def __len__(self):
        return len(self.s)

    def gram_defects(self):
        """``gram_defect`` of every frame, formed ``_GRAM_BLOCK`` frames at a
        time, so no (N, 4, 4) product of the whole field exists."""
        out = np.empty(len(self.matrices))
        for lo in range(0, len(out), _GRAM_BLOCK):
            out[lo:lo + _GRAM_BLOCK] = gram_defect(self.matrices[lo:lo + _GRAM_BLOCK], self.sf)
        return out


# -- re-orthonormalization -----------------------------------------------------


#: relative noise |column|^2 * eps beyond which reorthonormalize leaves a Lorentz frame alone
_NOISE_FLOOR = 1e-10


def reorthonormalize(matrix, sf: SpaceForm):
    """Project a near-frame back onto the signed-orthonormal set.

    Lorentz frames far out on the upper sheet have coordinates of size e^s,
    and evaluating the indefinite form there cancels catastrophically: the
    projection injects relative noise of order |column|^2 * eps per call.
    Once that exceeds ``_NOISE_FLOOR`` the matrix is returned unchanged; so
    is, in every geometry, a matrix with a column null for the form.
    """
    matrix = np.asarray(matrix, dtype=float)
    if sf.kind == "hyperbolic":
        size2 = float(np.max(np.sum(matrix * matrix, axis=0)))
        if size2 * np.finfo(float).eps > _NOISE_FLOOR:
            return matrix
    try:
        if sf.kind == "euclidean":
            out = matrix.copy()
            out[0, 0] = 1.0
            out[0, 1:] = 0.0
            out[1:, 1:] = np.stack(gram_schmidt_signed(list(matrix[1:, 1:].T), np.eye(3)), axis=1)
            return out
        cols = gram_schmidt_signed(list(matrix.T), sf.form)
    except DegeneracyError:
        return matrix
    return np.stack(cols, axis=1)


# -- structure-equation integration (batched 6th-order Magnus bisection) ----------

#: the floor of an integration's interval budget: past its node grid it may split
#: into this many intervals, or into its derived budget where that is larger;
#: kappa = (1, 0, t^2) at tol 1e-10 ends with 3.7k intervals over span 20, 19k
#: over [0, 40], 49k over hyperbolic [0, 60] and 96k over [0, 80]
MAX_STEPS = 50_000
#: the derived budget stops at this multiple of MAX_STEPS, so that a runaway
#: curvature such as t^200 fails after a bounded amount of work
_BUDGET_CEILING = 4
#: intervals per tol^(-1/7) times the integral of max|K| over the span
_BUDGET_SCALE = 0.1
#: pending intervals one round evaluates, in one group_exp call; this bounds a round's memory
_ROUND_SIZE = 1024

_GAUSS = 0.5 + np.sqrt(15.0) / 10.0 * np.array([[-1.0], [0.0], [1.0]])  # the three Gauss nodes


def _kappa_at(polys, s):
    """The polynomials' values at the array s (``Poly.evalf``), on a last axis of length len(polys)."""
    return np.stack([p.evalf(s) for p in polys], axis=-1)


def _bracket(x, y):
    return x @ y - y @ x


def _magnus_propagators(delta, kappa, starts, widths):
    """Propagators P_i with E(s_i + h_i) = E(s_i) P_i, one 6th-order Magnus step each.

    ``kappa`` holds the three curvature polynomials.

    The three-Gauss-node step of Blanes, Casas and Ros (BIT 40, 2000) is
    written for Y' = A Y.  K acts on the right, so it is taken for Y = E^T
    and A = K^T, and Omega is transposed back.
    """
    h = np.asarray(widths, dtype=float)
    k_nodes = structure_matrix(delta, _kappa_at(kappa, np.asarray(starts, dtype=float) + _GAUSS * h))
    a1, a2, a3 = np.swapaxes(k_nodes, -1, -2)
    h = h[:, None, None]
    b1 = h * a2
    b2 = np.sqrt(15.0) / 3.0 * h * (a3 - a1)
    b3 = 10.0 / 3.0 * h * (a3 - 2.0 * a2 + a1)
    c1 = _bracket(b1, b2)
    c2 = _bracket(b1, 2.0 * b3 + c1) / -60.0
    omega = b1 + b3 / 12.0 + _bracket(c1 - 20.0 * b1 - b3, b2 + c2) / 240.0
    return group_exp(np.swapaxes(omega, -1, -2))


def _interval_budget(curv: CurvatureFamily, lo, hi, tol):
    """How many intervals past its node grid one integration over [lo, hi] may use.

    A 6th-order step's local error grows as (h max|K|)^7, so passing the local
    test takes about tol^(-1/7) times the integral of max|K| intervals.  The
    entries of K are 1, delta and the curvatures, so that integral is at most
    hi - lo plus the sum of |c| (hi |hi|^n - lo |lo|^n) / (n + 1), the integral
    of |c t^n|, over the terms of each kappa_i, exact in Fractions.  The budget
    is _BUDGET_SCALE times that, at least MAX_STEPS and at most
    _BUDGET_CEILING * MAX_STEPS.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    bound = hi - lo + sum(abs(c) * (hi * abs(hi) ** n - lo * abs(lo) ** n) / (n + 1)
                          for p in curv.kappa for n, c in enumerate(p.t_coeffs()))
    try:
        total = float(bound)
    except OverflowError:
        total = math.inf
    derived = _BUDGET_SCALE * total * tol ** (-1.0 / 7.0)
    return int(max(MAX_STEPS, min(derived, _BUDGET_CEILING * MAX_STEPS)))


def integrate_structure_equation(sf: SpaceForm, curv: CurvatureFamily, nodes, tol=1e-10):
    """Propagate the identity frame by E' = E K(s), returning a FrameField at the nodes.

    The nodes must be finite, 1-D, non-empty and non-decreasing (else
    DomainError).  The frame is the 4x4 identity at nodes[0], and the field
    from another start E_0 is E_0 times this one.  A repeated node ends an
    interval of width zero, whose propagator is the identity.

    Each interval [s, s + h] carries a 6th-order Magnus propagator P(s, h)
    with E(s + h) = E(s) P(s, h) (``_magnus_propagators``).  A propagator
    depends on (s, h) alone, never on E, so the mesh is found by bisection
    before any frame is formed.  The intervals between the nodes start it.
    An interval passes when its two halves agree with the whole step,

        max|P(s, h/2) P(s + h/2, h/2) - P(s, h)| <= tol,

    and is cut in two otherwise; a NaN or inf propagator (an overflowing
    hyperbolic step) never passes.  The two half-step propagators become the
    halves' own whole-step ones, so a half costs two new exponentials.  A queue in
    s order holds the intervals taken and not yet multiplied, and a cursor into
    the nodes marks the rest.  Each round evaluates the queue's first _ROUND_SIZE
    pending intervals, filled up from the cursor, in one ``group_exp`` call.  E is
    then the sequential product E <- E P(s, h/2) P(s + h/2, h/2) over the passed
    intervals that lead the queue.  As the halves of a cut interval go first, the
    queue holds about _ROUND_SIZE intervals per level of bisection, however long
    the span.  Each factor is a group element, so the frame stays in the structure
    group to round-off without any projection.

    The partition may hold the node grid's intervals plus the budget of
    ``_interval_budget``; a round that would start past that raises
    IntegrationError, as does a half narrower than 1e-13 max(|nodes|, 1) or
    a frame that overflows.  ``meta`` records the passed intervals
    (``steps``), the cut ones (``rejected``), the ``rounds`` and the
    ``cap``.  The flow and the field's kappa and kappa' read the curvatures
    through ``Poly.evalf``; a curvature coefficient beyond the float range
    raises DomainError before the flow starts.  The geometry fixes delta
    (euclidean 0, spherical 1, hyperbolic -1); any other pair raises
    DomainError, and so does a curvature in the family parameter lambda.
    """
    if curv.delta != sf.delta:
        raise DomainError(
            f"the {sf.kind} structure equation needs delta = {sf.delta}, got delta = {curv.delta}"
        )
    if any(p.deg_u() > 0 for p in curv.kappa):
        raise DomainError("a curvature depends on the family parameter; substitute a value first")
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or not len(nodes) or not np.all(np.isfinite(nodes)) or np.any(np.diff(nodes) < 0):
        raise DomainError(f"integration nodes must be finite, 1-D, non-empty and non-decreasing, "
                          f"got shape {nodes.shape}")
    s0, s1 = float(nodes[0]), float(nodes[-1])
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            kappa = _kappa_at(curv.kappa, nodes)
            dkappa = _kappa_at([p.diff_t() for p in curv.kappa], nodes)
    except OverflowError as exc:
        raise DomainError(f"a curvature coefficient is beyond the float range ({exc})") from exc
    cap = len(nodes) - 1 + _interval_budget(curv, s0, s1, tol)
    min_h = 1e-13 * max(abs(s0), abs(s1), 1.0)

    out = np.empty((len(nodes), 4, 4))
    out[0] = e = np.eye(4)
    # the queue, one entry per index: start, width, the node it ends on (-1 for none), the
    # whole-step propagator while pending (the product of its halves once passed), and passed
    starts, widths, tags = np.empty(0), np.empty(0), np.empty(0, dtype=int)
    props, passed, cursor = np.empty((0, 4, 4)), np.empty(0, dtype=bool), 0
    rejected = rounds = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            pending = np.flatnonzero(~passed)
            first = starts[pending[0]] if len(pending) else nodes[cursor] if cursor < len(nodes) - 1 else np.inf
            # the passed intervals before every pending one go into the product
            done = int(np.searchsorted(starts, first))
            for p, j in zip(props[:done], tags[:done].tolist()):
                e = e @ p
                if j >= 0:
                    out[j] = e
            if not np.all(np.isfinite(e)):
                raise IntegrationError(float(starts[done - 1]), f"the frame overflowed by s={starts[done - 1]}")
            starts, widths, tags, props, passed = (x[done:] for x in (starts, widths, tags, props, passed))
            if first == np.inf:
                break
            if len(nodes) - 1 + rejected > cap:
                raise IntegrationError(float(first), f"integration needs more than {cap} intervals "
                                                     f"by s={first} without finishing")
            take = pending[:_ROUND_SIZE] - done
            fresh = min(_ROUND_SIZE - len(take), len(nodes) - 1 - cursor)
            take = np.concatenate([take, np.arange(len(starts), len(starts) + fresh)])
            starts = np.concatenate([starts, nodes[cursor:cursor + fresh]])
            widths = np.concatenate([widths, np.diff(nodes[cursor:cursor + fresh + 1])])
            tags = np.concatenate([tags, np.arange(cursor + 1, cursor + fresh + 1)])
            passed = np.concatenate([passed, np.zeros(fresh, dtype=bool)])
            cursor += fresh
            a, half = starts[take], 0.5 * widths[take]
            new = _magnus_propagators(curv.delta, curv.kappa,
                                      np.concatenate([starts[len(starts) - fresh:], a, a + half]),
                                      np.concatenate([widths[len(widths) - fresh:], half, half]))
            whole, left, right = np.split(new, [fresh, fresh + len(take)])
            props = np.concatenate([props, whole])
            fine = left @ right
            ok = np.max(np.abs(fine - props[take]), axis=(-2, -1)) <= tol
            cut = ~ok
            rounds += 1
            rejected += int(np.count_nonzero(cut))
            at, half = take[cut], half[cut]
            if np.any(half < min_h):
                raise IntegrationError(float(starts[at[half < min_h][0]]))
            passed[take[ok]] = True
            props[take[ok]] = fine[ok]
            # each cut interval becomes its second half, and its first half goes in before it
            starts[at], widths[at], props[at] = starts[at] + half, half, right[cut]
            starts = np.insert(starts, at, a[cut])
            widths = np.insert(widths, at, half)
            tags = np.insert(tags, at, -1)
            props = np.insert(props, at, left[cut], axis=0)
            passed = np.insert(passed, at, False)

    if not (np.all(np.isfinite(kappa)) and np.all(np.isfinite(dkappa))):
        raise DomainError("a curvature or its derivative is beyond the float range at a node")
    meta = {"steps": len(nodes) - 1 + rejected, "rejected": rejected, "rounds": rounds, "cap": cap}
    return FrameField(sf, nodes, out, kappa, dkappa, meta=meta)
