"""Wavefront singularity classes and bifurcation scans of framed-curve families.

The frame dual of a generically framed curve has type (1, 2, 3), and its
envelope is a tangent developable: a cuspidal edge along the regular part of
its singular locus.  Rarer dual types produce rarer wavefront germs, and in a
one-parameter family those germs appear along curves in the (t, lambda)
plane (persistent strata) or at isolated points (momentary events).  This
module names the germs, classifies single points through the frame dual's
type vector, and scans exact polynomial families for the full bifurcation
picture: strata polylines, momentary events, and degenerate regions.

All scanning is done on exact rational polynomials: per parameter line the
detector polynomial is made square-free over Q, its real roots are isolated
numerically and polished, and candidate special points are re-verified in
exact arithmetic whenever they admit a small rational representative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegeneracyError, DomainError, FiniteTypeError
from .fileio import atomic_write_text, format_float
from .flags import type_from_diagonal_orders
from .frames import CurvatureData, dual_coefficient_jets, frame_dual, legendre_residuals
from .jets import (
    DEFAULT_RANK_TOL,
    RANK_GAP_MIN,
    _ranks_to_type,
    codim_adapted,
    codim_osculating,
    detect_type_report,
    dual_type,
    exact_rank_profile,
    float_rank_profile,
    schubert_number,
)
from .ratpoly import (
    Poly,
    as_fraction,
    integer_coeffs,
    newton,
    poly_det,
    real_roots_squarefree,
    squarefree,
    trim,
    vanishes_at,
)

__all__ = [
    "SingularityClass",
    "REGULAR",
    "CUSPIDAL_EDGE",
    "SWALLOWTAIL",
    "CUSPIDAL_BEAKS",
    "CUSPIDAL_BUTTERFLY",
    "FULL_FOLDED_UMBRELLA",
    "DEGENERATE",
    "unresolved",
    "CLASS_BY_DUAL_TYPE",
    "class_of",
    "consistency_check",
    "classify_point",
    "CurvatureFamily",
    "DiagonalFamily",
    "BifurcationEvent",
    "Stratum",
    "ScanResult",
    "scan_family",
    "classify_osculating_scan",
    "export_events_csv",
    "EVENT_CSV_HEADER",
]


# -- singularity classes -------------------------------------------------------


@dataclass(frozen=True)
class SingularityClass:
    """A wavefront germ name, with the unrecognized type attached if any."""

    name: str
    type: tuple = None

    def __str__(self):
        if self.name == "Unresolved" and self.type:
            return "Unresolved(%s)" % ",".join(str(x) for x in self.type)
        return self.name


REGULAR = SingularityClass("Regular")
CUSPIDAL_EDGE = SingularityClass("CuspidalEdge")
SWALLOWTAIL = SingularityClass("Swallowtail")
#: also seen spelled "cuspidal breaks", and known as the Mond surface
CUSPIDAL_BEAKS = SingularityClass("CuspidalBeaks")
CUSPIDAL_BUTTERFLY = SingularityClass("CuspidalButterfly")
FULL_FOLDED_UMBRELLA = SingularityClass("FullFoldedUmbrella")
DEGENERATE = SingularityClass("Degenerate")


def unresolved(a):
    """Finite type outside the classified table."""
    return SingularityClass("Unresolved", tuple(int(x) for x in a))


#: Envelope germ along the singular locus, by type vector of the frame dual.
CLASS_BY_DUAL_TYPE = {
    (1, 2, 3): CUSPIDAL_EDGE,
    (1, 2, 4): SWALLOWTAIL,
    (1, 3, 4): CUSPIDAL_BEAKS,
    (1, 2, 5): CUSPIDAL_BUTTERFLY,
    (2, 3, 4): FULL_FOLDED_UMBRELLA,
}

#: The developable of the frame dual of type a is swept by the dual flag; for
#: the five classified types that partner developable has the frozen type below
#: (the duality pairing is an involution on this set).
_DEVELOPABLE_PAIRING = {
    (1, 2, 3): (1, 2, 3),
    (1, 2, 4): (2, 3, 4),
    (1, 2, 5): (3, 4, 5),
    (1, 3, 4): (1, 3, 4),
    (2, 3, 4): (1, 2, 4),
}


def class_of(a):
    """Wavefront germ for a frame dual of finite type ``a``."""
    a = tuple(int(x) for x in a)
    return CLASS_BY_DUAL_TYPE.get(a, unresolved(a))


def consistency_check(type_of_dual):
    """(singularity class, partner type) for a frame dual's type vector.

    Cross-checks the duality formula against the frozen pairing table for the
    classified types; a mismatch means the codimension calculus and the class
    table have drifted apart, which is a programming error worth an exception.
    """
    a = tuple(int(x) for x in type_of_dual)
    partner = dual_type(a)
    expected = _DEVELOPABLE_PAIRING.get(a)
    if expected is not None and expected != partner:
        raise DomainError(
            f"duality pairing broke: {a} -> {partner}, table says {expected}"
        )
    return class_of(a), partner


_ADAPTED_TOL = 1e-6


def classify_point(curve, field, t, tol=DEFAULT_RANK_TOL):
    """Classify the envelope germ of a framed curve at parameter t.

    The decision runs entirely through the frame dual: detect its type at t
    and look the germ up in the class table.  When the curve is supplied the
    field is first checked to be adapted to it (the hyperplanes must actually
    be tangent, else the envelope is not a wavefront of this curve).  A dual
    that never reaches full rank within the jet budget is reported Degenerate
    rather than raising.
    """
    if curve is not None:
        res = legendre_residuals(field, curve)
        node = int(np.argmin(np.abs(np.asarray(field.s) - t)))
        if res[node] > _ADAPTED_TOL:
            raise DomainError(
                f"field is not adapted to the curve near t={t}: residual {res[node]:.3g}"
            )
    dual = frame_dual(field)
    try:
        report = detect_type_report(dual, t, rank_tol=tol)
    except (FiniteTypeError, DegeneracyError):
        return DEGENERATE
    return class_of(report.type)


# -- polynomial families ---------------------------------------------------------


def _family_poly(p):
    if isinstance(p, Poly):
        return p
    return Poly.const(as_fraction(p))


@dataclass(frozen=True)
class CurvatureFamily:
    """Curvatures kappa_i(t, lambda) as exact bivariate polynomials.

    ``u`` is the family parameter lambda.  Fixing lambda gives ordinary
    polynomial curvature data, so every per-line question reduces to the
    single-curve machinery.
    """

    delta: int
    kappa: tuple

    def __post_init__(self):
        object.__setattr__(self, "kappa", tuple(_family_poly(p) for p in self.kappa))
        if self.delta not in (0, 1, -1):
            raise DomainError(f"delta must be 0, 1 or -1, got {self.delta}")
        if len(self.kappa) != 3:
            raise DomainError("need exactly kappa_1, kappa_2, kappa_3")

    @classmethod
    def frenet(cls, kappa1, kappa3, delta=0):
        """Family with kappa_2 identically zero."""
        return cls(delta, (_family_poly(kappa1), Poly(), _family_poly(kappa3)))

    def _carrier(self):
        # CurvatureData carrying the bivariate polynomials; the callables are
        # the lambda = 0 slice and are never used by the exact jet machinery.
        fns = tuple((lambda s, p=p: p.evalf(s, 0.0)) for p in self.kappa)
        return CurvatureData(self.delta, fns, self.kappa)

    def dual_jet_polys(self, r):
        """Co-moving dual jets d_0 .. d_r as 4-vectors of (t, u) polynomials."""
        return dual_coefficient_jets(self._carrier(), r)

    def detector(self):
        """det[d_0 .. d_3](t, u): zero exactly where the dual type leaves (1,2,3)."""
        d = self.dual_jet_polys(3)
        return poly_det([[d[j][i] for j in range(4)] for i in range(4)])


@dataclass(frozen=True)
class DiagonalFamily:
    """Chart-diagonal entries x_{i}^{i-1}(t, lambda) of an osculating family.

    The reconstruction of a full flag curve from its diagonal makes these
    three entries a complete set of invariants; the type at (t, lambda) is the
    partial-sum vector of 1 + (vanishing order of each entry's t-derivative).
    """

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(_family_poly(p) for p in self.entries))
        if len(self.entries) != 3:
            raise DomainError("need exactly three diagonal entries")

    def derivative_polys(self):
        return tuple(p.diff_t() for p in self.entries)

    def detector(self):
        """Product of the entry derivatives: zero where the type leaves (1,2,3)."""
        out = Poly.const(1)
        for p in self.derivative_polys():
            out = out * p
        return out


# -- scan records ---------------------------------------------------------------


@dataclass(frozen=True)
class BifurcationEvent:
    """A momentary special point of a one-parameter family."""

    lam: float
    t: float
    type: tuple
    class_: SingularityClass
    dual: tuple
    codim_d: int
    codim_c: int
    schubert: int
    confidence: str  # "exact" / "high" / "low"


@dataclass
class Stratum:
    """A persistent special-type branch, sampled once per lambda line."""

    type: tuple
    class_: SingularityClass
    params: np.ndarray  # rows (lambda, t)
    confidence: str


@dataclass
class ScanResult:
    """Events, strata and degenerate regions of a family scan."""

    events: list
    strata: list
    degenerate: bool = False
    degenerate_regions: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def _event_from_type(lam, t, a, confidence):
    if a is None:
        return BifurcationEvent(float(lam), float(t), None, DEGENERATE, None,
                                None, None, None, confidence)
    return BifurcationEvent(
        float(lam),
        float(t),
        a,
        class_of(a),
        dual_type(a),
        codim_adapted(a),
        codim_osculating(a),
        schubert_number(a),
        confidence,
    )


# -- the scan core ---------------------------------------------------------------


_RATIONAL_LADDER = (1, 10**3, 10**6, 10**9)


def _rational_candidates(x):
    """Small-denominator rationals near x, simplest first."""
    out = []
    fx = Fraction(float(x))
    for cap in _RATIONAL_LADDER:
        q = fx.limit_denominator(cap)
        if q not in out:
            out.append(q)
    return out


class _AdaptedTypeOracle:
    """Type detection for a curvature family, exact when the point is rational.

    ``classify`` and ``classify_event`` are the exact-snap skeleton every
    oracle shares; a subclass sets ``detector``/``detector_t`` and supplies
    its own ``exact_type`` and ``float_types``.
    """

    def __init__(self, family: CurvatureFamily, rank_tol, r_max=8):
        self.jets = family.dual_jet_polys(r_max)
        self.detector = family.detector()
        self.detector_t = self.detector.diff_t()
        self.rank_tol = rank_tol
        self.r_max = r_max
        # each jet entry as its (float coefficient, t degree, u degree) terms,
        # in the order Poly.evalf visits them
        try:
            self._float_jets = [[tuple((float(v), i, j) for (i, j), v in p.c.items()) for p in d]
                                for d in self.jets]
        except OverflowError as exc:
            raise DomainError(f"a dual-jet coefficient is beyond the float range ({exc})") from exc
        self._degrees = (max((i for d in self.jets for p in d for i, _ in p.c), default=0),
                         max((j for d in self.jets for p in d for _, j in p.c), default=0))

    def _columns_exact(self, tq, lamq):
        return [[p.eval(tq, lamq) for p in d] for d in self.jets]

    def _columns_float(self, ts, lams):
        """(points, 4, r_max + 1) stack of the dual jets at float points.

        Each entry replays ``Poly.evalf``'s scalar loop over the compiled terms
        (Python float powers, a sum from 0.0 in term order) on every point at
        once, so it equals ``evalf`` there bit for bit.
        """
        tpow = [np.array([t**i for t in ts]) for i in range(self._degrees[0] + 1)]
        upow = [np.array([u**j for u in lams]) for j in range(self._degrees[1] + 1)]
        cols = np.empty((len(ts), 4, len(self._float_jets)))
        for r, d in enumerate(self._float_jets):
            for row, terms in enumerate(d):
                total = np.zeros(len(ts))
                for v, i, j in terms:
                    total += v * tpow[i] * upow[j]
                cols[:, row, r] = total
        return cols

    def exact_type(self, tq, lamq):
        ranks = exact_rank_profile(self._columns_exact(tq, lamq))
        return _ranks_to_type(ranks, 4, self.r_max)

    def float_types(self, ts, lams):
        """[(type, confidence)] at float points, from one stacked rank profile."""
        if not ts:
            return []
        cols = self._columns_float(ts, lams)
        # a jet column that vanishes at the point comes out ~1e-16 with a
        # perfectly clean direction; per-column normalization would promote it
        # to a full new direction, so kill columns far below the matrix scale
        norms = np.linalg.norm(cols, axis=1)
        floor = self.rank_tol * np.maximum(np.max(norms, axis=1), 1.0)
        cols = np.where((norms <= floor[:, None])[:, None, :], 0.0, cols)
        ranks, min_gap = float_rank_profile(cols, self.rank_tol)
        out = []
        for rk, gap in zip(ranks.tolist(), min_gap.tolist()):
            try:
                a = _ranks_to_type(rk, 4, self.r_max)
            except (FiniteTypeError, DegeneracyError):
                out.append((None, "low"))
            else:
                out.append((a, "high" if gap >= RANK_GAP_MIN else "low"))
        return out

    def classify(self, points):
        """[(type, confidence)] at the points (t, lam_q, line) of a scan.

        ``line`` is the detector on u = lam_q as integer coefficients.  A
        small rational near t where the line vanishes exactly is classified
        exactly; every other point goes through one batched float call.
        """
        out = [None] * len(points)
        rest = []
        for k, (t, lam_q, line) in enumerate(points):
            for tq in _rational_candidates(t):
                if vanishes_at(line, tq):
                    try:
                        out[k] = self.exact_type(tq, lam_q), "exact"
                    except (FiniteTypeError, DegeneracyError):
                        out[k] = None, "exact"
                    break
            else:
                rest.append(k)
        floats = self.float_types([float(points[k][0]) for k in rest],
                                  [float(points[k][1]) for k in rest])
        for k, res in zip(rest, floats):
            out[k] = res
        return out

    def classify_event(self, t, lam):
        """(type, confidence, t, lam) with exact snapping of a double point."""
        for lamq in _rational_candidates(lam):
            for tq in _rational_candidates(t):
                if self.detector.eval(tq, lamq) == 0 and self.detector_t.eval(tq, lamq) == 0:
                    try:
                        a = self.exact_type(tq, lamq)
                    except (FiniteTypeError, DegeneracyError):
                        return None, "exact", float(tq), float(lamq)
                    return a, "exact", float(tq), float(lamq)
        a, confidence = self.float_types([float(t)], [float(lam)])[0]
        return a, confidence, float(t), float(lam)


class _OsculatingTypeOracle(_AdaptedTypeOracle):
    """Type detection from diagonal-entry derivatives of an osculating family."""

    _MAX_ORDER = 9

    def __init__(self, family: DiagonalFamily, rank_tol):
        self.derivs = family.derivative_polys()
        self.detector = family.detector()
        self.detector_t = self.detector.diff_t()
        self.rank_tol = rank_tol

    def _order_exact(self, p, tq, lamq):
        for k in range(self._MAX_ORDER):
            if p.eval(tq, lamq) != 0:
                return k
            p = p.diff_t()
        raise FiniteTypeError(0, self._MAX_ORDER)

    def _order_float(self, p, t, lam):
        scale = max(1.0, max((abs(float(c)) for c in p.c.values()), default=0.0))
        best_gap = np.inf
        for k in range(self._MAX_ORDER):
            val = abs(p.evalf(t, lam))
            if val > self.rank_tol * scale:
                return k, min(best_gap, val / (self.rank_tol * scale))
            if val > 0:
                best_gap = min(best_gap, self.rank_tol * scale / val)
            p = p.diff_t()
        raise FiniteTypeError(0, self._MAX_ORDER)

    def exact_type(self, tq, lamq):
        orders = [1 + self._order_exact(p, tq, lamq) for p in self.derivs]
        return type_from_diagonal_orders(orders)

    def float_type(self, t, lam):
        orders = []
        min_gap = np.inf
        for p in self.derivs:
            k, gap = self._order_float(p, t, lam)
            orders.append(1 + k)
            min_gap = min(min_gap, gap)
        a = type_from_diagonal_orders(orders)
        return a, ("high" if min_gap >= RANK_GAP_MIN else "low")

    def float_types(self, ts, lams):
        out = []
        for t, lam in zip(ts, lams):
            try:
                out.append(self.float_type(t, lam))
            except (FiniteTypeError, DegeneracyError):
                out.append((None, "low"))
        return out


def _line_roots(detector: Poly, lam_q, window):
    """(roots, line) of the detector on the lambda line u = lam_q.

    ``line`` is the substituted line's dense coefficient list and ``roots``
    the real roots of its square-free part in the window, or None when the
    line vanishes identically.
    """
    line = trim(detector.subs_u(lam_q).t_coeffs())
    if not line:
        return None, line
    return real_roots_squarefree(squarefree(line), window[0], window[1]), line


def _match_roots(prev, cur, gap):
    """Greedy nearest matching between two sorted root lists."""
    pairs = []
    used_prev, used_cur = set(), set()
    cand = sorted(
        (abs(p - c), i, j) for i, p in enumerate(prev) for j, c in enumerate(cur)
    )
    for d, i, j in cand:
        if d > gap:
            break
        if i in used_prev or j in used_cur:
            continue
        used_prev.add(i)
        used_cur.add(j)
        pairs.append((i, j))
    return pairs, used_prev, used_cur


def _refine_event(detector, lam_lo, lam_hi, window, depth=48):
    """Bisect a root-count change to its (t, lambda), to ~1e-9 in lambda.

    Returns (t_estimate, lam_estimate) or None when the change is a root
    leaving through the window boundary rather than an interior collision.
    """
    roots_lo, _ = _line_roots(detector, lam_lo, window)
    roots_hi, _ = _line_roots(detector, lam_hi, window)
    for _ in range(depth):
        if abs(float(lam_hi - lam_lo)) <= 1e-9:
            break
        mid = (lam_lo + lam_hi) / 2
        roots_mid, _ = _line_roots(detector, mid, window)
        if roots_mid is None:
            break
        if len(roots_mid) == len(roots_lo):
            lam_lo, roots_lo = mid, roots_mid
        else:
            lam_hi, roots_hi = mid, roots_mid
    lam_star = float(lam_lo + lam_hi) / 2.0
    span = window[1] - window[0]
    margin = 1e-3 * span
    rich, poor = (roots_lo, roots_hi) if len(roots_lo) > len(roots_hi) else (roots_hi, roots_lo)
    _, used_rich, _ = _match_roots(rich, poor, gap=0.05 * span)
    extra = [r for i, r in enumerate(rich) if i not in used_rich]
    if not extra:
        extra = rich
    if len(extra) >= 2:
        gaps = [(extra[i + 1] - extra[i], i) for i in range(len(extra) - 1)]
        _, i = min(gaps)
        t_star = 0.5 * (extra[i] + extra[i + 1])
    elif extra:
        t_star = extra[0]
    else:
        return None
    if t_star < window[0] + margin or t_star > window[1] - margin:
        return None
    # the collision point is a root of the t-derivative of the detector; a few
    # Newton steps there sharpen t well below the bisection's sqrt-width blur
    d_t = detector.diff_t().subs_u(Fraction(lam_star).limit_denominator(10**12))
    x = newton(d_t, t_star, 80, 1e-15)
    if abs(x - t_star) < 0.05 * span:
        t_star = x
    return t_star, lam_star


def _scan_core(detector, oracle, t_grid, lambda_grid, chain_gap):
    t_grid = np.asarray(t_grid, dtype=float)
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    window = (float(t_grid[0]), float(t_grid[-1]))
    if window[1] <= window[0] or len(lambda_grid) < 2:
        raise DomainError("scan grids must be increasing with at least two lambda lines")
    if chain_gap is None:
        chain_gap = 12.0 * (window[1] - window[0]) / max(len(t_grid) - 1, 1)

    if detector.is_zero():
        return ScanResult(
            events=[],
            strata=[],
            degenerate=True,
            degenerate_regions=[{"lambda": None, "t_window": window}],
            meta={"reason": "detector vanishes identically"},
        )

    lam_fracs = [Fraction(float(l)) for l in lambda_grid]
    lines = []
    points = []
    degenerate_regions = []
    for lam, lam_q in zip(lambda_grid, lam_fracs):
        roots, line = _line_roots(detector, lam_q, window)
        if roots is None:
            degenerate_regions.append({"lambda": float(lam), "t_window": window})
        elif roots:
            ints = integer_coeffs(line)
            points.extend((r, lam_q, ints) for r in roots)
        lines.append(roots)

    # persistent strata: classify every root of the scan at once, then chain
    # them across lines
    types = iter(oracle.classify(points))
    samples = []
    for lam, roots in zip(lambda_grid, lines):
        row = []
        for r in roots or ():
            a, confidence = next(types)
            row.append({"lam": float(lam), "t": float(r), "type": a,
                        "confidence": confidence})
        samples.append(row)

    strata = []
    open_chains = []
    for row in samples:
        next_open = []
        unmatched = list(range(len(row)))
        for chain in open_chains:
            best = None
            for idx in unmatched:
                s = row[idx]
                if s["type"] != chain["type"]:
                    continue
                d = abs(s["t"] - chain["last_t"])
                if d <= chain_gap and (best is None or d < best[0]):
                    best = (d, idx)
            if best is not None:
                idx = best[1]
                unmatched.remove(idx)
                chain["points"].append((row[idx]["lam"], row[idx]["t"]))
                chain["last_t"] = row[idx]["t"]
                chain["confidence"] = _weaker(chain["confidence"], row[idx]["confidence"])
                next_open.append(chain)
            else:
                strata.append(chain)
        for idx in unmatched:
            s = row[idx]
            next_open.append({"type": s["type"], "points": [(s["lam"], s["t"])],
                              "last_t": s["t"], "confidence": s["confidence"]})
        open_chains = next_open
    strata.extend(open_chains)
    strata_out = [
        Stratum(
            type=ch["type"],
            class_=class_of(ch["type"]) if ch["type"] is not None else DEGENERATE,
            params=np.array(ch["points"]),
            confidence=ch["confidence"],
        )
        for ch in strata
        if len(ch["points"]) >= 2
    ]

    # momentary events: interior root-count changes between adjacent lines
    events = []
    boundary = []
    for i in range(len(lines) - 1):
        if lines[i] is None or lines[i + 1] is None:
            continue
        if len(lines[i]) == len(lines[i + 1]):
            continue
        hit = _refine_event(detector, lam_fracs[i], lam_fracs[i + 1], window)
        if hit is None:
            boundary.append((float(lambda_grid[i]), float(lambda_grid[i + 1])))
            continue
        t_star, lam_star = hit
        a, confidence, t_fin, lam_fin = oracle.classify_event(t_star, lam_star)
        events.append(_event_from_type(lam_fin, t_fin, a, confidence))

    events = _dedup_events(events)
    events.sort(key=lambda e: (e.lam, e.t))
    strata_out.sort(key=lambda s: (s.params[0, 0], s.params[0, 1]))
    return ScanResult(
        events=events,
        strata=strata_out,
        degenerate=False,
        degenerate_regions=degenerate_regions,
        meta={"boundary_crossings": boundary, "chain_gap": float(chain_gap)},
    )


def _weaker(a, b):
    order = {"exact": 0, "high": 1, "low": 2}
    return a if order[a] >= order[b] else b


def _dedup_events(events, tol=1e-5):
    kept = []
    order = {"exact": 0, "high": 1, "low": 2}
    for ev in sorted(events, key=lambda e: order[e.confidence]):
        if any(abs(ev.lam - k.lam) <= tol and abs(ev.t - k.t) <= tol for k in kept):
            continue
        kept.append(ev)
    return kept


def scan_family(family: CurvatureFamily, t_grid, lambda_grid, tol=DEFAULT_RANK_TOL,
                chain_gap=None) -> ScanResult:
    """Bifurcation scan of a one-parameter family of framed curves.

    The detector det[d_0 .. d_3] of the frame dual's co-moving jets vanishes
    exactly where the dual type leaves (1, 2, 3).  Per lambda line its
    square-free part is solved for real roots (persistent strata); changes in
    the interior root count between neighbouring lines are bisected to the
    momentary event and snapped to exact rationals when possible.  The t grid
    fixes the window and the chaining scale; the roots themselves come from
    the polynomial, not the grid.
    """
    oracle = _AdaptedTypeOracle(family, tol)
    return _scan_core(oracle.detector, oracle, t_grid, lambda_grid, chain_gap)


def classify_osculating_scan(family: DiagonalFamily, t_grid, lambda_grid,
                             tol=DEFAULT_RANK_TOL, chain_gap=None) -> ScanResult:
    """Bifurcation scan of an osculating family given by chart diagonals.

    Same sweep as ``scan_family`` with the detector replaced by the product of
    the diagonal-entry derivatives, whose vanishing orders give the type
    directly as partial sums.  The admitted types are the full osculating
    list, so events outside the classified table come back Unresolved rather
    than Degenerate.
    """
    oracle = _OsculatingTypeOracle(family, tol)
    return _scan_core(oracle.detector, oracle, t_grid, lambda_grid, chain_gap)


# -- event table export ------------------------------------------------------------


EVENT_CSV_HEADER = "lambda,t,a1,a2,a3,class,codim_D,codim_C,schubert,confidence"


def export_events_csv(events, path):
    """Write bifurcation events as a deterministic CSV table."""
    rows = [EVENT_CSV_HEADER]
    for ev in sorted(events, key=lambda e: (e.lam, e.t)):
        a = ev.type if ev.type is not None else ("", "", "")
        rows.append(",".join([
            format_float(ev.lam),
            format_float(ev.t),
            str(a[0]), str(a[1]), str(a[2]),
            str(ev.class_),
            "" if ev.codim_d is None else str(ev.codim_d),
            "" if ev.codim_c is None else str(ev.codim_c),
            "" if ev.schubert is None else str(ev.schubert),
            ev.confidence,
        ]))
    atomic_write_text(path, "\n".join(rows) + "\n")
