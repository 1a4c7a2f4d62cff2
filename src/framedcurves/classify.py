"""Wavefront singularity classes and bifurcation scans of framed-curve families.

The frame dual of a generically framed curve has type (1, 2, 3), and its
envelope is a tangent developable: a cuspidal edge along the regular part of
its singular locus.  Rarer dual types produce rarer wavefront germs, and in a
one-parameter family those germs appear along curves in the (t, lambda)
plane (persistent strata) or at isolated points (momentary events).  This
module names the germs, classifies single points through the frame dual's
type vector, and scans exact polynomial families for the full bifurcation
picture: strata polylines, momentary events, and degenerate regions.

All scanning is done on exact rational polynomials.  The detector is made
square-free in t over Q[u] once per family; its lines then carry the real
roots (strata), and the real roots of its t-discriminant in lambda carry the
momentary events.  Candidate special points are re-verified in exact
arithmetic whenever they admit a small rational representative.
"""

from __future__ import annotations

import math
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
    isolate_real_roots,
    line_gcd_split,
    poly_det,
    poly_quotient,
    resultant_t,
    squarefree,
    squarefree_t,
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
    """Small-denominator rationals within 1e-9 (relative) of x, simplest first.

    The bound keeps a coarse rung, such as the nearest integer, from
    standing in for x when it happens to be another root of the same line.
    """
    out = []
    fx = Fraction(float(x))
    tol = 1e-9 * max(1.0, abs(float(x)))
    for cap in _RATIONAL_LADDER:
        q = fx.limit_denominator(cap)
        if q not in out and abs(q - fx) <= tol:
            out.append(q)
    return out


class _AdaptedTypeOracle:
    """Type detection for a curvature family, exact when the point is rational.

    ``classify`` and ``classify_event`` are the skeleton every oracle shares:
    Fraction points go to ``exact_type`` and float points to ``float_types``.
    A subclass sets ``detector`` and supplies its own two.
    """

    def __init__(self, family: CurvatureFamily, rank_tol, r_max=8):
        self.jets = family.dual_jet_polys(r_max)
        self.detector = family.detector()
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
        # and as integer terms, all scaled by one positive factor
        scale = math.lcm(*(v.denominator for d in self.jets for p in d for v in p.c.values()))
        self._int_jets = [[tuple((v.numerator * (scale // v.denominator), i, j) for (i, j), v in p.c.items())
                           for p in d] for d in self.jets]

    def _columns_exact(self, tq, lamq):
        """The dual jets at (p/q, r/s), every entry times one positive factor.

        Each entry is the integer sum of C p^i q^(I - i) r^j s^(J - j) over its
        terms, with I and J the largest degrees: the factor q^I s^J times the
        jets' common denominator leaves every prefix rank unchanged.
        """
        (n_t, n_u), (p, q), (r, s) = self._degrees, tq.as_integer_ratio(), lamq.as_integer_ratio()
        tpow = [p**i * q ** (n_t - i) for i in range(n_t + 1)]
        upow = [r**j * s ** (n_u - j) for j in range(n_u + 1)]
        return [[sum(c * tpow[i] * upow[j] for c, i, j in terms) for terms in d] for d in self._int_jets]

    def _columns_float(self, ts, lams):
        """(points, 4, r_max + 1) stack of the dual jets at float points.

        Each entry replays ``Poly.evalf``'s scalar loop over the compiled terms
        (Python float powers, a sum from 0.0 in term order) on every point at
        once, so it equals ``evalf`` there bit for bit.  A point where a jet
        leaves the float range raises ``DomainError``.
        """
        try:
            tpow = [np.array([t**i for t in ts]) for i in range(self._degrees[0] + 1)]
            upow = [np.array([u**j for u in lams]) for j in range(self._degrees[1] + 1)]
        except OverflowError as exc:
            raise DomainError(f"a power of a point is beyond the float range ({exc})") from exc
        cols = np.empty((len(ts), 4, len(self._float_jets)))
        with np.errstate(over="ignore", invalid="ignore"):
            for r, d in enumerate(self._float_jets):
                for row, terms in enumerate(d):
                    total = np.zeros(len(ts))
                    for v, i, j in terms:
                        total += v * tpow[i] * upow[j]
                    cols[:, row, r] = total
        if not np.isfinite(cols).all():
            raise DomainError("a dual jet is beyond the float range at a point")
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
        """[(type, confidence)] at the points (t, lam).

        A point whose t and lam are both Fractions is classified exactly;
        every other point goes through one batched float call.
        """
        out = [None] * len(points)
        rest = []
        for k, (t, lam) in enumerate(points):
            if isinstance(t, Fraction) and isinstance(lam, Fraction):
                try:
                    out[k] = self.exact_type(t, lam), "exact"
                except (FiniteTypeError, DegeneracyError):
                    out[k] = None, "exact"
            else:
                rest.append(k)
        floats = self.float_types([float(points[k][0]) for k in rest],
                                  [float(points[k][1]) for k in rest])
        for k, res in zip(rest, floats):
            out[k] = res
        return out

    def classify_event(self, t, lam):
        """(type, confidence) at one point; exact when t and lam are Fractions."""
        return self.classify([(t, lam)])[0]


class _OsculatingTypeOracle(_AdaptedTypeOracle):
    """Type detection from diagonal-entry derivatives of an osculating family."""

    _MAX_ORDER = 9

    def __init__(self, family: DiagonalFamily, rank_tol):
        self.derivs = family.derivative_polys()
        self.detector = family.detector()
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


class _FactoredDetector:
    """A scan detector D(t, u), factored once per family.

    D = c * content(u) * prod_i F_i^i with ``sf`` = prod_i F_i primitive and
    square-free in t.  ``discriminant`` is the square-free part of
    Res_t(sf, d sf/dt) as integers, a multiple of the leading coefficient
    lc(u) of sf: it vanishes exactly where a line of sf loses degree or gains
    a multiple root.  Wherever the content does not vanish, D(., lambda) and
    sf(., lambda) have the same monic square-free part, and off the
    discriminant's roots that part is sf(., lambda) made monic.
    """

    def __init__(self, poly: Poly):
        self.sf, content = squarefree_t(poly)
        self.content = integer_coeffs(content)
        self.discriminant = integer_coeffs(squarefree(resultant_t(self.sf, self.sf.diff_t())))

    def multiple_root_lines(self):
        """[(e, line, gcd)]: the discriminant's roots, split by the multiple roots of sf there.

        At every root u* of e, the distinct roots of line(., u*) / gcd(., u*)
        are the multiple roots of sf(., u*): the roots of gcd(sf, d sf/dt)
        there.
        """
        out = []
        for e, _, multiple in line_gcd_split(self.sf, self.discriminant):
            if multiple.deg_t() > 0:
                out += line_gcd_split(multiple, e)
        return out


def _exact_roots(sq, lo, hi):
    """[(x, exact)]: the real roots in [lo, hi] of a square-free coefficient list.

    x is a Fraction: the root itself where bisection hit it or one of its
    small-denominator candidates verifies, else within 2^-100 of it.  This
    is the one place a root snaps to a small rational, so a scan point is
    classified exactly just when its t is a Fraction.
    """
    ints = integer_coeffs(sq)
    out = []
    for x, exact in isolate_real_roots(ints, lo, hi):
        if not exact:
            q = next((q for q in _rational_candidates(x) if vanishes_at(ints, q)), None)
            x, exact = (x, False) if q is None else (q, True)
        out.append((x, exact))
    return out


def _window_roots(sq, window):
    """The real roots in the window of a square-free list: a Fraction when exact, else a float."""
    return [x if exact else float(x) for x, exact in _exact_roots(sq, *window)]


def _refine_event(line: Poly, gcd: Poly, lam_q, window):
    """The distinct real roots in the t window of line(., lam_q) / gcd(., lam_q).

    ``(line, gcd)`` comes from ``multiple_root_lines`` and ``lam_q`` is a
    root of its factor, exact or within 2^-100 of it, so the quotient is the
    square-free part of the line there, exact or as close, and its roots are
    the event's t.  Each is a Fraction when it is exact, else a float: no
    threshold decides which critical point is a root.
    """
    quotient = poly_quotient(trim(line.subs_u(lam_q).t_coeffs()), trim(gcd.subs_u(lam_q).t_coeffs()))
    return _window_roots(quotient, window)


def _line_roots(detector: _FactoredDetector, lam_q, window):
    """(roots, line) of the detector on the lambda line u = lam_q.

    ``line`` is the monic square-free part of the detector's line, and
    ``roots`` its real roots in the window, or None when the line vanishes
    identically.  Off the discriminant's roots the line of sf made monic is
    that part already, with no gcd to take.
    """
    if vanishes_at(detector.content, lam_q):
        return None, []
    line = trim(detector.sf.subs_u(lam_q).t_coeffs())
    line = [c / line[-1] for c in line]
    if vanishes_at(detector.discriminant, lam_q):
        line = squarefree(line)
    return _window_roots(line, window), line


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

    detector = _FactoredDetector(detector)
    lines = []
    points = []
    degenerate_regions = []
    for lam in lambda_grid:
        lam_q = Fraction(float(lam))
        roots, _ = _line_roots(detector, lam_q, window)
        if roots is None:
            degenerate_regions.append({"lambda": float(lam), "t_window": window})
        else:
            points.extend((r, lam_q) for r in roots)
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

    # momentary events: the multiple t-roots of sf on the discriminant's real
    # roots in the lambda window
    events = []
    event_lams = []
    for e, line, gcd in detector.multiple_root_lines():
        for lam_q, exact in _exact_roots(e, float(min(lambda_grid)), float(max(lambda_grid))):
            lam_star = lam_q if exact else float(lam_q)
            t_stars = _refine_event(line, gcd, lam_q, window)
            if t_stars:
                event_lams.append(lam_q)
            for t_star in t_stars:
                a, confidence = oracle.classify_event(t_star, lam_star)
                events.append(_event_from_type(lam_star, t_star, a, confidence))
    # a root-count change with no event between the lines is a root crossing
    # the window boundary
    boundary = []
    for i in range(len(lines) - 1):
        if lines[i] is None or lines[i + 1] is None or len(lines[i]) == len(lines[i + 1]):
            continue
        lo, hi = float(lambda_grid[i]), float(lambda_grid[i + 1])
        if not any(lo <= lam <= hi for lam in event_lams):
            boundary.append((lo, hi))

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


def scan_family(family: CurvatureFamily, t_grid, lambda_grid, tol=DEFAULT_RANK_TOL,
                chain_gap=None) -> ScanResult:
    """Bifurcation scan of a one-parameter family of framed curves.

    The detector det[d_0 .. d_3] of the frame dual's co-moving jets vanishes
    exactly where the dual type leaves (1, 2, 3).  Its square-free part in t
    is taken once; per lambda line that part is solved for real roots
    (persistent strata).  The momentary events are the real roots of its
    t-discriminant in the lambda window, each with the multiple t-roots of
    its line, exact when rational.  The t grid fixes the window and the
    chaining scale; the roots and events come from the polynomial, not the
    grid.
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
