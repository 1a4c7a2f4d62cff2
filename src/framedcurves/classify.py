"""Wavefront singularity classes and bifurcation scans of framed-curve families.

The frame dual of a generically framed curve has type (1, 2, 3), and its
envelope is a tangent developable: a cuspidal edge along the regular part of
its singular locus.  Rarer dual types produce rarer wavefront germs, and in a
one-parameter family those germs appear along curves in the (t, lambda)
plane (persistent strata) or at isolated points (momentary events).  This
module names the germs, classifies single points through the frame dual's
type vector, and scans exact polynomial families for the full bifurcation
picture: strata polylines, momentary events, and degenerate regions.

A family is a ``frames.CurvatureFamily``, the same curvature model that the
structure equation integrates; its dual jets give the detector and the type
oracle's columns.  All scanning is done on exact rational polynomials.  The
detector is made square-free in t over Q[u] once per family; its lines then
carry the real roots (strata), and the real roots of its t-discriminant in
lambda carry the momentary events.  Candidate special points are re-verified
in exact arithmetic whenever they admit a small rational representative.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegeneracyError, DomainError, FiniteTypeError
from .fileio import atomic_write_text, format_float
from .frames import CurvatureFamily
from .jets import (
    DEFAULT_RANK_TOL,
    RANK_GAP_MIN,
    _ranks_to_type,
    algebraic_rank_profile,
    codim_adapted,
    codim_osculating,
    dual_type,
    float_rank_profile,
    schubert_number,
)
from .ratpoly import (
    Poly,
    columns_at,
    has_root_in,
    isolate_real_roots,
    line_gcd_split,
    midpoint,
    pseudo_divmod,
    rows_at,
    squarefree,
    squarefree_t,
    subresultants,
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
    "BifurcationEvent",
    "Stratum",
    "ScanResult",
    "scan_family",
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


def class_of(a):
    """Wavefront germ for a frame dual of finite type ``a``."""
    a = tuple(int(x) for x in a)
    return CLASS_BY_DUAL_TYPE.get(a, unresolved(a))


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
    detector: Poly = None  # D(t, u), as the scan built it


def _event_from_type(lam, t, a, confidence):
    if a is None:
        return BifurcationEvent(float(lam), float(t), None, DEGENERATE, None, None, None, None, confidence)
    return BifurcationEvent(float(lam), float(t), a, class_of(a), dual_type(a), codim_adapted(a),
                            codim_osculating(a), schubert_number(a), confidence)


# -- the scan --------------------------------------------------------------------


class _AdaptedTypeOracle:
    """Type detection for a curvature family, exact at every rational lambda.

    ``jets`` are the family's dual jets d_0 .. d_r_max, columns of Polys in
    (t, u), and ``detector`` the determinant of the first four.  A point is
    (root, lam), with root = (m, a, b) as for ``algebraic_rank_profile``.
    """

    r_max = 8

    def __init__(self, family: CurvatureFamily, rank_tol):
        self.jets = family.dual_jet_polys(self.r_max)
        self.detector = family.detector(self.jets)
        self.rank_tol = rank_tol

    def classify(self, root, lam):
        """(type, "exact") at the root of a rational lambda line; the type is None off finite type."""
        try:
            return _ranks_to_type(algebraic_rank_profile(columns_at(self.jets, lam), 4, root), 4,
                                  self.r_max), "exact"
        except (FiniteTypeError, DegeneracyError):
            return None, "exact"

    def classify_event(self, root, lam):
        """(type, confidence) at an event whose lambda* is the root record ``lam``: exact when rational.

        At an irrational lambda* the singular-value profile of the columns at
        the midpoints of both records decides, "high" or "low" by its gap.
        A column that vanishes there comes out ~1e-16 in a clean direction
        that normalization would promote, so columns far below the matrix
        scale are zeroed first.
        """
        if lam[1] == lam[2]:
            return self.classify(root, lam[1])
        t, lam = float(midpoint(root)), float(midpoint(lam))
        try:
            cols = np.array([[p.evalf(t, lam) for p in col] for col in self.jets]).T
            with np.errstate(over="ignore"):
                norms = np.linalg.norm(cols, axis=0)
            if not np.isfinite(norms).all():
                raise OverflowError("a jet is not finite")
        except OverflowError as exc:
            raise DomainError(f"a jet is beyond the float range at an event ({exc})") from exc
        cols[:, norms <= self.rank_tol * max(norms.max(), 1.0)] = 0.0
        ranks, gap = float_rank_profile(cols, self.rank_tol)
        try:
            return _ranks_to_type(ranks, 4, self.r_max), "high" if gap >= RANK_GAP_MIN else "low"
        except (FiniteTypeError, DegeneracyError):
            return None, "low"


class _FactoredDetector:
    """A scan detector D(t, u), factored once per family.

    D = c * content(u) * prod_i F_i^i with ``sf`` = prod_i F_i primitive and
    square-free in t, held as integer t-rows, and ``chain`` the
    subresultants of sf and d sf/dt.  ``discriminant`` is the square-free
    part of the last, [Res_t(sf, d sf/dt)], a multiple of the leading
    coefficient lc(u) of sf: it vanishes exactly where a line of sf loses
    degree or gains a multiple root.  Wherever the content does not vanish,
    D(., lambda) and sf(., lambda) have the same square-free part up to a
    factor, and off the discriminant's roots that part is sf(., lambda).
    """

    def __init__(self, poly: Poly):
        self.sf, self.content, self.chain = squarefree_t(poly)
        self.discriminant = squarefree(self.chain[-1][0]) if self.chain else []

    def multiple_root_lines(self):
        """[(e, line, gcd)]: the discriminant's roots, split by the multiple roots of sf there.

        At every root u* of e, the distinct roots of line(., u*) / gcd(., u*)
        are the multiple roots of sf(., u*): the roots of gcd(sf, d sf/dt)
        there.
        """
        out = []
        for e, _, multiple in line_gcd_split(self.sf, self.discriminant, self.chain):
            if len(multiple) > 1:
                out += line_gcd_split(multiple, e, subresultants(multiple))
        return out


def _side(x, root):
    """-1, 0 or 1 as the Fraction x lies below, at or above the root (m, a, b)."""
    m, a, b = root
    if not a < x < b:
        return (x >= b) - (x <= a)
    return 0 if vanishes_at(m, x) else -1 if has_root_in(m, x, b) else 1


def _refine_event(line, gcd, lam, window):
    """The real roots in the t window of line(., lam*) / gcd(., lam*), as records.

    ``(line, gcd)`` are t-rows from ``multiple_root_lines`` and ``lam`` is
    the record of a root lam* of its factor; lam* is taken as its midpoint,
    exact or within half its box of it.  So the pseudo-quotient is a
    multiple of the line's square-free part there, exact or as close, and
    its roots are the event's t: no threshold decides which critical point
    is a root.
    """
    lam = midpoint(lam)
    return isolate_real_roots(pseudo_divmod(rows_at(line, lam), rows_at(gcd, lam))[0], *window)


def _line_roots(detector: _FactoredDetector, lam_q, window):
    """(roots, line) of the detector on the lambda line u = lam_q.

    ``line`` is the square-free part of the detector's line as an integer
    list, and ``roots`` the records of its real roots in the window, or None
    when the line vanishes identically.  Off the discriminant's roots the
    line of sf is that part already, with no gcd to take.
    """
    if vanishes_at(detector.content, lam_q):
        return None, []
    line = rows_at(detector.sf, lam_q)
    if vanishes_at(detector.discriminant, lam_q):
        line = squarefree(line)
    return isolate_real_roots(line, *window), line


def scan_family(family: CurvatureFamily, t_grid, lambda_grid, tol=DEFAULT_RANK_TOL) -> ScanResult:
    """Bifurcation scan of a one-parameter family of framed curves.

    The detector det[d_0 .. d_3] of the frame dual's co-moving jets vanishes
    exactly where the dual type leaves (1, 2, 3).  Its square-free part sf
    in t is taken once.  The t grid fixes the window; the roots and events
    come from the polynomial, not the grid.  Events are the multiple t-roots
    of sf in the t window on the real roots of its t-discriminant R in the
    lambda window.  Strata are the real t-roots of the lambda lines, chained
    into branches, each typed once:

    - The type is upper semicontinuous, and at a point of type a the
      detector's t-order is the Wronskian order sum(a_i - i).  So a type
      change along a branch raises that order: there the branch's root is a
      multiple root of sf, on a root of R, or the content vanishes.  Between
      consecutive events and content roots a branch keeps its type.
    - Roots of one line are distinct and move continuously.  Between those
      critical lines and the real roots of sf(t_lo, lambda) and
      sf(t_hi, lambda), where a root crosses a window end, the k-th root of
      a line continues the k-th root of the next.  Across one crossing at
      t_lo the index shifts by the change in the root count, across one at
      t_hi it stays, and across one event at a rational lambda* the branches
      through the simple roots below and above its points go on.  Any other
      critical value ends the branches.
    - A branch is typed exactly on its line whose lambda has the fewest
      bits, the first of those, at its root there as the root of a
      square-free m in Z[t].  An event is typed exactly at a rational
      lambda*, and in floats at an irrational one.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    window = (float(t_grid[0]), float(t_grid[-1]))
    if window[1] <= window[0] or len(lambda_grid) < 2:
        raise DomainError("scan grids must be increasing with at least two lambda lines")

    oracle = _AdaptedTypeOracle(family, tol)
    if oracle.detector.is_zero():
        return ScanResult([], [], True, [{"lambda": None, "t_window": window}],
                          {"reason": "detector vanishes identically"}, oracle.detector)

    detector = _FactoredDetector(oracle.detector)
    lams = [Fraction(float(lam)) for lam in lambda_grid]
    lam_window = (min(lams), max(lams))
    events = []
    # [(root, kind, (low, high))]: the lambda values that bound the branches,
    # and how many of a line's lowest and highest roots go on across each
    critical = []
    for e, line, gcd in detector.multiple_root_lines():
        for lam_star in isolate_real_roots(e, *lam_window):
            stars = _refine_event(line, gcd, lam_star, window)
            if stars:
                simple = _line_roots(detector, lam_star[1], window)[0] if lam_star[1] == lam_star[2] else []
                low, high = min(a for _, a, _ in stars), max(b for _, _, b in stars)
                keep = sum(b < low for _, _, b in simple or ()), sum(a > high for _, a, _ in simple or ())
                critical.append((lam_star, "event", keep))
            for star in stars:
                a, confidence = oracle.classify_event(star, lam_star)
                events.append(_event_from_type(midpoint(lam_star), midpoint(star), a, confidence))
    # sf at the window ends t = lo, hi: its rows transposed, at u = lo, hi
    by_u = [[row[j] if j < len(row) else 0 for row in detector.sf] for j in range(max(map(len, detector.sf)))]
    lo, hi = (rows_at(by_u, Fraction(end)) for end in window)
    for kind, sq, keep in (("content", detector.content, (0, 0)), ("lo", lo, (0, math.inf)),
                           ("hi", hi, (math.inf, 0))):
        sq = squarefree(sq)
        if len(sq) > 1:
            critical += [(root, kind, keep) for root in isolate_real_roots(sq, *lam_window)]

    lines = [_line_roots(detector, lam, window) for lam in lams]
    sides = [tuple(_side(lam, root) for root, _, _ in critical) for lam in lams]
    chains, open_chains, degenerate_regions = [], {}, []
    for i, (roots, _) in enumerate(lines):
        if roots is None:
            degenerate_regions.append({"lambda": float(lambda_grid[i]), "t_window": window})
            open_chains = {}
            continue
        cut = [keep for (_, _, keep), s, p in zip(critical, sides[i], sides[i - 1]) if not s == p != 0]
        low, high = cut[0] if len(cut) == 1 else (0, 0) if cut else (math.inf, 0)
        current = {}
        for k in range(len(roots)):
            top = k >= len(roots) - high
            chain = open_chains.get(k if k < low else k + len(open_chains) - len(roots) if top else None)
            if chain is None:
                chain = []
                chains.append(chain)
            chain.append((i, k))
            current[k] = chain
        open_chains = current

    strata = []
    for chain in (c for c in chains if len(c) >= 2):
        i, k = min(chain, key=lambda p: lams[p[0]].numerator.bit_length() + lams[p[0]].denominator.bit_length())
        a, confidence = oracle.classify(lines[i][0][k], lams[i])
        strata.append(Stratum(type=a, class_=class_of(a) if a is not None else DEGENERATE,
                              params=np.array([(float(lambda_grid[j]), float(midpoint(lines[j][0][n])))
                                               for j, n in chain]), confidence=confidence))

    # a root crosses a window end between two lines, or on one where the count changes
    boundary = []
    for i in range(len(lines) - 1):
        r0, r1 = lines[i][0], lines[i + 1][0]
        if r0 is not None and r1 is not None and any(
                kind in ("lo", "hi") and (s * p < 0 or s * p == 0 and len(r0) != len(r1))
                for (_, kind, _), s, p in zip(critical, sides[i], sides[i + 1])):
            boundary.append((float(lambda_grid[i]), float(lambda_grid[i + 1])))

    events.sort(key=lambda e: (e.lam, e.t))
    strata.sort(key=lambda s: (s.params[0, 0], s.params[0, 1]))
    return ScanResult(events, strata, False, degenerate_regions, {"boundary_crossings": boundary},
                      oracle.detector)


# -- event table export ------------------------------------------------------------


EVENT_CSV_HEADER = "lambda,t,a1,a2,a3,class,codim_D,codim_C,schubert,confidence"


def export_events_csv(events, path):
    """Write bifurcation events as a deterministic CSV table.

    A field with a comma, such as the class ``Unresolved(3,4,5)``, is quoted
    as RFC 4180 says; a missing value is an empty field.
    """
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(EVENT_CSV_HEADER.split(","))
    for ev in sorted(events, key=lambda e: (e.lam, e.t)):
        writer.writerow([format_float(ev.lam), format_float(ev.t), *(ev.type or (None,) * 3),
                         ev.class_, ev.codim_d, ev.codim_c, ev.schubert, ev.confidence])
    atomic_write_text(path, text.getvalue())
