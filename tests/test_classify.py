"""Singularity classes, duality consistency, and one-parameter family scans."""

import csv
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framedcurves import (
    CLASS_BY_DUAL_TYPE,
    CUSPIDAL_BUTTERFLY,
    FULL_FOLDED_UMBRELLA,
    CurvatureFamily,
    EVENT_CSV_HEADER,
    SingularityClass,
    class_of,
    codim_adapted,
    codim_osculating,
    dual_type,
    export_events_csv,
    scan_family,
    schubert_number,
)
from framedcurves.classify import (
    _AdaptedTypeOracle,
    _event_from_type,
    _FactoredDetector,
    _line_roots,
    _refine_event,
    _side,
)
from framedcurves.config import RunConfig
from framedcurves.ratpoly import Poly, isolate_real_roots, midpoint, squarefree, trim, vanishes_at

from exact_reference import integer_coeffs

increasing_triples = st.lists(
    st.integers(min_value=1, max_value=9), min_size=3, max_size=3, unique=True
).map(lambda xs: tuple(sorted(xs)))
small_fractions = st.fractions(-2, 2, max_denominator=4)

OSCULATING_N2 = [
    (1, 2, 3),
    (1, 2, 4),
    (1, 2, 5),
    (1, 3, 4),
    (1, 3, 5),
    (1, 4, 5),
    (2, 3, 4),
    (2, 3, 5),
    (2, 4, 5),
    (3, 4, 5),
]


# -- the class table ------------------------------------------------------------


def test_class_table_names():
    assert class_of((1, 2, 3)).name == "CuspidalEdge"
    assert class_of((1, 2, 4)).name == "Swallowtail"
    assert class_of((1, 3, 4)).name == "CuspidalBeaks"
    assert class_of((1, 2, 5)).name == "CuspidalButterfly"
    assert class_of((2, 3, 4)).name == "FullFoldedUmbrella"


def test_unclassified_types_come_back_unresolved():
    c = class_of((3, 4, 5))
    assert c.name == "Unresolved"
    assert c.type == (3, 4, 5)
    assert str(c) == "Unresolved(3,4,5)"


@given(increasing_triples)
def test_class_of_is_total(a):
    c = class_of(a)
    assert isinstance(c, SingularityClass)
    assert c.name != ""


#: The developable of the frame dual of type a is swept by the dual flag; for
#: the five classified types that partner developable has the frozen type below
#: (the duality pairing is an involution on this set).
DEVELOPABLE_PAIRING = {
    (1, 2, 3): (1, 2, 3),
    (1, 2, 4): (2, 3, 4),
    (1, 2, 5): (3, 4, 5),
    (1, 3, 4): (1, 3, 4),
    (2, 3, 4): (1, 2, 4),
}


@pytest.mark.parametrize("a", OSCULATING_N2)
def test_consistency_check_agrees_with_duality(a):
    # the duality formula against the frozen pairing table: an involution on
    # the osculating list that sends each classified type to its partner
    partner = dual_type(a)
    assert partner in OSCULATING_N2 and dual_type(partner) == a
    assert DEVELOPABLE_PAIRING.get(a, partner) == partner


def test_every_classified_type_pairs_with_a_developable_partner():
    assert set(DEVELOPABLE_PAIRING) == set(CLASS_BY_DUAL_TYPE)
    for a, partner in DEVELOPABLE_PAIRING.items():
        assert class_of(a).name != "Unresolved"
        assert dual_type(partner) == a


# -- curvature-family scans ---------------------------------------------------------


def _frenet_family(kappa1, kappa3):
    return CurvatureFamily.frenet(kappa1, kappa3)


def test_scan_simple_zero_of_torsion_is_a_full_folded_umbrella_stratum():
    # kappa3 = t - lambda: the degenerate point moves along the diagonal
    fam = _frenet_family(Poly.const(1), Poly.t() - Poly.u())
    res = scan_family(fam, np.linspace(-1.0, 1.0, 101), np.linspace(-0.5, 0.5, 21))
    assert not res.events  # the zero never collides with another: no bifurcation
    assert len(res.strata) == 1
    stratum = res.strata[0]
    assert stratum.type == (2, 3, 4)
    assert stratum.class_.name == "FullFoldedUmbrella"
    lam, t = stratum.params[:, 0], stratum.params[:, 1]
    assert float(np.max(np.abs(t - lam))) < 1e-9


def test_scan_nonvanishing_torsion_is_empty():
    fam = _frenet_family(Poly.const(1), Poly.const(1))
    res = scan_family(fam, np.linspace(-1.0, 1.0, 51), np.linspace(-0.2, 0.2, 9))
    assert not res.events and not res.strata and not res.degenerate


def test_scan_planar_family_is_degenerate():
    fam = CurvatureFamily(0, (Poly.const(1), Poly(), Poly()))
    res = scan_family(fam, np.linspace(-1.0, 1.0, 51), np.linspace(-0.2, 0.2, 9))
    assert res.degenerate
    assert res.degenerate_regions


def test_scan_butterfly_collision_of_torsion_zeros():
    # kappa3 = t^2 - lambda: two simple zeros merge at the origin
    fam = _frenet_family(Poly.const(1), Poly.t() * Poly.t() - Poly.u())
    res = scan_family(fam, np.linspace(-1.0, 1.0, 400), np.linspace(-0.2, 0.2, 81))
    assert len(res.events) == 1
    ev = res.events[0]
    assert abs(ev.lam) < 1e-9 and abs(ev.t) < 1e-9
    assert ev.confidence == "exact"
    # the frame dual degenerates to order (3,4,5); the envelope germ of its
    # developable partner is the butterfly
    assert ev.type == (3, 4, 5)
    assert ev.dual == (1, 2, 5)
    assert ev.class_ == class_of((3, 4, 5))
    assert class_of(ev.dual) == CUSPIDAL_BUTTERFLY
    assert (ev.codim_d, ev.codim_c, ev.schubert) == (4, 2, 6)
    # unfolding: two umbrella points for lambda > 0, none for lambda < 0
    plus = [s for s in res.strata if np.any(np.abs(s.params[:, 0] - 0.1) < 1e-9)]
    minus = [s for s in res.strata if np.any(np.abs(s.params[:, 0] + 0.1) < 1e-9)]
    assert len(plus) == 2 and len(minus) == 0
    for s in plus:
        assert s.type == (2, 3, 4)
        assert dual_type(s.type) == (1, 2, 4)
        row = s.params[np.abs(s.params[:, 0] - 0.1) < 1e-9][0]
        assert abs(abs(row[1]) - np.sqrt(0.1)) < 1e-9


def test_scan_honest_butterfly_with_nonplanar_frame():
    # kappa1 = t^3/3 - lambda t with kappa2 = 1 makes the frame dual itself
    # pass through swallowtail and butterfly germs (no relabeling through the
    # partner table needed)
    t, u = Poly.t(), Poly.u()
    fam = CurvatureFamily(0, (t * t * t * Poly.const("1/3") - u * t, Poly.const(1), Poly()))
    assert (fam.detector() - (t * t - u) * Poly.const(-1)).is_zero() or (
        fam.detector() - (t * t - u)
    ).is_zero()
    res = scan_family(fam, np.linspace(-1.0, 1.0, 200), np.linspace(-0.2, 0.2, 41))
    assert len(res.events) == 1
    ev = res.events[0]
    assert abs(ev.lam) < 1e-9 and abs(ev.t) < 1e-9
    assert ev.type == (1, 2, 5)
    assert ev.class_ == CUSPIDAL_BUTTERFLY
    assert ev.confidence == "exact"
    branch_types = {s.type for s in res.strata if np.any(np.abs(s.params[:, 0] - 0.1) < 1e-9)}
    assert branch_types == {(1, 2, 4)}
    branch_classes = {
        s.class_.name for s in res.strata if np.any(np.abs(s.params[:, 0] - 0.1) < 1e-9)
    }
    assert branch_classes == {"Swallowtail"}


def test_scan_event_codims_match_the_type():
    fam = _frenet_family(Poly.const(1), Poly.t() * Poly.t() - Poly.u())
    res = scan_family(fam, np.linspace(-1.0, 1.0, 120), np.linspace(-0.15, 0.15, 31))
    for ev in res.events:
        assert ev.codim_d == codim_adapted(ev.type)
        assert ev.codim_c == codim_osculating(ev.type)
        assert ev.schubert == schubert_number(ev.type)


# -- osculating-family scans ----------------------------------------------------------


def test_osculating_scan_of_a_diagonal_family():
    # the Frenet family kappa = (1, 0, 3t^2 - lambda) has the chart diagonal
    # (t, t, t^3 - lambda t): the curve's own type, the frame dual's dual, runs
    # through the butterfly (1, 2, 5) at the origin and swallowtails (1, 2, 4)
    t, u = Poly.t(), Poly.u()
    fam = _frenet_family(Poly.const(1), Poly.const(3) * t * t - u)
    res = scan_family(fam, np.linspace(-1.0, 1.0, 201), np.linspace(-0.2, 0.2, 41))
    assert len(res.events) == 1
    ev = res.events[0]
    assert abs(ev.lam) < 1e-9 and abs(ev.t) < 1e-9
    assert ev.dual == (1, 2, 5)
    assert ev.type == (3, 4, 5) and str(ev.class_) == "Unresolved(3,4,5)"
    assert (ev.codim_d, ev.codim_c, ev.schubert) == (4, 2, 6)
    assert ev.confidence == "exact"
    # persistent swallowtail strata at t = +-sqrt(lambda/3), full folded
    # umbrellas of the frame dual
    assert {dual_type(s.type) for s in res.strata} == {(1, 2, 4)}
    assert {s.class_ for s in res.strata} == {FULL_FOLDED_UMBRELLA}
    for s in res.strata:
        for lam, tt in s.params:
            assert abs(tt * tt - lam / 3.0) < 1e-9


def _t_order(p, t0, lam0, limit=9):
    """The t-order of p at (t0, lam0) from the values of its t-derivatives, or limit if it is at least that."""
    for k in range(limit):
        if p.eval(t0, lam0) != 0:
            return k
        p = p.diff_t()
    return limit


def _vanishing_poly(t0, lam0, k, coeffs):
    """(t - t0)^k (a + b lambda t) + (lambda - lam0)(c t + d): of t-order at least k on lambda = lam0."""
    t, u = Poly.t(), Poly.u()
    a, b, c, d = (Poly.const(x) for x in coeffs)
    return (t - Poly.const(t0)) ** k * (a + b * u * t) + (u - Poly.const(lam0)) * (c * t + d)


vanishing_kappa = st.tuples(st.integers(0, 5), st.lists(st.integers(-2, 2), min_size=4, max_size=4))
thirds = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))


#: 150 examples take about 1.5 s in tier-1
@settings(max_examples=150, deadline=None)
@given(t0=thirds, lam0=thirds, delta=st.sampled_from((0, 1, -1)), kappa1=vanishing_kappa, kappa3=vanishing_kappa)
def test_a_frenet_frame_dual_has_the_dual_of_the_osculating_type(t0, lam0, delta, kappa1, kappa3):
    # the osculating framing of kappa = (kappa_1, 0, kappa_3) has the diagonal
    # orders 1, 1 + k and 1 + m, k and m the t-orders of kappa_1 and kappa_3:
    # the curve has type (1, 2 + k, 3 + k + m), and its frame dual the dual type
    kappa1, kappa3 = _vanishing_poly(t0, lam0, *kappa1), _vanishing_poly(t0, lam0, *kappa3)
    k, m = _t_order(kappa1, t0, lam0), _t_order(kappa3, t0, lam0)
    oracle = _AdaptedTypeOracle(CurvatureFamily(delta, (kappa1, Poly(), kappa3)), 1e-8)
    a, confidence = oracle.classify(([-t0.numerator, t0.denominator], t0, t0), lam0)
    assert confidence == "exact"
    assert a == (dual_type((1, 2 + k, 3 + k + m)) if 3 + k + m <= 8 else None)


# -- CSV export -------------------------------------------------------------------------


# -- branch types ------------------------------------------------------------------


def _unfold_family(t0, lam0, c):
    """kappa_3 = c((t - t0)^2 - (lambda - lam0)): a butterfly moved to (t0, lam0)."""
    t, u = Poly.t(), Poly.u()
    return CurvatureFamily.frenet(1, Poly.const(c) * ((t - Poly.const(t0)) ** 2 - (u - Poly.const(lam0))))


#: 25 examples take about 0.7 s in tier-1
@settings(max_examples=25, deadline=None)
@given(a=small_fractions, b=small_fractions, c=small_fractions.filter(bool), d=small_fractions,
       e=small_fractions, lam_ends=st.lists(small_fractions, min_size=2, max_size=2, unique=True),
       count=st.integers(2, 21))
def test_a_branch_has_the_exact_type_of_every_root_it_carries(a, b, c, d, e, lam_ends, count):
    # kappa = (1 + a t^2 - e lambda t, 0, t^2 + b t + c lambda + d): a branch is
    # typed once, on its grid line whose lambda has the fewest bits, which on
    # lines spaced between small rationals is often not its first; every root
    # it carries must have that type on its own grid line
    t, u = Poly.t(), Poly.u()
    kappa1 = Poly.const(1) + Poly.const(a) * t * t - Poly.const(e) * u * t
    fam = CurvatureFamily(0, (kappa1, Poly(), t * t + Poly.const(b) * t + Poly.const(c) * u + Poly.const(d)))
    window = (-1.0, 1.0)
    res = scan_family(fam, np.linspace(*window, 21), np.linspace(*map(float, sorted(lam_ends)), count))
    oracle = _AdaptedTypeOracle(fam, 1e-8)
    factored = _FactoredDetector(oracle.detector)
    for s in res.strata:
        assert s.confidence == "exact"
        for lam, t_float in s.params:
            roots, line = _line_roots(factored, Fraction(lam), window)
            r = next(r for r in roots if float(midpoint(r)) == t_float)
            assert r[1] == r[2] or r[0] == integer_coeffs(line)
            assert oracle.classify(r, Fraction(lam)) == (s.type, "exact")


@pytest.mark.parametrize("power,type_,class_", [(6, None, "Degenerate"), (5, (6, 7, 8), "Unresolved(6,7,8)")])
def test_a_branch_past_finite_type_is_one_exact_stratum(power, type_, class_):
    # kappa_3 = (t - lambda)^k: the branch t = lambda has a dual of no finite
    # type within r_max = 8 for k = 6, and one outside the class table for k = 5
    t, u = Poly.t(), Poly.u()
    res = scan_family(CurvatureFamily.frenet(1, (t - u) ** power), np.linspace(-1.0, 1.0, 21),
                      np.linspace(-0.5, 0.5, 11))
    assert [(s.type, str(s.class_), s.confidence) for s in res.strata] == [(type_, class_, "exact")]
    assert res.strata[0].params.tolist() == [[lam, lam] for lam in np.linspace(-0.5, 0.5, 11)]


# -- line roots beside an event ---------------------------------------------------


def test_a_line_just_past_an_event_has_no_phantom_root():
    # on lambda = 0.04999999999999999, lambda - 1/20 is -1.1e-17: the double
    # root of the event at (1/3, 1/20) has left the real line
    fam = _unfold_family(Fraction(1, 3), Fraction(1, 20), Fraction(3, 2))
    lam_q = Fraction(0.04999999999999999)
    assert lam_q < Fraction(1, 20)
    roots, _ = _line_roots(_FactoredDetector(fam.detector()), lam_q, (-1.0, 1.0))
    assert roots == []


def test_two_roots_beside_an_event_stay_two_strata():
    # kappa3 = (t - 1/3)^2 - lambda on lambda = 2^-64, 2^-62, 2^-60: each line
    # has the roots 1/3 -+ 2^-32 ... 2^-30, far closer than any float threshold
    fam = _unfold_family(Fraction(1, 3), Fraction(0), Fraction(1))
    res = scan_family(fam, np.linspace(-1.0, 1.0, 401), [2.0**-64, 2.0**-62, 2.0**-60])
    assert [len(s.params) for s in res.strata] == [3, 3]
    assert [(s.type, s.confidence) for s in res.strata] == [((2, 3, 4), "exact")] * 2
    third = Fraction(1, 3)
    for s, sign in zip(res.strata, (-1, 1)):
        expect = [float(third + sign * Fraction(1, 2**k)) for k in (32, 31, 30)]
        assert s.params[:, 1].tolist() == expect
    assert 0.33333333333333337 not in [t for s in res.strata for t in s.params[:, 1]]
    # the points on either side of the event where a float oracle saw (3, 4, 5)
    # and (2, 3, 5)
    oracle = _AdaptedTypeOracle(fam, 1e-8)
    for k in (20, 32):
        for t_q in (third - Fraction(1, 2**k), third + Fraction(1, 2**k)):
            root = ([-t_q.numerator, t_q.denominator], t_q, t_q)
            assert oracle.classify(root, Fraction(1, 2 ** (2 * k))) == ((2, 3, 4), "exact")


# -- events from the discriminant ------------------------------------------------


#: 20 examples take about 1 s in tier-1
@settings(max_examples=20, deadline=None)
@given(t0=st.fractions(Fraction(-1, 2), Fraction(1, 2), max_denominator=12),
       lam0=st.fractions(Fraction(-1, 10), Fraction(1, 10), max_denominator=20),
       c=st.fractions(Fraction(-2), Fraction(2), max_denominator=4).filter(bool))
def test_a_moved_butterfly_is_one_exact_event_at_its_point(t0, lam0, c):
    res = scan_family(_unfold_family(t0, lam0, c), np.linspace(-1.0, 1.0, 41), np.linspace(-0.2, 0.2, 9))
    assert [(ev.t, ev.lam, ev.type, ev.confidence) for ev in res.events] == [
        (float(t0), float(lam0), (3, 4, 5), "exact")]


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("lines", [400, 401])
def test_an_event_that_keeps_the_root_count_is_found_on_either_grid_parity(sign, lines):
    # kappa3 = t^2 -+ lambda^2: with an even line count no line passes lambda = 0
    t, u = Poly.t(), Poly.u()
    fam = _frenet_family(Poly.const(1), t * t + Poly.const(sign) * u * u)
    res = scan_family(fam, np.linspace(-1.0, 1.0, 201), np.linspace(-1.0, 1.0, lines))
    assert [(ev.t, ev.lam, ev.type, ev.confidence) for ev in res.events] == [(0.0, 0.0, (3, 4, 5), "exact")]


def test_a_root_leaving_the_window_is_a_boundary_crossing_not_an_event():
    # kappa3 = t^2 - lambda on t in [-0.3, 0.3]: the roots +-sqrt(lambda) meet
    # at the origin and leave the window at lambda = 0.09
    fam = _frenet_family(Poly.const(1), Poly.t() * Poly.t() - Poly.u())
    res = scan_family(fam, np.linspace(-0.3, 0.3, 61), np.linspace(-0.2, 0.2, 21))
    assert [(ev.t, ev.lam) for ev in res.events] == [(0.0, 0.0)]
    assert np.allclose(res.meta["boundary_crossings"], [(0.08, 0.1)], rtol=0, atol=1e-12)


def test_a_crossing_beside_an_event_outside_the_t_window_is_still_a_crossing():
    # detector ((t - 1/2)^2 - lambda)(t - 29/100 - lambda) on t in [-0.3, 0.3]:
    # the discriminant root lambda = 0 has its double root t = 1/2 outside
    # the window, and the root 29/100 + lambda leaves it at lambda = 0.01
    t, u = Poly.t(), Poly.u()
    fam = _frenet_family(t - Poly.const(Fraction(29, 100)) - u, (t - Poly.const(Fraction(1, 2))) ** 2 - u)
    res = scan_family(fam, np.linspace(-0.3, 0.3, 61), np.linspace(-0.02, 0.02, 3))
    assert res.events == []
    assert res.meta["boundary_crossings"] == [(0.0, 0.02)]


def test_an_irrational_event_is_located_in_floats():
    # kappa3 = (t - 1/3)^2 - (lambda^2 - 1/50): events at lambda = -+sqrt(1/50)
    t, u = Poly.t(), Poly.u()
    third = Poly.const(Fraction(1, 3))
    fam = _frenet_family(Poly.const(1), (t - third) ** 2 - (u * u - Poly.const(Fraction(1, 50))))
    res = scan_family(fam, np.linspace(-1.0, 1.0, 101), np.linspace(-0.2, 0.2, 41))
    assert len(res.events) == 2
    for ev, lam in zip(res.events, (-np.sqrt(0.02), np.sqrt(0.02))):
        assert abs(ev.lam - lam) < 1e-15 and abs(ev.t - 1 / 3) < 1e-12
        assert ev.type == (3, 4, 5) and ev.confidence != "exact"


def test_an_irrational_event_at_t_zero_is_found():
    # kappa3 = t^2 - lambda^2 + 1/50: the multiple root sits at t = 0 on both
    # lines lambda = -+sqrt(1/50)
    t, u = Poly.t(), Poly.u()
    fam = _frenet_family(Poly.const(1), t * t - u * u + Poly.const(Fraction(1, 50)))
    res = scan_family(fam, np.linspace(-1.0, 1.0, 101), np.linspace(-0.2, 0.2, 41))
    assert [ev.t for ev in res.events] == [0.0, 0.0]
    for ev, lam in zip(res.events, (-np.sqrt(0.02), np.sqrt(0.02))):
        assert abs(ev.lam - lam) < 1e-15
        assert ev.type == (3, 4, 5) and ev.confidence != "exact"
    assert res.meta["boundary_crossings"] == []


def test_two_double_roots_on_one_irrational_line_are_two_events():
    # kappa3 = (t^2 - 1/4)^2 - (lambda^2 - 1/50): on lambda = -+sqrt(1/50) the
    # line has double roots at -+1/2, so its gcd with the slope is quadratic
    t, u = Poly.t(), Poly.u()
    quarter, fiftieth = Poly.const(Fraction(1, 4)), Poly.const(Fraction(1, 50))
    fam = _frenet_family(Poly.const(1), (t * t - quarter) ** 2 - (u * u - fiftieth))
    res = scan_family(fam, np.linspace(-1.0, 1.0, 101), np.linspace(-0.2, 0.2, 41))
    assert [ev.t for ev in res.events] == [-0.5, 0.5, -0.5, 0.5]
    assert all(abs(abs(ev.lam) - np.sqrt(0.02)) < 1e-15 and ev.type == (3, 4, 5) for ev in res.events)


def test_side_places_a_rational_against_a_root_record():
    # outside the open box the ends decide; inside it one exact sign test does
    sqrt2 = ([-2, 0, 1], Fraction(1), Fraction(2))
    assert [_side(x, sqrt2) for x in (Fraction(1), Fraction(7, 5), Fraction(3, 2), Fraction(2))] == [-1, -1, 1, 1]
    assert [_side(x, ([-3, 2], Fraction(1), Fraction(2))) for x in (Fraction(4, 3), Fraction(3, 2))] == [-1, 0]
    assert [_side(x, ([-1, 2], Fraction(1, 2), Fraction(1, 2))) for x in (0, Fraction(1, 2), 1)] == [-1, 0, 1]


@pytest.mark.parametrize("name", ["triple root", "moving triple root", "degree drop"])
def test_an_osculating_event_on_an_irrational_line_needs_no_threshold(name):
    # where a = lambda^2 - 1/50 vanishes, t^3 + a and (t - lambda)^3 + a t have
    # a triple root at t = 0 and t = lambda, and a t^3 + t^2 - a loses its
    # cubic term and keeps a double root at t = 0
    t, u = Poly.t(), Poly.u()
    a = u * u - Poly.const(Fraction(1, 50))
    entry = {"triple root": t**3 + a, "moving triple root": (t - u) ** 3 + a * t,
             "degree drop": a * t**3 + t * t - a}[name]
    fam = _frenet_family(Poly.const(1), entry)
    res = scan_family(fam, np.linspace(-1.0, 1.0, 101), np.linspace(-0.5, 0.5, 11))
    # (t - lambda)^3 + a t also has two double roots off those lines
    on_a = [ev for ev in res.events if abs(abs(ev.lam) - np.sqrt(0.02)) < 1e-15]
    assert len(on_a) == 2 and len(res.events) == (4 if name == "moving triple root" else 2)
    for ev in on_a:
        assert ev.confidence != "exact"
        assert abs(ev.t - ev.lam) < 1e-15 if name == "moving triple root" else ev.t == 0.0


def _split_detector():
    """(t^2 - u)^2 (t - 1/3)(u + 1/2): a square, a u-content and two events."""
    t, u = Poly.t(), Poly.u()
    return (t * t - u) ** 2 * (t - Poly.const(Fraction(1, 3))) * (u + Poly.const(Fraction(1, 2)))


def test_a_line_on_a_discriminant_root_keeps_its_exact_roots():
    detector = _split_detector()
    factored = _FactoredDetector(detector)
    window = (-1.0, 1.0)
    # off every root: the line of sf is square-free already, with no
    # squarefree() call, and has the square-free part of the detector's line
    lam = Fraction(1, 4)
    assert not vanishes_at(factored.discriminant, lam)
    roots, line = _line_roots(factored, lam, window)
    assert squarefree(line) == squarefree(integer_coeffs(trim(detector.subs_u(lam).t_coeffs())))
    assert len(squarefree(line)) == len(line)
    assert len(roots) == 3
    # the discriminant vanishes at 0 (t = 0 is double) and at 1/9 (t = 1/3 is
    # on both factors): the roots are those of the detector's own line
    for lam, exact in ((Fraction(0), [Fraction(0), Fraction(1, 3)]),
                       (Fraction(1, 9), [Fraction(-1, 3), Fraction(1, 3)])):
        assert vanishes_at(factored.discriminant, lam)
        own = integer_coeffs(trim(detector.subs_u(lam).t_coeffs()))
        roots, line = _line_roots(factored, lam, window)
        assert line == squarefree(own)
        assert roots == isolate_real_roots(squarefree(own), *window)
        assert roots == [([-x.numerator, x.denominator], x, x) for x in exact]
        assert all(vanishes_at(own, x) for x in exact)
    # the content vanishes at -1/2: the whole line does
    assert _line_roots(factored, Fraction(-1, 2), window) == (None, [])


# -- the integer scan path against the Fraction path it replaced -------------------------


def _fraction_quotient(a, b):
    """Quotient of Fraction coefficient lists (low degree first), the remainder dropped."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + len(b) - 1] / b[-1]
        for i, bi in enumerate(b):
            a[k + i] -= c * bi
    return q


def _fraction_squarefree(p):
    """Monic square-free part of a trimmed Fraction list: p / gcd(p, p') by Euclid over Q."""
    if len(p) <= 1:
        return p
    a, b = p, trim([i * c for i, c in enumerate(p)][1:])
    while b:
        r = list(a)
        while len(r) >= len(b):
            c, shift = r[-1] / b[-1], len(r) - len(b)
            r = trim([x - c * b[i - shift] if i >= shift else x for i, x in enumerate(r)][:-1])
        a, b = b, r
    sf = _fraction_quotient(p, a)
    return [c / sf[-1] for c in sf]


def _fraction_line(rows, lam):
    """The t-rows at u = lam by ``Poly.subs_u``, as a trimmed Fraction list."""
    poly = Poly({(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v})
    return trim(poly.subs_u(lam).t_coeffs())


def _same_records(mine, reference):
    """Equal boxes (a, b), and each integer list m a multiple of the reference's."""
    assert [r[1:] for r in mine] == [r[1:] for r in reference]
    for (m, _, _), (n, _, _) in zip(mine, reference):
        assert len(m) == len(n) and all(x * n[-1] == y * m[-1] for x, y in zip(m, n))


#: 60 examples take about 2 s in tier-1
@settings(max_examples=60, deadline=None)
@given(b=small_fractions, c=small_fractions.filter(bool), d=small_fractions, e=small_fractions,
       r=small_fractions, s=small_fractions, lams=st.lists(st.fractions(-2, 2, max_denominator=40), max_size=3))
def test_the_integer_scan_path_returns_the_fraction_path_records(b, c, d, e, r, s, lams):
    # kappa_3 = t^2 + b t + c lambda + d; the factor (lambda - r) (t - s lambda)^2
    # gives the detector a content and a square
    t, u = Poly.t(), Poly.u()
    fam = CurvatureFamily(0, (Poly.const(1) - Poly.const(e) * u * t, Poly(),
                              t * t + Poly.const(b) * t + Poly.const(c) * u + Poly.const(d)))
    factored = _FactoredDetector(fam.detector() * (u - Poly.const(r)) * (t - Poly.const(s) * u) ** 2)
    window = (-1.0, 1.0)
    on_roots = [a for _, a, b in isolate_real_roots(factored.discriminant, -4, 4) if a == b]
    for lam in [*lams, *on_roots, r, Fraction(0.1)]:
        roots, _ = _line_roots(factored, lam, window)
        if vanishes_at(factored.content, lam):
            assert roots is None
            continue
        line = _fraction_line(factored.sf, lam)
        line = [x / line[-1] for x in line]
        if vanishes_at(factored.discriminant, lam):
            line = _fraction_squarefree(line)
        _same_records(roots, isolate_real_roots(integer_coeffs(line), *window))
    for factor, line, gcd in factored.multiple_root_lines():
        for lam in isolate_real_roots(factor, -4, 4):
            x = midpoint(lam)
            quotient = _fraction_quotient(_fraction_line(line, x), _fraction_line(gcd, x))
            reference = isolate_real_roots(integer_coeffs(quotient), *window)
            _same_records(_refine_event(line, gcd, lam, window), reference)


def test_osculating_scan_events_of_a_non_square_free_detector():
    # curvatures kappa_1 kappa_3 with the split detector's square-free part and content
    t, u = Poly.t(), Poly.u()
    fam = _frenet_family((t * t - u) ** 2 * (t - Poly.const(Fraction(1, 3))), u + Poly.const(Fraction(1, 2)))
    ours, split = _FactoredDetector(fam.detector()), _FactoredDetector(_split_detector())
    assert ours.sf in (split.sf, [[-x for x in row] for row in split.sf])
    assert squarefree(ours.content) in (split.content, [-x for x in split.content])
    res = scan_family(fam, np.linspace(-1.0, 1.0, 101), np.linspace(-0.5, 0.5, 11))
    assert [(ev.t, ev.lam, ev.confidence) for ev in res.events] == [(0.0, 0.0, "exact"),
                                                                     (1 / 3, 1 / 9, "exact")]
    assert res.degenerate_regions == [{"lambda": -0.5, "t_window": (-1.0, 1.0)}]


def test_a_root_is_not_classified_at_another_rational_root_of_its_line():
    # every line has the roots 1 and 7/10 + lambda; the nearest integer to
    # the second is the first, a root of the same line, which the exact snap
    # must not take
    t, u = Poly.t(), Poly.u()
    fam = _frenet_family(t - Poly.const(Fraction(7, 10)) - u, (t - Poly.const(1)) ** 2)
    res = scan_family(fam, np.linspace(-2.0, 2.0, 101), np.linspace(-0.1, 0.1, 5))
    assert [(s.type, round(s.params[2, 1], 9)) for s in res.strata] == [((1, 3, 4), 0.7), ((3, 4, 5), 1.0)]


def test_event_csv_header_and_rows(tmp_path):
    fam = _frenet_family(Poly.const(1), Poly.t() * Poly.t() - Poly.u())
    res = scan_family(fam, np.linspace(-1.0, 1.0, 400), np.linspace(-0.2, 0.2, 81))
    path = tmp_path / "events.csv"
    export_events_csv(res.events, path)
    lines = path.read_text().splitlines()
    assert lines[0] == EVENT_CSV_HEADER
    assert lines[1] == '0.0,0.0,3,4,5,"Unresolved(3,4,5)",4,2,6,exact'


def test_event_csv_is_sorted_and_deterministic(tmp_path):
    t, u = Poly.t(), Poly.u()
    fam = CurvatureFamily(0, (t * t * t * Poly.const("1/3") - u * t, Poly.const(1), Poly()))
    res = scan_family(fam, np.linspace(-1.0, 1.0, 200), np.linspace(-0.2, 0.2, 41))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_events_csv(res.events, p1)
    export_events_csv(res.events, p2)
    assert p1.read_bytes() == p2.read_bytes()
    body = p1.read_text().splitlines()[1:]
    keys = [tuple(float(x) for x in row.split(",")[:2]) for row in body]
    assert keys == sorted(keys)


def test_events_beside_a_huge_root_keep_their_bits_on_a_1e300_window():
    # kappa_3 = t^2 - (lambda^2 - 2)(lambda - 2^100): with boxes at most
    # 2^-100 of their window, the events near -+sqrt 2 read -0.507 and 2.480
    # on lambda in [-2, 1e300]; sized by their roots, they are correctly rounded
    t, u = Poly.t(), Poly.u()
    family = CurvatureFamily(0, (Poly.const(1), Poly(), t * t - (u * u - Poly.const(2)) * (u - Poly.const(2**100))))
    discriminant = _FactoredDetector(family.detector()).discriminant
    assert [float(midpoint(r)) for r in isolate_real_roots(discriminant, -2, 1e300)] == [
        -1.4142135623730951, 1.4142135623730951, 2.0**100]


def test_a_degree_129_factor_is_isolated_on_a_1e300_window_as_on_its_root_bound():
    # fuzz seed 26's discriminant factor, of degree 129 with 163-bit
    # coefficients: on the window's own lattice it took 26 s on [-1, 1e300]
    # against 0.67 s on [-32, 32], Fujiwara's window; now both are that window
    kappa = [{"1,2": "1", "0,0": "1"}, {"3,2": "-2", "1,0": "-2", "3,1": "-1"},
             {"0,0": "3/2", "0,2": "-3", "3,2": "3/2"}]
    family = RunConfig.from_dict({"curve": {"kind": "curvature", "kappa": kappa},
                                  "grids": {"t": [1.0, 1e16, 8], "lambda": [-1.0, 1e300, 5]}}).curvature_family()
    e = max((e for e, _, _ in _FactoredDetector(family.detector()).multiple_root_lines()), key=len)
    assert len(e) == 130
    start = time.perf_counter()
    records = isolate_real_roots(e, -1, 1e300)
    assert time.perf_counter() - start <= 2.0
    assert len(records) == 15
    assert records == [r for r in isolate_real_roots(e, -32, 32) if r[2] > -1]


def test_event_csv_rows_read_back_under_the_header(tmp_path):
    types = [(1, 2, 4), (3, 4, 5), None, (1, 2, 5), (2, 3, 5), (1, 3, 4)]
    events = [_event_from_type(k / 8, 0.1 - k, a, "exact") for k, a in enumerate(types)]
    path = tmp_path / "events.csv"
    export_events_csv(events, path)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    header = EVENT_CSV_HEADER.split(",")
    assert [list(row) for row in rows] == [header] * len(events)
    assert [row["class"] for row in rows] == [str(ev.class_) for ev in events]
    assert rows[2]["a1"] == rows[2]["codim_D"] == ""
    # every row but an unresolved class's is the plain comma join of its fields
    lines = path.read_text().splitlines()[1:]
    for ev, line in zip(events, lines):
        if ev.class_.type is None:
            fields = [repr(ev.lam), repr(ev.t), *(ev.type or [None] * 3), ev.class_, ev.codim_d,
                      ev.codim_c, ev.schubert, ev.confidence]
            assert line == ",".join("" if x is None else str(x) for x in fields)
