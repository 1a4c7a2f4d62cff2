"""Singularity classes, duality consistency, and one-parameter family scans."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from framedcurves import (
    CLASS_BY_DUAL_TYPE,
    CUSPIDAL_BUTTERFLY,
    CUSPIDAL_EDGE,
    CurvatureFamily,
    DEGENERATE,
    DiagonalFamily,
    DomainError,
    EVENT_CSV_HEADER,
    SingularityClass,
    class_of,
    classify_osculating_scan,
    classify_point,
    codim_adapted,
    codim_osculating,
    consistency_check,
    dual_type,
    export_events_csv,
    scan_family,
    schubert_number,
)
from framedcurves.classify import _AdaptedTypeOracle, _line_roots
from framedcurves.examples import helix_frenet_field, radial_circle_field
from framedcurves.ratpoly import Poly, integer_coeffs

increasing_triples = st.lists(
    st.integers(min_value=1, max_value=9), min_size=3, max_size=3, unique=True
).map(lambda xs: tuple(sorted(xs)))

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


@pytest.mark.parametrize("a", OSCULATING_N2)
def test_consistency_check_agrees_with_duality(a):
    cls, partner = consistency_check(a)
    assert cls == class_of(a)
    assert partner == dual_type(a)


def test_every_classified_type_pairs_with_a_developable_partner():
    for a in CLASS_BY_DUAL_TYPE:
        cls, partner = consistency_check(a)
        assert cls.name != "Unresolved"
        assert dual_type(partner) == a


# -- pointwise classification -----------------------------------------------------


def test_helix_frenet_is_a_cuspidal_edge_everywhere():
    curve, field = helix_frenet_field()
    assert classify_point(curve, field, 0.0) == CUSPIDAL_EDGE
    assert classify_point(curve, field, 0.7) == CUSPIDAL_EDGE


def test_radial_circle_dual_is_degenerate():
    # the radial dual of a circle is a circle of hyperplanes through one axis:
    # its jets never span, so no wavefront germ is assigned
    curve, field = radial_circle_field()
    assert classify_point(curve, field, 0.0) == DEGENERATE


def test_classify_point_rejects_non_adapted_fields():
    from framedcurves import circle_curve

    _, field = helix_frenet_field()
    with pytest.raises(DomainError):
        classify_point(circle_curve(), field, 0.0)


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
    # diagonal (t, t, t^3 - lambda t): the top entry degenerates
    t, u = Poly.t(), Poly.u()
    fam = DiagonalFamily((t, t, t * t * t - u * t))
    res = classify_osculating_scan(
        fam, np.linspace(-1.0, 1.0, 201), np.linspace(-0.2, 0.2, 41)
    )
    assert len(res.events) == 1
    ev = res.events[0]
    assert abs(ev.lam) < 1e-9 and abs(ev.t) < 1e-9
    assert ev.type == (1, 2, 5)
    assert ev.class_ == CUSPIDAL_BUTTERFLY
    assert (ev.codim_d, ev.codim_c, ev.schubert) == (2, 2, 2)
    assert ev.confidence == "exact"
    # persistent swallowtail strata at t = +-sqrt(lambda/3)
    strata_types = {s.type for s in res.strata}
    assert strata_types == {(1, 2, 4)}
    for s in res.strata:
        for lam, tt in s.params:
            assert abs(tt * tt - lam / 3.0) < 1e-9


# -- CSV export -------------------------------------------------------------------------


# -- the batched type oracle ---------------------------------------------------


def _unfold_family(t0, lam0, c):
    """kappa_3 = c((t - t0)^2 - (lambda - lam0)): a butterfly moved to (t0, lam0)."""
    t, u = Poly.t(), Poly.u()
    return CurvatureFamily.frenet(1, Poly.const(c) * ((t - Poly.const(t0)) ** 2 - (u - Poly.const(lam0))))


def _scan_points(detector, lambdas, window):
    """The (t, lam_q, line) points a scan classifies, over the given lambda lines."""
    points = []
    for lam in lambdas:
        lam_q = Fraction(float(lam))
        roots, line = _line_roots(detector, lam_q, window)
        if roots:
            ints = integer_coeffs(line)
            points.extend((r, lam_q, ints) for r in roots)
    return points


@pytest.mark.parametrize("t0, lam0, c", [
    (Fraction(1, 3), Fraction(0), Fraction(1)),
    (Fraction(-2, 7), Fraction(3, 11), Fraction(1)),
    (Fraction(1, 5), Fraction(1, 16), Fraction(-3, 2)),
])
def test_batched_oracle_equals_one_point_at_a_time(t0, lam0, c):
    # lambda = lam0 + 1/16 puts rational roots t0 -+ 1/4 on the line when lam0
    # is dyadic, so exact and float points mix in one batch
    oracle = _AdaptedTypeOracle(_unfold_family(t0, lam0, c), 1e-8)
    lambdas = list(float(lam0) + np.linspace(-0.2, 0.2, 41)) + [float(lam0 + Fraction(1, 16))]
    points = _scan_points(oracle.detector, lambdas, (-1.0, 1.0))
    batched = oracle.classify(points)
    assert len(batched) == len(points) > 20
    assert batched == [oracle.classify([p])[0] for p in points]
    assert {confidence for _, confidence in batched} >= {"high"}
    if lam0.denominator & (lam0.denominator - 1) == 0:
        assert "exact" in {confidence for _, confidence in batched}


def test_compiled_float_jets_equal_evalf_bit_for_bit():
    oracle = _AdaptedTypeOracle(_unfold_family(Fraction(1, 5), Fraction(1, 16), Fraction(-3, 2)), 1e-8)
    rng = np.random.default_rng(7)
    ts, lams = rng.uniform(-1, 1, 9).tolist(), rng.uniform(-0.3, 0.3, 9).tolist()
    cols = oracle._columns_float(ts, lams)
    evalf = [[[p.evalf(t, lam) for p in d] for d in oracle.jets] for t, lam in zip(ts, lams)]
    assert cols.tobytes() == np.array(evalf).transpose(0, 2, 1).tobytes()


def test_event_csv_header_and_rows(tmp_path):
    fam = _frenet_family(Poly.const(1), Poly.t() * Poly.t() - Poly.u())
    res = scan_family(fam, np.linspace(-1.0, 1.0, 400), np.linspace(-0.2, 0.2, 81))
    path = tmp_path / "events.csv"
    export_events_csv(res.events, path)
    lines = path.read_text().splitlines()
    assert lines[0] == EVENT_CSV_HEADER
    assert lines[1] == "0.0,0.0,3,4,5,Unresolved(3,4,5),4,2,6,exact"


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
