"""Type detection from jets, duality, codimensions, and the generic-type tables."""

import itertools
import time

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from framedcurves import (
    DegeneracyError,
    DimensionMismatch,
    FiniteTypeError,
    codim_adapted,
    codim_osculating,
    detect_type,
    detect_type_report,
    dual_type,
    enumerate_generic_types,
    exact_rank_profile,
    float_rank_profile,
    monomial_curve,
    schubert_number,
    validate_type_vector,
)
from framedcurves.classify import _exact_roots, _root
from framedcurves.jets import algebraic_rank_profile

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

increasing_triples = st.lists(
    st.integers(min_value=1, max_value=9), min_size=3, max_size=3, unique=True
).map(lambda xs: tuple(sorted(xs)))


@pytest.mark.parametrize("a", OSCULATING_N2)
def test_monomial_curve_detects_exactly(a):
    assert detect_type(monomial_curve(a), 0) == a


@pytest.mark.parametrize("a", OSCULATING_N2[:6])
def test_monomial_curve_detects_in_float_mode(a):
    report = detect_type_report(monomial_curve(a), 0.0)
    assert report.type == a
    assert report.confidence == "high"


def test_monomial_curve_is_regular_away_from_zero():
    curve = monomial_curve((1, 3, 5))
    assert detect_type(curve, Fraction(1, 2)) == (1, 2, 3)
    assert detect_type(curve, -0.37) == (1, 2, 3)
    # auto mode: exact at an exact parameter, float at a float one
    for t in (1000, Fraction(1, 2), "0.5"):
        report = detect_type_report(curve, t)
        assert (report.type, report.mode, report.confidence) == ((1, 2, 3), "exact", "exact")
    assert detect_type_report(curve, 0.5).mode == "float"


def test_detection_invariant_under_linear_maps():
    # the rank profile of the jet flag only sees the curve up to GL(4)
    curve = monomial_curve((2, 3, 5))
    g = [
        [1, 0, 0, 0],
        [Fraction(1, 2), 3, 0, 0],
        [0, -1, 1, 4],
        [2, 0, 0, -1],
    ]
    mapped = curve.linearly_mapped(g)
    assert detect_type(mapped, 0) == (2, 3, 5)
    assert detect_type(mapped, 0.0) == (2, 3, 5)


def test_detection_sees_through_reparametrization():
    from framedcurves import Poly

    curve = monomial_curve((1, 2, 4))
    # phi(t) = t + t^2 fixes 0 with phi'(0) = 1, so the type at 0 survives
    phi = Poly.t() + Poly.t() * Poly.t()
    assert detect_type(curve.reparametrized(phi), 0) == (1, 2, 4)


@given(increasing_triples)
def test_dual_type_is_an_involution(a):
    assert dual_type(dual_type(a)) == a


@given(increasing_triples)
def test_codimension_chain(a):
    assert 0 <= codim_osculating(a) <= codim_adapted(a) <= schubert_number(a)


@given(increasing_triples)
def test_osculating_codimension_is_dual_invariant(a):
    # duality fixes the top entry, so a3 - (n+1) is shared with the dual
    assert codim_osculating(dual_type(a)) == codim_osculating(a)


def test_codimension_values():
    table = {
        (1, 2, 3): (0, 0, 0),
        (1, 2, 4): (1, 1, 1),
        (1, 2, 5): (2, 2, 2),
        (1, 3, 4): (2, 1, 2),
        (2, 3, 4): (2, 1, 3),
        (3, 4, 5): (4, 2, 6),
    }
    for a, (cd, cc, sch) in table.items():
        assert codim_adapted(a) == cd
        assert codim_osculating(a) == cc
        assert schubert_number(a) == sch


def test_dual_type_values():
    assert dual_type((1, 2, 3)) == (1, 2, 3)
    assert dual_type((2, 3, 4)) == (1, 2, 4)
    assert dual_type((3, 4, 5)) == (1, 2, 5)
    assert dual_type((1, 3, 4)) == (1, 3, 4)
    assert dual_type((2, 4, 5)) == (1, 3, 5)


def test_enumerate_generic_types_n2():
    ordinary = enumerate_generic_types(2, budget=2)
    assert ordinary == [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4)]
    adapted = enumerate_generic_types(2, budget=2, mode="adapted")
    assert adapted == ordinary + [(2, 3, 4)]
    osculating = enumerate_generic_types(2, budget=2, mode="osculating")
    assert osculating == OSCULATING_N2


def test_enumerate_budget_filters():
    assert enumerate_generic_types(2, budget=1) == [(1, 2, 3), (1, 2, 4)]
    assert enumerate_generic_types(2, budget=0) == [(1, 2, 3)]


def _brute_force_types(n, budget, mode):
    """Every increasing (n+1)-tuple with entries up to n + 1 + budget, filtered by codimension."""
    codim = {"ordinary": schubert_number, "adapted": codim_adapted, "osculating": codim_osculating}[mode]
    entries = range(1, n + 2 + max(budget, 0))
    return [a for a in itertools.combinations(entries, n + 1) if codim(a) <= budget]


@pytest.mark.parametrize("mode", ["ordinary", "adapted", "osculating"])
def test_enumerate_generic_types_matches_a_brute_force_search(mode):
    for n in range(1, 6):
        for budget in range(-1, 5):
            assert enumerate_generic_types(n, budget, mode) == _brute_force_types(n, budget, mode)


def test_enumerate_is_linear_in_its_output():
    # 52,360 rows of 31 entries: each prefix carries its codimension, so no
    # row is re-validated or re-summed from scratch
    start = time.perf_counter()
    rows = enumerate_generic_types(30, 4, "osculating")
    assert time.perf_counter() - start < 1.0
    assert len(rows) == 52_360


def test_enumerate_is_lex_sorted():
    for mode in ("ordinary", "adapted", "osculating"):
        for n in (1, 2, 3):
            out = enumerate_generic_types(n, budget=3, mode=mode)
            assert out == sorted(out)
            assert len(set(out)) == len(out)


def test_exact_rank_profile_counts_pivots():
    cols = [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(2), Fraction(0), Fraction(0)],  # dependent
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    assert exact_rank_profile(cols) == [1, 1, 2, 3]


def test_algebraic_rank_profile_splits_its_modulus_at_each_root():
    # m = (t^2 - 2)(t^2 - 3): the second column (t^2 - 2)(1, 1) vanishes at
    # -+sqrt(2) only, which the zero test finds by splitting m
    m = [6, 0, -5, 0, 1]
    columns = [[[1], [0, 1]], [[-2, 0, 1], [-2, 0, 1]], [[0, 1], [3]]]
    roots = [x for x, _ in _exact_roots(m, -2.0, 2.0)]
    ranks = [algebraic_rank_profile(columns, 2, _root(m, x, (-2.0, 2.0))) for x in roots]
    assert ranks == [[1, 2], [1, 1, 2], [1, 1, 2], [1, 2]]


def test_float_rank_profile_is_monotone_unit_step():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(4, 6))
    ranks, gap = float_rank_profile(m)
    assert ranks[0] >= 0 and gap > 0
    for r0, r1 in zip(ranks, ranks[1:]):
        assert r1 - r0 in (0, 1)


def _reference_rank_profile(matrix, rank_tol=1e-8):
    """One SVD per prefix of one matrix, with the unit-step rule in plain Python."""
    ranks, min_gap, prev = [], np.inf, 0
    for r in range(matrix.shape[1]):
        m = np.array(matrix[:, : r + 1])
        norms = np.linalg.norm(m, axis=0)
        sv = np.linalg.svd(m / np.where(norms > 0, norms, 1.0), compute_uv=False)
        rank, gap = 0, np.inf
        if sv[0] > 0:
            rank = int(np.sum(sv > rank_tol * sv[0]))
            if 0 < rank < len(sv) and sv[rank] != 0:
                gap = sv[rank - 1] / sv[rank]
        rank = max(prev, min(rank, prev + 1))
        if rank < r + 1:
            min_gap = min(min_gap, gap)
        ranks.append(rank)
        prev = rank
    return ranks, min_gap


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 6), ncols=st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_float_rank_profile_equals_its_reference(seed, count, ncols):
    # column scales from 1e-12 to 1e6, with zero, dependent and nearly
    # dependent columns mixed in; the last put singular values near rank_tol
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(count, 4, ncols)) * 10.0 ** rng.uniform(-12, 6, size=(count, 1, ncols))
    for m in stack:
        kind, col, other = rng.integers(4), rng.integers(ncols), rng.integers(ncols)
        if kind == 0:
            m[:, col] = 0.0
        elif kind == 1:
            m[:, col] = rng.normal() * m[:, other]
        elif kind == 2 and col != other:
            noise = 10.0 ** rng.uniform(-9.5, -6.5) * np.abs(m[:, other]).max() * rng.normal(size=4)
            m[:, col] = m[:, other] + noise
    for m in stack:
        ranks, gap = float_rank_profile(m)
        reference_ranks, reference_gap = _reference_rank_profile(m)
        assert ranks == reference_ranks
        assert np.float64(gap).tobytes() == np.float64(reference_gap).tobytes()


def test_degenerate_curve_raises():
    # all components proportional: the jet flag never reaches full dimension
    curve = monomial_curve((1,), dim=4)
    with pytest.raises((DegeneracyError, FiniteTypeError)):
        detect_type(curve, 0)


def test_validate_type_vector_rejects_bad_input():
    with pytest.raises(DimensionMismatch):
        validate_type_vector((2, 2, 3))
    with pytest.raises(DimensionMismatch):
        validate_type_vector((0, 1, 2))
    assert validate_type_vector((1, 2, 3)) == (1, 2, 3)
