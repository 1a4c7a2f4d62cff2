"""Type detection from jets, duality, codimensions, and the generic-type tables."""

import itertools
import random
import time

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from framedcurves import (
    DegeneracyError,
    DimensionMismatch,
    FiniteTypeError,
    NormalFormFamily,
    class_of,
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
from framedcurves import curves
from framedcurves.curves import PolynomialCurve
from framedcurves.examples import BUILTINS
from framedcurves.jets import algebraic_rank_profile
from framedcurves.ratpoly import Poly, _u_mul, isolate_real_roots, trim

from exact_reference import differentiated_jet, integer_coeffs

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


def test_every_triple_up_to_7_detects_exactly():
    # the exact cases of acceptance criterion 1
    for a in itertools.combinations(range(1, 8), 3):
        assert detect_type(monomial_curve(a), 0) == a


_COEFF = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-50, max_value=50, max_denominator=10**6))
# 0, small rationals of either sign, and huge numerators and denominators
_POINT = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-20, max_value=20, max_denominator=1000),
                   st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)))


# 150 examples take about 3 s on a 2-core x86 VM (Python 3.11)
@settings(max_examples=150, deadline=None)
@given(comps=st.lists(st.lists(_COEFF, max_size=9), min_size=3, max_size=5), t=_POINT, r=st.integers(0, 12))
def test_jet_exact_equals_the_differentiated_jet(comps, t, r):
    # up to one positive scale per column, D q^(n-k) at t = p/q; r runs past
    # the degree (at most 8), where every column is zero
    curve = PolynomialCurve([Poly.from_t_coeffs(c) for c in comps])
    jet = curve.jet_exact(t, r)
    assert all(type(x) is int for col in jet for x in col)
    want = differentiated_jet(curve, t, r)
    assert len(jet) == len(want) == r + 1
    for got, ref in zip(jet, want):
        assert all(x == 0 for x, y in zip(got, ref) if not y)
        scales = {x / y for x, y in zip(got, ref) if y}
        assert len(scales) <= 1 and all(c > 0 for c in scales)


def _full_shift(ints, v, d=1):
    """The Taylor shift's loop, run for every v, 0 included."""
    n = len(ints) - 1
    a = [c * d ** (n - i) for i, c in enumerate(ints)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += v * a[j + 1]
    return a


def test_jet_exact_at_zero_is_the_full_shift(monkeypatch):
    # at t = 0 the shift is the identity and is skipped; the columns must be
    # the ones the whole loop gives, on random curves of degree up to 8
    rng = random.Random(2047)
    curves_ = [PolynomialCurve([[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(1, 9))]
                                for _ in range(rng.randint(3, 5))]) for _ in range(200)]
    got = [(c.jet_exact(0, 10), c.jet_exact(Fraction(0), 4)) for c in curves_]
    monkeypatch.setattr(curves, "taylor_shift", _full_shift)
    assert got == [(c.jet_exact(0, 10), c.jet_exact(Fraction(0), 4)) for c in curves_]


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_krylov_jets_are_the_fraction_columns_times_d_to_the_k(name):
    # d is the largest denominator of K's dyadic floats, so dK is an integer matrix
    curve = BUILTINS[name][0]()
    k = [[Fraction(x) for x in row] for row in curve.k.tolist()]
    d = max(x.denominator for row in k for x in row)
    want = [[Fraction(int(i == 0)) for i in range(curve.dim)]]
    for _ in range(8):
        want.append([sum((a * b for a, b in zip(row, want[-1])), Fraction(0)) for row in k])
    jet = curve.jet_exact(Fraction(1, 3), 8)
    assert all(type(x) is int for col in jet for x in col)
    assert jet == [[x * d**n for x in col] for n, col in enumerate(want)]


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


#: strictly increasing tuples of length 1-8 with entries below 2^40
_INCREASING = st.lists(st.integers(1, 2**40 - 1), min_size=1, max_size=8, unique=True).map(
    lambda xs: tuple(sorted(xs)))


# 300 examples take about 0.8 s on a 2-vCPU VM (Python 3.11)
@settings(max_examples=300, deadline=None)
@given(_INCREASING)
def test_closed_form_codimensions_equal_their_defining_sums(a):
    assert schubert_number(a) == sum(ai - i for i, ai in enumerate(a, start=1))
    assert codim_adapted(a) == sum(ai - i for i, ai in enumerate(a, start=1) if i >= 2)
    assert codim_osculating(a) == a[-1] - len(a)
    assert all(type(f(a)) is int for f in (schubert_number, codim_adapted, codim_osculating))


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
        [1, 0, 0],
        [2, 0, 0],  # dependent
        [0, 1, 0],
        [0, 0, 1],
    ]
    assert exact_rank_profile(cols) == [1, 1, 2, 3]
    assert exact_rank_profile(cols, 2) == [1, 1, 2]


_ENTRY = st.one_of(st.just(0), st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=7))


@st.composite
def _planted_columns(draw):
    """Columns of ints and Fractions, some zero and some combinations of the columns before them."""
    size, columns = draw(st.integers(1, 5)), []
    for kind in draw(st.lists(st.sampled_from(["free", "zero", "dependent"]), min_size=1, max_size=8)):
        if kind == "free" or (kind == "dependent" and not columns):
            columns.append(draw(st.lists(_ENTRY, min_size=size, max_size=size)))
        elif kind == "zero":
            columns.append([0] * size)
        else:
            weights = draw(st.lists(_ENTRY, min_size=len(columns), max_size=len(columns)))
            columns.append([sum((w * col[i] for w, col in zip(weights, columns)), Fraction(0))
                            for i in range(size)])
    return columns


# 150 examples take about 2 s on a 2-core x86 VM (Python 3.11)
@settings(max_examples=150, deadline=None)
@given(columns=_planted_columns(), x=st.fractions(min_value=-3, max_value=3, max_denominator=9),
       lifts=st.lists(st.lists(st.integers(-4, 4), max_size=3), min_size=5, max_size=5))
def test_plain_int_prefix_ranks_equal_sympy_ranks(columns, x, lifts):
    sympy = pytest.importorskip("sympy")
    ints = [integer_coeffs(col) for col in columns]
    ranks = exact_rank_profile(ints)
    matrix = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in col] for col in columns])
    assert ranks == [matrix[: r + 1, :].rank() for r in range(len(columns))]
    # the same columns as polynomials in t that take these values at t = x,
    # ranked at the rational root record of x: entry i of column j is
    # c + (q t - p) lifts[(i + j) % 5](t), so the degrees within a column
    # differ, and differ from column to column
    p, q = x.numerator, x.denominator
    tails = [_u_mul([-p, q], lift) if any(lift) else [] for lift in lifts]
    polys = [[trim([a + b for a, b in itertools.zip_longest([c], tails[(i + j) % 5], fillvalue=0)])
              for i, c in enumerate(col)] for j, col in enumerate(ints)]
    dim = len(columns[0])
    full = ranks.index(dim) + 1 if dim in ranks else len(ranks)
    assert algebraic_rank_profile(polys, dim, ([-p, q], x, x)) == ranks[:full]


def test_algebraic_rank_profile_splits_its_modulus_at_each_root():
    # m = (t^2 - 2)(t^2 - 3): the second column (t^2 - 2)(1, 1) vanishes at
    # -+sqrt(2) only, which the zero test finds by splitting m
    m = [6, 0, -5, 0, 1]
    columns = [[[1], [0, 1]], [[-2, 0, 1], [-2, 0, 1]], [[0, 1], [3]]]
    roots = isolate_real_roots(m, -2.0, 2.0)
    assert [r[0] for r in roots] == [m] * 4
    ranks = [algebraic_rank_profile(columns, 2, root) for root in roots]
    assert ranks == [[1, 2], [1, 1, 2], [1, 1, 2], [1, 2]]


def test_float_rank_profile_is_monotone_unit_step():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(4, 6))
    ranks, gap = float_rank_profile(m)
    assert ranks[0] >= 0 and gap > 0
    for r0, r1 in zip(ranks, ranks[1:]):
        assert r1 - r0 in (0, 1)


def _reference_rank_profile(matrix, rank_tol=1e-8):
    """One SVD per prefix of one matrix, with the unit-step rule in plain Python.

    The matrix is first scaled column by column, then row by row, to max-abs 1.
    """
    matrix = np.array(matrix)
    for j in range(matrix.shape[1]):
        if np.any(matrix[:, j]):
            matrix[:, j] /= np.max(np.abs(matrix[:, j]))
    for i in range(matrix.shape[0]):
        if np.any(matrix[i]):
            matrix[i] /= np.max(np.abs(matrix[i]))
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
    assert all(type(x) is int for x in validate_type_vector((np.int64(1), np.uint8(2), 4)))


#: every entry point that reads a type vector, and the part of its output the tests compare
TYPE_VECTOR_ENTRIES = {
    "validate_type_vector": (validate_type_vector, lambda out: out),
    "dual_type": (dual_type, lambda out: out),
    "schubert_number": (schubert_number, lambda out: out),
    "class_of": (class_of, lambda out: out),
    "monomial_curve": (monomial_curve, lambda out: out.components),
    "NormalFormFamily": (NormalFormFamily, lambda out: out.a),
}


@pytest.mark.parametrize("name", sorted(TYPE_VECTOR_ENTRIES))
@pytest.mark.parametrize("a", [(1.5, 2, 3), (1.0, 2, 4), "124", (Fraction(1), 2, 4), (np.float64(1), 2, 4), (1, 2, 4.2)],
                         ids=["float", "integral-float", "string", "fraction", "numpy-float", "last-float"])
def test_type_vectors_take_integer_entries_only(name, a):
    # an entry is converted by operator.index, never rounded: a float, a
    # string or a Fraction is refused where it was once truncated
    entry, _ = TYPE_VECTOR_ENTRIES[name]
    with pytest.raises(DimensionMismatch, match="type vector entries must be integers"):
        entry(a)


@pytest.mark.parametrize("name", sorted(TYPE_VECTOR_ENTRIES))
def test_numpy_integer_entries_read_as_ints(name):
    entry, view = TYPE_VECTOR_ENTRIES[name]
    assert view(entry((np.int64(1), np.uint8(2), 4))) == view(entry((1, 2, 4)))
