"""Float evaluation of exact polynomials, and the root toolkit of the scans."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from framedcurves import NormalFormFamily, Poly, ratpoly
from framedcurves.ratpoly import (
    _descartes_count,
    _horner,
    _sign,
    _sign_beside,
    _u_mul,
    has_root_in,
    isolate_real_roots,
    line_gcd_split,
    midpoint,
    poly_gcd,
    pseudo_divmod,
    rows_at,
    squarefree,
    squarefree_t,
    subresultants,
    taylor_shift,
    trim,
    vanishes_at,
)

from exact_reference import integer_coeffs

POLYS = {
    "x3 of (1,2,5)": NormalFormFamily((1, 2, 5)).x3,
    "F_tt of (3,4,5)": NormalFormFamily((3, 4, 5)).ftt,
    "mixed": Poly({(7, 3): "1/3", (2, 5): 5, (1, 0): "-0.1", (0, 0): "-2/7"}),
}


@pytest.mark.parametrize("name", sorted(POLYS))
def test_array_evalf_equals_scalar_evalf_bit_for_bit(name):
    p = POLYS[name]
    t = np.linspace(-1.3, 1.7, 61)[:, None]
    u = np.linspace(-0.9, 2.1, 47)[None, :]
    grid = p.evalf(t, u)
    scalar = [[p.evalf(a, b) for b in u[0].tolist()] for a in t[:, 0].tolist()]
    assert grid.shape == (61, 47)
    assert (grid == np.array(scalar)).all()
    column = p.evalf(t, 0.25)
    assert (column == np.array([[p.evalf(a, 0.25)] for a in t[:, 0].tolist()])).all()


def test_array_evalf_of_the_zero_polynomial_is_an_array():
    t = np.linspace(-1.0, 1.0, 5)
    for args, shape in (((t,), (5,)), ((t[:, None], t[None, :3]), (5, 3)), ((0.5, t), (5,))):
        value = Poly().evalf(*args)
        assert isinstance(value, np.ndarray) and value.shape == shape
        assert not value.any()
    assert Poly().evalf(0.5) == 0.0
    # a constant broadcasts over the argument too
    assert (Poly.const(3).evalf(t) == 3.0).all()


def test_evalf_of_a_small_term_past_the_power_range_is_finite():
    # 10^400 has no float, but 10^-300 t^400 at t = 10 is 1e100: Horner's rule
    # never forms the power on its own
    p = Poly({(400, 0): Fraction(1, 10**300)})
    value = p.evalf(10.0)
    assert abs(value - 1e100) <= 1e-13 * 1e100
    array = p.evalf(np.array([10.0, 10.0]))
    assert array.tolist() == [value, value]


def test_evalf_of_a_coefficient_past_the_float_range_raises_on_every_call():
    # the float table is kept only once it is whole
    p = Poly({(2, 0): Fraction(10**400), (0, 0): 1})
    for _ in range(2):
        with pytest.raises(OverflowError):
            p.evalf(0.5)


_RATIONAL = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@given(coeffs=st.lists(_RATIONAL, min_size=1, max_size=6), planted=st.lists(_RATIONAL, max_size=3),
       x=_RATIONAL)
def test_integer_zero_test_agrees_with_exact_evaluation(coeffs, planted, x):
    line = Poly.from_t_coeffs(coeffs)
    for r in planted:
        line = line * (Poly.t() - Poly.const(r))
    dense = trim(line.t_coeffs())
    assume(dense)
    ints = integer_coeffs(dense)
    assert all(type(a) is int for a in ints)
    scale = ints[-1] / dense[-1]
    assert ints == [b * scale for b in dense]
    for q in [x, *planted]:
        assert vanishes_at(ints, q) == (line.eval(q) == 0)
    assert all(vanishes_at(ints, r) for r in planted)


# -- the bivariate toolkit against sympy (a test-only oracle) --------------------

_TERMS = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 2)), _RATIONAL, min_size=1, max_size=5)
_FACTOR_TERMS = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 2)), _RATIONAL, min_size=1,
                                max_size=4)
_U_TERMS = st.dictionaries(st.tuples(st.just(0), st.integers(0, 2)), _RATIONAL, min_size=1, max_size=3)


def _sympy_t_poly(sympy, p):
    """p as a sympy polynomial in t over QQ[u]."""
    t, u = sympy.symbols("t u")
    expr = sum((sympy.Rational(v, p.den) * t**i * u**j for i, row in enumerate(p.rows) for j, v in enumerate(row)),
               sympy.Integer(0))
    return sympy.Poly(expr, t, domain="QQ[u]")


def _sympy_rows(sympy, rows):
    """An integer t-row list as a sympy polynomial in t over ZZ[u]."""
    t, u = sympy.symbols("t u")
    expr = sum((c * t**i * u**j for i, row in enumerate(rows) for j, c in enumerate(row)), sympy.Integer(0))
    return sympy.Poly(expr, t, domain="ZZ[u]")


def _sympy_u_expr(sympy, coeffs):
    u = sympy.symbols("u")
    return sum((sympy.Rational(c.numerator, c.denominator) * u**i for i, c in enumerate(coeffs)),
               sympy.Integer(0))


def _primitive(coeffs):
    """Whether an integer list has coprime entries and a positive leading one."""
    return all(type(c) is int for c in coeffs) and math.gcd(*coeffs) == 1 and coeffs[-1] > 0


def _proportional(sympy, a, b):
    """Whether two nonzero expressions differ by a nonzero rational factor."""
    ratio = sympy.cancel(a / b)
    return ratio.is_Rational and ratio != 0


def _zz(sympy, ints):
    """An integer coefficient list, lowest degree first, as a sympy polynomial in x over ZZ."""
    return sympy.Poly(ints[::-1], sympy.Symbol("x"), domain="ZZ")


def _ints(p):
    """A sympy polynomial's integer coefficient list, lowest degree first."""
    return [int(v) for v in p.all_coeffs()[::-1]]


def _planted_pair(sympy, a, b, c, k=0):
    """a^(k+1) c and b c as sympy polynomials, for nonzero lists a, b and c."""
    assume(trim(a) and trim(b) and trim(c))
    return _zz(sympy, a) ** (k + 1) * _zz(sympy, c), _zz(sympy, b) * _zz(sympy, c)


@settings(max_examples=20, deadline=None)
@given(a=_FACTOR_TERMS, b=_FACTOR_TERMS, c=_U_TERMS)
def test_the_chain_of_the_square_free_part_ends_in_its_resultant(a, b, c):
    # squarefree_t hands on sf's own chain, whether p's primitive part was
    # square-free or not, and its last coefficient is Res_t(sf, d sf/dt) up
    # to sign (the scan takes only its square-free part)
    sympy = pytest.importorskip("sympy")
    a, b, c = Poly(a), Poly(b), Poly(c)
    assume(not (a.is_zero() or b.is_zero() or c.is_zero()))
    for p in (c * b, c * a * a * b):
        sf, _, chain = squarefree_t(p)
        if len(sf) == 1:
            assert chain == []
            continue
        assert chain == subresultants(sf)
        degrees = [len(s) - 1 for s in chain]
        assert degrees == sorted(set(degrees), reverse=True) and degrees[-1] == 0
        poly = _sympy_rows(sympy, sf)
        expected = sympy.sympify(poly.resultant(poly.diff(poly.gens[0])))
        res = _sympy_u_expr(sympy, chain[-1][0])
        assert all(type(x) is int for x in chain[-1][0])
        assert sympy.expand(res - expected) == 0 or sympy.expand(res + expected) == 0


@settings(max_examples=20, deadline=None)
@given(a=_FACTOR_TERMS, b=_FACTOR_TERMS, c=_U_TERMS)
def test_squarefree_part_in_t_matches_sympy(a, b, c):
    sympy = pytest.importorskip("sympy")
    a, b, c = Poly(a), Poly(b), Poly(c)
    assume(not (a.is_zero() or b.is_zero() or c.is_zero()))
    p = c * a * a * b
    sf, content, _ = squarefree_t(p)
    content_expected, prim = _sympy_t_poly(sympy, p).primitive()
    sf_expected = prim.quo(prim.gcd(prim.diff(prim.gens[0])))
    assert _proportional(sympy, _sympy_rows(sympy, sf).as_expr(), sf_expected.as_expr())
    assert _proportional(sympy, _sympy_u_expr(sympy, content), sympy.sympify(content_expected))
    assert _primitive(content)
    # the part has no u-content and coprime integer coefficients
    assert sympy.sympify(_sympy_rows(sympy, sf).primitive()[0]).is_Rational
    assert all(type(c) is int for row in sf for c in row)
    assert math.gcd(*(c for row in sf for c in row)) == 1


def test_a_square_free_detector_of_degree_8_keeps_its_discriminant():
    sympy = pytest.importorskip("sympy")
    t, u = Poly.t(), Poly.u()
    d = (t**8 - u * t**5 + (u * u - Poly.const(Fraction(1, 3))) * t**2 + Poly.const(Fraction(2, 7)) * u * t
         - u + Poly.const(Fraction(5, 11)))
    sf, content, chain = squarefree_t(d)
    assert content == [1]
    assert _proportional(sympy, _sympy_rows(sympy, sf).as_expr(), _sympy_t_poly(sympy, d).as_expr())
    res = _sympy_u_expr(sympy, chain[-1][0])
    poly = _sympy_rows(sympy, sf)
    expected = sympy.sympify(poly.resultant(poly.diff(poly.gens[0])))
    assert sympy.expand(res - expected) == 0 or sympy.expand(res + expected) == 0
    # the scan's discriminant, its square-free part, exactly
    part = sympy.Poly(expected, sympy.symbols("u")).sqf_part().primitive()[1]
    assert squarefree(chain[-1][0]) == [int(x) for x in reversed(part.all_coeffs())]


def _determinant_subresultant(sympy, rows, j):
    """S_j of a and da/dt, a the integer t-row list, as the determinant polynomial of Sylvester matrix rows.

    Its rows are those of t^i a for i < n - j and of t^i da/dt for i < m - j
    (m and n the two degrees), and the coefficient of t^i is the minor of
    their first m + n - 2j - 1 columns and the column of t^i.
    """
    from sympy.polys.subresultants_qq_zz import sylvester

    t = sympy.symbols("t")
    a = _sympy_rows(sympy, rows).as_expr()
    b = sympy.diff(a, t)
    m, n = sympy.degree(a, t), sympy.degree(b, t)
    matrix = sylvester(a, b, t)  # n rows of a, then m of b; columns t^(m+n-1) .. t^0
    sub = matrix.extract(list(range(j, n)) + list(range(n + j, n + m)), list(range(j, m + n)))
    k = m + n - 2 * j - 1
    return sum((sub.extract(list(range(sub.rows)), list(range(k)) + [k + j - i]).det() * t**i
                for i in range(j + 1)), sympy.Integer(0))


@pytest.mark.parametrize("rows, degrees", [
    ([[5, 0, 1], [-3, 2], [0, 0, 1], [1, -1], [2]], [3, 2, 1, 0]),
    ([[1], [0, 1], [], [], [1]], [3, 1, 0]),  # t^4 + u t + 1: a defective step from 3 to 1
])
def test_every_element_of_the_chain_is_the_determinant_subresultant(rows, degrees):
    sympy = pytest.importorskip("sympy")
    chain = subresultants(rows)
    assert [len(s) - 1 for s in chain] == degrees
    for s in chain:
        mine, expected = _sympy_rows(sympy, s).as_expr(), _determinant_subresultant(sympy, rows, len(s) - 1)
        assert sympy.expand(mine - expected) == 0 or sympy.expand(mine + expected) == 0


def test_a_defective_step_rescales_the_prs_element_to_its_subresultant():
    # t^4 + u t + 1: after b = 4t^3 + u the PRS element is F = 12 u t + 16, and S_1 = 3u F
    assert subresultants([[1], [0, 1], [], [], [1]])[1] == [[0, 48], [0, 0, 36]]


def _check_line_gcd_split(sympy, p, e):
    """Check line_gcd_split on p's t-rows and e at every root of e, exactly, over Q(root)."""
    t, u = sympy.symbols("t u")
    split = [(sympy.Poly(_sympy_u_expr(sympy, e_i), u), line_i, gcd_i)
             for e_i, line_i, gcd_i in line_gcd_split(p.rows, integer_coeffs(e), subresultants(p.rows))]
    assert all(ratpoly._primitive(gcd_i)[1] == [1] for _, _, gcd_i in split)
    expr = _sympy_t_poly(sympy, p).as_expr()
    for factor, _ in sympy.Poly(_sympy_u_expr(sympy, e), u).factor_list()[1]:
        owners = [(line_i, gcd_i) for e_i, line_i, gcd_i in split if e_i.rem(factor).is_zero]
        for r in sympy.roots(factor):
            line = sympy.Poly(expr.subs(u, r), t, extension=True)
            if line.degree() <= 0:
                assert owners == []
                continue
            assert len(owners) == 1
            (line_i, gcd_i), = owners
            mine = [sympy.Poly(_sympy_rows(sympy, q).as_expr().subs(u, r), t, extension=True)
                    for q in (line_i, gcd_i)]
            # both keep their degree at the root, and agree with sympy there
            assert [q.degree() for q in mine] == [len(line_i) - 1, len(gcd_i) - 1]
            assert (mine[0].monic() - line.monic()).is_zero
            assert (mine[1].monic() - line.gcd(line.diff(t)).monic()).is_zero


@settings(max_examples=15, deadline=None)
@given(a=_U_TERMS, b=_FACTOR_TERMS, c=_FACTOR_TERMS, u0=_RATIONAL,
       k=st.sampled_from([Fraction(2), Fraction(1, 50), Fraction(3, 7)]))
def test_line_gcd_split_gives_the_gcd_of_every_line_on_e(a, b, c, u0, k):
    # a double root at t = a(u) planted on the roots u0 and +-sqrt(k) of e
    sympy = pytest.importorskip("sympy")
    t, u = Poly.t(), Poly.u()
    e = (u - Poly.const(u0)) * (u * u - Poly.const(k))
    p = (t - Poly(a)) ** 2 * Poly(b) + e * Poly(c)
    assume(len(p.rows) > 1)
    _check_line_gcd_split(sympy, p, [Fraction(c, e.den) for c in e.rows[0]])


def test_line_gcd_split_builds_no_chain_for_top_rows_that_vanish_on_e(monkeypatch):
    # on e = u the rows of t^6, t^5 and t^4 vanish, and the line is (t - 1)^2 (t + 2):
    # one chain, on the rows of t-degree 3, splits it
    sympy = pytest.importorskip("sympy")
    t, u = Poly.t(), Poly.u()
    p = u * (t**6 + t**5 + t**4) + (t - Poly.const(1)) ** 2 * (t + Poly.const(2))
    chain, calls = subresultants(p.rows), []

    def counted(rows):
        calls.append(len(rows) - 1)
        return subresultants(rows)

    monkeypatch.setattr(ratpoly, "subresultants", counted)
    split = line_gcd_split(p.rows, [0, 1], chain)
    assert calls == [3]
    assert [(e_i, len(line_i) - 1, len(gcd_i) - 1) for e_i, line_i, gcd_i in split] == [([0, 1], 3, 1)]
    _check_line_gcd_split(sympy, p, [0, 1])


def test_squarefree_part_of_a_power_and_of_a_u_only_polynomial():
    t, u = Poly.t(), Poly.u()
    cube = (Poly.const(3) * t * t - u) ** 3 * (u - Poly.const(Fraction(1, 2)))
    sf, content, chain = squarefree_t(cube)
    assert chain == subresultants(sf)
    assert sf in ([[0, -1], [], [3]], [[0, 1], [], [-3]])
    assert content == [-1, 2]
    sf, content, chain = squarefree_t(u * u - Poly.const(4))
    assert sf == [[1]] and content == [-4, 0, 1] and chain == []
    with pytest.raises(ZeroDivisionError):
        squarefree_t(Poly())


def test_real_roots_beyond_the_float_range_are_scaled_exactly():
    big = Fraction(10**400)
    half = Fraction(1, 2)
    assert isolate_real_roots(integer_coeffs([-big / 4, Fraction(0), big]), -1.0, 1.0) == [
        ([1, 2], -half, -half), ([-1, 2], half, half)]
    # a monic line whose constant term overflows has no root in the window
    assert isolate_real_roots(integer_coeffs([-big, Fraction(0), Fraction(1)]), -1.0, 1.0) == []


@pytest.mark.parametrize("ints", [[0], [5], [1, -2, 3], [0, 0, 7, -1], [2**80, -3, 0, 1]])
def test_a_shift_by_zero_is_a_new_copy(ints):
    out = taylor_shift(ints, 0)
    assert out == ints and out is not ints
    n = len(ints) - 1
    assert taylor_shift(ints, 0, 3) == [c * 3 ** (n - i) for i, c in enumerate(ints)]


@pytest.mark.parametrize("shift", [0, Fraction(1, 2)])
def test_a_window_wider_than_2_to_the_99_returns_the_bisection_records(shift):
    # boxes are sized by their roots, not by the window: -5, 3, 4, 2^101 - 7
    # and x are dyadic points of their records' spacing, so they come back
    # exact, and +-sqrt 2 have the boxes they have on [-2, 2]
    x = Fraction(2**62 + 9, 2)
    p = [1]
    for r in (-5, 3, 4, 2**101 - 7):
        p = _u_mul(p, [-r, 1])
    p = _u_mul(_u_mul(p, [-x.numerator, x.denominator]), [-2, 0, 1])  # and +-sqrt 2
    window = (shift - 2**102, shift + 2**102)
    records = isolate_real_roots(p, *window)
    assert records == _bisection_records(p, *window)
    assert [a for _, a, b in records if a == b] == [-5, 3, 4, x, 2**101 - 7]
    assert [(a, b) for _, a, b in records if a < b] == [(a, b) for _, a, b in isolate_real_roots(p, -2, 2)]
    assert [float(midpoint(r)) for r in records if r[1] < r[2]] == [-math.sqrt(2), math.sqrt(2)]


def test_a_small_root_keeps_its_bits_beside_a_huge_one():
    # (x^2 - 2)(x - 2^200): with boxes at most 2^-100 of their window, the
    # root near sqrt 2 read 1.27e30 on [-1, 2^201], in a box 2.5e30 wide
    p = _u_mul([-2, 0, 1], [-(2**200), 1])
    for hi in (4, 2**201, 10**300):
        assert [float(midpoint(r)) for r in isolate_real_roots(p, -1, hi)][0] == 1.4142135623730951
    assert isolate_real_roots(p, -1, 2**201)[1] == ([-(2**200), 1], 2**200, 2**200)


def test_a_root_far_below_a_cluster_at_0_is_reached_by_galloping(monkeypatch):
    # roots -3 2^-2000 and the cube roots of -2^-1500: from a box that ends at
    # 0, Newton's steps creep toward the cluster there, one bisection at a
    # time (875 Horner sums); proposing the box at 0 gallops (125)
    calls = []
    monkeypatch.setattr(ratpoly, "_horner", lambda *args: calls.append(args) or _horner(*args))
    p = _u_mul([1, 0, 0, 2**1500], [3, 2**2000])
    records = isolate_real_roots(p, -1, 1)
    assert len(calls) <= 200
    (_, a, b), root = records
    assert float((a + b) / 2) == -(2.0**-500) and b - a <= -b / 2**100 and has_root_in(p, a, b)
    assert root == ([3, 2**2000], Fraction(-3, 2**2000), Fraction(-3, 2**2000))  # a dyadic point, hit exactly


def test_real_roots_are_isolated_exactly_also_when_they_nearly_coincide():
    # two rational roots 1e-12 apart beside a complex pair: the companion
    # matrix can see the close pair as complex, Descartes' rule separates it
    sympy = pytest.importorskip("sympy")
    third, eps = Fraction(1, 3), Fraction(1, 10**12)
    line = Poly.t() - Poly.const(third)
    p = line * (line - Poly.const(eps)) * (Poly.t() ** 2 + Poly.const(1)) * (Poly.t() ** 2 - Poly.const(2))
    ints = integer_coeffs(p.t_coeffs())
    roots = isolate_real_roots(ints, -1, 1)
    expected = [r for r in sympy.Poly(ints[::-1], sympy.symbols("x")).real_roots() if -1 <= r <= 1]
    assert len(roots) == len(expected) == 2
    for (_, x, _), r in zip(roots, expected):
        assert abs(sympy.Rational(x.numerator, x.denominator) - r) < sympy.Rational(1, 2**99)
    # both are simple enough rationals to come back exact
    assert roots == [([-1, 3], third, third), ([-(third + eps).numerator, (third + eps).denominator],
                                                third + eps, third + eps)]
    # roots on the window ends and on a bisection point come back exact
    assert isolate_real_roots([0, -1, 0, 1], -1, 1) == [([1, 1], -1, -1), ([0, 1], 0, 0), ([-1, 1], 1, 1)]
    # a reversed window and the zero list hold no root; a one-point window
    # holds its point when that is a root
    assert isolate_real_roots([0, -1, 0, 1], 1, -1) == isolate_real_roots([0, 0], -1, 1) == []
    assert isolate_real_roots([0, -1, 0, 1], 1, 1) == [([-1, 1], 1, 1)]
    assert isolate_real_roots([0, -1, 0, 1], Fraction(1, 2), Fraction(1, 2)) == []


# (r, s, n): the quadratic (x - r)^2 - s^2 n with the irrational roots r -+ s sqrt(n)
_QUADRATIC = st.tuples(_RATIONAL, st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6),
                       st.sampled_from([2, 3, 5, 6, 7]))


@settings(max_examples=60, deadline=None)
@given(planted=st.lists(_RATIONAL, unique=True, max_size=4), quadratics=st.lists(_QUADRATIC, max_size=2),
       window=st.lists(_RATIONAL, min_size=2, max_size=2, unique=True).map(sorted),
       cut=st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64), max_denominator=64))
def test_root_records_isolate_every_root_and_decide_one_sided_sign_tests(planted, quadratics, window, cut):
    # records against sympy's exact root counts (a test-only oracle); the
    # rational roots come back exact and the irrational ones as open boxes
    sympy = pytest.importorskip("sympy")
    p = Poly.const(1)
    for r in planted:
        p = p * (Poly.t() - Poly.const(r))
    for r, s, n in quadratics:
        p = p * ((Poly.t() - Poly.const(r)) ** 2 - Poly.const(s * s * n))
    ints = integer_coeffs(trim(p.t_coeffs()))
    assume(len(ints) > 1 and len(squarefree(ints)) == len(ints))
    lo, hi = window
    records = isolate_real_roots(ints, lo, hi)
    big = sympy.Poly(ints[::-1], sympy.symbols("x"))

    def q(x):
        return sympy.Rational(x.numerator, x.denominator)

    def open_count(a, b):
        return big.count_roots(q(a), q(b)) - (big.eval(q(a)) == 0) - (big.eval(q(b)) == 0)

    assert len(records) == big.count_roots(q(lo), q(hi))
    assert [a for _, a, b in records if a == b] == [
        r for r in big.real_roots() if r.is_Rational and q(lo) <= r <= q(hi)]
    for (_, a0, b0), (_, a1, b1) in zip(records, records[1:]):
        assert b0 <= a1 and (a0, b0) != (a1, b1)
        # between two records, with a root or a box end at either end
        if a0 < a1:
            assert has_root_in(ints, a0, a1) == (a0 < b0) == (open_count(a0, a1) == 1)
        if b0 < b1:
            assert has_root_in(ints, b0, b1) == (a1 < b1) == (open_count(b0, b1) == 1)
    for m, a, b in records:
        if a == b:
            assert m == [-a.numerator, a.denominator] and vanishes_at(ints, a) and lo <= a <= hi
            continue
        # one root in the box, and it lies in the window, though the box may not
        assert m == ints and open_count(a, b) == 1 and big.count_roots(q(max(a, lo)), q(min(b, hi))) == 1
        assert b - a <= min(abs(a), abs(b)) / 2**100 and float(a) == float(b)
        x = a + (b - a) * cut
        assert has_root_in(ints, x, b) == (open_count(x, b) == 1)
        assert has_root_in(ints, a, x) == (open_count(a, x) == 1) != has_root_in(ints, x, b)


def _root_in(ints, a, b, lo, hi):
    """Whether the one root of ints in the open box (a, b) lies in [lo, hi], by splitting at the window's ends."""
    for x in (lo, hi):
        if a < x < b:
            if vanishes_at(ints, x):
                return True
            a, b = (x, b) if has_root_in(ints, x, b) else (a, x)
    return lo <= a and b <= hi


def _bisection_records(ints, lo, hi):
    """``isolate_real_roots`` by one-bit bisection from Cauchy's bound, filtered to [lo, hi] (the reference).

    Descartes' rule isolates every real root on the dyadic boxes of
    [-2^r, 2^r], 2^r above Cauchy's bound 1 + max |a_i / a_n|, and each box
    is bisected one bit at a time until it is at most 2^-100 of its points
    and both ends round to the same double.  The records of the roots in
    [lo, hi] are kept.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    top = trim(ints)
    if lo > hi or not top:
        return []
    r = (max(map(abs, top[:-1]), default=0) // abs(top[-1]) + 1).bit_length()
    # the boxes [-2^r, 0] and [0, 2^r]: f(2^r y) shifted by -1 and 0
    scaled = [c << (r * i) for i, c in enumerate(top)]
    exact, boxes, stack = [], [], [(taylor_shift(scaled, m), Fraction(m * 2**r), Fraction(2**r)) for m in (0, -1)]
    while stack:
        p, a, w = stack.pop()
        if p[0] == 0:
            exact.append(a)
            p = p[1:]
        count = _descartes_count(p)
        if count == 1:
            boxes.append((a, a + w))
        elif count > 1:
            n = len(p) - 1
            left = [c << (n - i) for i, c in enumerate(p)]
            stack.append((taylor_shift(left, 1), a + w / 2, w / 2))
            stack.append((left, a, w / 2))
    out = [([-x.numerator, x.denominator], x, x) for x in exact if lo <= x <= hi]
    for a, b in boxes:
        if not _root_in(top, a, b, lo, hi):
            continue
        s_a, x = _sign_beside(top, a.numerator, a.denominator), None
        while not (b - a <= min(abs(a), abs(b)) / 2**100 and float(a) == float(b)):
            x = (a + b) / 2
            s = _sign(_horner(top, x.numerator, x.denominator))
            if not s:
                break
            a, b, x = (x, b, None) if s == s_a else (a, x, None)
        if x is None:
            x = ((a + b) / 2).limit_denominator(math.isqrt(int(1 / (2 * (b - a)))) or 1)
            if not (a < x < b and vanishes_at(top, x)):
                out.append((ints, a, b))
                continue
        out.append(([-x.numerator, x.denominator], x, x))
    return sorted(out, key=lambda root: root[1:])


# a window end: an integer, a rational of small denominator, or one over 3^25
_END = st.one_of(st.integers(-6, 6).map(Fraction),
                 st.fractions(min_value=-6, max_value=6, max_denominator=12),
                 st.builds(Fraction, st.integers(-6 * 3**25, 6 * 3**25), st.just(3**25)))
# a root at x in [0, 1] of the window's scale: an odd k / 2^e hits a
# midpoint of the bisection (the exact-hit path), any other x is narrowed
_SPOT = st.one_of(st.integers(1, 20).flatmap(lambda e: st.integers(0, 2 ** (e - 1) - 1).map(
                      lambda k: Fraction(2 * k + 1, 2**e))),
                  st.fractions(min_value=0, max_value=1, max_denominator=10**6))


# 200 examples take about 3 s on a 2-core x86 VM (Python 3.11)
@settings(max_examples=200, deadline=None)
@given(window=st.lists(_END, min_size=2, max_size=2, unique=True).map(sorted),
       spots=st.lists(_SPOT, max_size=4), quadratics=st.lists(_QUADRATIC, max_size=2), lead=st.integers(1, 5))
def test_newton_narrowing_returns_the_bisection_records(window, spots, quadratics, lead):
    lo, hi = window
    p = Poly.const(lead)
    for x in spots:
        p = p * (Poly.t() - Poly.const(lo + (hi - lo) * x))
    for r, s, n in quadratics:
        p = p * ((Poly.t() - Poly.const(r)) ** 2 - Poly.const(s * s * n))
    ints = integer_coeffs(trim(p.t_coeffs()))
    assume(len(ints) > 1 and len(squarefree(ints)) == len(ints))
    assert isolate_real_roots(ints, lo, hi) == _bisection_records(ints, lo, hi)


# a root at an odd k / 2^e of the window's scale, e up to 110: a hit where
# its record's spacing reaches it, finer than the float start's 50-bit box
_DYADIC = st.integers(1, 110).flatmap(lambda e: st.integers(0, 2 ** (e - 1) - 1).map(
    lambda k: Fraction(2 * k + 1, 2**e)))
# (x, e, n): roots x and x + 2^-e of the window's scale, or x -+ 2^-e sqrt(n) for n > 0
_PAIR = st.tuples(st.fractions(min_value=0, max_value=1, max_denominator=10**6), st.integers(20, 120),
                  st.sampled_from([0, 2, 3, 5]))
# a factor with a root at 10^-320 or 10^320: the list's coefficients pass the float range
_HUGE = st.sampled_from([None, [-1, 10**320], [-10**320, 1]])


# 100 examples take about 4 s on a 2-core x86 VM (Python 3.11): the reference bisects from Cauchy's bound,
# 2^1064 with the huge factor, one Descartes level at a time
@settings(max_examples=100, deadline=None)
@given(window=st.lists(_END, min_size=2, max_size=2, unique=True).map(sorted),
       dyadic=st.lists(_DYADIC, max_size=3), pairs=st.lists(_PAIR, max_size=2), huge=_HUGE,
       lead=st.integers(1, 5))
def test_float_started_narrowing_returns_the_bisection_records(window, dyadic, pairs, huge, lead):
    lo, hi = window
    t, p = Poly.t(), Poly.const(lead)
    for x in dyadic:
        p = p * (t - Poly.const(lo + (hi - lo) * x))
    for x, e, n in pairs:
        x, s = Poly.const(lo + (hi - lo) * x), Poly.const((hi - lo) / 2**e)
        p = p * ((t - x) ** 2 - s * s * Poly.const(n) if n else (t - x) * (t - x - s))
    ints = integer_coeffs(trim(p.t_coeffs()))
    if huge:
        ints = _u_mul(ints, huge)
    assume(len(ints) > 1 and len(squarefree(ints)) == len(ints))
    assert isolate_real_roots(ints, lo, hi) == _bisection_records(ints, lo, hi)


# 40 examples take about 0.5 s on a 2-core x86 VM (Python 3.11)
@settings(max_examples=40, deadline=None)
@given(planted=st.lists(_RATIONAL, unique=True, max_size=3), quadratics=st.lists(_QUADRATIC, max_size=2),
       window=st.tuples(_RATIONAL, st.integers(0, 300), st.sampled_from([0, Fraction(1, 2), 1])))
def test_root_boxes_keep_their_bits_on_windows_up_to_1e300_wide(planted, quadratics, window):
    # every box holds one root (sympy's count, a test-only oracle), is at
    # most 2^-100 of its points and has ends that round to one double,
    # however wide the window around the roots
    sympy = pytest.importorskip("sympy")
    p = Poly.const(1)
    for r in planted:
        p = p * (Poly.t() - Poly.const(r))
    for r, s, n in quadratics:
        p = p * ((Poly.t() - Poly.const(r)) ** 2 - Poly.const(s * s * n))
    ints = integer_coeffs(trim(p.t_coeffs()))
    assume(len(ints) > 1 and len(squarefree(ints)) == len(ints))
    r, e, x = window
    lo = r - x * 10**e
    hi = lo + 10**e
    records = isolate_real_roots(ints, lo, hi)
    big = sympy.Poly(ints[::-1], sympy.symbols("x"))

    def q(y):
        return sympy.Rational(y.numerator, y.denominator)

    assert len(records) == big.count_roots(q(lo), q(hi))
    for m, a, b in records:
        if a == b:
            assert vanishes_at(ints, a)
            continue
        assert b - a <= min(abs(a), abs(b)) / 2**100 and float(a) == float(b)
        assert big.count_roots(q(a), q(b)) == 1 and not vanishes_at(ints, a) and not vanishes_at(ints, b)


# windows up to 1e60 wide around planted roots: the bisection starts at the
# boxes that cover the window cut to Fujiwara's bound, and the records are
# those of one-bit bisection from Cauchy's; 40 examples take about 0.5 s on a
# 2-core x86 VM (Python 3.11)
@settings(max_examples=40, deadline=None)
@given(planted=st.lists(_RATIONAL, unique=True, max_size=3), quadratics=st.lists(_QUADRATIC, max_size=2),
       window=st.tuples(_RATIONAL, st.integers(0, 60), st.sampled_from([0, Fraction(1, 2), 1])))
def test_wide_windows_return_the_bisection_records(planted, quadratics, window):
    p = Poly.const(1)
    for r in planted:
        p = p * (Poly.t() - Poly.const(r))
    for r, s, n in quadratics:
        p = p * ((Poly.t() - Poly.const(r)) ** 2 - Poly.const(s * s * n))
    ints = integer_coeffs(trim(p.t_coeffs()))
    assume(len(ints) > 1 and len(squarefree(ints)) == len(ints))
    r, e, x = window
    lo = r - x * 10**e
    assert isolate_real_roots(ints, lo, lo + 10**e) == _bisection_records(ints, lo, lo + 10**e)


@pytest.mark.parametrize("ints", [[-2, 0, 1], [2, -6, -1, 3], [-6, 5, 5, -5, 1]])
def test_a_window_1e300_wide_costs_a_bounded_number_of_descartes_counts(monkeypatch, ints):
    # a lattice on the whole window took about 2,000 counts on [-1, 1e300]
    # for the cubic and the quartic; on the boxes that cover the window cut
    # to Fujiwara's bound it takes at most 12 more than on [-1, 2]
    calls = []

    def counted(a):
        calls.append(a)
        return _descartes_count(a)

    monkeypatch.setattr(ratpoly, "_descartes_count", counted)
    isolate_real_roots(ints, -1, 2)
    narrow = len(calls)
    for lo, hi in ((-1, 10**300), (-(10**300), 10**300)):
        calls.clear()
        isolate_real_roots(ints, lo, hi)
        assert len(calls) <= narrow + 12, (lo, hi, len(calls), narrow)


# 100 examples take about 1.5 s on a 2-core x86 VM (Python 3.11)
@settings(max_examples=100, deadline=None)
@given(planted=st.lists(_RATIONAL, unique=True, max_size=3), quadratics=st.lists(_QUADRATIC, max_size=2),
       window=st.lists(_END, min_size=2, max_size=2, unique=True).map(sorted),
       at_end=st.sampled_from([None, 0, 1]), wider=st.tuples(st.integers(0, 300), st.integers(0, 300)))
def test_records_do_not_depend_on_the_window(planted, quadratics, window, at_end, wider):
    # the records on [lo, hi] are those on any wider window whose roots lie
    # in [lo, hi]; a root may sit on an end, where the narrow window cuts a box
    lo, hi = window
    t, p = Poly.t(), Poly.const(1)
    for r in planted + ([window[at_end]] if at_end is not None else []):
        p = p * (t - Poly.const(r))
    for r, s, n in quadratics:
        p = p * ((t - Poly.const(r)) ** 2 - Poly.const(s * s * n))
    ints = integer_coeffs(trim(p.t_coeffs()))
    assume(len(ints) > 1 and len(squarefree(ints)) == len(ints))
    wide = isolate_real_roots(ints, lo - 10 ** wider[0] + 1, hi + 10 ** wider[1] - 1)
    assert isolate_real_roots(ints, lo, hi) == [r for r in wide if _root_in(ints, r[1], r[2], lo, hi)]


# (r, s, n, e): the quadratic with the roots (r -+ s sqrt n) 2^e, scales 2^e up to 2^+-300
_SCALED = st.tuples(_RATIONAL, st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6),
                    st.sampled_from([2, 3, 5, 6, 7]), st.integers(-300, 300))


# 40 examples take about 1.5 s on a 2-core x86 VM (Python 3.11)
@settings(max_examples=40, deadline=None)
@given(planted=st.lists(st.tuples(_RATIONAL, st.integers(-300, 300)), max_size=2),
       quadratics=st.lists(_SCALED, min_size=1, max_size=3),
       window=st.tuples(st.integers(-300, 300), st.integers(-300, 300), st.booleans()))
def test_irrational_midpoints_are_the_roots_correctly_rounded(planted, quadratics, window):
    # roots at scales up to 2^300 on windows up to 1e300 wide: the float of a
    # narrowed record's midpoint is sympy's root, taken to 60 digits and
    # rounded; a planted rational too fine for the rational test is narrowed
    sympy = pytest.importorskip("sympy")
    t, p, roots = Poly.t(), Poly.const(1), []
    for r, e in planted:
        p = p * (t - Poly.const(r * Fraction(2) ** e))
        roots.append(sympy.Rational(r) * sympy.Integer(2) ** e)
    for r, s, n, e in quadratics:
        p = p * ((t - Poly.const(r * Fraction(2) ** e)) ** 2 - Poly.const(s * s * n * Fraction(4) ** e))
        roots += [(sympy.Rational(r) + sign * sympy.Rational(s) * sympy.sqrt(n)) * sympy.Integer(2) ** e
                  for sign in (-1, 1)]
    ints = integer_coeffs(trim(p.t_coeffs()))
    assume(len(squarefree(ints)) == len(ints))
    e_lo, e_hi, span = window
    lo, hi = (-Fraction(10) ** e_lo, Fraction(10) ** e_hi) if span else sorted((Fraction(2) ** e_lo, Fraction(2) ** e_hi))
    records = isolate_real_roots(ints, lo, hi)

    def q(x):
        return sympy.Rational(x.numerator, x.denominator)

    assert len(records) == sum(bool(q(lo) <= r <= q(hi)) for r in roots)
    for _, a, b in records:
        inside = [r for r in roots if q(a) <= r <= q(b)]
        assert len(inside) == 1
        if a < b:
            assert float((a + b) / 2) == float(inside[0].evalf(60))


def test_a_root_just_past_a_rounding_tie_narrows_until_its_ends_round_alike():
    # m is the tie between two doubles, which rounds to the lower, even one;
    # the root of x^2 - (m^2 + 2^-125) lies about 2^-126 above it, so a box
    # whose points reach 2^-100 of the root still has ends that round apart,
    # and narrowing goes on past 2^-125 until both round to the upper double
    below, above = float.fromhex("0x1.6a09e667f3bcep+0"), float.fromhex("0x1.6a09e667f3bcfp+0")
    m = (Fraction(below) + Fraction(above)) / 2
    c = m * m + Fraction(1, 2**125)
    (_, a, b), = isolate_real_roots([-c.numerator, 0, c.denominator], 1, 2)
    assert a < b and b - a < Fraction(1, 2**125)
    assert float((a + b) / 2) == above


# -- the integer list toolkit against sympy ---------------------------------------

_INTS = st.lists(st.integers(-30, 30), min_size=1, max_size=4)


# 60 examples take about 1 s on a 2-core x86 VM (Python 3.11)
@settings(max_examples=60, deadline=None)
@given(a=_INTS, b=_INTS, c=_INTS, k=st.integers(1, 2), extra=st.integers(1, 3))
def test_integer_gcd_square_free_part_and_pseudo_division_match_sympy(a, b, c, k, extra):
    # a common factor c, and a factor a repeated k + 1 times
    sympy = pytest.importorskip("sympy")

    def big(ints):
        return _zz(sympy, ints)

    p, q = _planted_pair(sympy, a, b, c, k)
    p_ints, q_ints = _ints(p), _ints(q)
    g = poly_gcd(p_ints, q_ints)
    assert _primitive(g) and _proportional(sympy, big(g).as_expr(), p.gcd(q).as_expr())
    sf = squarefree(p_ints)
    assert _primitive(sf) and _proportional(sympy, big(sf).as_expr(), p.sqf_part().as_expr())
    # lc(b)^(deg a - deg b + 1) times the quotient and the remainder over Q
    quotient, rest = pseudo_divmod(p_ints, q_ints)
    assert all(type(v) is int for v in quotient + rest)
    assert big(quotient or [0]) == p.pdiv(q)[0]
    assert big(rest or [0]) == p.prem(q) and len(rest) < len(q_ints)
    # with more steps, lc(b)^steps a = q b + r still holds
    steps = max(len(p_ints) - len(q_ints) + 1, 0) + extra
    quotient, rest = pseudo_divmod(p_ints, q_ints, steps)
    assert all(type(v) is int for v in quotient + rest) and len(rest) < len(q_ints)
    assert q_ints[-1] ** steps * p == big(quotient or [0]) * q + big(rest or [0])


@pytest.mark.parametrize("b, gcd", [([-3, 1], [1]), (_u_mul([1, 2**61 - 1], [-3, 1]), [1, 2**61 - 1])])
def test_gcd_with_a_leading_coefficient_that_vanishes_mod_the_prime(b, gcd):
    # a = (p t + 1)(t + 2), p = 2^61 - 1.  Mod p the common factor p t + 1 of
    # a and (p t + 1)(t - 3) is a unit, so their images are coprime
    a = _u_mul([1, 2**61 - 1], [2, 1])
    assert poly_gcd(a, b) == poly_gcd(b, a) == gcd


_BIG_INTS = st.lists(st.integers(-2**200, 2**200), min_size=1, max_size=16)


# 100 examples take about 1 s on a 2-core x86 VM (Python 3.11)
@settings(max_examples=100, deadline=None)
@given(a=_BIG_INTS, b=_BIG_INTS, c=_BIG_INTS)
def test_the_gcd_of_a_planted_common_factor_is_sympys(a, b, c):
    # a c and b c, each of degree <= 30 with factors' coefficients up to 2^200
    sympy = pytest.importorskip("sympy")
    p, q = _planted_pair(sympy, a, b, c)
    want = p.gcd(q).primitive()[1]
    want = -want if want.LC() < 0 else want
    assert poly_gcd(_ints(p), _ints(q)) == _ints(want)


def test_the_gcd_grows_xi_past_a_divisor_of_every_value(monkeypatch):
    # a = x (x + 1) ... (x + 11) and b = a + 12!: 12! divides every value of
    # both, and 12! > xi/2 at the first xi, so its digits are no candidate
    a = [1]
    for k in range(12):
        a = _u_mul(a, [k, 1])
    b = [a[0] + math.factorial(12)] + a[1:]
    points, horner = set(), ratpoly._horner

    def counted(ints, p, q):
        points.add(p)
        return horner(ints, p, q)

    monkeypatch.setattr(ratpoly, "_horner", counted)
    assert poly_gcd(a, b) == [1] and len(points) > 1


def test_the_gcd_where_one_list_vanishes_at_the_first_xi():
    # a = (x - 4)(x + 2) and b = x + 1: xi = 2 |b| + 2 = 4 is a root of a
    a, b = _u_mul([-4, 1], [2, 1]), [1, 1]
    assert _horner(a, 4, 1) == 0
    assert poly_gcd(a, b) == poly_gcd(b, a) == [1]
    # (x - 6)(x + 1) vanishes at xi = 6 of (x + 1)^2, whose digits then read
    # back (x + 1)^2 itself: it does not divide, and xi = 36 gives x + 1
    assert poly_gcd(_u_mul([-6, 1], [1, 1]), [1, 2, 1]) == [1, 1]


@pytest.mark.parametrize("name", sorted(POLYS))
def test_rows_are_evaluated_exactly(name):
    p = POLYS[name]
    rows = p.rows
    scale = p.den
    for x in (Fraction(0), Fraction(-3, 7), Fraction(5, 2)):
        # q^deg_u times scale times p(., x), an integer list in t
        line = rows_at(rows, x)
        assert all(type(c) is int for c in line)
        assert line == [c * scale * x.denominator ** p.deg_u() for c in trim(p.subs_u(x).t_coeffs())]


# -- the Poly format against a Fraction-dict reference (test-only) -----------------

_COEFF = st.one_of(st.just(Fraction(0)), st.integers(-10**6, 10**6).map(Fraction),
                   st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6))
_SPARSE = st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), _COEFF, max_size=6)
_POINT = st.fractions(min_value=-3, max_value=3, max_denominator=50)


def _ref(terms):
    """A {(i, j): Fraction} dict without its zero terms."""
    return {k: Fraction(v) for k, v in terms.items() if v}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return _ref(out)


def _ref_mul(a, b):
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            out[(i1 + i2, j1 + j2)] = out.get((i1 + i2, j1 + j2), 0) + v1 * v2
    return _ref(out)


def _ref_terms(p):
    """A Poly's terms read off its rows and den, after checking that they are its one form."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for row in p.rows for c in row)
    assert all(row[-1] for row in p.rows if row) and (not p.rows or p.rows[-1])
    assert math.gcd(p.den, *(c for row in p.rows for c in row)) == 1
    return {(i, j): Fraction(c, p.den) for i, row in enumerate(p.rows) for j, c in enumerate(row) if c}


def _ref_evalf(terms, t, u):
    """Horner over the dense float(Fraction) table, highest degrees first."""
    n, m = max((i for i, _ in terms), default=0), max((j for _, j in terms), default=0)
    table = [[0.0] * (m + 1) for _ in range(n + 1)]
    for (i, j), v in terms.items():
        table[n - i][m - j] = float(v)
    total = 0.0
    for row in table:
        value = 0.0
        for a in row:
            value = value * u + a
        total = total * t + value
    return total


def _built_by_ring_ops(terms):
    """The same polynomial as Poly(terms), summed from constants times powers of t and u."""
    out = Poly()
    for (i, j), v in terms.items():
        out = out + Poly.const(v) * Poly.t() ** i * Poly.u() ** j
    return out


@settings(max_examples=120, deadline=None)
@given(a=_SPARSE, b=_SPARSE, k=st.integers(0, 3), t=_POINT, u=_POINT,
       x=st.floats(-3, 3), y=st.floats(-3, 3))
# a den past 2^53, where rounding c and den to floats apart would round twice
@example(a={(0, 0): Fraction(2992, 999983), (1, 0): Fraction(1, 999979), (2, 0): Fraction(1, 999961)},
         b={}, k=0, t=Fraction(0), u=Fraction(0), x=0.0, y=0.0)
def test_integer_rows_over_one_den_match_a_fraction_dict_reference(a, b, k, t, u, x, y):
    p, q = Poly(a), Poly(b)
    ra, rb = _ref(a), _ref(b)
    assert _ref_terms(p) == ra and _ref_terms(q) == rb
    # equal values have equal rows, den and hash, however they were built
    for built, ref in ((_built_by_ring_ops(a), p), (Poly(dict(reversed(list(a.items())))), p)):
        assert (built.rows, built.den, hash(built)) == (ref.rows, ref.den, hash(ref)) and built == ref
    assert _ref_terms(p + q) == _ref_add(ra, rb)
    assert _ref_terms(p - q) == _ref_add(ra, rb, -1)
    assert _ref_terms(-p) == _ref_add({}, ra, -1)
    assert _ref_terms(p * q) == _ref_mul(ra, rb)
    power = {(0, 0): Fraction(1)}
    for _ in range(k):
        power = _ref_mul(power, ra)
    assert _ref_terms(p**k) == power
    assert _ref_terms(p.diff_t()) == _ref({(i - 1, j): i * v for (i, j), v in ra.items() if i})
    assert _ref_terms(p.diff_u()) == _ref({(i, j - 1): j * v for (i, j), v in ra.items() if j})
    line = {}
    for (i, j), v in ra.items():
        line[(i, 0)] = line.get((i, 0), 0) + v * u**j
    line = _ref(line)
    assert _ref_terms(p.subs_u(u)) == line
    assert p.eval(t, u) == sum((v * t**i * u**j for (i, j), v in ra.items()), Fraction(0))
    g = q.subs_u(t)  # univariate in t
    dense = [line.get((i, 0), Fraction(0)) for i in range(max((i + 1 for i, _ in line), default=1))]
    assert p.subs_u(u).t_coeffs() == dense
    composed, g_power = {}, {(0, 0): Fraction(1)}
    for c in dense:
        composed = _ref_add(composed, _ref_mul({(0, 0): c} if c else {}, g_power))
        g_power = _ref_mul(g_power, _ref_terms(g))
    assert _ref_terms(p.subs_u(u).compose_t(g)) == composed
    # evalf: the table entry c / den is float(Fraction(c, den)), correctly rounded
    assert p.evalf(x, y).hex() == _ref_evalf(ra, x, y).hex()
    grid = p.evalf(np.array([x, y, 0.5])[:, None], np.array([y, -x])[None, :])
    assert [[v.hex() for v in row] for row in grid.tolist()] == [
        [_ref_evalf(ra, s, w).hex() for w in (y, -x)] for s in (x, y, 0.5)]


def test_poly_repr_lists_the_terms_in_row_order():
    assert repr(Poly({(0, 0): 2, (1, 1): -1, (2, 0): Fraction(1, 3)})) == "Poly(2 + -1*t*u + 1/3*t^2)"
    assert repr(Poly()) == "Poly(0)"
    assert repr(Poly.t() * Poly.u() ** 2) == "Poly(1*t*u^2)"


#: 100 examples take about 1 s in tier-1
@settings(max_examples=100, deadline=None)
@given(a=_SPARSE, k=st.integers(0, 3), c=_COEFF.filter(bool))
def test_terms_and_the_exact_division_by_a_monomial_in_t(a, k, c):
    p, m = Poly(a), Poly.monomial_t(k, c)
    assert p.terms() == sorted(_ref(a).items()) and Poly(dict(p.terms())) == p
    quotient = (p * m).div_monomial_t(m)
    assert _ref_terms(quotient) == _ref(a) and quotient == p
    # by c t^(k+1) the quotient is a polynomial exactly when p has no t^0 term
    shifted = Poly.monomial_t(k + 1, c)
    if any(i == 0 for (i, _), _ in p.terms()):
        with pytest.raises(ArithmeticError):
            (p * m).div_monomial_t(shifted)
    else:
        assert (p * m).div_monomial_t(shifted) * shifted == p * m
    for divisor in (Poly(), m * Poly.u(), m + Poly.monomial_t(k + 1, 1)):
        with pytest.raises(ArithmeticError):
            p.div_monomial_t(divisor)
