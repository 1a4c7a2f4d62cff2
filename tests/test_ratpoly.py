"""Float evaluation of exact polynomials on broadcast grids."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from framedcurves import NormalFormFamily, Poly
from framedcurves.ratpoly import integer_coeffs, trim, vanishes_at

POLYS = {
    "x3 of (1,2,5)": NormalFormFamily((1, 2, 5)).x3_poly(),
    "F_tt of (3,4,5)": NormalFormFamily((3, 4, 5)).f_tt_on_discriminant(),
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
