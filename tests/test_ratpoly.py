"""Float evaluation of exact polynomials on broadcast grids."""

import numpy as np
import pytest

from framedcurves import NormalFormFamily, Poly

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
