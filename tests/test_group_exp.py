"""The closed-form group exponential against a 40-digit mpmath oracle.

Every Magnus exponent of the frame integrator lies in so(4), se(3) or
so(3,1); ``group_exp`` must match ``mpmath.expm`` to 1e-14 relative to
max|exp| there and land in the group to 1e-13.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framedcurves.frames import structure_matrix
from framedcurves.spaceform import _CLOSE_ROOTS, _SERIES_RADIUS, _exp_coefficients, group_exp

mpmath = pytest.importorskip("mpmath")

_FORMS = {1: np.eye(4), -1: np.diag([-1.0, 1.0, 1.0, 1.0])}


def _exact_exp(omega):
    """exp(omega) from 40-digit mpmath, rounded to floats."""
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix(omega.tolist()))
        return np.array([[float(e[i, j]) for j in range(4)] for i in range(4)])


def _assert_exact(omega, rtol=1e-14):
    got, want = group_exp(omega), _exact_exp(omega)
    assert float(np.max(np.abs(got - want))) <= rtol * float(np.max(np.abs(want)))
    return got


def _assert_in_group(e, delta, rtol=1e-13):
    size2 = float(np.max(np.abs(e))) ** 2
    if delta == 0:  # [[1, 0], [b, R]] with R orthogonal
        assert float(np.max(np.abs(e[0] - np.eye(4)[0]))) <= rtol
        r = e[1:, 1:]
        assert float(np.max(np.abs(r.T @ r - np.eye(3)))) <= rtol * size2
    else:
        j = _FORMS[delta]
        assert float(np.max(np.abs(e.T @ j @ e - j))) <= rtol * size2


def _magnus_exponent(delta, kappa1, kappa2, h):
    k1, k2 = structure_matrix(delta, kappa1), structure_matrix(delta, kappa2)
    return 0.5 * h * (k1 + k2) + np.sqrt(3.0) / 12.0 * h * h * (k1 @ k2 - k2 @ k1)


def _rotation(theta1, theta2, rng):
    """An so(4) element with angles theta1, theta2 in two random orthogonal planes."""
    block = np.zeros((4, 4))
    block[1, 0], block[3, 2] = theta1, theta2
    block -= block.T
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    x = q @ block @ q.T
    return 0.5 * (x - x.T)


def _lorentz(rapidity, angle, axis=(1.0, 0.0, 0.0)):
    """A boost along axis with a rotation by angle about the same axis (loxodromic)."""
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    omega = np.zeros((4, 4))
    omega[0, 1:] = omega[1:, 0] = rapidity * n
    omega[1:, 1:] = angle * np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return omega


_KAPPA = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    delta=st.sampled_from([0, 1, -1]),
    kappa=st.lists(_KAPPA, min_size=6, max_size=6),
    log_h=st.floats(-6.0, float(np.log10(3.0))),
)
def test_group_exp_of_a_magnus_exponent_matches_mpmath(delta, kappa, log_h):
    omega = _magnus_exponent(delta, kappa[:3], kappa[3:], 10.0**log_h)
    _assert_in_group(_assert_exact(omega), delta)


def test_group_exp_with_a_double_root():
    # an isoclinic rotation: Omega^2 = -theta^2 I, so y1 = y2 = -theta^2,
    # once inside the series radius and once past it
    for theta in (1.5, 3.0):
        omega = structure_matrix(1, (0.0, 0.0, 1.0)) * theta
        _assert_in_group(_assert_exact(omega), 1)
        # the coefficients at the exact invariants a = 2 theta^2, b = theta^4,
        # where exp(Omega) = cos(theta) I + sin(theta) / theta Omega
        c0, c1, c2, c3 = _exp_coefficients(2.0 * theta**2, theta**4)
        assert abs(c0 - c2 * theta**2 - np.cos(theta)) <= 1e-15
        assert abs(c1 - c3 * theta**2 - np.sin(theta) / theta) <= 1e-15


def _exact_coefficients(a, b):
    """(c0, c1, c2, c3) as divided differences at the roots, in 40-digit mpmath."""
    with mpmath.workdps(40):
        m = -mpmath.mpf(a) / 2
        r = mpmath.sqrt(mpmath.mpc(m * m - b))
        y1, y2 = m + r, m - r
        c2 = (mpmath.cosh(mpmath.sqrt(y1)) - mpmath.cosh(mpmath.sqrt(y2))) / (y1 - y2)
        sinhc1, sinhc2 = (mpmath.sinh(mpmath.sqrt(y)) / mpmath.sqrt(y) for y in (y1, y2))
        c3 = (sinhc1 - sinhc2) / (y1 - y2)
        c0 = mpmath.cosh(mpmath.sqrt(y1)) - c2 * y1
        return [float(mpmath.re(c)) for c in (c0, sinhc1 - c3 * y1, c2, c3)]


@pytest.mark.parametrize("factor", [1e-6, 0.01, 0.5, 1.0, 2.0])
def test_group_exp_on_both_sides_of_the_close_root_switch(factor):
    # |y1 + y2| / 2 = 9, past the series radius; the roots count as close
    # below a gap |y1 - y2| of 2 sqrt(9 _CLOSE_ROOTS)
    gap = factor * 2.0 * np.sqrt(9.0 * _CLOSE_ROOTS)
    theta1_sq, theta2_sq = 9.0 + gap / 2, 9.0 - gap / 2
    # each coefficient, not only their sum exp(Omega), where errors in c1 and
    # c3 cancel to first order
    a, b = theta1_sq + theta2_sq, theta1_sq * theta2_sq
    for got, want in zip(_exp_coefficients(a, b), _exact_coefficients(a, b)):
        assert abs(got - want) <= 1e-14 * abs(want)
    rng = np.random.default_rng(41)
    for _ in range(5):
        omega = _rotation(np.sqrt(theta1_sq), np.sqrt(theta2_sq), rng)
        _assert_in_group(_assert_exact(omega), 1)


@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
def test_group_exp_on_both_sides_of_the_series_radius(factor):
    # nearly double and well separated roots with max(|y1|, |y2|) around the radius
    rng = np.random.default_rng(43)
    theta = np.sqrt(factor * _SERIES_RADIUS)
    for theta2 in (theta * (1.0 - 1e-6), theta * 0.999, 0.3 * theta):
        _assert_in_group(_assert_exact(_rotation(theta, theta2, rng)), 1)
        _assert_in_group(_assert_exact(_lorentz(theta, theta2, (1.0, 2.0, -0.5))), -1)


@pytest.mark.parametrize("delta", [0, 1, -1])
def test_group_exp_near_zero(delta):
    omega = _magnus_exponent(delta, (1.0, 0.5, -0.25), (1.5, 0.0, 2.0), 1e-8)
    _assert_in_group(_assert_exact(omega), delta)


def test_group_exp_of_a_pure_translation_is_exact():
    omega = np.zeros((4, 4))
    omega[1:, 0] = (0.3, -1.2, 2.0)
    assert not (omega @ omega).any()
    assert np.array_equal(group_exp(omega), np.eye(4) + omega)


@pytest.mark.parametrize(
    "rapidity, angle",
    [pytest.param(10.0, 0.0, id="boost-10"), pytest.param(10.0, 0.3, id="boost-10-twisted"),
     pytest.param(2.0, 1.5, id="loxodromic"), pytest.param(0.5, 3.0, id="loxodromic-2")],
)
def test_group_exp_of_boosts_and_loxodromic_elements(rapidity, angle):
    for axis in ((1.0, 0.0, 0.0), (0.6, -0.3, 0.74)):
        _assert_in_group(_assert_exact(_lorentz(rapidity, angle, axis)), -1)


def test_group_exp_overflows_to_non_finite_entries_without_raising():
    # cosh(1000) is past the float range; the other matrix of the stack is unharmed
    stack = np.stack([_lorentz(1000.0, 0.0), _lorentz(0.5, 0.25)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = group_exp(stack)
    assert not np.isfinite(out[0]).all()
    assert np.array_equal(out[1], group_exp(stack[1]))
    # a rotation of the same size stays finite
    assert np.isfinite(group_exp(_rotation(1000.0, 1.0, np.random.default_rng(0)))).all()


def test_group_exp_of_entries_past_the_float_range_is_nan_without_warnings():
    # Omega^2 and det(Omega) overflow before any coefficient is formed
    huge = structure_matrix(-1, (1e300, 0.0, 1e300))
    stack = np.stack([huge, structure_matrix(-1, (1.0, 0.0, 0.5))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = group_exp(stack)
        assert np.isnan(group_exp(huge)).all()
    assert np.isnan(out[0]).all()
    assert np.array_equal(out[1], group_exp(stack[1]))


def test_group_exp_keeps_the_stack_shape():
    omega = np.stack([_magnus_exponent(1, (1.0, 0.0, 0.5), (0.5, 0.5, 0.5), h) for h in (0.1, 0.2, 0.3)])
    out = group_exp(omega.reshape(3, 1, 4, 4))
    assert out.shape == (3, 1, 4, 4)
    for k in range(3):
        assert np.array_equal(out[k, 0], group_exp(omega[k]))
