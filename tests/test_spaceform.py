"""The three geometries and their form matrices."""

import numpy as np
import pytest

from framedcurves import DomainError, SpaceForm


def test_lorentz_inner_product_signs():
    form = SpaceForm("hyperbolic").form
    e0 = np.array([1.0, 0, 0, 0])
    e1 = np.array([0.0, 1, 0, 0])
    assert e0 @ form @ e0 == -1.0
    assert e1 @ form @ e1 == 1.0
    assert e0 @ form @ e1 == 0.0
    null = np.array([1.0, 1, 0, 0])
    assert null @ form @ null == 0.0


def test_delta_matches_kind():
    assert SpaceForm("euclidean").delta == 0
    assert SpaceForm("spherical").delta == 1
    assert SpaceForm("hyperbolic").delta == -1


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        SpaceForm("elliptic")
