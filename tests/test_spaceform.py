"""Ambient forms and the three geometries."""

import numpy as np
import pytest

from framedcurves import (
    AmbientForm,
    DomainError,
    SpaceForm,
    inner_product,
    space_form,
)


def test_lorentz_inner_product_signs():
    form = AmbientForm(4, "lorentz")
    e0 = np.array([1.0, 0, 0, 0])
    e1 = np.array([0.0, 1, 0, 0])
    assert inner_product(e0, e0, form) == -1.0
    assert inner_product(e1, e1, form) == 1.0
    assert inner_product(e0, e1, form) == 0.0
    null = np.array([1.0, 1, 0, 0])
    assert inner_product(null, null, form) == 0.0


def test_delta_matches_kind():
    assert space_form("euclidean").delta == 0
    assert space_form("spherical").delta == 1
    assert space_form("hyperbolic").delta == -1


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        SpaceForm("elliptic", 2)
    with pytest.raises(DomainError):
        AmbientForm(4, "split")

