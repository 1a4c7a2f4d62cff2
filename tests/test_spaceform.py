"""Model membership, normalization, and isometry behaviour of the three geometries."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from framedcurves import (
    AmbientForm,
    DimensionMismatch,
    DomainError,
    Hyperplane,
    SpaceForm,
    hyperplane_eval,
    inner_product,
    model_residual,
    normalize_to_model,
    random_isometry,
    space_form,
    tangent_residual,
    transform_hyperplane,
)

KINDS = ("euclidean", "spherical", "hyperbolic")


def _on_model_point(sf, rng):
    """A point of the model, built directly from its defining equation."""
    v = rng.normal(size=sf.dim - 1)
    if sf.kind == "euclidean":
        return np.concatenate(([1.0], v))
    if sf.kind == "spherical":
        x = rng.normal(size=sf.dim)
        return x / np.linalg.norm(x)
    # upper hyperboloid sheet: x0 = sqrt(1 + |v|^2)
    return np.concatenate(([np.hypot(1.0, np.linalg.norm(v))], v))


@pytest.mark.parametrize("kind", KINDS)
def test_model_residual_vanishes_on_model(kind):
    sf = space_form(kind)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = _on_model_point(sf, rng)
        assert model_residual(x, sf) < 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_normalize_lands_on_model(kind):
    sf = space_form(kind)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = _on_model_point(sf, rng) * rng.uniform(0.5, 2.0)
        if kind == "euclidean":
            # scaling the chart coordinate is undone by dividing by x0
            x = _on_model_point(sf, rng)
            x[0] = rng.uniform(0.5, 2.0)
            x[1:] *= x[0]
        y = normalize_to_model(x, sf)
        assert model_residual(y, sf) < 1e-12


@given(st.integers(min_value=0, max_value=10_000))
def test_normalize_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    for kind in KINDS:
        sf = space_form(kind)
        x = _on_model_point(sf, rng)
        y = normalize_to_model(x, sf)
        z = normalize_to_model(y, sf)
        assert np.allclose(y, z, atol=1e-12)


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


@pytest.mark.parametrize("kind", ("spherical", "hyperbolic"))
def test_random_isometry_preserves_form(kind):
    sf = space_form(kind)
    rng = np.random.default_rng(3)
    J = sf.form.matrix
    for _ in range(10):
        g = random_isometry(sf, rng)
        assert np.allclose(g.T @ J @ g, J, atol=1e-10)


def test_random_isometry_euclidean_block_structure():
    sf = space_form("euclidean")
    rng = np.random.default_rng(5)
    g = random_isometry(sf, rng)
    assert g[0, 0] == 1.0
    assert np.allclose(g[0, 1:], 0.0)
    R = g[1:, 1:]
    assert np.allclose(R.T @ R, np.eye(3), atol=1e-10)


@pytest.mark.parametrize("kind", KINDS)
def test_isometry_preserves_model_and_tangency(kind):
    sf = space_form(kind)
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = _on_model_point(sf, rng)
        g = random_isometry(sf, rng)
        assert model_residual(g @ x, sf) < 1e-9
        # build a tangent vector at x and push it forward
        v = rng.normal(size=sf.dim)
        if sf.kind == "euclidean":
            v[0] = 0.0
        else:
            v -= inner_product(x, v, sf.form) / inner_product(x, x, sf.form) * x
        assert tangent_residual(x, v, sf) < 1e-9
        assert tangent_residual(g @ x, g @ v, sf) < 1e-8


@pytest.mark.parametrize("kind", KINDS)
def test_transform_hyperplane_preserves_incidence(kind):
    sf = space_form(kind)
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = _on_model_point(sf, rng)
        # a hyperplane through x: pick a conormal orthogonal to x
        w = rng.normal(size=sf.dim)
        if sf.kind == "euclidean":
            w[0] = 0.0
            w /= np.linalg.norm(w)
            h = Hyperplane(tuple(w), -float(w[1:] @ x[1:]))
        else:
            w -= inner_product(x, w, sf.form) / inner_product(x, x, sf.form) * x
            q = inner_product(w, w, sf.form)
            w /= np.sqrt(abs(q))
            h = Hyperplane(tuple(w))
        assert abs(hyperplane_eval(x, h, sf)) < 1e-10
        g = random_isometry(sf, rng)
        h2 = transform_hyperplane(g, h, sf)
        assert abs(hyperplane_eval(g @ x, h2, sf)) < 1e-8


def test_dual_kind_names():
    assert space_form("euclidean").dual_kind == "offset-sphere"
    assert space_form("spherical").dual_kind == "sphere"
    assert space_form("hyperbolic").dual_kind == "de-sitter"


def test_random_isometry_is_wired_for_n_2():
    with pytest.raises(DimensionMismatch):
        random_isometry(space_form("spherical", 3), np.random.default_rng(0))
