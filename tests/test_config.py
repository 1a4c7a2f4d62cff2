"""Run-config bounds: grids and tolerances are finite and sized, or ConfigError."""

import json
import math

import pytest
from hypothesis import given, strategies as st

from framedcurves import ConfigError, RunConfig
from framedcurves.cli import main
from framedcurves.config import MAX_GRID_COUNT, MAX_KAPPA_DEGREE


def test_json_infinity_and_huge_values_are_rejected():
    text = (
        '{"grids": {"t": [0, Infinity, 10], "s": [0, 1, 1e9]},'
        ' "tolerances": {"rank_tol": 1e300}}'
    )
    with pytest.raises(ConfigError):
        RunConfig.from_text(text)


@pytest.mark.parametrize(
    "grid",
    [
        [0.0, math.inf, 10],
        [-math.inf, 1.0, 10],
        [math.nan, 1.0, 10],
        [0.0, math.nan, 10],
        [-1e308, 1e308, 10],  # hi - lo overflows
        [0, 10**400, 10],
    ],
)
def test_grid_ends_and_span_must_be_finite(grid):
    with pytest.raises(ConfigError, match="finite|too large"):
        RunConfig.from_dict({"grids": {"t": grid}})


@pytest.mark.parametrize(
    "count", [1, 2.5, MAX_GRID_COUNT + 1, 1e9, 10**400, math.inf, math.nan]
)
def test_grid_count_is_an_integer_up_to_the_cap(count):
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"grids": {"lambda": [0.0, 1.0, count]}})


def test_grid_count_at_the_cap_is_accepted():
    # validation only: no grid of this size is built
    cfg = RunConfig.from_dict({"grids": {"s": [0.0, 1.0, MAX_GRID_COUNT]}})
    assert cfg.grids["s"] == [0.0, 1.0, MAX_GRID_COUNT]


@pytest.mark.parametrize("value", [0, -1e-8, 1, 1.0, 1e300, math.inf, -math.inf, math.nan])
def test_tolerances_must_lie_in_the_open_unit_interval(value):
    with pytest.raises(ConfigError, match=r"\(0, 1\)"):
        RunConfig.from_dict({"tolerances": {"ode_tol": value}})


def test_tolerance_inside_the_unit_interval_is_accepted():
    assert RunConfig.from_dict({"tolerances": {"mesh_tol": 0.5}}).mesh_tol == 0.5


def _kappa_config(key):
    return {"curve": {"kind": "curvature", "delta": 0, "kappa": [{key: "1"}, ["0"], ["1"]]}}


@pytest.mark.parametrize("key", ["1001,0", "0,1001", "100000000,0"])
def test_a_kappa_term_above_the_degree_bound_exits_2_naming_the_key(tmp_path, capsys, key):
    # the polynomial is dense in t and lambda, so such a key would allocate its table at load
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_kappa_config(key)))
    assert main(["frame", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(key) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["200,0", f"{MAX_KAPPA_DEGREE},0", f"0,{MAX_KAPPA_DEGREE}"])
def test_a_kappa_term_up_to_the_degree_bound_loads(key):
    assert RunConfig.from_dict(_kappa_config(key)).curve["kappa"][0] == {key: "1"}


# -- fuzz -----------------------------------------------------------------------------

_WILD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 1e9, MAX_GRID_COUNT, MAX_GRID_COUNT + 1, 10**400]),
    st.integers(min_value=-5, max_value=300),
    st.booleans(),
    st.sampled_from(["", "1", "0.5", "nan", "inf"]),
    st.none(),
)
_GRID = st.one_of(st.lists(_WILD, min_size=3, max_size=3), st.lists(_WILD, max_size=5), _WILD)


@given(
    st.dictionaries(st.sampled_from(["t", "s", "lambda"]), _GRID),
    st.dictionaries(st.sampled_from(["rank_tol", "ode_tol", "mesh_tol"]), _WILD),
)
def test_from_dict_accepts_in_bounds_or_raises_config_error(grids, tolerances):
    try:
        cfg = RunConfig.from_dict({"grids": grids, "tolerances": tolerances})
    except ConfigError:
        return
    for lo, hi, count in cfg.grids.values():
        assert math.isfinite(hi - lo) and lo < hi
        assert isinstance(count, int) and 2 <= count <= MAX_GRID_COUNT
    for value in cfg.tolerances.values():
        assert 0 < value < 1


#: one valid curve of each kind
_CURVES = {
    "builtin": {"kind": "builtin", "name": "helix-frenet"},
    "polynomial": {"kind": "polynomial", "coefficients": [["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]},
    "curvature": {"kind": "curvature", "delta": 0, "kappa": [["1"], ["0"], ["1"]]},
}


@pytest.mark.parametrize("kind, key, value", [
    ("builtin", "kappa", [["1"], ["0"], ["1"]]),
    ("builtin", "delta", 0),
    ("builtin", "coefficients", [["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]),
    ("polynomial", "delta", 5),
    ("polynomial", "name", "helix-frenet"),
    ("curvature", "name", "helix-frenet"),
    ("curvature", "coefficients", [["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]),
])
def test_a_curve_takes_only_the_keys_of_its_kind(tmp_path, capsys, kind, key, value):
    # a key of another kind is unknown here, never silently dropped
    assert RunConfig.from_dict({"curve": _CURVES[kind]}).curve["kind"] == kind
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"curve": {**_CURVES[kind], key: value}}))
    assert main(["frame", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"unknown key(s) [{key!r}] in curve" in err
    assert not (tmp_path / "out").exists()
