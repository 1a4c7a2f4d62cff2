"""Vectorized number text: every float's bytes are those of ``repr``, every integer's
those of ``str``."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import framedcurves
from framedcurves.fileio import FLOAT_FIELD, atomic_write_text, format_floats, format_ints, rows_text, spaced


def _assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    got = format_floats(values).tolist()
    want = [repr(x).encode() for x in values.tolist()]
    bad = [(x, g, w) for x, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


# 300 batches of up to 64 patterns and their negatives; about 0.9 s of tier-1 time
@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_every_bit_pattern_formats_as_its_repr(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    _assert_repr(np.concatenate([values, -values]))


def test_powers_of_two_and_ten_format_as_their_repr():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    _assert_repr(_with_neighbours(np.concatenate([twos, tens, -twos, -tens])))


def test_the_notation_switch_points_format_as_their_repr():
    # repr turns exponential below 1e-4 and from 1e16 on
    edges = np.array([1e16, 1e-4, 1e-5, 1e15, 9999999999999998.0, 0.00009999999999999999])
    near = [np.nextafter(x, direction) for x in edges for direction in (0.0, np.inf)]
    _assert_repr(_with_neighbours(np.concatenate([edges, near, -edges])))


def test_integers_and_short_decimals_format_as_their_repr():
    rng = np.random.default_rng(0)
    integers = np.concatenate([np.arange(1, 10001), rng.integers(1, 2**53, 10000),
                               2**53 - np.arange(100), 10 ** np.arange(16)]).astype(np.float64)
    decimals = rng.integers(-10**6, 10**6, 10000) / 10.0 ** rng.integers(0, 8, 10000)
    _assert_repr(np.concatenate([integers, -integers, decimals]))


def test_zeros_subnormals_infinities_and_nans_format_as_their_repr():
    rng = np.random.default_rng(1)
    subnormals = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
    payloads = (rng.integers(1, 2**52, 100, dtype=np.uint64) | np.uint64(0x7FF << 52)).view(np.float64)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.225073858507201e-308]
    _assert_repr(np.concatenate([special, subnormals, -subnormals, payloads, -payloads]))


def test_format_floats_keeps_the_shape_and_pads_with_nuls():
    values = np.array([[1.0, -2.2250738585072014e-308], [0.5, np.nan]])
    text = format_floats(values)
    assert text.shape == (2, 2) and text.dtype == np.dtype(f"S{FLOAT_FIELD}")
    assert text.tobytes()[:FLOAT_FIELD] == b"1.0".ljust(FLOAT_FIELD, b"\0")
    assert format_floats(np.empty(0)).shape == (0,)
    assert format_floats(np.float64(0.5)).shape == ()
    assert format_floats(values.T).tolist() == [[b"1.0", b"0.5"], [b"-2.2250738585072014e-308", b"nan"]]


def test_format_floats_frees_its_scratch_as_it_goes():
    # the Schubfach words are updated in place and deleted at their last use:
    # the traced peak, the 24-byte text returned included, is about 128 B per
    # value; with every 128-bit product's words alive at once it was 185 B
    values = np.random.default_rng(2).standard_normal(12288)
    format_floats(values[:8])  # the tables are built once, outside the peak
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        format_floats(values)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 150 * len(values)


def test_rows_text_joins_constants_and_fields_row_by_row():
    columns = format_floats(np.array([[1.0, 0.25], [-3.0, 1e22]])).T
    mark = np.array([b"", b"# mark\n"])
    assert rows_text(["v ", *spaced(columns), "\n", mark]) == b"v 1.0 0.25\nv -3.0 1e+22\n# mark\n"


def test_rows_text_of_constant_parts_alone_writes_count_rows():
    # an export chunk whose every column holds one value has no array part
    assert rows_text(["v ", "1.0", " ", "-0.0", "\n"], 3) == b"v 1.0 -0.0\n" * 3
    assert rows_text(["v\n"], 0) == b""


_TABLES_PROBE = """
import framedcurves.cli
from framedcurves import fileio
print(fileio._pow10_table.cache_info().currsize, fileio._digit_words.cache_info().currsize)
"""


def test_importing_the_cli_builds_no_formatting_table():
    # both tables are built on the first format_floats call, so that a run
    # that writes no float text does not pay for them at start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(framedcurves.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", _TABLES_PROBE], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "0"]


_POWER_EDGES = [0, 2**32 - 1] + [10**k + d for k in range(1, 10) for d in (-1, 0)]


# 200 arrays of up to 40 integers; about 1 s of tier-1 time
@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_POWER_EDGES), st.integers(0, 2**32 - 1)), max_size=40))
def test_format_ints_matches_str_in_fields_of_the_widest_width(values):
    text = format_ints(np.array(values, dtype=np.int64))
    assert text.dtype == np.dtype(f"S{len(str(max(values, default=0)))}")
    assert rows_text([text, "\n"]) == "".join(f"{x}\n" for x in values).encode()
    assert [field.lstrip(b"\0") for field in text.tolist()] == [str(x).encode() for x in values]


def test_format_ints_keeps_the_shape_and_rejects_values_outside_uint32():
    text = format_ints(np.array([[0, 7], [10, 123]]))
    assert text.shape == (2, 2) and text.tobytes() == b"  0  7 10123".replace(b" ", b"\0")
    assert format_ints(np.empty(0, dtype=int)).shape == (0,)
    for bad in ([-1], [2**32]):
        with pytest.raises(ValueError):
            format_ints(np.array(bad, dtype=np.int64))


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_get_the_mode_open_gives(tmp_path, umask, mode):
    # 0o666 less the umask, as a plain open makes it, not the temp file's 0o600
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "out.txt", "text\n")
    finally:
        os.umask(old)
    assert (tmp_path / "out.txt").stat().st_mode & 0o777 == mode
