"""Seeded workload generation: CLI argument lists and JSON configs, nothing else.

This module imports nothing from ``framedcurves``.  The program under test only
ever sees what is generated here: an argv list and, for most ops, a config
file.  The same ``(workload, seed)`` always yields byte-identical config texts,
so a run can be reproduced from its seed alone.

An op spec is a plain dict:

    kind     subcommand name ("envelope", "normal-form", "frame", "scan", "verify")
    argv     argument list for ``framedcurves.cli.main``; ``--config`` and
             ``--out`` are appended by the runner
    config   JSON text of the config file, or None
    expect   what the output check needs (window, sizes, oracle parameters)
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# Op sizes fixed by the benchmark definition (t nodes x s samples, or t x lambda).
SIZES = {
    "envelope_t": 1000,
    "envelope_s": 101,
    "normal_form_t": 400,
    "normal_form_s": 200,
    "scan_t": 400,
    "scan_lambda": 401,
    "frames_t": 200,
    "frames_s": 50,
    "frames_t_end": 10.0,
}

#: sizes of the untimed warm-up op, which only has to reach every code path once
WARMUP_SIZES = {"envelope_t": 20, "envelope_s": 5, "normal_form_t": 20, "normal_form_s": 5,
                "scan_t": 40, "scan_lambda": 11, "frames_t": 20, "frames_s": 5,
                "frames_t_end": 1.0}

#: the six type vectors of the classified normal forms
NORMAL_FORM_TYPES = ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 4), (3, 4, 5))

GEOMETRIES = (("euclidean", 0), ("spherical", 1), ("hyperbolic", -1))

# The runner stops only at a multiple of the cycle length, so every run holds
# the same mix of op kinds (frame and envelope ops cost the same in all three
# geometries, so curvature-frames balances kinds, not geometries).
CYCLE = {"mesh-export": 2, "scan-unfold": 8, "curvature-frames": 2, "acceptance-verify": 1}
_SCAN_FAMILIES = 8

# Nominal seconds of one op with its check and calibration on a 2-vCPU VM
# (Python 3.11, numpy 2.4).  They turn --seconds into a fixed op count, so the
# count, and with it the tail percentile, never depends on how fast a run went.
OP_SECONDS = {"mesh-export": 2.7, "scan-unfold": 0.6, "curvature-frames": 1.7,
              "acceptance-verify": 1.1}


def op_count(workload, seconds, minimum=1):
    """Ops a run of ``seconds`` times: whole cycles, at least ``minimum`` ops."""
    cycle = CYCLE[workload]
    cycles = max(-(-minimum // cycle), round(seconds / (OP_SECONDS[workload] * cycle)))
    return cycles * cycle


def _rng(workload, seed):
    return random.Random(f"{workload}:{int(seed)}")


def _dump(cfg):
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def _rational(rng, lo, hi, max_den):
    """A rational in [lo, hi] with denominator at most max_den."""
    den = rng.randint(1, max_den)
    num_lo = -((-lo.numerator * den) // lo.denominator)  # ceil(lo * den)
    num_hi = (hi.numerator * den) // hi.denominator  # floor(hi * den)
    return Fraction(rng.randint(num_lo, num_hi), den)


def _window(rng, lo_range, span_range):
    lo = round(rng.uniform(*lo_range), 3)
    return lo, round(lo + rng.uniform(*span_range), 3)


def _mesh_export(rng, sizes):
    # Twelve ops: six envelopes alternating the two fields, six normal forms
    # covering all six types in a seeded order, so any run of at least twelve
    # ops holds every field and type (peak memory and the op mix do not
    # depend on the seed).
    fields = ["helix-frenet", "circle-radial"]
    rng.shuffle(fields)
    types = list(NORMAL_FORM_TYPES)
    rng.shuffle(types)
    ops = []
    for k, a in enumerate(types):
        name = fields[k % 2]
        lo, hi = _window(rng, (-3.0, 0.0), (2.0, 6.0))
        grids = {"t": [lo, hi, sizes["envelope_t"]], "s": [-1.5, 1.5, sizes["envelope_s"]]}
        cfg = {"curve": {"kind": "builtin", "name": name}, "grids": grids}
        ops.append({"kind": "envelope", "argv": ["envelope", "--threads", "1"],
                    "config": _dump(cfg), "expect": {"field": name, "grids": grids}})
        t_lo, t_hi = _window(rng, (-1.5, -0.5), (1.0, 2.5))
        s_lo, s_hi = _window(rng, (-1.5, -0.5), (1.0, 2.5))
        grids = {"t": [t_lo, t_hi, sizes["normal_form_t"]],
                 "s": [s_lo, s_hi, sizes["normal_form_s"]]}
        ops.append({"kind": "normal-form",
                    "argv": ["normal-form", "--type", ",".join(map(str, a))],
                    "config": _dump({"grids": grids}),
                    "expect": {"type": list(a), "grids": grids}})
    return ops


def butterfly_kappa3(t0, lam0, c):
    """Term map of c((t - t0)^2 - (u - lam0)) keyed 'i,j' for t^i u^j."""
    terms = {"2,0": c, "1,0": -2 * c * t0, "0,0": c * (t0 * t0 + lam0), "0,1": -c}
    return {k: str(v) for k, v in terms.items() if v != 0}


def _scan_unfold(rng, sizes):
    ops = []
    for _ in range(_SCAN_FAMILIES):
        t0 = _rational(rng, Fraction(-1, 2), Fraction(1, 2), 6)
        lam0 = _rational(rng, Fraction(-1, 10), Fraction(1, 10), 20)
        c = rng.choice((1, -1)) * _rational(rng, Fraction(1, 2), Fraction(2), 4)
        grids = {"t": [-1.0, 1.0, sizes["scan_t"]], "lambda": [-0.2, 0.2, sizes["scan_lambda"]]}
        cfg = {"curve": {"kind": "curvature", "delta": 0,
                         "kappa": [["1"], ["0"], butterfly_kappa3(t0, lam0, c)]},
               "grids": grids}
        ops.append({"kind": "scan", "argv": ["scan"], "config": _dump(cfg),
                    "expect": {"t0": str(t0), "lam0": str(lam0), "c": str(c)}})
    return ops


def _curvature_frames(rng, sizes):
    ops = []
    for geometry, delta in GEOMETRIES:
        # integration cost grows linearly with c, so c stays within 5% of 1
        k1 = _rational(rng, Fraction(1), Fraction(2), 4)
        c = _rational(rng, Fraction(19, 20), Fraction(21, 20), 20)
        grids = {"t": [0.0, sizes["frames_t_end"], sizes["frames_t"]],
                 "s": [-1.5, 1.5, sizes["frames_s"]]}
        cfg = {"geometry": geometry,
               "curve": {"kind": "curvature", "delta": delta,
                         "kappa": [[str(k1)], ["0"], {"2": str(c)}]},
               "grids": grids}
        expect = {"geometry": geometry, "delta": delta, "k1": str(k1), "c": str(c),
                  "grids": grids}
        for kind, argv in (("frame", ["frame"]), ("envelope", ["envelope", "--threads", "1"])):
            ops.append({"kind": kind, "argv": argv, "config": _dump(cfg), "expect": expect})
    return ops


def _acceptance_verify(rng, sizes):
    return [{"kind": "verify", "argv": ["verify"], "config": None, "expect": {"criteria": 8}}]


_GENERATORS = {
    "mesh-export": _mesh_export,
    "scan-unfold": _scan_unfold,
    "curvature-frames": _curvature_frames,
    "acceptance-verify": _acceptance_verify,
}


WORKLOADS = tuple(_GENERATORS)


def generate(workload, seed, sizes=None):
    """The op schedule of one workload for one seed (deterministic)."""
    if workload not in _GENERATORS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(_GENERATORS)}")
    return _GENERATORS[workload](_rng(workload, seed), {**SIZES, **(sizes or {})})
