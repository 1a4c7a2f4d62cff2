#!/usr/bin/env python3
"""Run `framedcurves scan` on seeded random curvature families, each under a time limit.

Config ``seed`` is drawn from ``random.Random(seed)``: a euclidean family
whose kappa_i each have at most three terms c t^i lambda^j, i <= 3 and
j <= 2, with small exact c, on t and lambda grids whose ends come from
+-0, +-5e-324, 1e-300, +-1, 0.5, -3, 2, 1e16 and +-1e300 and whose counts
run from 2 to 12.  Each config runs through the CLI in its own subprocess,
with the framedcurves package on PYTHONPATH, so two trees can be compared on
the same seeds.  One line per config gives its exit code (or "timeout"),
its wall time and a digest of its events.csv and report.json; a summary
tallies the exit codes, sums the wall time of the configs that exit 0 and
lists the five slowest configs with their JSON.

With ``--against OTHER_SRC`` each seed also runs with OTHER_SRC first on
PYTHONPATH, the two trees alternating which goes first.  One line per seed
gives both exit codes, wall times and digests, "same" or "DIFFERENT"; the
script exits 1 if any config that finishes on both trees (no timeout)
differs in exit code or digest.

    PYTHONPATH=src python scripts/fuzz_scan.py $(seq 1 40) --timeout 15
    PYTHONPATH=src python scripts/fuzz_scan.py $(seq 1 80) --timeout 15 --against ../parent/src
"""

import argparse
import collections
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

ENDS = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -1.0, 0.5, -3.0, 2.0, 1e16, 1e300, -1e300)


def _grid(rng):
    lo, hi = sorted(rng.sample(ENDS, 2))
    while not lo < hi:  # 0.0 and -0.0
        lo, hi = sorted(rng.sample(ENDS, 2))
    return [lo, hi, rng.randint(2, 12)]


def make_config(seed):
    """The scan config of one seed."""
    rng = random.Random(seed)
    kappa = [{f"{rng.randint(0, 3)},{rng.randint(0, 2)}": str(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                                                          rng.choice((1, 1, 2, 5))))
              for _ in range(rng.randint(1, 3))} for _ in range(3)]
    return {"curve": {"kind": "curvature", "kappa": kappa}, "grids": {"t": _grid(rng), "lambda": _grid(rng)}}


def run_config(config, timeout, src=None):
    """(exit code or "timeout", wall seconds, digest of events.csv and report.json or "-").

    ``src``, if given, goes first on the subprocess's PYTHONPATH.
    """
    env = None
    if src:
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp)
        (path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        start = time.perf_counter()
        try:
            code = subprocess.run([sys.executable, "-m", "framedcurves.cli", "scan", "--config",
                                   str(path / "config.json"), "--out", str(path / "out")],
                                  capture_output=True, timeout=timeout, env=env).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        seconds = time.perf_counter() - start
        files = [path / "out" / name for name in ("events.csv", "report.json")]
        digest = "-"
        if all(f.exists() for f in files):
            digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()[:16]
    return code, seconds, digest


def compare(seeds, timeout, other):
    """Run each seed on this tree and on ``other``, alternating which goes first; 1 if a finished pair differs."""
    trees = (None, os.path.abspath(other))
    different, timeouts, both = [], ([], []), []
    for k, seed in enumerate(seeds):
        config, runs = make_config(seed), [None, None]
        for i in ((0, 1), (1, 0))[k % 2]:
            runs[i] = run_config(config, timeout, trees[i])
        (code, seconds, digest), (other_code, other_seconds, other_digest) = runs
        same = (code, digest) == (other_code, other_digest)
        for i in (0, 1):
            if runs[i][0] == "timeout":
                timeouts[i].append(seed)
        if "timeout" not in (code, other_code) and not same:
            different.append(seed)
        if code == other_code == 0:
            both.append((seconds, other_seconds))
        print(f"seed {seed}: exit {code} | {other_code}  {seconds:.2f} | {other_seconds:.2f} s  "
              f"{digest} | {other_digest}  {'same' if same else 'DIFFERENT'}", flush=True)
    print(f"exit 0 on both: {len(both)} configs in {sum(s for s, _ in both):.2f} | {sum(s for _, s in both):.2f} s")
    print("timeouts:", timeouts[0], "|", timeouts[1])
    print("different:", different)
    return 1 if different else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("seeds", type=int, nargs="+", help="the seeds of the configs to run")
    ap.add_argument("--timeout", type=float, default=15.0, help="seconds allowed per config")
    ap.add_argument("--against", metavar="OTHER_SRC", help="a second tree's src directory to compare with")
    args = ap.parse_args()
    if args.against:
        return compare(args.seeds, args.timeout, args.against)

    results = []
    for seed in args.seeds:
        code, seconds, digest = run_config(make_config(seed), args.timeout)
        results.append((seed, code, seconds))
        print(f"seed {seed}: exit {code}  {seconds:.2f} s  {digest}", flush=True)
    tally = collections.Counter(str(code) for _, code, _ in results)
    print("exit codes:", ", ".join(f"{code}: {n}" for code, n in sorted(tally.items())))
    print("timeouts:", [seed for seed, code, _ in results if code == "timeout"])
    done = [seconds for _, code, seconds in results if code == 0]
    print(f"exit 0: {len(done)} configs in {sum(done):.2f} s")
    for seed, code, seconds in sorted(results, key=lambda r: -r[2])[:5]:
        print(f"slow: seed {seed}  {seconds:.2f} s  exit {code}  {json.dumps(make_config(seed))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
