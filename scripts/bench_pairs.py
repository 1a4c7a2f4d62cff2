#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and summarize each end-to-end metric.

Each seed runs ``perfbench/run.py --workload W --seed S --seconds N --trace 0``
once from PARENT_TREE and once from CHANGE_TREE, one process at a time, the
parent first on odd seeds and the change first on even ones.  A run's record
is its workload, seed, side, exit code and the JSON line it prints last
(``null`` if it failed).  The summary gives, per workload and per end-to-end
metric of BENCHMARK.json, each side's median and inclusive quartiles, the
pairs in which the change was strictly better by the metric's ``better``, and
``gain``: whether the change may claim a gain by that metric.  It may when it
was strictly better in at least nine tenths of the pairs (ties count for
neither side) and its median is better than the parent's by more than the
distance between the parent's quartiles (q3 - q1).

With ``--out FILE`` the ``runs`` and ``summary`` keys of FILE (a BENCH_*.json
record) are written, and its other keys are kept.

The location of a tree alone moves the metrics: byte-identical copies whose
directory names differ by one character differ by 2-3 % in acceptance-verify
``op_s.p50``.  So the script refuses to run, with exit code 2, when PARENT_TREE
and CHANGE_TREE resolve to absolute paths of different lengths; sibling
directories with names of one length, as below, pass.

    python scripts/bench_pairs.py ../parent ../change --workload acceptance-verify --seeds 4801-4810 --out BENCH_x.json
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def parse_seeds(text):
    """'A-B' as the seeds A to B inclusive, or 'A' alone."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(tree, side, workload, seed, seconds):
    """The record of one benchmark run from ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "side": side, "rc": proc.returncode, "result": result}


def _spread(values):
    """Median and inclusive quartiles, each rounded to 5 decimals (None for no values)."""
    if not values:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5)}


def summarize(runs, metrics):
    """Per workload and metric: each side's spread, the pairs the change won and
    the gain verdict, taken from the rounded spreads.

    ``metrics`` are BENCHMARK.json's end-to-end entries (``name`` and
    ``better``).  A pair is a seed with a result on both sides.
    """
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        values = {}  # (side, seed) -> metrics of that run
        for run in runs:
            if run["workload"] == workload and run["result"] is not None:
                values[run["side"], run["seed"]] = run["result"]["metrics"]
        seeds = sorted({seed for _, seed in values})
        pairs = [seed for seed in seeds if ("parent", seed) in values and ("change", seed) in values]
        out[workload] = {}
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1

            def value(side, seed):
                return values[side, seed][name]["value"]

            better = sum(sign * value("change", seed) < sign * value("parent", seed) for seed in pairs)
            spreads = {side: _spread([value(side, seed) for seed in seeds if (side, seed) in values])
                       for side in ("parent", "change")}
            parent, change = spreads["parent"], spreads["change"]
            gain = (bool(pairs) and 10 * better >= 9 * len(pairs)
                    and sign * (parent["median"] - change["median"]) > parent["q3"] - parent["q1"])
            out[workload][name] = {**spreads, "change_better_pairs": f"{better}/{len(pairs)}", "gain": gain}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", metavar="PARENT_TREE", help="checkout of the parent commit")
    ap.add_argument("change", metavar="CHANGE_TREE", help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True, help="a workload to run (repeatable)")
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="A-B: the seeds A to B inclusive")
    ap.add_argument("--seconds", type=float, default=20.0, help="--seconds of each run")
    ap.add_argument("--out", type=pathlib.Path, help="BENCH_*.json record whose runs and summary are written")
    args = ap.parse_args()
    trees = {"parent": args.parent, "change": args.change}
    parent, change = (str(pathlib.Path(tree).resolve()) for tree in trees.values())
    if len(parent) != len(change):
        ap.error(f"PARENT_TREE {parent} and CHANGE_TREE {change} resolve to paths of different lengths "
                 f"({len(parent)} and {len(change)}), which alone shifts the metrics")
    runs = []
    for workload in args.workload:
        for seed in args.seeds:
            for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                runs.append(run_one(trees[side], side, workload, seed, args.seconds))
                result = runs[-1]["result"]
                p50 = result["metrics"]["op_s.p50"]["value"] if result else float("nan")
                print(f"{workload} seed {seed} {side}: exit {runs[-1]['rc']}  op_s.p50 {p50:.5f}",
                      file=sys.stderr, flush=True)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    summary = summarize(runs, metrics)
    if args.out:
        record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        record.update(runs=runs, summary=summary)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary, indent=1))
    return 0 if all(run["result"] is not None for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
