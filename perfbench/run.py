#!/usr/bin/env python3
"""Seeded benchmark of the framedcurves CLI: op latency, failures, memory, layers.

Run from the repository root:

    python3 perfbench/run.py --workload mesh-export --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One op is one in-process ``framedcurves.cli.main([...])`` call on a config
generated from the seed, writing into a fresh output directory that is checked
against an independent oracle and then removed.  ``--seconds`` sets a fixed
number of ops (see ``workloads.op_count``).  ``--trace 0`` measures the
end-to-end metrics untraced; ``--trace 1`` runs every op twice, untraced and
traced, and reports the per-layer metrics (see perfbench/README.md).  The last
line of standard output is one JSON object; ``--workload all`` runs each
workload in its own process and prints one such object per workload.
"""

import os

# Pin BLAS / OpenMP pools before numpy is imported anywhere in this process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")

sys.path.insert(0, HERE)
import workloads  # noqa: E402


END_TO_END = (("setup_s", "s"), ("op_s.p50", "s"), ("op_s.tail", "s"),
              ("ok_share", "ratio"), ("peak_rss_mb", "MB"))
TAIL_BEYOND = 10  # ops that must lie beyond the tail percentile
MIN_OPS = 2 * TAIL_BEYOND + 2  # so that the tail lies above the median
SETUP_PROBES = 5
MAX_WALL_S = 150.0  # hard stop for one workload process
# Times are reported at the machine speed at which sidecar.kernel takes this
# long: wall time x CALIBRATION_S / kernel time measured around it.
CALIBRATION_S = 0.080


def _pin_cpu():
    """Keep this process, its set-up probes and its sidecar on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _import_cli():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import framedcurves.cli

    return framedcurves.cli


def _setup_probe(workload, seed):
    """What a cold start does before the first op: import the CLI, build the configs."""
    _import_cli()
    workloads.generate(workload, seed)


class Sidecar:
    """The helper process of ``sidecar.py``: machine-speed kernel and output checks."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "sidecar.py")],
                                     cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def _ask(self, **request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"perfbench: sidecar exited {self.proc.wait()}")
        return json.loads(line)

    def calibrate(self):
        return self._ask(cmd="calibrate")["seconds"]

    def check(self, op, out, stdout):
        return self._ask(cmd="check", op=op, out=out, stdout=stdout)["problems"]

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def measure_setup(workload, seed, sidecar, probes=SETUP_PROBES):
    """Median set-up time of ``probes`` fresh processes, and their (wall, kernel) pairs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples, scaled = [], []
    before = sidecar.calibrate()
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60, check=False)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.decode()[-500:]}")
        after = sidecar.calibrate()
        kernel = (before + after) / 2
        samples.append((wall, kernel))
        scaled.append(wall * CALIBRATION_S / kernel)
        before = after
    return statistics.median(scaled), samples


# -- ops ---------------------------------------------------------------------------------


class OpRunner:
    """Runs generated ops through ``framedcurves.cli.main``; the sidecar checks them."""

    def __init__(self, cli, workdir, sidecar):
        self.cli = cli
        self.workdir = workdir
        self.sidecar = sidecar
        self.count = 0

    def run(self, op, check=True):
        """(seconds, problems, bytes written) of one op; the out dir is removed after."""
        self.count += 1
        out = os.path.join(self.workdir, f"op-{self.count:05d}")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        argv = list(op["argv"])
        if op["config"] is not None:
            cfg_path = os.path.join(out, "config.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(op["config"])
            argv += ["--config", cfg_path, "--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        problems = []
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            code = None
            problems.append(f"{op['kind']} raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if code not in (0, None):
            problems.append(f"{op['kind']} exited {code}: {stderr.getvalue().strip()[-300:]}")
        if check and not problems:
            problems += self.sidecar.check(op, out, stdout.getvalue())
        written = sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
                      if f != "config.json")
        shutil.rmtree(out, ignore_errors=True)
        return elapsed, problems, written


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(times)
    rank = len(ordered) - 1 - TAIL_BEYOND
    if rank < 0:
        return None, None
    return ordered[rank], 100.0 * rank / max(len(ordered) - 1, 1)


def environment():
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def run_workload(name, seed, seconds, trace, sizes=None, setup_probes=SETUP_PROBES,
                 workdir=None):
    """Run one workload in this process and return its result record."""
    with Sidecar() as sidecar:
        return _run_workload(name, seed, seconds, trace, sizes, setup_probes,
                             workdir or os.path.join(RUNS, f"ops-{os.getpid()}"), sidecar)


def _run_workload(name, seed, seconds, trace, sizes, setup_probes, workdir, sidecar):
    setup_s, setup_samples = measure_setup(name, seed, sidecar, setup_probes)
    cli = _import_cli()
    schedule = workloads.generate(name, seed, sizes)
    os.makedirs(workdir, exist_ok=True)
    runner = OpRunner(cli, workdir, sidecar)

    # lazy imports and first-call paths settle before timing (small, unchecked, uncounted)
    for op in workloads.generate(name, seed, workloads.WARMUP_SIZES)[:workloads.CYCLE[name]]:
        runner.run(op, check=False)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        count = workloads.op_count(name, seconds / 2)
    else:
        count = workloads.op_count(name, seconds, MIN_OPS)

    times, scaled, traced_times, failures, bytes_by_op, traced_ops = [], [], [], [], {}, []
    op_log = []  # (kind, traced, wall seconds, kernel seconds or None) of every timed op
    attempted = 0
    start = time.perf_counter()
    kernel = None if trace else sidecar.calibrate()
    for k in range(count):
        op = schedule[k % len(schedule)]
        # traced runs pair each op with an untraced twin, alternating which goes first
        sides = (False,) if not trace else ((False, True) if k % 2 == 0 else (True, False))
        for traced in sides:
            attempted += 1
            if traced:
                tracer.start_op(attempted)
                tracer.install()
                try:
                    elapsed, problems, written = runner.run(op)
                finally:
                    tracer.uninstall()
                traced_times.append(elapsed)
                traced_ops.append(attempted)
                bytes_by_op[attempted] = written
            else:
                elapsed, problems, written = runner.run(op)
                times.append(elapsed)
            op_kernel = None
            if not trace:
                after = sidecar.calibrate()
                op_kernel = (kernel + after) / 2
                scaled.append(elapsed * CALIBRATION_S / op_kernel)
                kernel = after
            op_log.append((op["kind"], traced, elapsed, op_kernel))
            if problems:
                failures.append({"op": attempted, "kind": op["kind"], "expect": op["expect"],
                                 "problems": problems})
        if time.perf_counter() - start >= MAX_WALL_S:
            break
    shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(bool(trace)),
        "environment": environment(), "ops": len(times), "planned_ops": count,
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "measured_s": time.perf_counter() - start, "setup_samples_s": setup_samples,
        "op_log": op_log,
    }
    if trace:
        from tracer import layer_metrics, self_times

        overhead = statistics.median(traced_times) - statistics.median(times)
        record["metrics"] = layer_metrics(tracer.spans, tracer.probes, traced_ops,
                                          bytes_by_op, overhead)
        record["self_time_top"] = self_times(tracer.spans, traced_ops)[:8]
        record["spans"] = tracer.records()
    else:
        tail_value, tail_pct = tail(scaled)
        if tail_value is None:
            raise SystemExit(f"perfbench: only {len(times)} ops in {MAX_WALL_S:.0f} s; "
                             f"op_s.tail needs more than {TAIL_BEYOND}")
        values = {
            "setup_s": setup_s,
            "op_s.p50": statistics.median(scaled),
            "op_s.tail": tail_value,
            "ok_share": (attempted - len(failures)) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END}
        record["metrics"]["op_s.tail"].update(percentile=tail_pct, ops=len(times))
        record["wall"] = {"op_s.p50": statistics.median(times), "op_s.tail": tail(times)[0],
                          "kernel_s.p50": statistics.median(k for *_, k in op_log)}
    return record


# -- output ------------------------------------------------------------------------------


def _save(record):
    os.makedirs(RUNS, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(os.path.join(RUNS, stem + "-spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    with open(os.path.join(RUNS, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def summary_lines(record):
    env = record["environment"]
    lines = [f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
             f"(nproc {env['nproc']}, Python {env['python']}, numpy {env['numpy']})",
             f"ops {record['attempted']}  failed {record['failed']}  "
             f"fail_share {record['failed'] / record['attempted']:.4f}"]
    for name, metric in record["metrics"].items():
        extra = ""
        if "percentile" in metric:
            extra = f"  (p{metric['percentile']:.1f} over {metric['ops']} ops)"
        lines.append(f"  {name:28s} {metric['value']:.6g} {metric['unit']}{extra}")
    for name, value in record.get("wall", {}).items():
        lines.append(f"  unscaled {name:19s} {value:.6g} s")
    for top, secs in record.get("self_time_top", [])[:3]:
        lines.append(f"  self time {top:24s} {secs:.4g} s")
    for failure in record["failures"][:8]:
        lines.append(f"  FAILED op {failure['op']} {failure['kind']}: "
                     + "; ".join(failure["problems"]))
    return lines


def result_line(record):
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if not os.path.isfile(os.path.join(SRC, "framedcurves", "__init__.py")):
        print(f"perfbench: no framedcurves sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        results = {}
        for name in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
                return 1
            results[name] = json.loads(lines[-1])
        print(json.dumps(results, sort_keys=True))
        return 0

    _pin_cpu()
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    _save(record)
    print("\n".join(summary_lines(record)))
    print(json.dumps(result_line(record), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
