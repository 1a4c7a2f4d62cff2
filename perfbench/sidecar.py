"""Helper process of the benchmark: the machine-speed kernel and the output checks.

The runner starts this script once per workload run, pinned to the same CPU as
itself, and sends it one JSON request per line on standard input; each reply
is one JSON line on standard output.  It runs only while the runner waits for
its reply, so the two never compete for the CPU.

    {"cmd": "calibrate"}                          -> {"seconds": s}
    {"cmd": "check", "op": op, "out": dir,
     "stdout": text}                              -> {"problems": [...]}

``calibrate`` times one fixed kernel that mixes the kinds of work the ops do
(an interpreter loop, small-matrix numpy calls, large ufuncs over a 3 MB
array, float formatting).  Nothing from ``framedcurves`` is imported here, so
no change to the program can change the kernel's time: it measures how fast
the machine runs at that moment.

``check`` runs the oracle in ``checks.py`` that fits the op.  Doing it here
keeps the checks' memory out of the runner's peak RSS and the package out of
the oracles' process.
"""

import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402

_X = np.random.default_rng(0).random(400_000)
_M = np.eye(4) + 0.01 * np.random.default_rng(1).random((4, 4))


def kernel():
    total = 0
    for i in range(120_000):
        total += i * i % 7
    a = np.eye(4)
    for _ in range(3000):
        a = a @ _M
        a /= np.abs(a).max()
    for _ in range(6):
        y = np.sin(_X) * _X + np.sqrt(_X)
    text = "".join("v %.17g %.17g %.17g\n" % tuple(row)
                   for row in _X[:15_000].reshape(-1, 3))
    return total + a[0, 0] + y[0] + len(text)


def calibrate():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def main():
    references = {}
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["cmd"] == "calibrate":
            reply = {"seconds": calibrate()}
        else:
            op = msg["op"]
            try:
                problems = checks.check_op(op, msg["out"], msg["stdout"], references)
            except Exception as exc:  # unreadable output fails the check
                problems = [f"{op['kind']} output unreadable: {type(exc).__name__}: {exc}"]
            reply = {"problems": problems}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
