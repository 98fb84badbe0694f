#!/usr/bin/env python3
"""Time hetmod's start-up: ``import hetmod.cli`` and loading the built-ins.

Starts N fresh ``python -S`` children one after another (``-S`` keeps
site-packages, which hetmod does not use, out of the time, as the bench
child does).  Each child imports ``hetmod.cli``, loads the three built-in
models with ``builtin_model``, and reports the time from just before the
import to the end of the loads, and its ``ru_maxrss``.  This script uses
the standard library only and never imports ``hetmod`` itself.

It prints the median and quartiles of both, and whether
``PYTHONDONTWRITEBYTECODE`` was set: without it, the first child writes
``__pycache__`` and the rest import from bytecode, which is much faster.

Usage:
    python3 scripts/startup_time.py [--runs N] [SRC]

``SRC`` is the directory that holds the ``hetmod`` package (default: this
repository's ``src``); ``--runs`` defaults to 20.
"""

import os
import statistics
import subprocess
import sys

CHILD = """\
import resource, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hetmod.cli
from hetmod.models import BUILTIN_NAMES, builtin_model
for name in BUILTIN_NAMES:
    builtin_model(name)
elapsed = time.perf_counter() - t0
print(elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _summary(xs, fmt):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return f"median {q2:{fmt}}, quartiles {q1:{fmt}}-{q3:{fmt}}"


def main(argv):
    runs = 20
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    args = list(argv)
    if args[:1] == ["--runs"] and len(args) > 1:
        runs = int(args[1])
        args = args[2:]
    if len(args) > 1 or runs < 2:
        print(__doc__.split("Usage:")[1].strip(), file=sys.stderr)
        return 2
    if args:
        src = os.path.abspath(args[0])
    times, rss = [], []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-S", "-c", CHILD, src],
                              capture_output=True, text=True, check=True)
        t, kb = done.stdout.split()
        times.append(float(t) * 1e3)
        rss.append(int(kb))
    flag = os.environ.get("PYTHONDONTWRITEBYTECODE")
    print(f"src: {src}")
    print(f"runs: {runs}, PYTHONDONTWRITEBYTECODE "
          + (f"set ({flag!r})" if flag else "not set"))
    print("import + load ms: " + _summary(times, ".1f"))
    print("ru_maxrss kB: " + _summary(rss, ".0f"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
