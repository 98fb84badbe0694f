"""One pass of a workload, in a fresh interpreter started by ``run.py``.

Usage: ``python3 perfbench/child.py JOB_JSON``.  The job names the commands,
the models to load during set-up, whether to trace, and where to write
spans.  Protocol on stdout: the line ``ready`` once ``hetmod`` is imported
and the models are loaded (the parent times set-up up to that line), then
one JSON line with the pass results, or only the host probe for a child
that does set-up alone.  Each command runs through
``hetmod.cli.main`` in this process, which builds its own fresh model.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE_REPS = 5
PROBE_PERIOD_S = 0.25


def probe_once() -> float:
    """A fixed, stdlib-only Fraction workload (about 10 ms).  The host's
    speed swings by up to 2x within minutes; dividing a time by this probe,
    timed in the same process next to it, cancels most of that."""
    start = perf_counter()
    acc = Fraction(0)
    for k in range(1, 801):
        acc += Fraction(k, k + 1) * Fraction(2 * k + 1, 3 * k + 2)
    elapsed = perf_counter() - start
    if acc.denominator == 1:   # consume the result; never true
        raise AssertionError("probe arithmetic is wrong")
    return elapsed


def probe() -> list:
    return [probe_once() for _ in range(PROBE_REPS)]


class PassProbe:
    """Times the probe every PROBE_PERIOD_S during the pass, from a timer
    signal on the pass's own thread.  The pass is cut into segments at the
    ticks, and each segment is divided by the probe that ends it: the host's
    speed changes within a pass, and a single calibration for the whole pass
    left symbol-scan's ``wall_rel`` with ten times the spread.  ``spent`` is
    the time taken away from the pass."""

    def __init__(self) -> None:
        self.samples: list = []
        self.spent = 0.0
        self.rel = 0.0     # pass time over probe time, segments so far

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(probe_once())
        self.rel += (start - self._mark) / self.samples[-1]
        self._mark = perf_counter()
        self.spent += self._mark - start

    def __enter__(self):
        self._mark = perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.end = perf_counter()

    def wall_rel(self, after: list) -> float:
        """Add the last segment, closed by the probes after the pass."""
        return self.rel + (self.end - self._mark) / statistics.median(after)


def run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:   # a raising command is a failed command, not a crash
        return {"argv": argv, "exit": None, "stdout": out.getvalue(),
                "error": traceback.format_exc(limit=3)}
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def roundtrip(models, path):
    m = models.parse_model_file(path)
    printed = models.print_model(m)
    return {"path": path, "printed": printed,
            "reprinted": models.print_model(models.parse_model_text(printed))}


# ---------------------------------------------------------------------------
# micro-loops for the number and form layers (traced runs only)


def _per_op(fn, pairs, unit: float) -> float:
    """Median over 5 repetitions of the time per operation, in ``unit``."""
    reps = max(1, 4000 // len(pairs))
    times = []
    for _ in range(5):
        start = perf_counter()
        for _ in range(reps):
            for x, y in pairs:
                fn(x, y)
        times.append((perf_counter() - start) / (reps * len(pairs)))
    return statistics.median(times) / unit


def micro_metrics(tracer, loaded) -> dict:
    from hetmod import geometry
    from hetmod.scalars import Scalar

    rng = random.Random(0)
    gauss = list(tracer.gauss_pool)
    scal = list(tracer.scalar_pool)
    forms = []
    for m in loaded:
        gauss.extend(x for row in m.metric for x in row if x)
        for mf in m.d_coframe:
            forms.extend(f for _, f in mf.parts if f)
        forms.extend(f for row in m.curvature_F.comps for f in row if f)
        # the set-up copies; the pass ran on models that cli.main built
        forms.append(geometry.omega_form(m))
        if geometry.torsion(m):
            forms.append(geometry.torsion(m))
    scal.extend(c for f in forms for _, c in f.terms)
    scal = scal or [Scalar.of(1)]
    n = loaded[0].n

    def pairs(pool):
        return [(rng.choice(pool), rng.choice(pool)) for _ in range(256)]

    wedge_pairs = [(x, y) for x in forms for y in forms
                   if x.p + y.p <= n and x.q + y.q <= n]
    rng.shuffle(wedge_pairs)
    wedge_pairs = wedge_pairs[:64]
    return {
        "scalars.gaussrat_mul_ns": _per_op(lambda x, y: x * y, pairs(gauss),
                                           1e-9),
        "scalars.gaussrat_add_ns": _per_op(lambda x, y: x + y, pairs(gauss),
                                           1e-9),
        "scalars.scalar_mul_ns": _per_op(lambda x, y: x * y, pairs(scal),
                                         1e-9),
        "exterior.wedge_us": _per_op(lambda x, y: x.wedge(y), wedge_pairs,
                                     1e-6),
        "exterior.conjugate_us": _per_op(lambda x, y: x.conjugate(),
                                         [(f, None) for f in forms], 1e-6),
    }


# ---------------------------------------------------------------------------


def main() -> int:
    # the probe also runs before set-up, in this process, and ``pre_span``
    # (its time) is taken out of the set-up time the parent measures
    t0 = perf_counter()
    pre = probe()
    pre_span = perf_counter() - t0
    job = json.loads(sys.argv[1])
    proto = sys.stdout
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hetmod.cli
    from hetmod import models

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    loaded = [models.builtin_model(spec) if kind == "builtin"
              else models.parse_model_file(spec)
              for kind, spec in job["load"]]
    proto.write("ready\n")
    proto.flush()
    before = probe()
    out = {"pre_span": pre_span,
           "setup_calib_s": statistics.mean([statistics.median(pre),
                                             statistics.median(before)])}
    if job.get("setup_only"):
        proto.write(json.dumps(out) + "\n")
        return 0

    with PassProbe() as during:
        start = perf_counter()
        results = [run_command(hetmod.cli, argv) for argv in job["commands"]]
    end = during.end   # the timer is off: ``spent`` is final
    after = probe()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out.update({
        "wall_s": end - start - during.spent,
        "wall_rel": during.wall_rel(after),
        "calib_s": statistics.median(before + during.samples + after),
        "peak_rss_mb": rss_mb,
        "commands": results,
    })
    if tracer is not None:
        # before the round trips below, whose model parsing is the oracle's
        layers = tracer.layer_metrics(start, end)
        layers.update(micro_metrics(tracer, loaded))
        out["layers"] = layers
        tracer.write(job["spans"])
    out["roundtrip"] = [roundtrip(models, p) for p in job.get("roundtrip", ())]
    proto.write(json.dumps(out) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
