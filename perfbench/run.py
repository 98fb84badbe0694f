"""hetmod benchmark: time to verdict, one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in a closed loop: each pass is a fresh child interpreter
(``child.py``) that imports ``hetmod``, loads the workload's models, then
runs the workload's commands one after another through ``hetmod.cli.main``.
Passes repeat until ``--seconds`` is used up (at least one).  Every verdict
is checked against ``workloads.py``'s oracle.

``--trace 0`` first starts children that only set up, then the passes, and
reports the end-to-end metrics (medians over the children);
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  The last line of stdout is the JSON result; spans, the
generated models and the per-pass records go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RUN_LIMIT_S = 170.0       # a run must end within 180 s
SETUP_SAMPLES = 15        # children that only set up, besides the passes


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong verdict)."""


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def declared(values: dict, kind: str) -> dict:
    """``values`` as result metrics, with the units BENCHMARK.json declares
    under ``kind``; every declared metric must have been measured."""
    units = {m["name"]: m["unit"] for m in load_benchmark()[kind]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def spawn(job: dict, deadline: float):
    """Run one child; returns (setup seconds, parsed result)."""
    start = perf_counter()
    # -S: site-packages, which hetmod does not use, stays out of set-up
    proc = subprocess.Popen([sys.executable, "-S", CHILD, json.dumps(job)],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        if ready.strip() != "ready":
            raise BenchError("child failed during set-up")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("child ran past the run's time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}")
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError("child printed no result")
    res = json.loads(lines[-1])
    return setup - res["pre_span"], res


def out_dir(workload: str, seed: int) -> str:
    return os.path.join(HERE, "out", f"{workload}-seed{seed}")


def passes_file(workload: str, seed: int, trace: bool) -> str:
    return os.path.join(out_dir(workload, seed),
                        f"passes-trace{int(trace)}.json")


def make_job(wl, outdir: str, trace: bool, index: int,
             setup_only: bool = False) -> dict:
    return {
        "commands": [c.argv for c in wl.commands],
        "load": wl.load,
        "trace": trace,
        "setup_only": setup_only,
        "roundtrip": list(wl.generated),
        "spans": os.path.join(outdir, f"spans-{index}.jsonl"),
    }


def problems_of(wl, res: dict) -> list:
    """Disagreements per command, plus the model round trips."""
    per_cmd = workloads.judge(wl, res["commands"])
    for rt in res["roundtrip"]:
        bad = workloads.roundtrip_problems(wl.generated[rt["path"]],
                                           rt["printed"], rt["reprinted"])
        for cmd, problems in zip(wl.commands, per_cmd):
            if rt["path"] in cmd.argv:
                problems.extend(f"round trip: {p}" for p in bad)
    return per_cmd


def run(wl, outdir: str, seconds: float, trace: bool) -> dict:
    t0 = perf_counter()
    deadline = t0 + RUN_LIMIT_S
    passes, setups = [], []
    attempted = failed = 0
    first_problem = None
    # set-up samples first (end-to-end runs only); the passes get the rest
    for _ in range(0 if trace else SETUP_SAMPLES):
        setup, res = spawn(make_job(wl, outdir, False, 0, setup_only=True),
                           deadline)
        setups.append([setup, res["setup_calib_s"]])
    t1 = perf_counter()
    # untraced passes only, or untraced and traced passes in turn
    modes = [False, True] if trace else [False]
    while True:
        for mode in modes:
            setup, res = spawn(make_job(wl, outdir, mode, len(passes)),
                               deadline)
            res["traced"] = mode
            res["setup_s"] = setup
            if not mode:
                setups.append([setup, res["setup_calib_s"]])
            problems = problems_of(wl, res)
            attempted += len(problems)
            bad = [p for p in problems if p]
            failed += len(bad)
            if bad and first_problem is None:
                first_problem = bad[0][0]
            passes.append(res)
        now = perf_counter()
        round_s = (now - t1) / (len(passes) // len(modes))
        if now - t0 + round_s > seconds:
            break
    with open(passes_file(wl.name, wl.seed, trace), "w",
              encoding="utf-8") as fh:
        json.dump({"seed": wl.seed, "workload": wl.name, "setup_s": setups,
                   "passes": [{k: v for k, v in p.items()
                               if k not in ("commands", "roundtrip")}
                              for p in passes]}, fh, indent=1)
    if first_problem:
        sys.stderr.write(f"wrong verdict: {first_problem}\n")
    return {"passes": passes, "setups": setups, "attempted": attempted,
            "failed": failed}


def end_to_end(r: dict) -> dict:
    passes = r["passes"]
    med = statistics.median
    values = {
        "wall_rel": med(p["wall_rel"] for p in passes),
        "setup_s": med(s for s, _ in r["setups"]),
        "setup_rel": med(s / c for s, c in r["setups"]),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }
    return declared(values, "end_to_end")


def per_layer(r: dict) -> dict:
    traced = [p for p in r["passes"] if p["traced"]]
    plain = [p for p in r["passes"] if not p["traced"]]
    med = statistics.median
    values = {}
    for name in traced[0]["layers"]:
        samples = [p["layers"][name] for p in traced]
        if isinstance(samples[0], int):   # a count: must repeat exactly
            if len(set(samples)) > 1:
                raise BenchError(f"count {name} differs between passes: "
                                 f"{samples}")
            values[name] = samples[0]
        else:
            values[name] = med(samples)
    values["trace.overhead_frac"] = (med(p["wall_rel"] for p in traced)
                                     / med(p["wall_rel"] for p in plain) - 1)
    values["host.calib_s"] = med(p["calib_s"] for p in r["passes"])
    return declared(values, "per_layer")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hetmod", "cli.py")):
        sys.stderr.write("error: src/hetmod not found next to perfbench/\n")
        return 1
    outdir = out_dir(args.workload, args.seed)
    os.makedirs(outdir, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, outdir)
    try:
        r = run(wl, outdir, args.seconds, bool(args.trace))
        metrics = per_layer(r) if args.trace else end_to_end(r)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print(f"# workload {wl.name} seed {wl.seed}: {len(r['passes'])} passes, "
          f"{r['attempted']} commands, failed_frac "
          f"{r['failed'] / r['attempted']:.4g}")
    # raw wall time follows the host's speed; reported, but not bounded
    wall = statistics.median(p["wall_s"] for p in r["passes"]
                             if not p["traced"])
    print(f"#   {'wall_s (median pass, not bounded)':40s} {wall:.6g} s")
    for name, m in metrics.items():
        print(f"#   {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": r["failed"] == 0,
                      "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
