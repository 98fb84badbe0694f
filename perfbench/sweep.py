"""Repeated runs of the benchmark, with their spread.

Usage (from the repository root):

    python3 perfbench/sweep.py --runs 10 --out perfbench/baseline/NAME.json
        [--seed0 1] [--trace 0|1] [--label TEXT]

Runs ``run.py`` once per (seed, workload) for every workload and with the
``run_seconds`` of ``BENCHMARK.json``, seeds ``seed0 .. seed0+runs-1``,
going round the workloads for each seed so that slow drift of the host
touches every workload alike.  Writes every run's metrics and, per workload
and metric, the median, the quartiles and the spread (interquartile range
over the median, as ``statistics.quantiles(values, n=4)`` gives it).  A
``--trace 1`` sweep also checks that every count repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import load_benchmark, passes_file

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread_of(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(passes_file(workload, seed, bool(trace)),
              encoding="utf-8") as fh:
        passes = json.load(fh)["passes"]
    plain = [p for p in passes if not p["traced"]]
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            # raw pass wall time and the probe beside it, for the record
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "passes": [[p["wall_s"], p["calib_s"]] for p in plain]}


def summarize(bench: dict, runs: dict, trace: int) -> dict:
    defs = bench["per_layer"] if trace else bench["end_to_end"]
    out = {}
    for wl, rows in runs.items():
        out[wl] = {}
        for d in defs:
            values = [r["metrics"][d["name"]] for r in rows]
            s = spread_of(values) if len(values) > 1 else {
                "median": values[0]}
            if d.get("bound") is not None and "spread" in s:
                s["bound"] = d["bound"]
                s["within_third_of_bound"] = s["spread"] < d["bound"] / 3
            if d["unit"] == "count":
                s["repeats_exactly"] = len(set(values)) == 1
            out[wl][d["name"]] = s
        if len(rows) > 1:
            out[wl]["wall_s (not bounded)"] = spread_of(
                [r["wall_s"] for r in rows])
    return out


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default="")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    runs = {wl: [] for wl in names}
    for seed in range(args.seed0, args.seed0 + args.runs):
        for wl in names:
            row = run_once(wl, seed, bench["run_seconds"], args.trace)
            runs[wl].append(row)
            print(f"{wl:18s} seed {seed:3d} correct={row['correct']} "
                  + " ".join(f"{k}={v:.5g}" for k, v in row["metrics"].items()
                             if not args.trace),
                  flush=True)
    summary = summarize(bench, runs, args.trace)
    doc = {
        "label": args.label,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "trace": args.trace,
        "runs": runs,
        "summary": summary,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for wl, metrics in summary.items():
        for name, s in metrics.items():
            extra = ""
            if "spread" in s:
                extra = f" spread {s['spread']:.4f}"
            if "bound" in s:
                extra += (f" (bound {s['bound']}, "
                          f"{'ok' if s['within_third_of_bound'] else 'WIDE'})")
            if "repeats_exactly" in s:
                extra += " exact" if s["repeats_exactly"] else " VARIES"
            print(f"{wl:18s} {name:38s} median {s['median']:.6g}{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
