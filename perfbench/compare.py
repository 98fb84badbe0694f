"""Compare two sweeps (``sweep.py`` output) of the end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/compare.py PARENT.json CHANGE.json

Prints one row per workload and metric: the parent's and the change's
median, the ratio change/parent, the parent's own spread and the bound from
``BENCHMARK.json``.  A row is flagged ``WORSE`` when the change's median
is worse than the parent's by more than the bound, and ``unresolved`` when
the parent's spread is wider than the bound.  Two sweeps made with
different ``run_seconds`` are refused.  Raw ``wall_s`` is shown for
information only: it follows the host's speed, which drifts by up to 2x
within minutes, so it has no bound; ``wall_rel`` is its drift-corrected,
bounded form.  A ``failed_frac`` row per workload
gives failed/attempted commands on each side.  Exits 1 if any row is
``WORSE`` or the change has a failed command.
"""

from __future__ import annotations

import json
import sys

from run import load_benchmark


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        parent = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        change = json.load(fh)
    if parent["run_seconds"] != change["run_seconds"]:
        sys.stderr.write(f"error: run_seconds differ: {parent['run_seconds']} "
                         f"vs {change['run_seconds']}\n")
        return 2
    defs = load_benchmark()["end_to_end"]
    bad = False
    print(f"{'workload':18s} {'metric':12s} {'parent':>11s} {'change':>11s} "
          f"{'ratio':>7s} {'spread':>7s} {'bound':>6s}  flag")
    for wl in parent["summary"]:
        if wl not in change["summary"]:
            print(f"{wl:18s} missing from {argv[1]}")
            continue
        for d in defs:
            p = parent["summary"][wl][d["name"]]
            c = change["summary"][wl][d["name"]]
            ratio = c["median"] / p["median"]
            worse = (ratio - 1 if d["better"] == "lower" else 1 - ratio)
            flag = "ok"
            if worse > d["bound"]:
                flag, bad = "WORSE", True
            elif p.get("spread", 0.0) > d["bound"]:
                flag = "unresolved"
            print(f"{wl:18s} {d['name']:12s} {p['median']:11.5g} "
                  f"{c['median']:11.5g} {ratio:7.3f} "
                  f"{p.get('spread', 0.0):7.3f} {d['bound']:6.2f}  {flag}")
        p, c = (side["summary"][wl]["wall_s (not bounded)"]
                for side in (parent, change))
        print(f"{wl:18s} {'wall_s':12s} {p['median']:11.5g} "
              f"{c['median']:11.5g} {c['median'] / p['median']:7.3f} "
              f"{p['spread']:7.3f} {'':6s}  info: follows the host's speed")
        fracs = []
        for side in (parent, change):
            rows = side["runs"][wl]
            fracs.append(sum(r["failed"] for r in rows)
                         / sum(r["attempted"] for r in rows))
        flag = "ok" if fracs[1] == 0 else "FAILED"
        bad = bad or fracs[1] != 0
        print(f"{wl:18s} {'failed_frac':12s} {fracs[0]:11.5g} "
              f"{fracs[1]:11.5g} {'':7s} {'':7s} {'':6s}  {flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
