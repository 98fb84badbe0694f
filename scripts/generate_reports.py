#!/usr/bin/env python3
"""Regenerate the JSON reports for every built-in model.

Writes one file per (model, subcommand) into the output directory, using the
same code path as the ``hetmod`` CLI so the files are byte-for-byte
reproducible.  ``tests/golden`` holds the files this script wrote, and
``tests/test_golden.py`` rebuilds them through ``reports`` and compares.

Usage:
    python3 scripts/generate_reports.py [--out-dir reports] [--samples N]
"""

import argparse
import json
import pathlib
import sys

from hetmod import chartlocal, cohomology
from hetmod.models import BUILTIN_NAMES, builtin_model
from hetmod.scalars import GaussRat


def render(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def reports(samples=None):
    """Yield (file name, report) for every built-in model."""
    for name in BUILTIN_NAMES:
        m = builtin_model(name)
        alpha = None if m.alpha_prime is not None else GaussRat.of(1)
        slug = name.replace("-", "_")
        yield f"{slug}_check.json", cohomology.system_report(m, alpha)
        yield f"{slug}_cohomology.json", cohomology.cohomology_report(
            m, alpha, symbol_limit=samples)
        yield f"{slug}_serre.json", cohomology.serre_report(m, alpha)
        if m.chart is not None:
            yield (f"{slug}_trivialization.json",
                   chartlocal.trivialization_report(m, degree=3))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="reports")
    ap.add_argument("--samples", type=int, default=None,
                    help="cap on cotangent samples for the symbol scan")
    args = ap.parse_args()
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fname, report in reports(args.samples):
        path = out / fname
        path.write_text(render(report), encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
