"""Command-line front end.

Subcommands operate on a built-in model name or a model JSON file and emit a
deterministic JSON report (keys sorted, stable ordering).  Exit status: 0 when
every check in the report passes, 1 when some check fails, 2 on usage errors,
unknown models or malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import Optional

from . import chartlocal, cohomology
from .geometry import HomogeneousModel, ModelError
from .models import BUILTIN_NAMES, builtin_model, parse_model_file
from .scalars import GaussRat, ScalarError


def _load_model(spec: str) -> HomogeneousModel:
    if spec in BUILTIN_NAMES:
        return builtin_model(spec)
    if os.path.exists(spec):
        return parse_model_file(spec)
    raise ModelError(
        f"unknown model {spec!r}: not a built-in "
        f"({', '.join(BUILTIN_NAMES)}) and not a file")


def _parse_alpha(text: Optional[str]) -> Optional[GaussRat]:
    if text is None:
        return None
    try:
        return GaussRat.of(text)
    except (ScalarError, ValueError) as exc:
        raise ModelError(f"bad --alpha-prime value {text!r}: {exc}")


def _int_at_least(least: int, why: str):
    """An argparse type: an integer >= least; ``why`` names the bound."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"{why}, not {value}")
        return value
    return parse


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _symbol_report(m: HomogeneousModel, alpha: Optional[GaussRat],
                   args) -> dict:
    a0 = cohomology.resolve_alpha(m, alpha)
    return {"model": m.name, "alpha_prime": str(a0),
            **cohomology.injectivity_scan(m, a0, limit=args.samples)}


def _trivialize_passed(report: dict) -> bool:
    return (all(report["potentials"].values())
            and report["chern_simons_transgression"]
            and report["operator_identity"]["passed"]
            and report["transitions"]["holomorphic"]
            and report["transitions"]["cocycle"])


def _run(args) -> int:
    """Load the model, build the subcommand's report (``args.build``), emit
    it and judge it (``args.verdict``)."""
    m = _load_model(args.model)
    report = args.build(m, _parse_alpha(args.alpha_prime), args)
    _emit(report, args.out)
    return 0 if args.verdict(report) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one
    in the process; argparse keeps no state between ``parse_args`` calls."""
    parser = argparse.ArgumentParser(
        prog="hetmod",
        description="Exact invariant computations for the deformation "
                    "operator of coupled metric-bundle systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, build, verdict, samples=False, degree=False,
            diagonal=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model",
                       help="built-in model name or model JSON file")
        p.add_argument("--alpha-prime", metavar="p/q", default=None,
                       help="coupling constant (rational, e.g. -4 or 1/7)")
        if samples:
            p.add_argument("--samples", default=None, metavar="N",
                           type=_int_at_least(
                               1, "a scan needs at least one sample"),
                           help="cap on cotangent samples for the symbol "
                                "scan")
        p.add_argument("--out", metavar="report.json", default=None,
                       help="write the JSON report to a file")
        if degree:
            p.add_argument("--degree", default=3, metavar="D",
                           type=_int_at_least(
                               0, "the degree bound must be non-negative"),
                           help="polynomial degree bound for section checks")
        if diagonal:
            p.add_argument("--diagonal-dbar", action="store_true",
                           help="drop the couplings and use the diagonal "
                                "Dolbeault operator")
        p.set_defaults(build=build, verdict=verdict)

    add("check", "verify the coupled torsion and anomaly conditions",
        lambda m, alpha, _: cohomology.system_report(m, alpha),
        lambda report: report["passed"])
    add("cohomology", "invariant cohomology and harmonic dimensions",
        lambda m, alpha, args: cohomology.cohomology_report(
            m, alpha, symbol_limit=args.samples, diagonal=args.diagonal_dbar),
        lambda report: (report["checks"]["passed"] and report["serre"]
                        and report["symbol"]["injective"]),
        samples=True, diagonal=True)
    add("serre", "duality symmetry of the dimensions",
        lambda m, alpha, _: {"model": m.name,
                             **cohomology.serre_report(m, alpha)},
        lambda report: report["symmetric"])
    add("symbol", "principal symbol injectivity scan", _symbol_report,
        lambda report: report["injective"], samples=True)
    add("trivialize", "local triangular trivialization on a polynomial chart",
        lambda m, alpha, args: chartlocal.trivialization_report(
            m, degree=args.degree, alpha0=alpha),
        _trivialize_passed, degree=True)
    return parser


def _join_negative_values(argv):
    """``--alpha-prime -1/7`` as ``--alpha-prime=-1/7``.  argparse takes a
    token that starts with '-' for an option unless it is a plain negative
    number such as -4, so a negative fraction given after a space would
    lose its option."""
    out = []
    for tok in argv:
        if (out and len(out[-1]) > 2 and "--alpha-prime".startswith(out[-1])
                and re.match(r"-[0-9.]", tok)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _run(args)
    except (ModelError, ScalarError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
