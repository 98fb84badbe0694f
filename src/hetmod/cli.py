"""Command-line front end.

Subcommands operate on a built-in model name or a model JSON file and emit a
deterministic JSON report (keys sorted, stable ordering).  Exit status: 0 when
every check in the report passes, 1 when some check fails, 2 on usage errors,
unknown models or malformed input.

One table, ``_COMMANDS``, gives each subcommand its help line, report
builder, verdict and options, and ``_parse`` reads the argument list against
it.  An option is given as ``--opt value`` or ``--opt=value``, may be
shortened to any unique prefix, and may be repeated (the last one wins); a
value after a space may be negative, as in ``--alpha-prime -1/7``.
``-h``/``--help`` prints the usage that the same table spells out.  The
reader is not argparse: argparse, and the shutil, gettext and locale modules
it loads on first use, cost a cold command about as much as a built-in
``check``.
"""

from __future__ import annotations

import json
import os
import sys

from . import chartlocal, cohomology
from .geometry import HomogeneousModel, ModelError, resolve_alpha
from .models import BUILTIN_NAMES, builtin_model, parse_model_file
from .scalars import GaussRat, ScalarError, parse_gauss

_DESCRIPTION = ("Exact invariant computations for the deformation operator "
                "of coupled\nmetric-bundle systems.")


def _load_model(spec: str) -> HomogeneousModel:
    if spec in BUILTIN_NAMES:
        return builtin_model(spec)
    if os.path.exists(spec):
        return parse_model_file(spec)
    raise ModelError(
        f"unknown model {spec!r}: not a built-in "
        f"({', '.join(BUILTIN_NAMES)}) and not a file")


def _parse_alpha(text: str | None) -> GaussRat | None:
    """The coupling, read as model files read a constant; it must be real."""
    if text is None:
        return None
    try:
        value = parse_gauss(text)
        if value.im:
            raise ScalarError("the coupling alpha' must be real")
    except ScalarError as exc:
        raise ModelError(f"bad --alpha-prime value {text!r}: {exc}")
    return value


def _int_at_least(least: int, why: str):
    """A converter: an integer >= least; ``why`` names the bound."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"not an integer: {text!r}") from None
        if value < least:
            raise ValueError(f"{why}, not {value}")
        return value
    return parse


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _symbol_report(m: HomogeneousModel, alpha: GaussRat | None,
                   opts: dict) -> dict:
    a0 = resolve_alpha(m, alpha)
    return {"model": m.name, "alpha_prime": str(a0),
            **cohomology.injectivity_scan(m, a0, limit=opts["--samples"])}


def _trivialize_passed(report: dict) -> bool:
    return (all(report["potentials"].values())
            and report["chern_simons_transgression"]
            and report["operator_identity"]["passed"]
            and report["transitions"]["holomorphic"]
            and report["transitions"]["cocycle"])


# option -> (metavar, converter, default, help); a flag has no metavar and
# is True when given.  --alpha-prime is read after the model is loaded, by
# _parse_alpha, so an unknown model is reported before a bad coupling.
_OPTIONS = {
    "--alpha-prime": ("p/q", str, None,
                      "coupling constant (rational, e.g. -4 or 1/7)"),
    "--out": ("report.json", str, None, "write the JSON report to a file"),
    "--samples": ("N", _int_at_least(1, "a scan needs at least one sample"),
                  None, "cap on cotangent samples for the symbol scan"),
    "--degree": ("D", _int_at_least(
                     0, "the degree bound must be non-negative"),
                 3, "polynomial degree bound for section checks"),
    "--diagonal-dbar": (None, None, False,
                        "drop the couplings and use the diagonal Dolbeault "
                        "operator"),
}
_COMMON = ("--alpha-prime", "--out")

# subcommand -> (help line, report builder, verdict, options beyond
# _COMMON); a builder takes the model, the parsed --alpha-prime and the
# options that _parse read
_COMMANDS = {
    "check": (
        "verify the coupled torsion and anomaly conditions",
        lambda m, alpha, _: cohomology.system_report(m, alpha),
        lambda report: report["passed"], ()),
    "cohomology": (
        "invariant cohomology and harmonic dimensions",
        lambda m, alpha, opts: cohomology.cohomology_report(
            m, alpha, symbol_limit=opts["--samples"],
            diagonal=opts["--diagonal-dbar"]),
        lambda report: (report["checks"]["passed"] and report["serre"]
                        and report["symbol"]["injective"]),
        ("--samples", "--diagonal-dbar")),
    "serre": (
        "duality symmetry of the dimensions",
        lambda m, alpha, _: {"model": m.name,
                             **cohomology.serre_report(m, alpha)},
        lambda report: report["symmetric"], ()),
    "symbol": (
        "principal symbol injectivity scan", _symbol_report,
        lambda report: report["injective"], ("--samples",)),
    "trivialize": (
        "local triangular trivialization on a polynomial chart",
        lambda m, alpha, opts: chartlocal.trivialization_report(
            m, degree=opts["--degree"], alpha0=alpha),
        _trivialize_passed, ("--degree",)),
}


class _UsageError(Exception):
    """A malformed argument list.  ``args`` are the subcommand whose usage
    it breaks (None for the top level) and the message."""


def _offered(command: str | None) -> tuple:
    if command is None:
        return ("--help",)
    return ("--help",) + _COMMON + _COMMANDS[command][3]


def _spelled(opt: str) -> str:
    metavar = _OPTIONS[opt][0]
    return opt if metavar is None else f"{opt} {metavar}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: hetmod [-h] {{{','.join(_COMMANDS)}}} ...\n"
    shown = "".join(f" [{_spelled(o)}]" for o in _offered(command)[1:])
    return f"usage: hetmod {command} [-h]{shown} model\n"


def _help(command: str | None) -> str:
    if command is None:
        about = _DESCRIPTION
        rows = [(name, spec[0]) for name, spec in _COMMANDS.items()]
    else:
        about = _COMMANDS[command][0]
        rows = [("model", "built-in model name or model JSON file")] + [
            (_spelled(o), _OPTIONS[o][3]) for o in _offered(command)[1:]]
    rows.append(("-h, --help", "show this help message and exit"))
    width = max(len(left) for left, _ in rows)
    body = "".join(f"  {left:<{width}}  {text}\n" for left, text in rows)
    return f"{_usage(command)}\n{about}\n\n{body}"


def _is_option(token: str) -> bool:
    """A token that names an option; '-4', '-1/7' and '-' are values."""
    return len(token) > 1 and token[0] == "-" and token[1] not in "0123456789."


def _option(token: str, command: str | None):
    """The option that ``token`` names, in full, and the value given after
    '=' in it, or None."""
    name, eq, value = token.partition("=")
    offered = _offered(command)
    if name == "-h" or name in offered:
        hits = ["--help" if name == "-h" else name]
    elif name.startswith("--") and len(name) > 2:
        hits = [o for o in offered if o.startswith(name)]
    else:
        hits = []
    if len(hits) > 1:
        raise _UsageError(command, f"ambiguous option: {name} could match "
                                   f"{', '.join(hits)}")
    if not hits:
        raise _UsageError(command, f"unrecognized arguments: {token}")
    return hits[0], (value if eq else None)


def _parse(argv: list):
    """The subcommand named by ``argv`` and its options: a dict from each
    option the subcommand takes to its value, and from "model" to the
    model.  The options are None when ``argv`` asks for help; a malformed
    ``argv`` raises _UsageError."""
    if not argv:
        raise _UsageError(None, "the following arguments are required: "
                                "command")
    command = argv[0]
    if _is_option(command):
        _option(command, None)      # raises unless it asks for help
        return None, None
    if command not in _COMMANDS:
        raise _UsageError(None, f"argument command: invalid choice: "
                                f"{command!r} (choose from "
                                f"{', '.join(_COMMANDS)})")
    opts = {o: _OPTIONS[o][2] for o in _offered(command)[1:]}
    positional = []
    rest = iter(argv[1:])
    for token in rest:
        if token == "--":
            positional.extend(rest)
        elif not _is_option(token):
            positional.append(token)
        else:
            opt, value = _option(token, command)
            if opt == "--help":
                return command, None
            metavar, convert, _, _ = _OPTIONS[opt]
            if metavar is None:
                if value is not None:
                    raise _UsageError(command, f"argument {opt}: ignored "
                                               f"explicit argument {value!r}")
                opts[opt] = True
                continue
            if value is None:
                value = next(rest, None)
                if value is None or _is_option(value):
                    raise _UsageError(command, f"argument {opt}: expected "
                                               f"one argument")
            try:
                opts[opt] = convert(value)
            except ValueError as exc:
                raise _UsageError(command, f"argument {opt}: {exc}")
    if not positional:
        raise _UsageError(command, "the following arguments are required: "
                                   "model")
    if len(positional) > 1:
        raise _UsageError(command, f"unrecognized arguments: "
                                   f"{' '.join(positional[1:])}")
    opts["model"] = positional[0]
    return command, opts


def _run(command: str, opts: dict) -> int:
    """Load the model, build the subcommand's report, emit it and judge
    it."""
    _, build, verdict, _ = _COMMANDS[command]
    m = _load_model(opts["model"])
    report = build(m, _parse_alpha(opts["--alpha-prime"]), opts)
    _emit(report, opts["--out"])
    return 0 if verdict(report) else 1


def main(argv=None) -> int:
    try:
        command, opts = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        command, message = exc.args
        prog = "hetmod" if command is None else f"hetmod {command}"
        sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
        return 2
    if opts is None:
        sys.stdout.write(_help(command))
        return 0
    try:
        return _run(command, opts)
    except (ModelError, ScalarError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
