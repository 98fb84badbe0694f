#!/usr/bin/env python3
"""Hash the output of a fixed list of hetmod commands.

Runs each command in this process through ``hetmod.cli.main`` and prints one
line per command: the argv, the exit code, and the sha256 of stdout and of
stderr.  Two trees whose reports are byte-identical print identical lines,
so diffing this script's output between two versions checks that a change
left every report, message and exit code as it was.

The list: ``check``, ``serre``, ``cohomology`` and ``symbol`` on the
built-ins at the default alpha' and at 0, 1, -4 and 1/7; ``cohomology NAME
--diagonal-dbar`` on each built-in; ``trivialize iwasawa --degree`` 0..4
and 6; ``trivialize iwasawa --degree 3`` at alpha' = 0, 1 and 1/7, where the
anomaly does not balance, so the chart identity fails (exit 1) and the
report names its first failing section; and ``serre``, ``serre
--alpha-prime 0``, ``cohomology --samples 50`` and ``cohomology --samples
50 --diagonal-dbar`` on each model file given (``scripts/scale_models.py``
writes larger ones).  Then one line ``print_model SPEC sha256`` for each
built-in and each model file: no report shows how a model prints, and its
text depends on the order of the parts and terms that the model's forms
hold.

Usage:
    PYTHONPATH=src python3 scripts/report_hashes.py [model.json ...]
"""

import contextlib
import hashlib
import io
import sys

from hetmod import cli
from hetmod.models import (
    BUILTIN_NAMES,
    builtin_model,
    parse_model_file,
    print_model,
)

ALPHAS = (None, "0", "1", "-4", "1/7")


def commands(files):
    for name in BUILTIN_NAMES:
        for sub in ("check", "serre", "cohomology", "symbol"):
            for alpha in ALPHAS:
                yield [sub, name] + ([] if alpha is None
                                     else ["--alpha-prime", alpha])
    for name in BUILTIN_NAMES:
        yield ["cohomology", name, "--diagonal-dbar"]
    for degree in (0, 1, 2, 3, 4, 6):
        yield ["trivialize", "iwasawa", "--degree", str(degree)]
    for alpha in ("0", "1", "1/7"):
        yield ["trivialize", "iwasawa", "--degree", "3",
               "--alpha-prime", alpha]
    for path in files:
        yield ["serre", path]
        yield ["serre", path, "--alpha-prime", "0"]
        yield ["cohomology", path, "--samples", "50"]
        yield ["cohomology", path, "--samples", "50", "--diagonal-dbar"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(files) -> int:
    for argv in commands(files):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        print(" ".join(argv), code, digest(out.getvalue()),
              digest(err.getvalue()), flush=True)
    for name in BUILTIN_NAMES:
        print("print_model", name, digest(print_model(builtin_model(name))))
    for path in files:
        print("print_model", path, digest(print_model(parse_model_file(path))),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
