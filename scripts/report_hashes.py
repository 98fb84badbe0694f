#!/usr/bin/env python3
"""Hash the output of a fixed list of hetmod commands.

Runs each command in this process through ``hetmod.cli.main`` and prints one
line per command: the argv, the exit code, and the sha256 of stdout and of
stderr.  Two trees whose reports are byte-identical print identical lines,
so diffing this script's output between two versions checks that a change
left every report, message and exit code as it was.

The list: ``check``, ``serre``, ``cohomology`` and ``symbol`` on the
built-ins at the default alpha' and at 0, 1, -4 and 1/7; ``cohomology NAME
--diagonal-dbar``, at the default alpha' and at 1/7 (the decoupled view's
dims carry no alpha', the rest of the report does), and ``symbol NAME
--alpha-prime 1/1000000009`` on each built-in (the prime is
``linalg.CERT_P``: where alpha' R is nonzero, as on calabi-eckmann, it
divides the denominator of alpha' R, so every sample is decided by the
exact rank over Q(i)); ``check iwasawa --alpha-prime=VALUE`` for values
that a model file refuses as a constant or that are not real (each exits
2 with an ``error:`` line); ``trivialize iwasawa --degree`` 0..4
and 6; ``trivialize iwasawa --degree 3`` at alpha' = 0, 1 and 1/7, where the
anomaly does not balance, so the chart identity fails (exit 1) and the
report names its first failing section; and ``serre``, ``serre
--alpha-prime 0``, ``cohomology --samples 50``, ``cohomology --samples
50 --diagonal-dbar``, ``symbol``, ``symbol --alpha-prime 2 --samples
400`` and ``trivialize --degree 1`` on each model file given
(``scripts/scale_models.py`` writes larger ones, with charts, and
``kt-t1``, whose scan fails and which has no chart; ``symbol`` scans all
7^n - 1 samples, about 0.1 s for the 16,806 of ``iwasawa-t2`` at n = 5 on
a 2-vCPU Xeon, and seven times as many per step of n).  Then ``check`` on
each model file of ``REFUSALS``, a built-in's file with one field
malformed or ambiguous, written to a temporary directory; these lines read
``check refusal:LABEL``, and a refusal exits 2 with an ``error:`` line.
An exception that escapes ``cli.main`` is printed as its type and message,
with exit code 1, as an uncaught error would exit.  Last, one line
``print_model SPEC sha256`` for each built-in and each model file: no
report shows how a model prints, and its text depends on the order of the
parts and terms that the model's forms hold.  Last of all, the commands on
the built-ins run again in reverse order in this process, and one line
``repeat: identical``, or ``repeat:`` with the first argv whose line
differs from its first run, checks that nothing kept from one command (a
cache, the parser) changes another's output.

Usage:
    PYTHONPATH=src python3 scripts/report_hashes.py [model.json ...]
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from hetmod import cli
from hetmod.linalg import CERT_P
from hetmod.models import (
    BUILTIN_NAMES,
    builtin_model,
    model_to_json,
    parse_model_file,
    print_model,
)

ALPHAS = (None, "0", "1", "-4", "1/7")

# --alpha-prime values outside the constant syntax of model files, or not
# real
BAD_ALPHAS = ("-4_0", "-4.0", "-4e0", "i", "1 + i")

# (label, built-in, edit of its model file)
REFUSALS = (
    ("bundle-F-list", "torus", lambda d: d["bundle"].update(F=[])),
    ("F-row-not-a-list", "torus",
     lambda d: d["bundle"]["F"].update({"a1^ab1": [5, ["0", "0"]]})),
    ("wedge-entry-list", "iwasawa",
     lambda d: d["d"]["a3"][0].update(wedge=[["a1"], "a2"])),
    ("wedge-string", "iwasawa",
     lambda d: d["d"]["a3"][0].update(wedge="a1a2")),
    ("coframe-entry-list", "torus",
     lambda d: d.update(coframe=[["a"], "b", "c"])),
    ("name-null", "torus", lambda d: d.update(name=None)),
    ("coframe-conjugate-name", "torus",
     lambda d: d.update(coframe=["a1", "a2", "ab1"])),
    ("pullback-stray-name", "iwasawa",
     lambda d: d["chart"]["coframe_pullback"].update(b7="dz1")),
    ("metric-not-hermitian", "torus",
     lambda d: d["metric"][0].__setitem__(1, "1")),
    ("coefficient-with-a", "torus",
     lambda d: d["metric"][0].__setitem__(0, "a")),
)


def commands(files):
    for name in BUILTIN_NAMES:
        for sub in ("check", "serre", "cohomology", "symbol"):
            for alpha in ALPHAS:
                yield [sub, name] + ([] if alpha is None
                                     else ["--alpha-prime", alpha])
    for name in BUILTIN_NAMES:
        yield ["cohomology", name, "--diagonal-dbar"]
        yield ["cohomology", name, "--diagonal-dbar", "--alpha-prime", "1/7"]
        yield ["symbol", name, "--alpha-prime", f"1/{CERT_P}"]
    for alpha in BAD_ALPHAS:
        yield ["check", "iwasawa", f"--alpha-prime={alpha}"]
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
        yield ["symbol", path]
        yield ["symbol", path, "--alpha-prime", "2", "--samples", "400"]
        yield ["trivialize", path, "--degree", "1"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv):
    """The exit code and the digests of stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, digest(out.getvalue()), digest(err.getvalue())


def main(files) -> int:
    first = {}
    for argv in commands(files):
        first[tuple(argv)] = run(argv)
        print(" ".join(argv), *first[tuple(argv)], flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for label, name, edit in REFUSALS:
            data = model_to_json(builtin_model(name))
            edit(data)
            path = os.path.join(tmp, label + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            print("check", "refusal:" + label, *run(["check", path]),
                  flush=True)
    for name in BUILTIN_NAMES:
        print("print_model", name, digest(print_model(builtin_model(name))))
    for path in files:
        print("print_model", path, digest(print_model(parse_model_file(path))),
              flush=True)
    differ = next((argv for argv in reversed(list(commands(())))
                   if run(argv) != first[tuple(argv)]), None)
    print("repeat:", "identical" if differ is None else " ".join(differ))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
