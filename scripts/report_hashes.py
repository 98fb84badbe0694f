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
2 with an ``error:`` line), and for ``a^0`` and ``-4 -0 i``, which read as
1 and -4 (a reader that refuses a lone ``a^0``, or whose number tokens
carry a sign, exits 2 on them, so these two lines differ from its lines
by design); ``trivialize iwasawa --degree`` 0..4
and 6; ``trivialize iwasawa --degree 3`` at alpha' = 0, 1 and 1/7, and
``--degree 6`` at 0 and 1/7, where the anomaly does not balance, so the
chart identity fails (exit 1) and the report names its first failing
section; and ``serre``, ``serre --alpha-prime 0``, ``cohomology --samples
50``, ``cohomology --samples 50 --diagonal-dbar``, ``symbol``, ``symbol
--alpha-prime 2 --samples 400``, ``symbol`` at alpha' = 1 and -1,
``symbol --samples`` at one below, at and one above the scan's block size
``cohomology.SCAN_BLOCK``, ``trivialize --degree 1`` and ``trivialize
--degree 3`` on each model file given (``scripts/scale_models.py`` writes
larger ones, with charts; ``kt-t1``, whose scan fails at alpha' = 1,
-1 and 2 and which has no chart; and ``dense4r2``, whose dense rational
metric gives its Gram factors large denominators; ``symbol`` scans all
7^n - 1 samples,
about 0.05 s for the 16,806 of ``iwasawa-t2`` at n = 5 on a 2-vCPU Xeon,
and seven times as many per step of n).  Then ``check`` on
each model file of ``REFUSALS``, a built-in's file with one field
malformed or ambiguous, written to a temporary directory; these lines read
``check refusal:LABEL``, and a refusal exits 2 with an ``error:`` line.
Then ``check`` on each model file of ``RESPELLED``, a built-in's file with
one ``d`` wedge or ``F`` key written antiholomorphic leg first and its
coefficient negated, or with every constant spelled another way of
``SPELLINGS`` (such as ``(1/2)``, ``+1/2``, ``1/2 + 0 i``, ``2/4 + 0/2 i``
and ``- 1/4 i``), which is the same model; these lines read ``check respelled:LABEL``
and hash as the built-in's own ``check`` line.  Then ``trivialize
--degree 3`` on each file of ``RESPELLED_CHARTS``, a built-in's file with
one chart pullback spelled another way; these lines read ``trivialize
respelled:LABEL --degree 3`` and hash as the built-in's own ``trivialize
NAME --degree 3`` line.
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
from hetmod.cohomology import SCAN_BLOCK
from hetmod.linalg import CERT_P
from hetmod.models import (
    BUILTIN_NAMES,
    builtin_model,
    model_to_json,
    parse_model_file,
    print_model,
)
from hetmod.scalars import parse_gauss

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
    ("wedge-repeated-leg", "iwasawa",
     lambda d: d["d"]["a3"][0].update(wedge=["a1", "a1"])),
    ("F-two-spellings", "iwasawa",
     lambda d: d["bundle"]["F"].update(
         {"ab1^a1": d["bundle"]["F"]["a1^ab1"]})),
)


def _respell_d(leg, wedge):
    """Edit: the d term of ``leg`` on ``wedge`` with its two legs swapped
    and its coefficient negated."""
    def edit(data):
        term = next(t for t in data["d"][leg] if t["wedge"] == wedge)
        term.update(wedge=wedge[::-1], coeff=str(-parse_gauss(term["coeff"])))
    return edit


def _respell_F(key):
    """Edit: the F key ``key`` with its two legs swapped and every entry of
    its array negated."""
    def edit(data):
        fmap = data["bundle"]["F"]
        holo, anti = key.split("^")
        fmap[f"{anti}^{holo}"] = [[str(-parse_gauss(x)) for x in row]
                                  for row in fmap.pop(key)]
    return edit


def _respell_constants(spell):
    """Edit: every constant of the model file written as ``spell`` writes
    its value."""
    def text(x):
        return spell(parse_gauss(x))

    def edit(data):
        data["metric"] = [[text(x) for x in row] for row in data["metric"]]
        for terms in data["d"].values():
            for term in terms:
                term["coeff"] = text(term["coeff"])
        fmap = data["bundle"]["F"]
        for key, rows in fmap.items():
            fmap[key] = [[text(x) for x in row] for row in rows]
        for key in ("omega_coeff", "alpha_prime"):
            if data[key] is not None:
                data[key] = text(data[key])
    return edit


# other spellings of a constant (a GaussRat): "(1/2)", "+1/2", "1/2 + 0 i",
# "2/4 + 0/2 i" and "- 1/4 i"
SPELLINGS = (
    ("parenthesized", lambda x: f"({x})"),
    ("plus", lambda x: f"+{x}"),
    ("both-parts", lambda x: f"{x.re} + {x.im} i"),
    ("unreduced", lambda x: f"{2 * x.a}/{2 * x.d} + {2 * x.b}/{2 * x.d} i"),
    ("spaced-sign", lambda x: str(x).replace("-", "- ")),
)


# (label, built-in, edit of its model file): the same model written with an
# antiholomorphic leg first, or with its constants spelled otherwise, so
# each checks as the built-in does
RESPELLED = (
    ("iwasawa-F-ab1-a1", "iwasawa", _respell_F("a1^ab1")),
    ("calabi-eckmann-d-a1", "calabi-eckmann",
     _respell_d("a1", ["a2", "ab2"])),
    ("calabi-eckmann-d-a3", "calabi-eckmann",
     _respell_d("a3", ["a3", "ab1"])),
) + tuple((f"{name}-{label}", name, _respell_constants(spell))
          for name in ("iwasawa", "calabi-eckmann")
          for label, spell in SPELLINGS)

# (label, built-in, edit of its model file): the same chart spelled
# otherwise, so each trivializes as the built-in does
RESPELLED_CHARTS = (
    ("iwasawa-chart-a3", "iwasawa", lambda d: d["chart"]["coframe_pullback"]
     .update(a3="- dz3 + 1 z1 dz2")),
)

# --alpha-prime values that read as 1 and -4
READ_ALPHAS = ("a^0", "-4 -0 i")


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
    for alpha in BAD_ALPHAS + READ_ALPHAS:
        yield ["check", "iwasawa", f"--alpha-prime={alpha}"]
    for degree in (0, 1, 2, 3, 4, 6):
        yield ["trivialize", "iwasawa", "--degree", str(degree)]
    for alpha in ("0", "1", "1/7"):
        yield ["trivialize", "iwasawa", "--degree", "3",
               "--alpha-prime", alpha]
    for alpha in ("0", "1/7"):
        yield ["trivialize", "iwasawa", "--degree", "6",
               "--alpha-prime", alpha]
    for path in files:
        yield ["serre", path]
        yield ["serre", path, "--alpha-prime", "0"]
        yield ["cohomology", path, "--samples", "50"]
        yield ["cohomology", path, "--samples", "50", "--diagonal-dbar"]
        yield ["symbol", path]
        yield ["symbol", path, "--alpha-prime", "2", "--samples", "400"]
        for alpha in ("1", "-1"):
            yield ["symbol", path, "--alpha-prime", alpha]
        for samples in (SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1):
            yield ["symbol", path, "--samples", str(samples)]
        yield ["trivialize", path, "--degree", "1"]
        yield ["trivialize", path, "--degree", "3"]


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
        for kind, argv, edits in (
                ("refusal", ["check"], REFUSALS),
                ("respelled", ["check"], RESPELLED),
                ("respelled", ["trivialize", "--degree", "3"],
                 RESPELLED_CHARTS)):
            for label, name, edit in edits:
                data = model_to_json(builtin_model(name))
                edit(data)
                path = os.path.join(tmp, label + ".json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
                print(argv[0], f"{kind}:{label}", *argv[1:],
                      *run(argv[:1] + [path] + argv[1:]), flush=True)
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
