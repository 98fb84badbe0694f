"""Workload definitions, the seeded model generator and the verdict oracle.

This module never imports ``hetmod``: the inputs it writes and the verdicts
it expects come from values fixed by hand (README examples and the pinned
numbers in the test suite) or from arguments that do not go through the code
under test (ellipticity of the flat Dolbeault symbol, the Hodge isomorphism,
Serre duality on flat models, counting formulas for samples and sections).

Deliberately not pinned, because planned correctness work changes them: the
``"arbitrary"`` coupling label, residual strings, and the exit code of
``cohomology`` on a model whose ``check`` fails.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, Dict, List, Optional, Tuple

NAMES = ("symbol-scan", "complex-builtin", "complex-generated", "chart")

GENERATED_MODELS = 2     # models per complex-generated pass
GENERATED_SAMPLES = 4    # --samples for cohomology on generated models
CHART_DEGREE = 4

Oracle = Callable[[Optional[int], Optional[dict]], List[str]]


@dataclass
class Command:
    argv: List[str]
    oracle: Oracle
    group: Optional[str] = None     # commands of one group share dimensions


@dataclass
class Workload:
    name: str
    seed: int
    commands: List[Command]
    load: List[Tuple[str, str]]               # ("builtin"|"file", name/path)
    generated: Dict[str, dict] = field(default_factory=dict)  # path -> JSON


# ---------------------------------------------------------------------------
# oracle helpers: each returns a list of disagreements (empty when correct)


def _expect(problems: List[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _base(code: Optional[int], report: Optional[dict],
          exit_code: Optional[int]) -> List[str]:
    """Common checks: a report was printed; the exit code is pinned when
    ``exit_code`` is given and otherwise only has to be a verdict (0/1)."""
    problems: List[str] = []
    if report is None:
        problems.append(f"no JSON report (exit {code})")
    if exit_code is None:
        if code not in (0, 1):
            problems.append(f"exit {code}, expected a verdict exit 0 or 1")
    else:
        _expect(problems, "exit code", code, exit_code)
    return problems


def check_oracle(exit_code: int, passed: bool,
                 conditions: Dict[str, bool]) -> Oracle:
    def oracle(code, report):
        problems = _base(code, report, exit_code)
        if report is None:
            return problems
        _expect(problems, "passed", report.get("passed"), passed)
        conds = report.get("conditions", {})
        for name, ok in conditions.items():
            _expect(problems, f"conditions.{name}.passed",
                    conds.get(name, {}).get("passed"), ok)
        return problems
    return oracle


def serre_oracle(exit_code: Optional[int], h: Optional[List[int]],
                 symmetric: bool) -> Oracle:
    def oracle(code, report):
        problems = _base(code, report, exit_code)
        if report is None:
            return problems
        got_h = report.get("h")
        if h is not None:
            _expect(problems, "h", got_h, h)
        elif not isinstance(got_h, list) or len(got_h) != 4:
            problems.append(f"h: got {got_h!r}, expected four dimensions")
        _expect(problems, "symmetric", report.get("symmetric"), symmetric)
        if isinstance(got_h, list):
            # Euler characteristic from the dimensions, not from the report
            alt = sum((-1) ** p * x for p, x in enumerate(got_h))
            _expect(problems, "euler", report.get("euler"), alt)
        _expect(problems, "euler", report.get("euler"), 0)
        return problems
    return oracle


def symbol_oracle(samples: int) -> Oracle:
    def oracle(code, report):
        problems = _base(code, report, 0)
        if report is None:
            return problems
        _expect(problems, "samples", report.get("samples"), samples)
        _expect(problems, "injective", report.get("injective"), True)
        return problems
    return oracle


def trivialize_oracle(degree: int, m_coords: int, rank: int) -> Oracle:
    # one section per monomial of total degree <= degree in the 2m chart
    # variables and per covector, trace-free gauge and vector slot
    monomials = comb(degree + 2 * m_coords, 2 * m_coords)
    sections = monomials * (2 * m_coords + rank * rank - 1)

    def oracle(code, report):
        problems = _base(code, report, 0)
        if report is None:
            return problems
        for name, ok in report.get("potentials", {}).items():
            _expect(problems, f"potentials.{name}", ok, True)
        if not report.get("potentials"):
            problems.append("potentials: none reported")
        _expect(problems, "chern_simons_transgression",
                report.get("chern_simons_transgression"), True)
        ident = report.get("operator_identity", {})
        _expect(problems, "sections_checked", ident.get("sections_checked"),
                sections)
        _expect(problems, "failures", ident.get("failures"), 0)
        _expect(problems, "operator_identity.passed", ident.get("passed"),
                True)
        tr = report.get("transitions", {})
        _expect(problems, "transitions.holomorphic", tr.get("holomorphic"),
                True)
        _expect(problems, "transitions.cocycle", tr.get("cocycle"), True)
        return problems
    return oracle


def flat_cohomology_oracle(samples: int) -> Oracle:
    """Flat model (closed coframe, nilpotent F): harmonic = h by the Hodge
    isomorphism, Serre-symmetric, Euler number 0, and the symbol is the
    Dolbeault symbol, injective at every nonzero covector."""
    def oracle(code, report):
        if report is not None and report.get("checks", {}).get("passed"):
            problems = _base(code, report, 0)
        else:
            problems = _base(code, report, None)
        if report is None:
            return problems
        dims = report.get("dims", {})
        h = dims.get("h")
        if not isinstance(h, list) or len(h) != 4:
            problems.append(f"dims.h: got {h!r}")
        _expect(problems, "dims.harmonic", dims.get("harmonic"), h)
        if isinstance(h, list) and len(h) == 4:
            _expect(problems, "h symmetric", h, h[::-1])
        _expect(problems, "serre", report.get("serre"), True)
        _expect(problems, "euler", report.get("euler"), 0)
        sym = report.get("symbol", {})
        _expect(problems, "symbol.samples", sym.get("samples"), samples)
        _expect(problems, "symbol.injective", sym.get("injective"), True)
        return problems
    return oracle


# ---------------------------------------------------------------------------
# seeded generator for complex-generated

_RATS = [Fraction(x) for x in ("-1", "-1/2", "0", "1/3", "1", "3/2")]
_ALPHAS = ("1", "1/2", "-2/3", "3")


def gauss_text(re: Fraction, im: Fraction) -> str:
    """A Gaussian rational in the package's canonical notation."""
    if not im:
        return str(re)
    mag = abs(im)
    imtxt = "i" if mag == 1 else f"{mag} i"
    if not re:
        return imtxt if im > 0 else "-" + imtxt
    return f"{re} {'+' if im > 0 else '-'} {imtxt}"


def parse_gauss_text(text: str) -> Tuple[Fraction, Fraction]:
    """Inverse of ``gauss_text``; independent of the package parser."""
    t = text.replace(" ", "")
    if not t.endswith("i"):
        return Fraction(t), Fraction(0)
    body = t[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    re_txt, im_txt = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
    if im_txt in ("", "+", "-"):
        im_txt += "1"
    return Fraction(re_txt), Fraction(im_txt)


def random_flat_model(rng: random.Random, name: str) -> dict:
    """Closed coframe, dense Hermitian metric I + A^dagger A with Gaussian
    rational entries, strictly upper-triangular constant F (so tr F^F = 0
    and the operator squares to zero at every coupling)."""
    n, r = 3, 2
    A = [[(rng.choice(_RATS), rng.choice(_RATS)) for _ in range(n)]
         for _ in range(n)]
    metric = []
    for i in range(n):
        row = []
        for j in range(n):
            re = Fraction(int(i == j))
            im = Fraction(0)
            for k in range(n):
                (ar, ai), (br, bi) = A[k][i], A[k][j]
                # conj(A[k][i]) * A[k][j]
                re += ar * br + ai * bi
                im += ar * bi - ai * br
            row.append(gauss_text(re, im))
        metric.append(row)
    F = {}
    for a in range(n):
        for b in range(n):
            c = (rng.choice(_RATS), rng.choice(_RATS))
            if c[0] or c[1]:
                F[f"a{a + 1}^ab{b + 1}"] = [["0", gauss_text(*c)],
                                            ["0", "0"]]
    return {
        "name": name,
        "n": n,
        "coframe": ["a1", "a2", "a3"],
        "d": {},
        "metric": metric,
        "omega_coeff": "1",
        "bundle": {"rank": r, "F": F},
        "alpha_prime": rng.choice(_ALPHAS),
    }


def roundtrip_problems(generated: dict, printed: str,
                       reprinted: str) -> List[str]:
    """``printed`` is print_model(parse_model_file(file)); ``reprinted`` is
    print_model(parse_model_text(printed)).  The round trip must be a fixed
    point and must keep every number that was written."""
    problems = []
    if printed != reprinted:
        problems.append("print_model/parse_model_text is not a fixed point")
    got = json.loads(printed)
    for key in ("name", "n", "coframe", "omega_coeff"):
        _expect(problems, key, got.get(key), generated[key])
    _expect(problems, "alpha_prime",
            Fraction(got.get("alpha_prime") or "0"),
            Fraction(generated["alpha_prime"]))
    _expect(problems, "d", {k: v for k, v in got.get("d", {}).items() if v},
            generated["d"])

    def nums(grid):
        return [[parse_gauss_text(x) for x in row] for row in grid]

    _expect(problems, "metric", nums(got["metric"]),
            nums(generated["metric"]))
    gb, wb = got["bundle"], generated["bundle"]
    _expect(problems, "bundle.rank", gb.get("rank"), wb["rank"])
    _expect(problems, "bundle.F",
            {k: nums(v) for k, v in gb.get("F", {}).items()},
            {k: nums(v) for k, v in wb["F"].items()})
    return problems


# ---------------------------------------------------------------------------
# the four workloads


def build(name: str, seed: int, outdir: str) -> Workload:
    if name == "symbol-scan":
        # samples: every xi in {0, +-1, +-i, 1+-i}^3 except 0
        return Workload(name, seed, [
            Command(["symbol", "calabi-eckmann"], symbol_oracle(7 ** 3 - 1)),
        ], [("builtin", "calabi-eckmann")])
    if name == "complex-builtin":
        cmds = [
            Command(["check", "iwasawa"],
                    check_oracle(0, True, {c: True for c in
                                           ("F1", "F2", "D1", "D2")})),
            Command(["serre", "iwasawa"],
                    serre_oracle(0, [6, 11, 11, 6], True)),
            Command(["check", "calabi-eckmann"],
                    check_oracle(1, False, {"F1": False, "F2": True,
                                            "D2": False})),
            Command(["serre", "calabi-eckmann"],
                    serre_oracle(1, [8, 8, 0, 0], False)),
            Command(["check", "torus"],
                    check_oracle(0, True, {c: True for c in
                                           ("F1", "F2", "D1", "D2")})),
            Command(["serre", "torus"],
                    serre_oracle(0, [9, 27, 27, 9], True)),
        ]
        load = [("builtin", m) for m in ("iwasawa", "calabi-eckmann", "torus")]
        return Workload(name, seed, cmds, load)
    if name == "complex-generated":
        rng = random.Random(seed)
        os.makedirs(outdir, exist_ok=True)
        cmds, load, generated = [], [], {}
        for i in range(GENERATED_MODELS):
            model = random_flat_model(rng, f"flat-s{seed}-{i}")
            path = os.path.join(outdir, f"model-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(model, fh, indent=2, sort_keys=True)
                fh.write("\n")
            generated[path] = model
            load.append(("file", path))
            cmds.append(Command(["serre", path],
                                serre_oracle(0, None, True), group=path))
            cmds.append(Command(
                ["cohomology", path, "--samples", str(GENERATED_SAMPLES)],
                flat_cohomology_oracle(GENERATED_SAMPLES), group=path))
        return Workload(name, seed, cmds, load, generated)
    if name == "chart":
        return Workload(name, seed, [
            Command(["trivialize", "iwasawa", "--degree", str(CHART_DEGREE)],
                    trivialize_oracle(CHART_DEGREE, m_coords=3, rank=2)),
        ], [("builtin", "iwasawa")])
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def judge(workload: Workload, results: List[dict]) -> List[List[str]]:
    """Problems per command result (a child's ``commands`` list)."""
    out = []
    dims: Dict[str, list] = {}
    for cmd, res in zip(workload.commands, results):
        if res.get("error"):
            out.append([f"raised: {res['error']}"])
            continue
        try:
            report = json.loads(res["stdout"]) if res["stdout"] else None
        except json.JSONDecodeError:
            report = None
        problems = cmd.oracle(res["exit"], report)
        if cmd.group and report is not None:
            h = report.get("h", report.get("dims", {}).get("h"))
            if cmd.group in dims and dims[cmd.group] != h:
                problems.append(f"h {h} disagrees with {dims[cmd.group]} "
                                "from the other command on this model")
            dims.setdefault(cmd.group, h)
        out.append(problems)
    if len(results) != len(workload.commands):
        out.append([f"{len(results)} results for "
                    f"{len(workload.commands)} commands"])
    return out
