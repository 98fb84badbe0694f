"""Command-line interface: exit codes, report files, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from hetmod import cli
from hetmod.models import builtin_model, parse_model_text, print_model

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_pass(capsys):
    code, out, _ = run(capsys, "check", "iwasawa")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["alpha_prime"] == "-4"


def test_check_fail_exit_code(capsys):
    # at the wrong coupling the anomaly condition fails
    code, out, _ = run(capsys, "check", "iwasawa", "--alpha-prime", "1")
    assert code == 1
    assert json.loads(out)["conditions"]["F2"]["passed"] is False


def test_unknown_model(capsys):
    code, out, err = run(capsys, "check", "nope")
    assert code == 2
    assert not out
    assert "unknown model" in err


def test_bad_alpha(capsys):
    code, _, err = run(capsys, "check", "iwasawa", "--alpha-prime", "x/y")
    assert code == 2
    assert "alpha-prime" in err


def test_missing_subcommand(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_cohomology_report(capsys):
    code, out, _ = run(capsys, "cohomology", "iwasawa", "--samples", "12")
    assert code == 0
    rep = json.loads(out)
    assert rep["dims"]["h"] == [6, 11, 11, 6]
    assert rep["symbol"]["samples"] == 12


def test_cohomology_reports_the_coupling_it_used(capsys):
    # calabi-eckmann declares no coupling; its dimensions are computed at
    # a' = 1, and the top-level label says so.  The system check stays
    # symbolic in a', so its own label is "arbitrary".
    code, out, _ = run(capsys, "cohomology", "calabi-eckmann",
                       "--samples", "4")
    assert code == 1
    rep = json.loads(out)
    assert rep["alpha_prime"] == "1"
    assert rep["degenerate"] is False
    assert rep["checks"]["alpha_prime"] == "arbitrary"


def test_cohomology_diagonal(capsys):
    code, out, _ = run(capsys, "cohomology", "iwasawa", "--diagonal-dbar",
                       "--samples", "5")
    assert code == 0
    assert json.loads(out)["dims"]["h"] == [9, 18, 18, 9]


def test_serre(capsys):
    code, out, _ = run(capsys, "serre", "iwasawa")
    assert code == 0
    assert json.loads(out)["symmetric"] is True


def test_symbol(capsys):
    code, out, _ = run(capsys, "symbol", "torus", "--alpha-prime", "1/7",
                       "--samples", "20")
    assert code == 0
    rep = json.loads(out)
    assert rep["injective"] is True and rep["samples"] == 20


def test_symbol_exact_fallback_verdict(capsys):
    # the symbol loses rank at (0, 0, i); only exact elimination can say so
    code, out, _ = run(capsys, "symbol", "calabi-eckmann",
                       "--alpha-prime", "-4")
    assert code == 1
    rep = json.loads(out)
    assert rep["first_failure"] == "(0, 0, i)"
    assert rep["injective"] is False
    assert rep["samples"] == 342


@pytest.mark.parametrize("command", ["symbol", "cohomology"])
@pytest.mark.parametrize("samples", ["0", "-1"])
def test_empty_scan_refused(capsys, command, samples):
    code, out, err = run(capsys, command, "torus", "--samples", samples)
    assert code == 2
    assert not out
    assert "--samples" in err


@pytest.mark.parametrize("command", ["check", "serre", "trivialize"])
def test_samples_offered_only_by_scans(capsys, command):
    code, out, err = run(capsys, command, "iwasawa", "--samples", "5")
    assert code == 2
    assert not out
    assert "--samples" in err


@pytest.mark.parametrize("degree", ["-1", "-4"])
def test_negative_degree_refused(capsys, degree):
    code, out, err = run(capsys, "trivialize", "iwasawa", "--degree", degree)
    assert code == 2
    assert not out
    assert "--degree" in err


def _line_model(n, rank):
    return {"name": "line", "n": n, "coframe": ["a1"], "d": {},
            "metric": [["1"]], "omega_coeff": "1", "bundle": {"rank": rank}}


@pytest.mark.parametrize("n, rank, message", [
    (True, 1, "n must be a positive integer"),
    (1, True, "bundle.rank must be a positive integer"),
])
def test_boolean_sizes_refused(tmp_path, capsys, n, rank, message):
    model_file = tmp_path / "line.json"
    model_file.write_text(json.dumps(_line_model(n, rank)))
    code, out, err = run(capsys, "check", str(model_file))
    assert code == 2
    assert not out
    assert message in err
    # the same model with integer sizes is accepted
    model_file.write_text(json.dumps(_line_model(1, 1)))
    assert run(capsys, "check", str(model_file))[0] == 0


@pytest.mark.parametrize("command", ["check", "serre", "trivialize"])
def test_zero_denominator_alpha_refused(capsys, command):
    code, out, err = run(capsys, command, "iwasawa", "--alpha-prime", "1/0")
    assert code == 2
    assert not out
    assert err.startswith("error:") and "zero denominator" in err


def test_zero_denominator_in_model_file_refused(tmp_path, capsys):
    model_file = tmp_path / "line.json"
    model_file.write_text(json.dumps(dict(_line_model(1, 1),
                                          metric=[["1/0"]])))
    code, out, err = run(capsys, "check", str(model_file))
    assert code == 2
    assert not out
    assert err.startswith("error: metric[0][0]: zero denominator")


@pytest.mark.parametrize("value", ["-1/7", "-4"])
def test_negative_alpha_spaced_and_joined(capsys, value):
    # a value after a space may start with '-', as "-4" and "-1/7" do;
    # both spellings must give the same report and exit code
    spaced = run(capsys, "check", "iwasawa", "--alpha-prime", value)
    joined = run(capsys, "check", "iwasawa", f"--alpha-prime={value}")
    assert spaced == joined
    code, out, err = spaced
    assert code in (0, 1) and not err
    assert json.loads(out)["alpha_prime"] == value


@pytest.mark.parametrize("value", ["-4_0", "-4.0", "-4e0", "1 + i", "i",
                                   "(", "1 + ("])
def test_alpha_prime_outside_the_model_file_syntax_refused(capsys, value):
    # --alpha-prime is read as a model file reads a constant, so "-4_0",
    # "-4.0" and "-4e0" are refused as model files refuse them, and so is
    # an unclosed parenthesis; a non-real value is refused in the same
    # place, since check never resolves the coupling that the count path
    # refuses it in
    code, out, err = run(capsys, "check", "iwasawa", f"--alpha-prime={value}")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad --alpha-prime value ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value, alpha, want", [
    ("-4", "-4", 0), ("-1/7", "-1/7", 1), (" -4 ", "-4", 0),
    # a number carries no sign, and a^0 is 1, as in a model file
    ("-4 -0 i", "-4", 0), ("a^0", "1", 1)])
def test_alpha_prime_in_the_model_file_syntax(capsys, value, alpha, want):
    code, out, err = run(capsys, "check", "iwasawa", f"--alpha-prime={value}")
    assert (code, err) == (want, "")
    assert json.loads(out)["alpha_prime"] == alpha
    assert run(capsys, "check", "iwasawa", "--alpha-prime", alpha) == (
        code, out, err)


# (argv, the spelling it must print the same report as, exit code); "{out}"
# is a report file, and such a run prints nothing on stdout
_SPELLINGS = [
    (["check", "iwasawa", "--alpha", "1"],
     ["check", "iwasawa", "--alpha-prime", "1"], 1),
    (["symbol", "torus", "--samp=3"],
     ["symbol", "torus", "--samples", "3"], 0),
    (["cohomology", "iwasawa", "--d"],
     ["cohomology", "iwasawa", "--diagonal-dbar"], 0),
    (["trivialize", "iwasawa", "--d", "1"],
     ["trivialize", "iwasawa", "--degree", "1"], 0),
    (["check", "iwasawa", "--alpha-prime=-1/7"],
     ["check", "iwasawa", "--alpha-prime", "-1/7"], 1),
    (["check", "--alpha-prime", "1", "iwasawa"],
     ["check", "iwasawa", "--alpha-prime", "1"], 1),
    (["check", "--", "iwasawa"], ["check", "iwasawa"], 0),
    (["symbol", "torus", "--samples", "3", "--samples", "5"],
     ["symbol", "torus", "--samples", "5"], 0),
    (["serre", "torus", "--out={out}"], ["serre", "torus"], 0),
    (["serre", "torus", "--out", "{out}"], ["serre", "torus"], 0),
]


@pytest.mark.parametrize("argv, same_as, want", _SPELLINGS,
                         ids=[" ".join(a) for a, _, _ in _SPELLINGS])
def test_argument_spellings(tmp_path, capsys, argv, same_as, want):
    # abbreviations, --opt=value, options before the model, "--" and a
    # repeated option (the last wins) print the report of the plain spelling
    out_file = tmp_path / "report.json"
    argv = [a.replace("{out}", str(out_file)) for a in argv]
    code, out, err = run(capsys, *argv)
    if out_file.exists():
        assert out == ""
        out = out_file.read_text(encoding="utf-8")
    assert (code, out, err) == (want, *run(capsys, *same_as)[1:])
    assert out


@pytest.mark.parametrize("argv, named", [
    (["symbol", "torus", "--samples"], "--samples"),
    (["trivialize", "iwasawa", "--degree"], "--degree"),
    (["check", "iwasawa", "--alpha-prime"], "--alpha-prime"),
    (["check", "iwasawa", "--alpha-prime", "--out"], "--alpha-prime"),
    (["check"], "model"),
    ([], "command"),
    (["check", "iwasawa", "extra"], "extra"),
    (["bogus", "iwasawa"], "bogus"),
    (["check", "iwasawa", "--samples", "5"], "--samples"),
    (["symbol", "torus", "--d"], "--d"),
    (["check", "iwasawa", "-x"], "-x"),
    (["cohomology", "iwasawa", "--diagonal-dbar=1"], "--diagonal-dbar"),
    (["symbol", "torus", "--samples", "0"], "--samples"),
    (["symbol", "torus", "--samples", "x"], "--samples"),
    (["trivialize", "iwasawa", "--degree", "-1"], "--degree"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_usage_errors(capsys, argv, named):
    # exit 2, no report, and an error line that names the argument
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0], err


_COMMAND_NAMES = ["check", "cohomology", "serre", "symbol", "trivialize"]


@pytest.mark.parametrize("argv, named", [
    (["--help"], _COMMAND_NAMES),
    (["-h"], _COMMAND_NAMES),
    (["symbol", "--help"],
     ["model", "--alpha-prime", "--samples", "--out", "--help"]),
    (["cohomology", "iwasawa", "-h"],
     ["model", "--alpha-prime", "--samples", "--out", "--diagonal-dbar"]),
    (["trivialize", "--he"], ["model", "--alpha-prime", "--out", "--degree"]),
], ids=["--help", "-h", "symbol --help", "cohomology iwasawa -h",
        "trivialize --he"])
def test_help(capsys, argv, named):
    # help is usage on stdout, exit 0, naming every subcommand or option
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: hetmod")
    assert all(name in out for name in named), out


def _check_loads(modules):
    """Run ``check iwasawa`` in a fresh ``python -S`` and print its exit
    code and which of ``modules`` it loaded."""
    probe = ("import contextlib, io, sys\n"
             "from hetmod import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = cli.main(['check', 'iwasawa'])\n"
             f"print(code, sorted({set(modules)!r} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_command_loads_no_argument_parser_modules():
    # argparse and what it imports on first use (shutil, with zlib, bz2 and
    # lzma; gettext and locale) cost a cold command about 7 ms
    assert _check_loads({"argparse", "shutil", "gettext", "locale"}) \
        == "0 []\n"


def test_command_loads_no_dataclasses_or_typing():
    # importing dataclasses (with inspect, ast and dis) and typing, and
    # compiling the generated methods of 15 classes, cost a cold command
    # about 16 ms; the records derive from scalars.Record instead
    assert _check_loads({"dataclasses", "typing", "inspect"}) == "0 []\n"


def _builtin_file(tmp_path, name, edit):
    """The built-in model ``name`` as a model file, with ``edit`` applied
    to its JSON data."""
    data = json.loads(print_model(builtin_model(name)))
    edit(data)
    model_file = tmp_path / f"{name}-edited.json"
    model_file.write_text(json.dumps(data))
    return str(model_file)


def _edit_chart(tmp_path, edit):
    """Iwasawa's model file with ``edit`` applied to its chart."""
    return _builtin_file(tmp_path, "iwasawa", lambda d: edit(d["chart"]))


@pytest.mark.parametrize("edit, message", [
    (lambda c: c.update(coords=[3]), "chart.coords must be an integer"),
    (lambda c: c.update(coords=True), "chart.coords must be an integer"),
    (lambda c: c["coframe_pullback"].update(a1=5),
     "chart.coframe_pullback.a1 must be a string"),
    (lambda c: c.update(coframe_pullback=["dz1", "dz2", "dz3"]),
     "chart.coframe_pullback must map coframe names"),
    (lambda c: c["coframe_pullback"].update(b7="dz1"),
     "chart.coframe_pullback.b7: not a coframe name"),
])
@pytest.mark.parametrize("command", ["check", "trivialize"])
def test_chart_entry_types_refused(tmp_path, capsys, edit, message,
                                   command):
    code, out, err = run(capsys, command, _edit_chart(tmp_path, edit))
    assert code == 2
    assert not out
    assert err.startswith("error:") and message in err, err
    # the unedited file is accepted
    code = run(capsys, "trivialize", _edit_chart(tmp_path, lambda c: None),
               "--degree", "0")[0]
    assert code == 0


_PULLBACK_RULE = ("a term is [coefficient] [z<k> ...] dz<k> with 1 <= k <= 3, "
                  "and zb<k> is not read yet")


@pytest.mark.parametrize("a2, why", [
    # a conjugate coordinate, as a Kodaira-Thurston-type chart needs
    ("dz2 - zb1 dz1", "cannot read 'zb1' in term 'zb1 dz1'"),
    ("dzx", "cannot read 'dzx' in term 'dzx'"),
    ("dz2 + q dz1", "cannot read 'q' in term 'q dz1'"),
    ("dz7", "'dz7' is out of range in term 'dz7'"),
    ("dz1 dz2", "two coframe legs in term 'dz1 dz2'"),
], ids=["zbar", "leg-not-a-number", "bad-coefficient", "leg-out-of-range",
        "two-legs"])
def test_chart_pullback_syntax_refused(tmp_path, capsys, a2, why):
    # a pullback the chart parser cannot read names its field and the rule
    path = _edit_chart(tmp_path,
                       lambda c: c["coframe_pullback"].update(a2=a2))
    code, out, err = run(capsys, "trivialize", path, "--degree", "0")
    assert (code, out, err) == (
        2, "", f"error: chart.coframe_pullback.a2: {why}; {_PULLBACK_RULE}\n")


_NOT_A_COFRAME = ("error: chart.coframe_pullback: det P = {} is not a "
                  "nonzero constant, so the pullbacks are not a coframe\n")
_BREAKS_D_A3 = ("error: chart.coframe_pullback.a3 breaks the structure "
                "equations: d of the pullback minus the pullback of d a3 has "
                "(2,0) part [({})] dz1^dz2\n")


@pytest.mark.parametrize("leg, text, err", [
    ("a2", "dz1", _NOT_A_COFRAME.format("0")),
    ("a2", "", _NOT_A_COFRAME.format("0")),
    ("a2", "z1 dz2", _NOT_A_COFRAME.format("(-1)z1")),
    ("a3", "-dz3 + 5 z1 dz2", _BREAKS_D_A3.format("4")),
    ("a3", "dz3", _BREAKS_D_A3.format("-1")),
], ids=["a2-dz1", "a2-empty", "a2-z1dz2", "a3-5z1dz2", "a3-dz3"])
def test_chart_that_is_not_the_model_refused(tmp_path, capsys, leg, text,
                                             err):
    # dependent pullbacks are refused with det P, and pullbacks that break
    # d a3 = a1 ^ a2 with the leg and the residual; before these checks the
    # a3 edits ran and exited 1 on a failed torsion potential
    path = _edit_chart(tmp_path,
                       lambda c: c["coframe_pullback"].update({leg: text}))
    code, out, got = run(capsys, "trivialize", path, "--degree", "2")
    assert (code, out, got) == (2, "", err)


def test_chart_coords_must_be_the_dimension(tmp_path, capsys):
    path = _edit_chart(tmp_path, lambda c: c.update(coords=4))
    code, out, err = run(capsys, "trivialize", path, "--degree", "0")
    assert (code, out, err) == (2, "", "error: chart must have as many "
                                "coordinates as the complex dimension\n")


def test_trivialize(capsys):
    code, out, _ = run(capsys, "trivialize", "iwasawa", "--degree", "1")
    assert code == 0
    assert json.loads(out)["operator_identity"]["passed"] is True


def test_trivialize_chartless(capsys):
    code, _, err = run(capsys, "trivialize", "torus")
    assert code == 2
    assert err


def test_model_file_and_out(tmp_path, capsys):
    model_file = tmp_path / "torus.json"
    model_file.write_text(print_model(builtin_model("torus")))
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "serre", str(model_file),
                       "--alpha-prime", "1", "--out", str(out_file))
    assert code == 0
    assert not out
    rep = json.loads(out_file.read_text())
    assert rep["model"] == "torus"


def test_reports_are_byte_stable(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "cohomology", "iwasawa", "--samples", "8")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    # sorted keys throughout
    assert json.dumps(json.loads(runs[0]), indent=2, sort_keys=True) + "\n" \
        == runs[0]


@pytest.mark.parametrize("model, extra, want", [
    ("iwasawa", [], 0),
    ("iwasawa", ["--diagonal-dbar"], 0),
    ("torus", [], 0),
    ("calabi-eckmann", [], 1),
])
def test_cohomology_exit_code_covers_every_check(capsys, model, extra, want):
    # exit 0 only when the system checks, Serre duality and the symbol scan
    # all pass; calabi-eckmann has an injective symbol but fails F1, D2 and
    # Serre symmetry
    code, out, _ = run(capsys, "cohomology", model, "--samples", "12", *extra)
    rep = json.loads(out)
    assert rep["symbol"]["injective"] is True
    assert (rep["checks"]["passed"] and rep["serre"]) is (want == 0)
    assert code == want


def test_trivialize_failure_names_its_witness(capsys):
    # at a' = 0 the torsion-potential equation dbar tau_21 = T_12 has no
    # solution: T_12 = 1/2 dzb3 - 1/2 zb1 dzb2 is not dbar-closed.  The
    # radial primitive tau_21 = 1/2 zb3 - 1/4 zb1 zb2 misses by T_12 -
    # dbar tau_21 = 1/4 zb2 dzb1 - 1/4 zb1 dzb2, and that is the residual on
    # the constant section d/dz^1, in the dz^2 covector slot
    code, out, _ = run(capsys, "trivialize", "iwasawa", "--degree", "1",
                       "--alpha-prime", "0")
    assert code == 1
    ident = json.loads(out)["operator_identity"]
    assert ident["failures"] > 0 and ident["passed"] is False
    assert ident["first_failure"] == {
        "slot": "e3:d/dz^1",
        "monomial": "(1)",
        "residual": {"e1:dz^2": "[(1/4)zb2] dzb1 + [(-1/4)zb1] dzb2"},
    }


def test_passing_trivialize_report_has_no_witness(capsys):
    code, out, _ = run(capsys, "trivialize", "iwasawa", "--degree", "1")
    assert code == 0
    assert set(json.loads(out)["operator_identity"]) == {
        "sections_checked", "failures", "passed"}


def test_readme_model_example_checks(tmp_path, capsys, iwasawa):
    # the model-file example in README.md is iwasawa's data without its
    # chart, and `hetmod check` passes on it
    text = README.read_text(encoding="utf-8")
    example = text.split("```json\n", 1)[1].split("```", 1)[0]
    m = parse_model_text(example)
    assert (m.d_coframe, m.metric, m.curvature_F, m.alpha_prime) == (
        iwasawa.d_coframe, iwasawa.metric, iwasawa.curvature_F,
        iwasawa.alpha_prime)
    path = tmp_path / "example.json"
    path.write_text(example, encoding="utf-8")
    assert cli.main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True



def _d_term(wedge):
    return [{"coeff": "1", "wedge": wedge}]


@pytest.mark.parametrize("name, edit, message", [
    ("torus", lambda d: d["bundle"].update(F=[]),
     "bundle.F must map wedge names such as 'a1^ab1' to rank x rank "
     "arrays, not []"),
    ("torus", lambda d: d["bundle"]["F"].update({"a1^ab1": [5, ["0", "0"]]}),
     "bundle.F['a1^ab1']: expected a rank x rank array"),
    ("iwasawa", lambda d: d["d"]["a3"][0].update(wedge=[["a1"], "a2"]),
     'd.a3[0]: wedge must be a list of coframe names, not [["a1"], "a2"]'),
    ("iwasawa", lambda d: d["d"]["a3"][0].update(wedge="a1a2"),
     'd.a3[0]: wedge must be a list of coframe names, not "a1a2"'),
    ("torus", lambda d: d.update(coframe=[["a"], "b", "c"]),
     "coframe must list n distinct names"),
    ("torus", lambda d: d.update(name=None),
     "name must be a string, not null"),
    # ab1 is the conjugate of a1: as a coframe name it would be read as a
    # holomorphic leg, and conj(a1) could not be written at all
    ("torus", lambda d: d.update(coframe=["a1", "a2", "ab1"]),
     "coframe: 'ab1' is both a name and the conjugate of 'a1'"),
    # both (0, 1) and (1, 0) break h = h^dagger; one message, first pair
    ("torus", lambda d: d["metric"][0].__setitem__(1, "1"),
     "metric is not Hermitian: metric[0][1] = 1 but conj(metric[1][0]) = 0"),
    ("torus", lambda d: d["metric"][0].__setitem__(0, "2 a"),
     "metric[0][0]: expected a constant, got '2 a'"),
    ("torus", lambda d: d.update(d=[]),
     "d must map coframe names to term lists"),
    ("torus", lambda d: d["d"].update(b7=[]), "d.b7: not a coframe name"),
    ("iwasawa", lambda d: d["d"]["a3"][0].pop("coeff"),
     "d.a3[0]: expected coeff/wedge keys"),
    ("iwasawa", lambda d: d["d"]["a3"][0].update(wedge=["a1", "a2", "a3"]),
     "d.a3[0]: wedge must have two legs"),
    ("torus", lambda d: d.update(metric=[["1"]]),
     "metric must be an n x n array"),
    ("torus", lambda d: d.update(bundle={"F": {}}),
     "bundle must be an object with a rank"),
    ("torus",
     lambda d: d["bundle"].update(F={"a1^a2": [["0", "0"], ["0", "0"]]}),
     "bundle.F['a1^a2']: key must name one a and one ab leg"),
    ("torus", lambda d: d.update(alpha_prime="i"),
     "alpha_prime must be a real rational"),
    ("iwasawa", lambda d: d["chart"].pop("coords"),
     "chart needs coords and coframe_pullback"),
    ("iwasawa", lambda d: d["chart"]["coframe_pullback"].pop("a2"),
     "chart.coframe_pullback missing ['a2']"),
    ("torus", lambda d: d["d"].update(a3=_d_term(["ab1", "ab2"])),
     "non-integrable: d a3 has a (0,2) part"),
    ("torus", lambda d: d["d"].update(a3=_d_term(["a1", "a2"]),
                                      a1=_d_term(["a3", "ab3"])),
     "d^2 a1 != 0; d^2 a3 != 0"),
    ("torus",
     lambda d: d["bundle"].update(F={"a1^ab1": [["1", "0"], ["0", "0"]]}),
     "gauge curvature F is not trace-free"),
    ("torus", lambda d: d.update(omega_coeff="0"),
     "omega_coeff must be nonzero"),
    # a repeated leg would make the term zero, and two spellings of one F
    # component would be summed: both are refused, not read
    ("torus",
     lambda d: d["d"].update(a3=[{"coeff": "5", "wedge": ["a1", "a1"]}]),
     "d.a3[0]: wedge repeats the leg 'a1'"),
    ("torus", lambda d: d["bundle"].update(F={
        "a1^ab1": [["1", "0"], ["0", "-1"]],
        "ab1^a1": [["1", "0"], ["0", "-1"]]}),
     "bundle.F: keys 'a1^ab1' and 'ab1^a1' name the same component"),
], ids=["F-list", "F-row-int", "wedge-entry-list", "wedge-string",
        "coframe-entry-list", "name-null", "coframe-conjugate-name",
        "metric-not-hermitian", "constant-with-a", "d-list",
        "d-unknown-name", "d-term-keys", "wedge-three-legs", "metric-shape",
        "bundle-no-rank", "F-key-two-a", "alpha-not-real", "chart-no-coords",
        "chart-pullback-missing", "d-02-part", "d-squared", "F-trace",
        "omega-zero", "wedge-repeated-leg", "F-two-spellings"])
def test_refused_model_file_exits_2(tmp_path, capsys, name, edit, message):
    # a malformed or ambiguous field is a usage error: one error line that
    # names the field, no report, exit 2 (not 1, "a check failed")
    code, out, err = run(capsys, "check", _builtin_file(tmp_path, name, edit))
    assert (code, out, err) == (2, "", f"error: {message}\n")



def test_reused_parser_leaks_no_state(capsys):
    # each call, made again after all the others in one process, prints
    # what it printed the first time: the argument reader keeps no state
    calls = [
        ["cohomology", "iwasawa", "--samples", "3", "--diagonal-dbar"],
        ["cohomology", "iwasawa", "--samples", "3"],
        ["symbol", "torus", "--samples", "5", "--alpha-prime", "1/7"],
        ["symbol", "torus", "--samples", "5"],
        ["check"],
        ["check", "iwasawa"],
        ["--help"],
    ]
    first = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 2, 0, 0]
    assert [run(capsys, *argv) for argv in calls] == first
