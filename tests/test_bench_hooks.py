"""The bench tracer (perfbench/tracer.py) wraps hetmod functions by name and
reads operator entries row by row, and the traced pass (perfbench/child.py)
times the form layer on the models' forms; these tests keep the hooks in
place.

The bench modules are only read here: the tracer is installed only in the
child process that the last test starts."""

import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys
import types

from hetmod import chartlocal as cl
from hetmod import qcomplex as qc
from hetmod.models import BUILTIN_NAMES, builtin_model
from hetmod.scalars import GR_ONE, GaussRat, Scalar
from helpers import monomial_sections

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
CHILD = ROOT / "perfbench" / "child.py"
BENCHMARK = ROOT / "BENCHMARK.json"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _tracer_targets():
    return _load("perfbench_tracer", TRACER).TARGETS


def test_tracer_targets_resolve_to_callables():
    targets = _tracer_targets()
    assert targets
    for modname, names in targets.items():
        mod = importlib.import_module("hetmod." + modname)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{modname}.{name}"


def test_operator_entries_are_rows_of_scalars(iwasawa):
    op = qc.assemble_Dbar(iwasawa, 1)
    rows = list(op.entries)
    assert len(rows) == op.shape[0]
    for row in rows:
        assert len(row) == op.shape[1]
        assert all(isinstance(x, Scalar) for x in row)


def test_micro_metrics_run_on_the_builtins():
    child = _load("perfbench_child", CHILD)
    tracer = types.SimpleNamespace(gauss_pool=[], scalar_pool=[])
    loaded = [builtin_model(name) for name in BUILTIN_NAMES]
    metrics = child.micro_metrics(tracer, loaded)
    assert len(metrics) == 5
    assert all(v > 0 for v in metrics.values()), metrics


def test_chart_identity_evaluates_only_sections_with_a_nonzero_table(
        iwasawa, monkeypatch):
    # the tracer counts chartlocal.sections as calls of
    # trivialization_residual; the report makes one only for a section
    # whose value touches a slot with a nonempty residual table, and counts
    # every section it passes in sections_checked: none on the valid pair
    # of the chart workload, 1890 sections at degree 4
    calls = []
    residual = cl.trivialization_residual

    def counted(*args):
        calls.append(args[1])
        return residual(*args)

    monkeypatch.setattr(cl, "trivialization_residual", counted)
    t = cl.build_trivialization(iwasawa)
    for degree, want in ((1, 63), (4, 1890)):
        rep = cl.operator_identity_report(t, degree)
        assert rep["sections_checked"] == want and rep["passed"]
        assert calls == []
    # at alpha' = 0 the anomaly does not balance and two vector slots'
    # tables are nonempty: exactly the sections touching them are evaluated
    t = cl.build_trivialization(iwasawa, GaussRat.of(0))
    z = (0,) * t.cd.m_coords
    live = {k for k in range(qc._offsets(t.cd.m_coords, t.cd.rank)[2])
            if cl._residual(t, {(k, (), z, z): cl.Poly.const(len(z), GR_ONE)})}
    assert len(live) == 2
    for degree in (1, 2):
        calls.clear()
        rep = cl.operator_identity_report(t, degree)
        sections = monomial_sections(t, degree)
        assert rep["sections_checked"] == len(sections)
        assert calls == [s for s in sections
                         if any(k in live for (k, *_), _ in s.terms)]
        assert 0 < rep["failures"] <= len(calls)


def test_traced_pass_reports_every_layer(tmp_path):
    # one traced pass of the bench child, as perfbench/run.py starts it: the
    # tracer reads the arguments of the linalg functions as dense rows of
    # GaussRat and the operator entries as rows of Scalar, and micro_metrics
    # does arithmetic on what it read, so a changed argument type shows here
    # and not in the hook tests above; cohomology runs the harmonic step
    # under the tracer's observers
    job = {
        "commands": [["check", "torus"], ["serre", "iwasawa"],
                     ["symbol", "calabi-eckmann", "--samples", "5"],
                     ["trivialize", "iwasawa", "--degree", "1"],
                     ["cohomology", "iwasawa", "--samples", "3"]],
        "load": [["builtin", name] for name in BUILTIN_NAMES],
        "trace": True,
        "spans": str(tmp_path / "spans.jsonl"),
    }
    proc = subprocess.run(
        [sys.executable, "-S", str(CHILD), json.dumps(job)], cwd=ROOT,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    res = json.loads(lines[-1])
    assert [c["exit"] for c in res["commands"]] == [0, 0, 0, 0, 0], res
    # run.py adds these two from outside the child
    added = {"trace.overhead_frac", "host.calib_s"}
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = {m["name"] for m in bench["per_layer"]}
    missing = names - added - set(res["layers"])
    assert added <= names and not missing, missing
