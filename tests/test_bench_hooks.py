"""The bench tracer (perfbench/tracer.py) wraps hetmod functions by name and
reads operator entries row by row; these tests keep both hooks in place.

The tracer module is only read here, never installed."""

import importlib
import importlib.util
import pathlib

from hetmod import qcomplex as qc
from hetmod.scalars import Scalar

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


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
