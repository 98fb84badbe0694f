"""The built-in reports against the files in ``tests/golden``.

``scripts/generate_reports.py`` wrote those files; each report is rebuilt
here in-process and must match its file byte for byte, so a change that
moves any printed answer fails here even when it is stable run to run.
"""

import importlib.util
import pathlib


ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "generate_reports", ROOT / "scripts" / "generate_reports.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_reports_match_golden_files():
    gen = _generator()
    built = {name: gen.render(rep) for name, rep in gen.reports()}
    assert sorted(built) == sorted(p.name for p in GOLDEN.glob("*.json"))
    for name, text in built.items():
        assert text == (GOLDEN / name).read_text(encoding="utf-8"), name
