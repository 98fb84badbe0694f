"""The mutant table (scripts/mutants.py) stays anchored to the code: each
row's source text occurs exactly once in its file, and each test it names
exists.  A refactor that moves or rewrites a guarded line must update the
table; running the mutants themselves is the script's job, not tier-1's."""

import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location(
        "hetmod_mutants", ROOT / "scripts" / "mutants.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_row_text_occurs_once():
    mod = _mutants()
    assert mod.anchor_faults(str(ROOT)) == []
    names = [row.name for row in mod.MUTANTS]
    assert len(set(names)) == len(names)
    for row in mod.MUTANTS:
        assert row.text != row.replacement, row.name
        assert row.tests or row.equivalent, row.name


def test_every_named_test_exists():
    for row in _mutants().MUTANTS:
        for test in row.tests:
            path, _, name = test.partition("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            func = re.sub(r"\[.*\]$", "", name)
            assert re.search(rf"^def {re.escape(func)}\(", source,
                             re.MULTILINE), (row.name, test)
