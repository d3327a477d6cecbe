"""tools/mutants.py stays in step with the code: every row applies to this
checkout, no two rows share a name, and every test a row runs exists.  The
mutants themselves take minutes to run, outside the test suite."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutants = _load("mutants")


def test_every_row_applies_once():
    assert {m.name: why for m in mutants.MUTANTS if (why := mutants.check(m))} == {}


def test_row_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_every_named_test_path_exists():
    missing = {(m.name, t) for m in mutants.MUTANTS for t in m.tests
               if not (ROOT / t.partition("::")[0]).exists()}
    assert missing == set()
