"""The formula route and the matrix/basis routes must not import each other,
and the benchmark's tracer must find every name it wraps."""

import ast
import importlib
from pathlib import Path

import pytest

import char2squares

PACKAGE = Path(char2squares.__file__).parent
ORACLE_SIDE = ("oracle", "gf2", "basis")


def sibling_imports(source: str) -> set[str]:
    """Names of char2squares modules that source imports, in any import form."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "char2squares" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "char2squares":
                    continue
                module = module[len("char2squares"):].lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:  # from . import x, y
                found.update(alias.name for alias in node.names)
    return found


def test_sibling_imports_sees_every_form():
    source = (
        "import os\n"
        "import char2squares.gf2\n"
        "from .oracle import x\n"
        "from . import basis, parser\n"
        "from char2squares import formulas\n"
        "from char2squares.core import Atom\n"
    )
    assert sibling_imports(source) == {"gf2", "oracle", "basis", "parser", "formulas", "core"}


@pytest.mark.parametrize("module", ORACLE_SIDE)
def test_oracle_side_does_not_import_formulas(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert "formulas" not in sibling_imports(source)


def test_formulas_do_not_import_oracle_side():
    source = (PACKAGE / "formulas.py").read_text()
    assert not sibling_imports(source) & set(ORACLE_SIDE)


def test_tracer_patches_existing_names(monkeypatch):
    # bench/tracing.py wraps package functions by name; a renamed or deleted
    # one makes Tracer.__enter__ raise KeyError and breaks `bench/run.py --trace 1`
    from char2squares import basis, gf2

    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    with tracing.Tracer():
        pass
    assert basis.gf2_rank is gf2.rank  # the originals are restored
