"""The formula route and the matrix/basis routes must not import each other,
no command may reach the oracle's dense views, and the benchmark's tracer
must find every name it wraps and still count what passes through it."""

import ast
import importlib
import io
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


def run_main(argv):
    from char2squares import cli

    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


CLI_ROUTES = [
    *(["decompose", "--functor", functor, "--kind", kind, "--n", "6", "--method", "both"]
      for functor in ("tensor", "ext2", "sym2") for kind in ("nilpotent", "unipotent")),
    ["decompose", "--functor", "tensor", "--kind", "unipotent", "--n", "5", "--m", "3",
     "--method", "both"],
    ["expr", "S2(W5 + 2*W3) + T(E2(W4), W3)", "--method", "oracle"],
    ["expr", "E2(V6 + V2)", "--method", "oracle"],
    *(["basis", "--n", "7", "--functor", functor, "--verify"] for functor in ("tensor", "sym2")),
]


def test_cli_routes_never_touch_the_dense_views(monkeypatch):
    # the dense views stay only for the tracer and the tests; no command may need them
    from char2squares import gf2, oracle

    expected = [run_main(argv) for argv in CLI_ROUTES]
    assert all(code == 0 for code, _, _ in expected)

    def refuse(*args, **kwargs):
        raise AssertionError("a command reached a dense view")

    monkeypatch.setattr(oracle, "_dense", refuse)
    monkeypatch.setattr(oracle, "jordan_type_of_nilpotent", refuse)
    monkeypatch.setattr(gf2, "jordan_type_of_nilpotent", refuse)
    assert [run_main(argv) for argv in CLI_ROUTES] == expected


def test_tracer_hooks_count_a_basis_verify(monkeypatch):
    # the hooks read the arguments of the names they wrap (basis.gf2_rank gets
    # a Gf2Matrix), so the names existing is not enough: run a command traced
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    with tracing.Tracer() as tracer:
        assert run_main(["basis", "--n", "6", "--verify"])[0] == 0
    metrics = tracer.metrics()
    assert metrics["gf2.rank_rows"] > 0
    assert metrics["basis.vectors"] == 36
    assert metrics["basis.verify_s"] > 0
