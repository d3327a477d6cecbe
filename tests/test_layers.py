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


@pytest.mark.parametrize("module", ["oracle", "gf2"])
def test_oracle_does_not_import_the_basis_route(module):
    # verify_basis checks the chains against the oracle's e; built from the
    # basis route, it would check the chains against a copy of themselves
    assert "basis" not in sibling_imports((PACKAGE / f"{module}.py").read_text())


def test_basis_does_not_import_the_oracle():
    # gf2.graded checks the grading where it reads images, so verify_basis
    # needs nothing of the oracle's to name an entry off the grading
    assert "oracle" not in sibling_imports((PACKAGE / "basis.py").read_text())


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


def test_graded_paths_map_masks_by_their_diagonals(monkeypatch):
    # verify_basis maps whole chains by the packed diagonals of the forms and
    # the graded sweep moves masks down a degree, both with gf2._apply_form; a
    # walk over their bits would call gf2._support, which only the chain
    # builders (the sym2 transpose, project_to_sym), SparseVec.terms and
    # format_chain still use.  The oracle binds its own _support name and
    # walks only the few source bits of a form (_spread, _targets), never a
    # vector's mask, so it is left unpatched
    from char2squares import basis, gf2, oracle
    from char2squares.core import square_expr

    n = 16
    cases = [
        (basis.build_tensor_basis(n), oracle.expr_forms(square_expr("tensor", "nilpotent", n))),
        (basis.build_sym_basis(n), oracle.expr_forms(square_expr("sym2", "nilpotent", n))),
    ]
    terminals = [basis.build_z(c.s, n) for c in cases[0][0]]
    expected = [basis.chain_type(chains) for chains, _ in cases]

    def refuse(row):
        raise AssertionError("a graded path walked the bits of a mask")

    monkeypatch.setattr(gf2, "_support", refuse)
    monkeypatch.setattr(basis, "_support", refuse)
    for (chains, action), ends in zip(cases, (terminals, None)):
        assert basis.verify_basis(chains, action, ends).ok
    for functor, jordan_type in zip(("tensor", "sym2"), expected):
        assert oracle.oracle_expr_jordan_type(square_expr(functor, "nilpotent", n)) == jordan_type
    assert oracle.oracle_expr_jordan_type(square_expr("ext2", "nilpotent", n)).total_dim == 120


def test_nilpotent_routes_never_walk_images(monkeypatch):
    # e lowers every degree by exactly 1, so basis --verify and the W oracle
    # build their per-degree forms from the factors' (oracle.expr_forms) and
    # never build images of e or walk them
    from char2squares import gf2, oracle

    routes = [
        ["basis", "--n", "9", "--verify"],
        ["decompose", "--functor", "sym2", "--kind", "nilpotent", "--n", "9", "--method", "both"],
        ["expr", "S2(W5 + 2*W3)", "--method", "both"],
    ]
    expected = [run_main(argv) for argv in routes]
    assert all(code == 0 for code, _, _ in expected)

    def refuse(*args):
        raise AssertionError("a nilpotent route built or walked images")

    monkeypatch.setattr(oracle, "_pair_builder", refuse)
    monkeypatch.setattr(gf2, "graded", refuse)
    assert [run_main(argv) for argv in routes] == expected


def test_unipotent_routes_build_their_factors(monkeypatch):
    # the V oracle builds each factor (u - 1)^(2^j) node by node from the
    # atoms' shifts, listed by degree, so it builds no images, walks none,
    # squares nothing and peels no rows into gathers
    from char2squares import gf2, oracle

    routes = [
        *(["decompose", "--functor", functor, "--kind", "unipotent", "--n", "9", "--method", "both"]
          for functor in ("ext2", "sym2", "tensor")),
        ["decompose", "--functor", "tensor", "--kind", "unipotent", "--n", "7", "--m", "1",
         "--method", "both"],
        ["expr", "S2(V5 + 2*V3)", "--method", "both"],
    ]
    expected = [run_main(argv) for argv in routes]
    assert all(code == 0 for code, _, _ in expected)

    def refuse(*args):
        raise AssertionError("a unipotent route built images, walked them or squared a factor")

    monkeypatch.setattr(oracle, "expr_images", refuse)
    for name in ("graded", "_gathers", "_squared_factors", "jordan_type_of_images"):
        monkeypatch.setattr(gf2, name, refuse)
    assert [run_main(argv) for argv in routes] == expected


def test_verify_ranks_only_the_last_vectors(monkeypatch):
    # when every link holds, the chains' last vectors are independent exactly
    # when all the vectors are, so gf2.rank sees one row per chain, not n^2
    from char2squares import basis, oracle
    from char2squares.core import square_expr

    rows, real = [], basis.gf2_rank

    def counted(m):
        rows.append(m.rows)
        return real(m)

    monkeypatch.setattr(basis, "gf2_rank", counted)
    n = 16
    for functor, build in (("tensor", basis.build_tensor_basis), ("sym2", basis.build_sym_basis)):
        rows.clear()
        action = oracle.expr_forms(square_expr(functor, "nilpotent", n))
        report = basis.verify_basis(build(n), action)
        assert report.ok and report.rank == report.vector_count == sum(action.counts.values())
        assert sum(rows) == n
        assert len(rows) == 1  # every degree in its own slot of one matrix


def test_verify_ranks_all_the_vectors_a_degree_at_a_time(monkeypatch):
    # after a failed chain the rank runs over all n^2 vectors; in one matrix
    # with a slot per degree a row would reach over up to 2n slots, n^4 bits
    # in all, so each degree gets a matrix of its own, one slot wide
    from char2squares import basis, oracle
    from char2squares.core import _trusted, square_expr

    shapes, real = [], basis.gf2_rank

    def counted(m):
        shapes.append((m.rows, m.cols))
        return real(m)

    monkeypatch.setattr(basis, "gf2_rank", counted)
    n = 16
    chains = basis.build_tensor_basis(n)
    c = chains[-1]  # s = n: bit 1 of its last vector, z_n, cleared
    chains[-1] = _trusted(basis.JordanChain, s=c.s, space=c.space, n=n, degree=c.degree,
                          length=c.length, packed=c.packed ^ 0b10)
    report = basis.verify_basis(chains, oracle.expr_forms(square_expr("tensor", "nilpotent", n)))
    assert not report.ok and report.rank == n * n
    assert len(shapes) == 2 * n - 1 and sum(rows for rows, _ in shapes) == n * n
    assert {cols for _, cols in shapes} == {8 * basis._slot_width(n)}


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


def test_basis_builds_one_expansion_per_call(monkeypatch):
    # bench/run.py empties the package's caches before each pass, so a cache
    # it cannot find would carry work over from one pass to the next; once
    # they are empty, the chains of a basis share one expansion of n
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    caches = importlib.import_module("run").lru_caches("char2squares")
    # the one cache whose traffic repeats: the parser
    assert {c.__qualname__ for c in caches} == {"_build_parser"}
    for cache in caches:
        cache.cache_clear()
    with tracing.Tracer() as tracer:
        assert run_main(["basis", "--n", "6", "--verify"])[0] == 0
    assert tracer.metrics()["core.cones_expansion_calls"] == 1


def test_rank_loop_gallops_over_equal_drops(monkeypatch):
    # T(V64, V64) has type 64^64: every drop of rank is 64, so the unipotent
    # rank loop eliminates only where the drop could change, not at each power
    from char2squares import gf2, oracle
    from char2squares.core import square_expr

    calls, real = [], gf2._independent_rows

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(gf2, "_independent_rows", counted)
    expr = square_expr("tensor", "unipotent", 64, 64)
    assert oracle.oracle_expr_jordan_type(expr).sizes() == [64] * 64
    assert len(calls) <= 8


def test_rank_loop_eliminations_pinned(monkeypatch):
    # the rank loop's eliminations and visited rows on E2 and S2 of V_n,
    # n <= 40, and T(V_m, V_n), m <= n <= 16: each bound the loop keeps saves
    # some, and each basis it keeps some rows, so a lost rule shows here
    from char2squares import gf2, oracle
    from char2squares.core import square_expr

    calls, real = [], gf2._independent_rows

    def counted(rows, indices, pivots):
        calls.append(len(indices))
        return real(rows, indices, pivots)

    monkeypatch.setattr(gf2, "_independent_rows", counted)
    exprs = [square_expr(f, "unipotent", n) for f in ("ext2", "sym2") for n in range(1, 41)]
    exprs += [square_expr("tensor", "unipotent", n, m) for n in range(1, 17) for m in range(1, n + 1)]
    for expr in exprs:
        oracle.oracle_expr_jordan_type(expr)
    assert (len(calls), sum(calls)) == (1249, 216786)


def _reduction_steps(images):
    """The pivot lookups of the graded sweep's elder-rule loop on one degree's
    images, counted: each image in order is reduced against the pivots kept
    before it, and becomes one unless it reduces to 0."""
    pivots, steps = {}, 0
    for x in images:
        while x:
            steps += 1
            top = x.bit_length()
            if top not in pivots:
                pivots[top] = x
                break
            x ^= pivots[top]
    return steps


def test_graded_sweep_work_pinned(monkeypatch):
    # the sweep moves each degree with one gf2._apply_form call, and carries
    # each survivor reduced against the older ones, so an image at the next
    # degree mostly needs one step.  Carrying the images unreduced gives the
    # same types but repeats those reductions, so the steps are pinned on E2
    # and S2 of W_n, n <= 40, and T(W_m, W_n), m <= n <= 16
    from char2squares import gf2, oracle
    from char2squares.core import square_expr

    moves, real = [], gf2._apply_form

    def recorded(form, masks):
        moves.append(real(form, masks))
        return moves[-1]

    monkeypatch.setattr(gf2, "_apply_form", recorded)
    exprs = [square_expr(f, "nilpotent", n) for f in ("ext2", "sym2") for n in range(1, 41)]
    exprs += [square_expr("tensor", "nilpotent", n, m) for n in range(1, 17) for m in range(1, n + 1)]
    for expr in exprs:
        oracle.oracle_expr_jordan_type(expr)
    vectors, steps = sum(map(len, moves)), sum(map(_reduction_steps, moves))
    assert (len(moves), vectors, steps) == (5082, 31921, 32835)
