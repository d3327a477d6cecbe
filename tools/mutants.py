"""Checked-in mutants: each is one small edit that some test must fail on.

    python3 tools/mutants.py [--list] [NAME ...]

Each row names a file, the exact old text, the new text and the tests to
run.  For each row (or each row whose name contains one of the NAMEs) the
script copies src/, tests/, bench/ (which some tests import) and
pyproject.toml into a temporary directory, applies the edit there, and
runs `python -m pytest -x -q` on the row's tests.  A failing test kills
the mutant; if every test passes it survived.
An old text that does not occur exactly once in its file is an error,
reported before anything runs, so the list stays in step with the code.
The checkout itself is never edited.

Each run may take TIMEOUT_S seconds and MEMORY_BYTES of address space: a
mutant that loops without end is stopped and reported as a timeout, which
counts as caught, and one that allocates without end fails its tests with
MemoryError.  It prints one line per row, killed, timeout or survived with
the seconds its tests took, and exits 1 if any mutant survived or any run
could not be made.

Stdlib only, and outside tests/, so that the test suite does not collect it.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PKG = "src/char2squares/"
TIMEOUT_S = 120
MEMORY_BYTES = 2 << 30


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments, relative to the root


MUTANTS = (
    # --- parser
    Mutant("parser: a multiplicity of 0 is let through", PKG + "parser.py",
           "if count < 1:", "if count < 0:", ("tests/test_parser.py",)),
    Mutant("parser: a sum keeps only its first term", PKG + "parser.py",
           "return terms[0] if len(terms) == 1 else Sum(tuple(terms))", "return terms[0]",
           ("tests/test_parser.py",)),
    # --- core
    Mutant("core: format_jordan_type writes ^1", PKG + "core.py",
           'f"{s}^{m}" if m > 1 else str(s)', 'f"{s}^{m}" if m > 0 else str(s)',
           ("tests/test_core.py",)),
    Mutant("core: from_pairs keeps the last multiplicity of a size, not the sum", PKG + "core.py",
           "acc[size] = acc.get(size, 0) + mult", "acc[size] = mult", ("tests/test_core.py",)),
    # --- formulas
    Mutant("formulas: ext2_nilpotent gives each band one more block", PKG + "formulas.py",
           "parts=tuple(((1 << b) - 1, m) for b, m", "parts=tuple(((1 << b) - 1, m + 1) for b, m",
           ("tests/test_formulas.py",)),
    Mutant("formulas: square_rows drops the ^2 of an ext2(W) head", PKG + "formulas.py",
           'e2w = f"{q - 1}^{k}" if k > 1 else str(q - 1)',
           'e2w = f"{q - 1}^{k}" if k > 2 else str(q - 1)',
           ("tests/test_formulas.py", "tests/test_cli.py::TestTable")),
    Mutant("formulas: _add_tensor peels one block too many", PKG + "formulas.py",
           "acc[size] = get(size, 0) + (m + n - q) * c",
           "acc[size] = get(size, 0) + (m + n - q + 1) * c", ("tests/test_formulas.py",)),
    Mutant("formulas: _add_tensor adds a block of 512 at m + n = 513", PKG + "formulas.py",
           "acc[size] = get(size, 0) + (m + n - q) * c",
           "acc[size] = get(size, 0) + (m + n - q + (size == 512 and m + n == 513)) * c",
           ("tests/test_formulas.py::TestTensor",)),
    Mutant("formulas: _eval counts the cross terms of equal blocks as C(k + 1, 2)", PKG + "formulas.py",
           "_add_tensor(acc, a, a, ca * (ca - 1) // 2 * c)",
           "_add_tensor(acc, a, a, ca * (ca + 1) // 2 * c)", ("tests/test_formulas.py",)),
    # --- oracle builders
    Mutant("oracle: _pair_builder leaves out X (x) Y of u - 1", PKG + "oracle.py",
           "columns += [list(map(getitem, row, y)) for row in lefts for y in rights]",
           "columns += []", ("tests/test_oracle.py",)),
    Mutant("oracle: _pair_builder keeps only the first X (x) Y column pair", PKG + "oracle.py",
           "columns += [list(map(getitem, row, y)) for row in lefts for y in rights]",
           "columns += [list(map(getitem, row, y)) for row in lefts[:1] for y in rights[:1]]",
           ("tests/test_oracle.py::TestFactors",)),
    Mutant("oracle: _pair_builder keeps its all-none columns", PKG + "oracle.py",
           "return [column for column in columns if column.count(dim) <= dim]", "return columns",
           ("tests/test_oracle.py::TestFactors",)),
    Mutant("oracle: _sum_forms ignores the offset of the degree below", PKG + "oracle.py",
           "key = shift + below - low", "key = shift - low",
           ("tests/test_oracle.py::TestExprForms",)),
    Mutant("oracle: _pair_forms' fold drops x_p e(y_p) in S2", PKG + "oracle.py",
           "if p != t or sym2:", "if p != t:", ("tests/test_oracle.py::TestExprForms",)),
    Mutant("oracle: _pair_forms without the run-boundary term of e (x) 1", PKG + "oracle.py",
           "if a0 == la and _grounded(ra, ia):", "if False:", ("tests/test_oracle.py::TestExprForms",)),
    Mutant("oracle: _pair_forms without the run-boundary term of 1 (x) e", PKG + "oracle.py",
           "if a0 <= a <= last and _grounded(rb, ib):", "if False:",
           ("tests/test_oracle.py::TestExprForms",)),
    Mutant("oracle: _pair_forms without the fold", PKG + "oracle.py",
           "if last < a1:", "if False:", ("tests/test_oracle.py::TestExprForms",)),
    Mutant("oracle: _pair_forms without the diagonal block of E2 and S2", PKG + "oracle.py",
           "for d, i in diagonal.items():", "for d, i in {}.items():",
           ("tests/test_oracle.py::TestExprForms",)),
    Mutant("oracle: _pair_forms maps an ungrounded diagonal block", PKG + "oracle.py",
           "if c < 2 or not f or d // 2 == lo and not _grounded(ra, i):", "if c < 2 or not f:",
           ("tests/test_oracle.py::TestExprForms",)),
    Mutant("oracle: _spread widens bit p to bit p, not field p", PKG + "oracle.py",
           "((1 << width) - 1) << p * width", "((1 << width) - 1) << p",
           ("tests/test_oracle.py::TestExprForms",)),
    Mutant("oracle: _targets sends source p to p - shift", PKG + "oracle.py",
           "targets[p].append(p + shift)", "targets[p].append(p - shift)",
           ("tests/test_oracle.py::TestExprForms",)),
    # --- gf2
    Mutant("gf2: _ranks holds the line one power past p - short", PKG + "gf2.py",
           "free = max(free, p - short)", "free = max(free, p - short + 1)",
           ("tests/test_gf2.py", "tests/test_oracle.py")),
    Mutant("gf2: _graded_sweep closes a bar one size short", PKG + "gf2.py",
           "sizes.append(b + 1 - prev)", "sizes.append(b - prev)", ("tests/test_gf2.py",)),
    Mutant("gf2: _graded_sweep lists the fresh vectors before the survivors", PKG + "gf2.py",
           "alive, births = reduced + fresh, born + [d] * len(fresh)",
           "alive, births = fresh + reduced, [d] * len(fresh) + born", ("tests/test_gf2.py",)),
    Mutant("gf2: _graded_sweep carries its survivors unreduced", PKG + "gf2.py",
           "for b, x in zip(births, images):\n            while x:\n                top = x.bit_length()\n"
           "                p = pivots[top]\n                if not p:\n                    pivots[top] = x\n"
           "                    reduced.append(x)",
           "for b, x, image in zip(births, images, images):\n            while x:\n"
           "                top = x.bit_length()\n                p = pivots[top]\n                if not p:\n"
           "                    pivots[top] = x\n                    reduced.append(image)",
           # the types stay right; only the pinned reduction steps show it
           ("tests/test_layers.py::test_graded_sweep_work_pinned",)),
    Mutant("gf2: _apply_form keeps only its last diagonal", PKG + "gf2.py",
           "images = list(moved) if images is None else list(map(xor, images, moved))",
           "images = list(moved)", ("tests/test_gf2.py",)),
    Mutant("gf2: _independent_rows stops after one reduction step", PKG + "gf2.py",
           "x = rows[i]\n        while x:", "x = rows[i]\n        if x:", ("tests/test_gf2.py",)),
    Mutant("gf2: jordan_type_of_images empties the caller's images", PKG + "gf2.py",
           "factors = _squared_factors(list(images))", "factors = _squared_factors(images)",
           ("tests/test_gf2.py",)),
    # --- basis
    Mutant("basis: JordanChain takes vectors of two squares", PKG + "basis.py",
           "if vspace != space or vn != n:", "if False:", ("tests/test_basis.py",)),
    Mutant("basis: JordanChain takes degrees that do not fall by one", PKG + "basis.py",
           "if vdegree != degree - pos:", "if False:", ("tests/test_basis.py",)),
    Mutant("basis: JordanChain takes degrees below 0", PKG + "basis.py",
           "if vdegree < 0:", "if False:", ("tests/test_basis.py",)),
    Mutant("basis: _top steps by 2^(beta - 1), not 2^beta", PKG + "basis.py",
           "i = s // 2 + half + j * step", "i = s // 2 + half + j * half",
           ("tests/test_basis.py",)),
    Mutant("basis: the doubling without its valid mask", PKG + "basis.py",
           "x = x << shift | (x >> h ^ x) & ok >> end - double", "x = x << shift | (x >> h ^ x)",
           ("tests/test_basis.py",)),
    Mutant("basis: the sym2 fold reads upto at one offset for both chains", PKG + "basis.py",
           "x = x & bounds >> bits ^ y & bounds", "x = x & bounds >> bits ^ y & bounds >> bits",
           ("tests/test_basis.py",)),
    Mutant("basis: verify_basis without its zero check", PKG + "basis.py",
           "if diff or not chain.packed & slot:", "if diff:", ("tests/test_basis.py",)),
    Mutant("basis: verify_basis keeps the top slot in the expected image", PKG + "basis.py",
           "(x ^ x >> top * bits << top * bits) << bits", "x << bits", ("tests/test_basis.py",)),
    Mutant("basis: verify_basis names no image above the top slot", PKG + "basis.py",
           "if diff >> (top + 1) * bits or diff & (1 << low * bits) - 1:",
           "if diff & (1 << low * bits) - 1:", ("tests/test_basis.py",)),
    Mutant("basis: verify_basis ranks all the vectors in one matrix", PKG + "basis.py",
           "matrix_rank = sum(_rank([(d, m) for m in masks], n) for d, masks in by_degree.items())",
           "matrix_rank = _rank([(d, m) for d, masks in by_degree.items() for m in masks], n)",
           # the rank stays right; only the width of the matrix shows it
           ("tests/test_layers.py::test_verify_ranks_all_the_vectors_a_degree_at_a_time",)),
    Mutant("basis: _rank puts every degree in one slot", PKG + "basis.py",
           "rows = tuple(mask << (degree - low) * bits for degree, mask in vectors)",
           "rows = tuple(mask for degree, mask in vectors)", ("tests/test_basis.py",)),
    Mutant("basis: verify_basis takes chains of another square", PKG + "basis.py",
           "if chain.space != space or chain.n != n:", "if False:", ("tests/test_basis.py",)),
    Mutant("basis: verify_basis reads the terminal kill from the top slot", PKG + "basis.py",
           "if diff >> low * bits & slot:", "if diff >> top * bits & slot:", ("tests/test_basis.py",)),
    Mutant("basis: verify_basis reads each link one slot low", PKG + "basis.py",
           "diff >> (top - pos + 1) * bits", "diff >> (top - pos) * bits", ("tests/test_basis.py",)),
    Mutant("basis: verify_basis trusts the last vectors' rank after a failed chain",
           PKG + "basis.py", "if failed or _rank(ends, n) < len(chains):",
           "if _rank(ends, n) < len(chains):", ("tests/test_basis.py", "tests/test_layers.py")),
    Mutant("basis: verify_basis skips the last vectors' rank", PKG + "basis.py",
           "if failed or _rank(ends, n) < len(chains):", "if failed:", ("tests/test_basis.py",)),
    Mutant("basis: verify_basis never ranks all the vectors", PKG + "basis.py",
           "if failed or _rank(ends, n) < len(chains):", "if False:",
           ("tests/test_basis.py", "tests/test_layers.py")),
    # --- cli exit codes
    Mutant("cli: a failed basis --verify exits 0", PKG + "cli.py",
           'print(f"verification failure: {failure}", file=err)\n            return EXIT_MISMATCH',
           'print(f"verification failure: {failure}", file=err)\n            return EXIT_OK',
           ("tests/test_cli.py::TestBasis",)),
    Mutant("cli: a limit exits 1, not 3", PKG + "cli.py",
           'print(f"error: {exc}", file=err)\n        return EXIT_CAP',
           'print(f"error: {exc}", file=err)\n        return EXIT_USAGE', ("tests/test_cli.py",)),
)


def check(mutant: Mutant) -> str | None:
    """Why the mutant cannot be applied to this checkout, or None."""
    found = (ROOT / mutant.path).read_text().count(mutant.old)
    return None if found == 1 else f"old text occurs {found} times in {mutant.path}, not once"


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run(mutant: Mutant) -> tuple[str, float]:
    """('killed', 'timeout' or 'survived', seconds) for one mutant, in a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
        for name in ("src", "tests", "bench"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        target = tree / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("CHAR2SQUARES_ORACLE_CAP", None)
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", *mutant.tests]
        start = time.monotonic()
        try:
            done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S, preexec_fn=_limit_memory)
        except subprocess.TimeoutExpired:
            return "timeout", time.monotonic() - start
        seconds = time.monotonic() - start
    if done.returncode == 0:
        return "survived", seconds
    if done.returncode == 1:  # some test failed
        return "killed", seconds
    raise RuntimeError(f"pytest exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only the rows whose name contains one of these")
    parser.add_argument("--list", action="store_true", help="list the rows and run nothing")
    args = parser.parse_args(argv)
    rows = [m for m in MUTANTS if not args.names or any(n in m.name for n in args.names)]
    if args.list:
        for mutant in rows:
            print(f"{mutant.name}  [{' '.join(mutant.tests)}]")
        return 0
    errors = [f"{m.name}: {why}" for m in rows if (why := check(m))]
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    bad, start = 0, time.monotonic()
    for mutant in rows:
        try:
            verdict, seconds = run(mutant)
        except RuntimeError as exc:
            verdict, seconds = "error", 0.0
            print(f"{mutant.name}: {exc}", file=sys.stderr)
        bad += verdict not in ("killed", "timeout")
        print(f"{verdict:<8} {seconds:6.1f} s  {mutant.name}", flush=True)
    print(f"{len(rows) - bad} of {len(rows)} killed in {time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
