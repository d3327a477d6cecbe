"""Acceptance suite: one criterion per test, each printing a pass/fail line."""

import itertools
import time

from char2squares.basis import build_sym_basis, build_tensor_basis, build_z, chain_type, verify_basis
from char2squares.core import (
    Atom, Ext2, Scaled, Sum, Sym2, cones_expansion, parse_jordan_type, square_expr,
)
from char2squares.formulas import (
    decompose_expr,
    ext2_block,
    ext2_nilpotent,
    ext2_nilpotent_rec,
    ext2_unipotent,
    sym2_block,
    sym2_nilpotent,
    sym2_nilpotent_rec,
    sym2_unipotent,
    tensor_decompose,
)
from char2squares.oracle import expr_forms, oracle_expr_jordan_type, oracle_jordan_type

TABLE_1 = {
    1: ("0", "1", "0", "1"),
    2: ("1", "2 1", "1", "2 1"),
    3: ("3", "4 2", "3", "4 1^2"),
    4: ("4 2", "4^2 2", "3^2", "4^2 1^2"),
    5: ("7 3", "8 4 3", "7 3", "8 4 1^3"),
    6: ("8 6 1", "8^2 4 1", "7^2 1", "8^2 2 1^3"),
    7: ("8^2 5", "8^3 4", "7^3", "8^3 1^4"),
    8: ("8^3 4", "8^4 4", "7^4", "8^4 1^4"),
    9: ("15 8^2 5", "16 8^3 5", "15 7^3", "16 8^3 1^5"),
}


def report(capsys, number, label, elapsed, limit):
    status = "PASS" if elapsed < limit else "FAIL"
    line = f"[{status}] criterion {number}: {label} ({elapsed:.2f}s, limit {limit}s)"
    # the pass/fail line must reach the terminal even without -s
    with capsys.disabled():
        print(line, flush=True)
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_table_golden(capsys):
    start = time.monotonic()
    for n, expected in TABLE_1.items():
        produced = (
            str(ext2_unipotent(n)),
            str(sym2_unipotent(n)),
            str(ext2_nilpotent(n)),
            str(sym2_nilpotent(n)),
        )
        assert produced == expected, (n, produced, expected)
    report(capsys, 1, "published table of squares for n=1..9 (36 entries)", time.monotonic() - start, 1)


def test_criterion_2_formula_equals_oracle(capsys):
    start = time.monotonic()
    for kind, functor in itertools.product(
        ("unipotent", "nilpotent"), ("ext2", "sym2")
    ):
        formula = ext2_block if functor == "ext2" else sym2_block
        for n in range(1, 101):
            got = oracle_jordan_type(kind, functor, n)
            assert got == formula(n, kind), (kind, functor, n)
    report(capsys, 2, "formula = oracle for n=1..100, both kinds and squares", time.monotonic() - start, 120)


def test_criterion_3_tensor_agreement(capsys):
    start = time.monotonic()
    for kind in ("unipotent", "nilpotent"):
        for n in range(1, 49):
            for m in range(1, n + 1):
                got = oracle_jordan_type(kind, "tensor", n, m)
                assert got == tensor_decompose(m, n), (kind, m, n)
    report(capsys, 3, "tensor formula = oracle for m<=n<=48, both kinds", time.monotonic() - start, 60)


def test_criterion_4_basis_verification(capsys):
    start = time.monotonic()
    for n in range(1, 65):
        chains = build_tensor_basis(n)
        action = expr_forms(square_expr("tensor", "nilpotent", n))
        terminals = [build_z(c.s, n) for c in chains]
        rep = verify_basis(chains, action, terminals)
        assert rep.ok, (n, rep.failures)
        assert chain_type(chains) == tensor_decompose(n, n), n

        sym_chains = build_sym_basis(n)
        sym_action = expr_forms(square_expr("sym2", "nilpotent", n))
        sym_rep = verify_basis(sym_chains, sym_action)
        assert sym_rep.ok, (n, sym_rep.failures)
        assert chain_type(sym_chains) == sym2_nilpotent(n), n
    report(capsys, 4, "Jordan bases verified for n=1..64", time.monotonic() - start, 60)


def test_criterion_5_closed_equals_recursive(capsys):
    start = time.monotonic()
    for n in range(1, (1 << 16) + 1):
        assert ext2_nilpotent(n) == ext2_nilpotent_rec(n), n
        assert sym2_nilpotent(n) == sym2_nilpotent_rec(n), n
    report(capsys, 5, "closed forms = recursions for n<=2^16", time.monotonic() - start, 5)


def test_criterion_6_structural_identities(capsys):
    start = time.monotonic()
    for n in range(1, (1 << 16) + 1):
        sym = sym2_nilpotent(n)
        ext = ext2_nilpotent(n)
        assert sym.block_count == n, n
        assert sym.decremented() == ext, n
        assert sym.total_dim == n * (n + 1) // 2, n
        assert ext.total_dim == n * (n - 1) // 2, n
        exp = cones_expansion(n)
        vals = exp.suffix_values()
        assert n * n == sum(
            (1 << b) * (vals[k] - vals[k + 1]) for k, b in enumerate(exp.betas)
        ), n
    report(capsys, 6, "structural identities for n<=2^16", time.monotonic() - start, 10)


def test_criterion_7_expansion_minimality(capsys):
    start = time.monotonic()
    for n in range(1, 1025):
        r = len(cones_expansion(n).betas)
        for shorter in range(1, r):
            for betas in itertools.combinations(range(11, -1, -1), shorter):
                total = sum((-1) ** i * (1 << b) for i, b in enumerate(betas))
                assert total != n, (n, betas)
    for n in range(1, (1 << 20) + 1):
        exp = cones_expansion(n)
        assert sum((-1) ** i * (1 << b) for i, b in enumerate(exp.betas)) == n
    report(capsys, 7, "expansion minimality (n<=1024) and reconstruction (n<=2^20)", time.monotonic() - start, 30)


def test_criterion_8_named_counterexamples(capsys):
    start = time.monotonic()
    cases = [
        (ext2_unipotent(4), "4 2"),
        (ext2_nilpotent(4), "3^2"),
        (sym2_unipotent(3), "4 2"),
        (sym2_nilpotent(3), "4 1^2"),
        (oracle_jordan_type("unipotent", "ext2", 4), "4 2"),
        (oracle_jordan_type("nilpotent", "ext2", 4), "3^2"),
        (oracle_jordan_type("unipotent", "sym2", 3), "4 2"),
        (oracle_jordan_type("nilpotent", "sym2", 3), "4 1^2"),
    ]
    for got, expected in cases:
        assert got == parse_jordan_type(expected), (got, expected)
    report(capsys, 8, "unipotent/nilpotent counterexamples at n=3,4", time.monotonic() - start, 60)


def partitions(n, largest=None):
    """Every partition of n into parts of at most largest, as (part, count) pairs, largest first."""
    largest = n if largest is None else largest
    if n == 0:
        yield []
        return
    for part in range(min(n, largest), 0, -1):
        for count in range(1, n // part + 1):
            for rest in partitions(n - part * count, part - 1):
                yield [(part, count)] + rest


def test_criterion_9_every_partition(capsys):
    start = time.monotonic()
    cases = 0
    for kind in ("unipotent", "nilpotent"):
        for n in range(1, 17):
            for parts in partitions(n):
                space = Sum(tuple(Scaled(count, Atom(kind, part)) for part, count in parts))
                for square in (Ext2(space), Sym2(space)):
                    assert oracle_expr_jordan_type(square) == decompose_expr(square), (kind, parts)
                    cases += 1
    assert cases == 3656
    report(capsys, 9, "formula = oracle on E2 and S2 of every partition of n<=16, both kinds",
           time.monotonic() - start, 20)
