"""Seeded inputs for each workload, and the checks on the program's outputs.

Every input is a CLI argument list.  Sizes sit on fixed grids; the seed
draws the random expressions, the `table` sizes and the call order, so that
every seed gives a pass of nearly the same cost and the same spread of call
latencies.  The checks recompute each expected property from the input alone
(see reference.py), never from stored program output.
"""

from __future__ import annotations

import io
import json
import random
import re
from dataclasses import dataclass

import reference

KINDS = ("unipotent", "nilpotent")
LETTER = {"unipotent": "V", "nilpotent": "W"}

# Items at or below these dimensions are also checked against the dense
# reference (all workloads) and against `expr --method oracle` (formula_expr).
NAIVE_MAX_DIM = 200
ORACLE_MAX_DIM = 1500


@dataclass(frozen=True)
class Call:
    """One CLI call: argv for char2squares.cli.main and what to check."""

    argv: tuple[str, ...]
    check: str  # "pair" (--method both), "expr", "table" or "basis"
    kind: str = ""  # unipotent/nilpotent; "" for table sweeps
    tree: tuple | None = None  # the module as a reference.py tree
    size: int = 0  # table --max, or basis --n


def atom(kind: str, dim: int, mult: int = 1) -> tuple:
    return ("atom", kind, dim, mult)


# --- rendering expressions as text -------------------------------------------


def render(expr, r: random.Random) -> str:
    """Text the parser reads back as the same tree, with seeded spacing and parentheses."""

    def sp() -> str:
        return " " if r.random() < 0.3 else ""

    def factor(e) -> str:
        text = node(e)
        if e[0] in ("sum", "rep"):
            return f"({text})"
        if r.random() < 0.1:
            return f"({sp()}{text}{sp()})"
        return text

    def node(e) -> str:
        op = e[0]
        if op == "atom":
            text = f"{LETTER[e[1]]}{e[2]}"
            return f"{e[3]}{sp()}*{sp()}{text}" if e[3] > 1 else text
        if op == "sum":
            return f"{sp()}+{sp()}".join(factor(t) if t[0] == "sum" else node(t) for t in e[1])
        if op == "rep":
            return f"{e[1]}{sp()}*{sp()}{factor(e[2])}"
        if op == "T":
            return f"T({sp()}{node(e[1])}{sp()},{sp()}{node(e[2])}{sp()})"
        return f"{op}({sp()}{node(e[1])}{sp()})"

    return node(expr)


def random_tree(r: random.Random, kind: str, depth: int, width: int, max_dim: int):
    """A random module of the given functor depth; sums have up to `width` terms."""
    if depth == 0:
        return atom(kind, r.randint(1, max_dim), r.choice((1, 1, 1, 2, 3)))
    op = r.choice(("sum", "sum", "T", "E2", "S2", "rep"))
    if op == "sum":
        count = r.randint(2, width)
        terms = [random_tree(r, kind, r.randrange(depth), width, max_dim) for _ in range(count)]
        return ("sum", tuple(terms))
    if op == "rep":
        count, inner = r.randint(2, 3), random_tree(r, kind, depth - 1, width, max_dim)
        if inner[0] == "atom":  # the grammar writes k*(m*Wd) as (k*m)*Wd
            return atom(kind, inner[2], count * inner[3])
        return ("rep", count, inner)
    # functor arguments get smaller atoms so that nesting stays cheap
    inner_dim = max(2, max_dim // 2)
    if op == "T":
        return (
            "T",
            random_tree(r, kind, depth - 1, width, inner_dim),
            random_tree(r, kind, r.randrange(depth), width, inner_dim),
        )
    return (op, random_tree(r, kind, depth - 1, width, inner_dim))


def wide_sum(r: random.Random, kind: str, k: int) -> tuple:
    """Sum of k atoms of distinct dimensions: every cross term is a new tensor product."""
    return ("sum", tuple(atom(kind, d) for d in r.sample(range(1, 1001), k)))


# --- workloads ---------------------------------------------------------------


def _decompose(functor: str, kind: str, n: int, m: int | None = None) -> Call:
    argv = ["decompose", "--functor", functor, "--kind", kind, "--n", str(n)]
    if functor == "tensor":
        argv += ["--m", str(m)]
        tree = ("T", atom(kind, m), atom(kind, n))
    else:
        tree = ("E2" if functor == "ext2" else "S2", atom(kind, n))
    argv += ["--method", "both", "--format", "json"]
    return Call(tuple(argv), "pair", kind, tree)


def _expr(text: str, tree, kind: str, method: str) -> Call:
    argv = ("expr", text, "--method", method, "--format", "json")
    return Call(argv, "pair" if method == "both" else "expr", kind, tree)


# The sizes of decompose and basis calls do not depend on the seed, which
# draws only the call order and the expressions: a seeded jitter of n moved
# the cost of the median call by about a tenth from seed to seed.

# decompose --functor ext2|sym2, for each kind: n at each grid point
SQUARE_GRID = range(4, 70, 5)
# decompose --functor tensor, for each kind: n at each grid point, m/n from MIXED_RATIOS
TENSOR_GRID = range(4, 65, 4)
MIXED_RATIOS = (1.0, 0.875, 0.75, 0.625, 0.5)


def oracle_crosscheck(r: random.Random) -> list[Call]:
    calls = []
    for functor in ("ext2", "sym2"):
        for kind in KINDS:
            calls += [_decompose(functor, kind, n) for n in SQUARE_GRID]
    for kind in KINDS:
        for i, n in enumerate(TENSOR_GRID):
            m = round(n * MIXED_RATIOS[i % len(MIXED_RATIOS)])
            calls.append(_decompose("tensor", kind, n, m))
    for i in range(12):
        # small direct sums, so that expr_action and direct_sum take part
        kind = KINDS[i % 2]
        tree = random_tree(r, kind, 1 + i % 2, 3, 6)
        while not 20 <= reference.dim(tree) <= 300:
            tree = random_tree(r, kind, 1 + i % 2, 3, 6)
        calls.append(_expr(render(tree, r), tree, kind, "both"))
    r.shuffle(calls)
    return calls


# basis --functor F --verify at each n of the grid; the last few dominate
BASIS_GRID = {
    "tensor": (*range(2, 49), 64, 128),
    "sym2": (*range(2, 51), 64, 96, 128),
}


def basis_verify(r: random.Random) -> list[Call]:
    calls = []
    for functor, grid in BASIS_GRID.items():
        for n in grid:
            a = atom("nilpotent", n)
            tree = ("T", a, a) if functor == "tensor" else ("S2", a)
            argv = ("basis", "--n", str(n), "--functor", functor, "--verify")
            calls.append(Call(argv, "basis", "nilpotent", tree, n))
    r.shuffle(calls)
    return calls


# (functor, kind, number of distinct atoms) of the wide squares of sums; the
# ten k=32 items hold the 90th percentile of the call latencies
WIDE = (
    ("S2", "nilpotent", 64), ("E2", "unipotent", 48), ("S2", "unipotent", 40),
    ("E2", "nilpotent", 40),
    *((("S2", "E2")[i % 2], KINDS[i // 2 % 2], 32) for i in range(10)),
)
TABLE_GRID = (9, 40, 150, 400, 1000, 2000)


def formula_expr(r: random.Random) -> list[Call]:
    calls = []
    for functor, kind, k in WIDE:
        tree = (functor, wide_sum(r, kind, k))
        calls.append(_expr(render(tree, r), tree, kind, "formula"))
    for base in TABLE_GRID:
        n = base + r.randint(0, max(1, base // 50))
        calls.append(Call(("table", "--max", str(n)), "table", "", None, n))
    for i in range(24):
        # deeper and wider modules
        kind = KINDS[i % 2]
        tree = random_tree(r, kind, 1 + i % 4, 2 + i % 4, 40)
        calls.append(_expr(render(tree, r), tree, kind, "formula"))
    for i in range(60):
        # one functor or none: these calls cost about as much as the CLI
        # itself and hold the median latency
        kind = KINDS[i % 2]
        tree = random_tree(r, kind, i % 2, 2, 60)
        calls.append(_expr(render(tree, r), tree, kind, "formula"))
    r.shuffle(calls)
    return calls


WORKLOADS = {
    "oracle_crosscheck": oracle_crosscheck,
    "basis_verify": basis_verify,
    "formula_expr": formula_expr,
}


def generate(workload: str, seed: int) -> list[Call]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))


# --- checks ------------------------------------------------------------------


class Checker:
    """Checks outputs against properties recomputed from the inputs.

    Dense-reference Jordan types are cached per tree, so each distinct input
    is reduced once per process.
    """

    def __init__(self, cli_main):
        self.cli_main = cli_main  # used only for `expr --method oracle`
        self._naive: dict = {}

    def naive(self, tree, kind: str) -> reference.Parts:
        key = (tree, kind)
        if key not in self._naive:
            self._naive[key] = reference.expr_type(tree, kind)
        return self._naive[key]

    def check(self, call: Call, code, out: str) -> str | None:
        """None if the output is right, else what is wrong."""
        if code != 0:
            return f"exit code {code!r}"
        try:
            return getattr(self, f"_check_{call.check}")(call, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {exc!r}"

    def _parts_ok(self, tree, kind: str, parts: reference.Parts, total: int) -> str | None:
        dim = reference.dim(tree)
        block_sum = sum(s * m for s, m in parts)
        if total != dim or block_sum != dim:
            return f"total_dim {total} and block sum {block_sum}, expected {dim}"
        sizes = [s for s, _ in parts]
        if sizes != sorted(set(sizes), reverse=True) or any(m < 1 for _, m in parts):
            return "blocks not strictly decreasing with positive multiplicities"
        blocks = sum(m for _, m in parts)
        if tree[0] == "T" and tree[1][0] == tree[2][0] == "atom" and tree[1][3] == tree[2][3] == 1:
            if blocks != min(tree[1][2], tree[2][2]):
                return f"tensor has {blocks} blocks, expected min(m, n)"
        if tree[0] == "S2" and tree[1][0] == "atom" and tree[1][3] == 1 and kind == "nilpotent":
            if blocks != tree[1][2]:
                return f"sym2(W_n) has {blocks} blocks, expected n"
        if dim <= NAIVE_MAX_DIM and parts != self.naive(tree, kind):
            return f"differs from the dense reference {self.naive(tree, kind)}"
        return None

    @staticmethod
    def _json_parts(line: str) -> tuple[dict, reference.Parts]:
        payload = json.loads(line)
        return payload, tuple((b["size"], b["multiplicity"]) for b in payload["blocks"])

    def _check_pair(self, call: Call, out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != 2:
            return f"expected two JSON lines, got {len(lines)}"
        (first, parts), (second, parts2) = map(self._json_parts, lines)
        if parts != parts2 or first["method"] != "both" or second["method"] != "both":
            return "formula and oracle lines differ"
        return self._parts_ok(call.tree, call.kind, parts, first["total_dim"])

    def _check_expr(self, call: Call, out: str) -> str | None:
        payload, parts = self._json_parts(out)
        if payload["input"] != {"expr": call.argv[1]} or payload["method"] != "formula":
            return "input or method not echoed"
        problem = self._parts_ok(call.tree, call.kind, parts, payload["total_dim"])
        if problem or reference.dim(call.tree) > ORACLE_MAX_DIM:
            return problem
        argv = ["expr", call.argv[1], "--method", "oracle", "--format", "json"]
        oracle_out = io.StringIO()
        code = self.cli_main(argv, oracle_out, io.StringIO())
        if code != 0 or self._json_parts(oracle_out.getvalue())[1] != parts:
            return "formula differs from `expr --method oracle`"
        return None

    def _check_table(self, call: Call, out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != call.size + 1:
            return f"expected {call.size} rows"
        for n, line in enumerate(lines[1:], start=1):
            cells = re.split(r"\s{2,}", line.strip())
            if int(cells[0]) != n or len(cells) != 5:
                return f"row {n} malformed"
            e2v, s2v, e2w, s2w = map(reference.parse_parts, cells[1:])
            columns = (
                (e2v, "E2", "unipotent"),
                (s2v, "S2", "unipotent"),
                (e2w, "E2", "nilpotent"),
                (s2w, "S2", "nilpotent"),
            )
            for parts, functor, kind in columns:
                total = sum(s * m for s, m in parts)
                problem = self._parts_ok((functor, atom(kind, n)), kind, parts, total)
                if problem:
                    return f"row {n}: {functor}({LETTER[kind]}_{n}) {problem}"
            if e2w != tuple((s - 1, m) for s, m in s2w if s > 1):
                return f"row {n}: ext2(W_n) is not sym2(W_n) with blocks shortened by one"
            if n in reference.TABLE_1 and tuple(cells[1:]) != reference.TABLE_1[n]:
                return f"row {n} differs from Table 1 of the paper"
        return None

    def _check_basis(self, call: Call, out: str) -> str | None:
        n, functor = call.size, call.argv[4]
        dim = reference.dim(call.tree)
        match = re.fullmatch(
            rf"{functor} square of W_{n}: (\d+) chains, type (.+)\n"
            rf"verification passed \((\d+) vectors\)\n",
            out,
        )
        if not match:
            return "output lines do not match"
        chains, parts, vectors = int(match[1]), reference.parse_parts(match[2]), int(match[3])
        if chains != n or vectors != dim:
            return f"{chains} chains and {vectors} vectors, expected {n} and {dim}"
        return self._parts_ok(call.tree, call.kind, parts, dim)
