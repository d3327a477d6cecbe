"""Brute-force ground truth: explicit GF(2) matrices for actions on squares.

Builds the matrix of a unipotent operator u (acting diagonally) or a
nilpotent operator e (acting as a derivation) on tensor products, exterior
squares and symmetric squares, then extracts Jordan types with the exact
linear algebra kernel.
"""

from __future__ import annotations

import os

from .core import Atom, Ext2, JordanType, Kind, ModuleExpr, Scaled, Sum, Sym2, Tensor, square_expr
from .gf2 import Gf2Matrix, _support, identity, jordan_type_of_nilpotent

Functor = str  # one of core.FUNCTORS

DEFAULT_DIM_CAP = 20_000
CAP_ENV_VAR = "CHAR2SQUARES_ORACLE_CAP"


class OracleCapExceeded(RuntimeError):
    """The requested functor space is larger than the configured cap."""

    def __init__(self, dim: int, cap: int):
        super().__init__(f"oracle space has dimension {dim}, above the cap {cap}")
        self.dim = dim
        self.cap = cap


def dim_cap() -> int:
    """Active oracle dimension cap (overridable via environment)."""
    value = os.environ.get(CAP_ENV_VAR)
    if not value:
        return DEFAULT_DIM_CAP
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, not {value!r}") from None


def _check_cap(dim: int, cap: int | None) -> None:
    if cap is not None and dim > cap:
        raise OracleCapExceeded(dim, cap)


def _check_kind(kind: Kind) -> None:
    if kind not in ("unipotent", "nilpotent"):
        raise ValueError(f"unknown kind {kind!r}")


def block_matrix(kind: Kind, n: int) -> Gf2Matrix:
    """Single Jordan block in upper-shift convention: e v_1 = 0, e v_i = v_{i-1}."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_kind(kind)
    shift = tuple((1 << (i + 1)) if i + 1 < n else 0 for i in range(n))
    mat = Gf2Matrix(n, n, shift)
    if kind == "unipotent":
        mat = mat + identity(n)
    return mat


def basis_keys(functor: Functor, n: int, m: int | None = None) -> list[tuple[int, int]]:
    """Canonical ordered basis, as 1-based index pairs in lex order.

    tensor: all (i, j); ext2: i < j; sym2: i <= j.  For mixed tensors the
    first index runs over 1..m and the second over 1..n.
    """
    if functor == "tensor":
        rows = m if m is not None else n
        return [(i, j) for i in range(1, rows + 1) for j in range(1, n + 1)]
    if functor == "ext2":
        return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if functor == "sym2":
        return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    raise ValueError(f"unknown functor {functor!r}")


# --- generic functor actions ---------------------------------------------
#
# Builders below take the matrix of the operator on the base space(s); the
# basis of a product space is ordered as basis_keys lists it.


def _pair_action(a: Gf2Matrix, b: Gf2Matrix, kind: Kind, functor: Functor) -> Gf2Matrix:
    """Action on the pairs v_i (x) v_j of a and b, reduced to the functor's quotient.

    u acts as u (x) u and e as the derivation e (x) 1 + 1 (x) e.  ext2 and
    sym2 take b = a and identify (k, l) with (l, k); the pairs (k, k), which
    ext2 alone leaves out, go to a spare row that is dropped.
    """
    _check_kind(kind)
    keys = basis_keys(functor, b.rows, a.rows)
    spare = len(keys)
    # 1-based like keys; index 0 is padding
    row_of = [[spare] * (b.rows + 1) for _ in range(a.rows + 1)]
    for pos, (i, j) in enumerate(keys):
        row_of[i][j] = pos
        if functor != "tensor":
            row_of[j][i] = pos
    down_a, down_b = ([()] + [[k + 1 for k in _support(c)] for c in m.columns()] for m in (a, b))
    rows = [0] * (spare + 1)
    nilpotent = kind == "nilpotent"
    for col, (i, j) in enumerate(keys):
        bit = 1 << col
        if nilpotent:
            for k in down_a[i]:
                rows[row_of[k][j]] ^= bit
            for l in down_b[j]:
                rows[row_of[i][l]] ^= bit
        else:
            for k in down_a[i]:
                for l in down_b[j]:
                    rows[row_of[k][l]] ^= bit
    return Gf2Matrix(spare, spare, tuple(rows[:-1]))


def ext2_of(a: Gf2Matrix, kind: Kind) -> Gf2Matrix:
    return _pair_action(a, a, kind, "ext2")


def sym2_of(a: Gf2Matrix, kind: Kind) -> Gf2Matrix:
    return _pair_action(a, a, kind, "sym2")


def direct_sum(mats: list[Gf2Matrix]) -> Gf2Matrix:
    dim = sum(m.rows for m in mats)
    rows = []
    offset = 0
    for m in mats:
        rows.extend(row << offset for row in m.data)
        offset += m.cols
    return Gf2Matrix(dim, dim, tuple(rows))


# --- concrete oracle entry points ----------------------------------------


def square_action(
    kind: Kind, functor: Functor, n: int, *, cap: int | None = DEFAULT_DIM_CAP
) -> Gf2Matrix:
    """Matrix of u or e on the chosen square of the size-n block."""
    return expr_action(square_expr(functor, kind, n), kind, cap=cap)


def tensor_action(
    kind: Kind, m: int, n: int, *, cap: int | None = DEFAULT_DIM_CAP
) -> Gf2Matrix:
    """Matrix of u or e on the mixed tensor product of blocks of sizes m, n."""
    return expr_action(square_expr("tensor", kind, n, m), kind, cap=cap)


def expr_action(
    expr: ModuleExpr, kind: Kind, *, cap: int | None = DEFAULT_DIM_CAP
) -> Gf2Matrix:
    """Matrix of the operator on an arbitrary module expression."""
    if isinstance(expr, Atom):
        if expr.kind != kind:
            raise ValueError("expression kind mismatch")
        _check_cap(expr.dim, cap)
        return block_matrix(kind, expr.dim)
    if isinstance(expr, Scaled):
        inner = expr_action(expr.inner, kind, cap=cap)
        _check_cap(expr.count * inner.rows, cap)
        # any number of copies of a zero space is that space
        return direct_sum([inner] * expr.count) if inner.rows else inner
    if isinstance(expr, Sum):
        mats, total = [], 0
        for t in expr.terms:
            mats.append(expr_action(t, kind, cap=cap))
            total += mats[-1].rows
            _check_cap(total, cap)
        return direct_sum(mats)
    if isinstance(expr, Tensor):
        left = expr_action(expr.left, kind, cap=cap)
        right = expr_action(expr.right, kind, cap=cap)
        _check_cap(left.rows * right.rows, cap)
        return _pair_action(left, right, kind, "tensor")
    if isinstance(expr, (Ext2, Sym2)):
        inner = expr_action(expr.inner, kind, cap=cap)
        d = inner.rows
        if isinstance(expr, Ext2):
            _check_cap(d * (d - 1) // 2, cap)
            return ext2_of(inner, kind)
        _check_cap(d * (d + 1) // 2, cap)
        return sym2_of(inner, kind)
    raise TypeError(f"not a module expression: {expr!r}")


def oracle_jordan_type(
    kind: Kind,
    functor: Functor,
    n: int,
    m: int | None = None,
    *,
    cap: int | None = DEFAULT_DIM_CAP,
) -> JordanType:
    """Ground-truth Jordan type via explicit matrices and rank sequences."""
    return oracle_expr_jordan_type(square_expr(functor, kind, n, m), kind, cap=cap)


def oracle_expr_jordan_type(
    expr: ModuleExpr, kind: Kind, *, cap: int | None = DEFAULT_DIM_CAP
) -> JordanType:
    """Ground-truth Jordan type of the operator on a module expression."""
    return _jordan_of_action(expr_action(expr, kind, cap=cap), kind)


def _jordan_of_action(mat: Gf2Matrix, kind: Kind) -> JordanType:
    if kind == "unipotent":
        mat = mat + identity(mat.rows)
    return jordan_type_of_nilpotent(mat)
