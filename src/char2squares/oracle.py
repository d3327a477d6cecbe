"""Brute-force ground truth: explicit GF(2) actions on squares.

Builds the action of a unipotent operator u (acting diagonally) or a
nilpotent operator e (acting as a derivation) on tensor products, exterior
squares and symmetric squares, once, from the expression tree, as the
images of the basis vectors: sparse position lists, built in time and
memory proportional to the number of nonzero entries.  The same walk
reads the degree of each basis vector off the tree, and the exact linear
algebra kernel takes the images as built, with their degrees, to extract
Jordan types: e lowers every degree by exactly 1, so its type comes from a
graded sweep, and u - 1 lowers it by at least 1, so its ranks of powers
pivot on each image's highest-degree target.
expr_action, square_action and tensor_action are dense views of the same
images, as bit-packed matrices.
"""

from __future__ import annotations

import os

from .core import Atom, Ext2, JordanType, Kind, ModuleExpr, Scaled, Sum, Sym2, Tensor, square_expr
from .gf2 import Gf2Matrix, jordan_type_of_images
# the dense reference kernel; bench/tracing.py wraps it in this namespace
from .gf2 import jordan_type_of_nilpotent  # noqa: F401

Functor = str  # one of core.FUNCTORS
Images = list[list[int]]  # images[c]: positions hit by basis vector c
Degrees = list[int]  # degrees[c]: the degree of basis vector c

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


def _block_images(kind: Kind, n: int) -> Images:
    """Images of v_1, ..., v_n under a single block, as block_matrix lays it out."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_kind(kind)
    if kind == "nilpotent":
        return [[]] + [[c - 1] for c in range(1, n)]
    return [[0]] + [[c - 1, c] for c in range(1, n)]


def block_matrix(kind: Kind, n: int) -> Gf2Matrix:
    """Single Jordan block in upper-shift convention: e v_1 = 0, e v_i = v_{i-1}."""
    return _dense(_block_images(kind, n))


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


# --- the one action builder ----------------------------------------------
#
# An action is held as the images of its basis vectors: images[c] lists, in
# increasing order, the positions of the basis vectors that basis vector c
# is mapped to, each once.  The basis of a product space is ordered as
# basis_keys lists it.


def _cancel(hits: list[int], spare: int) -> list[int]:
    """hits in increasing order, each position kept once if it occurs an odd
    number of times (GF(2) sums), and the spare position dropped."""
    hits.sort()
    out: list[int] = []
    for p in hits:
        if out and out[-1] == p:
            out.pop()
        else:
            out.append(p)
    if out and out[-1] == spare:
        out.pop()
    return out


def _pair_images(
    left: tuple[Images, Degrees], right: tuple[Images, Degrees], kind: Kind, functor: Functor
) -> tuple[Images, Degrees]:
    """Action on the pairs v_i (x) v_j of left and right, reduced to the
    functor's quotient, and the degree of each pair: the sum of its factors'.

    u acts as u (x) u and e as the derivation e (x) 1 + 1 (x) e.  ext2 and
    sym2 take right = left and identify (k, l) with (l, k); the pairs (k, k),
    which ext2 alone leaves out, go to a spare position that is dropped.
    """
    _check_kind(kind)
    (a, a_degrees), (b, b_degrees) = left, right
    pairs = [(i - 1, j - 1) for i, j in basis_keys(functor, len(b), len(a))]
    degrees = [a_degrees[i] + b_degrees[j] for i, j in pairs]
    spare = len(pairs)
    row_of = [[spare] * len(b) for _ in a]
    for pos, (i, j) in enumerate(pairs):
        row_of[i][j] = pos
        if functor != "tensor":
            row_of[j][i] = pos
    images = []
    if kind == "nilpotent":
        # e moves every basis vector (it lowers the degree), so the halves
        # e(v_i) v_j and v_i e(v_j) share no pair, except on a pair (i, i) of
        # sym2, where they are equal and cancel
        in_row = [row.__getitem__ for row in row_of]  # in_row[k](l) = row_of[k][l]
        in_col = [col.__getitem__ for col in zip(*row_of)]  # in_col[l](k) = row_of[k][l]
        diagonal = functor == "sym2"
        for i, j in pairs:
            if i == j and diagonal:
                images.append([])
                continue
            hits = [*map(in_col[j], a[i]), *map(in_row[i], b[j])]
            hits.sort()
            while hits and hits[-1] == spare:
                hits.pop()
            images.append(hits)
    elif functor == "tensor":
        # pairs of distinct (k, l) in lex order, at distinct increasing positions
        for i, j in pairs:
            down_b = b[j]
            images.append([row_of[k][l] for k in a[i] for l in down_b])
    else:
        for i, j in pairs:
            down_b = b[j]
            images.append(_cancel([row_of[k][l] for k in a[i] for l in down_b], spare))
    return images, degrees


def _direct_sum(parts: list[Images]) -> Images:
    images: Images = []
    offset = 0
    for part in parts:
        images.extend([p + offset for p in hits] for hits in part)
        offset += len(part)
    return images


def expr_images(
    expr: ModuleExpr, kind: Kind, *, cap: int | None = DEFAULT_DIM_CAP
) -> tuple[Images, Degrees]:
    """Images of the basis vectors under the operator (u or e) on a module
    expression, and the degree of each basis vector.

    v_i of an atom has degree i, and a pair of T, E2 or S2 has the sum of
    its two factors' degrees: e lowers every degree by exactly 1 and u - 1
    lowers it by at least 1.  Every space is checked against the cap as it
    is built: k*X after X is built once and before it is copied, and a sum
    after each term.
    """
    if isinstance(expr, Atom):
        if expr.kind != kind:
            raise ValueError("expression kind mismatch")
        _check_cap(expr.dim, cap)
        return _block_images(kind, expr.dim), list(range(1, expr.dim + 1))
    if isinstance(expr, Scaled):
        images, degrees = expr_images(expr.inner, kind, cap=cap)
        _check_cap(expr.count * len(images), cap)
        if not images:  # any number of copies of a zero space is that space
            return images, degrees
        return _direct_sum([images] * expr.count), degrees * expr.count
    if isinstance(expr, Sum):
        parts, degrees = [], []
        for t in expr.terms:
            images, term_degrees = expr_images(t, kind, cap=cap)
            parts.append(images)
            degrees += term_degrees
            _check_cap(len(degrees), cap)
        return _direct_sum(parts), degrees
    if isinstance(expr, Tensor):
        left = expr_images(expr.left, kind, cap=cap)
        right = expr_images(expr.right, kind, cap=cap)
        _check_cap(len(left[1]) * len(right[1]), cap)
        return _pair_images(left, right, kind, "tensor")
    if isinstance(expr, (Ext2, Sym2)):
        inner = expr_images(expr.inner, kind, cap=cap)
        d = len(inner[1])
        if isinstance(expr, Ext2):
            _check_cap(d * (d - 1) // 2, cap)
            return _pair_images(inner, inner, kind, "ext2")
        _check_cap(d * (d + 1) // 2, cap)
        return _pair_images(inner, inner, kind, "sym2")
    raise TypeError(f"not a module expression: {expr!r}")


# --- dense views ---------------------------------------------------------


def _dense(images: Images) -> Gf2Matrix:
    """The matrix whose column c has its ones in the rows images[c]."""
    rows = [0] * len(images)
    for c, hits in enumerate(images):
        bit = 1 << c
        for i in hits:
            rows[i] ^= bit
    return Gf2Matrix(len(images), len(images), tuple(rows))


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
    images, _ = expr_images(expr, kind, cap=cap)
    return _dense(images)


def oracle_jordan_type(
    kind: Kind,
    functor: Functor,
    n: int,
    m: int | None = None,
    *,
    cap: int | None = DEFAULT_DIM_CAP,
) -> JordanType:
    """Ground-truth Jordan type via explicit matrices and the GF(2) kernel."""
    return oracle_expr_jordan_type(square_expr(functor, kind, n, m), kind, cap=cap)


def oracle_expr_jordan_type(
    expr: ModuleExpr, kind: Kind, *, cap: int | None = DEFAULT_DIM_CAP
) -> JordanType:
    """Ground-truth Jordan type of the operator on a module expression."""
    images, degrees = expr_images(expr, kind, cap=cap)
    if kind == "unipotent":
        # u fixes the top-degree term of every vector: u - 1 is u off the diagonal
        for c, hits in enumerate(images):
            hits.remove(c)
    return jordan_type_of_images(images, degrees)
