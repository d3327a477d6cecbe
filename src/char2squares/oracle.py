"""Brute-force ground truth: explicit GF(2) actions on squares.

Builds the nilpotent part N (u - 1 for a unipotent u acting diagonally, e
for a nilpotent e acting as a derivation) on tensor products, exterior
squares and symmetric squares, once, from the expression tree, as the
images of the basis vectors: sparse position lists, built in time and
memory proportional to the number of nonzero entries.  The same walk
reads the degree of each basis vector off the tree, and the exact linear
algebra kernel takes the images as built, with their degrees, to extract
Jordan types: e lowers every degree by exactly 1, so its type comes from a
graded sweep, and u - 1 lowers it by at least 1, so its type comes from
ranks of powers, which pivot on each image's highest-degree target and are
eliminated only where the drop in rank can change.  The kind and the
dimension are read off the expression before anything is built, and one
check of that dimension against the cap bounds every space built on the
way.  The cap policy lives here alone: every entry point reads the cap
from the environment (dim_cap), so commands and library calls obey the
same one.
expr_action, square_action and tensor_action are dense views of the same
images, as bit-packed matrices, and _dense adds u's identity back; no
command builds them.
"""

from __future__ import annotations

import os

from .core import (
    PRINTABLE_LIMIT, Atom, Ext2, JordanType, Kind, LimitExceeded, ModuleExpr, Scaled, Sum, Tensor,
    expr_kind, shown_count, square_expr,
)
from .gf2 import Gf2Matrix, jordan_type_of_images, jordan_type_of_nilpotent  # noqa: F401
from .parser import IntegerTooLong, to_int

Functor = str  # one of core.FUNCTORS
Images = list[list[int]]  # images[c]: positions hit by basis vector c
Degrees = list[int]  # degrees[c]: the degree of basis vector c

DEFAULT_DIM_CAP = 20_000
CAP_ENV_VAR = "CHAR2SQUARES_ORACLE_CAP"


class OracleCapExceeded(LimitExceeded):
    """The requested functor space is larger than the configured cap."""

    def __init__(self, dim: int, cap: int):
        super().__init__(f"oracle space has dimension {shown_count(dim)}, above the cap {cap}")
        self.dim = dim
        self.cap = cap


def dim_cap() -> int:
    """Active oracle dimension cap: CHAR2SQUARES_ORACLE_CAP, or 20000 if it is unset or empty.

    Read by expr_images on every call.  A value that is not an integer of
    at most 4300 digits, or is negative, raises ValueError with the message
    the CLI prints.
    """
    value = os.environ.get(CAP_ENV_VAR)
    if not value:
        return DEFAULT_DIM_CAP
    try:
        cap = to_int(value)
    except IntegerTooLong as exc:
        raise ValueError(f"{CAP_ENV_VAR}: {exc}") from None
    except ValueError:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, not {value!r}") from None
    if cap < 0:
        raise ValueError(f"{CAP_ENV_VAR} must not be negative, not {value!r}")
    return cap


def _block_images(n: int) -> Images:
    """Images of v_1, ..., v_n under the nilpotent part N of a single block,
    in upper-shift convention: N v_1 = 0 and N v_i = v_{i-1}."""
    return [[]] + [[c - 1] for c in range(1, n)]


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
# An action is held as the images of its basis vectors under its nilpotent
# part N: images[c] lists, in increasing order, the positions of the basis
# vectors that basis vector c is mapped to, each once, all below c.  The
# basis of a product space is ordered as basis_keys lists it.


def _pair_images(
    left: tuple[Images, Degrees], right: tuple[Images, Degrees], unipotent: bool, functor: Functor
) -> tuple[Images, Degrees]:
    """Images of N on the pairs v_i (x) v_j of left and right, reduced to the
    functor's quotient, and the degree of each pair: the sum of its factors'.

    left and right hold images of N.  e acts as N (x) 1 + 1 (x) N, and
    u - 1 as that plus N (x) N: (1 + N) (x) (1 + N) - 1.  ext2 and sym2 take
    right = left and identify (k, l) with (l, k); the pairs (k, k), which
    ext2 alone leaves out, go to a spare position that is dropped.
    """
    (a, a_degrees), (b, b_degrees) = left, right
    pairs = [(i - 1, j - 1) for i, j in basis_keys(functor, len(b), len(a))]
    degrees = [a_degrees[i] + b_degrees[j] for i, j in pairs]
    spare = len(pairs)
    row_of = [[spare] * len(b) for _ in a]
    for pos, (i, j) in enumerate(pairs):
        row_of[i][j] = pos
        if functor != "tensor":
            row_of[j][i] = pos
    in_row = [row.__getitem__ for row in row_of]  # in_row[k](l) = row_of[k][l]
    in_col = [col.__getitem__ for col in zip(*row_of)]  # in_col[l](k) = row_of[k][l]
    # N maps every basis vector below itself, so N(v_i) v_j and v_i N(v_j)
    # share no pair, except on a pair (i, i) of sym2, where they are equal;
    # for u, transposed terms of N (x) N on ext2 and sym2 share pairs too
    cancels = unipotent and functor != "tensor"
    diagonal = functor == "sym2"
    images = []
    for i, j in pairs:
        hits = [*map(in_col[j], a[i]), *map(in_row[i], b[j])]
        if unipotent:
            for k in a[i]:
                hits += map(in_row[k], b[j])
        hits.sort()
        if cancels or (i == j and diagonal):
            odd: list[int] = []  # GF(2) sums: the positions hit an odd number of times
            for p in hits:
                if odd and odd[-1] == p:
                    odd.pop()
                else:
                    odd.append(p)
            hits = odd
        if hits and hits[-1] == spare:
            hits.pop()
        images.append(hits)
    return images, degrees


def _direct_sum(parts: list[Images]) -> Images:
    images: Images = []
    offset = 0
    for part in parts:
        images.extend([p + offset for p in hits] for hits in part)
        offset += len(part)
    return images


def _dim(expr: ModuleExpr, limit: int) -> int:
    """min(dim expr, limit) off the tree, building nothing; exact for limit >= 3.

    Each node saturates what it returns at limit, and the saturation is
    exact: a space of dimension at least limit >= 3 has an E2, an S2, sums
    with others and tensors with nonzero spaces of at least limit dimensions.
    """
    if isinstance(expr, Atom):
        d = expr.dim
    elif isinstance(expr, Scaled):
        d = expr.count * _dim(expr.inner, limit)
    elif isinstance(expr, Sum):
        d = sum(_dim(t, limit) for t in expr.terms)
    elif isinstance(expr, Tensor):
        d = _dim(expr.left, limit) * _dim(expr.right, limit)
    else:  # Ext2 or Sym2: expr_kind has checked every node of a tree from outside
        d = _dim(expr.inner, limit)
        d = d * (d - 1 if isinstance(expr, Ext2) else d + 1) // 2
    return min(d, limit)


def expr_images(expr: ModuleExpr) -> tuple[Images, Degrees]:
    """Images of the basis vectors under the nilpotent part N of the
    operator on a module expression, and the degree of each basis vector.

    N is e on W expressions and u - 1 on V expressions; only the dense views
    (_dense) add u's identity.  v_i of an atom has degree i, and a pair of
    T, E2 or S2 has the sum of its two factors' degrees: e lowers every
    degree by exactly 1 and u - 1 lowers it by at least 1.  The cap is read
    first (dim_cap), so a malformed one is reported before a mixed kind;
    then the kind is read off the atoms (MixedKindError if they mix), and
    the dimension checked against the cap (OracleCapExceeded), before
    anything is built.  That bounds every space built on the way: only E2
    of a space of dimension 2 or less is smaller than its input, and a
    tensor with a zero factor builds neither factor.
    """
    cap = dim_cap()
    unipotent = expr_kind(expr) == "unipotent"
    dim = _dim(expr, PRINTABLE_LIMIT)
    if dim > cap:
        raise OracleCapExceeded(dim, cap)
    return _images(expr, unipotent)


def _images(expr: ModuleExpr, unipotent: bool) -> tuple[Images, Degrees]:
    if isinstance(expr, Atom):
        return _block_images(expr.dim), list(range(1, expr.dim + 1))
    if isinstance(expr, Scaled):
        images, degrees = _images(expr.inner, unipotent)
        if not images:  # any number of copies of a zero space is that space
            return images, degrees
        return _direct_sum([images] * expr.count), degrees * expr.count
    if isinstance(expr, Sum):
        parts, degrees = [], []
        for t in expr.terms:
            images, term_degrees = _images(t, unipotent)
            parts.append(images)
            degrees += term_degrees
        return _direct_sum(parts), degrees
    if isinstance(expr, Tensor):
        if not _dim(expr.left, 3) * _dim(expr.right, 3):
            return [], []
        left, right = _images(expr.left, unipotent), _images(expr.right, unipotent)
        return _pair_images(left, right, unipotent, "tensor")
    # Ext2 or Sym2: expr_images has checked every node with expr_kind
    inner = _images(expr.inner, unipotent)
    return _pair_images(inner, inner, unipotent, "ext2" if isinstance(expr, Ext2) else "sym2")


# --- dense views ---------------------------------------------------------
# Kept in the package only because bench/tracing.py wraps them by name:
# expr_action, square_action and tensor_action here, jordan_type_of_nilpotent
# imported into this namespace, and basis.gf2_rank, which is why
# verify_basis hands its masks over as a Gf2Matrix, one per degree: the
# chains' last vectors when every chain passes its packed check, and all
# the vectors only when one does not or the last vectors are dependent.
# No command calls the first four; the tests read them as the dense
# reference.


def _dense(images: Images, unipotent: bool) -> Gf2Matrix:
    """The matrix of the operator whose nilpotent part N has column c's ones
    in the rows images[c]: N itself for e, and u = 1 + N."""
    rows = [0] * len(images)
    for c, hits in enumerate(images):
        bit = 1 << c
        for i in hits:
            rows[i] ^= bit
        if unipotent:
            rows[c] ^= bit
    return Gf2Matrix(len(images), len(images), tuple(rows))


# --- concrete oracle entry points ----------------------------------------


def square_action(kind: Kind, functor: Functor, n: int) -> Gf2Matrix:
    """Matrix of u or e on the chosen square of the size-n block."""
    return expr_action(square_expr(functor, kind, n))


def tensor_action(kind: Kind, m: int, n: int) -> Gf2Matrix:
    """Matrix of u or e on the mixed tensor product of blocks of sizes m, n."""
    return expr_action(square_expr("tensor", kind, n, m))


def expr_action(expr: ModuleExpr) -> Gf2Matrix:
    """Matrix of the operator on an arbitrary module expression."""
    images, _ = expr_images(expr)
    return _dense(images, expr_kind(expr) == "unipotent")


def oracle_jordan_type(kind: Kind, functor: Functor, n: int, m: int | None = None) -> JordanType:
    """Ground-truth Jordan type via explicit matrices and the GF(2) kernel."""
    return oracle_expr_jordan_type(square_expr(functor, kind, n, m))


def oracle_expr_jordan_type(expr: ModuleExpr) -> JordanType:
    """Ground-truth Jordan type of the operator on a module expression."""
    return jordan_type_of_images(*expr_images(expr))
