"""Decompositions of tensor, exterior and symmetric squares of Jordan blocks.

Everything here is characteristic two.  V_n denotes the unipotent block
(cyclic 2-group case), W_n the nilpotent block (restricted Lie algebra
case).  Tensor products decompose identically for the two kinds; exterior
and symmetric squares do not.
"""

from __future__ import annotations

from functools import lru_cache

from .core import (
    Atom,
    Ext2,
    JordanType,
    Kind,
    LimitExceeded,
    ModuleExpr,
    PRINTABLE_LIMIT,
    Scaled,
    Sum,
    Tensor,
    _trusted,
    cones_expansion,
    expr_kind,
)


def _q(n: int) -> int:
    """The smallest power of two q >= n, so that q/2 < n <= q."""
    return 1 << (n - 1).bit_length()


def tensor_decompose(m: int, n: int) -> JordanType:
    """Jordan type of the action on the tensor product of blocks of sizes m, n.

    Valid for both the unipotent and the nilpotent interpretation.
    """
    if m < 1 or n < 1:
        raise ValueError("block sizes must be positive")
    acc: dict[int, int] = {}
    _add_tensor(acc, m, n, 1)
    return JordanType.from_pairs(acc.items())


def _ext2_unipotent_pairs(n: int) -> list[tuple[int, int]]:
    """Parts of ext2(V_n) for n >= 0, unmerged, following the recursion on q - n."""
    pairs = []
    while n >= 2:
        q = _q(n)
        pairs += [(q, n - q // 2 - 1), (3 * q // 2 - n, 1)]
        n = q - n
    return pairs


def ext2_unipotent(n: int) -> JordanType:
    """Exterior square of the unipotent block V_n."""
    if n < 1:
        raise ValueError("n must be positive")
    return JordanType.from_pairs(_ext2_unipotent_pairs(n))


def sym2_unipotent(n: int) -> JordanType:
    """Symmetric square of the unipotent block V_n."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return JordanType.from_pairs([(1, 1)])
    q = _q(n)
    head = [(q, n - q // 2), (q // 2, 1)]
    return JordanType.from_pairs(head + _ext2_unipotent_pairs(q - n))


def ext2_nilpotent(n: int) -> JordanType:
    """Exterior square of the nilpotent block W_n, in closed form.

    With the consecutive-ones expansion of n, each exponent b_k > 0
    contributes blocks of size 2^b_k - 1 with multiplicity
    2^(b_k - 1) - n_{k+1}.
    """
    return _trusted(JordanType, parts=tuple(((1 << b) - 1, m) for b, m in _nilpotent_bands(n)))


def sym2_nilpotent(n: int) -> JordanType:
    """Symmetric square of the nilpotent block W_n, in closed form.

    Same multiplicities as the exterior square but with block sizes 2^b_k,
    plus ceil(n/2) blocks of size one.
    """
    pairs = [(1 << b, m) for b, m in _nilpotent_bands(n)]
    pairs.append((1, (n + 1) // 2))
    return _trusted(JordanType, parts=tuple(pairs))


# Small on purpose: callers ask for both squares of one n close together
# (table rows, the acceptance criteria), and a large cache shows in peak RSS.
# On seed 1 of the formula_expr and oracle_crosscheck workloads 52% of its
# calls hit, and without it a formula_expr pass took about 6% longer.
@lru_cache(maxsize=256)
def _nilpotent_bands(n: int) -> tuple[tuple[int, int], ...]:
    """(b_k, 2^(b_k - 1) - n_{k+1}) for each exponent b_k > 0 of the expansion of n.

    The bands that ext2(W_n) and sym2(W_n) share, computed once per n.  The
    exponents strictly decrease and 2^(b_k - 1) - n_{k+1} > 0, since
    n_{k+1} = 2^b_k - n_k < 2^(b_k - 1): so the parts built from them are
    sorted and positive by construction.
    """
    exp = cones_expansion(n)
    return tuple([(b, (1 << (b - 1)) - below)
                  for b, below in zip(exp.betas, exp.suffix_values()[1:]) if b > 0])


def ext2_nilpotent_rec(n: int) -> JordanType:
    """Exterior square of W_n via the recursion on q - n (cross-check path)."""
    if n < 1:
        raise ValueError("n must be positive")
    pairs = []
    while n >= 2:
        q = _q(n)
        pairs.append((q - 1, n - q // 2))
        n = q - n
    return JordanType.from_pairs(pairs)


def sym2_nilpotent_rec(n: int) -> JordanType:
    """Symmetric square of W_n via the recursion on q - n (cross-check path)."""
    if n < 1:
        raise ValueError("n must be positive")
    pairs = []
    while n >= 2:
        q = _q(n)
        pairs += [(q, n - q // 2), (1, n - q // 2)]
        n = q - n
    if n == 1:
        pairs.append((1, 1))
    return JordanType.from_pairs(pairs)


def ext2_block(n: int, kind: Kind) -> JordanType:
    return ext2_unipotent(n) if kind == "unipotent" else ext2_nilpotent(n)


def sym2_block(n: int, kind: Kind) -> JordanType:
    return sym2_unipotent(n) if kind == "unipotent" else sym2_nilpotent(n)


# --- expression evaluation ------------------------------------------------


def decompose_expr(expr: ModuleExpr) -> JordanType:
    """Fully decompose a module expression into a Jordan type.

    Functors distribute over direct sums via
    F(A + B) = F(A) + (A tensor B) + F(B) for F in {ext2, sym2}, and the
    tensor product is bilinear.  Every part is added into one table of
    block size -> multiplicity, which becomes a Jordan type once at the end.
    expr_kind checks every node first: it raises TypeError on one that is
    not a module expression, and MixedKindError, a ValueError, on a mix of
    V and W atoms.  Raises LimitExceeded if a multiplicity reaches
    PRINTABLE_LIMIT.
    """
    blocks = _blocks(expr, expr_kind(expr))
    if any(m >= PRINTABLE_LIMIT for _, m in blocks):
        raise LimitExceeded("a block multiplicity reaches the limit 10^4300")
    return JordanType.from_pairs(blocks)


def _eval(expr: ModuleExpr, kind: Kind, c: int, acc: dict[int, int]) -> None:
    """Add the blocks of c copies of expr into acc (size -> multiplicity)."""
    if isinstance(expr, Atom):
        acc[expr.dim] = acc.get(expr.dim, 0) + c
    elif isinstance(expr, Scaled):
        _eval(expr.inner, kind, min(c * expr.count, PRINTABLE_LIMIT), acc)
    elif isinstance(expr, Sum):
        for t in expr.terms:
            _eval(t, kind, c, acc)
    elif isinstance(expr, Tensor):
        right = _blocks(expr.right, kind)
        for a, ca in _blocks(expr.left, kind):
            for b, cb in right:
                _add_tensor(acc, a, b, ca * cb * c)
    else:  # Ext2 or Sym2: decompose_expr has checked every node with expr_kind
        square = ext2_block if isinstance(expr, Ext2) else sym2_block
        parts = _blocks(expr.inner, kind)
        for i, (a, ca) in enumerate(parts):
            for s, m in square(a, kind).parts:
                acc[s] = acc.get(s, 0) + m * ca * c
            # cross terms among the ca copies of the same block
            if ca > 1:
                _add_tensor(acc, a, a, ca * (ca - 1) // 2 * c)
            for b, cb in parts[i + 1 :]:
                _add_tensor(acc, a, b, ca * cb * c)


def _blocks(expr: ModuleExpr, kind: Kind) -> list[tuple[int, int]]:
    """The (size, multiplicity) blocks of expr, equal sizes merged.

    Multiplicities saturate at PRINTABLE_LIMIT.  Counts only multiply and add, so
    a saturated count feeds only counts that reach the limit, or a tensor that is 0.
    """
    acc: dict[int, int] = {}
    _eval(expr, kind, 1, acc)
    return [(s, min(m, PRINTABLE_LIMIT)) for s, m in acc.items()]


def _add_tensor(acc: dict[int, int], m: int, n: int, c: int) -> None:
    """Add c copies of V_m tensor V_n into acc, by the recursion on q - n; m, n >= 1."""
    m, n = min(m, n), max(m, n)
    # sizes of the current smaller product are emitted as offset + sign * s
    offset, sign = 0, 1
    while True:
        q = _q(n)
        size = offset + sign * q
        if n == q:
            acc[size] = acc.get(size, 0) + m * c
            return
        if m + n > q:
            # peel off m+n-q blocks of size q; the remainder is the smaller
            # tensor product of the complementary block sizes
            acc[size] = acc.get(size, 0) + (m + n - q) * c
            m, n = q - n, q - m
        else:
            # m + n <= q: complement every part of the smaller product in q
            offset, sign = offset + sign * q, -sign
            m, n = min(m, q - n), max(m, q - n)
