"""Decompositions of tensor, exterior and symmetric squares of Jordan blocks.

Everything here is characteristic two.  V_n denotes the unipotent block
(cyclic 2-group case), W_n the nilpotent block (restricted Lie algebra
case).  Tensor products decompose identically for the two kinds; exterior
and symmetric squares do not.
"""

from __future__ import annotations

from typing import Iterator

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


# --- recursions on q - n -----------------------------------------------------
#
# Each step of a recursion takes n >= 2, adds the blocks that the square of
# n adds to a square of q - n < n, and goes on with q - n.  A block it adds
# has a size of its own, except where a docstring names a merge.


def _ext2_unipotent_pairs(n: int) -> list[tuple[int, int]]:
    """Parts of ext2(V_n) for n >= 0, unmerged, following the recursion on q - n.

    Gow-Laffey: ext2(V_n) is (q, n - q/2 - 1), (3q/2 - n, 1), then
    ext2(V_{q-n}).  The first block is left out when its multiplicity is 0,
    at n = q/2 + 1.
    """
    pairs = []
    while n >= 2:
        q = _q(n)
        half = q // 2
        if n > half + 1:
            pairs.append((q, n - half - 1))
        pairs.append((half + q - n, 1))
        n = q - n
    return pairs


def ext2_unipotent(n: int) -> JordanType:
    """Exterior square of the unipotent block V_n."""
    if n < 1:
        raise ValueError("n must be positive")
    return JordanType.from_pairs(_ext2_unipotent_pairs(n))


def sym2_unipotent(n: int) -> JordanType:
    """Symmetric square of the unipotent block V_n.

    sym2(V_n) is (q, n - q/2), (q/2, 1), then ext2(V_{q-n}).  The (q/2, 1)
    block merges with the top block of ext2(V_{q-n}) when that block also
    has size q/2.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return JordanType.from_pairs([(1, 1)])
    q = _q(n)
    return JordanType.from_pairs([(q, n - q // 2), (q // 2, 1), *_ext2_unipotent_pairs(q - n)])


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


def _nilpotent_bands(n: int) -> tuple[tuple[int, int], ...]:
    """(b_k, 2^(b_k - 1) - n_{k+1}) for each exponent b_k > 0 of the expansion of n.

    The bands that ext2(W_n) and sym2(W_n) share.  The exponents strictly
    decrease and 2^(b_k - 1) - n_{k+1} > 0, since
    n_{k+1} = 2^b_k - n_k < 2^(b_k - 1): so the parts built from them are
    sorted and positive by construction.
    """
    exp = cones_expansion(n)
    return tuple([(b, (1 << (b - 1)) - below)
                  for b, below in zip(exp.betas, exp.suffix_values()[1:]) if b > 0])


def ext2_nilpotent_rec(n: int) -> JordanType:
    """Exterior square of W_n via the recursion on q - n (cross-check path).

    ext2(W_n) is (q - 1, n - q/2), then ext2(W_{q-n}).
    """
    if n < 1:
        raise ValueError("n must be positive")
    pairs = []
    while n >= 2:
        q = _q(n)
        pairs.append((q - 1, n - q // 2))
        n = q - n
    return JordanType.from_pairs(pairs)


def sym2_nilpotent_rec(n: int) -> JordanType:
    """Symmetric square of W_n via the recursion on q - n (cross-check path).

    sym2(W_n) is (q, n - q/2), (1, n - q/2), then sym2(W_{q-n}).  The ones
    merge with the ones of sym2(W_{q-n}), its last block; sym2(W_1) is 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    pairs = []
    while n >= 2:
        q = _q(n)
        k = n - q // 2
        pairs += ((q, k), (1, k))
        n = q - n
    if n == 1:
        pairs.append((1, 1))
    return JordanType.from_pairs(pairs)


def square_rows(max_n: int) -> Iterator[tuple[int, str, str, str, str]]:
    """(n, ext2(V_n), sym2(V_n), ext2(W_n), sym2(W_n)) as canonical strings, for n = 1, ..., max_n.

    Row n >= 2 is built as text: each square is the text of the head that
    its recursion above adds, then the text of a row already built,
    the same square of q - n < n, or ext2(V_{q-n}) for sym2(V_n).  The rows
    below _q(max_n)/2, which later rows read, are kept as the strings
    yielded, and held only while the generator runs.  Two steps merge equal
    sizes: sym2(V_n)'s (q/2, 1) adds to a first part of size q/2 of
    ext2(V_{q-n}), so a kept ext2(V) row also holds its first part, and
    sym2(W_n)'s ones add to the ones that end sym2(W_{q-n}), so a kept
    sym2(W) row also holds their count.  The strings equal
    format_jordan_type of the per-n functions, which evaluate one n without
    building the rows below it.
    """
    # a kept empty square is "", though yielded as "0"
    ext2_v = [(0, 0, ""), (0, 0, "")]  # (size, multiplicity of the first part, text)
    ext2_w = ["", ""]
    sym2_w = [("", 0), ("1", 1)]  # (text, count of ones)
    # later rows read only rows below _q(max_n)/2, as q - n < q/2 <= _q(max_n)/2
    read = _q(max_n) // 2
    if max_n >= 1:
        yield 1, "0", "1", "0", "1"
    for n in range(2, max_n + 1):
        q = 1 << (n - 1).bit_length()
        half, rest, k = q >> 1, q - n, n - (q >> 1)
        top = f"{q}^{k}" if k > 1 else str(q)  # (q, n - q/2) heads both sym2 squares
        # ext2(V_n): (q, k - 1), (q - k, 1), then ext2(V_{q-n}); no (q, 0) at k = 1
        size, mult, text = ext2_v[rest]
        below = " " + text if text else ""
        if k > 1:
            first = (q, k - 1)
            e2v = f"{q}^{k - 1} {q - k}{below}" if k > 2 else f"{q} {q - k}{below}"
        else:
            first = (q - 1, 1)
            e2v = f"{q - 1}{below}"
        # sym2(V_n): (q, k), (q/2, 1), then ext2(V_{q-n})
        if size == half:
            _, space, after = text.partition(" ")
            s2v = f"{top} {half}^{mult + 1}{space}{after}"
        else:
            s2v = f"{top} {half}{below}"
        # ext2(W_n): (q - 1, k), then ext2(W_{q-n})
        e2w = f"{q - 1}^{k}" if k > 1 else str(q - 1)
        if ext2_w[rest]:
            e2w = f"{e2w} {ext2_w[rest]}"
        # sym2(W_n): (q, k), then sym2(W_{q-n}) with k more ones
        text, ones = sym2_w[rest]
        ones += k
        s2w = f"{top} {text[:text.rfind(' ') + 1]}" + (f"1^{ones}" if ones > 1 else "1")
        if n < read:
            ext2_v.append((*first, e2v))
            ext2_w.append(e2w)
            sym2_w.append((s2w, ones))
        yield n, e2v, s2v, e2w, s2w


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
    if m > n:
        m, n = n, m
    get = acc.get
    # sizes of the current smaller product are emitted as offset + sign * s
    offset, sign = 0, 1
    while True:
        q = 1 << (n - 1).bit_length()  # _q(n), inline: this loop is the formula route's hot spot
        size = offset + sign * q
        if n == q:
            acc[size] = get(size, 0) + m * c
            return
        if m + n > q:
            # peel off m+n-q blocks of size q; the remainder is the smaller
            # tensor product of the complementary block sizes, q - n <= q - m
            acc[size] = get(size, 0) + (m + n - q) * c
            m, n = q - n, q - m
        else:
            # m + n <= q: complement every part of the smaller product in q,
            # which is V_m tensor V_{q-n}, m <= q - n
            offset, sign = size, -sign
            n = q - n
