"""Independent references for the benchmark's output checks.

Nothing here imports char2squares.  The dense GF(2) routine builds each
operator straight from the definitions: a Jordan block, the diagonal action
g(a (x) b) = ga (x) gb of a unipotent element, and the derivation action
e(a (x) b) = ea (x) b + a (x) eb of a nilpotent one, on tensor products,
exterior squares and symmetric squares.  It then reads the Jordan type off
the ranks of the powers of the nilpotent part.

A module expression is a small tuple tree:
    ("atom", kind, dim, multiplicity)   kind is "unipotent" or "nilpotent"
    ("sum", (child, ...))
    ("rep", count, child)               count copies of a non-atom child
    ("T", left, right) | ("E2", child) | ("S2", child)
"""

from __future__ import annotations

# Table 1 of the paper: ext2(V_n), sym2(V_n), ext2(W_n), sym2(W_n) for n <= 9.
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

Parts = tuple  # ((size, multiplicity), ...), sizes strictly decreasing


def parse_parts(text: str) -> Parts:
    """'8^3 4' -> ((8, 3), (4, 1)); '0' -> ()."""
    if text.strip() == "0":
        return ()
    parts = []
    for token in text.split():
        size, _, mult = token.partition("^")
        parts.append((int(size), int(mult) if mult else 1))
    return tuple(parts)


def dim(expr) -> int:
    """Dimension of a module expression, by dimension algebra over the tree."""
    op = expr[0]
    if op == "atom":
        return expr[2] * expr[3]
    if op == "sum":
        return sum(dim(t) for t in expr[1])
    if op == "rep":
        return expr[1] * dim(expr[2])
    if op == "T":
        return dim(expr[1]) * dim(expr[2])
    d = dim(expr[1])
    return d * (d - 1) // 2 if op == "E2" else d * (d + 1) // 2


# --- dense operators ---------------------------------------------------------
#
# An operator on a d-dimensional space is the list of the images of its basis
# vectors: images[j] is an int whose bit i is the coefficient of basis vector
# i in g(basis vector j).


def _bits(x: int) -> list[int]:
    return [i for i in range(x.bit_length()) if x >> i & 1]


def block(kind: str, n: int) -> list[int]:
    """g b_1 = b_1 (unipotent) or 0 (nilpotent); g b_j = b_j + b_{j-1} or b_{j-1}."""
    shift = [0] + [1 << (j - 1) for j in range(1, n)]
    if kind == "unipotent":
        return [s | 1 << j for j, s in enumerate(shift)]
    return shift


def direct_sum(ops: list[list[int]]) -> list[int]:
    out, offset = [], 0
    for op in ops:
        out.extend(img << offset for img in op)
        offset += len(op)
    return out


def tensor(a: list[int], b: list[int], kind: str) -> list[int]:
    db = len(b)
    out = []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            img = 0
            if kind == "unipotent":
                for k in _bits(ai):
                    for l in _bits(bj):
                        img ^= 1 << (k * db + l)
            else:
                for k in _bits(ai):
                    img ^= 1 << (k * db + j)
                for l in _bits(bj):
                    img ^= 1 << (i * db + l)
            out.append(img)
    return out


def square(a: list[int], kind: str, sym: bool) -> list[int]:
    """Exterior (sym=False) or symmetric square; basis pairs i < j or i <= j."""
    d = len(a)
    pairs = [(i, j) for i in range(d) for j in range(i if sym else i + 1, d)]
    index = {p: pos for pos, p in enumerate(pairs)}

    def monomial(k: int, l: int) -> int:
        if k == l and not sym:
            return 0  # x ^ x = 0
        return 1 << index[(k, l) if k < l else (l, k)]

    out = []
    for i, j in pairs:
        img = 0
        if kind == "unipotent":
            for k in _bits(a[i]):
                for l in _bits(a[j]):
                    img ^= monomial(k, l)
        else:
            for k in _bits(a[i]):
                img ^= monomial(k, j)
            for l in _bits(a[j]):
                img ^= monomial(i, l)
        out.append(img)
    return out


def operator(expr, kind: str) -> list[int]:
    op = expr[0]
    if op == "atom":
        return direct_sum([block(kind, expr[2])] * expr[3])
    if op == "sum":
        return direct_sum([operator(t, kind) for t in expr[1]])
    if op == "rep":
        return direct_sum([operator(expr[2], kind)] * expr[1])
    if op == "T":
        return tensor(operator(expr[1], kind), operator(expr[2], kind), kind)
    return square(operator(expr[1], kind), kind, sym=op == "S2")


def _rank(vectors: list[int]) -> int:
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length()
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def jordan_type(images: list[int], kind: str) -> Parts:
    """Jordan type of the operator, from the ranks of the powers of N = g - 1 or e."""
    d = len(images)
    nil = [img ^ (1 << j) for j, img in enumerate(images)] if kind == "unipotent" else images

    def apply(v: int) -> int:
        out = 0
        for i in _bits(v):
            out ^= nil[i]
        return out

    ranks = [d]
    columns = list(nil)  # columns of N^k, k = 1
    while ranks[-1]:
        r = _rank(columns)
        if r == ranks[-1]:
            raise ValueError("operator is not unipotent/nilpotent")
        ranks.append(r)
        columns = [apply(c) for c in columns]
    ranks.append(0)
    parts = [
        (k, ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]) for k in range(len(ranks) - 2, 0, -1)
    ]
    return tuple(p for p in parts if p[1])


def expr_type(expr, kind: str) -> Parts:
    return jordan_type(operator(expr, kind), kind)
