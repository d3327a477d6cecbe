"""Dense exact linear algebra over GF(2) with bit-packed rows.

Each row of a matrix is a Python int: bit j holds the entry in column j.
Row XOR is then a single word-parallel operation, which is all Gaussian
elimination needs over GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import itemgetter, xor
from typing import Iterable, Sequence

from .core import JordanType


def _support(row: int) -> list[int]:
    """Column indices of the set bits of row, lowest first."""
    bits = []
    while row:
        low = row & -row
        bits.append(low.bit_length() - 1)
        row ^= low
    return bits


@dataclass(frozen=True)
class Gf2Matrix:
    """Immutable bit-packed matrix over the two-element field."""

    rows: int
    cols: int
    data: tuple[int, ...]  # data[i] bit j = entry (i, j)

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.data) != self.rows:
            raise ValueError("row count mismatch")
        mask = (1 << self.cols) - 1
        for row in self.data:
            if row < 0 or row & ~mask:
                raise ValueError("row has bits outside the column range")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Gf2Matrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[int]], cols: int | None = None) -> "Gf2Matrix":
        """Build from nested 0/1 lists; `cols` only needed when there are no rows."""
        if not entries:
            return cls(0, cols or 0, ())
        width = len(entries[0])
        data = []
        for row in entries:
            if len(row) != width:
                raise ValueError("ragged rows")
            packed = 0
            for j, v in enumerate(row):
                if v not in (0, 1):
                    raise ValueError(f"entry {v!r} not in GF(2)")
                packed |= v << j
            data.append(packed)
        return cls(len(entries), width, tuple(data))

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return (self.data[i] >> j) & 1

    def to_lists(self) -> list[list[int]]:
        return [[(row >> j) & 1 for j in range(self.cols)] for row in self.data]

    def transpose(self) -> "Gf2Matrix":
        out = [0] * self.cols
        for i, row in enumerate(self.data):
            bit = 1 << i
            for j in _support(row):
                out[j] |= bit
        return Gf2Matrix(self.cols, self.rows, tuple(out))

    def columns(self) -> list[int]:
        """Column bitmasks (bit i of column j = entry (i, j))."""
        return list(self.transpose().data)

    def __add__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in addition")
        return Gf2Matrix(
            self.rows, self.cols, tuple(a ^ b for a, b in zip(self.data, other.data))
        )


def identity(n: int) -> Gf2Matrix:
    if n < 0:
        raise ValueError("negative dimension")
    return Gf2Matrix(n, n, tuple(1 << i for i in range(n)))


def mul(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix:
    """Matrix product over GF(2); cost scales with the number of ones in a."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    bdata = b.data
    out = []
    for row in a.data:
        acc = 0
        for j in _support(row):
            acc ^= bdata[j]
        out.append(acc)
    return Gf2Matrix(a.rows, b.cols, tuple(out))


def _independent_rows(rows: Sequence[int], indices: Iterable[int], pivots: list[int]) -> list[int]:
    """Indices i, in order, whose row rows[i] is independent of the rows kept before it.

    pivots[b] is 0 or the kept vector whose highest set bit is bit b - 1; it
    needs one slot per column plus one and is filled in place, so that the
    kept rows are a basis of the span of all the rows visited.
    """
    # Row reduction with the highest set bit as pivot; over GF(2) any
    # nonzero bit works and this keeps per-step cost at one bit_length call.
    kept = []
    for i in indices:
        x = rows[i]
        while x:
            b = x.bit_length()
            p = pivots[b]
            if not p:
                pivots[b] = x
                kept.append(i)
                break
            x ^= p
    return kept


def rank(m: Gf2Matrix) -> int:
    """Rank over GF(2) by bit-parallel Gaussian elimination (input unchanged)."""
    return len(_independent_rows(m.data, range(m.rows), [0] * (m.cols + 1)))


def _square_supports(m: Gf2Matrix) -> list[list[int]]:
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    return [_support(row) for row in m.data]


def _nilpotent_ranks(supports: list[list[int]], power: Sequence[int]) -> list[int] | None:
    """[rank(m^0), rank(m^1), ...] up to the first 0, or None if m is not nilpotent.

    supports[i] lists the columns of row i of the square matrix m, and
    power[i] is row i of m with its columns in any one order, which no rank
    depends on.  See jordan_type_of_nilpotent for why the loop is correct.
    """
    n = len(supports)
    # Row i of m^(k+1) = m * m^k is the XOR of the rows of m^k in supports[i].
    # gathers[t] fetches, for every i, the row at the t-th bit of supports[i],
    # or the zero row kept at index n when supports[i] is shorter; the
    # trailing n makes each gather a tuple of n + 1 rows ending in that zero.
    width = max(1, max(map(len, supports), default=0))
    gathers = [
        itemgetter(*[bits[t] if t < len(bits) else n for bits in supports], n)
        for t in range(width)
    ]
    power = [*power, 0]  # rows of m^k, starting at k = 1
    spanning: Iterable[int] = range(n)
    ranks = [n]
    while ranks[-1]:
        spanning = _independent_rows(power, spanning, [0] * (n + 1))
        if len(spanning) == ranks[-1]:
            return None
        ranks.append(len(spanning))
        acc = gathers[0](power)
        for gather in gathers[1:]:
            acc = map(xor, acc, gather(power))
        power = list(acc)
    return ranks


def is_nilpotent(m: Gf2Matrix) -> bool:
    """Whether some power of the square matrix m is zero."""
    return _nilpotent_ranks(_square_supports(m), m.data) is not None


def _lowers_by_one(supports: list[list[int]], degrees: Sequence[int]) -> bool:
    """Whether every entry lowers the degree by exactly 1.

    Entry (i, j) maps basis vector j into basis vector i; ValueError names
    the first entry that does not lower the degree at all.
    """
    graded = True
    for i, bits in enumerate(supports):
        target = degrees[i]
        for j in bits:
            if degrees[j] != target + 1:
                if degrees[j] <= target:
                    raise ValueError(
                        f"entry ({i}, {j}) does not lower the degree: it maps "
                        f"degree {degrees[j]} to degree {target}"
                    )
                graded = False
    return graded


def _graded_sweep(supports: list[list[int]], degrees: Sequence[int]) -> JordanType:
    """Jordan type of a matrix whose every entry lowers the degree by exactly 1.

    A matrix and its transpose have the same Jordan type, and row i is the
    image of basis vector i under the transpose, which raises the degree
    by exactly 1.  The sweep goes up through the degrees keeping a basis
    of the current one, oldest bar first: the images of the vectors kept
    one degree lower, then the basis vectors at the positions where no
    kept image has its highest bit, which complete them.  An image that
    depends on older ones closes its vector's bar (the elder rule of
    persistence: in a relation the youngest vector dies), and a bar born
    at degree b and closed on the way up from degree d is a Jordan block
    of size d + 1 - b.  Each vector is mapped once per degree it lives,
    so the sweep does dim map steps, where ranks of powers eliminate
    about sum(size^2) / 2 rows.
    """
    members: dict[int, list[int]] = {}  # degree -> basis vectors of that degree
    for i, d in enumerate(degrees):
        members.setdefault(d, []).append(i)
    local = [0] * len(degrees)  # position of each basis vector within its degree
    for indices in members.values():
        for k, i in enumerate(indices):
            local[i] = k
    sizes: list[int] = []
    births: list[int] = []  # births[t] is where the bar of alive[t] began
    alive: list[int] = []  # masks over the local positions of degree prev
    prev = None
    for d in sorted(members):
        # images of degree prev, all 0 if nothing lives in degree prev + 1 < d
        image = [sum(1 << local[j] for j in supports[i]) for i in members.get(prev, ())]
        alive = [reduce(xor, map(image.__getitem__, _support(v)), 0) for v in alive]
        pivots = [0] * (len(members[d]) + 1)
        kept = _independent_rows(alive, range(len(alive)), pivots)
        survivors = set(kept)
        sizes.extend(prev + 1 - b for t, b in enumerate(births) if t not in survivors)
        fresh = [1 << k for k in range(len(members[d])) if not pivots[k + 1]]
        births = [births[t] for t in kept] + [d] * len(fresh)
        alive = [alive[t] for t in kept] + fresh
        prev = d
    sizes.extend(prev + 1 - b for b in births)
    return JordanType.from_sizes(sizes)


def jordan_type_of_nilpotent(m: Gf2Matrix, degrees: Sequence[int] | None = None) -> JordanType:
    """Jordan block sizes of a nilpotent matrix from its rank sequence.

    The number of blocks of size >= k equals rank(m^(k-1)) - rank(m^k), so
    the multiplicity of size k is rank(m^(k-1)) - 2 rank(m^k) + rank(m^(k+1)).

    Row i of m^k is row i of m^(k-1) times m.  So the rows of m^k at the
    indices whose rows of m^(k-1) span the row space of m^(k-1) span the
    row space of m^k, and each power eliminates only those rank(m^(k-1))
    rows; the indices that give pivots are kept for the next power.

    The row space of m^k lies inside that of m^(k-1).  Equal ranks above 0
    make the two spaces equal, so every later power has the same nonzero
    rank: m is not nilpotent, and ValueError is raised.  Otherwise the rank
    falls at every step and reaches 0 within m.rows steps.  A non-square m
    also raises ValueError; a 0x0 matrix has the empty type.

    degrees, if given, holds a degree for each basis vector, and every
    nonzero entry (i, j) must lower it: degrees[i] < degrees[j], or
    ValueError names the entry.  Such an m is nilpotent.  If every entry
    lowers the degree by exactly 1, the type comes from _graded_sweep
    instead of ranks.  Otherwise the rank loop runs with the basis listed
    in descending degree: the highest-bit pivot of each row is then its
    lowest-degree term, and rows are eliminated from the top degree down.
    """
    supports = _square_supports(m)
    power: Sequence[int] = m.data
    if degrees is not None:
        if len(degrees) != m.rows:
            raise ValueError(f"{len(degrees)} degrees for a matrix of size {m.rows}")
        if _lowers_by_one(supports, degrees):
            return _graded_sweep(supports, degrees)
        # conjugate by the permutation that lists the basis in descending degree
        order = sorted(range(m.rows), key=degrees.__getitem__, reverse=True)
        position = [0] * m.rows
        for p, j in enumerate(order):
            position[j] = p
        supports = [[position[j] for j in supports[i]] for i in order]
        power = [sum(1 << j for j in bits) for bits in supports]
    ranks = _nilpotent_ranks(supports, power)
    if ranks is None:
        raise ValueError("matrix is not nilpotent")
    ranks.append(0)
    pairs = []
    for k in range(1, len(ranks) - 1):
        mult = ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]
        if mult:
            pairs.append((k, mult))
    return JordanType.from_pairs(pairs)
