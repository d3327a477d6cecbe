"""Dense exact linear algebra over GF(2) with bit-packed rows.

Each row of a matrix is a Python int: bit j holds the entry in column j.
Row XOR is then a single word-parallel operation, which is all Gaussian
elimination needs over GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _independent_rows(rows: Sequence[int], indices: Iterable[int], cols: int) -> list[int]:
    """Indices i, in order, whose row rows[i] is independent of the rows kept before it.

    The kept rows are a basis of the span of all the rows visited.
    """
    # Row reduction with the highest set bit as pivot; over GF(2) any
    # nonzero bit works and this keeps per-step cost at one bit_length call.
    pivots = [0] * (cols + 1)
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
    return len(_independent_rows(m.data, range(m.rows), m.cols))


def _nilpotent_ranks(m: Gf2Matrix) -> list[int] | None:
    """[rank(m^0), rank(m^1), ...] up to the first 0, or None if m is not nilpotent.

    See jordan_type_of_nilpotent for why the loop is correct.
    """
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    n = m.rows
    supports = [_support(row) for row in m.data]  # decoded once for all powers
    # Row i of m^(k+1) = m * m^k is the XOR of the rows of m^k in supports[i].
    # gathers[t] fetches, for every i, the row at the t-th bit of supports[i],
    # or the zero row kept at index n when supports[i] is shorter; the
    # trailing n makes each gather a tuple of n + 1 rows ending in that zero.
    width = max(1, max(map(len, supports), default=0))
    gathers = [
        itemgetter(*[bits[t] if t < len(bits) else n for bits in supports], n)
        for t in range(width)
    ]
    power = [*m.data, 0]  # rows of m^k, starting at k = 1
    spanning: Iterable[int] = range(n)
    ranks = [n]
    while ranks[-1]:
        spanning = _independent_rows(power, spanning, n)
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
    return _nilpotent_ranks(m) is not None


def jordan_type_of_nilpotent(m: Gf2Matrix) -> JordanType:
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
    """
    ranks = _nilpotent_ranks(m)
    if ranks is None:
        raise ValueError("matrix is not nilpotent")
    ranks.append(0)
    pairs = []
    for k in range(1, len(ranks) - 1):
        mult = ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]
        if mult:
            pairs.append((k, mult))
    return JordanType.from_pairs(pairs)
