"""Exact linear algebra over GF(2) with bit-packed rows.

Each row of a matrix is a Python int: bit j holds the entry in column j.
Row XOR is then a single word-parallel operation, which is all Gaussian
elimination needs over GF(2).  The Jordan-type kernel,
jordan_type_of_images, takes a square matrix as the row lists of its
columns, the images of the basis vectors as the oracle builds them, so a
sparse operator never has to be packed whole.  Gf2Matrix is the packed
dense form that rank reads (verify_basis hands it each degree's masks)
and that jordan_type_of_nilpotent, the dense reference, reads.
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


def _nilpotent_ranks(supports: Sequence[Sequence[int]]) -> list[int] | None:
    """[rank(m^0), rank(m^1), ...] up to the first 0, or None if m is not nilpotent.

    supports[i] lists the columns of row i of the square matrix m.  See
    jordan_type_of_images for why the loop is correct.
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
    power = [sum(1 << j for j in bits) for bits in supports]  # rows of m^k, from k = 1
    power.append(0)
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


def _lowers_by_one(images: Sequence[Sequence[int]], degrees: Sequence[int]) -> bool:
    """Whether every entry lowers the degree by exactly 1.

    Entry (i, c) maps basis vector c into basis vector i; ValueError names
    the first entry, column by column, that does not lower the degree at all.
    """
    graded = True
    for c, hits in enumerate(images):
        source = degrees[c]
        for i in hits:
            if degrees[i] != source - 1:
                if degrees[i] >= source:
                    raise ValueError(
                        f"entry ({i}, {c}) does not lower the degree: it maps "
                        f"degree {source} to degree {degrees[i]}"
                    )
                graded = False
    return graded


def _graded_sweep(images: Sequence[Sequence[int]], degrees: Sequence[int]) -> JordanType:
    """Jordan type of a matrix whose every entry lowers the degree by exactly 1.

    images[c] lists the basis vectors that basis vector c is mapped to, all
    of degree degrees[c] - 1.  The sweep goes down through the degrees
    keeping a basis of the current one, oldest bar first: the images of the
    vectors kept one degree higher, then the basis vectors at the positions
    where no kept image has its highest bit, which complete them.  An image
    that depends on older ones closes its vector's bar (the elder rule of
    persistence: in a relation the youngest vector dies), and a bar born at
    degree b and closed on the way down from degree d is a Jordan block of
    size b + 1 - d.  Each vector is mapped once per degree it lives, so the
    sweep does dim map steps, where ranks of powers eliminate about
    sum(size^2) / 2 rows.
    """
    members: dict[int, list[int]] = {}  # degree -> basis vectors of that degree
    for c, d in enumerate(degrees):
        members.setdefault(d, []).append(c)
    local = [0] * len(degrees)  # position of each basis vector within its degree
    for indices in members.values():
        for k, c in enumerate(indices):
            local[c] = k
    sizes: list[int] = []
    births: list[int] = []  # births[t] is where the bar of alive[t] began
    alive: list[int] = []  # masks over the local positions of degree prev
    prev = None
    for d in sorted(members, reverse=True):
        # images of degree prev, all 0 if nothing lives in degree prev - 1 > d
        image = [sum(1 << local[i] for i in images[c]) for c in members.get(prev, ())]
        alive = [reduce(xor, map(image.__getitem__, _support(v)), 0) for v in alive]
        pivots = [0] * (len(members[d]) + 1)
        kept = _independent_rows(alive, range(len(alive)), pivots)
        survivors = set(kept)
        sizes.extend(b + 1 - prev for t, b in enumerate(births) if t not in survivors)
        fresh = [1 << k for k in range(len(members[d])) if not pivots[k + 1]]
        births = [births[t] for t in kept] + [d] * len(fresh)
        alive = [alive[t] for t in kept] + fresh
        prev = d
    sizes.extend(b + 1 - prev for b in births)
    return JordanType.from_sizes(sizes)


def jordan_type_of_nilpotent(m: Gf2Matrix, degrees: Sequence[int] | None = None) -> JordanType:
    """Jordan type of a nilpotent dense matrix: jordan_type_of_images on its columns.

    A non-square m raises ValueError; a 0x0 matrix has the empty type.
    """
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    images: list[list[int]] = [[] for _ in range(m.cols)]
    for i, row in enumerate(m.data):
        for c in _support(row):
            images[c].append(i)
    return jordan_type_of_images(images, degrees)


def jordan_type_of_images(
    images: Sequence[Sequence[int]], degrees: Sequence[int] | None = None
) -> JordanType:
    """Jordan block sizes of a nilpotent square matrix m from its rank sequence.

    images[c] lists the rows of the nonzero entries of column c, each once:
    where basis vector c goes.  The rank loop reads them as the rows of the
    transpose t, which has the ranks of powers of m.

    The number of blocks of size >= k equals rank(t^(k-1)) - rank(t^k), so
    the multiplicity of size k is rank(t^(k-1)) - 2 rank(t^k) + rank(t^(k+1)).

    Row c of t^k is row c of t^(k-1) times t.  So the rows of t^k at the
    indices whose rows of t^(k-1) span the row space of t^(k-1) span the
    row space of t^k, and each power eliminates only those rank(t^(k-1))
    rows; the indices that give pivots are kept for the next power.

    The row space of t^k lies inside that of t^(k-1).  Equal ranks above 0
    make the two spaces equal, so every later power has the same nonzero
    rank: m is not nilpotent, and ValueError is raised.  Otherwise the rank
    falls at every step and reaches 0 within len(images) steps.

    degrees, if given, holds a degree for each basis vector, and every
    nonzero entry (i, c) must lower it: degrees[i] < degrees[c], or
    ValueError names the entry.  Such an m is nilpotent.  If every entry
    lowers the degree by exactly 1, the type comes from _graded_sweep
    instead of ranks.  Otherwise the rank loop runs with the basis listed
    in ascending degree: the highest-bit pivot of each image is then its
    highest-degree target.
    """
    dim = len(images)
    if degrees is not None:
        if len(degrees) != dim:
            raise ValueError(f"{len(degrees)} degrees for a matrix of size {dim}")
        if _lowers_by_one(images, degrees):
            return _graded_sweep(images, degrees)
        # conjugate by the permutation that lists the basis in ascending degree
        order = sorted(range(dim), key=degrees.__getitem__)
        position = [0] * dim
        for p, c in enumerate(order):
            position[c] = p
        images = [[position[i] for i in images[c]] for c in order]
    ranks = _nilpotent_ranks(images)
    if ranks is None:
        raise ValueError("matrix is not nilpotent")
    ranks.append(0)
    pairs = []
    for k in range(1, len(ranks) - 1):
        mult = ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]
        if mult:
            pairs.append((k, mult))
    return JordanType.from_pairs(pairs)
