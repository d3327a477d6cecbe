"""Exact linear algebra over GF(2) with bit-packed rows.

Each row of a matrix is a Python int: bit j holds the entry in column j.
Row XOR is then a single word-parallel operation, which is all Gaussian
elimination needs over GF(2).  A map between two such bit spaces that is
applied to many masks is held in shift form, as its diagonals:
_apply_form then maps a list of masks with one C-level map pass per AND,
shift and XOR of each diagonal, however many bits the masks have.  Each
input has one route to its Jordan type.  A map that lowers every degree by
exactly 1 is held as a Graded: per degree, the number of basis vectors and
the map into the degree below in this form.  oracle.expr_forms builds one
from an expression's factors, and graded reads one off images, checking
each entry where it reads it.  The graded sweep moves a whole degree down
with one _apply_form call and carries each surviving vector reduced
against the older ones, which leaves the span of the t oldest unchanged
for every t, and so the bars; it has its own elimination loop, as it
needs the deaths and the reduced vectors in age order, where
_independent_rows gives only the kept indices.  verify_basis packs the
forms of all degrees side by side and checks a whole chain at once, in
one comparison of packed ints, which also names its failures.  Any other
nilpotent matrix, given as the
images of its basis vectors (jordan_type_of_images, which takes no
degrees), has its type read off the ranks of its powers (_ranks).  Those
ranks fall by drops that never rise, so the loop eliminates only where
the drop can change: it jumps by the factors m^(2^j), each applied row
by row with itemgetter gathers (_apply).  The loop takes its factors as
given.  For any matrix they come from squaring (_squared_factors, each
square peeled into gathers by _gathers), and the squaring that reaches 0
is its nilpotency test; for u - 1 the oracle builds them from u itself
(oracle._unipotent_factors).  Gf2Matrix is the packed dense form that
rank reads, a degree at a time from verify_basis, and that
jordan_type_of_nilpotent, the dense reference, reads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import and_, itemgetter, lshift, rshift, setitem, xor
from typing import Iterable, NamedTuple, Sequence

from .core import JordanType


def _support(row: int) -> list[int]:
    """Column indices of the set bits of row, lowest first."""
    bits = []
    while row:
        low = row & -row
        bits.append(low.bit_length() - 1)
        row ^= low
    return bits


# A map in shift form: form[shift] holds the sources of one diagonal, and bit
# i of it maps bit i to bit i + shift.  Any map has one: each entry, source
# i to target t, toggles bit i of form[t - i].
Form = dict[int, int]


class Graded(NamedTuple):
    """A map that lowers every degree by exactly 1, held per degree: what
    _graded_sweep and verify_basis read.

    counts[d] is the number of basis vectors of degree d, and forms[d], for
    each such d, the map from degree d into degree d - 1 in shift form, over
    the positions 0..counts[d]-1 of the vectors within their degrees.
    """

    counts: dict[int, int]
    forms: dict[int, Form]


def _apply_form(form: Form, masks: list[int]) -> list[int]:
    """The images of masks under the map whose diagonals form holds.

    Each diagonal is one C-level map pass over the whole list for its AND,
    one for its shift (none on the main diagonal) and one for its XOR into
    the images, as _apply does for gathers.
    """
    images = None
    for shift, sources in form.items():
        moved = map(and_, masks, repeat(sources))
        if shift:
            moved = map(rshift, moved, repeat(-shift)) if shift < 0 else map(lshift, moved, repeat(shift))
        images = list(moved) if images is None else list(map(xor, images, moved))
    return [0] * len(masks) if images is None else images


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


def _gathers(rows: list[int], index: list[int]) -> list[itemgetter]:
    """The gathers that multiply by the matrix m whose rows are rows[:-1]; rows[-1] is 0.

    index[b] is b - 1 for b >= 1 and index[0] is len(rows) - 1, the zero
    row, so that index[x.bit_length()] is the highest set bit of x, or the
    zero row for x = 0.  Each gather takes, from every row, the highest bit
    the earlier ones left, and gather(p), for a list of rows p that ends in a
    zero row, is a tuple of len(rows) rows ending in that zero: row i of
    m * p is the XOR over the gathers of gather(p)[i].  There is one gather
    per set bit of the fullest row, and the gathers share index's ints.

    Each round clears the bits it took with x >> cut << cut (0 for a zero
    row): the first round makes the one copy of rows that later rounds clear
    in place, and the last one clears nothing.
    """
    gathers = []
    rest = rows
    for left in range(max(map(int.bit_count, rows)), 0, -1):
        cut = itemgetter(*map(int.bit_length, rest))(index)
        gathers.append(itemgetter(*cut))
        if left == 1:
            break
        cleared = map(xor, rest, map(lshift, map(rshift, rest, cut), cut))
        if rest is rows:
            rest = list(cleared)
        else:
            deque(map(setitem, repeat(rest), range(len(rest)), cleared), maxlen=0)
    return gathers


def _apply(gathers: list[itemgetter], rows: list[int]) -> list[int]:
    """m * p, for the gathers of m and the rows of p ending in a zero row (see _gathers)."""
    acc = gathers[0](rows)
    for gather in gathers[1:]:
        acc = map(xor, acc, gather(rows))
    return list(acc)


def _identity(n: int) -> list[int]:
    """The rows of the n x n identity, and the zero row after them."""
    return [1 << i for i in range(n)] + [0]


def _squared_factors(supports: list[Sequence[int]]) -> list[list[itemgetter]] | None:
    """The gathers of m, m^2, m^4, ... up to the last nonzero power, or None if m is not nilpotent.

    supports[i] lists the columns of row i of the square matrix m; the list
    is emptied once the gathers of m are built from it.  Each factor is the
    square of the one before, peeled into gathers (_gathers), and the
    squaring stops at the first zero power.  A power m^(2^j) that is still
    nonzero with 2^j >= len(supports) shows that m is not nilpotent.  At
    most two lists of n rows are alive at once: a factor and its square or
    its peeled copy.
    """
    n = len(supports)
    index = [n, *range(n)]  # index[b] = b - 1, and index[0] = n, the zero row
    width = max(map(len, supports), default=0)
    gathers = [itemgetter(*[bits[t] if t < len(bits) else n for bits in supports], n)
               for t in range(width)]
    supports.clear()
    factors = []  # factors[j] holds the gathers of m^(2^j)
    rows = _apply(gathers, _identity(n)) if gathers else []  # m, then each square
    while gathers:
        if 1 << len(factors) >= n:
            return None
        factors.append(gathers)
        rows = _apply(gathers, rows)
        gathers = _gathers(rows, index)
    return factors


def _ranks(n: int, factors: list[list[itemgetter]]) -> list[int]:
    """[rank(m^0), rank(m^1), ...] up to the first 0, for an n x n matrix m
    whose factors[j] holds the gathers of m^(2^j), the last of them nonzero
    and m^(2^len(factors)) = 0.  Beside the factors, it keeps the power it
    stands on and the next one.

    The number of blocks of size >= k is the drop d_k = rank(m^(k-1)) -
    rank(m^k), so the multiplicity of size k is d_k - d_(k+1).  The drops
    never rise, and that lets the loop skip powers.  Standing on m^k with
    the last drop d, it jumps to m^(k+h), h = 2^j, and eliminates there.
    Each of the h drops in between is at most d, so a rank of rank(m^k) -
    h d makes them all d: the ranks in between lie on that line, and the
    next jump is twice as long.  Any other rank is kept as a known rank
    above k, and the loop goes on with 1-steps, which read each drop
    exactly.  Known ranks on the current line are reached by applying
    factors without an elimination, and the nearest one off it bounds every
    jump.  It also bounds how far the current line must still hold, derived
    where it is used: a rank at p that lies short above the line keeps every
    power up to p - short on it, as each drop after the line is at least 1
    short of d.  That covers a rank 1 above the line too: every power but
    the last lies on the line.  m^(2^len(factors)) = 0 is a known rank 0,
    which ends the last line without an elimination.

    Row c of m^(k+h) is row c of m^k times m^h.  So the rows of m^(k+h) at
    the indices whose rows of m^k span the row space of m^k span the row
    space of m^(k+h): each elimination visits only those rows, and the
    indices that give pivots are kept for the next one, also beside a rank
    kept as known, for the step that reaches it.
    """
    # powers above k of measured rank, nearest last, with the indices whose
    # rows span them: m^(2^len(factors)) = 0 and the jumps that left the line
    known: list[tuple[int, int, Sequence[int]]] = [(1 << len(factors), 0, ())]
    power = _identity(n)  # the rows of m^k
    spanning: Sequence[int] = range(n)
    ranks = [n]
    k, d, j = 0, n, 0  # d = ranks[k - 1] - ranks[k] (n at k = 0); the next jump is 2^j
    while ranks[-1]:
        r = ranks[-1]
        while known[-1][0] <= k:
            known.pop()
        free = k  # the ranks up to m^free lie on the line r - (i - k) d
        for p, r_p, kept_p in reversed(known):
            short = r_p - (r - (p - k) * d)
            if short:  # p is the nearest known power off the line
                # each drop after the line is at least 1 short of d, so the
                # line holds up to m^(p - short)
                free = max(free, p - short)
                break
            if not r_p:  # the line meets 0 where the rank is 0
                ranks.extend(range(r - d, -1, -d))
                return ranks
            free = p
        if free > k:
            j = (free - k).bit_length() - 1
        while j and k + (1 << j) >= p:  # a jump that reaches m^p would leave the line
            j -= 1
        h = 1 << j
        candidate = _apply(factors[j], power)
        if not j:  # a 1-step is always taken, so m^k can go before the elimination
            power = candidate
        line = r - h * d
        if k + h <= free:
            rank, kept = line, spanning
        elif k + h == p:  # the rows its elimination kept span m^p
            rank, kept = r_p, kept_p
        else:
            kept = _independent_rows(candidate, spanning, [0] * (n + 1))
            rank = len(kept)
        if rank == line:
            ranks.extend(range(r - d, line - 1, -d))
            j += 1
        elif not j:  # a 1-step reads the new drop
            d = r - rank
            ranks.append(rank)
        else:
            known.append((k + h, rank, kept))
            j = 0
            continue
        k += h
        power, spanning = candidate, kept
    return ranks


def _type_of_ranks(ranks: list[int]) -> JordanType:
    """The Jordan type whose blocks of size >= k number ranks[k - 1] - ranks[k]."""
    ranks = [*ranks, 0]
    return JordanType.from_pairs(
        (k, ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]) for k in range(1, len(ranks) - 1)
    )


def _graded_sweep(counts: dict[int, int], forms: dict[int, Form]) -> JordanType:
    """Jordan type of a matrix whose every entry lowers the degree by exactly 1.

    counts[d] is the number of basis vectors of degree d, and forms[d] is
    the map from degree d into degree d - 1 over their positions
    0..counts[d]-1 within their degrees: the fields of a Graded.  The
    sweep goes down through the degrees keeping a basis of the current one,
    oldest bar first: the images of the vectors kept one degree higher, then
    the basis vectors at the positions where no kept image has its highest
    bit, which complete them.  An image that depends on older ones closes its
    vector's bar (the elder rule of persistence: in a relation the youngest
    vector dies), and a bar born at degree b and closed on the way down from
    degree d is a Jordan block of size b + 1 - d.

    Each survivor is carried in the form its elimination leaves it, reduced
    against the older survivors.  That changes no bar: a reduction adds only
    older vectors, so for every t the span of the t oldest survivors (the
    flag they make) stays the same, and as the map is linear, an image
    depends on the older images at any later degree exactly when it did
    before.  The pivots stay the same, and so do the fresh basis vectors.
    So at the next degree an image mostly needs one reduction step, where
    an unreduced one would repeat the reductions of the degrees above.

    The loop is the elimination of _independent_rows, kept apart because
    the sweep needs the deaths and the reduced survivors, oldest first,
    where _independent_rows returns only the kept indices, which is all
    rank and _ranks need.  A whole degree is moved down by one _apply_form
    call, at a cost set by that map's diagonals rather than by the vectors'
    bits; the sweep makes dim such moves, where eliminating at every power
    would visit about sum(size^2) / 2 rows.
    """
    sizes: list[int] = []
    births: list[int] = []  # births[t] is where the bar of alive[t] began
    alive: list[int] = []  # reduced masks over the positions of degree prev, oldest first
    prev = None
    for d in sorted(counts, reverse=True):
        # forms[prev] is empty if nothing lives in degree prev - 1 > d; the
        # first degree has no prev, and nothing alive
        images = _apply_form(forms[prev], alive) if alive else []
        pivots = [0] * (counts[d] + 1)  # as in _independent_rows
        reduced, born = [], []
        for b, x in zip(births, images):
            while x:
                top = x.bit_length()
                p = pivots[top]
                if not p:
                    pivots[top] = x
                    reduced.append(x)
                    born.append(b)
                    break
                x ^= p
            else:  # the image depends on older ones: its bar closes
                sizes.append(b + 1 - prev)
        fresh = [1 << k for k in range(counts[d]) if not pivots[k + 1]]
        alive, births = reduced + fresh, born + [d] * len(fresh)
        prev = d
    sizes.extend(b + 1 - prev for b in births)
    return JordanType.from_sizes(sizes)


def jordan_type_of_nilpotent(m: Gf2Matrix) -> JordanType:
    """Jordan type of a nilpotent dense matrix: jordan_type_of_images on its columns.

    A non-square m raises ValueError; a 0x0 matrix has the empty type.
    """
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    images: list[list[int]] = [[] for _ in range(m.cols)]
    for i, row in enumerate(m.data):
        for c in _support(row):
            images[c].append(i)
    return jordan_type_of_images(images)


def graded(images: Sequence[Sequence[int]], degrees: Sequence[int]) -> Graded:
    """The images of a map, with a degree for each basis vector, read as a Graded.

    counts[d] is the number of basis vectors of degree d, and position
    within the degree is the order of the basis.  forms[d], for every degree
    d of a basis vector, is the map from degree d into degree d - 1 over
    those positions, read in one walk over the entries.  Every entry (i, c),
    basis vector c to basis vector i, must lower the degree by exactly 1:
    ValueError names the first, column by column, that does not, with both
    its degrees.  A degree count other than len(images) raises ValueError.
    """
    dim = len(images)
    if len(degrees) != dim:
        raise ValueError(f"{len(degrees)} degrees for a matrix of size {dim}")
    counts: dict[int, int] = {}
    position = [0] * dim  # of each basis vector within its degree
    for c, d in enumerate(degrees):
        k = position[c] = counts.get(d, 0)
        counts[d] = k + 1
    forms: dict[int, Form] = {d: {} for d in counts}
    for c, hits in enumerate(images):
        form, below, source = forms[degrees[c]], degrees[c] - 1, position[c]
        bit = 1 << source
        for i in hits:
            if degrees[i] != below:
                raise ValueError(
                    f"entry ({i}, {c}) does not lower the degree by exactly 1: "
                    f"it maps degree {degrees[c]} to degree {degrees[i]}"
                )
            shift = position[i] - source
            form[shift] = form.get(shift, 0) ^ bit
    return Graded(counts, forms)


def jordan_type_of_images(images: Sequence[Sequence[int]]) -> JordanType:
    """Jordan block sizes of a nilpotent square matrix m from its rank sequence.

    images[c] lists the rows of the nonzero entries of column c, each once:
    where basis vector c goes; images is not changed.  The rank loop reads
    them as the rows of the transpose t, which has the ranks of powers of m;
    _ranks says why its skips are sound.

    Here the factors t, t^2, t^4, ... come from squaring (_squared_factors),
    each applied by gathers, one per set bit of its fullest row (_gathers).
    The squaring stops at the first zero factor.  A factor t^(2^j) that is
    still nonzero with 2^j >= len(images) shows that m is not nilpotent, and
    ValueError is raised.  The oracle runs the same loop (_ranks) on factors
    of u - 1 that it builds without squaring.
    """
    n = len(images)
    factors = _squared_factors(list(images))  # which empties the list it reads
    if factors is None:
        raise ValueError("matrix is not nilpotent")
    return _type_of_ranks(_ranks(n, factors))
