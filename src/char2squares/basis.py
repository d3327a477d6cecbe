"""Explicit Jordan bases for the nilpotent action on tensor and symmetric squares.

The tensor-square basis is assembled from one chain per source index s:
the chain top w_s is a short anti-diagonal sum of basis tensors chosen so
that applying the derivation 2^b - 1 times lands exactly on the kernel
vector z_s.  Projecting to the symmetric square yields its Jordan basis.

Every chain vector is homogeneous: all its monomials v_i v_j share one
degree i + j, and the derivation lowers that degree by exactly 1.  A vector
is a checked tuple (space, n, degree, mask), a chain one packed int with a
slot per degree, built from its top by doubling.  verify_basis checks the
chains against e as the oracle builds it per degree (oracle.expr_forms), or
as gf2.graded reads it off images, never against a map of this module's,
so this module imports nothing from the oracle.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import count
from operator import itemgetter
from typing import Iterator, Sequence

from .core import JordanType, _trusted, cones_expansion
from .gf2 import Form, Gf2Matrix, Graded, _apply_form, _support, rank as gf2_rank

Space = str  # "tensor" or "sym2"


def _valid_mask(space: Space, n: int, degree: int) -> int:
    """Bits i with 1 <= i <= n and 1 <= degree - i <= n, and i <= degree - i in sym2."""
    lo = max(1, degree - n)
    hi = min(n, degree - 1, degree // 2 if space == "sym2" else n)
    return 0 if hi < lo else (2 << hi) - (1 << lo)


def _slot_width(n: int) -> int:
    """Bytes per degree slot of a packed chain: enough for bits 0..n of a mask."""
    return n // 8 + 1


class SparseVec(tuple):
    """GF(2) vector of one degree in the tensor or symmetric square.

    Bit i of mask stands for v_i (x) v_{degree-i}, or in sym2 for the
    monomial v_i v_{degree-i} with i <= degree - i.  A zero mask is the
    zero vector, whatever its degree.  An immutable tuple
    (space, n, degree, mask), equal and hashed as those four fields.
    """

    __slots__ = ()

    def __new__(cls, space: Space, n: int, degree: int, mask: int) -> "SparseVec":
        if space not in ("tensor", "sym2"):
            raise ValueError(f"unknown space {space!r}")
        if mask < 0 or mask & ~_valid_mask(space, n, degree):
            raise ValueError(f"mask {mask:#x} invalid in degree {degree} for n={n}")
        return tuple.__new__(cls, (space, n, degree, mask))

    space = property(itemgetter(0), doc="'tensor' or 'sym2'")
    n = property(itemgetter(1), doc="size of the Jordan block W_n squared")
    degree = property(itemgetter(2), doc="i + j, shared by every monomial v_i v_j")
    mask = property(itemgetter(3), doc="bit i for each monomial v_i v_{degree-i}")

    def __reduce__(self):
        # copy and pickle rebuild through the checked constructor; __getnewargs__
        # alone would leave pickle protocols 0 and 1 unchecked
        return SparseVec, tuple(self)

    def __repr__(self) -> str:
        space, n, degree, mask = self
        return f"SparseVec(space={space!r}, n={n!r}, degree={degree!r}, mask={mask!r})"

    @property
    def terms(self) -> frozenset[tuple[int, int]]:
        """The monomials as 1-based index pairs (i <= j in sym2)."""
        return frozenset((i, self.degree - i) for i in _support(self.mask))

    def is_zero(self) -> bool:
        return not self.mask

    def apply_e(self) -> "SparseVec":
        """Derivation action: v_i v_j -> v_{i-1} v_j + v_i v_{j-1} over GF(2),
        bit i to the bits i - 1 and i valid in degree - 1; in sym2, e(v_i v_i) = 0."""
        space, n, degree, mask = self
        if space == "sym2" and not degree & 1:
            mask &= ~(1 << (degree >> 1))
        mask = ((mask >> 1) ^ mask) & _valid_mask(space, n, degree - 1)
        return _unchecked((space, n, degree - 1, mask))


def _unchecked(fields: tuple[Space, int, int, int]) -> SparseVec:
    """The SparseVec (space, n, degree, mask) built without the constructor's
    check, for masks valid by construction, such as images under apply_e."""
    return tuple.__new__(SparseVec, fields)


@dataclass(frozen=True, init=False)
class JordanChain:
    """Chain [top, e top, e^2 top, ...]; the derivation kills the last vector.

    Held as one packed int of length slots of _slot_width(n) bytes, the
    top in the highest and the last vector in the lowest.  JordanChain(s,
    vectors) packs the vectors and raises ValueError, naming s and the
    position, for no vectors, vectors of two squares, or degrees that do not
    fall by one or fall below 0.  masks, vectors and top are views.
    """

    s: int  # source index of the chain (1..n)
    space: Space
    n: int
    degree: int  # of the top
    length: int
    packed: int

    def __init__(self, s: int, vectors: Sequence[SparseVec]) -> None:
        if not vectors:
            raise ValueError(f"chain for s={s} has no vectors")
        space, n, degree, _ = vectors[0]
        for pos, (vspace, vn, vdegree, _) in enumerate(vectors):
            if vspace != space or vn != n:
                raise ValueError(f"chain for s={s}: vector {pos} is not in the {space} square for n={n}")
            if vdegree != degree - pos:
                raise ValueError(f"chain for s={s}: vector {pos} has degree {vdegree}, not {degree - pos}")
            if vdegree < 0:
                raise ValueError(f"chain for s={s}: vector {pos} has degree {vdegree}, below 0")
        packed = int.from_bytes(b"".join(mask.to_bytes(_slot_width(n), "big") for *_, mask in vectors), "big")
        for name, value in zip(("s", "space", "n", "degree", "length", "packed"),
                               (s, space, n, degree, len(vectors), packed)):
            object.__setattr__(self, name, value)

    @property
    def masks(self) -> tuple[int, ...]:  # top first
        width = _slot_width(self.n)
        raw = self.packed.to_bytes(self.length * width, "big")
        return tuple(int.from_bytes(raw[i:i + width], "big") for i in range(0, len(raw), width))

    @property
    def vectors(self) -> tuple[SparseVec, ...]:
        space, n = self.space, self.n
        return tuple(_unchecked((space, n, degree, mask))
                     for degree, mask in zip(count(self.degree, -1), self.masks))

    @property
    def top(self) -> SparseVec:
        return _unchecked((self.space, self.n, self.degree, self.masks[0]))


def build_z(s: int, n: int) -> SparseVec:
    """Kernel vector z_s = sum of v_i tensor v_{s+1-i} for 1 <= i <= s."""
    if not (1 <= s <= n):
        raise ValueError(f"s={s} out of range for n={n}")
    return SparseVec("tensor", n, s + 1, (2 << s) - 2)


def _bands(n: int) -> Iterator[tuple[int, int, int]]:
    """(s, k, beta_k) for s = 1..n in turn, s in band k, from one expansion of n.

    s lies in band k when n_k > n - s >= n_{k+1}, so the bands are runs of s.
    """
    exp = cones_expansion(n)
    nk = exp.suffix_values()
    for k, beta in enumerate(exp.betas, 1):
        for s in range(n - nk[k - 1] + 1, n - nk[k] + 1):
            yield s, k, beta


def band_index(s: int, n: int) -> int:
    """The unique k (1-based) with n_k > n - s >= n_{k+1}."""
    if not (1 <= s <= n):
        raise ValueError(f"s={s} out of range for n={n}")
    return list(_bands(n))[s - 1][1]


def find_j0(s: int, n: int, beta: int) -> int:
    """Smallest j0 >= 0 sandwiching both half-point shifts inside [s, n].

    Requires s <= floor(s/2) + 2^(beta-1) + j0 2^beta <= n and the same with
    ceil(s/2).  Existence is guaranteed when beta is the band exponent of s.
    """
    if beta < 1:
        raise ValueError("beta must be positive")
    half = 1 << (beta - 1)
    step = 1 << beta
    # the least j0 whose lower point s // 2 + half + j0 step is at least s
    j0 = max(0, -((half - (s + 1) // 2) // step))
    if (s + 1) // 2 + half + j0 * step > n:
        raise ValueError(f"no valid j0 for s={s}, n={n}, beta={beta}")
    return j0


def build_w(s: int, n: int) -> SparseVec:
    """Chain top w_s; equals z_s in the beta = 0 band."""
    return SparseVec("tensor", n, *_top(s, n, cones_expansion(n).betas[band_index(s, n) - 1]))


def _top(s: int, n: int, beta: int) -> tuple[int, int]:
    """(degree, mask) of w_s for s in the band of exponent beta, valid by construction."""
    if beta == 0:
        return s + 1, (2 << s) - 2  # z_s
    half = 1 << (beta - 1)
    step = 1 << beta
    j0 = find_j0(s, n, beta)
    degree = s + step  # (s // 2 + half) + ((s + 1) // 2 + half)
    mask = 0
    for j in range(-j0, j0 + 1):
        i = s // 2 + half + j * step
        if 1 <= i <= n and 1 <= degree - i <= n:
            mask ^= 1 << i
    return degree, mask


def _basis(space: Space, n: int) -> list[JordanChain]:
    """One packed chain per s: from w_s, or in sym2 from pi(w_s), alone for an even s.

    In characteristic 2, e^h for h = 2^j acts on a tensor mask x of degree d
    as ((x >> h) ^ x) & valid[d - h], as C(h, k) is even for 0 < k < h, so
    log2(length) doublings build a tensor chain from its top: the h vectors
    built go up h slots, and e^h of them fills the h slots below.  A bit i
    that shifts out of the slot of degree d + 1 into the top of the slot of
    d lands at bit 8 * width - h + i >= d - h + 2, as i >= d + 1 - n, above
    the bits valid in degree d - h: the valid masks clear it.  pi and the
    transpose tau (bit i of degree d to bit d - i) commute with e, so the
    sym2 chain is pi(X) = X ^ tau X below the centre of each degree and X at
    it, X the tensor chain of w_s and tau X that of tau(w_s).
    """
    if n < 1:
        raise ValueError("n must be positive")
    width = _slot_width(n)
    bits = 8 * width
    # tables of masks by degree, bytes d * width onward little-endian for degree d:
    # the valid tensor masks, bits max(1, d - n)..min(n, d - 1) of degree d, and in
    # sym2 the bits i <= d / 2 of degree d, so i < d / 2 in the slot of d - 1
    valid = b"".join(m.to_bytes(width, "little") for m in [0, 0, *((1 << d) - 2 for d in range(2, n + 2)),
                     *((2 << n) - (1 << d - n) for d in range(n + 2, 2 * n + 1))])
    if space == "sym2":
        upto = b"".join(((2 << d // 2) - 1).to_bytes(width, "little") for d in range(2 * n + 1))
    bands = list(_bands(n))
    # (h, h slots in bits, 2h slots in bits) up to the first band's, the longest, chains
    steps = [(1 << j, bits << j, bits << j + 1) for j in range(bands[0][2])]

    def tensor(top: int, length: int, ok: int) -> int:
        """The tensor chain from the mask top, ok the valid masks of its degrees."""
        x, end = top, length * bits
        for h, shift, double in steps[:length.bit_length() - 1]:
            x = x << shift | (x >> h ^ x) & ok >> end - double
        return x

    chains = []
    for s, _, beta in bands:
        degree, top = _top(s, n, beta)
        length = 1 if space == "sym2" and s % 2 == 0 else 1 << beta
        a, b = (degree - length + 1) * width, (degree + 1) * width  # its degrees' bytes
        ok = int.from_bytes(valid[a:b], "little")
        x = tensor(top, length, ok)
        if space == "sym2":
            y = tensor(sum(1 << degree - i for i in _support(top)), length, ok)
            bounds = int.from_bytes(upto[a - width:b], "little")  # its degrees and the one below
            x = x & bounds >> bits ^ y & bounds
        chains.append(_trusted(JordanChain, s=s, space=space, n=n, degree=degree, length=length, packed=x))
    return chains


def build_tensor_basis(n: int) -> list[JordanChain]:
    """Jordan basis of the derivation on the tensor square, one chain per s.

    The chain for s in band k has length 2^(b_k) and terminates at z_s.
    """
    return _basis("tensor", n)


def project_to_sym(vec: SparseVec) -> SparseVec:
    """Quotient map to the symmetric square; transposed pairs cancel over GF(2)."""
    if vec.space != "tensor":
        raise ValueError("projection applies to tensor-square vectors")
    mask = 0
    for i in _support(vec.mask):
        mask ^= 1 << min(i, vec.degree - i)
    return SparseVec("sym2", vec.n, vec.degree, mask)


def build_sym_basis(n: int) -> list[JordanChain]:
    """Jordan basis of the derivation on the symmetric square.

    Even s contribute the single fixed vector pi(w_s); odd s in band k keep
    the full chain of length 2^(b_k) starting at pi(w_s).
    """
    return _basis("sym2", n)


@dataclass
class VerificationReport:
    """Outcome of checking chains against the images of an action."""

    vector_count: int
    rank: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _rank(vectors: list[tuple[int, int]], n: int) -> int:
    """Rank of (degree, mask) vectors of the square for n, in one gf2_rank call.

    Each mask goes to the slot of its degree, counted from the lowest degree
    among them, as in a packed chain.  Rows in different slots share no bit,
    and each pivot reduces only rows whose highest bit lies in its own slot,
    so the rank is the sum of the ranks of the degrees.  A row is as wide as
    the slots below it.
    """
    bits = 8 * _slot_width(n)
    low = min(degree for degree, _ in vectors)
    high = max(degree for degree, _ in vectors)
    rows = tuple(mask << (degree - low) * bits for degree, mask in vectors)
    # the masks were checked against (space, n), so the matrix is built unchecked
    return gf2_rank(_trusted(Gf2Matrix, rows=len(rows), cols=(high - low + 1) * bits, data=rows))


def verify_basis(
    chains: list[JordanChain],
    action: Graded,
    expected_terminals: list[SparseVec] | None = None,
) -> VerificationReport:
    """Check chain links, terminal kill, full rank and optional terminal values.

    action is e on the square of the chains as a gf2.Graded: what
    oracle.expr_forms builds, or gf2.graded of images in basis_keys order
    with the degree i + j of each v_i v_j.  Each chain must satisfy
    action.v_t = v_{t+1} with the last vector killed, all vectors together
    must be linearly independent, and when terminals are supplied, one per
    chain (ValueError otherwise), the last vector of chain i must equal
    expected_terminals[i].  Every chain must lie in the first one's square,
    and the action must have as many vectors in each degree as the square
    (ValueError otherwise).  Position k of degree d stands for bit k + lo of
    a mask of that degree, lo its lowest valid bit, so each form moves into
    the masks' frame a diagonal at a time.

    The forms of all degrees are packed side by side, one int per diagonal,
    in the slots of a packed chain, so one shift lines a chain up with them.
    Its image, an AND and a shift per diagonal, must be the chain without
    its top raised one slot: one comparison covers every link and the
    terminal kill.  Where it fails, slot d of the difference is the link
    from the vector of degree d, the last degree's slot the terminal kill,
    and a difference outside the chain's slots is named as such; zero masks
    are zero vectors.  Where it holds, a zero vector makes every later one
    zero, so only the lowest slot is read.

    When every chain passes, the vectors are independent if and only if
    the chains' last vectors are: in a relation, apply the action h times,
    h the largest distance to its chain's end of a vector in it, and only
    last vectors remain.  So the rank then runs over the last vectors, and
    over all vectors only when a chain failed or they are dependent.
    """
    if expected_terminals is not None and len(expected_terminals) != len(chains):
        raise ValueError(f"{len(expected_terminals)} expected terminals for {len(chains)} chains")
    if not chains:
        return VerificationReport(0, 0)
    space, n = chains[0].space, chains[0].n
    counts, forms = action
    # degree d holds v_i v_(d-i) for the bits i of _valid_mask: as many as in degree 2n + 2 - d
    rise = [d // 2 if space == "sym2" else d - 1 for d in range(2, n + 2)]
    square = dict(zip(range(2, 2 * n + 1), rise + rise[-2::-1]))
    if counts != square:
        have, want = sum(counts.values()), sum(square.values())
        if have == want:
            d = min(d for d in counts.keys() | square.keys() if counts.get(d) != square.get(d))
            have, want = counts.get(d, 0), square.get(d, 0)
            raise ValueError(f"action has {have} images of degree {d}, expected {want}")
        raise ValueError(f"action has {have} images, expected {want}")

    failures = []
    width = _slot_width(n)
    bits, slot = 8 * width, (1 << 8 * width) - 1
    # each diagonal's sources of every degree, degree d in bytes d * width onward
    diagonals: defaultdict[int, bytearray] = defaultdict(lambda: bytearray(width * (2 * n + 1)))
    for d, form in forms.items():
        lo = d - n if d > n else 1  # the lowest valid bit of degree d; of d - 1 it is lo - (d > n + 1)
        for shift, sources in form.items():
            diagonals[shift - (d > n + 1)][d * width:(d + 1) * width] = (sources << lo).to_bytes(width, "little")
    packed: Form = {shift: int.from_bytes(table, "little") for shift, table in diagonals.items()}
    total, failed = 0, False
    for ci, chain in enumerate(chains):
        if chain.space != space or chain.n != n:
            raise ValueError(f"chain {ci} (s={chain.s}) is not in the {space} square for n={n}")
        top, low = chain.degree, chain.degree - chain.length + 1
        total += chain.length
        x = chain.packed << low * bits
        # a chain at a time: shifted into the slots of every degree, all
        # chains and their images together would hold n^3 bits at once
        [image] = _apply_form(packed, [x])
        diff = image ^ (x ^ x >> top * bits << top * bits) << bits
        if diff or not chain.packed & slot:
            failed, where = True, f"chain {ci} (s={chain.s})"
            for pos, mask in enumerate(chain.masks):
                if pos and diff >> (top - pos + 1) * bits & slot:
                    failures.append(f"{where}: link {pos - 1} -> {pos} broken")
                if not mask:
                    failures.append(f"{where}: vector {pos} is zero")
            if diff >> low * bits & slot:
                failures.append(f"{where}: terminal vector not killed")
            if diff >> (top + 1) * bits or diff & (1 << low * bits) - 1:
                failures.append(f"{where}: image outside its slots")
        if expected_terminals is not None:
            _, _, end_degree, end_mask = expected_terminals[ci]
            if not (end_mask == chain.packed & slot and (end_degree == low or not end_mask)):
                failures.append(f"chain {ci} (s={chain.s}): terminal differs from expected vector")
    ends = [(c.degree - c.length + 1, c.packed & slot) for c in chains]
    if failed or _rank(ends, n) < len(chains):
        # a degree at a time: in one matrix, n^2 rows would reach over 2n slots
        by_degree: defaultdict[int, list[int]] = defaultdict(list)
        for c in chains:
            for d, m in zip(count(c.degree, -1), c.masks):
                by_degree[d].append(m)
        matrix_rank = sum(_rank([(d, m) for m in masks], n) for d, masks in by_degree.items())
    else:
        matrix_rank = total
    if matrix_rank != total:
        failures.append(f"chain vectors dependent: rank {matrix_rank} < count {total}")
    return VerificationReport(total, matrix_rank, failures)


def chain_type(chains: list[JordanChain]) -> JordanType:
    """Multiset of chain lengths as a Jordan type."""
    return JordanType.from_sizes(c.length for c in chains)


def format_chain(chain: JordanChain) -> str:
    """One-line dump: vectors as '+'-joined monomials 'vi*vj', ' | '-separated."""
    return " | ".join("+".join(f"v{i}*v{degree - i}" for i in _support(mask)) or "0"
                      for degree, mask in zip(count(chain.degree, -1), chain.masks))
