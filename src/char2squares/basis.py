"""Explicit Jordan bases for the nilpotent action on tensor and symmetric squares.

The tensor-square basis is assembled from one chain per source index s:
the chain top w_s is a short anti-diagonal sum of basis tensors chosen so
that applying the derivation 2^b - 1 times lands exactly on the kernel
vector z_s.  Projecting to the symmetric square yields its Jordan basis.

Every chain vector is homogeneous: all its monomials v_i v_j share one
degree i + j, and the derivation lowers that degree by exactly 1.  A vector
is a checked tuple (space, n, degree, mask); a chain is built from its top
in one loop that lowers the mask by _lower, the one definition of e on a
mask, and keeps the bits valid in each degree from a table made once per
basis.  Those vectors are valid by construction and skip the check.  The
builders read every chain's band from one walk, _bands, over one expansion
of n, so nothing is cached between calls.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .core import JordanType, _trusted, cones_expansion
from .gf2 import Form, Gf2Matrix, _apply_form, _degree_forms, _support, rank as gf2_rank
from .oracle import basis_keys

Space = str  # "tensor" or "sym2"


def _valid_mask(space: Space, n: int, degree: int) -> int:
    """Bits i with 1 <= i <= n and 1 <= degree - i <= n, and i <= degree - i in sym2."""
    lo = max(1, degree - n)
    hi = min(n, degree - 1, degree // 2 if space == "sym2" else n)
    return 0 if hi < lo else (2 << hi) - (1 << lo)


def _valid_masks(space: Space, n: int) -> list[int]:
    """_valid_mask(space, n, degree) for every degree from 0 to 2n, indexed by degree."""
    return [_valid_mask(space, n, degree) for degree in range(2 * n + 1)]


def _lower(mask: int, degree: int, sym2: bool, valid: int) -> int:
    """e on a mask of this degree: the mask of its image in degree - 1.

    Bit i goes to bits i - 1 and i, of which only the bits of valid, the
    valid mask of degree - 1, are kept; in sym2, e(v_i v_i) = 0.
    """
    if sym2 and not degree & 1:
        mask &= ~(1 << (degree >> 1))
    return ((mask >> 1) ^ mask) & valid


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
        """Derivation action: v_i v_j -> v_{i-1} v_j + v_i v_{j-1} over GF(2)."""
        space, n, degree, mask = self
        valid = _valid_mask(space, n, degree - 1)
        return _unchecked((space, n, degree - 1, _lower(mask, degree, space == "sym2", valid)))


def _unchecked(fields: tuple[Space, int, int, int]) -> SparseVec:
    """The SparseVec (space, n, degree, mask) built without the constructor's check.

    For masks valid by construction, such as images under _lower.
    """
    return tuple.__new__(SparseVec, fields)


@dataclass(frozen=True)
class JordanChain:
    """Chain [top, e top, e^2 top, ...]; the derivation kills the last vector."""

    s: int  # source index of the chain (1..n)
    vectors: tuple[SparseVec, ...]

    def __post_init__(self) -> None:
        if not self.vectors:
            raise ValueError(f"chain for s={self.s} has no vectors")

    @property
    def top(self) -> SparseVec:
        return self.vectors[0]

    @property
    def length(self) -> int:
        return len(self.vectors)


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
    return _top(s, n, cones_expansion(n).betas[band_index(s, n) - 1])


def _top(s: int, n: int, beta: int) -> SparseVec:
    """w_s for s in the band of exponent beta."""
    if beta == 0:
        return build_z(s, n)
    half = 1 << (beta - 1)
    step = 1 << beta
    j0 = find_j0(s, n, beta)
    degree = s + step  # (s // 2 + half) + ((s + 1) // 2 + half)
    mask = 0
    for j in range(-j0, j0 + 1):
        i = s // 2 + half + j * step
        if 1 <= i <= n and 1 <= degree - i <= n:
            mask ^= 1 << i
    return SparseVec("tensor", n, degree, mask)


def _chain_from_top(top: SparseVec, s: int, valid: list[int]) -> JordanChain:
    """The chain from top down to degree s + 1, the degree of z_s.

    valid is _valid_masks of top's square.
    """
    space, n, degree, mask = top
    sym2 = space == "sym2"
    vectors = [top]
    for degree in range(degree - 1, s, -1):
        mask = _lower(mask, degree + 1, sym2, valid[degree])
        vectors.append(_unchecked((space, n, degree, mask)))
    return JordanChain(s, tuple(vectors))


def build_tensor_basis(n: int) -> list[JordanChain]:
    """Jordan basis of the derivation on the tensor square, one chain per s.

    The chain for s in band k has length 2^(b_k) and terminates at z_s.
    """
    if n < 1:
        raise ValueError("n must be positive")
    valid = _valid_masks("tensor", n)
    return [_chain_from_top(_top(s, n, beta), s, valid) for s, _, beta in _bands(n)]


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
    if n < 1:
        raise ValueError("n must be positive")
    valid = _valid_masks("sym2", n)
    chains = []
    for s, _, beta in _bands(n):
        top = project_to_sym(_top(s, n, beta))
        chains.append(JordanChain(s, (top,)) if s % 2 == 0 else _chain_from_top(top, s, valid))
    return chains


@dataclass
class VerificationReport:
    """Outcome of checking chains against the images of an action."""

    vector_count: int
    rank: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _walk(chain: JordanChain, where: str, space: Space, n: int,
          forms: dict[int, Form], failures: list[str]) -> None:
    """Check chain link by link, vector by vector, adding its failures in order.

    A vector outside the space's square for n raises ValueError.
    """
    # the image of the vector before, in degree below; a zero mask is the
    # zero vector in every degree, so a zero image matches any zero vector
    image = below = None
    for pos, (vspace, vn, degree, mask) in enumerate(chain.vectors):
        if vspace != space or vn != n:
            raise ValueError(f"{where}: vector {pos} is not in the {space} square for n={n}")
        if pos and not (mask == image and (degree == below or not mask)):
            failures.append(f"{where}: link {pos - 1} -> {pos} broken")
        if not mask:
            failures.append(f"{where}: vector {pos} is zero")
        image = mask and _apply_form(forms[degree], mask)
        below = degree - 1
    if image:
        failures.append(f"{where}: terminal vector not killed")


def _rank(vectors: Iterable[SparseVec], n: int) -> int:
    """Rank of vectors of the square for n, one gf2_rank per degree."""
    by_degree: defaultdict[int, list[int]] = defaultdict(list)
    for _, _, degree, mask in vectors:
        by_degree[degree].append(mask)
    # the masks were checked against (space, n), so the matrices are built unchecked
    return sum(gf2_rank(_trusted(Gf2Matrix, rows=len(r), cols=n + 1, data=tuple(r)))
               for r in by_degree.values())


def _chain_holds(masks: tuple[int, ...], low: int, packed: list[tuple[int, int]], width: int) -> bool:
    """Whether masks, of degrees low + len(masks) - 1 down to low, form a chain.

    packed holds (shift, sources) per diagonal, the sources of degree d in
    slot d of width bytes.  Each mask goes into its degree's slot, and the
    image of every slot, an AND and a shift per diagonal, must be the next
    mask, raised one slot, or 0 below the last.
    """
    bits = 8 * width
    x = int.from_bytes(b"".join(map(int.to_bytes, masks, repeat(width), repeat("big"))),
                       "big") << low * bits
    image = 0
    for shift, sources in packed:
        image ^= (x & sources) << shift if shift >= 0 else (x & sources) >> -shift
    top = low + len(masks) - 1
    return image == (x ^ masks[0] << top * bits) << bits


def verify_basis(
    chains: list[JordanChain],
    images: Sequence[Sequence[int]],
    expected_terminals: list[SparseVec] | None = None,
) -> VerificationReport:
    """Check chain links, terminal kill, full rank and optional terminal values.

    images is the action as the oracle builds it: images[c] lists the
    positions, in basis_keys order, of the monomials that monomial c is
    mapped to.  Each chain must satisfy action.v_t = v_{t+1} with the last
    vector killed, all vectors together must be linearly independent, and
    when terminals are supplied, one per chain (ValueError otherwise), the
    last vector of chain i must equal expected_terminals[i].  One walk,
    gf2._degree_forms, reads the images into one map per degree, in shift
    form over the vectors' masks, in a frame taken from basis_keys (v_i v_j
    has degree i + j and bit i); the action must lower the degree of every
    monomial by exactly 1, and the entries the walk lists as not doing so
    are reported and left out.

    The forms of all degrees are packed side by side, one int per diagonal,
    and a chain of nonzero vectors in consecutive degrees is checked whole
    by _chain_holds: one comparison of packed ints covers all its links and
    its terminal kill.  Only a chain that fails it, or does not fit it, is
    walked vector by vector, with gf2._apply_form, to name its failures.

    When every chain passes, the vectors are independent if and only if
    the chains' last vectors are: in a relation, apply the action h times,
    h the largest distance to its chain's end of a vector in it, and only
    last vectors remain.  So the rank then runs over the last vectors, and
    over all vectors only when a chain was walked or they are dependent.
    """
    if expected_terminals is not None and len(expected_terminals) != len(chains):
        raise ValueError(f"{len(expected_terminals)} expected terminals for {len(chains)} chains")
    if not chains:
        return VerificationReport(0, 0)
    space = chains[0].top.space
    n = chains[0].top.n
    keys = basis_keys(space, n)
    dim = len(keys)
    if len(images) != dim:
        raise ValueError(f"action has {len(images)} images, expected {dim}")
    forms, off = _degree_forms(images, [i + j for i, j in keys], [i for i, _ in keys])

    failures = []
    if off:
        target, source = min(off)  # the first in row order
        (i, j), (k, l) = keys[source], keys[target]
        failures.append(
            f"action breaks the grading in {len(off)} of its entries, "
            f"first v{i}*v{j} -> v{k}*v{l}"
        )
    width = n // 8 + 1  # bytes per degree slot, enough for bits 0..n of a mask
    packed = [  # (shift, that diagonal's sources of every degree, each in its slot)
        (shift, int.from_bytes(b"".join(forms.get(d, {}).get(shift, 0).to_bytes(width, "big")
                                        for d in range(2 * n, -1, -1)), "big"))
        for shift in {shift for form in forms.values() for shift in form}
    ]
    count = 0
    walked = False
    for ci, chain in enumerate(chains):
        where = f"chain {ci} (s={chain.s})"
        spaces, ns, degrees, masks = zip(*chain.vectors)
        length = len(masks)
        count += length
        degree, mask = degrees[-1], masks[-1]
        if not (spaces.count(space) == ns.count(n) == length and 0 not in masks
                and degrees == tuple(range(degrees[0], degree - 1, -1))
                and _chain_holds(masks, degree, packed, width)):
            walked = True
            _walk(chain, where, space, n, forms, failures)
        if expected_terminals is not None:
            _, _, end_degree, end_mask = expected_terminals[ci]
            if not (end_mask == mask and (end_degree == degree or not mask)):
                failures.append(f"{where}: terminal differs from expected vector")
    if walked or _rank((c.vectors[-1] for c in chains), n) < len(chains):
        matrix_rank = _rank((v for c in chains for v in c.vectors), n)
    else:
        matrix_rank = count
    if matrix_rank != count:
        failures.append(f"chain vectors dependent: rank {matrix_rank} < count {count}")
    return VerificationReport(count, matrix_rank, failures)


def chain_type(chains: list[JordanChain]) -> JordanType:
    """Multiset of chain lengths as a Jordan type."""
    return JordanType.from_sizes(c.length for c in chains)


def format_chain(chain: JordanChain) -> str:
    """One-line dump: vectors as '+'-joined monomials 'vi*vj', ' | '-separated."""

    def fmt_vec(v: SparseVec) -> str:
        _, _, degree, mask = v
        return "+".join(f"v{i}*v{degree - i}" for i in _support(mask)) or "0"

    return " | ".join(fmt_vec(v) for v in chain.vectors)
