"""Explicit Jordan bases for the nilpotent action on tensor and symmetric squares.

The tensor-square basis is assembled from one chain per source index s:
the chain top w_s is a short anti-diagonal sum of basis tensors chosen so
that applying the derivation 2^b - 1 times lands exactly on the kernel
vector z_s.  Projecting to the symmetric square yields its Jordan basis.

Every chain vector is homogeneous: all its monomials v_i v_j share one
degree i + j, and the derivation lowers that degree by exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .core import JordanType, _trusted, cones_expansion
from .gf2 import Gf2Matrix, _apply_form, _degree_forms, _support, rank as gf2_rank
from .oracle import basis_keys

Space = str  # "tensor" or "sym2"


def _valid_mask(space: Space, n: int, degree: int) -> int:
    """Bits i with 1 <= i <= n and 1 <= degree - i <= n, and i <= degree - i in sym2."""
    lo = max(1, degree - n)
    hi = min(n, degree - 1, degree // 2 if space == "sym2" else n)
    return 0 if hi < lo else (2 << hi) - (1 << lo)


@dataclass(frozen=True)
class SparseVec:
    """GF(2) vector of one degree in the tensor or symmetric square.

    Bit i of mask stands for v_i (x) v_{degree-i}, or in sym2 for the
    monomial v_i v_{degree-i} with i <= degree - i.  A zero mask is the
    zero vector, whatever its degree.
    """

    space: Space
    n: int
    degree: int
    mask: int

    def __post_init__(self) -> None:
        if self.space not in ("tensor", "sym2"):
            raise ValueError(f"unknown space {self.space!r}")
        if self.mask < 0 or self.mask & ~_valid_mask(self.space, self.n, self.degree):
            raise ValueError(f"mask {self.mask:#x} invalid in degree {self.degree} for n={self.n}")

    @property
    def terms(self) -> frozenset[tuple[int, int]]:
        """The monomials as 1-based index pairs (i <= j in sym2)."""
        return frozenset((i, self.degree - i) for i in _support(self.mask))

    def is_zero(self) -> bool:
        return not self.mask

    def apply_e(self) -> "SparseVec":
        """Derivation action: v_i v_j -> v_{i-1} v_j + v_i v_{j-1} over GF(2).

        Bit i goes to bits i - 1 and i of degree - 1; in sym2, e(v_i v_i) = 0.
        """
        mask = self.mask
        if self.space == "sym2" and self.degree % 2 == 0:
            mask &= ~(1 << self.degree // 2)
        degree = self.degree - 1
        mask = ((mask >> 1) ^ mask) & _valid_mask(self.space, self.n, degree)
        return _trusted(SparseVec, space=self.space, n=self.n, degree=degree, mask=mask)


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


def band_index(s: int, n: int) -> int:
    """The unique k (1-based) with n_k > n - s >= n_{k+1}."""
    if not (1 <= s <= n):
        raise ValueError(f"s={s} out of range for n={n}")
    exp = cones_expansion(n)
    nk = exp.suffix_values()
    for k in range(1, exp.r + 1):
        if nk[k - 1] > n - s >= nk[k]:
            return k
    raise AssertionError("suffix values failed to cover n - s")  # unreachable


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
    beta = cones_expansion(n).betas[band_index(s, n) - 1]
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


def _chain_from_top(top: SparseVec, s: int) -> JordanChain:
    """The chain from top down to degree s + 1, the degree of z_s."""
    vectors = [top]
    for _ in range(top.degree - s - 1):
        vectors.append(vectors[-1].apply_e())
    return JordanChain(s, tuple(vectors))


def build_tensor_basis(n: int) -> list[JordanChain]:
    """Jordan basis of the derivation on the tensor square, one chain per s.

    The chain for s in band k has length 2^(b_k) and terminates at z_s.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return [_chain_from_top(build_w(s, n), s) for s in range(1, n + 1)]


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
    chains = []
    for s in range(1, n + 1):
        top = project_to_sym(build_w(s, n))
        chains.append(JordanChain(s, (top,)) if s % 2 == 0 else _chain_from_top(top, s))
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
    has degree i + j and bit i), and each vector is mapped by
    gf2._apply_form; the action must lower the degree of every monomial by
    exactly 1, and the entries the walk lists as not doing so are reported
    and left out.
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

    def same(v: SparseVec, degree: int, mask: int) -> bool:
        # a zero mask is the zero vector in every degree
        return v.mask == mask and (v.degree == degree or not mask)

    failures = []
    if off:
        target, source = min(off)  # the first in row order
        (i, j), (k, l) = keys[source], keys[target]
        failures.append(
            f"action breaks the grading in {len(off)} of its entries, "
            f"first v{i}*v{j} -> v{k}*v{l}"
        )
    by_degree: dict[int, list[int]] = {}  # masks; rank adds up over degrees
    for ci, chain in enumerate(chains):
        where = f"chain {ci} (s={chain.s})"
        vectors = chain.vectors
        for pos, v in enumerate(vectors):
            if v.space != space or v.n != n:
                raise ValueError(f"{where}: vector {pos} is not in the {space} square for n={n}")
            by_degree.setdefault(v.degree, []).append(v.mask)
            if not v.mask:
                failures.append(f"{where}: vector {pos} is zero")
            mask = v.mask and _apply_form(forms[v.degree], v.mask)
            if pos + 1 < len(vectors):
                if not same(vectors[pos + 1], v.degree - 1, mask):
                    failures.append(f"{where}: link {pos} -> {pos + 1} broken")
            elif mask:
                failures.append(f"{where}: terminal vector not killed")
        last = vectors[-1]
        if expected_terminals is not None and not same(expected_terminals[ci], last.degree, last.mask):
            failures.append(f"{where}: terminal differs from expected vector")
    count = sum(map(len, by_degree.values()))
    # the masks were checked against (space, n) above, so the matrices are built unchecked
    matrix_rank = sum(gf2_rank(_trusted(Gf2Matrix, rows=len(r), cols=n + 1, data=tuple(r)))
                      for r in by_degree.values())
    if matrix_rank != count:
        failures.append(f"chain vectors dependent: rank {matrix_rank} < count {count}")
    return VerificationReport(count, matrix_rank, failures)


def chain_type(chains: list[JordanChain]) -> JordanType:
    """Multiset of chain lengths as a Jordan type."""
    return JordanType.from_sizes(c.length for c in chains)


def format_chain(chain: JordanChain) -> str:
    """One-line dump: vectors as '+'-joined monomials 'vi*vj', ' | '-separated."""

    def fmt_vec(v: SparseVec) -> str:
        if v.is_zero():
            return "0"
        return "+".join(f"v{i}*v{j}" for i, j in sorted(v.terms))

    return " | ".join(fmt_vec(v) for v in chain.vectors)
