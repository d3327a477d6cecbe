"""Core symbolic types: Jordan types, consecutive-ones expansions, module expressions.

A Jordan type is a partition recording the Jordan block sizes of an operator.
The consecutive-ones expansion of n is the shortest alternating sum of powers
of two equal to n; it drives the closed-form decompositions of squares of
nilpotent Jordan blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

Kind = Literal["unipotent", "nilpotent"]

KINDS = ("unipotent", "nilpotent")

FUNCTORS = ("tensor", "ext2", "sym2")


class MixedKindError(ValueError):
    """A module expression mixes unipotent (V) and nilpotent (W) atoms."""


@dataclass(frozen=True)
class JordanType:
    """Multiset of Jordan block sizes, stored as (size, multiplicity) pairs.

    Pairs are sorted by size descending with distinct sizes and positive
    multiplicities.  Multiplicities are plain ints and may be arbitrarily
    large.
    """

    parts: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for size, mult in self.parts:
            if size < 1 or mult < 1:
                raise ValueError(f"invalid part ({size}, {mult})")
            if prev is not None and size >= prev:
                raise ValueError("parts must have strictly decreasing sizes")
            prev = size

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "JordanType":
        """Build from (size, multiplicity) pairs, merging duplicates.

        Zero multiplicities are dropped; negative sizes or multiplicities
        are rejected.
        """
        acc: dict[int, int] = {}
        for size, mult in pairs:
            if mult < 0:
                raise ValueError(f"negative multiplicity for size {size}")
            if mult == 0:
                continue
            if size < 1:
                raise ValueError(f"non-positive block size {size}")
            acc[size] = acc.get(size, 0) + mult
        return cls._trusted(tuple(sorted(acc.items(), reverse=True)))

    @classmethod
    def _trusted(cls, parts: tuple[tuple[int, int], ...]) -> "JordanType":
        """Wrap parts that are valid by construction, without re-running __post_init__.

        The caller guarantees what __post_init__ checks: sizes strictly
        decreasing, sizes and multiplicities positive.
        """
        out = object.__new__(cls)
        out.__dict__["parts"] = parts
        return out

    @classmethod
    def from_sizes(cls, sizes: Iterable[int]) -> "JordanType":
        return cls.from_pairs((s, 1) for s in sizes)

    @property
    def total_dim(self) -> int:
        return sum(s * m for s, m in self.parts)

    @property
    def block_count(self) -> int:
        return sum(m for _, m in self.parts)

    def sizes(self) -> list[int]:
        """Flat descending list of block sizes (one entry per block)."""
        out: list[int] = []
        for size, mult in self.parts:
            out.extend([size] * mult)
        return out

    def decremented(self) -> "JordanType":
        """Every block size reduced by one, size-0 blocks discarded."""
        return JordanType.from_pairs((s - 1, m) for s, m in self.parts if s > 1)

    def __str__(self) -> str:
        return format_jordan_type(self)


EMPTY_TYPE = JordanType()


def format_jordan_type(t: JordanType) -> str:
    """Canonical string: sizes descending, '^mult' omitted when 1, '0' if empty."""
    if not t.parts:
        return "0"
    return " ".join(f"{s}^{m}" if m > 1 else str(s) for s, m in t.parts)


def parse_jordan_type(text: str) -> JordanType:
    """Parse the canonical partition string produced by format_jordan_type."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty Jordan type string")
    if stripped == "0":
        return EMPTY_TYPE
    pairs = []
    for token in stripped.split():
        size_text, sep, mult_text = token.partition("^")
        try:
            size = int(size_text)
            mult = int(mult_text) if sep else 1
        except ValueError:
            raise ValueError(f"malformed Jordan type token {token!r}") from None
        if size < 1 or mult < 1:
            raise ValueError(f"non-positive size or multiplicity in {token!r}")
        pairs.append((size, mult))
    return JordanType.from_pairs(pairs)


@dataclass(frozen=True)
class ConesExpansion:
    """Consecutive-ones binary expansion n = 2^b1 - 2^b2 + 2^b3 - ...

    Exponents are strictly decreasing and the alternating sign pattern
    starts positive.  The representation of minimal length is unique.
    """

    n: int
    betas: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if not self.betas:
            raise ValueError("expansion must be nonempty")
        for a, b in zip(self.betas, self.betas[1:]):
            if a <= b:
                raise ValueError("exponents must be strictly decreasing")
        if self.betas[-1] < 0:
            raise ValueError("exponents must be non-negative")
        if self.suffix_values()[0] != self.n:
            raise ValueError(f"expansion does not sum to {self.n}")

    @property
    def r(self) -> int:
        return len(self.betas)

    def suffix_values(self) -> tuple[int, ...]:
        """Values n_k = sum_{k<=i<=r} (-1)^(i+k) 2^(b_i), for k = 1..r+1.

        Satisfies n = n_1 > n_2 > ... > n_r > n_{r+1} = 0.
        """
        vals = [0]
        for b in reversed(self.betas):
            vals.append((1 << b) - vals[-1])
        vals.reverse()
        return tuple(vals)


def cones_expansion(n: int) -> ConesExpansion:
    """Minimal alternating expansion of n into powers of two.

    Greedy from the top: every valid expansion forces
    2^(b1 - 1) < n <= 2^b1, so b1 is the exponent of the smallest power of
    two >= n, and the remainder 2^b1 - n is expanded the same way.
    """
    if n < 1:
        raise ValueError("n must be positive")
    betas = []
    m = n
    while m:
        b = (m - 1).bit_length()
        betas.append(b)
        m = (1 << b) - m
    # valid by construction, so built without re-running __post_init__
    out = object.__new__(ConesExpansion)
    fields = out.__dict__
    fields["n"], fields["betas"] = n, tuple(betas)
    return out


# --- symbolic module expressions -----------------------------------------


class ModuleExpr:
    """Base class for symbolic direct sums of indecomposables with functors."""


@dataclass(frozen=True)
class Atom(ModuleExpr):
    kind: Kind
    dim: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("atom dimension must be positive")


@dataclass(frozen=True)
class Scaled(ModuleExpr):
    """The direct sum of count copies of inner."""

    count: int
    inner: ModuleExpr

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("multiplicity must be positive")


@dataclass(frozen=True)
class Sum(ModuleExpr):
    terms: tuple[ModuleExpr, ...]


@dataclass(frozen=True)
class Tensor(ModuleExpr):
    left: ModuleExpr
    right: ModuleExpr


@dataclass(frozen=True)
class Ext2(ModuleExpr):
    inner: ModuleExpr


@dataclass(frozen=True)
class Sym2(ModuleExpr):
    inner: ModuleExpr


def square_expr(functor: str, kind: Kind, n: int, m: int | None = None) -> ModuleExpr:
    """The square of one block as an expression: E2(X_n), S2(X_n) or T(X_m, X_n).

    X is V for the unipotent kind and W for the nilpotent one; m defaults to n.
    """
    if m is not None and functor != "tensor":
        raise ValueError("m is only meaningful for the tensor functor")
    if functor == "tensor":
        return Tensor(Atom(kind, m if m is not None else n), Atom(kind, n))
    if functor == "ext2":
        return Ext2(Atom(kind, n))
    if functor == "sym2":
        return Sym2(Atom(kind, n))
    raise ValueError(f"unknown functor {functor!r}")


def expr_kind(expr: ModuleExpr) -> Kind:
    """The single atom kind appearing in expr; MixedKindError if both occur."""
    kinds = set()

    def walk(e: ModuleExpr) -> None:
        if isinstance(e, Atom):
            kinds.add(e.kind)
        elif isinstance(e, Sum):
            for t in e.terms:
                walk(t)
        elif isinstance(e, Tensor):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, (Scaled, Ext2, Sym2)):
            walk(e.inner)
        else:
            raise TypeError(f"not a module expression: {e!r}")

    walk(expr)
    if len(kinds) > 1:
        raise MixedKindError("expression mixes V (unipotent) and W (nilpotent) atoms")
    if not kinds:
        raise ValueError("expression contains no atoms")
    return kinds.pop()
