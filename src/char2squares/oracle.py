"""Brute-force ground truth: explicit GF(2) actions on squares.

Builds the nilpotent part N (u - 1 for a unipotent u acting diagonally, e
for a nilpotent e acting as a derivation) on tensor products, exterior
squares and symmetric squares, once, from the expression tree.  v_i of an
atom has degree i and a pair the sum of its factors', and two builders
follow the tree.  expr_forms builds e on a W expression as a Graded, per
degree the count of basis vectors and the map into the degree below,
from the factors' maps by the product rule, over runs of degrees with
one count and one map.  The factor builder (_builder) builds, for any h,
the operator with each atom's N replaced by N^h, as columns of gathers
made by C-level passes over tables each node builds once.  With h = 2^j
on a V expression that is (u - 1)^(2^j), by functoriality and Frobenius,
so _unipotent_factors hands gf2's rank loop every factor it applies,
with no squaring; expr_images reads N of either kind off h = 1, as the
images of the basis vectors, with the degree of each.  The exact linear
algebra kernel extracts Jordan types: e lowers every degree by exactly
1, so its type comes from a graded sweep over expr_forms, and u - 1
lowers it by at least 1, so its type comes from ranks of powers, with
the basis listed by degree so that each image pivots on its
highest-degree target, eliminated only where the drop in rank can
change.  The kind and the dimension are read off the expression before
anything is built, and one check of that dimension against the cap
bounds every space built on the way.  The cap policy lives here alone:
every entry point reads the cap from the environment (dim_cap), so
commands and library calls obey the same one.
expr_action, square_action and tensor_action are dense views of the
images, as bit-packed matrices, and _dense adds u's identity back; no
command builds them.
"""

from __future__ import annotations

import os
from itertools import repeat
from operator import getitem, itemgetter
from typing import Callable

from .core import (
    PRINTABLE_LIMIT, Atom, Ext2, JordanType, Kind, LimitExceeded, ModuleExpr, Scaled, Sum, Tensor,
    expr_kind, shown_count, square_expr,
)
from .gf2 import (  # noqa: F401
    Form, Gf2Matrix, Graded, _graded_sweep, _ranks, _type_of_ranks, jordan_type_of_nilpotent,
)
from .parser import IntegerTooLong, to_int

Functor = str  # one of core.FUNCTORS
Images = list[list[int]]  # images[c]: positions hit by basis vector c
Degrees = list[int]  # degrees[c]: the degree of basis vector c

DEFAULT_DIM_CAP = 20_000
CAP_ENV_VAR = "CHAR2SQUARES_ORACLE_CAP"


class OracleCapExceeded(LimitExceeded):
    """The requested functor space is larger than the configured cap."""

    def __init__(self, dim: int, cap: int):
        super().__init__(f"oracle space has dimension {shown_count(dim)}, above the cap {cap}")
        self.dim = dim
        self.cap = cap


def dim_cap() -> int:
    """Active oracle dimension cap: CHAR2SQUARES_ORACLE_CAP, or 20000 if it is unset or empty.

    Read by expr_images on every call.  A value that is not an integer of
    at most 4300 digits, or is negative, raises ValueError with the message
    the CLI prints.
    """
    value = os.environ.get(CAP_ENV_VAR)
    if not value:
        return DEFAULT_DIM_CAP
    try:
        cap = to_int(value)
    except IntegerTooLong as exc:
        raise ValueError(f"{CAP_ENV_VAR}: {exc}") from None
    except ValueError:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, not {value!r}") from None
    if cap < 0:
        raise ValueError(f"{CAP_ENV_VAR} must not be negative, not {value!r}")
    return cap


def basis_keys(functor: Functor, n: int, m: int | None = None) -> list[tuple[int, int]]:
    """Canonical ordered basis, as 1-based index pairs in lex order.

    tensor: all (i, j); ext2: i < j; sym2: i <= j.  For mixed tensors the
    first index runs over 1..m and the second over 1..n.
    """
    if functor == "tensor":
        rows = m if m is not None else n
        return [(i, j) for i in range(1, rows + 1) for j in range(1, n + 1)]
    if functor == "ext2":
        return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if functor == "sym2":
        return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    raise ValueError(f"unknown functor {functor!r}")


# --- the factor builder --------------------------------------------------
#
# Here a map is held in gather form, as columns: lists of dim + 1 positions,
# where column[c] is one target of basis vector c, or dim for none, and
# column[dim] = dim.  Basis vector c goes to the sum over GF(2) of its
# targets in all the columns, so a target listed twice cancels, and
# itemgetter(*column) is one gather of gf2's rank loop.  A node's builder
# maps h to the columns of its operator's nilpotent part with each atom's N
# replaced by N^h; for u, and h = 2^j, that is (u - 1)^(2^j), since
# (u - 1)^(2^j) = u^(2^j) - 1 in characteristic 2, F(u)^(2^j) = F(u^(2^j))
# for each functor F, and u^(2^j) = 1 + N^(2^j) on an atom.  Its tables are
# built once, where the node is, and each call of a builder makes its
# columns with C-level itemgetter and map passes over them.  The basis of
# a product space is ordered as basis_keys lists it, and that of the top
# node of the rank loop by degree, ascending and stable in that order.


Columns = list[list[int]]
_Node = tuple[Degrees, Callable[[int], Columns]]  # degrees, and h -> columns


def _nothing(h: int) -> Columns:
    return []


def _listing(degrees: Degrees, ascending: bool) -> tuple[list[int], list[int] | None]:
    """Where each basis vector is listed, and the vectors in listed order:
    by degree, ascending and stable, or, with order None, as built."""
    if not ascending:
        return list(range(len(degrees))), None
    order = sorted(range(len(degrees)), key=degrees.__getitem__)
    position = [0] * len(order)
    for p, c in enumerate(order):
        position[c] = p
    return position, order


def _block_builder(n: int) -> _Node:
    """V_n or W_n: N^h maps v_(c+1) to v_(c+1-h), in upper-shift convention."""
    def build(h: int) -> Columns:
        return [[n] * h + list(range(n - h)) + [n]] if h < n else []
    return list(range(1, n + 1)), build


def _sum_builder(parts: list[tuple[_Node, int]], ascending: bool) -> _Node:
    """The direct sum of copies of parts, (node, copies): in the order built,
    each copy's basis after the copies before it."""
    degrees = [d for (part, _), copies in parts for d in part * copies]
    dim = len(degrees)
    if not dim:
        return [], _nothing
    position, order = _listing(degrees, ascending)
    rows = None if order is None else itemgetter(*order, dim)
    tables = []  # per part, per copy: where its vectors, and its none, are listed
    offset = 0
    for (part, _), copies in parts:
        size = len(part)
        tables.append([position[offset + k * size:offset + (k + 1) * size] + [dim]
                       for k in range(copies)])
        offset += size * copies
    if order is not None:
        degrees = [degrees[c] for c in order]

    def build(h: int) -> Columns:
        built = [part_build(h) for (_, part_build), _ in parts]
        columns = []
        for t in range(max(map(len, built))):
            column: list[int] = []
            for part_columns, copies in zip(built, tables):
                for table in copies:
                    if t < len(part_columns):
                        column += map(table.__getitem__, part_columns[t])
                        column.pop()  # the part's none
                    else:
                        column += repeat(dim, len(table) - 1)
            column.append(dim)
            columns.append(column if rows is None else list(rows(column)))
        return columns

    return degrees, build


def _pair_builder(left: _Node, right: _Node, unipotent: bool, functor: Functor,
                  ascending: bool) -> _Node:
    """The pairs v_i (x) v_j of left and right, reduced to the functor's
    quotient: ext2 and sym2 take right = left and identify (k, l) with
    (l, k), and ext2 leaves out (k, k).  A pair's degree is the sum of its
    factors'.

    With X and Y the factors' columns for h, e acts as X (x) 1 + 1 (x) Y,
    and u - 1 as that plus X (x) Y: (1 + X) (x) (1 + Y) - 1.  Each term is a
    column per column of X, of Y, or pair of them, read off the table at[x][y]
    of where the pair of x and y is listed.  On a pair (i, i) of sym2 the two
    terms of e cancel, so both leave it out; in a column that keeps no
    target at all, every pair went to the none of the quotient, and it is
    dropped.
    """
    (a_degrees, build_a), (b_degrees, build_b) = left, right
    a, b = len(a_degrees), len(b_degrees)
    pairs = [(i - 1, j - 1) for i, j in basis_keys(functor, b, a)]
    if not pairs:
        return [], _nothing
    degrees = [a_degrees[i] + b_degrees[j] for i, j in pairs]
    dim = len(pairs)
    position, order = _listing(degrees, ascending)
    square = functor != "tensor"
    at = [[dim] * (b + 1) for _ in range(a + 1)]  # at[a] and at[x][b] are nones
    for (i, j), p in zip(pairs, position):
        at[i][j] = p
        if square:
            at[j][i] = p
    if order is not None:
        pairs = [pairs[c] for c in order]
        degrees = [degrees[c] for c in order]
    first = itemgetter(*[i for i, _ in pairs], a)
    second = itemgetter(*[j for _, j in pairs], b)
    diagonal = functor == "sym2"
    with_second = [b if diagonal and i == j else j for i, j in pairs] + [b]  # for X (x) 1
    with_first = [at[a] if diagonal and i == j else at[i] for i, j in pairs] + [at[a]]  # 1 (x) Y

    def build(h: int) -> Columns:
        xs = build_a(h)
        ys = xs if square else build_b(h)
        lefts = [first(list(map(at.__getitem__, x))) for x in xs]  # at[x] of each pair's x
        rights = [second(y) for y in ys]  # each pair's y
        columns = [list(map(getitem, row, with_second)) for row in lefts]
        columns += [list(map(getitem, with_first, y)) for y in rights]
        if unipotent:
            columns += [list(map(getitem, row, y)) for row in lefts for y in rights]
        return [column for column in columns if column.count(dim) <= dim]

    return degrees, build


def _builder(expr: ModuleExpr, unipotent: bool, ascending: bool = False) -> _Node:
    """The builder of expr's operator: u - 1 if unipotent, else e.  With
    ascending, its basis is listed by degree, and its factors' bases in the
    order built."""
    if isinstance(expr, Atom):
        return _block_builder(expr.dim)  # already listed by degree
    if isinstance(expr, Scaled):
        inner = _builder(expr.inner, unipotent)
        if not inner[0]:  # any number of copies of a zero space is that space
            return inner
        return _sum_builder([(inner, expr.count)], ascending)
    if isinstance(expr, Sum):
        return _sum_builder([(_builder(t, unipotent), 1) for t in expr.terms], ascending)
    if isinstance(expr, Tensor):
        if not _dim(expr.left, 3) * _dim(expr.right, 3):
            return [], _nothing
        left, right = _builder(expr.left, unipotent), _builder(expr.right, unipotent)
        return _pair_builder(left, right, unipotent, "tensor", ascending)
    # Ext2 or Sym2: _checked has checked every node with expr_kind
    inner = _builder(expr.inner, unipotent)
    functor = "ext2" if isinstance(expr, Ext2) else "sym2"
    return _pair_builder(inner, inner, unipotent, functor, ascending)


def _dim(expr: ModuleExpr, limit: int) -> int:
    """min(dim expr, limit) off the tree, building nothing; exact for limit >= 3.

    Each node saturates what it returns at limit, and the saturation is
    exact: a space of dimension at least limit >= 3 has an E2, an S2, sums
    with others and tensors with nonzero spaces of at least limit dimensions.
    """
    if isinstance(expr, Atom):
        d = expr.dim
    elif isinstance(expr, Scaled):
        d = expr.count * _dim(expr.inner, limit)
    elif isinstance(expr, Sum):
        d = sum(_dim(t, limit) for t in expr.terms)
    elif isinstance(expr, Tensor):
        d = _dim(expr.left, limit) * _dim(expr.right, limit)
    else:  # Ext2 or Sym2: expr_kind has checked every node of a tree from outside
        d = _dim(expr.inner, limit)
        d = d * (d - 1 if isinstance(expr, Ext2) else d + 1) // 2
    return min(d, limit)


def _checked(expr: ModuleExpr) -> bool:
    """Whether expr is unipotent, once its dimension is checked against the cap.

    The cap is read first (dim_cap), so a malformed one is reported before a
    mixed kind; then the kind is read off the atoms (MixedKindError if they
    mix), and the dimension checked against the cap (OracleCapExceeded).
    That bounds every space built on the way: only E2 of a space of
    dimension 2 or less is smaller than its input, and a tensor with a zero
    factor builds neither factor.
    """
    cap = dim_cap()
    unipotent = expr_kind(expr) == "unipotent"
    dim = _dim(expr, PRINTABLE_LIMIT)
    if dim > cap:
        raise OracleCapExceeded(dim, cap)
    return unipotent


def expr_images(expr: ModuleExpr) -> tuple[Images, Degrees]:
    """Images of the basis vectors under the nilpotent part N of the
    operator on a module expression, and the degree of each basis vector.

    N is e on W expressions and u - 1 on V expressions; only the dense views
    (_dense) add u's identity.  v_i of an atom has degree i, and a pair of
    T, E2 or S2 has the sum of its two factors' degrees: e lowers every
    degree by exactly 1 and u - 1 lowers it by at least 1.  N is read off
    the builder's columns for h = 1.  Nothing is built before the checks of
    _checked.
    """
    degrees, build = _builder(expr, _checked(expr))
    columns = build(1)
    zero = len(degrees)  # where a column sends a vector it maps to 0
    # with no columns, N is 0; a column also maps the index zero itself
    images = [[p for p in row if p != zero] for row in zip(*columns)] or [[] for _ in degrees]
    del images[zero:]
    for c, listed in enumerate(images):
        listed.sort()
        if len(set(listed)) < len(listed):  # keep the targets listed an odd number of times
            hits: list[int] = []
            for p in listed:
                if hits and hits[-1] == p:
                    hits.pop()
                else:
                    hits.append(p)
            images[c] = hits
    return images, degrees


def _unipotent_factors(expr: ModuleExpr) -> tuple[int, list[list[itemgetter]]]:
    """The dimension of a V expression, and the gathers of (u - 1)^(2^j), j = 0, 1, ...,
    up to the last nonzero one, for gf2._ranks, with the basis listed by degree."""
    degrees, build = _builder(expr, True, ascending=True)
    factors = []
    while columns := build(1 << len(factors)):
        factors.append([itemgetter(*column) for column in columns])
    return len(degrees), factors


# --- the graded builder --------------------------------------------------
#
# On a W expression e lowers every degree by exactly 1, so all the sweep and
# verify_basis read of it is a Graded: per degree, the number of basis
# vectors and e's map into the degree below, in shift form over positions
# within the degree.  Each node builds its Graded from its factors'.  A sum
# lists the vectors of each degree term by term, in expr_images' order.  A
# product lists the pairs of degree D by the degree a of their left factor,
# lowest first: a block of the pairs x (x) y, x of degree a and y of degree
# D - a, by x's position, then y's, and in E2 and S2, where a <= D - a, the
# block of a = D - a last, as the pairs x_p x_q with p < q or p <= q in lex
# order.  That is expr_images' order when each factor has one vector per
# degree, listed by degree, as a single block does; otherwise the order
# within a degree differs by a permutation, which keeps the Jordan type.
#
# e acts on a pair by the product rule e (x) 1 + 1 (x) e.  On a block, e (x) 1
# is the left factor's map widened over the right factor's positions, and
# 1 (x) e the right factor's map repeated once per left position.  The rule
# works over runs, the maximal ranges of consecutive degrees with one count
# and one form: along a run of each factor, the blocks of one degree D are
# consecutive, of one shape, and map to consecutive blocks of one shape, so
# each run pair gives one range mask per diagonal and degree.  Only a block
# whose factor sits at the lowest degree of its run maps into another run,
# and gets masks of its own.  In E2 and S2, 1 (x) e takes a block with
# deg y = deg x + 1 onto pairs of two vectors of one degree, which fold into
# the last block; it and the last block itself map pair by pair.


_Run = tuple[int, int, int, Form]  # (lowest degree, highest degree, count, form)


def _runs(counts: dict[int, int], forms: dict[int, Form]) -> list[_Run]:
    """The maximal ranges of consecutive degrees with equal count and form, lowest first.

    A degree with no degree below it maps to 0 whatever form it is given,
    so it joins the range above it on its count alone and takes that
    range's form: W_n is one range.  _grounded tells such a range apart.
    """
    runs: list[_Run] = []
    for d in sorted(counts):
        c, form = counts[d], forms[d]
        if runs and runs[-1][1] == d - 1 and runs[-1][2] == c:
            lo, _, _, run_form = runs[-1]
            if run_form == form or lo == d - 1 and lo - 1 not in counts:
                runs[-1] = (lo, d, c, form)
                continue
        runs.append((d, d, c, form))
    return runs


def _grounded(runs: list[_Run], i: int) -> bool:
    """Whether the lowest degree of runs[i] has a degree below it, and so maps by the form."""
    return i > 0 and runs[i - 1][1] == runs[i][0] - 1


def _repunit(k: int, width: int) -> int:
    """Bit 0 of each of k consecutive fields of width bits."""
    return ((1 << k * width) - 1) // ((1 << width) - 1)


def _spread(sources: int, width: int) -> int:
    """sources with each bit p widened to the field of bits p*width .. p*width + width - 1."""
    spread, field, ones = 0, 0, (1 << width) - 1
    while sources:
        if sources & 1:
            spread |= ones << field
        sources >>= 1
        field += width
    return spread


def _targets(form: Form, count: int) -> list[list[int]]:
    """targets[p]: where source p goes under a map in shift form over count sources."""
    targets: list[list[int]] = [[] for _ in range(count)]
    for shift, sources in form.items():
        for p in range(count):
            if sources >> p & 1:
                targets[p].append(p + shift)
    return targets


def _sum_forms(parts: list[Graded]) -> Graded:
    """The direct sum: in each degree, each part's positions after the parts before it."""
    counts: dict[int, int] = {}
    forms: dict[int, Form] = {}
    for part_counts, part_forms in parts:
        for d, form in part_forms.items():
            low, below = counts.get(d, 0), counts.get(d - 1, 0)
            out = forms.setdefault(d, {})
            for shift, sources in form.items():
                key = shift + below - low
                out[key] = out.get(key, 0) ^ sources << low
        for d, c in part_counts.items():
            counts[d] = counts.get(d, 0) + c
    return Graded(counts, forms)


def _pair_forms(left: Graded, right: Graded, functor: Functor) -> Graded:
    """e on the pairs of left and right, T(left, right), or on E2 or S2 of left = right."""
    square, sym2 = functor != "tensor", functor == "sym2"
    ra = _runs(*left)
    rb = ra if square else _runs(*right)
    # segments[D]: (a0, a1, ia, ib), the blocks (a, D - a), a0 <= a <= a1, of runs ia and ib
    segments: dict[int, list[tuple[int, int, int, int]]] = {}
    for ia, (la, ha, _, _) in enumerate(ra):
        for ib in range(ia if square else 0, len(rb)):
            lb, hb = rb[ib][:2]
            for d in range(la + lb, ha + hb + 1):
                a0 = d - hb if d - hb > la else la
                a1 = d - lb if d - lb < ha else ha
                if square and 2 * a1 >= d:  # a < D - a; the block a = D - a comes last
                    a1 = (d - 1) // 2
                if a0 <= a1:
                    segments.setdefault(d, []).append((a0, a1, ia, ib))
    diagonal: dict[int, int] = {}  # D -> the run of a = D / 2, where that block has pairs
    for i, (lo, hi, c, _) in enumerate(ra if square else ()):
        if sym2 or c > 1:
            diagonal.update(dict.fromkeys(range(2 * lo, 2 * hi + 2, 2), i))
    # the frame: where each segment starts in its degree, and the diagonal block
    counts: dict[int, int] = {}
    start: dict[tuple[int, int, int], tuple[int, int]] = {}  # (D, ia, ib) -> (a0, offset)
    for d in sorted(segments.keys() | diagonal.keys()):
        offset = 0
        for a0, a1, ia, ib in sorted(segments.get(d, ())):
            start[d, ia, ib] = (a0, offset)
            offset += (a1 - a0 + 1) * ra[ia][2] * rb[ib][2]
        if d in diagonal:
            start[d, -1, -1] = (d // 2, offset)
            c = ra[diagonal[d]][2]
            offset += c * (c + 1) // 2 if sym2 else c * (c - 1) // 2
        counts[d] = offset
    forms: dict[int, Form] = {d: {} for d in counts}

    def pair_index(p: int, q: int, c: int) -> int:
        """Position of x_p x_q, p <= q, within the diagonal block of c vectors."""
        return p * c - p * (p - 1) // 2 + q - p if sym2 else p * c - p * (p + 1) // 2 + q - p - 1

    widened: dict[tuple[int, int], list[tuple[int, int]]] = {}  # (ia, ib) -> e (x) 1 on a block
    folded: dict[int, list[list[int]]] = {}  # ib -> targets of its form, for the fold
    for d, found in segments.items():
        form = forms[d]
        for a0, a1, ia, ib in found:
            la, _, ca, fa = ra[ia]
            lb, _, cb, fb = rb[ib]
            block = ca * cb
            offset = start[d, ia, ib][1]
            if fa:  # e (x) 1: block (a, b) -> (a - 1, b), fa widened over b's positions
                if (ia, ib) not in widened:
                    widened[ia, ib] = [(shift * cb, _spread(sources, cb))
                                       for shift, sources in fa.items()]
                first = max(a0, la + 1)  # a - 1 in run ia: consecutive blocks of one shape
                if first <= a1:
                    t0, target = start[d - 1, ia, ib]
                    src, dst = offset + (first - a0) * block, target + (first - 1 - t0) * block
                    fill = _repunit(a1 - first + 1, block) << src
                    for shift, sources in widened[ia, ib]:
                        key = shift + dst - src
                        form[key] = form.get(key, 0) ^ sources * fill
                if a0 == la and _grounded(ra, ia):  # a - 1 in the run below, whose count may differ
                    t0, target = start[d - 1, ia - 1, ib]
                    dst = target + (la - 1 - t0) * ra[ia - 1][2] * cb
                    for shift, sources in widened[ia, ib]:
                        key = shift + dst - offset
                        form[key] = form.get(key, 0) ^ sources << offset
            if not fb:
                continue
            # 1 (x) e: block (a, b) -> (a, b - 1), fb repeated over a's positions
            last = a1 - 1 if square and 2 * a1 + 1 == d else a1  # block a1 folds if b - 1 = a1
            end = min(last, d - lb - 1)  # b - 1 in run ib
            if a0 <= end:
                t0, target = start[d - 1, ia, ib]
                dst = target + (a0 - t0) * block
                fill = _repunit((end - a0 + 1) * ca, cb) << offset
                for shift, sources in fb.items():
                    key = shift + dst - offset
                    form[key] = form.get(key, 0) ^ sources * fill
            a = d - lb  # b - 1 in the run below, whose count may differ
            if a0 <= a <= last and _grounded(rb, ib):
                below = rb[ib - 1][2]
                t0, target = start[d - 1, ia, ib - 1]
                src, dst = offset + (a - a0) * block, target + (a - t0) * ca * below
                for p in range(ca):
                    for shift, sources in fb.items():
                        key = shift + dst - src + p * (below - cb)
                        form[key] = form.get(key, 0) ^ sources << src + p * cb
            if last < a1:  # x_p e(y_q), y of degree a1 + 1, into the block a = D - 1 - a
                src = offset + (a1 - a0) * block
                dst = start.get((d - 1, -1, -1), (0, 0))[1]  # E2 of one vector has no such block
                if ib not in folded:
                    folded[ib] = _targets(fb, cb)
                targets = folded[ib]
                for p in range(ca):
                    for q, ts in enumerate(targets):
                        bit = src + p * cb + q
                        for t in ts:
                            if p != t or sym2:
                                key = dst + pair_index(min(p, t), max(p, t), ca) - bit
                                form[key] = form.get(key, 0) ^ 1 << bit
    for d, i in diagonal.items():
        lo, _, c, f = ra[i]
        if c < 2 or not f or d // 2 == lo and not _grounded(ra, i):
            continue  # no pairs x_p x_q with p < q, or no degree below
        # e(x_p x_q) = e(x_p) x_q + x_p e(x_q), in the block (a - 1, a) of degree D - 1;
        # in S2 it is 0 for p = q, so only p < q maps anywhere
        form, src = forms[d], start[d, -1, -1][1]
        below = i if d // 2 > lo else i - 1
        t0, target = start[d - 1, below, i]
        base = target + (d // 2 - 1 - t0) * ra[below][2] * c
        targets = _targets(f, c)
        for p in range(c):
            for q in range(p + 1, c):
                bit = src + pair_index(p, q, c)
                for x, y in ((p, q), (q, p)):
                    for t in targets[x]:
                        key = base + t * c + y - bit
                        form[key] = form.get(key, 0) ^ 1 << bit
    return Graded(counts, forms)


def expr_forms(expr: ModuleExpr) -> Graded:
    """e on a W expression as a Graded: per degree, the count of basis
    vectors and the map into the degree below, built node by node from the
    factors' (see the comment above), never from images.  gf2.graded reads
    the same record off expr_images, up to an order within each degree.

    The checks of expr_images come first, so OracleCapExceeded and
    MixedKindError are raised before anything is built; a V expression
    raises ValueError, as u - 1 need not lower degrees by exactly 1.
    """
    if _checked(expr):
        raise ValueError("expr_forms builds e on a W (nilpotent) expression")
    return _forms(expr)


def _block_forms(n: int) -> Graded:
    """e on W_n: v_d, of degree d, goes to v_(d-1), bit 0 of each degree to bit 0 of the one below."""
    forms: dict[int, Form] = {d: {0: 1} for d in range(2, n + 1)}
    forms[1] = {}
    return Graded(dict.fromkeys(range(1, n + 1), 1), forms)


def _forms(expr: ModuleExpr) -> Graded:
    if isinstance(expr, Atom):
        return _block_forms(expr.dim)
    if isinstance(expr, Scaled):
        inner = _forms(expr.inner)
        if not inner.counts:  # any number of copies of a zero space is that space
            return inner
        return _sum_forms([inner] * expr.count)
    if isinstance(expr, Sum):
        return _sum_forms([_forms(t) for t in expr.terms])
    if isinstance(expr, Tensor):
        if not _dim(expr.left, 3) * _dim(expr.right, 3):
            return Graded({}, {})
        return _pair_forms(_forms(expr.left), _forms(expr.right), "tensor")
    inner = _forms(expr.inner)
    return _pair_forms(inner, inner, "ext2" if isinstance(expr, Ext2) else "sym2")


# --- dense views ---------------------------------------------------------
# Kept in the package only because bench/tracing.py wraps them by name:
# expr_action, square_action and tensor_action here, jordan_type_of_nilpotent
# imported into this namespace, and basis.gf2_rank, which is why
# verify_basis hands its masks over as a Gf2Matrix, one per degree: the
# chains' last vectors when every chain passes its packed check, and all
# the vectors only when one does not or the last vectors are dependent.
# No command calls the first four; the tests read them as the dense
# reference, and jordan_type_of_nilpotent, which takes no degrees, always
# runs the rank loop, so it never checks the graded sweep against itself.


def _dense(images: Images, unipotent: bool) -> Gf2Matrix:
    """The matrix of the operator whose nilpotent part N has column c's ones
    in the rows images[c]: N itself for e, and u = 1 + N."""
    rows = [0] * len(images)
    for c, hits in enumerate(images):
        bit = 1 << c
        for i in hits:
            rows[i] ^= bit
        if unipotent:
            rows[c] ^= bit
    return Gf2Matrix(len(images), len(images), tuple(rows))


# --- concrete oracle entry points ----------------------------------------


def square_action(kind: Kind, functor: Functor, n: int) -> Gf2Matrix:
    """Matrix of u or e on the chosen square of the size-n block."""
    return expr_action(square_expr(functor, kind, n))


def tensor_action(kind: Kind, m: int, n: int) -> Gf2Matrix:
    """Matrix of u or e on the mixed tensor product of blocks of sizes m, n."""
    return expr_action(square_expr("tensor", kind, n, m))


def expr_action(expr: ModuleExpr) -> Gf2Matrix:
    """Matrix of the operator on an arbitrary module expression."""
    images, _ = expr_images(expr)
    return _dense(images, expr_kind(expr) == "unipotent")


def oracle_jordan_type(kind: Kind, functor: Functor, n: int, m: int | None = None) -> JordanType:
    """Ground-truth Jordan type via explicit matrices and the GF(2) kernel."""
    return oracle_expr_jordan_type(square_expr(functor, kind, n, m))


def oracle_expr_jordan_type(expr: ModuleExpr) -> JordanType:
    """Ground-truth Jordan type of the operator on a module expression.

    e comes from the graded sweep over expr_forms, u - 1 from the rank loop
    over the factors (u - 1)^(2^j) that _unipotent_factors builds.
    """
    if _checked(expr):
        return _type_of_ranks(_ranks(*_unipotent_factors(expr)))
    return _graded_sweep(*_forms(expr))
