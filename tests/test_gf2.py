import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from char2squares import gf2
from char2squares.core import JordanType
from char2squares.gf2 import (
    Gf2Matrix, _graded_sweep, graded, jordan_type_of_images, jordan_type_of_nilpotent, rank,
)
from gf2_dense import identity, mul


def zero(rows, cols):
    return Gf2Matrix(rows, cols, (0,) * rows)


def shift_matrix(n):
    """Upper-shift nilpotent block, built by hand: row i has its one in column i + 1."""
    return Gf2Matrix(n, n, tuple(1 << (i + 1) if i + 1 < n else 0 for i in range(n)))


def naive_rank(rows_of_lists):
    """Independent oracle: Gaussian elimination on unpacked 0/1 lists."""
    mat = [list(r) for r in rows_of_lists]
    if not mat:
        return 0
    cols = len(mat[0])
    rank_count = 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                mat[r] = [a ^ b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        rank_count += 1
    return rank_count


def random_matrix(rng, rows, cols):
    return Gf2Matrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))


def random_nilpotent(rng, n):
    """Random strictly upper triangular matrix conjugated by a random invertible one.

    The invertible matrix is a product of transvections I + e_ij (i != j),
    each its own inverse over GF(2), so the result is nilpotent and in
    general not triangular.
    """
    data = []
    for i in range(n):
        row = rng.getrandbits(n)
        row &= ~((1 << (i + 1)) - 1) & ((1 << n) - 1)
        data.append(row)
    m = Gf2Matrix(n, n, tuple(data))
    if n < 2:
        return m
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        t = Gf2Matrix(n, n, tuple((1 << r) | ((1 << j) if r == i else 0) for r in range(n)))
        m = mul(mul(t, m), t)
    return m


def type_from_full_powers(m):
    """Reference Jordan type: ranks of full powers, read off as a conjugate partition.

    The number of blocks of size > b is the number of k with
    rank(m^(k-1)) - rank(m^k) > b.
    """
    ranks = [m.rows]
    power = m
    while ranks[-1]:
        ranks.append(rank(power))
        power = mul(m, power)
    drops = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    return JordanType.from_sizes(
        sum(1 for d in drops if d > b) for b in range(drops[0] if drops else 0)
    )


class TestConstruction:
    """Gf2Matrix's validation, and the identity the full-power references start from."""

    def test_identity_empty(self):
        m = identity(0)
        assert m.rows == m.cols == 0

    def test_identity_2(self):
        assert identity(2).data == (0b01, 0b10)

    def test_identity_negative(self):
        with pytest.raises(ValueError):
            identity(-1)

    def test_stray_bits_rejected(self):
        with pytest.raises(ValueError):
            Gf2Matrix(1, 2, (0b100,))


class TestMul:
    """The tests' own product (gf2_dense.mul), which the full-power references rest on."""

    def test_unipotent_order_two(self):
        u = Gf2Matrix(2, 2, (0b11, 0b10))
        assert mul(u, u) == identity(2)

    def test_identity_law(self):
        rng = random.Random(7)
        m = random_matrix(rng, 3, 5)
        assert mul(identity(3), m) == m

    def test_shift_squared(self):
        # J_3(0)^2 has its only 1 in position (1,3), 1-indexed
        sq = mul(shift_matrix(3), shift_matrix(3))
        assert sq.data == (0b100, 0, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mul(identity(2), identity(3))


class TestRank:
    def test_identity(self):
        assert rank(identity(5)) == 5

    def test_zero(self):
        assert rank(zero(4, 4)) == 0

    def test_shift_squared_rank(self):
        sq = mul(shift_matrix(6), shift_matrix(6))
        assert rank(sq) == 4

    @pytest.mark.parametrize("seed", range(5))
    def test_against_naive_oracle(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            rows = rng.randrange(1, 65)
            cols = rng.randrange(1, 65)
            m = random_matrix(rng, rows, cols)
            assert rank(m) == naive_rank([[(row >> j) & 1 for j in range(cols)] for row in m.data])

    @given(st.integers(0, 2**30), st.integers(0, 2**30), st.integers(1, 6))
    def test_rank_of_product_bounded(self, seed_a, seed_b, n):
        rng_a, rng_b = random.Random(seed_a), random.Random(seed_b)
        a = random_matrix(rng_a, n, n)
        b = random_matrix(rng_b, n, n)
        assert rank(mul(a, b)) <= min(rank(a), rank(b))


class TestJordanType:
    def test_zero_matrix(self):
        t = jordan_type_of_nilpotent(zero(6, 6))
        assert t == JordanType.from_pairs([(1, 6)])

    def test_single_block(self):
        assert jordan_type_of_nilpotent(shift_matrix(5)) == JordanType.from_sizes([5])

    def test_empty_matrix(self):
        assert jordan_type_of_nilpotent(zero(0, 0)).parts == ()

    def test_direct_sum_of_blocks(self):
        sizes = [5, 3, 3, 1]
        n = sum(sizes)
        rows = [0] * n
        offset = 0
        for s in sizes:
            for i in range(s - 1):
                rows[offset + i] = 1 << (offset + i + 1)
            offset += s
        t = jordan_type_of_nilpotent(Gf2Matrix(n, n, tuple(rows)))
        assert t.sizes() == sizes

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            jordan_type_of_nilpotent(zero(2, 3))

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ValueError):
            jordan_type_of_nilpotent(identity(3))
        # shift block + identity: the rank falls from 6 to 2, then stalls
        stalls = Gf2Matrix(6, 6, shift_matrix(4).data + (1 << 4, 1 << 5))
        with pytest.raises(ValueError):
            jordan_type_of_nilpotent(stalls)

    @settings(max_examples=30)
    @given(st.integers(0, 2**30), st.integers(1, 10))
    def test_partition_of_dimension(self, seed, n):
        m = random_nilpotent(random.Random(seed), n)
        t = jordan_type_of_nilpotent(m)
        assert t.total_dim == n
        assert t.sizes() == sorted(t.sizes(), reverse=True)
        assert t == type_from_full_powers(m)


def rows_of_blocks(sizes):
    """Rows of the direct sum of upper shift blocks of the given sizes."""
    rows = []
    for s in sizes:
        offset = len(rows)
        rows += [1 << (offset + i + 1) for i in range(s - 1)] + [0]
    return rows


def conjugated(rows, pairs):
    """T m T for each T = I + e_ab in turn, a < b; over GF(2) each T is its own inverse."""
    for a, b in pairs:
        rows = [row ^ rows[b] if i == a else row for i, row in enumerate(rows)]  # row a += row b
        rows = [row ^ (row >> a & 1) << b for row in rows]  # column b += column a
    return rows


def ranks_of_full_powers(m):
    """[rank(m^0), rank(m^1), ...] up to the first 0, from dense products."""
    ranks, power = [m.rows], identity(m.rows)
    while ranks[-1]:
        power = mul(m, power)
        ranks.append(rank(power))
    return ranks


@st.composite
def block_sums(draw):
    """(sizes, rows): shift blocks of up to 48 dimensions in all, in runs of
    equal sizes, conjugated by upper unitriangular transvections."""
    sizes = []
    for size, count in draw(st.lists(st.tuples(st.integers(1, 24), st.integers(1, 16)), max_size=10)):
        sizes += [size] * min(count, (48 - sum(sizes)) // size)
    n = sum(sizes)
    pairs = draw(st.lists(st.tuples(st.integers(0, max(n - 2, 0)), st.integers(1, 47)), max_size=60))
    pairs = [(a, a + 1 + b % (n - a - 1)) for a, b in pairs if a < n - 1]
    return sizes, conjugated(rows_of_blocks(sizes), pairs)


class TestFactorGathers:
    """_gathers reads a factor off its rows: applied with _apply, its gathers
    multiply like the dense product, whatever the rows' sparsity."""

    @staticmethod
    def product_by_gathers(m, p):
        index = [m.rows, *range(m.rows)]
        gathers = gf2._gathers([*m.data, 0], index)
        if not gathers:
            return [0] * m.rows
        rows = gf2._apply(gathers, [*p.data, 0])
        assert rows[-1] == 0  # every gather ends in the zero row
        return rows[:-1]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.sampled_from([0.0, 0.05, 0.5, 1.0]), st.integers(0, 2**30))
    def test_equals_dense_product(self, n, density, seed):
        rng = random.Random(seed)
        rows = [sum(1 << c for c in range(n) if rng.random() < density) for _ in range(n)]
        # all-zero rows, and rows whose only bit is bit 0
        for i in rng.sample(range(n), n // 4):
            rows[i] = rng.choice([0, 1])
        m = Gf2Matrix(n, n, tuple(rows))
        p = random_matrix(rng, n, n)
        assert self.product_by_gathers(m, p) == list(mul(m, p).data)

    def test_one_gather_per_bit_of_the_fullest_row(self):
        rows = [0b1011, 0, 0b1, 0b1000, 0]
        gathers = gf2._gathers(rows, [4, 0, 1, 2, 3])
        assert len(gathers) == 3
        # highest bits first; a row out of bits, and the zero row, take index 4
        p = ["r0", "r1", "r2", "r3", "zero"]
        assert [g(p) for g in gathers] == [
            ("r3", "zero", "r0", "r3", "zero"),
            ("r1", "zero", "zero", "zero", "zero"),
            ("r0", "zero", "zero", "zero", "zero"),
        ]

    def test_zero_factor_has_no_gathers(self):
        assert gf2._gathers([0] * 6, [5, 0, 1, 2, 3, 4]) == []
        assert self.product_by_gathers(zero(5, 5), random_matrix(random.Random(3), 5, 5)) == [0] * 5


def ranks_by_squaring(rows):
    """The rank loop's ranks for the matrix with these rows, over the factors
    that squaring gives, or None if it is not nilpotent."""
    factors = gf2._squared_factors([gf2._support(row) for row in rows])
    return None if factors is None else gf2._ranks(len(rows), factors)


class TestGallop:
    """The rank loop jumps over powers where the drops of rank stay equal: its
    ranks must be the ranks of every power, for n up to 48."""

    @settings(max_examples=80, deadline=None)
    @given(block_sums())
    # a jump that lands 1 above the line: every drop it spans but the last is d
    @example(([1, 4, 6], rows_of_blocks([1, 4, 6])))
    @example(([3, 4, 5], rows_of_blocks([3, 4, 5])))
    @example(([2, 5, 7], rows_of_blocks([2, 5, 7])))
    def test_block_sums(self, case):
        sizes, rows = case
        m = Gf2Matrix(len(rows), len(rows), tuple(rows))
        assert ranks_by_squaring(rows) == ranks_of_full_powers(m)
        assert jordan_type_of_nilpotent(m) == JordanType.from_sizes(sizes)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**30), st.integers(11, 48))
    def test_random_nilpotent(self, seed, n):
        m = random_nilpotent(random.Random(seed), n)
        assert ranks_by_squaring(m.data) == ranks_of_full_powers(m)
        assert jordan_type_of_nilpotent(m) == type_from_full_powers(m)

    @pytest.mark.parametrize("block, ones", [(40, 1), (40, 8), (31, 2), (47, 1), (17, 31)])
    def test_stall_after_a_long_line(self, block, ones):
        # the ranks fall by 1 for block - 1 powers, then stay at ones
        rows = rows_of_blocks([block]) + [1 << (block + i) for i in range(ones)]
        pairs = [(i, i + 3) for i in range(0, block + ones - 3, 5)]
        m = Gf2Matrix(block + ones, block + ones, tuple(conjugated(rows, pairs)))
        with pytest.raises(ValueError, match="not nilpotent"):
            jordan_type_of_nilpotent(m)

    def test_nilpotency_test_ends_the_squaring(self, monkeypatch):
        # a square m^(2^j) that is nonzero with 2^j >= n ends the squaring at once
        calls, real = [], gf2._gathers

        def counted(*args):
            calls.append(len(args[0]))
            assert len(calls) <= 6, "the squaring went on past m^64"
            return real(*args)

        monkeypatch.setattr(gf2, "_gathers", counted)
        m = Gf2Matrix(42, 42, tuple(rows_of_blocks([40]) + [1 << 40, 1 << 41]))
        with pytest.raises(ValueError, match="not nilpotent"):
            jordan_type_of_nilpotent(m)
        assert calls == [43] * 6  # m^2, ..., m^64

    def test_one_by_one(self):
        assert gf2._ranks(1, gf2._squared_factors([[]])) == [1, 0]
        assert gf2._squared_factors([[0]]) is None
        assert jordan_type_of_nilpotent(zero(1, 1)) == JordanType.from_sizes([1])
        with pytest.raises(ValueError, match="not nilpotent"):
            jordan_type_of_nilpotent(identity(1))


def form_of(images):
    """The shift form of the map sending bit s to the bits images[s]."""
    form = {}
    for s, targets in enumerate(images):
        for t in targets:
            form[t - s] = form.get(t - s, 0) ^ (1 << s)
    return form


def map_bit_by_bit(images, mask):
    """The XOR of the images of the set bits of mask."""
    image = 0
    for s, targets in enumerate(images):
        if mask >> s & 1:
            for t in targets:
                image ^= 1 << t
    return image


@st.composite
def bit_maps(draw):
    """(images, mask): a random map from a space of up to 40 bits into one of
    up to 40 bits, images[s] the targets of bit s, and a mask of the source;
    0 and all ones are drawn often."""
    sources, targets = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    hit = st.sets(st.integers(0, max(targets - 1, 0)), max_size=targets)
    images = draw(st.lists(hit, min_size=sources, max_size=sources))
    mask = draw(st.one_of(st.just(0), st.just((1 << sources) - 1), st.integers(0, (1 << sources) - 1)))
    return images, mask


class TestShiftForm:
    """_apply_form maps a list of masks by the diagonals of a map, each as the
    bit-by-bit XOR of the images of its bits would."""

    @settings(max_examples=300)
    @given(bit_maps())
    def test_equals_bit_by_bit(self, case):
        images, mask = case
        masks = [mask, 0, mask, (1 << len(images)) - 1]
        assert gf2._apply_form(form_of(images), masks) == [map_bit_by_bit(images, m) for m in masks]

    def test_empty_map(self):
        assert gf2._apply_form({}, [0, 0b1011]) == [0, 0]
        assert gf2._apply_form({}, []) == gf2._apply_form({0: 1, -1: 2}, []) == []

    @pytest.mark.parametrize("mask", [0, 1 << 5, 0b111111111])
    def test_one_source_many_targets(self, mask):
        # bit 5 hits bits 0..12: the shifts -5..7, one source on each diagonal
        images = [[]] * 5 + [list(range(13))] + [[]] * 3
        form = form_of(images)
        assert sorted(form) == list(range(-5, 8)) and set(form.values()) == {1 << 5}
        assert gf2._apply_form(form, [mask]) == [0x1FFF if mask >> 5 & 1 else 0]

    @pytest.mark.parametrize("shift", [-3, -1, 0, 1, 4])
    def test_one_diagonal(self, shift):
        # every bit i in 3..9 goes to i + shift; all ones moves the whole run
        form = form_of([[i + shift] if 3 <= i <= 9 else [] for i in range(12)])
        assert list(form) == [shift]
        run = 0b1111111 << 3
        moved = run << shift if shift >= 0 else run >> -shift
        assert gf2._apply_form(form, [(1 << 12) - 1, run, 0]) == [moved, moved, 0]


@st.composite
def degree_lowering(draw, graded):
    """(m, degrees): a basis of random degrees, gaps allowed, in random order,
    and entries (i, j) only where degrees[j] - degrees[i] is 1 (graded) or
    at least 1 (filtered), each present with a drawn probability."""
    degrees = draw(st.lists(st.integers(-2, 6), max_size=14))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**30)))
    n = len(degrees)
    rows = []
    for i in range(n):
        row = 0
        for j in range(n):
            drop = degrees[j] - degrees[i]
            if (drop == 1 if graded else drop >= 1) and rng.random() < density:
                row |= 1 << j
        rows.append(row)
    return Gf2Matrix(n, n, tuple(rows)), degrees


def images_of(m):
    """The images of m's basis vectors: images[c] lists the rows of column c's ones."""
    return [[i for i in range(m.rows) if m.data[i] >> c & 1] for c in range(m.cols)]


class TestGraded:
    """graded reads images with their degrees into the record the graded
    sweep and verify_basis read: positions count within each degree, and
    each degree's form maps a mask as the bit-by-bit XOR of the images."""

    @settings(max_examples=200, deadline=None)
    @given(degree_lowering(graded=True), st.data())
    def test_forms_map_as_the_entries(self, case, data):
        m, degrees = case
        images = images_of(m)
        counts, forms = graded(images, degrees)
        members = {}
        for c, d in enumerate(degrees):
            members.setdefault(d, []).append(c)
        assert counts == {d: len(indices) for d, indices in members.items()}
        assert set(forms) == set(members)
        for d, sources in members.items():
            # position p of degree d goes to the positions of its targets in d - 1
            below = {c: p for p, c in enumerate(members.get(d - 1, ()))}
            exact = [[below[i] for i in images[c]] for c in sources]
            mask = data.draw(st.integers(0, (1 << len(exact)) - 1))
            assert gf2._apply_form(forms[d], [mask]) == [map_bit_by_bit(exact, mask)]

    def test_positions_count_within_each_degree(self):
        # v1 -> v0 and v3 -> v2 from degree 1 into 0; v4 -> v1 + v3 from 2 into 1
        images = [[], [0], [], [2], [1, 3]]
        assert gf2.graded(images, [0, 1, 0, 1, 2]) == gf2.Graded(
            {0: 2, 1: 2, 2: 1}, {0: {}, 1: {0: 0b11}, 2: {0: 1, 1: 1}})

    def test_one_degree_per_basis_vector(self):
        with pytest.raises(ValueError, match="2 degrees for a matrix of size 3"):
            gf2.graded([[], [0], [1]], [0, 1])

    @pytest.mark.parametrize("images, entry, source, target", [
        ([[], [], [0]], (0, 2), 2, 0),  # v2 -> v0 lowers the degree by 2
        ([[2], [], []], (2, 0), 0, 2),  # v0 -> v2 raises it
        ([[], [1], []], (1, 1), 1, 1),  # v1 -> v1 keeps it
    ], ids=["lowers-by-two", "raises", "keeps"])
    def test_each_way_off_the_grading_is_refused(self, images, entry, source, target):
        # the entries the graded sweep cannot read, one at a time, in degrees 0, 1, 2
        with pytest.raises(ValueError, match=rf"^entry \({entry[0]}, {entry[1]}\) does not lower "
                                             rf"the degree by exactly 1: it maps degree {source} "
                                             rf"to degree {target}$"):
            gf2.graded(images, [0, 1, 2])

    def test_images_are_not_changed(self):
        # the rank loop empties a list it is given; the public kernel copies first
        images = [[], [0], [1]]
        assert jordan_type_of_images(images) == JordanType.from_sizes([3])
        assert images == [[], [0], [1]]


class TestDegrees:
    """The graded sweep over what graded reads must give the type of the rank
    loop and of the full powers, and graded must name the first entry,
    column by column, that does not lower the degree by exactly 1."""

    @settings(max_examples=200, deadline=None)
    @given(degree_lowering(graded=True))
    def test_graded_sweep_equals_rank_loop(self, case):
        m, degrees = case
        got = _graded_sweep(*graded(images_of(m), degrees))
        assert got == jordan_type_of_nilpotent(m)
        assert got == type_from_full_powers(m)

    @settings(max_examples=200, deadline=None)
    @given(degree_lowering(graded=False))
    def test_filtered_input_reads_the_type_of_the_full_powers(self, case):
        # graded refuses entries that lower by more than 1; the rank loop,
        # which takes no degrees, reads such an input as any other
        m, degrees = case
        got = jordan_type_of_images(images_of(m))
        assert got == jordan_type_of_nilpotent(m)
        assert got == type_from_full_powers(m)

    @settings(max_examples=100, deadline=None)
    @given(degree_lowering(graded=False), st.data())
    def test_entry_that_does_not_lower_is_named(self, case, data):
        # on top of entries that may lower by more than 1, one that does not lower
        m, degrees = case
        pairs = [(i, j) for i in range(m.rows) for j in range(m.rows) if degrees[j] <= degrees[i]]
        if not pairs:  # only when m is 0x0
            return
        i, j = data.draw(st.sampled_from(pairs))
        rows = list(m.data)
        rows[i] |= 1 << j
        images = images_of(Gf2Matrix(m.rows, m.cols, tuple(rows)))
        t, c = next((t, c) for c, hits in enumerate(images) for t in hits
                    if degrees[t] != degrees[c] - 1)
        with pytest.raises(ValueError, match=rf"^entry \({t}, {c}\) does not lower the degree by "
                                             rf"exactly 1: it maps degree {degrees[c]} to degree "
                                             rf"{degrees[t]}$"):
            graded(images, degrees)

    def test_first_entry_that_does_not_lower_is_named(self):
        # column by column, and within a column in the order listed
        images = [[], [0, 2, 1], [2]]
        with pytest.raises(ValueError, match=r"entry \(2, 1\) does not lower the degree by exactly 1: "
                                             r"it maps degree 1 to degree 2"):
            graded(images, [0, 1, 2])

    def test_empty(self):
        assert _graded_sweep(*graded([], [])).parts == ()

    def test_zero_matrix(self):
        t = _graded_sweep(*graded(images_of(zero(4, 4)), [3, 1, 3, 0]))
        assert t == JordanType.from_pairs([(1, 4)]) == type_from_full_powers(zero(4, 4))

    def test_degree_gap_ends_blocks(self):
        # v0 -> v1 -> v2 in degrees 3, 2, 1 and v3 -> v4 in degrees 6, 5:
        # nothing lives in degree 4, so every bar alive in degree 3 ends there
        rows = [0] * 5
        for source, target in [(0, 1), (1, 2), (3, 4)]:
            rows[target] |= 1 << source
        m = Gf2Matrix(5, 5, tuple(rows))
        got = _graded_sweep(*graded(images_of(m), [3, 2, 1, 6, 5]))
        assert got == JordanType.from_sizes([3, 2]) == jordan_type_of_nilpotent(m)

    def test_shift_block_graded_and_filtered(self):
        m = shift_matrix(6)  # e v_(i+1) = v_i
        assert _graded_sweep(*graded(images_of(m), list(range(6)))) == JordanType.from_sizes([6])
        # filtered degrees are refused at the first entry that lowers by 2;
        # the rank loop, which takes no degrees, reads the type
        with pytest.raises(ValueError, match=r"entry \(1, 2\) does not lower the degree by exactly 1: "
                                             r"it maps degree 3 to degree 1"):
            graded(images_of(m), [0, 1, 3, 4, 6, 10])
        assert jordan_type_of_nilpotent(m) == JordanType.from_sizes([6])

    def test_images_entry_that_does_not_lower_is_named(self):
        # column lists: v2 -> v1 -> v0 in degrees 2, 1, 0, and v0 -> v2 raises
        images = [[2], [0], [1]]
        with pytest.raises(ValueError, match=r"entry \(2, 0\) does not lower the degree by exactly 1: "
                                             r"it maps degree 0 to degree 2"):
            graded(images, [0, 1, 2])
        images[0] = []
        assert _graded_sweep(*graded(images, [0, 1, 2])) == JordanType.from_sizes([3])

    def test_diagonal_entry_is_named(self):
        with pytest.raises(ValueError, match=r"entry \(0, 0\)"):
            graded(images_of(identity(1)), [0])

    def test_degree_count_must_match(self):
        with pytest.raises(ValueError, match="2 degrees for a matrix of size 3"):
            graded(images_of(shift_matrix(3)), [0, 1])


@pytest.mark.parametrize("rows, cols, data, message", [
    (-1, 2, (), "negative dimensions"),
    (2, 2, (1,), "row count mismatch"),
    (1, 2, (4,), "row has bits outside the column range"),
])
def test_matrix_refusals(rows, cols, data, message):
    with pytest.raises(ValueError) as info:
        Gf2Matrix(rows, cols, data)
    assert str(info.value) == message
