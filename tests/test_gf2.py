import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from char2squares import gf2
from char2squares.core import JordanType
from char2squares.gf2 import Gf2Matrix, jordan_type_of_images, jordan_type_of_nilpotent, rank
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


class TestDegrees:
    """With degrees, the graded sweep and the degree-ordered rank loop must
    give the type the plain rank loop gives."""

    @settings(max_examples=200, deadline=None)
    @given(degree_lowering(graded=True))
    def test_graded_sweep_equals_rank_loop(self, case):
        m, degrees = case
        expected = jordan_type_of_nilpotent(m)
        # the sweep must not fall back on ranks of powers
        with mock.patch.object(gf2, "_nilpotent_ranks", side_effect=AssertionError):
            assert jordan_type_of_nilpotent(m, degrees) == expected

    @settings(max_examples=200, deadline=None)
    @given(degree_lowering(graded=False))
    def test_filtered_equals_rank_loop(self, case):
        m, degrees = case
        got = jordan_type_of_nilpotent(m, degrees)
        assert got == jordan_type_of_nilpotent(m)
        assert got == type_from_full_powers(m)

    @settings(max_examples=100, deadline=None)
    @given(degree_lowering(graded=False), st.data())
    def test_entry_that_does_not_lower_is_named(self, case, data):
        m, degrees = case
        pairs = [(i, j) for i in range(m.rows) for j in range(m.rows) if degrees[j] <= degrees[i]]
        if not pairs:  # only when m is 0x0
            return
        i, j = data.draw(st.sampled_from(pairs))
        rows = list(m.data)
        rows[i] |= 1 << j
        bad = Gf2Matrix(m.rows, m.cols, tuple(rows))
        with pytest.raises(ValueError, match=rf"entry \({i}, {j}\) does not lower the degree"):
            jordan_type_of_nilpotent(bad, degrees)

    def test_empty(self):
        assert jordan_type_of_nilpotent(zero(0, 0), []).parts == ()

    def test_zero_matrix(self):
        t = jordan_type_of_nilpotent(zero(4, 4), [3, 1, 3, 0])
        assert t == JordanType.from_pairs([(1, 4)])

    def test_degree_gap_ends_blocks(self):
        # v0 -> v1 -> v2 in degrees 3, 2, 1 and v3 -> v4 in degrees 6, 5:
        # nothing lives in degree 4, so every bar alive in degree 3 ends there
        rows = [0] * 5
        for source, target in [(0, 1), (1, 2), (3, 4)]:
            rows[target] |= 1 << source
        m = Gf2Matrix(5, 5, tuple(rows))
        assert jordan_type_of_nilpotent(m, [3, 2, 1, 6, 5]) == JordanType.from_sizes([3, 2])
        assert jordan_type_of_nilpotent(m, [9, 6, 1, 5, 4]).sizes() == [3, 2]  # filtered

    def test_shift_block_graded_and_filtered(self):
        m = shift_matrix(6)  # e v_(i+1) = v_i
        assert jordan_type_of_nilpotent(m, list(range(6))) == JordanType.from_sizes([6])
        assert jordan_type_of_nilpotent(m, [0, 1, 3, 4, 6, 10]) == JordanType.from_sizes([6])

    def test_images_entry_that_does_not_lower_is_named(self):
        # column lists: v2 -> v1 -> v0 in degrees 2, 1, 0, and v0 -> v2 raises
        images = [[2], [0], [1]]
        with pytest.raises(ValueError, match=r"entry \(2, 0\) does not lower the degree: "
                                             r"it maps degree 0 to degree 2"):
            jordan_type_of_images(images, [0, 1, 2])
        images[0] = []
        assert jordan_type_of_images(images, [0, 1, 2]) == JordanType.from_sizes([3])

    def test_diagonal_entry_is_named(self):
        with pytest.raises(ValueError, match=r"entry \(0, 0\)"):
            jordan_type_of_nilpotent(identity(1), [0])

    def test_degree_count_must_match(self):
        with pytest.raises(ValueError):
            jordan_type_of_nilpotent(shift_matrix(3), [0, 1])
