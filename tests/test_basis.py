import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from char2squares.basis import (
    JordanChain,
    SparseVec,
    band_index,
    build_sym_basis,
    build_tensor_basis,
    build_w,
    build_z,
    chain_type,
    find_j0,
    format_chain,
    project_to_sym,
    verify_basis,
)
from char2squares.core import parse_jordan_type, square_expr
from char2squares.formulas import sym2_nilpotent, tensor_decompose
from char2squares.gf2 import Gf2Matrix, rank
from char2squares.oracle import basis_keys, expr_images, square_action


def jt(text):
    return parse_jordan_type(text)


def action_images(space, n, *edits):
    """The oracle's images of e on the square of W_n, the form verify_basis reads.

    Each edit (source, target) toggles the entry target <- source: the image
    of monomial source gains target, or loses it.
    """
    images, _ = expr_images(square_expr(space, "nilpotent", n), "nilpotent")
    index = {k: i for i, k in enumerate(basis_keys(space, n))}
    for source, target in edits:
        hits = set(images[index[source]]) ^ {index[target]}
        images[index[source]] = sorted(hits)
    return images


def bits(vec, index):
    """vec as a dense vector: bit index[(i, j)] for each of its monomials v_i v_j."""
    return sum(1 << index[key] for key in vec.terms)


def tensor_terms(*pairs):
    return frozenset(pairs)


class TestBuildZ:
    def test_z1(self):
        assert build_z(1, 4).terms == tensor_terms((1, 1))

    def test_z2(self):
        assert build_z(2, 4).terms == tensor_terms((1, 2), (2, 1))

    def test_z3_in_kernel(self):
        z3 = build_z(3, 5)
        assert z3.terms == tensor_terms((1, 3), (2, 2), (3, 1))
        assert z3.apply_e().is_zero()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            build_z(5, 4)

    @pytest.mark.parametrize("n", [1, 4, 7, 12])
    def test_z_spans_kernel(self, n):
        # Every z_s is killed by the derivation, they are independent, and
        # their count matches the kernel dimension of the dense action.
        act = square_action("nilpotent", "tensor", n)
        index = {k: i for i, k in enumerate(basis_keys("tensor", n))}
        zs = [build_z(s, n) for s in range(1, n + 1)]
        assert all(z.apply_e().is_zero() for z in zs)
        zmat = Gf2Matrix(n, n * n, tuple(bits(z, index) for z in zs))
        assert rank(zmat) == n
        assert act.rows - rank(act) == n


class TestFindJ0:
    @pytest.mark.parametrize(
        "s, n, beta, expected", [(1, 4, 2, 0), (4, 4, 2, 0), (2, 6, 3, 0)]
    )
    def test_examples(self, s, n, beta, expected):
        assert find_j0(s, n, beta) == expected

    def test_scan_agrees_with_direct_check(self):
        for n in range(1, 33):
            from char2squares.core import cones_expansion

            exp = cones_expansion(n)
            for s in range(1, n + 1):
                k = band_index(s, n, exp)
                beta = exp.betas[k - 1]
                if beta == 0:
                    continue
                j0 = find_j0(s, n, beta)
                half, step = 1 << (beta - 1), 1 << beta
                assert s <= s // 2 + half + j0 * step <= n
                assert s <= (s + 1) // 2 + half + j0 * step <= n
                for smaller in range(j0):
                    lo = s // 2 + half + smaller * step
                    hi = (s + 1) // 2 + half + smaller * step
                    assert not (s <= lo <= n and s <= hi <= n)


class TestBuildW:
    def test_w1_n4(self):
        assert build_w(1, 4).terms == tensor_terms((2, 3))

    def test_w4_n4(self):
        assert build_w(4, 4).terms == tensor_terms((4, 4))

    def test_last_band_is_z(self):
        # odd n puts s = n alone in the beta = 0 band, where w_s = z_s
        for n in (3, 5, 7, 9, 11):
            assert build_w(n, n) == build_z(n, n)

    def test_terminal_identity(self):
        # e^(2^beta - 1) w_s = z_s across all bands
        from char2squares.core import cones_expansion

        for n in range(1, 25):
            exp = cones_expansion(n)
            for s in range(1, n + 1):
                beta = exp.betas[band_index(s, n, exp) - 1]
                v = build_w(s, n)
                for _ in range((1 << beta) - 1):
                    v = v.apply_e()
                assert v == build_z(s, n), (n, s)


class TestTensorBasis:
    def test_n1(self):
        chains = build_tensor_basis(1)
        assert len(chains) == 1
        assert chains[0].vectors[0].terms == tensor_terms((1, 1))

    def test_n4_chain_lengths(self):
        assert sorted(c.length for c in build_tensor_basis(4)) == [4, 4, 4, 4]

    def test_n3_chain_lengths(self):
        assert sorted(c.length for c in build_tensor_basis(3)) == [1, 4, 4]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9, 13, 21])
    def test_verified_against_dense_action(self, n):
        chains = build_tensor_basis(n)
        action = action_images("tensor", n)
        terminals = [build_z(c.s, n) for c in chains]
        report = verify_basis(chains, action, terminals)
        assert report.ok, report.failures
        assert chain_type(chains) == tensor_decompose(n, n)

    def test_corrupted_chain_detected(self):
        chains = build_tensor_basis(6)
        bad = chains[0]
        swapped = JordanChain(bad.s, (bad.vectors[1],) + (bad.vectors[0],) + bad.vectors[2:])
        chains[0] = swapped
        report = verify_basis(chains, action_images("tensor", 6))
        assert not report.ok
        assert any("chain 0" in f and "link" in f for f in report.failures)

    @pytest.mark.parametrize(
        "build, space", [(build_tensor_basis, "tensor"), (build_sym_basis, "sym2")]
    )
    def test_repeated_chain_dependent(self, build, space):
        chains = build(7)
        action = action_images(space, 7)
        full = verify_basis(chains, action)
        report = verify_basis(chains + [chains[0]], action)
        assert report.vector_count == full.vector_count + chains[0].length
        assert report.rank == full.rank == full.vector_count
        assert report.failures == [
            f"chain vectors dependent: rank {full.rank} < count {report.vector_count}"
        ]


class TestVerifyFrame:
    """verify_basis reads the action per degree; its verdicts match the dense frame."""

    @pytest.mark.parametrize("target", [(1, 4), (1, 2), (4, 1)])
    def test_grading_checked(self, target):
        # v2*v3 has degree 5; its image must lie in degree 4 only
        n = 5
        chains = build_tensor_basis(n)
        terminals = [build_z(c.s, n) for c in chains]
        action = action_images("tensor", n)
        assert verify_basis(chains, action, terminals).ok
        bad = action_images("tensor", n, ((2, 3), target))
        report = verify_basis(chains, bad, terminals)
        k, l = target
        assert report.failures == [
            f"action breaks the grading in 1 of its entries, first v2*v3 -> v{k}*v{l}"
        ]
        assert (report.vector_count, report.rank) == (25, 25)

    def test_first_ungraded_entry_in_row_order(self):
        # the dense frame met entries row by row: by target, then by source
        n = 5
        bad = action_images("tensor", n, ((2, 3), (1, 4)), ((3, 3), (1, 1)))
        report = verify_basis(build_tensor_basis(n), bad)
        assert report.failures == [
            "action breaks the grading in 2 of its entries, first v3*v3 -> v1*v1"
        ]

    def test_graded_corruption_breaks_a_link(self):
        # an entry that keeps the grading is read like any other
        n = 5
        chains = build_tensor_basis(n)
        action = action_images("tensor", n, ((5, 5), (5, 4)))
        report = verify_basis(chains, action)
        assert report.failures and not any("grading" in f for f in report.failures)

    # failure lists of the dense n^2-bit check, recorded before it was replaced
    DENSE_FAILURES = {
        ("tensor", "swapped"): [
            "chain 0 (s=1): link 5 -> 6 broken",
            "chain 0 (s=1): link 6 -> 7 broken",
            "chain 0 (s=1): terminal vector not killed",
            "chain 0 (s=1): terminal differs from expected vector",
        ],
        ("tensor", "dropped"): ["chain 0 (s=1): link 0 -> 1 broken"],
        ("tensor", "repeated"): ["chain vectors dependent: rank 36 < count 44"],
        ("sym2", "swapped"): [
            "chain 0 (s=1): link 5 -> 6 broken",
            "chain 0 (s=1): link 6 -> 7 broken",
            "chain 0 (s=1): terminal vector not killed",
        ],
        ("sym2", "dropped"): ["chain 0 (s=1): link 0 -> 1 broken"],
        ("sym2", "repeated"): ["chain vectors dependent: rank 28 < count 36"],
    }

    @pytest.mark.parametrize("space, edit", sorted(DENSE_FAILURES))
    def test_failures_match_dense_frame(self, space, edit):
        n = 6 if space == "tensor" else 7
        chains = build_tensor_basis(n) if space == "tensor" else build_sym_basis(n)
        terminals = [build_z(c.s, n) for c in chains] if space == "tensor" else None
        v = chains[0].vectors  # s = 1, a chain of length 8
        assert len(v) == 8
        if edit == "swapped":
            chains[0] = JordanChain(1, v[:-2] + (v[-1], v[-2]))
        elif edit == "dropped":
            chains[0] = JordanChain(1, v[:1] + v[2:])
        else:
            chains.append(chains[0])
            terminals = terminals and terminals + [terminals[0]]
        report = verify_basis(chains, action_images(space, n), terminals)
        assert report.failures == self.DENSE_FAILURES[space, edit]

    def test_images_must_cover_the_space(self):
        chains = build_tensor_basis(4)
        with pytest.raises(ValueError, match="action has 15 images, expected 16"):
            verify_basis(chains, action_images("tensor", 4)[:-1])

    def test_vectors_must_share_the_square(self):
        chains = build_tensor_basis(5) + build_tensor_basis(4)[:1]
        with pytest.raises(ValueError, match="chain 5 .* not in the tensor square for n=5"):
            verify_basis(chains, action_images("tensor", 5))

    def test_zero_vectors_match_dense_frame(self):
        # a zero vector equals the zero image in any degree
        n = 5
        action = action_images("tensor", n)
        chains = build_tensor_basis(n)
        terminals = [build_z(c.s, n) for c in chains]
        c = chains[2]
        chains[2] = JordanChain(c.s, c.vectors + (SparseVec("tensor", n, 2, 0),))
        report = verify_basis(chains, action, terminals)
        assert (report.vector_count, report.rank) == (26, 25)
        assert report.failures == [
            "chain 2 (s=3): vector 4 is zero",
            "chain 2 (s=3): terminal differs from expected vector",
            "chain vectors dependent: rank 25 < count 26",
        ]
        chains[2] = JordanChain(c.s, (SparseVec("tensor", n, 9, 0),) + c.vectors)
        report = verify_basis(chains, action)
        assert report.failures == [
            "chain 2 (s=3): vector 0 is zero",
            "chain 2 (s=3): link 0 -> 1 broken",
            "chain vectors dependent: rank 25 < count 26",
        ]


class TestSymBasis:
    def test_n1(self):
        chains = build_sym_basis(1)
        assert [c.length for c in chains] == [1]
        assert chains[0].vectors[0].terms == tensor_terms((1, 1))

    def test_n2_lengths(self):
        assert sorted(c.length for c in build_sym_basis(2)) == [1, 2]

    def test_n5_lengths(self):
        assert sorted(c.length for c in build_sym_basis(5)) == [1, 1, 1, 4, 8]

    def test_n9_type(self):
        assert chain_type(build_sym_basis(9)) == jt("16 8^3 1^5")

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9, 13, 21])
    def test_verified_against_dense_action(self, n):
        chains = build_sym_basis(n)
        action = action_images("sym2", n)
        report = verify_basis(chains, action)
        assert report.ok, report.failures
        assert chain_type(chains) == sym2_nilpotent(n)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_projection_compatibility(self, n):
        # pushing the tensor basis through the quotient map and dropping
        # zeros gives exactly the symmetric-square basis vectors
        projected = set()
        for chain in build_tensor_basis(n):
            for v in chain.vectors:
                image = project_to_sym(v)
                if not image.is_zero():
                    projected.add(image.terms)
        sym_vectors = {
            v.terms for chain in build_sym_basis(n) for v in chain.vectors
        }
        assert projected == sym_vectors


class TestSparseVec:
    def test_validation(self):
        # bit 0 is v_0, bit 3 in degree 4 is v_3 (x) v_1 (allowed) but bit 4
        # is v_4 (x) v_0; in sym2, bit 3 of degree 4 is the unordered v_3 v_1
        SparseVec("tensor", 3, 4, 0b1010)
        SparseVec("sym2", 3, 4, 0b0110)
        for space, degree, mask in (
            ("tensor", 4, 0b0001),
            ("tensor", 4, 0b10000),
            ("tensor", 2, 0b100),
            ("tensor", 7, 0b0010),
            ("sym2", 4, 0b1000),
            ("sym2", 4, 0b0001),
            ("sym2", 7, 0b1000),
            ("tensor", 4, -2),
        ):
            with pytest.raises(ValueError):
                SparseVec(space, 3, degree, mask)
        with pytest.raises(ValueError):
            SparseVec("other", 3, 4, 0)

    def test_sym_derivation_cancels_square(self):
        v = SparseVec("sym2", 3, 4, 1 << 2)  # v_2 v_2
        assert v.terms == frozenset({(2, 2)})
        assert v.apply_e().is_zero()

    @staticmethod
    def check_apply_e_against_oracle(space, n):
        # e of every monomial equals its image under the oracle's action
        images = action_images(space, n)
        index = {k: i for i, k in enumerate(basis_keys(space, n))}
        for (i, j), pos in index.items():
            monomial = SparseVec(space, n, i + j, 1 << i)
            assert monomial.terms == frozenset({(i, j)})
            assert bits(monomial.apply_e(), index) == sum(1 << t for t in images[pos])

    def test_apply_e_matches_matrix(self):
        self.check_apply_e_against_oracle("sym2", 5)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_apply_e_matches_matrix_tensor(self, n):
        self.check_apply_e_against_oracle("tensor", n)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["tensor", "sym2"]), st.integers(1, 12), st.data())
    def test_apply_e_equals_validated_construction(self, space, n, data):
        # apply_e skips the constructor's check; its result must pass it, and
        # must be the sum of e(v_i v_j) = v_(i-1) v_j + v_i v_(j-1) over the terms
        degree = data.draw(st.integers(2, 2 * n))
        lo, hi = max(1, degree - n), min(n, degree - 1)
        if space == "sym2":
            hi = min(hi, degree // 2)
        mask = sum(1 << i for i in data.draw(st.sets(st.integers(lo, hi))))
        image = SparseVec(space, n, degree, mask).apply_e()
        terms = set()
        for i, j in SparseVec(space, n, degree, mask).terms:
            for a, b in ((i - 1, j), (i, j - 1)):
                if a >= 1 and b >= 1:
                    terms ^= {(min(a, b), max(a, b)) if space == "sym2" else (a, b)}
        expected = sum(1 << a for a, _ in terms)
        assert image == SparseVec(space, n, degree - 1, expected)
        assert image.terms == terms

    def test_format_chain(self):
        chain = build_tensor_basis(2)[1]
        text = format_chain(chain)
        assert "v" in text and "|" in text
