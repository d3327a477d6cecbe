import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basis_loop
from char2squares.basis import (
    JordanChain,
    SparseVec,
    VerificationReport,
    _rank,
    _slot_width,
    _unchecked,
    _valid_mask,
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
from char2squares.gf2 import Gf2Matrix, Graded, _support, graded, rank
from char2squares.oracle import basis_keys, expr_images, square_action


def jt(text):
    return parse_jordan_type(text)


def action_images(space, n, *edits):
    """The oracle's images of e on the square of W_n, in basis_keys order.

    Each edit (source, target) toggles the entry target <- source: the image
    of monomial source gains target, or loses it.
    """
    images, _ = expr_images(square_expr(space, "nilpotent", n))
    index = {k: i for i, k in enumerate(basis_keys(space, n))}
    for source, target in edits:
        hits = set(images[index[source]]) ^ {index[target]}
        images[index[source]] = sorted(hits)
    return images


def graded_images(images, space, n):
    """Images of e on the square of W_n in basis_keys order, as the gf2.Graded
    verify_basis reads: v_i v_j has degree i + j."""
    return graded(images, [i + j for i, j in basis_keys(space, n)])


def graded_action(space, n, *edits):
    """action_images(space, n, *edits) as verify_basis reads it."""
    return graded_images(action_images(space, n, *edits), space, n)


def bits(vec, index):
    """vec as a dense vector: bit index[(i, j)] for each of its monomials v_i v_j."""
    return sum(1 << index[key] for key in vec.terms)


def tensor_terms(*pairs):
    return frozenset(pairs)


def dense_report(chains, images, terminals=None):
    """The report of the dense frame, for a graded action: each vector as a
    mask over the whole square in basis_keys order, mapped as the XOR of the
    images of its monomials, and one rank over all the vectors."""
    space, n = chains[0].top.space, chains[0].top.n
    index = {k: i for i, k in enumerate(basis_keys(space, n))}
    image = [sum(1 << t for t in hits) for hits in images]
    failures, dense = [], []
    for ci, chain in enumerate(chains):
        where = f"chain {ci} (s={chain.s})"
        vectors = [bits(v, index) for v in chain.vectors]
        for pos, x in enumerate(vectors):
            dense.append(x)
            if not x:
                failures.append(f"{where}: vector {pos} is zero")
            y = 0
            for p in range(len(index)):
                if x >> p & 1:
                    y ^= image[p]
            if pos + 1 < len(vectors):
                if vectors[pos + 1] != y:
                    failures.append(f"{where}: link {pos} -> {pos + 1} broken")
            elif y:
                failures.append(f"{where}: terminal vector not killed")
        if terminals is not None and bits(terminals[ci], index) != vectors[-1]:
            failures.append(f"{where}: terminal differs from expected vector")
    r = rank(Gf2Matrix(len(dense), len(index), tuple(dense)))
    if r != len(dense):
        failures.append(f"chain vectors dependent: rank {r} < count {len(dense)}")
    return VerificationReport(len(dense), r, failures)


def corrupt(chains, terminals, edit):
    """chains with chain 0 (s = 1) corrupted, and the terminals to match.

    "swapped" and "dropped" break the fall of its degrees, so JordanChain
    refuses them.
    """
    chains = list(chains)
    v = chains[0].vectors
    if edit == "swapped":
        chains[0] = JordanChain(1, v[:-2] + (v[-1], v[-2]))
    elif edit == "dropped":
        chains[0] = JordanChain(1, v[:1] + v[2:])
    elif edit == "cut":  # the last vector dropped
        chains[0] = JordanChain(1, v[:-1])
    elif edit == "zeroed":  # vector 3 made zero in its degree
        chains[0] = JordanChain(1, v[:3] + (SparseVec(v[3].space, v[3].n, v[3].degree, 0),) + v[4:])
    elif edit == "repeated":
        chains.append(chains[0])
        terminals = terminals and terminals + [terminals[0]]
    return chains, terminals


def rotation(space, n):
    """The permutation of basis_keys that moves each monomial one place up
    within its degree, the last one of the degree back to the first."""
    by_degree = {}
    for key in basis_keys(space, n):
        by_degree.setdefault(sum(key), []).append(key)
    return {key: keys[(k + 1) % len(keys)] for keys in by_degree.values() for k, key in enumerate(keys)}


def rotated_images(space, n, rot):
    """action_images(space, n) conjugated by the permutation rot of basis_keys."""
    keys = basis_keys(space, n)
    index = {k: i for i, k in enumerate(keys)}
    rotated = [[]] * len(keys)
    for c, hits in enumerate(action_images(space, n)):
        rotated[index[rot[keys[c]]]] = sorted(index[rot[keys[t]]] for t in hits)
    return rotated


def rotated_vec(v, rot):
    return SparseVec(v.space, v.n, v.degree, sum(1 << rot[key][0] for key in v.terms))


def diagonals(images, space, n):
    """The shifts k - i of the entries v_i v_j -> v_k v_l of an action."""
    keys = basis_keys(space, n)
    return {keys[t][0] - keys[c][0] for c, hits in enumerate(images) for t in hits}


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
                k = band_index(s, n)
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
                beta = exp.betas[band_index(s, n) - 1]
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
        action = graded_action("tensor", n)
        terminals = [build_z(c.s, n) for c in chains]
        report = verify_basis(chains, action, terminals)
        assert report.ok, report.failures
        assert chain_type(chains) == tensor_decompose(n, n)

    def test_corrupted_chain_detected(self):
        # the top of chain 0 gains one monomial of its degree
        chains = build_tensor_basis(6)
        bad = chains[0]
        spare = _valid_mask("tensor", 6, bad.top.degree) & ~bad.top.mask
        top = SparseVec("tensor", 6, bad.top.degree, bad.top.mask ^ spare & -spare)
        chains[0] = JordanChain(bad.s, (top,) + bad.vectors[1:])
        report = verify_basis(chains, graded_action("tensor", 6))
        assert not report.ok
        assert any("chain 0" in f and "link" in f for f in report.failures)

    @pytest.mark.parametrize("n", [*range(1, 41), 64, 96, 128])
    def test_chain_loop_equals_checked_path(self, n):
        # the chain builder lowers masks in a loop of its own and skips the
        # constructor's check: each vector must pass that check, and each
        # link must be what apply_e gives
        for chains in (build_tensor_basis(n), build_sym_basis(n)):
            for chain in chains:
                vectors = chain.vectors
                assert JordanChain(chain.s, vectors) == chain
                for t, v in enumerate(vectors):
                    assert type(v) is SparseVec and SparseVec(*v) == v
                    if t + 1 < len(vectors):
                        assert vectors[t + 1] == v.apply_e()

    @pytest.mark.parametrize(
        "build, space", [(build_tensor_basis, "tensor"), (build_sym_basis, "sym2")]
    )
    def test_repeated_chain_dependent(self, build, space):
        chains = build(7)
        action = graded_action(space, 7)
        full = verify_basis(chains, action)
        report = verify_basis(chains + [chains[0]], action)
        assert report.vector_count == full.vector_count + chains[0].length
        assert report.rank == full.rank == full.vector_count
        assert report.failures == [
            f"chain vectors dependent: rank {full.rank} < count {report.vector_count}"
        ]


def tau(v):
    """The transpose of a tensor vector: v_i (x) v_j to v_j (x) v_i, bit i to bit degree - i."""
    return SparseVec("tensor", v.n, v.degree, sum(1 << v.degree - i for i in _support(v.mask)))


def tensor_monomials(n):
    """Every monomial v_i (x) v_j of the tensor square of W_n, a basis of it."""
    return [SparseVec("tensor", n, i + j, 1 << i) for i in range(1, n + 1) for j in range(1, n + 1)]


class TestPackedChains:
    """The builders make each chain as one packed int, by doubling e^(2^j) from
    its top and, in sym2, folding the chains of w_s and of its transpose."""

    @pytest.mark.parametrize("n", [*range(1, 65), 96, 128])
    def test_builders_equal_the_loop(self, n):
        for build, loop in ((build_tensor_basis, basis_loop.tensor_chains),
                            (build_sym_basis, basis_loop.sym_chains)):
            got = [(c.s, c.degree, c.length, c.masks) for c in build(n)]
            assert got == [(s, degree, len(masks), masks) for s, degree, masks in loop(n)]

    # The identities below are linear in the vector, so checking them on
    # every monomial checks them on every vector of the square.

    @pytest.mark.parametrize("n", range(1, 13))
    def test_e_to_a_power_of_two_shifts_and_xors(self, n):
        # C(h, k) is even for 0 < k < h = 2^j: e^h(v_i v_j) = v_(i-h) v_j + v_i v_(j-h)
        for v in tensor_monomials(n):
            power = v
            for h in range(1, v.degree - 1):
                power = power.apply_e()
                if not h & (h - 1):
                    mask = ((v.mask >> h) ^ v.mask) & _valid_mask("tensor", n, v.degree - h)
                    assert power == SparseVec("tensor", n, v.degree - h, mask), (v, h)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_projection_is_the_transpose_fold(self, n):
        # pi(x) is x ^ tau(x) below the centre of the degree, and x at it: x on
        # the bits i <= d / 2 of degree d, tau(x) on the bits i < d / 2, those
        # of i <= (d - 1) / 2
        for v in tensor_monomials(n):
            d = v.degree
            fold = v.mask & (2 << d // 2) - 1 ^ tau(v).mask & (2 << (d - 1) // 2) - 1
            assert project_to_sym(v) == SparseVec("sym2", n, d, fold), v

    @pytest.mark.parametrize("n", range(1, 13))
    def test_transpose_commutes_with_e(self, n):
        for v in tensor_monomials(n):
            assert tau(v.apply_e()) == tau(v).apply_e(), v


def test_rank_sums_the_ranks_of_the_degrees():
    # one elimination, each degree's masks in a slot of their own: equal
    # masks are independent in two degrees and dependent in one
    n = 9
    assert _rank([(3, 0b110), (5, 0b110)], n) == 2
    assert _rank([(3, 0b110), (3, 0b110), (4, 0b10)], n) == 2
    assert _rank([(17, 1 << 8), (2, 0b10), (17, 1 << 8), (2, 0b10)], n) == 2


class TestVerifyFrame:
    """verify_basis reads the action per degree; its verdicts match the dense frame."""

    @pytest.mark.parametrize("target", [(1, 4), (1, 2), (4, 1)])
    def test_grading_checked(self, target):
        # v2*v3 has degree 5; its image must lie in degree 4 only, or graded
        # refuses the images before verify_basis can read them
        n = 5
        chains = build_tensor_basis(n)
        terminals = [build_z(c.s, n) for c in chains]
        assert verify_basis(chains, graded_action("tensor", n), terminals).ok
        index = {k: i for i, k in enumerate(basis_keys("tensor", n))}
        with pytest.raises(ValueError, match=rf"^entry \({index[target]}, {index[2, 3]}\) does not "
                                             rf"lower the degree by exactly 1: it maps degree 5 "
                                             rf"to degree {sum(target)}$"):
            graded_action("tensor", n, ((2, 3), target))

    def test_first_ungraded_entry_column_by_column(self):
        # graded meets the entries column by column, by source and then by
        # target: v2*v3 comes before v3*v3 in basis_keys order
        n = 5
        index = {k: i for i, k in enumerate(basis_keys("tensor", n))}
        with pytest.raises(ValueError, match=rf"^entry \({index[1, 4]}, {index[2, 3]}\) does not "
                                             r"lower the degree by exactly 1: it maps degree 5 "
                                             r"to degree 5$"):
            graded_action("tensor", n, ((2, 3), (1, 4)), ((3, 3), (1, 1)))

    def test_graded_corruption_breaks_a_link(self):
        # an entry that keeps the grading is read like any other
        n = 5
        chains = build_tensor_basis(n)
        action = graded_action("tensor", n, ((5, 5), (5, 4)))
        report = verify_basis(chains, action)
        assert report.failures and not any("grading" in f for f in report.failures)

    @pytest.mark.parametrize("space", ["tensor", "sym2"])
    def test_image_outside_the_chains_slots_is_named(self, space):
        # v_n v_n, alone in degree 2n, is the top of its chain; an action
        # that also sends it one slot up lands outside every slot its chain
        # is read in.  That chain is named as failed, and only that chain
        n = 6
        chains = build_tensor_basis(n) if space == "tensor" else build_sym_basis(n)
        counts, forms = graded_action(space, n)
        up = 8 * _slot_width(n)
        action = Graded(counts, {**forms, 2 * n: {**forms[2 * n], up: 1}})
        a = next(a for a, c in enumerate(chains) if c.degree == 2 * n)
        count = sum(counts.values())
        assert verify_basis(chains, action) == VerificationReport(
            count, count, [f"chain {a} (s={chains[a].s}): image outside its slots"])

    # failure lists of the dense n^2-bit check, recorded before it was
    # replaced ("repeated"), or of the vector-by-vector walk that the packed
    # check replaced ("cut", "zeroed"); both agreed with dense_report
    DENSE_FAILURES = {
        ("tensor", "cut"): [
            "chain 0 (s=1): terminal vector not killed",
            "chain 0 (s=1): terminal differs from expected vector",
        ],
        ("tensor", "zeroed"): [
            "chain 0 (s=1): link 2 -> 3 broken",
            "chain 0 (s=1): vector 3 is zero",
            "chain 0 (s=1): link 3 -> 4 broken",
            "chain vectors dependent: rank 35 < count 36",
        ],
        ("tensor", "repeated"): ["chain vectors dependent: rank 36 < count 44"],
        ("sym2", "cut"): ["chain 0 (s=1): terminal vector not killed"],
        ("sym2", "zeroed"): [
            "chain 0 (s=1): link 2 -> 3 broken",
            "chain 0 (s=1): vector 3 is zero",
            "chain 0 (s=1): link 3 -> 4 broken",
            "chain vectors dependent: rank 27 < count 28",
        ],
        ("sym2", "repeated"): ["chain vectors dependent: rank 28 < count 36"],
    }

    @staticmethod
    def basis_of(space):
        n = 6 if space == "tensor" else 7
        chains = build_tensor_basis(n) if space == "tensor" else build_sym_basis(n)
        terminals = [build_z(c.s, n) for c in chains] if space == "tensor" else None
        assert chains[0].length == 8  # s = 1
        return n, chains, terminals

    @pytest.mark.parametrize("space, edit", sorted(DENSE_FAILURES))
    def test_failures_match_dense_frame(self, space, edit):
        n, chains, terminals = self.basis_of(space)
        chains, terminals = corrupt(chains, terminals, edit)
        action = action_images(space, n)
        report = verify_basis(chains, graded_images(action, space, n), terminals)
        assert report.failures == self.DENSE_FAILURES[space, edit]
        assert dense_report(chains, action, terminals) == report

    # graded entries whose targets sit above their sources in the masks:
    # v_i v_j -> v_k v_l with k > i, diagonals the derivation does not have
    RAISED = {
        "tensor": (((2, 5), (4, 2)), ((1, 4), (3, 1)), ((3, 6), (6, 2))),
        "sym2": (((2, 5), (3, 3)), ((1, 6), (3, 3)), ((2, 6), (3, 4))),
    }

    @pytest.mark.parametrize("edit", [None, "cut", "zeroed", "repeated"])
    @pytest.mark.parametrize("action", ["rotated", "raised"])
    @pytest.mark.parametrize("space", ["tensor", "sym2"])
    def test_failures_match_dense_frame_on_other_diagonals(self, space, action, edit):
        # the derivation has the diagonals -1 and 0 in every degree; these
        # graded actions have others, and the verdicts must not depend on that
        n, chains, terminals = self.basis_of(space)
        if action == "rotated":
            # conjugate by rotating every degree piece: the rotated chains
            # are a Jordan basis of the rotated action
            rot = rotation(space, n)
            images = rotated_images(space, n, rot)
            chains = [JordanChain(c.s, tuple(rotated_vec(v, rot) for v in c.vectors)) for c in chains]
            terminals = terminals and [rotated_vec(v, rot) for v in terminals]
        else:
            images = action_images(space, n, *self.RAISED[space])
        assert diagonals(images, space, n) - {-1, 0}
        chains, terminals = corrupt(chains, terminals, edit)
        report = verify_basis(chains, graded_images(images, space, n), terminals)
        expected = dense_report(chains, images, terminals)
        assert report == expected
        if edit is None:  # the rotated chains verify; the raised entries break links
            assert bool(expected.failures) == (action == "raised")

    @pytest.mark.parametrize("space", ["tensor", "sym2"])
    def test_broken_link_keeps_the_full_rank(self, space):
        # a vector of another chain in place of a top breaks one link and
        # makes the vectors dependent, while the last vectors stay
        # independent: independence follows from the last vectors only when
        # every link holds, so the rank must still run over all the vectors
        n, chains, terminals = self.basis_of(space)
        # the first top of a chain with a link, and a vector of its degree in another chain
        a, b, q = next((a, b, q) for a, c in enumerate(chains) if c.length > 1
                       for b, d in enumerate(chains) if b != a
                       for q, v in enumerate(d.vectors) if v.degree == c.top.degree)
        chains[a] = JordanChain(chains[a].s, (chains[b].vectors[q],) + chains[a].vectors[1:])
        ends = [c.vectors[-1] for c in chains]
        assert verify_basis([JordanChain(c.s, (v,)) for c, v in zip(chains, ends)],
                            graded_action(space, n)).rank == len(chains)
        report = verify_basis(chains, graded_action(space, n), terminals)
        count = n * n if space == "tensor" else n * (n + 1) // 2
        assert report == VerificationReport(count, count - 1, [
            f"chain {a} (s={chains[a].s}): link 0 -> 1 broken",
            f"chain vectors dependent: rank {count - 1} < count {count}",
        ])
        assert dense_report(chains, action_images(space, n), terminals) == report

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["tensor", "sym2"]), st.integers(1, 9),
           st.sampled_from(["flip", "drop", "swap", "repeat", "borrow", "regrade", "toggle"]),
           st.data())
    def test_one_edit_matches_dense_frame(self, space, n, edit, data):
        # one random edit of a valid basis or of its action: the report,
        # failures in order, count and rank, is the dense frame's
        build = build_tensor_basis if space == "tensor" else build_sym_basis
        chains = build(n)
        terminals = None
        if space == "tensor" and data.draw(st.booleans()):
            terminals = [build_z(c.s, n) for c in chains]
        edits = []
        draw = lambda items: data.draw(st.sampled_from(items))
        c, p = draw([(c, p) for c, chain in enumerate(chains) for p in range(chain.length)])
        vectors = list(chains[c].vectors)
        rebuilt = {c: vectors}  # the vectors of each chain edited
        if edit == "flip":  # one valid bit of one vector
            v = vectors[p]
            valid = _valid_mask(space, n, v.degree)
            bit = draw([i for i in range(valid.bit_length()) if valid >> i & 1])
            vectors[p] = SparseVec(space, n, v.degree, v.mask ^ 1 << bit)
        elif edit == "drop" and len(vectors) > 1:
            del vectors[p]
        elif edit == "swap":  # two vectors anywhere in the basis
            d, q = draw([(d, q) for d, chain in enumerate(chains) for q in range(chain.length)])
            other = rebuilt.setdefault(d, list(chains[d].vectors))
            vectors[p], other[q] = other[q], vectors[p]
        elif edit == "repeat":
            chains.append(chains[c])
            terminals = terminals and terminals + [terminals[c]]
        elif edit == "borrow":  # another chain's vector of the same degree
            same = [w for d, chain in enumerate(chains) if d != c
                    for w in chain.vectors if w.degree == vectors[p].degree]
            if same:
                vectors[p] = draw(same)
        elif edit == "regrade":  # the same mask one degree up or down, where it is valid
            v = vectors[p]
            degree = v.degree + draw([-1, 1])
            if not v.mask & ~_valid_mask(space, n, degree):
                vectors[p] = SparseVec(space, n, degree, v.mask)
        elif edit == "toggle":  # one entry from degree d into degree d - 1
            keys = basis_keys(space, n)
            graded = [(k, l) for k in keys for l in keys if sum(l) == sum(k) - 1]
            if graded:
                edits.append(draw(graded))
        for e, edited in rebuilt.items():
            top = edited[0].degree
            if [v.degree for v in edited] != list(range(top, top - len(edited), -1)):
                # a chain whose degrees do not fall by one cannot be written
                assert edit in ("drop", "swap", "regrade")
                with pytest.raises(ValueError, match=rf"chain for s={chains[e].s}: vector \d+ has degree"):
                    JordanChain(chains[e].s, tuple(edited))
                return
            chains[e] = JordanChain(chains[e].s, tuple(edited))
        images = action_images(space, n, *edits)
        report = verify_basis(chains, graded_images(images, space, n), terminals)
        assert report == dense_report(chains, images, terminals)

    def test_images_must_cover_the_space(self):
        chains = build_tensor_basis(4)
        images, degrees = expr_images(square_expr("tensor", "nilpotent", 4))
        with pytest.raises(ValueError, match="action has 15 images, expected 16"):
            verify_basis(chains, graded(images[:-1], degrees[:-1]))

    def test_each_degree_must_hold_its_square(self):
        # 16 images, but v1*v1 moved from degree 2 into degree 3
        chains = build_tensor_basis(4)
        counts, forms = graded_action("tensor", 4)
        counts = {**counts, 2: counts[2] - 1, 3: counts[3] + 1}
        with pytest.raises(ValueError, match="action has 0 images of degree 2, expected 1"):
            verify_basis(chains, Graded(counts, forms))

    def test_vectors_must_share_the_square(self):
        chains = build_tensor_basis(5) + build_tensor_basis(4)[:1]
        with pytest.raises(ValueError, match="chain 5 .* not in the tensor square for n=5"):
            verify_basis(chains, graded_action("tensor", 5))

    def test_zero_vectors_match_dense_frame(self):
        # a zero vector equals the zero image in any degree
        n = 5
        action = graded_action("tensor", n)
        chains = build_tensor_basis(n)
        terminals = [build_z(c.s, n) for c in chains]
        c = chains[2]
        chains[2] = JordanChain(c.s, c.vectors + (SparseVec("tensor", n, c.vectors[-1].degree - 1, 0),))
        report = verify_basis(chains, action, terminals)
        assert (report.vector_count, report.rank) == (26, 25)
        assert report.failures == [
            "chain 2 (s=3): vector 4 is zero",
            "chain 2 (s=3): terminal differs from expected vector",
            "chain vectors dependent: rank 25 < count 26",
        ]
        chains[2] = JordanChain(c.s, (SparseVec("tensor", n, c.top.degree + 1, 0),) + c.vectors)
        report = verify_basis(chains, action)
        assert report.failures == [
            "chain 2 (s=3): vector 0 is zero",
            "chain 2 (s=3): link 0 -> 1 broken",
            "chain vectors dependent: rank 25 < count 26",
        ]


class TestBoundary:
    """Malformed chains and terminal lists raise ValueError, not IndexError,
    and extra terminals are not silently ignored."""

    def test_chain_needs_a_vector(self):
        with pytest.raises(ValueError, match="chain for s=3 has no vectors"):
            JordanChain(3, ())

    @staticmethod
    def build(case):
        """Make the chain for s = 1 of the tensor square of W_4 with this broken shape."""
        n = 4
        chains = build_tensor_basis(n)
        v = chains[0].vectors  # degrees 5, 4, 3, 2
        shapes = {
            "two squares": v[:1] + (SparseVec("sym2", n, 4, 0),),
            "two sizes": v[:1] + (SparseVec("tensor", n + 1, 4, v[1].mask),),
            "skipped degree": v[:-2] + v[-1:],
            # vector 1, v1*v3 + v2*v2, moved up to degree 5 keeps its mask
            # (v1*v4 + v2*v3), so the masks alone still chain
            "regraded": (v[0], SparseVec("tensor", n, 5, v[1].mask)) + v[2:],
            "below 0": tuple(SparseVec("tensor", n, d, 0) for d in (1, 0, -1)),
        }
        if case in shapes:
            return JordanChain(1, shapes[case])
        return corrupt(chains, None, case)  # "swapped" or "dropped"

    @pytest.mark.parametrize("case, message", [
        ("two squares", "vector 1 is not in the tensor square for n=4"),
        ("two sizes", "vector 1 is not in the tensor square for n=4"),
        ("skipped degree", "vector 2 has degree 2, not 3"),
        ("regraded", "vector 1 has degree 5, not 4"),
        ("below 0", "vector 2 has degree -1, below 0"),
        ("swapped", "vector 2 has degree 2, not 3"),
        ("dropped", "vector 1 has degree 3, not 4"),
    ])
    def test_chain_refuses_a_broken_shape(self, case, message):
        # the shape is checked where the chain is made, so verify_basis never
        # sees vectors of two squares or degrees that do not fall by one
        with pytest.raises(ValueError, match=f"^chain for s=1: {message}$"):
            self.build(case)

    def test_chain_holds_its_masks(self):
        # the chain for s = 2 of T(W_2, W_2): v2*v2 -> v1*v2 + v2*v1 = z_2
        v = (SparseVec("tensor", 2, 4, 0b100), SparseVec("tensor", 2, 3, 0b110))
        chain = JordanChain(2, v)
        assert chain == build_tensor_basis(2)[1]
        assert (chain.s, chain.space, chain.n, chain.degree, chain.masks) == (2, "tensor", 2, 4, (4, 6))
        assert chain.vectors == v and chain.top == v[0] and chain.length == 2
        assert all(type(w) is SparseVec for w in (*chain.vectors, chain.top))
        for name in ("masks", "degree", "vectors", "top"):
            with pytest.raises(AttributeError):
                setattr(chain, name, None)

    @pytest.mark.parametrize("count", [0, 3, 5])
    def test_one_terminal_per_chain(self, count):
        n = 4
        chains = build_tensor_basis(n)
        terminals = [build_z(c.s, n) for c in chains + chains][:count]
        with pytest.raises(ValueError, match=f"{count} expected terminals for {n} chains"):
            verify_basis(chains, graded_action("tensor", n), terminals)

    def test_terminals_without_chains(self):
        with pytest.raises(ValueError, match="1 expected terminals for 0 chains"):
            verify_basis([], [], [build_z(1, 1)])
        assert verify_basis([], [], []).ok


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
        action = graded_action("sym2", n)
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

    def test_immutable_tuple(self):
        v = SparseVec("sym2", 5, 7, 0b1100)  # v_2 v_5 + v_3 v_4
        with pytest.raises(AttributeError):
            v.mask = 0
        with pytest.raises(AttributeError):
            v.other = 0
        assert not hasattr(v, "__dict__")
        assert not hasattr(v, "_replace") and not hasattr(v, "_make")
        assert v == SparseVec("sym2", 5, 7, 0b1100) != SparseVec("tensor", 5, 7, 0b1100)
        assert hash(v) == hash((v.space, v.n, v.degree, v.mask))
        assert repr(v) == "SparseVec(space='sym2', n=5, degree=7, mask=12)"

    def test_copies_go_through_the_check(self):
        v = SparseVec("tensor", 3, 4, 0b1010)
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        copies = [copy.copy(v), copy.deepcopy(v), *(pickle.loads(pickle.dumps(v, p)) for p in protocols)]
        assert all(type(c) is SparseVec and c == v for c in copies)
        bad = _unchecked(("tensor", 3, 4, 0b1))  # bit 0 is v_0
        for copier in (copy.copy, copy.deepcopy, *(lambda x, p=p: pickle.loads(pickle.dumps(x, p))
                                                   for p in protocols)):
            with pytest.raises(ValueError, match="mask 0x1 invalid in degree 4 for n=3"):
                copier(bad)

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


@pytest.mark.parametrize("call, message", [
    (lambda: band_index(0, 3), "s=0 out of range for n=3"),
    (lambda: find_j0(1, 3, 0), "beta must be positive"),
    (lambda: find_j0(5, 5, 3), "no valid j0 for s=5, n=5, beta=3"),
    (lambda: build_tensor_basis(0), "n must be positive"),
    (lambda: project_to_sym(SparseVec("sym2", 3, 2, 2)), "projection applies to tensor-square vectors"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
