import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from char2squares.basis import SparseVec
from char2squares.core import Atom, Ext2, Sum, Sym2, expr_kind, parse_jordan_type
from char2squares.formulas import (
    decompose_expr,
    ext2_block,
    sym2_block,
    tensor_decompose,
)
from char2squares.gf2 import _support, jordan_type_of_nilpotent, rank
from char2squares.oracle import (
    OracleCapExceeded,
    basis_keys,
    expr_action,
    expr_images,
    oracle_expr_jordan_type,
    oracle_jordan_type,
    square_action,
    tensor_action,
)
from char2squares.parser import parse_expr
from gf2_dense import add, identity, mul
from test_formulas import module_text


def jt(text):
    return parse_jordan_type(text)


def apply_to_coords(mat, coords):
    """Image of a coordinate vector (set of positions) under mat."""
    vec = sum(1 << c for c in coords)
    return {i for i, row in enumerate(mat.data) if (row & vec).bit_count() % 2}


def block_matrix(kind, n):
    """The single Jordan block of size n, as the oracle builds it."""
    return expr_action(Atom(kind, n), kind)


class TestBlockMatrix:
    def test_nilpotent_1(self):
        assert block_matrix("nilpotent", 1).data == (0,)

    def test_unipotent_2(self):
        assert block_matrix("unipotent", 2).data == (0b11, 0b10)

    def test_upper_shift_convention(self):
        # e v_3 = v_2
        m = block_matrix("nilpotent", 3)
        assert apply_to_coords(m, {2}) == {1}
        assert apply_to_coords(m, {0}) == set()

    def test_rejects_nonpositive(self):
        # checked at the boundary: Atom checks the size, expr_images the kind
        with pytest.raises(ValueError):
            block_matrix("nilpotent", 0)
        with pytest.raises(ValueError):
            expr_images(Atom("nilpotent", 3), "weird")


class TestSquareAction:
    def test_sym2_n2_nilpotent(self):
        # e(v2 v2) = 0, e(v1 v2) = v1 v1, e(v1 v1) = 0 -> type [2, 1]
        keys = basis_keys("sym2", 2)
        idx = {k: i for i, k in enumerate(keys)}
        m = square_action("nilpotent", "sym2", 2)
        assert apply_to_coords(m, {idx[(2, 2)]}) == set()
        assert apply_to_coords(m, {idx[(1, 2)]}) == {idx[(1, 1)]}
        assert oracle_jordan_type("nilpotent", "sym2", 2) == jt("2 1")

    def test_ext2_n3_unipotent(self):
        assert oracle_jordan_type("unipotent", "ext2", 3) == jt("3")

    def test_tensor_2x2_nilpotent(self):
        assert oracle_jordan_type("nilpotent", "tensor", 2, 2) == jt("2^2")

    def test_published_examples(self):
        assert oracle_jordan_type("unipotent", "sym2", 4) == jt("4^2 2")
        assert oracle_jordan_type("nilpotent", "ext2", 7) == jt("7^3")
        assert oracle_jordan_type("nilpotent", "sym2", 9) == jt("16 8^3 1^5")

    def test_tensor_w4_square(self):
        assert oracle_jordan_type("nilpotent", "tensor", 4) == jt("4^4")

    def test_cap_enforced(self):
        with pytest.raises(OracleCapExceeded):
            square_action("nilpotent", "tensor", 10, cap=50)
        with pytest.raises(OracleCapExceeded):
            oracle_jordan_type("nilpotent", "sym2", 300)

    def test_m_requires_tensor(self):
        with pytest.raises(ValueError):
            oracle_jordan_type("nilpotent", "ext2", 4, 3)


class TestDerivationStructure:
    def test_leibniz_on_pure_tensors(self):
        n = 6
        e = block_matrix("nilpotent", n)
        act = tensor_action("nilpotent", n, n)
        keys = basis_keys("tensor", n)
        idx = {k: i for i, k in enumerate(keys)}
        rng = random.Random(11)
        for _ in range(20):
            i, j = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
            lhs = apply_to_coords(act, {idx[(i, j)]})
            ei = apply_to_coords(e, {i - 1})
            ej = apply_to_coords(e, {j - 1})
            rhs = set()
            for a in ei:
                rhs ^= {idx[(a + 1, j)]}
            for b in ej:
                rhs ^= {idx[(i, b + 1)]}
            assert lhs == rhs

    @pytest.mark.parametrize("kind", ["nilpotent", "unipotent"])
    @pytest.mark.parametrize("m, n", [(2, 5), (5, 2), (3, 7), (4, 4)])
    def test_leibniz_on_mixed_tensors(self, kind, m, n):
        # T(X_m, X_n): e acts as e (x) 1 + 1 (x) e and u as u (x) u
        a, b = block_matrix(kind, m), block_matrix(kind, n)
        act = tensor_action(kind, m, n)
        idx = {k: i for i, k in enumerate(basis_keys("tensor", n, m))}
        assert len(idx) == act.rows == m * n
        for (i, j), col in idx.items():
            ai = [k + 1 for k in apply_to_coords(a, {i - 1})]
            bj = [l + 1 for l in apply_to_coords(b, {j - 1})]
            rhs = set()
            if kind == "nilpotent":
                for k in ai:
                    rhs ^= {idx[(k, j)]}
                for l in bj:
                    rhs ^= {idx[(i, l)]}
            else:
                for k in ai:
                    for l in bj:
                        rhs ^= {idx[(k, l)]}
            assert apply_to_coords(act, {col}) == rhs

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_binomial_action_formula(self, n):
        act = tensor_action("nilpotent", n, n)
        keys = basis_keys("tensor", n)
        idx = {k: i for i, k in enumerate(keys)}
        power = identity(n * n)
        for k in range(1, 2 * n + 1):
            power = mul(act, power)
            for (i, j) in ((n, n), (n, n - 1), (n // 2 + 1, n)):
                expected = set()
                for t in range(k + 1):
                    a, b = i - t, j - k + t
                    if a >= 1 and b >= 1 and math.comb(k, t) % 2:
                        expected ^= {idx[(a, b)]}
                assert apply_to_coords(power, {idx[(i, j)]}) == expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_kernel_dimension_is_n(self, n):
        act = tensor_action("nilpotent", n, n)
        assert act.rows - rank(act) == n


class TestAgainstFormulas:
    @pytest.mark.parametrize("n", range(1, 26))
    @pytest.mark.parametrize("kind", ["unipotent", "nilpotent"])
    def test_squares_small(self, kind, n):
        assert oracle_jordan_type(kind, "ext2", n) == ext2_block(n, kind)
        assert oracle_jordan_type(kind, "sym2", n) == sym2_block(n, kind)

    @pytest.mark.parametrize("kind", ["unipotent", "nilpotent"])
    def test_mixed_tensor_small(self, kind):
        for n in range(1, 13):
            for m in range(1, n + 1):
                assert oracle_jordan_type(kind, "tensor", n, m) == tensor_decompose(m, n)


class TestExprOracle:
    def test_direct_sum_action(self):
        e = Sum((Atom("nilpotent", 3), Atom("nilpotent", 2)))
        mat = expr_action(e, "nilpotent")
        assert mat.rows == 5
        from char2squares.gf2 import jordan_type_of_nilpotent

        assert jordan_type_of_nilpotent(mat) == jt("3 2")

    def test_cap_uses_each_square_dimension(self):
        w5 = Atom("nilpotent", 5)
        assert expr_action(Ext2(w5), "nilpotent", cap=10).rows == 10
        with pytest.raises(OracleCapExceeded):
            expr_action(Ext2(w5), "nilpotent", cap=9)
        assert expr_action(Sym2(w5), "nilpotent", cap=15).rows == 15
        with pytest.raises(OracleCapExceeded):
            expr_action(Sym2(w5), "nilpotent", cap=14)

    def test_repeated_factor_built_once(self, monkeypatch):
        from char2squares import oracle
        from char2squares.parser import parse_expr

        calls = []
        pair_images = oracle._pair_images
        monkeypatch.setattr(oracle, "_pair_images", lambda *a: calls.append(a) or pair_images(*a))
        expr = parse_expr("4*S2(W6)")
        assert expr_action(expr, "nilpotent").rows == 4 * 21
        assert len(calls) == 1
        assert oracle_expr_jordan_type(expr, "nilpotent") == jt("8^8 2^4 1^12")

    def test_sum_stops_at_first_term_over_cap(self, monkeypatch):
        from char2squares import oracle
        from char2squares.parser import parse_expr

        built = []
        block_images = oracle._block_images
        monkeypatch.setattr(
            oracle, "_block_images", lambda kind, n: built.append(n) or block_images(kind, n)
        )
        expr = parse_expr("W15000 + W15000 + W15000 + W15000")
        with pytest.raises(OracleCapExceeded) as exc:
            expr_action(expr, "nilpotent", cap=20_000)
        assert built == [15_000, 15_000]
        assert exc.value.dim == 30_000

    def test_expr_oracle_matches_formula(self):
        from char2squares.parser import parse_expr

        for text, kind in [
            ("E2(V9)", "unipotent"),
            ("S2(W5 + 2*W3)", "nilpotent"),
            ("T(V2, V3)", "unipotent"),
            ("E2(S2(W4))", "nilpotent"),
            ("T(W2 + W3, W4)", "nilpotent"),
        ]:
            expr = parse_expr(text)
            assert oracle_expr_jordan_type(expr, kind) == decompose_expr(expr)


def _digest(mats):
    return hashlib.sha256(repr([(m.rows, m.data) for m in mats]).encode()).hexdigest()


class TestPairLayout:
    """The matrices expr_action builds are pinned bit for bit: row and column
    order follow basis_keys, so a change of layout shows up here first."""

    LETTER = {"unipotent": "V", "nilpotent": "W"}
    PINNED = {
        ("unipotent", "tensor"): "26844cb0727c7df16c829d98095df66a78afb67f6b0e63b150d1577e4c747642",
        ("unipotent", "ext2"): "d1662460ae7e581a1d5c7d0648f432a9b30831e3d0eb6d08dfc4101e7c337cc8",
        ("unipotent", "sym2"): "7f14041584a64d11b29076130194b0219c60c8795b82b9c4f74354a76389b7a9",
        ("unipotent", "mixed"): "d1f69bc3bb9a61976bf795eb7e5eae883710a5ec9a7411b913e112eaf7026b7e",
        ("unipotent", "S2(X3 + X2)"): "5676a5def71907a707ce4ec83c5ac66e5b0ce9f7808628d6afb8541464677ffd",
        ("unipotent", "E2(S2(X3))"): "7902d0ed41445bc3d3221fbdfebb908599a20ec8712fd43f7ff4e02b9116488d",
        ("unipotent", "T(E2(X4), X3)"): "7dba4641f65fddc4847a7810c8f66fa83b395ed2071173a9bf08e3c2dc47df6f",
        ("unipotent", "2*S2(X2)"): "ce142e6b8194f5ec915420400a20db86adccd02f53ec3066fb6b952861fa7d90",
        ("nilpotent", "tensor"): "1c3456471341a64390d11ac62204c274bf60d9f76980808ba23f5abf1b82a634",
        ("nilpotent", "ext2"): "5a636fb4e3fe00a6096fe07637a49e4e3837752a5314f693ac5666dcb4deb2e9",
        ("nilpotent", "sym2"): "7ef5a323fe8c60868bb8b5495d0b3a7054b88d48c9a5a6fdff16b2eeb17ea9e9",
        ("nilpotent", "mixed"): "42fb7f3abd94a57aa7235a9d2f802253144762a436d0278ead40e955c8e3ad5a",
        ("nilpotent", "S2(X3 + X2)"): "4b47a7ea2af3fd254df15f2683cab60eea5689b19687343cd1dc8980acfa0edd",
        ("nilpotent", "E2(S2(X3))"): "9fc31fca2e9301aaa1bcdbc9d2c9dce00fc26c880f2fbffab03ea6686d5395c5",
        ("nilpotent", "T(E2(X4), X3)"): "249acdb67acb257e24dc3940224f1db7337085c228e31590c9035cd606e634e9",
        ("nilpotent", "2*S2(X2)"): "fb96c3463637c6f5002bdc9e2fde5bfe0b223f124bb88c9b67bb66254d2d1aee",
    }

    @pytest.mark.parametrize("kind, case", sorted(PINNED))
    def test_matrices_pinned(self, kind, case):
        from char2squares.parser import parse_expr

        if case in ("tensor", "ext2", "sym2"):
            mats = [square_action(kind, case, n) for n in range(1, 13)]
        elif case == "mixed":  # T(X_m, X_n) with m < n
            mats = [tensor_action(kind, m, n) for n in range(1, 10) for m in range(1, n)]
        else:
            mats = [expr_action(parse_expr(case.replace("X", self.LETTER[kind])), kind)]
        assert _digest(mats) == self.PINNED[kind, case]


@st.composite
def oracle_expr(draw):
    """A random expression of either kind, of dimension at most 120."""
    text, _ = draw(module_text(draw(st.sampled_from("VW")), 120, 3))
    return parse_expr(text)


class TestExprDegrees:
    """expr_images lists, second, the degree of each basis vector in
    expr_action's order; e must lower it by exactly 1 and u - 1 by at least 1."""

    @settings(max_examples=150, deadline=None)
    @given(oracle_expr())
    def test_builder_lowers_degrees(self, expr):
        kind = expr_kind(expr)
        _, degrees = expr_images(expr, kind)
        mat = expr_action(expr, kind)
        assert len(degrees) == mat.rows
        if kind == "unipotent":
            mat = add(mat, identity(mat.rows))
        for i, row in enumerate(mat.data):
            for j in _support(row):
                drop = degrees[j] - degrees[i]
                assert drop == 1 if kind == "nilpotent" else drop >= 1, (i, j)
        assert jordan_type_of_nilpotent(mat, degrees) == jordan_type_of_nilpotent(mat)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("space, text", [("tensor", "T(W{n}, W{n})"), ("sym2", "S2(W{n})")])
    def test_pair_degrees_match_basis_vectors(self, space, text, n):
        # bit i of a SparseVec of degree d stands for the pair (i, d - i)
        _, degrees = expr_images(parse_expr(text.format(n=n)), "nilpotent")
        keys = basis_keys(space, n)
        assert len(degrees) == len(keys)
        for (i, j), degree in zip(keys, degrees):
            assert SparseVec(space, n, degree, 1 << i).terms == {(i, j)}

    def test_atom_and_sum(self):
        assert expr_images(parse_expr("W3 + 2*W2"), "nilpotent")[1] == [1, 2, 3, 1, 2, 1, 2]

    def test_many_copies_of_a_zero_space(self):
        assert expr_images(parse_expr("99999999999999999999*E2(W1)"), "nilpotent")[1] == []


class TestImages:
    """expr_images is the one builder: the kernel reads the images as built,
    and they are the columns of expr_action, its dense view."""

    @settings(max_examples=150, deadline=None)
    @given(oracle_expr())
    def test_sparse_type_equals_dense_reference(self, expr):
        kind = expr_kind(expr)
        mat = expr_action(expr, kind)
        if kind == "unipotent":
            mat = add(mat, identity(mat.rows))
        assert oracle_expr_jordan_type(expr, kind) == jordan_type_of_nilpotent(mat)

    @settings(max_examples=150, deadline=None)
    @given(oracle_expr())
    def test_images_are_dense_columns(self, expr):
        kind = expr_kind(expr)
        images, _ = expr_images(expr, kind)
        assert all(hits == sorted(set(hits)) for hits in images)
        rows = [[] for _ in images]
        for c, hits in enumerate(images):
            for i in hits:
                rows[i].append(c)
        assert rows == [_support(row) for row in expr_action(expr, kind).data]

    def test_many_copies_of_a_zero_space_build_nothing(self, monkeypatch):
        from char2squares import oracle

        monkeypatch.setattr(oracle, "_direct_sum", None)  # a copy would call it
        expr = parse_expr("99999999999999999999*E2(W1)")
        assert expr_images(expr, "nilpotent") == ([], [])
        assert oracle_expr_jordan_type(expr, "nilpotent").parts == ()

    @settings(max_examples=150, deadline=None)
    @given(oracle_expr())
    @example(parse_expr("E2(W1) + T(W9, E2(S2(E2(W2))))"))  # dimension 0 + 9 * 0
    @example(parse_expr("E2(W2 + E2(W2))"))  # E2 of dimension 3
    def test_dim_up_to_3_is_saturated_dimension(self, expr):
        from char2squares import oracle

        kind = expr_kind(expr)
        assert oracle._dim_up_to_3(expr, kind) == min(len(expr_images(expr, kind)[1]), 3)

    @pytest.mark.parametrize("text, mixed", [
        ("T(E2(W1), W30000)", "T(E2(W1), V30000)"),
        ("T(S2(W30000), E2(S2(E2(W2))))", "T(S2(W30000), E2(S2(E2(V2))))"),
    ])
    def test_zero_factor_tensor_builds_nothing(self, monkeypatch, text, mixed):
        # and still checks the kind of every atom
        from char2squares import oracle

        monkeypatch.setattr(oracle, "_block_images", None)  # building an atom would call it
        assert expr_images(parse_expr(text), "nilpotent") == ([], [])
        with pytest.raises(ValueError, match="kind mismatch"):
            expr_images(parse_expr(mixed), "nilpotent")

    def test_one_walk_builds_images_and_degrees(self, monkeypatch):
        # each pair node lays out its basis once, for the images and the degrees
        from char2squares import oracle

        calls = []

        def counted(*args):
            calls.append(args)
            return basis_keys(*args)

        monkeypatch.setattr(oracle, "basis_keys", counted)
        expr = parse_expr("S2(W6)")
        assert oracle_expr_jordan_type(expr, "nilpotent") == decompose_expr(expr)
        assert len(calls) == 1
