import hashlib
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from char2squares import gf2, oracle
from char2squares.basis import SparseVec
from char2squares.core import (
    Atom, Ext2, MixedKindError, Scaled, Sum, Sym2, expr_kind, parse_jordan_type, square_expr,
)
from char2squares.formulas import (
    decompose_expr,
    ext2_block,
    sym2_block,
    tensor_decompose,
)
from char2squares.gf2 import (
    Graded, _graded_sweep, _support, graded, jordan_type_of_images, jordan_type_of_nilpotent, rank,
)
from char2squares.oracle import (
    OracleCapExceeded,
    basis_keys,
    expr_action,
    expr_forms,
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
    return expr_action(Atom(kind, n))


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
        # checked at the boundary: Atom checks the size
        with pytest.raises(ValueError):
            block_matrix("nilpotent", 0)


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

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("CHAR2SQUARES_ORACLE_CAP", "50")
        with pytest.raises(OracleCapExceeded):
            square_action("nilpotent", "tensor", 10)
        monkeypatch.delenv("CHAR2SQUARES_ORACLE_CAP")
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
        mat = expr_action(e)
        assert mat.rows == 5
        from char2squares.gf2 import jordan_type_of_nilpotent

        assert jordan_type_of_nilpotent(mat) == jt("3 2")

    def test_cap_uses_each_square_dimension(self, monkeypatch):
        w5 = Atom("nilpotent", 5)
        for square, cap in ((Ext2(w5), 10), (Sym2(w5), 15)):
            monkeypatch.setenv("CHAR2SQUARES_ORACLE_CAP", str(cap))
            assert expr_action(square).rows == cap
            monkeypatch.setenv("CHAR2SQUARES_ORACLE_CAP", str(cap - 1))
            with pytest.raises(OracleCapExceeded):
                expr_action(square)

    def test_library_calls_obey_the_cap_variable(self, monkeypatch):
        monkeypatch.setenv("CHAR2SQUARES_ORACLE_CAP", "9")
        with pytest.raises(OracleCapExceeded, match="dimension 10, above the cap 9"):
            expr_action(Ext2(Atom("nilpotent", 5)))

    def test_malformed_cap_is_reported_before_the_kind(self, monkeypatch):
        # the CLI's message, and before a mixed-kind error
        monkeypatch.setenv("CHAR2SQUARES_ORACLE_CAP", "12k")
        with pytest.raises(ValueError) as info:
            expr_images(parse_expr("T(V2, W2)"))
        assert str(info.value) == "CHAR2SQUARES_ORACLE_CAP must be an integer, not '12k'"

    def test_repeated_factor_built_once(self, monkeypatch):
        from char2squares import oracle
        from char2squares.parser import parse_expr

        calls = []
        pair_builder = oracle._pair_builder
        monkeypatch.setattr(oracle, "_pair_builder", lambda *a: calls.append(a) or pair_builder(*a))
        expr = parse_expr("4*S2(W6)")
        assert expr_action(expr).rows == 4 * 21
        assert len(calls) == 1
        assert oracle_expr_jordan_type(expr) == jt("8^8 2^4 1^12")

    def test_sum_over_cap_builds_nothing(self, monkeypatch):
        # the whole expression is checked against the cap before any term is built
        from char2squares import oracle
        from char2squares.parser import parse_expr

        monkeypatch.setattr(oracle, "_block_builder", None)  # building an atom would call it
        monkeypatch.setenv("CHAR2SQUARES_ORACLE_CAP", "20000")
        expr = parse_expr("W15000 + W15000 + W15000 + W15000")
        with pytest.raises(OracleCapExceeded, match="dimension 60000, above the cap 20000"):
            expr_action(expr)

    def test_expr_oracle_matches_formula(self):
        from char2squares.parser import parse_expr

        for text in ["E2(V9)", "S2(W5 + 2*W3)", "T(V2, V3)", "E2(S2(W4))", "T(W2 + W3, W4)"]:
            expr = parse_expr(text)
            assert oracle_expr_jordan_type(expr) == decompose_expr(expr)


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
            mats = [expr_action(parse_expr(case.replace("X", self.LETTER[kind])))]
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
        images, degrees = expr_images(expr)
        mat = expr_action(expr)
        assert len(degrees) == mat.rows
        if kind == "nilpotent":  # exactly 1: graded raises on any other entry
            assert sum(graded(images, degrees).counts.values()) == mat.rows
        else:  # at least 1, on the entries of u's dense view less the identity
            mat = add(mat, identity(mat.rows))
            for i, row in enumerate(mat.data):
                for j in _support(row):
                    assert degrees[j] - degrees[i] >= 1, (i, j)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("space, text", [("tensor", "T(W{n}, W{n})"), ("sym2", "S2(W{n})")])
    def test_pair_degrees_match_basis_vectors(self, space, text, n):
        # bit i of a SparseVec of degree d stands for the pair (i, d - i)
        _, degrees = expr_images(parse_expr(text.format(n=n)))
        keys = basis_keys(space, n)
        assert len(degrees) == len(keys)
        for (i, j), degree in zip(keys, degrees):
            assert SparseVec(space, n, degree, 1 << i).terms == {(i, j)}

    def test_atom_and_sum(self):
        assert expr_images(parse_expr("W3 + 2*W2"))[1] == [1, 2, 3, 1, 2, 1, 2]

    def test_many_copies_of_a_zero_space(self):
        assert expr_images(parse_expr("99999999999999999999*E2(W1)"))[1] == []


class TestImages:
    """expr_images reads N off the factor builder: the images are the columns
    of expr_action, its dense view, and the oracle's type is the dense one's."""

    @settings(max_examples=150, deadline=None)
    @given(oracle_expr())
    def test_sparse_type_equals_dense_reference(self, expr):
        kind = expr_kind(expr)
        mat = expr_action(expr)
        if kind == "unipotent":
            mat = add(mat, identity(mat.rows))
        assert oracle_expr_jordan_type(expr) == jordan_type_of_nilpotent(mat)

    @settings(max_examples=150, deadline=None)
    @given(oracle_expr())
    def test_images_are_dense_columns(self, expr):
        images, _ = expr_images(expr)
        assert all(hits == sorted(set(hits)) for hits in images)
        rows = [[] for _ in images]
        for c, hits in enumerate(images):
            for i in hits:
                rows[i].append(c)
        mat = expr_action(expr)
        if expr_kind(expr) == "unipotent":
            mat = add(mat, identity(mat.rows))
        assert rows == [_support(row) for row in mat.data]

    @settings(max_examples=150, deadline=None)
    @given(oracle_expr())
    @example(parse_expr("S2(E2(V4))"))  # transposed terms of N (x) N cancel
    def test_images_are_strictly_lower(self, expr):
        # N = e or u - 1 maps every basis vector below itself in basis order
        images, _ = expr_images(expr)
        assert all(i < c for c, hits in enumerate(images) for i in hits)

    def test_many_copies_of_a_zero_space_build_nothing(self, monkeypatch):
        from char2squares import oracle

        monkeypatch.setattr(oracle, "_sum_builder", None)  # a copy would call it
        expr = parse_expr("99999999999999999999*E2(W1)")
        assert expr_images(expr) == ([], [])
        assert oracle_expr_jordan_type(expr).parts == ()

    @settings(max_examples=150, deadline=None)
    @given(oracle_expr(), st.sampled_from([3, 4, 10, 1000]))
    @example(parse_expr("E2(W1) + T(W9, E2(S2(E2(W2))))"), 3)  # dimension 0 + 9 * 0
    @example(parse_expr("E2(W2 + E2(W2))"), 3)  # E2 of dimension 3
    @example(parse_expr("S2(E2(W3))"), 4)  # E2 of a saturated dimension stays saturated
    def test_dim_up_to_3_is_saturated_dimension(self, expr, limit):
        # _dim(expr, limit) = min(dim expr, limit) for every limit of 3 or more
        from char2squares import oracle

        assert oracle._dim(expr, limit) == min(len(expr_images(expr)[1]), limit)

    @settings(max_examples=150, deadline=None)
    @given(oracle_expr())
    @example(parse_expr("E2(W2) + E2(W1)"))  # W2 and W1 are larger than the root
    def test_no_space_built_is_larger_than_the_root(self, expr):
        # why the one cap check on the root bounds the whole build
        from char2squares import oracle

        sizes = []

        def recorded(build, size):
            def wrapper(*args):
                out = build(*args)
                sizes.append(size(out))
                return out
            return wrapper

        def degrees(node):
            return len(node[0])

        with mock.patch.multiple(
            oracle,
            _block_builder=recorded(oracle._block_builder, degrees),
            _pair_builder=recorded(oracle._pair_builder, degrees),
            _sum_builder=recorded(oracle._sum_builder, degrees),
        ):
            root = len(expr_images(expr)[1])
        assert all(size <= max(root, 2) for size in sizes)

    @pytest.mark.parametrize("text, mixed", [
        ("T(E2(W1), W30000)", "T(E2(W1), V30000)"),
        ("T(S2(W30000), E2(S2(E2(W2))))", "T(S2(W30000), E2(S2(E2(V2))))"),
    ])
    def test_zero_factor_tensor_builds_nothing(self, monkeypatch, text, mixed):
        # and still checks the kind of every atom
        from char2squares import oracle

        monkeypatch.setattr(oracle, "_block_builder", None)  # building an atom would call it
        assert expr_images(parse_expr(text)) == ([], [])
        with pytest.raises(MixedKindError, match="mixes V \\(unipotent\\) and W"):
            expr_images(parse_expr(mixed))

    def test_one_walk_builds_images_and_degrees(self, monkeypatch):
        # each pair node lays out its basis once, for the degrees and every
        # factor (u - 1)^(2^j) the rank loop reads
        from char2squares import oracle

        calls = []

        def counted(*args):
            calls.append(args)
            return basis_keys(*args)

        monkeypatch.setattr(oracle, "basis_keys", counted)
        expr = parse_expr("S2(V6)")
        assert oracle_expr_jordan_type(expr) == decompose_expr(expr)
        assert len(calls) == 1


@st.composite
def v_expr(draw):
    """A random V expression of dimension at most 400."""
    text, _ = draw(module_text("V", 400, 3))
    return parse_expr(text)


def squared_factors(expr):
    """The dimension and the factors of the rank loop by squaring, gf2's
    producer for any matrix, over expr_images listed by degree (stable):
    the reference for the factors the oracle builds."""
    images, degrees = expr_images(expr)
    order = sorted(range(len(images)), key=degrees.__getitem__)
    position = [0] * len(order)
    for p, c in enumerate(order):
        position[c] = p
    return len(images), gf2._squared_factors([[position[i] for i in images[c]] for c in order])


def factor_rows(n, factors):
    """Each factor as rows, applied to the rows of the identity."""
    return [gf2._apply(factor, gf2._identity(n)) for factor in factors]


class TestFactors:
    """The oracle builds (u - 1)^(2^j) node by node, each atom's N replaced by
    N^(2^j); each factor must equal the square of the one before, and both
    lists end at the last nonzero factor."""

    @staticmethod
    def assert_built_equals_squared(expr):
        n, built = oracle._unipotent_factors(expr)
        size, squared = squared_factors(expr)
        assert n == size and squared is not None, expr
        assert len(built) == len(squared), expr
        assert factor_rows(n, built) == factor_rows(n, squared), expr

    @pytest.mark.parametrize("functor", ["ext2", "sym2"])
    def test_squares_of_one_block(self, functor):
        for n in range(1, 41):
            self.assert_built_equals_squared(square_expr(functor, "unipotent", n))

    def test_mixed_tensors(self):
        for n in range(1, 25):
            for m in range(1, n + 1):
                self.assert_built_equals_squared(square_expr("tensor", "unipotent", n, m))

    def test_every_partition(self):
        # the V inputs of acceptance criterion 9: sums with many vectors in a degree
        from test_acceptance import partitions

        for n in range(1, 13):
            for parts in partitions(n):
                space = Sum(tuple(Scaled(count, Atom("unipotent", part)) for part, count in parts))
                for square in (Ext2(space), Sym2(space)):
                    self.assert_built_equals_squared(square)

    @settings(max_examples=150, deadline=None)
    @given(v_expr())
    @example(parse_expr("S2(E2(V4))"))  # transposed terms of N (x) N cancel
    @example(parse_expr("E2(T(V2, V3)) + 2*S2(V3 + V1)"))
    def test_random_trees(self, expr):
        self.assert_built_equals_squared(expr)

    @pytest.mark.parametrize("text, dim, count", [
        ("E2(V1)", 0, 0),
        ("99999999999999999999*E2(V1)", 0, 0),
        ("T(E2(V1), V9)", 0, 0),
        ("V1", 1, 0),
        ("5*V1 + E2(V2)", 6, 0),  # u = 1: no nonzero factor
        ("S2(V1) + V2", 3, 1),
        ("T(V1, V5)", 5, 3),
    ])
    def test_zero_spaces_and_trivial_atoms(self, text, dim, count):
        expr = parse_expr(text)
        self.assert_built_equals_squared(expr)
        n, factors = oracle._unipotent_factors(expr)
        assert (n, len(factors)) == (dim, count)


@st.composite
def w_expr(draw):
    """A random W expression of dimension at most 400."""
    text, _ = draw(module_text("W", 400, 3))
    return parse_expr(text)


def images_route(expr):
    """The Graded read off expr_images, the reference for expr_forms."""
    return graded(*expr_images(expr))


class TestExprForms:
    """expr_forms builds e's per-degree forms from the factors' forms: on
    single blocks they are the forms read off expr_images, frame and all, and
    on any W expression they sweep to the type the rank loop reads off the
    images."""

    @pytest.mark.parametrize("functor", ["tensor", "ext2", "sym2"])
    def test_squares_of_one_block_equal_the_images_route(self, functor):
        # n <= 100 covers every W input of acceptance criterion 2
        for n in range(1, 101 if functor != "tensor" else 65):
            expr = square_expr(functor, "nilpotent", n)
            assert expr_forms(expr) == images_route(expr), n

    def test_mixed_tensors_equal_the_images_route(self):
        # every W input of acceptance criterion 3
        for n in range(1, 49):
            for m in range(1, n + 1):
                expr = square_expr("tensor", "nilpotent", n, m)
                assert expr_forms(expr) == images_route(expr), (m, n)

    def test_every_partition_sweeps_to_the_images_type(self):
        # the W inputs of acceptance criterion 9: a degree can hold many vectors
        from test_acceptance import partitions

        for n in range(1, 17):
            for parts in partitions(n):
                space = Sum(tuple(Scaled(count, Atom("nilpotent", part)) for part, count in parts))
                for square in (Ext2(space), Sym2(space)):
                    counts, forms = expr_forms(square)
                    assert counts == images_route(square).counts, (parts, square)
                    # the rank loop, which takes no degrees, is the reference
                    assert _graded_sweep(counts, forms) == jordan_type_of_images(expr_images(square)[0])

    @settings(max_examples=300, deadline=None)
    @given(w_expr())
    @example(parse_expr("S2(2*(W2 + W3) + T(W2, 2*W2))"))  # runs of two vectors in a degree
    @example(parse_expr("E2(3*W2 + W4)"))
    @example(parse_expr("T(E2(W4), S2(W3 + W1))"))
    def test_random_trees_sweep_to_the_images_type(self, expr):
        counts, forms = expr_forms(expr)
        assert counts == images_route(expr).counts
        assert set(forms) == set(counts)
        for d, form in forms.items():  # every entry maps a position of d to one of d - 1
            for shift, sources in form.items():
                assert sources.bit_length() <= min(counts[d], counts.get(d - 1, 0) - shift)
                assert sources and not sources & ((1 << -shift) - 1 if shift < 0 else 0)
        expected = jordan_type_of_images(expr_images(expr)[0])
        assert _graded_sweep(counts, forms) == expected
        assert oracle_expr_jordan_type(expr) == expected

    def test_runs_join_a_degree_with_nothing_below(self):
        # v_1 of W_n maps to 0 whatever its form says, so W_n is one run and
        # a product of blocks needs one run pair, not four
        from char2squares import oracle

        assert oracle._runs(*oracle._block_forms(5)) == [(1, 5, 1, {0: 1})]
        runs = oracle._runs(*expr_forms(parse_expr("W3 + W1")))
        assert runs == [(1, 1, 2, {}), (2, 3, 1, {0: 1})]
        assert not oracle._grounded(runs, 0) and oracle._grounded(runs, 1)

    def test_many_copies_of_a_zero_space_build_nothing(self, monkeypatch):
        from char2squares import oracle

        monkeypatch.setattr(oracle, "_sum_forms", None)  # a copy would call it
        expr = parse_expr("99999999999999999999*E2(W1)")
        assert expr_forms(expr) == Graded({}, {})
        assert oracle_expr_jordan_type(expr).parts == ()

    def test_zero_spaces_add_nothing(self):
        assert expr_forms(parse_expr("E2(W1)")) == Graded({}, {})
        assert expr_forms(parse_expr("E2(W1) + W2")) == Graded({1: 1, 2: 1}, {1: {}, 2: {0: 1}})

    @pytest.mark.parametrize("text, mixed", [
        ("T(E2(W1), W30000)", "T(E2(W1), V30000)"),
        ("T(S2(W30000), E2(S2(E2(W2))))", "T(S2(W30000), E2(S2(E2(V2))))"),
    ])
    def test_zero_factor_tensor_builds_nothing(self, monkeypatch, text, mixed):
        # and still checks the kind of every atom
        from char2squares import oracle

        monkeypatch.setattr(oracle, "_block_forms", None)  # building an atom would call it
        assert expr_forms(parse_expr(text)) == Graded({}, {})
        with pytest.raises(MixedKindError, match="mixes V \\(unipotent\\) and W"):
            expr_forms(parse_expr(mixed))

    def test_cap_is_checked_before_anything_is_built(self, monkeypatch):
        from char2squares import oracle

        monkeypatch.setattr(oracle, "_block_forms", None)
        monkeypatch.setenv("CHAR2SQUARES_ORACLE_CAP", "20000")
        with pytest.raises(OracleCapExceeded, match="dimension 60000, above the cap 20000"):
            expr_forms(parse_expr("W15000 + W15000 + W15000 + W15000"))
        monkeypatch.setenv("CHAR2SQUARES_ORACLE_CAP", "9")
        with pytest.raises(OracleCapExceeded, match="dimension 10, above the cap 9"):
            expr_forms(Ext2(Atom("nilpotent", 5)))

    def test_malformed_cap_is_reported_before_the_kind(self, monkeypatch):
        monkeypatch.setenv("CHAR2SQUARES_ORACLE_CAP", "12k")
        with pytest.raises(ValueError) as info:
            expr_forms(parse_expr("T(V2, W2)"))
        assert str(info.value) == "CHAR2SQUARES_ORACLE_CAP must be an integer, not '12k'"

    def test_unipotent_expression_is_refused(self):
        # u - 1 lowers degrees by 1 or more, so it has no forms of one step
        with pytest.raises(ValueError, match="W \\(nilpotent\\) expression"):
            expr_forms(parse_expr("S2(V3)"))


@pytest.mark.parametrize("functor", ["wedge", "Tensor", ""])
def test_basis_keys_refuses_an_unknown_functor(functor):
    with pytest.raises(ValueError) as info:
        basis_keys(functor, 3)
    assert str(info.value) == f"unknown functor {functor!r}"
