import math
import random

import pytest

from char2squares.core import Atom, Ext2, Sum, Sym2, parse_jordan_type
from char2squares.formulas import (
    decompose_expr,
    ext2_block,
    sym2_block,
    tensor_decompose,
)
from char2squares.gf2 import Gf2Matrix, identity, mul, rank
from char2squares.oracle import (
    OracleCapExceeded,
    basis_keys,
    block_matrix,
    expr_action,
    oracle_expr_jordan_type,
    oracle_jordan_type,
    square_action,
    tensor_action,
)


def jt(text):
    return parse_jordan_type(text)


def apply_to_coords(mat, coords):
    """Image of a coordinate vector (set of positions) under mat."""
    out = set()
    for i in range(mat.rows):
        bit = sum(mat.entry(i, c) for c in coords) % 2
        if bit:
            out.add(i)
    return out


class TestBlockMatrix:
    def test_nilpotent_1(self):
        assert block_matrix("nilpotent", 1).to_lists() == [[0]]

    def test_unipotent_2(self):
        assert block_matrix("unipotent", 2).to_lists() == [[1, 1], [0, 1]]

    def test_upper_shift_convention(self):
        # e v_3 = v_2
        m = block_matrix("nilpotent", 3)
        assert apply_to_coords(m, {2}) == {1}
        assert apply_to_coords(m, {0}) == set()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            block_matrix("nilpotent", 0)
        with pytest.raises(ValueError):
            block_matrix("weird", 3)


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
        sym2_of = oracle.sym2_of
        monkeypatch.setattr(oracle, "sym2_of", lambda *a: calls.append(a) or sym2_of(*a))
        expr = parse_expr("4*S2(W6)")
        assert expr_action(expr, "nilpotent").rows == 4 * 21
        assert len(calls) == 1
        assert oracle_expr_jordan_type(expr, "nilpotent") == jt("8^8 2^4 1^12")

    def test_sum_stops_at_first_term_over_cap(self, monkeypatch):
        from char2squares import oracle
        from char2squares.parser import parse_expr

        built = []
        block_matrix_ = oracle.block_matrix
        monkeypatch.setattr(
            oracle, "block_matrix", lambda kind, n: built.append(n) or block_matrix_(kind, n)
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
