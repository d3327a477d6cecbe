import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from char2squares.core import (
    Atom,
    ConesExpansion,
    EMPTY_TYPE,
    Ext2,
    JordanType,
    MixedKindError,
    Scaled,
    Sum,
    Sym2,
    Tensor,
    cones_expansion,
    expr_kind,
    format_jordan_type,
    parse_jordan_type,
    square_expr,
)


def brute_force_min_terms(n, max_exp):
    """Independent oracle: shortest alternating sum of powers of two equal to n."""
    for r in range(1, max_exp + 2):
        for betas in itertools.combinations(range(max_exp, -1, -1), r):
            total = sum((-1) ** i * (1 << b) for i, b in enumerate(betas))
            if total == n:
                return r
    raise AssertionError(f"no expansion found for {n}")


class TestConesExpansion:
    @pytest.mark.parametrize(
        "n, betas",
        [(3, (2, 0)), (4, (2,)), (5, (3, 2, 0)), (6, (3, 1)), (7, (3, 0)), (9, (4, 3, 0))],
    )
    def test_known_expansions(self, n, betas):
        assert cones_expansion(n).betas == betas

    def test_nine_is_minimal_by_brute_force(self):
        assert brute_force_min_terms(9, 6) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cones_expansion(0)

    def test_invalid_expansion_rejected(self):
        with pytest.raises(ValueError, match="does not sum to 5"):
            ConesExpansion(5, (3, 1))  # sums to 6, not 5
        with pytest.raises(ValueError):
            ConesExpansion(0, (0,))
        with pytest.raises(ValueError, match="strictly decreasing"):
            ConesExpansion(5, (2, 3, 0))
        with pytest.raises(ValueError, match="strictly decreasing"):
            ConesExpansion(5, (3, 3, 0))
        with pytest.raises(ValueError, match="nonempty"):
            ConesExpansion(5, ())

    def test_trusted_expansions_pass_validation(self):
        # cones_expansion skips __post_init__; the public constructor re-checks
        for n in range(1, (1 << 12) + 1):
            exp = cones_expansion(n)
            assert exp == ConesExpansion(n, exp.betas), n

    @given(st.integers(1, 1 << 20))
    def test_reconstruction(self, n):
        exp = cones_expansion(n)
        assert sum((-1) ** i * (1 << b) for i, b in enumerate(exp.betas)) == n

    @given(st.integers(1, 1 << 20))
    def test_gap_property(self, n):
        betas = cones_expansion(n).betas
        if len(betas) > 1:
            assert betas[-2] > betas[-1] + 1

    @pytest.mark.parametrize("n", range(1, 300))
    def test_minimality_small(self, n):
        assert len(cones_expansion(n).betas) == brute_force_min_terms(n, 10)


class TestSuffixValues:
    def test_n6(self):
        assert cones_expansion(6).suffix_values() == (6, 2, 0)

    def test_n4(self):
        assert cones_expansion(4).suffix_values() == (4, 0)

    def test_n9(self):
        assert cones_expansion(9).suffix_values() == (9, 7, 1, 0)

    @given(st.integers(1, 1 << 20))
    def test_strictly_decreasing_to_zero(self, n):
        vals = cones_expansion(n).suffix_values()
        assert vals[0] == n and vals[-1] == 0
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @given(st.integers(1, 1 << 20))
    def test_dimension_identity(self, n):
        exp = cones_expansion(n)
        vals = exp.suffix_values()
        assert n * n == sum(
            (1 << b) * (vals[k] - vals[k + 1]) for k, b in enumerate(exp.betas)
        )


class TestJordanType:
    def test_parse_example(self):
        t = parse_jordan_type("8^2 5 1^3")
        assert t.parts == ((8, 2), (5, 1), (1, 3))
        assert t.total_dim == 24

    def test_parse_zero(self):
        t = parse_jordan_type("0")
        assert t == EMPTY_TYPE and t.total_dim == 0

    def test_round_trip(self):
        assert format_jordan_type(parse_jordan_type("7^3")) == "7^3"

    @pytest.mark.parametrize("bad", ["", "x", "3^", "-2", "0^2", "4^0", "2 3^x"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_jordan_type(bad)

    def test_from_pairs_merges_and_drops_zero(self):
        t = JordanType.from_pairs([(3, 1), (3, 2), (5, 0)])
        assert t.parts == ((3, 3),)

    def test_from_pairs_rejects_negative(self):
        with pytest.raises(ValueError):
            JordanType.from_pairs([(3, -1)])

    def test_add_and_scale(self):
        a = JordanType.from_sizes([4, 2])
        b = JordanType.from_sizes([4, 1])
        assert (a + b).parts == ((4, 2), (2, 1), (1, 1))
        assert a.scaled(3).total_dim == 18

    def test_decremented(self):
        t = JordanType.from_pairs([(4, 2), (1, 3)])
        assert t.decremented() == JordanType.from_pairs([(3, 2)])

    @given(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 5)), max_size=8))
    def test_format_parse_round_trip(self, pairs):
        t = JordanType.from_pairs(pairs)
        assert parse_jordan_type(format_jordan_type(t)) == t


class TestModuleExpr:
    def test_kind_of_pure_expression(self):
        e = Ext2(Sum((Atom("unipotent", 2), Atom("unipotent", 1))))
        assert expr_kind(e) == "unipotent"

    def test_mixed_kind_rejected(self):
        with pytest.raises(MixedKindError):
            expr_kind(Tensor(Atom("unipotent", 2), Atom("nilpotent", 2)))

    def test_atom_validation(self):
        with pytest.raises(ValueError):
            Atom("unipotent", 0)
        with pytest.raises(ValueError):
            Atom("other", 2)
        with pytest.raises(ValueError):
            Scaled(0, Atom("nilpotent", 2))

    def test_square_expr(self):
        w = lambda n: Atom("nilpotent", n)
        assert square_expr("ext2", "nilpotent", 5) == Ext2(w(5))
        assert square_expr("sym2", "unipotent", 3) == Sym2(Atom("unipotent", 3))
        assert square_expr("tensor", "nilpotent", 4) == Tensor(w(4), w(4))
        assert square_expr("tensor", "nilpotent", 4, 2) == Tensor(w(2), w(4))

    def test_square_expr_validation(self):
        with pytest.raises(ValueError):
            square_expr("ext2", "nilpotent", 4, 3)
        with pytest.raises(ValueError):
            square_expr("cube", "nilpotent", 4)
        with pytest.raises(ValueError):
            square_expr("sym2", "nilpotent", 0)
