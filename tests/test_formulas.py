from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from char2squares.core import (
    Atom,
    Ext2,
    JordanType,
    Scaled,
    Sum,
    Sym2,
    Tensor,
    format_jordan_type,
    parse_jordan_type,
)
from char2squares.formulas import (
    _add_tensor,
    _q,
    decompose_expr,
    ext2_nilpotent,
    ext2_nilpotent_rec,
    ext2_unipotent,
    square_rows,
    sym2_nilpotent,
    sym2_nilpotent_rec,
    sym2_unipotent,
    tensor_decompose,
)
from char2squares.oracle import oracle_expr_jordan_type, oracle_jordan_type
from char2squares.parser import parse_expr


def jt(text):
    return parse_jordan_type(text)


def tensor_reference(m, n):
    """V_m tensor V_n, 1 <= m <= n, by the recursion of the paper, as a Counter of sizes."""
    q = 1 << (n - 1).bit_length()
    if n == q:
        return Counter({q: m})
    if m + n > q:
        return Counter({q: m + n - q}) + tensor_reference(q - n, q - m)
    inner = tensor_reference(*sorted((m, q - n)))
    return Counter({q - s: c for s, c in inner.items()})


class TestQChoice:
    """The recursions' power of two q, with q/2 < n <= q."""

    @pytest.mark.parametrize("n, q", [(1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (8, 8), (9, 16)])
    def test_for_dim(self, n, q):
        assert _q(n) == q


class TestTensor:
    def test_full_block_case(self):
        assert tensor_decompose(3, 4) == jt("4^3")

    def test_trivial_factor(self):
        for n in (1, 5, 12):
            assert tensor_decompose(1, n) == jt(str(n))

    def test_2x3_matches_oracle(self):
        expected = oracle_jordan_type("nilpotent", "tensor", 3, 2)
        assert expected == jt("4 2")
        assert tensor_decompose(2, 3) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tensor_decompose(0, 3)

    @given(st.integers(1, 60), st.integers(1, 60))
    def test_symmetry_and_dimension(self, m, n):
        t = tensor_decompose(m, n)
        assert t == tensor_decompose(n, m)
        assert t.total_dim == m * n

    def test_parts_equal_recursive_reference(self):
        for n in range(1, 257):
            for m in range(1, n + 1):
                expected = tuple(sorted(tensor_reference(m, n).items(), reverse=True))
                assert tensor_decompose(m, n).parts == expected, (m, n)
                assert tensor_decompose(n, m).parts == expected, (m, n)

    def test_boundaries_up_to_the_sizes_formula_expr_draws(self):
        # n in 257..1024: m + n in {q - 1, q, q + 1}, and every m at n = q and n = q/2 + 1
        pairs = set()
        for n in range(257, 1025):
            q = _q(n)
            pairs.update((s - n, n) for s in (q - 1, q, q + 1) if s - n >= 1)
            if n in (q, q // 2 + 1):
                pairs.update((m, n) for m in range(1, n + 1))
        for m, n in sorted(pairs):
            expected = tuple(sorted(tensor_reference(*sorted((m, n))).items(), reverse=True))
            assert tensor_decompose(m, n).parts == expected, (m, n)
            assert tensor_decompose(n, m).parts == expected, (m, n)

    @given(st.integers(1, 1000), st.integers(1, 1000), st.integers(1, 10**30),
           st.dictionaries(st.integers(1, 1024), st.integers(1, 10**6), min_size=1))
    def test_add_tensor_adds_c_copies_into_the_table(self, m, n, c, table):
        # the formula route adds into a table that already holds other blocks
        expected = Counter(table)
        for size, mult in tensor_reference(min(m, n), max(m, n)).items():
            expected[size] += c * mult
        for a, b in ((m, n), (n, m)):
            acc = dict(table)
            _add_tensor(acc, a, b, c)
            assert acc == expected, (a, b)

    @given(st.integers(1, 200), st.integers(1, 200))
    def test_largest_block_at_most_q(self, m, n):
        q = 1 << (max(m, n) - 1).bit_length()
        assert all(s <= q for s, _ in tensor_decompose(m, n).parts)


TABLE_1 = {
    1: ("0", "1", "0", "1"),
    2: ("1", "2 1", "1", "2 1"),
    3: ("3", "4 2", "3", "4 1^2"),
    4: ("4 2", "4^2 2", "3^2", "4^2 1^2"),
    5: ("7 3", "8 4 3", "7 3", "8 4 1^3"),
    6: ("8 6 1", "8^2 4 1", "7^2 1", "8^2 2 1^3"),
    7: ("8^2 5", "8^3 4", "7^3", "8^3 1^4"),
    8: ("8^3 4", "8^4 4", "7^4", "8^4 1^4"),
    9: ("15 8^2 5", "16 8^3 5", "15 7^3", "16 8^3 1^5"),
}


class TestSquares:
    @pytest.mark.parametrize("n", TABLE_1)
    def test_against_published_table(self, n):
        e2v, s2v, e2w, s2w = TABLE_1[n]
        assert ext2_unipotent(n) == jt(e2v)
        assert sym2_unipotent(n) == jt(s2v)
        assert ext2_nilpotent(n) == jt(e2w)
        assert sym2_nilpotent(n) == jt(s2w)

    def test_spot_values(self):
        assert ext2_unipotent(7) == jt("8^2 5")
        assert ext2_unipotent(9) == jt("15 8^2 5")
        assert sym2_unipotent(3) == jt("4 2")
        assert sym2_unipotent(8) == jt("8^4 4")
        assert ext2_nilpotent(8) == jt("7^4")
        assert sym2_nilpotent(5) == jt("8 4 1^3")
        assert ext2_nilpotent_rec(6) == jt("7^2 1")
        assert sym2_nilpotent_rec(4) == jt("4^2 1^2")
        assert sym2_nilpotent_rec(1) == jt("1")

    def test_rows_equal_the_per_n_functions(self):
        # every table size keeps the rows that its later rows read; the
        # canonical string determines the parts, so text equality is parts equality
        squares = (ext2_unipotent, sym2_unipotent, ext2_nilpotent, sym2_nilpotent)
        expected = [(n, *(format_jordan_type(square(n)) for square in squares))
                    for n in range(1, 301)]
        for max_n in range(301):
            assert list(square_rows(max_n)) == expected[:max_n], max_n

    @pytest.mark.parametrize(
        "fn", [ext2_unipotent, sym2_unipotent, ext2_nilpotent, sym2_nilpotent]
    )
    def test_rejects_nonpositive(self, fn):
        with pytest.raises(ValueError):
            fn(0)

    @pytest.mark.parametrize("fn", [ext2_nilpotent, sym2_nilpotent])
    def test_closed_forms_pass_validation(self, fn):
        # the closed forms build their parts without re-running __post_init__
        for n in range(1, (1 << 12) + 1):
            got = fn(n)
            assert got == JordanType(got.parts), n

    @given(st.integers(1, 2000))
    def test_dimensions(self, n):
        assert ext2_unipotent(n).total_dim == n * (n - 1) // 2
        assert ext2_nilpotent(n).total_dim == n * (n - 1) // 2
        assert sym2_unipotent(n).total_dim == n * (n + 1) // 2
        assert sym2_nilpotent(n).total_dim == n * (n + 1) // 2

    @given(st.integers(1, 5000))
    def test_closed_equals_recursive(self, n):
        assert ext2_nilpotent(n) == ext2_nilpotent_rec(n)
        assert sym2_nilpotent(n) == sym2_nilpotent_rec(n)

    @given(st.integers(1, 5000))
    def test_exterior_is_decremented_symmetric(self, n):
        assert ext2_nilpotent(n) == sym2_nilpotent(n).decremented()

    @given(st.integers(1, 5000))
    def test_symmetric_block_count(self, n):
        assert sym2_nilpotent(n).block_count == n

    @given(st.integers(2, 5000))
    def test_largest_block_at_most_q(self, n):
        q = 1 << (n - 1).bit_length()
        for fn in (ext2_unipotent, sym2_unipotent, ext2_nilpotent, sym2_nilpotent):
            assert all(s <= q for s, _ in fn(n).parts)


class TestDecomposeExpr:
    def test_ext2_of_sum(self):
        e = Ext2(Sum((Atom("unipotent", 2), Atom("unipotent", 1))))
        assert decompose_expr(e) == jt("2 1")

    def test_sym2_of_repeated_trivial(self):
        e = Sym2(Scaled(2, Atom("nilpotent", 1)))
        assert decompose_expr(e) == jt("1^3")

    def test_tensor_atoms(self):
        assert decompose_expr(Tensor(Atom("unipotent", 3), Atom("unipotent", 4))) == jt("4^3")

    def test_nested_functor(self):
        # S2(V_2) = V_2 + V_1, so E2(S2(V_2)) = E2(V_2 + V_1) = V_1 + V_2 x V_1
        inner = decompose_expr(Sym2(Atom("unipotent", 2)))
        assert inner == jt("2 1")
        assert decompose_expr(Ext2(Sym2(Atom("unipotent", 2)))) == jt("2 1")

    def test_multiplicity_expansion(self):
        # E2(V_3^2) = E2(V_3)^2 + V_3 x V_3
        direct = decompose_expr(Ext2(Scaled(2, Atom("unipotent", 3))))
        ext2 = decompose_expr(Ext2(Atom("unipotent", 3)))
        expected = JordanType.from_pairs(
            [(s, 2 * m) for s, m in ext2.parts] + list(tensor_decompose(3, 3).parts))
        assert direct == expected

    def test_dimension_consistency(self):
        e = Sym2(Sum((Atom("nilpotent", 5), Scaled(2, Atom("nilpotent", 3)))))
        d = 5 + 6
        assert decompose_expr(e).total_dim == d * (d + 1) // 2

    def test_nested_repeats_evaluated_once(self):
        # S_0 = W1, S_k = 2*(W1 + S_(k-1)): 2^40 copies of W1 at the bottom,
        # yet each level is evaluated once with a doubled copy count
        depth = 40
        expr = parse_expr("2*(W1 + " * depth + "W1" + ")" * depth)
        assert decompose_expr(expr) == JordanType.from_pairs([(1, 3 * 2**depth - 2)])


MAX_ORACLE_DIM = 200


@st.composite
def module_text(draw, letter, budget, depth):
    """(text, dim) of a random module expression of dimension at most budget.

    Atom sizes are small, so equal sizes recur across sum terms, and atoms
    carry multiplicities ('3*W5') and non-atoms repeat ('2*(...)').
    """
    choices = ["atom"]
    if depth > 0 and budget >= 2:
        choices += ["sum", "repeat", "tensor"]
    if depth > 0 and budget >= 3:
        choices += ["ext2", "sym2"]
    choice = draw(st.sampled_from(choices))
    if choice == "atom":
        dim = draw(st.integers(1, min(budget, 8)))
        mult = draw(st.integers(1, min(3, budget // dim)))
        return (f"{mult}*{letter}{dim}" if mult > 1 else f"{letter}{dim}"), dim * mult
    if choice == "sum":
        left, dl = draw(module_text(letter, budget - 1, depth - 1))
        right, dr = draw(module_text(letter, budget - dl, depth - 1))
        return f"{left} + {right}", dl + dr
    if choice == "repeat":
        count = draw(st.integers(2, 3 if budget >= 3 else 2))
        inner, d = draw(module_text(letter, budget // count, depth - 1))
        return f"{count}*({inner})", count * d
    if choice == "tensor":
        left, dl = draw(module_text(letter, min(budget // 2, 12), depth - 1))
        right, dr = draw(module_text(letter, budget // max(dl, 1), depth - 1))
        return f"T({left}, {right})", dl * dr
    inner_budget = 1
    while (inner_budget + 1) * (inner_budget + 2) // 2 <= budget:
        inner_budget += 1
    inner, d = draw(module_text(letter, inner_budget, depth - 1))
    functor = "E2" if choice == "ext2" else "S2"
    return f"{functor}({inner})", d * (d - 1) // 2 if choice == "ext2" else d * (d + 1) // 2


@st.composite
def oracle_sized_expr(draw):
    letter = draw(st.sampled_from("VW"))
    text, _ = draw(module_text(letter, MAX_ORACLE_DIM, 3))
    return text


class TestDecomposeAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(oracle_sized_expr())
    @example("S2(3*W5)")
    @example("E2(3*V5)")
    @example("S2(W3 + W4 + W3)")
    @example("E2(2*V2 + V2 + V3)")
    @example("2*(S2(W2 + W2) + T(W3, 2*W3))")
    @example("S2(E2(W3 + W2) + 2*(W3))")
    @example("T(S2(2*V2), E2(V2 + V3))")
    @example("E2(S2(W2) + 2*(W1 + W2))")
    def test_formula_equals_oracle(self, text):
        expr = parse_expr(text)
        expected = oracle_expr_jordan_type(expr)
        assert expected.total_dim <= MAX_ORACLE_DIM
        assert decompose_expr(expr) == expected, text


class TestWideSquares:
    def test_sym2_of_400_distinct_atoms(self):
        dims = range(1, 401)
        text = "S2(" + " + ".join(f"W{d}" for d in dims) + ")"
        result = decompose_expr(parse_expr(text))
        total = sum(dims)
        assert result.total_dim == total * (total + 1) // 2
        # S2(W_d) has d blocks and W_a tensor W_b has min(a, b) blocks
        assert result.block_count == total + sum(
            min(a, b) for i, a in enumerate(dims) for b in dims[i + 1 :]
        )


@pytest.mark.parametrize("recursion", [ext2_nilpotent_rec, sym2_nilpotent_rec])
def test_recursions_refuse_n_below_1(recursion):
    with pytest.raises(ValueError) as info:
        recursion(0)
    assert str(info.value) == "n must be positive"
