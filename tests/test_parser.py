import pytest

from char2squares.core import Atom, Ext2, Scaled, Sum, Sym2, Tensor
from char2squares.parser import MAX_DEPTH, ExprSyntaxError, IntegerTooLong, parse_expr, to_int


class TestParse:
    def test_simple_functor(self):
        assert parse_expr("E2(V9)") == Ext2(Atom("unipotent", 9))

    def test_sym_with_multiplicity(self):
        expr = parse_expr("S2(W5 + 2*W3)")
        assert expr == Sym2(Sum((Atom("nilpotent", 5), Scaled(2, Atom("nilpotent", 3)))))

    def test_tensor(self):
        assert parse_expr("T(V2, V3)") == Tensor(Atom("unipotent", 2), Atom("unipotent", 3))

    def test_whitespace_insensitive(self):
        assert parse_expr(" T( V2 ,V3 ) ") == parse_expr("T(V2,V3)")

    def test_parenthesized_sum(self):
        expr = parse_expr("(V1 + V2) + V3")
        assert expr == Sum((Sum((Atom("unipotent", 1), Atom("unipotent", 2))), Atom("unipotent", 3)))

    def test_repeated_non_atom(self):
        expr = parse_expr("2*E2(V4)")
        assert expr == Scaled(2, Ext2(Atom("unipotent", 4)))

    def test_nested(self):
        assert parse_expr("S2(E2(W4))") == Sym2(Ext2(Atom("nilpotent", 4)))


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        ["", "  ", "V", "V0", "X3", "T(V1)", "T(V1,)", "E2", "E3(V1)", "V2 +", "2*", "V2)", "V2 V3", "0*V2"],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(ExprSyntaxError):
            parse_expr(bad)

    def test_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("V2 + @")
        assert exc.value.position == 5
        assert "position" in str(exc.value)

    @pytest.mark.parametrize("text, message, position", [
        ("W\u00b2", "expected an integer", 1),  # superscript two: a digit, not decimal
        ("\u00b2*W3", "expected an atom", 0),
    ])
    def test_only_decimal_digits_are_integers(self, text, message, position):
        with pytest.raises(ExprSyntaxError, match=message) as exc:
            parse_expr(text)
        assert exc.value.position == position

    def test_non_ascii_decimal_digits_parse(self):
        assert parse_expr("W\u0663") == parse_expr("W3")  # Arabic-Indic three

    @pytest.mark.parametrize("opener", ["(", "S2(", "T(V1, "])
    def test_nesting_limit(self, opener):
        depth = MAX_DEPTH
        assert parse_expr(opener * depth + "V3" + ")" * depth)
        with pytest.raises(ExprSyntaxError, match="nested deeper"):
            parse_expr(opener * (depth + 1) + "V3" + ")" * (depth + 1))

    def test_mixed_kinds_parse_but_fail_evaluation(self):
        # the grammar accepts mixed atoms; kind checking happens on evaluation
        from char2squares.core import MixedKindError, expr_kind

        expr = parse_expr("V2 + W2")
        with pytest.raises(MixedKindError):
            expr_kind(expr)


class TestToInt:
    @pytest.mark.parametrize("text", ["0", "-7", " +12 ", "1_000", "\u0663", "9" * 4300])
    def test_equals_int(self, text):
        assert to_int(text) == int(text)

    @pytest.mark.parametrize("text, digits", [
        ("9" * 4301, 4301), ("\t-" + "1_1" * 3000 + "\n", 6000), ("\u0663" * 4301, 4301),
    ])
    def test_too_long(self, text, digits):
        with pytest.raises(IntegerTooLong, match=rf"^integer too long \({digits} digits\)$"):
            to_int(text)

    @pytest.mark.parametrize("text", ["", "x", "1__2", "_1", "1_", "+-1", "- 1", "1.0", "9" * 4301 + "x"])
    def test_invalid_raises_ints_error(self, text):
        with pytest.raises(ValueError) as expected:
            int(text)
        with pytest.raises(ValueError) as got:
            to_int(text)
        assert type(got.value) is ValueError
        assert str(got.value) == str(expected.value)
