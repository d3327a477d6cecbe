"""Every bound that ends a command with exit 3 raises core.LimitExceeded, and
no bound names a count that Python will not print (10^4300 or more)."""

import io

import pytest

import char2squares
from char2squares import LimitExceeded, OracleCapExceeded, decompose_expr, expr_images, oracle
from char2squares.cli import main
from char2squares.core import FUNCTORS, KINDS, Atom, Ext2, Sum, Sym2, Tensor
from char2squares.parser import parse_expr


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# 1, 2,150, 2,151 and 4,300 digits, all nines and 1 followed by zeros: a
# square of 2,151 digits or more reaches 10^4300
VALUES = [text for digits in (1, 2150, 2151, 4300)
          for text in ("9" * digits, "1" + "0" * (digits - 1))]


def _sweep():
    for functor in FUNCTORS:
        for kind in KINDS:
            # the formula route and the oracle's cap; --method both runs the two
            # in turn and is covered by the small cases of test_cli
            for method in ("formula", "oracle"):
                for value in VALUES:
                    yield ("decompose", "--functor", functor, "--kind", kind, "--n", value,
                           "--method", method)
                    if functor == "tensor":
                        yield ("decompose", "--functor", functor, "--kind", kind, "--n", "3",
                               "--m", value, "--method", method)
    for functor in ("tensor", "sym2"):
        for value in VALUES:
            yield ("basis", "--n", value, "--functor", functor)
            yield ("basis", "--n", value, "--functor", functor, "--verify")
    for value in VALUES:
        yield ("table", "--max", value)


class TestNoBoundPrintsAnUnprintableCount:
    def test_sweep_of_integer_options(self):
        for argv in _sweep():
            code, out, err = run_cli(*argv)
            assert code in (0, 1, 3), argv
            assert code == 0 or out == "", argv
            assert "set_int_max_str_digits" not in err, argv

    @pytest.mark.parametrize("functor, zeros", [("tensor", 2150), ("sym2", 2200)])
    @pytest.mark.parametrize("verify", [(), ("--verify",)])
    def test_basis_beyond_printable_is_named(self, functor, zeros, verify):
        code, out, err = run_cli("basis", "--n", "1" + "0" * zeros, "--functor", functor, *verify)
        assert (code, out) == (3, "")
        assert err == ("error: basis has at least 10^4300 chain vectors, "
                       "above the limit 1048576\n")

    def test_basis_below_printable_names_its_count(self):
        n = 10**2150 - 1
        code, out, err = run_cli("basis", "--n", str(n))
        assert (code, out) == (3, "")
        assert err == f"error: basis has {n * n} chain vectors, above the limit 1048576\n"


class TestLibraryLimits:
    def test_exported(self):
        assert char2squares.LimitExceeded is LimitExceeded
        assert issubclass(OracleCapExceeded, LimitExceeded)

    def test_decompose_expr_over_the_multiplicity_limit(self):
        # multiplicities square at every S2: 16 levels over W2 reach 10^4300
        text = "W2"
        for _ in range(16):
            text = f"S2({text})"
        with pytest.raises(LimitExceeded, match="a block multiplicity reaches the limit 10"):
            decompose_expr(parse_expr(text))

    def test_expr_images_over_the_cap(self, monkeypatch):
        monkeypatch.setenv(oracle.CAP_ENV_VAR, "9")
        with pytest.raises(LimitExceeded) as caught:
            expr_images(parse_expr("T(W2, W5)"))
        assert type(caught.value) is OracleCapExceeded
        assert (caught.value.dim, caught.value.cap) == (10, 9)
        assert str(caught.value) == "oracle space has dimension 10, above the cap 9"

    @pytest.mark.parametrize("expr", [
        Sum((Atom("nilpotent", 2), "W3")),
        Ext2(Tensor(Atom("unipotent", 2), 7)),
        Sym2(None),
    ])
    def test_non_expression_node(self, expr):
        for route in (decompose_expr, expr_images):
            with pytest.raises(TypeError, match="^not a module expression: "):
                route(expr)
