"""Fuzz the CLI: every input must end in exit code 0, 1, 2 or 3, never an exception.

Expressions run through the oracle under a cap of 200 dimensions, which keeps
every run small whatever the text asks for.
"""

import io
import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from char2squares.cli import main
from char2squares.core import FUNCTORS, KINDS
from test_formulas import module_text

CAP = 200
# every character the expression grammar uses
ALPHABET = "VWTES2()+*, 0123456789"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"CHAR2SQUARES_ORACLE_CAP": str(CAP)}):
        code = main(argv, out=out, err=err)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "Exceeds the limit" not in err.getvalue()  # an integer too long to print
    return code


@st.composite
def mutated_text(draw):
    """A valid expression with one character deleted, inserted or duplicated."""
    text, _ = draw(module_text(draw(st.sampled_from("VW")), CAP, 3))
    i = draw(st.integers(0, len(text) - 1))
    op = draw(st.sampled_from(["delete", "insert", "duplicate"]))
    if op == "delete":
        return text[:i] + text[i + 1 :]
    if op == "insert":
        return text[:i] + draw(st.sampled_from(ALPHABET)) + text[i:]
    return text[: i + 1] + text[i:]


@st.composite
def long_count_text(draw):
    """A valid expression, or a mutated one, repeated up to 10^4300 - 1 times,
    the longest count the parser takes."""
    text, _ = draw(module_text(draw(st.sampled_from("VW")), CAP, 3))
    text = draw(st.one_of(st.just(text), mutated_text()))
    return f"{draw(st.integers(1, 10**4300 - 1))}*({text})"


ints = st.integers(-2, 12).map(str)


@st.composite
def other_argv(draw):
    command = draw(st.sampled_from(["decompose", "basis", "table"]))
    if command == "table":
        return ["table", "--max", draw(ints)]
    if command == "basis":
        argv = ["basis", "--n", draw(ints), "--functor", draw(st.sampled_from(["tensor", "sym2"]))]
        return argv + draw(st.sampled_from([[], ["--verify"], ["--dump"], ["--verify", "--dump"]]))
    argv = [
        "decompose",
        "--functor", draw(st.sampled_from(FUNCTORS)),
        "--kind", draw(st.sampled_from(KINDS)),
        "--n", draw(ints),
        "--method", draw(st.sampled_from(["formula", "oracle", "both"])),
        "--format", draw(st.sampled_from(["text", "json"])),
    ]
    return argv + draw(st.sampled_from([[], ["--m", draw(ints)]]))


class TestCliFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(mutated_text(), long_count_text(), st.text(ALPHABET, max_size=30)))
    def test_expr_exits_cleanly(self, text):
        run(["expr", text, "--method", "oracle"])

    @settings(max_examples=150, deadline=None)
    @given(other_argv())
    def test_other_commands_exit_cleanly(self, argv):
        run(argv)
