"""Recursive-descent parser for module expressions.

Grammar (whitespace insensitive):

    expr   := term ('+' term)*
    term   := [int '*'] factor
    factor := atom | 'T(' expr ',' expr ')' | 'E2(' expr ')' | 'S2(' expr ')'
            | '(' expr ')'
    atom   := ('V' | 'W') int

V atoms are unipotent blocks, W atoms nilpotent blocks.  'k*X' is k copies
of any factor X, for any k >= 1, held as one Scaled(k, X) node.  Brackets
may nest at most MAX_DEPTH levels deep.
"""

from __future__ import annotations

import re

from .core import Atom, Ext2, ModuleExpr, Scaled, Sum, Sym2, Tensor

# brackets nested deeper than this are a syntax error; it also bounds the
# recursion depth of everything that walks the parsed expression
MAX_DEPTH = 300

# what int() reads: a sign, decimal digits with single underscores between
# them, and whitespace around
_INT_SYNTAX = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IntegerTooLong(ValueError):
    """A well-formed integer with more digits than Python converts (4300 by default)."""


def to_int(text: str) -> int:
    """int(text), but a well-formed integer too long to convert raises IntegerTooLong,
    "integer too long (N digits)", where int calls it an invalid literal."""
    try:
        return int(text)
    except ValueError:
        if not _INT_SYNTAX.fullmatch(text):
            raise
    raise IntegerTooLong(f"integer too long ({sum(map(str.isdecimal, text))} digits)")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        try:
            return to_int(self.text[start : self.pos])
        except IntegerTooLong as exc:
            self.pos = start
            raise self.error(str(exc)) from None

    def open(self) -> None:
        """Consume '(' and enter one more level of nesting."""
        self.expect("(")
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error(f"brackets nested deeper than {MAX_DEPTH}")

    def close(self) -> None:
        self.expect(")")
        self.depth -= 1

    def expr(self) -> ModuleExpr:
        # each term is parsed inline, so that a bracket level costs two
        # stack frames (expr, factor) rather than three
        terms = []
        while True:
            if not self.peek().isdecimal():
                terms.append(self.factor())
            else:  # 'count * factor'
                count = self.integer()
                self.expect("*")
                inner = self.factor()
                if count < 1:
                    raise self.error("multiplicity must be positive")
                terms.append(Scaled(count, inner))
            if self.peek() != "+":
                break
            self.pos += 1
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def factor(self) -> ModuleExpr:
        ch = self.peek()
        if ch == "(":
            self.open()
            inner = self.expr()
            self.close()
            return inner
        if ch == "T":
            self.pos += 1
            self.open()
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.close()
            return Tensor(left, right)
        if ch in ("E", "S"):
            start = self.pos
            self.pos += 1
            if self.peek() != "2":
                self.pos = start
                raise self.error("expected 'E2' or 'S2'")
            self.pos += 1
            self.open()
            inner = self.expr()
            self.close()
            return Ext2(inner) if ch == "E" else Sym2(inner)
        if ch in ("V", "W"):
            self.pos += 1
            dim = self.integer()
            if dim < 1:
                raise self.error("atom dimension must be positive")
            kind = "unipotent" if ch == "V" else "nilpotent"
            return Atom(kind, dim)
        raise self.error("expected an atom, functor or parenthesized expression")


def parse_expr(text: str) -> ModuleExpr:
    """Parse a module expression; raises ExprSyntaxError with a position."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text)
    result = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("unexpected trailing input")
    return result
