"""Dense GF(2) matrix algebra for the tests' full-power references.

The package computes Jordan types without multiplying matrices; these
build the powers and sums that the references compare against.
"""

from functools import reduce
from operator import xor

from char2squares.gf2 import Gf2Matrix, _support


def identity(n):
    return Gf2Matrix(n, n, tuple(1 << i for i in range(n)))


def mul(a, b):
    """Matrix product: row i of a*b is the XOR of the rows of b at the ones of row i of a."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    rows = b.data.__getitem__
    return Gf2Matrix(a.rows, b.cols, tuple(reduce(xor, map(rows, _support(r)), 0) for r in a.data))


def add(a, b):
    return Gf2Matrix(a.rows, a.cols, tuple(map(xor, a.data, b.data)))
