"""Command-line interface.

Subcommands: decompose (a square of a single block, shorthand for expr on
E2(Xn), S2(Xn) or T(Xm, Xn)), expr (symbolic expression), table
(overview of small squares), basis (explicit Jordan chains).  Exit codes:
0 success, 1 usage or parse error, 2 verification mismatch, 3 resource cap
or output limit: every bound raises core.LimitExceeded, the oracle's cap
its subclass OracleCapExceeded, and main maps that one type to exit 3.
--help and -h write the help text to out and return 0.

main() may be called any number of times in one process: the argument
parser is built on the first call and reused, and no other state is kept
between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from operator import itemgetter

from . import basis as basis_mod
from . import formulas, oracle
from .core import (
    FUNCTORS, KINDS, PRINTABLE_LIMIT, LimitExceeded, format_jordan_type, shown_count,
    square_expr,
)
from .parser import ExprSyntaxError, IntegerTooLong, parse_expr, to_int

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_CAP = 3

# Bounds on what a command may print or build, whatever the oracle cap:
# the decimal digits of every size and multiplicity printed, summed, the
# chain vectors of a basis, which its memory grows with, the rows of a
# table, which its time, memory and output grow with, and the monomials of
# a basis --dump, which its output grows with.
OUTPUT_DIGIT_LIMIT = 10**6
BASIS_VECTOR_LIMIT = 2**20
TABLE_ROW_LIMIT = 2**16
DUMP_MONOMIAL_LIMIT = 2**22


class _CliError(Exception):
    """A usage error (exit 1)."""


class _Help(Exception):
    """A --help or -h: its text, which main writes to out (exit 0)."""


def _int_option(text: str) -> int:
    """The value of a type=int option; one too long to convert is named as such."""
    try:
        return to_int(text)
    except IntegerTooLong as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # type=int options convert with _int_option; any other bad value is
        # still reported as an "invalid int value", after the option's type
        self.register("type", int, _int_option)

    # argparse exits with status 2 by default; usage errors must exit 1
    def error(self, message: str):
        raise _CliError(message)

    # argparse prints help to sys.stdout and exits; main returns it instead
    def print_help(self, file=None):
        raise _Help(self.format_help())


# Built on first use and reused: parse_args keeps no state in the parser, and
# building it costs several times what a formula command does.
@functools.cache
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="char2squares",
        description="Jordan types of tensor, exterior and symmetric squares "
        "of Jordan blocks in characteristic two.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="decompose a square of a single block")
    dec.add_argument("--functor", required=True, choices=FUNCTORS)
    dec.add_argument("--kind", required=True, choices=KINDS)
    dec.add_argument("--n", required=True, type=int)
    dec.add_argument("--m", type=int, help="second block size (tensor only)")
    dec.add_argument("--method", default="formula", choices=("formula", "oracle", "both"))
    dec.add_argument("--format", default="text", choices=("text", "json"))

    tab = sub.add_parser("table", help="print squares of V_n and W_n for small n")
    tab.add_argument("--max", dest="max_n", default=9, type=int)

    bas = sub.add_parser("basis", help="build Jordan chains for the nilpotent action")
    bas.add_argument("--n", required=True, type=int)
    bas.add_argument("--functor", default="tensor", choices=("tensor", "sym2"))
    bas.add_argument("--verify", action="store_true")
    bas.add_argument("--dump", action="store_true")

    exp = sub.add_parser("expr", help="decompose a module expression")
    exp.add_argument("text")
    exp.add_argument("--method", default="formula", choices=("formula", "oracle", "both"))
    exp.add_argument("--format", default="text", choices=("text", "json"))
    return parser


def _cmd_decompose(args, out, err) -> int:
    if args.n < 1 or (args.m is not None and args.m < 1):
        raise _CliError("block sizes must be positive")
    if args.m is not None and args.functor != "tensor":
        raise _CliError("--m is only valid with --functor tensor")
    input_desc = {
        "functor": args.functor,
        "kind": args.kind,
        "n": args.n,
        **({"m": args.m} if args.m is not None else {}),
    }
    expr = square_expr(args.functor, args.kind, args.n, args.m)
    return _decompose(expr, input_desc, args, out, err)


def _cmd_expr(args, out, err) -> int:
    try:
        expr = parse_expr(args.text)
    except ExprSyntaxError as exc:
        raise _CliError(f"parse error: {exc}") from exc
    return _decompose(expr, {"expr": args.text}, args, out, err)


def _decompose(expr, input_desc: dict, args, out, err) -> int:
    """Evaluate expr by args.method, print each result, and report a mismatch;
    either route raises MixedKindError, a ValueError, on mixed V and W atoms."""
    results = []
    if args.method in ("formula", "both"):
        results.append(formulas.decompose_expr(expr))
    if args.method in ("oracle", "both"):
        try:
            results.append(oracle.oracle_expr_jordan_type(expr))
        except oracle.OracleCapExceeded as exc:
            if args.method == "oracle":
                raise
            print(f"warning: {exc}; falling back to formula only", file=err)
    # total_dim bounds every size and multiplicity printed: from 10^4300 on, Python
    # will not print it in JSON.  Below that their digits may run to megabytes; they
    # are counted per part only where 2 * parts * digits(total_dim) reaches the limit.
    dims = [result.total_dim for result in results]
    huge = any(dim >= PRINTABLE_LIMIT for dim in dims)
    digits = sum(2 * len(r.parts) * (d.bit_length() * 30103 // 100000 + 1) for r, d in zip(results, dims))
    if not huge and digits >= OUTPUT_DIGIT_LIMIT:
        digits = sum(x.bit_length() * 30103 // 100000 + 1
                     for result in results for part in result.parts for x in part)
    if huge or digits >= OUTPUT_DIGIT_LIMIT:
        form = "JSON" if args.format == "json" else "text"
        what = "total_dim reaches 10^4300" if huge else "sizes and multiplicities reach 10^6 digits"
        raise LimitExceeded(f"{what}, too long for {form} output")
    for result in results:
        if args.format == "json":
            payload = {
                "input": input_desc,
                "method": args.method,
                "blocks": [{"size": s, "multiplicity": m} for s, m in result.parts],
                "total_dim": result.total_dim,
            }
            print(json.dumps(payload), file=out)
        else:
            print(format_jordan_type(result), file=out)
    if len(results) == 2 and results[0] != results[1]:
        formula, ground_truth = map(format_jordan_type, results)
        print(f"error: formula and oracle disagree: formula {formula}, oracle {ground_truth}",
              file=err)
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_table(args, out, err) -> int:
    if args.max_n < 1:
        raise _CliError("--max must be positive")
    if args.max_n > TABLE_ROW_LIMIT:
        raise LimitExceeded(f"table has {args.max_n} rows, above the limit {TABLE_ROW_LIMIT}")
    # (n, ext2(V_n), sym2(V_n), ext2(W_n), sym2(W_n)), each row built as text from row q - n
    rows = list(formulas.square_rows(args.max_n))
    headers = ("n", "ext2(V_n)", "sym2(V_n)", "ext2(W_n)", "sym2(W_n)")
    # the widest n is max_n; each square is as wide as its widest cell
    widths = [len(str(args.max_n))] + [max(map(len, map(itemgetter(i), rows))) for i in range(1, 5)]
    line = "  ".join(f"{{:<{max(len(h), w)}}}" for h, w in zip(headers, widths))
    print(line.format(*headers), file=out)
    for row in rows:
        print(line.format(*row), file=out)
    return EXIT_OK


def _cmd_basis(args, out, err) -> int:
    if args.n < 1:
        raise _CliError("--n must be positive")
    expr = square_expr(args.functor, "nilpotent", args.n)
    vectors = oracle._dim(expr, PRINTABLE_LIMIT)
    if vectors > BASIS_VECTOR_LIMIT:
        raise LimitExceeded(f"basis has {shown_count(vectors)} chain vectors, "
                            f"above the limit {BASIS_VECTOR_LIMIT}")
    if args.verify:  # before any chain or output: a space over the cap builds nothing
        action = oracle.expr_forms(expr)
    if args.functor == "tensor":
        chains = basis_mod.build_tensor_basis(args.n)
        terminals = [basis_mod.build_z(c.s, args.n) for c in chains]
    else:
        chains = basis_mod.build_sym_basis(args.n)
        terminals = None
    if args.dump:
        monomials = sum(chain.packed.bit_count() for chain in chains)
        if monomials > DUMP_MONOMIAL_LIMIT:
            raise LimitExceeded(
                f"dump has {monomials} monomials, above the limit {DUMP_MONOMIAL_LIMIT}")
    print(
        f"{args.functor} square of W_{args.n}: {len(chains)} chains, "
        f"type {basis_mod.chain_type(chains)}",
        file=out,
    )
    if args.dump:
        for chain in chains:
            print(f"s={chain.s}: {basis_mod.format_chain(chain)}", file=out)
    if args.verify:
        report = basis_mod.verify_basis(chains, action, terminals)
        if report.ok:
            print(f"verification passed ({report.vector_count} vectors)", file=out)
        else:
            for failure in report.failures:
                print(f"verification failure: {failure}", file=err)
            return EXIT_MISMATCH
    return EXIT_OK


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "decompose":
            return _cmd_decompose(args, out, err)
        if args.command == "expr":
            return _cmd_expr(args, out, err)
        if args.command == "table":
            return _cmd_table(args, out, err)
        return _cmd_basis(args, out, err)
    except _Help as exc:
        print(exc, end="", file=out)
        return EXIT_OK
    except LimitExceeded as exc:
        print(f"error: {exc}", file=err)
        return EXIT_CAP
    except (_CliError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
