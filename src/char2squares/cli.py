"""Command-line interface.

Subcommands: decompose (a square of a single block, shorthand for expr on
E2(Xn), S2(Xn) or T(Xm, Xn)), expr (symbolic expression), table
(overview of small squares), basis (explicit Jordan chains).  Exit codes:
0 success, 1 usage or parse error, 2 verification mismatch, 3 resource cap
or output limit.

main() may be called any number of times in one process: the argument
parser is built on the first call and reused, and nothing else is kept
between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import basis as basis_mod
from . import formulas, oracle
from .core import FUNCTORS, KINDS, MixedKindError, expr_kind, format_jordan_type, square_expr
from .parser import ExprSyntaxError, parse_expr

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_CAP = 3

# Bounds on what a command may print or build, whatever the oracle cap:
# the decimal digits of every size and multiplicity printed, summed, the
# chain vectors of a basis, which its memory grows with, and the monomials
# of a basis --dump, which its output grows with.
OUTPUT_DIGIT_LIMIT = 10**6
BASIS_VECTOR_LIMIT = 2**20
DUMP_MONOMIAL_LIMIT = 2**22


class _CliError(Exception):
    """A usage error (exit 1)."""


class _LimitExceeded(Exception):
    """A result too large to build or print (exit 3)."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; usage errors must exit 1
    def error(self, message: str):
        raise _CliError(message)


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
    return _decompose(expr, args.kind, input_desc, args, out, err)


def _cmd_expr(args, out, err) -> int:
    try:
        expr = parse_expr(args.text)
    except ExprSyntaxError as exc:
        raise _CliError(f"parse error: {exc}") from exc
    try:
        kind = expr_kind(expr)
    except MixedKindError as exc:
        raise _CliError(str(exc)) from exc
    return _decompose(expr, kind, {"expr": args.text}, args, out, err)


def _decompose(expr, kind, input_desc: dict, args, out, err) -> int:
    """Evaluate expr by args.method, print each result, and report a mismatch."""
    results = []
    if args.method in ("formula", "both"):
        results.append(formulas.decompose_expr(expr))
    if args.method in ("oracle", "both"):
        try:
            results.append(oracle.oracle_expr_jordan_type(expr, kind, cap=oracle.dim_cap()))
        except oracle.OracleCapExceeded as exc:
            if args.method == "oracle":
                raise
            print(f"warning: {exc}; falling back to formula only", file=err)
    # total_dim bounds every size and multiplicity printed: from 10^4300 on,
    # Python will not print it in JSON.  Below that their digits, bounded
    # from bit_length() without printing them, may still run to megabytes.
    huge = any(result.total_dim >= formulas.MULTIPLICITY_LIMIT for result in results)
    digits = sum(x.bit_length() * 30103 // 100000 + 1
                 for result in results for part in result.parts for x in part)
    if huge or digits >= OUTPUT_DIGIT_LIMIT:
        form = "JSON" if args.format == "json" else "text"
        what = "total_dim reaches 10^4300" if huge else "sizes and multiplicities reach 10^6 digits"
        raise _LimitExceeded(f"{what}, too long for {form} output")
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


def table_rows(max_n: int) -> list[tuple[int, str, str, str, str]]:
    rows = []
    for n in range(1, max_n + 1):
        rows.append(
            (
                n,
                format_jordan_type(formulas.ext2_unipotent(n)),
                format_jordan_type(formulas.sym2_unipotent(n)),
                format_jordan_type(formulas.ext2_nilpotent(n)),
                format_jordan_type(formulas.sym2_nilpotent(n)),
            )
        )
    return rows


def _cmd_table(args, out, err) -> int:
    if args.max_n < 1:
        raise _CliError("--max must be positive")
    rows = table_rows(args.max_n)
    headers = ("n", "ext2(V_n)", "sym2(V_n)", "ext2(W_n)", "sym2(W_n)")
    table = [tuple(str(c) for c in row) for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in table)) for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)), file=out)
    for row in table:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)), file=out)
    return EXIT_OK


def _cmd_basis(args, out, err) -> int:
    if args.n < 1:
        raise _CliError("--n must be positive")
    vectors = args.n * args.n if args.functor == "tensor" else args.n * (args.n + 1) // 2
    if vectors > BASIS_VECTOR_LIMIT:
        raise _LimitExceeded(
            f"basis has {vectors} chain vectors, above the limit {BASIS_VECTOR_LIMIT}")
    cap = oracle.dim_cap() if args.verify else None  # before any output
    if args.functor == "tensor":
        chains = basis_mod.build_tensor_basis(args.n)
        terminals = [basis_mod.build_z(c.s, args.n) for c in chains]
    else:
        chains = basis_mod.build_sym_basis(args.n)
        terminals = None
    if args.dump:
        monomials = sum(v.mask.bit_count() for chain in chains for v in chain.vectors)
        if monomials > DUMP_MONOMIAL_LIMIT:
            raise _LimitExceeded(
                f"dump has {monomials} monomials, above the limit {DUMP_MONOMIAL_LIMIT}")
    if args.verify:  # built before any output: a space over the cap prints nothing
        expr = square_expr(args.functor, "nilpotent", args.n)
        images, _ = oracle.expr_images(expr, "nilpotent", cap=cap)
    print(
        f"{args.functor} square of W_{args.n}: {len(chains)} chains, "
        f"type {basis_mod.chain_type(chains)}",
        file=out,
    )
    if args.dump:
        for chain in chains:
            print(f"s={chain.s}: {basis_mod.format_chain(chain)}", file=out)
    if args.verify:
        report = basis_mod.verify_basis(chains, images, terminals)
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
    except (oracle.OracleCapExceeded, formulas.MultiplicityCapExceeded,
            _LimitExceeded) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_CAP
    except (_CliError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
