"""One sha256 over the argv, exit code, stdout and stderr of a fixed list of CLI calls.

    python3 tools/cli_digest.py [--tree DIR]

The calls are every call of seeds 1-3 of the three benchmark workloads (as
bench/workloads.py generates them), `basis` for n <= 64, 96 and 128 with
both functors (plain, --verify, and --dump --verify), and a few error
paths: 1,315 `char2squares.cli.main` calls in all, made in one process in
that order.  DIR (default: this checkout) is the tree whose src/ and
bench/ are imported, so the same script digests a parent tree unpacked
with `git archive`.  Two trees whose CLI output is byte-identical print
the same digest.  CHAR2SQUARES_ORACLE_CAP is cleared first, so the default
cap applies.

Stdlib only, and outside bench/ and tests/: it reads bench/workloads.py and
changes nothing there.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
BASIS_SIZES = (*range(1, 65), 96, 128)
ERROR_PATHS = (
    ("expr", "0*W3"),  # the parser's multiplicity check, after the factor
    ("expr", "2*(W3 + W2"),  # a syntax error
    ("table", "--max", "65537"),  # over the row limit
    ("basis", "--n", "0"),  # a usage error
)


def calls(workloads) -> list[list[str]]:
    argvs = [list(call.argv) for name in workloads.WORKLOADS for seed in SEEDS
             for call in workloads.generate(name, seed)]
    for functor in ("tensor", "sym2"):
        for n in BASIS_SIZES:
            base = ["basis", "--n", str(n), "--functor", functor]
            argvs += [base, base + ["--verify"], base + ["--dump", "--verify"]]
    return argvs + [list(argv) for argv in ERROR_PATHS]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="the checkout whose src/ and bench/ are imported")
    tree = parser.parse_args(argv).tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    os.environ.pop("CHAR2SQUARES_ORACLE_CAP", None)
    import workloads
    from char2squares import cli

    digest, argvs = hashlib.sha256(), calls(workloads)
    for args in argvs:
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(list(args), out, err)
        digest.update((json.dumps([args, code, out.getvalue(), err.getvalue()]) + "\n").encode())
    print(f"{digest.hexdigest()}  {len(argvs)} calls  {tree}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
