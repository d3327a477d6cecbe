"""Alternating parent/change pairs of the benchmark, written as one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV --runs basis_verify:4001-4010 \\
        --runs formula_expr:4011-4013 --seconds 40 --claim basis_verify:wall_s \\
        --change "what the change does" --out BENCH_N.json

Each pair runs `python3 bench/run.py --workload W --seed S --seconds T` once
in the parent tree and once in this working tree, one seed per pair, pairs
numbered in the order of --runs.  Even pairs run the parent first, odd pairs
the change.  The parent tree is a copy of REV's committed files, which
`git archive` writes into a temporary directory.  Each run's last stdout
line goes under `result`.  Whether the claimed metric is better lower or
higher is read from BENCHMARK.json.

Stdlib only, and outside bench/ and tests/, so that it changes neither the
benchmark nor the test suite.  It prints each side's median and quartiles of
every end-to-end metric, per workload, and the pairs the change wins on the
claimed metric.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> tuple[str, list[int]]:
    """WORKLOAD:A-B or WORKLOAD:A as (workload, seeds)."""
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    if not workload or not first.isdigit() or not (last or first).isdigit():
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:A-B, got {text!r}")
    return workload, list(range(int(first), int(last or first) + 1))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent revision, named in the output")
    parser.add_argument("--runs", type=seed_range, action="append", required=True,
                        metavar="WORKLOAD:A-B", help="one pair per seed; may be repeated")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--claim", required=True, metavar="WORKLOAD:METRIC")
    parser.add_argument("--change", required=True, help="what the change does, in a line")
    parser.add_argument("--note", default="", help="appended to the description")
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(runs: list[dict], claim_workload: str, metric: str, better: str) -> str:
    lines = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        for side in ("parent", "change"):
            mine = [run["result"] for run in runs if run["workload"] == workload and run["side"] == side]
            figures = []
            for name in mine[0]["metrics"]:
                values = sorted(result["metrics"][name]["value"] for result in mine)
                q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                figures.append(f"{name} {q2:.4g} [{q1:.4g}, {q3:.4g}]")
            failed = sum(result["failed"] for result in mine)
            lines.append(f"{workload} {side} ({len(mine)} runs, {failed} failed calls): " + ", ".join(figures))
    pairs: dict[int, dict[str, float]] = {}
    for run in runs:
        if run["workload"] == claim_workload:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"][metric]["value"]
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p["parent"] - p["change"]) > 0 for p in pairs.values())
    lines.append(f"claim {claim_workload} {metric}: the change wins {wins} of {len(pairs)} pairs")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    claim_workload, _, metric = args.claim.partition(":")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = next(m["better"] for m in metrics if m["name"] == metric)
    with tempfile.TemporaryDirectory() as parent:
        archive = subprocess.run(["git", "archive", "--format=tar", args.parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent)
        trees = {"parent": Path(parent), "change": ROOT}
        runs, pair = [], 0
        for workload, seeds in args.runs:
            for seed in seeds:
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order, 1):
                    result = run_bench(trees[side], workload, seed, args.seconds)
                    runs.append({"workload": workload, "side": side, "seed": seed, "pair": pair,
                                 "position": position, "result": result})
                    print(f"pair {pair} {workload} seed {seed} {side}: "
                          f"{result['metrics'][metric]['value']:.4g}", file=sys.stderr, flush=True)
                pair += 1
    spans = ", ".join(f"{seeds[0]}-{seeds[-1]} ({workload})" for workload, seeds in args.runs)
    description = (
        f"Alternating parent/change pairs of `python3 bench/run.py --workload W --seed S "
        f"--seconds {args.seconds:g}`, run by tools/bench_pairs.py, each run's last stdout line "
        f"under `result`. `position` is 1 for the side that ran first in its pair; even pairs "
        f"run the parent first. Seeds: {spans}."
        + (" PYTHONDONTWRITEBYTECODE=1 is set, so each `setup_s` probe compiles the package "
           "from source." if os.environ.get("PYTHONDONTWRITEBYTECODE") else "")
        + (f" {args.note}" if args.note else "")
    )
    report = {
        "description": description,
        "parent": args.parent,
        "change": args.change,
        "claim": {"workload": claim_workload, "metric": metric, "better": better},
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "os": f"{platform.system()} {platform.machine()}"},
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(summary(runs, claim_workload, metric, better))
    return 0


if __name__ == "__main__":
    sys.exit(main())
