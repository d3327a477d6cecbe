"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py [--workloads A,B] [--seeds 1-10|1,1,1] [--seconds 20] [--trace 0|1]

Runs one process at a time from the root of the checkout and prints, per
workload and metric, the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median, plus the failed share.  The raw results
go to bench/out/sweep-<trace>-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("oracle_crosscheck", "basis_verify", "formula_expr")


def seeds(text: str) -> list[int]:
    """'1-10' or a comma list such as '1,1,1' (repeats allowed)."""
    if "-" in text:
        lo, _, hi = text.partition("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(seed) for seed in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    results = {}
    for workload in args.workloads.split(","):
        runs = results[workload] = []
        for seed in args.seeds:
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
            start = time.monotonic()
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600,
                                  cwd=BENCH.parent)
            elapsed = time.monotonic() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            run = json.loads(lines[-1])
            run["fingerprint"] = json.loads(lines[0].partition(" ")[2])
            run["elapsed_s"] = elapsed
            runs.append(run)
            print(workload, seed, f"{elapsed:.1f}s", lines[0], lines[-1], flush=True)

    for workload, runs in results.items():
        shares = {run["failed"] / run["attempted"] for run in runs}
        correct = all(run["correct"] for run in runs)
        print(f"\n{workload}: {len(runs)} runs, correct {correct}, failed shares {sorted(shares)}")
        calibration = [run["fingerprint"]["calibration_s"] for run in runs]
        elapsed = [run["elapsed_s"] for run in runs]
        print(f"  calibration_s {statistics.median(calibration):.4f} "
              f"(min {min(calibration):.4f}, max {max(calibration):.4f}); "
              f"run time {statistics.median(elapsed):.1f} s (max {max(elapsed):.1f} s)")
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:28s} {med:12.6g} {unit:5s} q1 {q1:10.6g} q3 {q3:10.6g} spread {spread:6.3f}")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"sweep-{args.trace}-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
