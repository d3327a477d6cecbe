"""Benchmark for char2squares, driven through its CLI in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
Each run generates the workload's CLI calls from the seed, then repeats
whole passes over them, each visiting every call once with the program's
caches emptied first, until S seconds have gone.  After the passes every
output is checked against references computed from the inputs alone.

The last line of standard output is one JSON object: `correct`, `attempted`
and `failed` count CLI calls over all passes, and `metrics` holds the
end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
(--trace 1).  See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 3  # before the passes; one more follows every untraced pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and generate the inputs, print the time, exit")
    return parser.parse_args(argv)


def calibration_s() -> float:
    """Best of three timings of a fixed pure-Python integer loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(300_000):
            x ^= (i * 2654435761) & 0xFFFF_FFFF
            x = (x << 1 | x.bit_length() & 1) & 0xFFFF_FFFF
        best = min(best, time.perf_counter() - start)
    return best


def measure_setup(args) -> float:
    """Time from spawning a fresh interpreter until its inputs are generated."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    start = time.monotonic()  # CLOCK_MONOTONIC is shared between processes
    probe = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60)
    return float(probe.stdout.split()[-1]) - start


def lru_caches(package: str) -> list:
    """Every functools cache in the package's modules, found before any wrapping."""
    caches = []
    for name, module in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            caches += [v for v in vars(module).values() if hasattr(v, "cache_clear")]
    return caches


def run_pass(cli, calls, tracer=None):
    """One pass over the calls; returns (wall seconds, latencies, outputs)."""
    latencies, outputs = [], []
    wall_start = time.perf_counter()
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.begin_call(i, call.kind)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            code = cli.main(list(call.argv), out, err)
        except Exception as exc:  # an escaping exception is a failed call, not a crash
            code = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        outputs.append((code, out.getvalue()))
    return time.perf_counter() - wall_start, latencies, outputs


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "char2squares" / "__init__.py").is_file():
        print(f"error: no char2squares sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from char2squares import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.generate(args.workload, args.seed)
        print(time.monotonic())
        return 0

    fingerprint = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_s": round(calibration_s(), 6),
    }
    print("fingerprint " + json.dumps(fingerprint), flush=True)
    setups = [] if args.trace else [measure_setup(args) for _ in range(SETUP_PROBES)]

    calls = workloads.generate(args.workload, args.seed)
    caches = lru_caches("char2squares")
    if args.trace:
        import tracing

    walls, traced_walls = [], []  # wall time of each untraced / traced pass
    latencies, layer_runs, pass_fails = [], [], []  # latencies of every untraced call
    changed = {}  # call index -> exit code of its first pass whose output differs from the first
    first = spans_tracer = None
    start = time.perf_counter()
    # whole passes only: start another while it is likely to end within the budget
    while (
        not walls
        or (args.trace and not traced_walls)
        or time.perf_counter() - start + max(walls) < args.seconds
    ):
        for cache in caches:
            cache.cache_clear()
        if args.trace and len(walls) > len(traced_walls):
            with tracing.Tracer() as tracer:
                wall, _, outputs = run_pass(cli, calls, tracer)
            traced_walls.append(wall)
            layer_runs.append(tracer.metrics())
            spans_tracer = spans_tracer or tracer
        else:
            wall, lat, outputs = run_pass(cli, calls)
            walls.append(wall)
            latencies += lat
            if not args.trace:
                # spread over the run, so that one busy moment of the box moves few probes
                setups.append(measure_setup(args))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        first = first or outputs
        pass_fails.append({i for i, out in enumerate(outputs) if out[0] != 0 or out != first[i]})
        for i, out in enumerate(outputs):
            if out != first[i]:
                changed.setdefault(i, out[0])

    # Outputs are checked once, on the first pass; later passes must repeat them.
    checker = workloads.Checker(cli.main)
    problems = set()
    for i, (call, (code, out)) in enumerate(zip(calls, first)):
        problem = checker.check(call, code, out)
        if i in changed:
            problem = f"output changed between passes (exit code {changed[i]!r})"
        if problem:
            problems.add(i)
            print(f"FAIL {' '.join(call.argv)}: {problem}", file=sys.stderr)
    attempted = len(pass_fails) * len(calls)
    failed = sum(len(fails | problems) for fails in pass_fails)

    if args.trace:
        # counts repeat exactly in every pass; times are medians over the traced passes
        metrics = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        OUT.mkdir(exist_ok=True)
        spans_tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        units = {name: "count" for name in metrics}
        units.update((name, "s") for name in metrics if name.endswith("_s"))
        report = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    else:
        # the median pass, and percentiles of the latencies of all untraced
        # passes together (every call counts once per pass)
        report = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "call_p50_ms": {"value": statistics.median(latencies) * 1000, "unit": "ms"},
            "call_p90_ms": {"value": statistics.quantiles(latencies, n=10)[-1] * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"passes {len(pass_fails)}, calls per pass {len(calls)}, failed {failed}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
