"""Per-layer tracing by wrapping the program's public functions from outside.

Each wrapper replaces a function in the namespace where its callers look it
up (for example `oracle.jordan_type_of_nilpotent`, `basis.gf2_rank`), and
records a span: call id, span id, parent span id, name, start, end.  Spans
stay in memory; run.py writes them out when the run ends.  A layer's self
time is the time of its spans minus the time their child spans cover.
Count-only wrappers increment a counter and take no timestamps.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

from char2squares import basis, cli, core, formulas, oracle

TIME_METRICS = (
    "cli.self_s", "parser.parse_s", "formulas.eval_s", "oracle.build_s",
    "gf2.rank_loop_nilpotent_s", "gf2.rank_loop_unipotent_s", "gf2.rank_s",
    "basis.build_s", "basis.verify_s",
)
COUNT_METRICS = (
    "cli.calls", "parser.calls", "formulas.calls", "core.from_pairs_calls",
    "core.cones_expansion_calls", "oracle.build_dim", "oracle.build_nnz",
    "gf2.rank_loop_dim", "gf2.rank_rows", "basis.vectors",
)
FORMULAS = (
    "decompose_expr", "ext2_block", "sym2_block", "tensor_decompose",
    "ext2_unipotent", "sym2_unipotent", "ext2_nilpotent", "sym2_nilpotent",
)
# The tracer's own counting after a call returns is recorded as a child span
# of the caller under this name, so that it lands in no layer's self time.
HOOK = "trace.hook"


class Tracer:
    """Context manager: installs the wrappers on entry and restores the originals on exit."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (call, span, parent, name, start, end)
        self.counts: Counter = Counter()
        self.call = -1
        self.kind = ""  # kind of the current CLI call, to split the rank loop
        self._metric_of: dict[str, str] = {}  # span name -> time metric
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin_call(self, call: int, kind: str) -> None:
        self.call, self.kind = call, kind

    def _timed(self, name: str, metric: str, fn, count: str | None = None, hook=None):
        """Wrap fn in a span; hook(args, result, parent_span) updates counters."""
        spans, stack, counts = self.spans, self._stack, self.counts
        split = "{kind}" in name  # one span name and metric per kind of CLI call
        for kind in ("nilpotent", "unipotent"):
            self._metric_of[name.format(kind=kind)] = metric.format(kind=kind)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            span_name = name.format(kind=self.kind) if split else name
            spans.append((self.call, sid, parent, span_name, None, None))  # open span
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (self.call, sid, parent, span_name, start, end)
            if count is not None:
                counts[count] += 1
            if hook is not None:
                hook(args, result, parent)
                spans.append((self.call, len(spans), parent, HOOK, end, perf_counter()))
            return result

        return wrapper

    def _counted(self, fn, count: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, namespace, attr: str, value) -> None:
        self._saved.append((namespace, attr, namespace.__dict__[attr]))
        setattr(namespace, attr, value)

    def __enter__(self) -> "Tracer":
        timed, counted, patch, counts = self._timed, self._counted, self._patch, self.counts

        def built(args, mat, parent):
            # expr_action recurses; count only the outermost matrix of a build
            if parent < 0 or self.spans[parent][3] != "oracle.build":
                counts["oracle.build_dim"] += mat.rows
                counts["oracle.build_nnz"] += sum(row.bit_count() for row in mat.data)

        def rows_of_argument(metric):
            return lambda args, result, parent: counts.update({metric: args[0].rows})

        def vectors(args, chains, parent):
            counts["basis.vectors"] += sum(chain.length for chain in chains)

        patch(cli, "main", timed("cli.main", "cli.self_s", cli.main, "cli.calls"))
        patch(cli, "parse_expr",
              timed("parser.parse_expr", "parser.parse_s", cli.parse_expr, "parser.calls"))
        for name in FORMULAS:
            patch(formulas, name, timed(f"formulas.{name}", "formulas.eval_s",
                                        getattr(formulas, name), "formulas.calls"))
        for namespace in (formulas, basis):
            patch(namespace, "cones_expansion",
                  counted(namespace.cones_expansion, "core.cones_expansion_calls"))
        from_pairs = core.JordanType.__dict__["from_pairs"].__func__
        patch(core.JordanType, "from_pairs",
              classmethod(counted(from_pairs, "core.from_pairs_calls")))
        for name in ("square_action", "tensor_action", "expr_action"):
            patch(oracle, name, timed("oracle.build", "oracle.build_s", getattr(oracle, name), hook=built))
        patch(oracle, "jordan_type_of_nilpotent",
              timed("gf2.rank_loop.{kind}", "gf2.rank_loop_{kind}_s", oracle.jordan_type_of_nilpotent,
                    hook=rows_of_argument("gf2.rank_loop_dim")))
        patch(basis, "gf2_rank",
              timed("gf2.rank", "gf2.rank_s", basis.gf2_rank, hook=rows_of_argument("gf2.rank_rows")))
        for name in ("build_tensor_basis", "build_sym_basis"):
            patch(basis, name, timed("basis.build", "basis.build_s", getattr(basis, name), hook=vectors))
        patch(basis, "verify_basis", timed("basis.verify", "basis.verify_s", basis.verify_basis))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            namespace, attr, value = self._saved.pop()
            setattr(namespace, attr, value)

    def metrics(self) -> dict[str, float]:
        """Per-layer self times (s) and counts of everything traced so far."""
        covered = [0.0] * len(self.spans)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for _, sid, _, name, start, end in self.spans:
            if name != HOOK:
                out[self._metric_of[name]] += end - start - covered[sid]
        out["gf2.rank_loop_s"] = out["gf2.rank_loop_nilpotent_s"] + out["gf2.rank_loop_unipotent_s"]
        out.update((metric, self.counts[metric]) for metric in COUNT_METRICS)
        return out

    def write(self, path) -> None:
        keys = ("call", "span", "parent", "name", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                print(json.dumps(dict(zip(keys, span))), file=fh)
