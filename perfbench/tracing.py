"""Per-layer spans for the traced run, installed from outside the library.

Each wrapper replaces a public function on the name its caller resolves:
``cli`` calls ``analytics.X``/``empirics.X`` through the module, the
analytics solvers call ``expected_collisions`` as a module global,
``analytics`` binds ``sum_log1p`` at import, and ``run_seeds`` calls
``collision_summary`` as a module global.  Spans (name, start, end, parent,
op id, count, tag) stay in memory and are written out when the run ends.

The span names are the layer names that runtime spans and run records
inside the library should reuse: ``prng.*``, ``empirics.*``,
``analytics.*``, ``stable_math.*`` and ``cli.*``.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from collision_lab import analytics, cli, empirics, prng, stable_math


def _draws(args):
    spec = args[0].spec
    return args[1], f"{spec.family}_{spec.output_bits}"


def _second(args):
    return args[1], None


def _first_len(args):
    return len(args[0]), None


def _bytes_written(args):
    # the file position after a whole-file write is the bytes written
    return args[1].tell(), None


# (owner, attribute, span name, meter).  A meter maps the call's positional
# arguments (every caller here passes these positionally) to (count, tag);
# counts are work done, measured where it happens.
_SOLVE = "analytics.solve"
WRAPPED = (
    (cli, "main", "cli", None),
    (prng.KBitStream, "take_kbits", "prng.take_kbits", _draws),
    (empirics, "run_seeds", "empirics.run_seeds", None),
    (empirics, "collision_summary", "empirics.collision_summary", _second),
    (empirics, "trace_collisions", "empirics.trace_collisions", _second),
    (empirics, "write_trajectory_csv", "empirics.write_csv", _bytes_written),
    (empirics, "write_positions_csv", "empirics.write_csv", _bytes_written),
    (empirics, "count_duplicates", "empirics.count_seq", _first_len),
    (empirics, "count_ties", "empirics.count_seq", _first_len),
    (empirics, "collision_positions", "empirics.count_seq", _first_len),
    (analytics, "expected_collisions", "analytics.expected_collisions", None),
    (analytics, "expected_collisions_naive", "analytics.expected_collisions_naive", None),
    (analytics, "collision_probability", "analytics.collision_probability", None),
    (analytics, "collision_probability_naive", "analytics.collision_probability_naive", None),
    (analytics, "collision_pmf_exact", "analytics.collision_pmf_exact", None),
    (analytics, "stirling_log_row", "analytics.stirling_log_row", None),
    (analytics, "min_bits_for_expected", _SOLVE, None),
    (analytics, "sample_size_for_expected", _SOLVE, None),
    (analytics, "sum_log1p", "stable_math.sum_log1p", _first_len),
    (stable_math, "sum_log1p", "stable_math.sum_log1p", _first_len),
)

# (name, unit, better); BENCHMARK.json's per_layer list is this list
PER_LAYER = (
    ("prng.take_kbits.calls", "count", "lower"),
    ("prng.take_kbits.self_s", "s", "lower"),
    ("prng.mt19937_32.draws_per_s", "1/s", "higher"),
    ("prng.cmrg_32.draws_per_s", "1/s", "higher"),
    ("prng.cmrg_40.draws_per_s", "1/s", "higher"),
    ("prng.splitcounter_64.draws_per_s", "1/s", "higher"),
    ("prng.splitcounter_24.draws_per_s", "1/s", "higher"),
    ("empirics.collision_summary.self_s", "s", "lower"),
    ("empirics.draws_counted", "count", "lower"),
    ("empirics.trace_collisions.self_s", "s", "lower"),
    ("empirics.write_csv.self_s", "s", "lower"),
    ("empirics.write_csv.bytes", "B", "lower"),
    ("empirics.count_seq.self_s", "s", "lower"),
    ("empirics.count_seq.elements_per_s", "1/s", "higher"),
    ("analytics.collision_probability.self_s", "s", "lower"),
    ("analytics.collision_probability.calls", "count", "lower"),
    ("analytics.collision_probability_naive.self_s", "s", "lower"),
    ("stable_math.sum_log1p.self_s", "s", "lower"),
    ("stable_math.sum_log1p.terms", "count", "lower"),
    ("analytics.expected_collisions.calls", "count", "lower"),
    ("analytics.solve.evals_per_solve", "count", "lower"),
    ("analytics.collision_pmf_exact.self_s", "s", "lower"),
    ("analytics.stirling_log_row.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_out", "B", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.span_coverage_frac", "ratio", "higher"),
)

# the per-width generator rates reported for the simulate mix
DRAW_TAGS = ("mt19937_32", "cmrg_32", "cmrg_40", "splitcounter_64", "splitcounter_24")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 for a root
    op: int
    count: float = 0
    tag: Optional[str] = None


class Tracer:
    """Records spans while installed; install() and uninstall() bracket an op."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._originals: list = []
        self.op = -1

    def _wrap(self, original: Callable, name: str, meter) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if meter is not None:
                    span.count, span.tag = meter(args)
        return wrapper

    def install(self, op: int) -> None:
        self.op = op
        for owner, attr, name, meter in WRAPPED:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, meter))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def self_times(spans: list) -> list:
    """Per span: duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(spans: list, traced_s: float, plain_s: float, ops: int,
                  bytes_out: int) -> dict:
    """Every PER_LAYER metric, as name -> value."""
    selfs = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for s, t in zip(spans, selfs):
        self_s[s.name] += t
        calls[s.name] += 1
        counts[s.name] += s.count

    draws, draw_s = defaultdict(float), defaultdict(float)
    for s in spans:
        if s.name == "prng.take_kbits":
            draws[s.tag] += s.count
            draw_s[s.tag] += s.end - s.start

    def in_solve(i: int) -> bool:
        while i >= 0:
            if spans[i].name == _SOLVE:
                return True
            i = spans[i].parent
        return False

    solve_evals = sum(1 for s in spans
                      if s.name == "analytics.expected_collisions" and in_solve(s.parent))
    roots_s = sum(s.end - s.start for s in spans if s.parent < 0)
    seq_s = self_s["empirics.count_seq"]

    m = {
        "prng.take_kbits.calls": calls["prng.take_kbits"],
        "prng.take_kbits.self_s": self_s["prng.take_kbits"],
        "empirics.collision_summary.self_s": self_s["empirics.collision_summary"],
        "empirics.draws_counted": counts["empirics.collision_summary"]
        + counts["empirics.trace_collisions"],
        "empirics.trace_collisions.self_s": self_s["empirics.trace_collisions"],
        "empirics.write_csv.self_s": self_s["empirics.write_csv"],
        "empirics.write_csv.bytes": counts["empirics.write_csv"],
        "empirics.count_seq.self_s": seq_s,
        "empirics.count_seq.elements_per_s":
            counts["empirics.count_seq"] / seq_s if seq_s else 0.0,
        "analytics.collision_probability.self_s": self_s["analytics.collision_probability"],
        "analytics.collision_probability.calls": calls["analytics.collision_probability"],
        "analytics.collision_probability_naive.self_s":
            self_s["analytics.collision_probability_naive"],
        "stable_math.sum_log1p.self_s": self_s["stable_math.sum_log1p"],
        "stable_math.sum_log1p.terms": counts["stable_math.sum_log1p"],
        "analytics.expected_collisions.calls": calls["analytics.expected_collisions"],
        "analytics.solve.evals_per_solve":
            solve_evals / calls[_SOLVE] if calls[_SOLVE] else 0.0,
        "analytics.collision_pmf_exact.self_s": self_s["analytics.collision_pmf_exact"],
        "analytics.stirling_log_row.self_s": self_s["analytics.stirling_log_row"],
        "cli.self_s": self_s["cli"],
        "cli.bytes_out": bytes_out,
        "trace.ops": ops,
        "trace.overhead_frac": traced_s / plain_s - 1.0,
        "trace.span_coverage_frac": roots_s / traced_s,
    }
    for tag in DRAW_TAGS:
        m[f"prng.{tag}.draws_per_s"] = draws[tag] / draw_s[tag] if draw_s[tag] else 0.0
    return m
