#!/usr/bin/env python3
"""collision-lab benchmark runner.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

One closed-loop client in one process: each op starts when the previous one
has finished and been checked.  With --trace 0 the run measures for
--seconds (ending on a whole rotation of the workload's op mix) and reports
the end-to-end metrics.  With --trace 1 it runs a fixed, seed-determined
number of ops twice each, once bare and once with per-layer spans
installed, and reports the per-layer metrics; --seconds does not apply
there, so every count repeats exactly for a given seed.  Every op's output
is checked in both modes.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 9
# import, parser, and a first small call of each kind: work that a later
# change moves into import time or into a first call (a table built on
# first use) shows here
SETUP_CODE = """
import collision_lab.cli as c
c.build_parser()
c.main(["expect", "--n", "1000", "--bits", "32"])
c.main(["pmf", "--n", "8", "--bits", "32"])
c.main(["simulate", "--n", "1000", "--generator", "cmrg:1:32"])
"""
TAIL_BEYOND = 10   # ops slower than the reported tail latency
PACE_WINDOW = 6    # kernel samples behind each op's scale factor


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds() -> tuple:
    """(CPU seconds, wall seconds) of a fresh interpreter running SETUP_CODE.

    CPU time, unlike wall time, leaves out the time the interpreter waits
    for a CPU that other tenants of a shared machine hold.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cpu, start = _children_cpu(), perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return _children_cpu() - cpu, perf_counter() - start


def run_op(workload, op):
    """(seconds, outputs, problem) for one op; a raised error is a failed op."""
    start = perf_counter()
    try:
        outputs = workload.execute(op)
    except Exception:
        return perf_counter() - start, None, traceback.format_exc()
    elapsed = perf_counter() - start
    return elapsed, outputs, None


def check_op(workload, op, outputs, problem):
    if problem is None:
        try:
            problem = workload.check(op, outputs)
        except Exception:
            problem = traceback.format_exc()
    if problem is not None:
        print(f"failed op {op.label} {op.argvs}: {problem}", file=sys.stderr)
    return problem


def warm_up(workload, stream):
    for op in itertools.islice(stream, workload.warmup):
        _, outputs, problem = run_op(workload, op)
        check_op(workload, op, outputs, problem)


def tail(latencies: list) -> tuple:
    """(value, percentile) at the highest percentile with TAIL_BEYOND ops above it."""
    ranked = sorted(latencies)
    index = max(0, len(ranked) - TAIL_BEYOND - 1)
    return ranked[index], 100.0 * (index + 1) / len(ranked)


class Pace:
    """How slow the machine runs right now, from fixed reference kernels.

    A shared machine can run 1.5x faster or slower for seconds to minutes
    at a time, which no statistic within one run removes, and it does not
    slow every kind of work alike.  The kernels (pace_kernel.py) are timed
    just before every op and after the last, in a helper process that
    library state cannot reach, and each op's time is divided by the factor
    of the kernel its class follows: the runner reports op times as they
    would be on the machine at the kernels' NOMINAL_S.
    """

    NOMINAL_S = {"python": 0.004, "numpy": 0.003, "sets": 0.0065}

    def __init__(self, kernels: tuple):
        self.kernels = kernels
        self._helper = subprocess.Popen(
            [sys.executable, str(HERE / "pace_kernel.py"), *kernels],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def factor(self) -> dict:
        """Kernel time over NOMINAL_S, by kernel: above 1 while the machine is slow."""
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        times = self._helper.stdout.readline().split()
        return {k: float(t) / self.NOMINAL_S[k] for k, t in zip(self.kernels, times)}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._helper.stdin.close()
        self._helper.wait()
        self._helper.stdout.close()


def latency_metrics(latencies: list, failed: int) -> dict:
    return {
        "ops_per_s": ((len(latencies) - failed) / sum(latencies), "ops/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail(latencies)[0], "ms"),
    }


def measure(workload, seed: int, seconds: float) -> tuple:
    """End-to-end run: (attempted, failed, metrics, notes)."""
    with Pace(workload.kernels) as pace:
        return _measure(workload, seed, seconds, pace)


def _measure(workload, seed: int, seconds: float, pace: Pace) -> tuple:
    setup_seconds()  # warms the bytecode and file caches; not counted
    stream = workload.ops(seed)
    warm_up(workload, stream)
    setup_raw, raw, labels, factors = [], [], [], []
    failed = 0

    # set-up samples are spread over the run, and their time is left out
    # of the measured window
    start, paused = perf_counter(), 0.0
    for op in stream:
        factors.append(pace.factor())
        elapsed, outputs, problem = run_op(workload, op)
        raw.append(elapsed)
        labels.append(op.label)
        failed += check_op(workload, op, outputs, problem) is not None
        done = perf_counter() - start - paused
        if len(setup_raw) < SETUP_RUNS and done >= len(setup_raw) * seconds / SETUP_RUNS:
            before = perf_counter()
            setup_raw.append(setup_seconds())
            paused += perf_counter() - before
        if len(raw) % workload.cycle == 0 and done >= seconds:
            break
    factors.append(pace.factor())
    # factors[i] is sampled just before op i and factors[i + 1] just after
    # it; each op is scaled by the median of the PACE_WINDOW samples of its
    # class's kernel centred on it, half before and half after, so that a
    # long op is scaled by the speed while it ran
    half = PACE_WINDOW // 2
    latencies = []
    for i, (t, label) in enumerate(zip(raw, labels)):
        kernel = workload.kernel(label)
        window = factors[max(0, i + 1 - half):i + 1 + half]
        latencies.append(t / statistics.median(f[kernel] for f in window))
    by_label = defaultdict(list)
    for label, t in zip(labels, latencies):
        by_label[label].append(t)
    while len(setup_raw) < SETUP_RUNS:
        setup_raw.append(setup_seconds())
    attempted = len(latencies)
    setup_cpu, setup_wall = zip(*setup_raw)
    metrics = {"setup_s": (statistics.median(setup_cpu), "s"),
               **latency_metrics(latencies, failed),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MB")}
    notes = [f"failed_ops_frac = {failed / attempted} ratio ({failed} of {attempted} ops)",
             f"op_tail_ms is p{tail(latencies)[1]:.1f} of {attempted} ops, "
             f"{min(TAIL_BEYOND, attempted - 1)} slower",
             "pace factor " + ", ".join(
                 f"{k} median {statistics.median(f[k] for f in factors):.4f} "
                 f"(min {min(f[k] for f in factors):.3f}, max {max(f[k] for f in factors):.3f})"
                 for k in pace.kernels)
             + "; wall clock, unscaled: "
             + ", ".join(f"{k} = {v:.6g} {u}"
                         for k, (v, u) in latency_metrics(raw, failed).items()),
             f"setup wall clock median {statistics.median(setup_wall):.4f} s",
             "median ms by op class: " + ", ".join(
                 f"{label} {1e3 * statistics.median(v):.1f} (x{len(v)})"
                 for label, v in sorted(by_label.items()))]
    return attempted, failed, metrics, notes


def traced(workload, seed: int, spans_path: Path) -> tuple:
    """Per-layer run: (attempted, failed, metrics, notes); spans go to spans_path."""
    from tracing import PER_LAYER, Tracer, layer_metrics

    tracer = Tracer()
    stream = workload.ops(seed)
    warm_up(workload, stream)
    plain_s = traced_s = 0.0
    bytes_out = failed = attempted = 0
    for i, op in enumerate(itertools.islice(stream, workload.trace_ops)):
        bad = False
        # alternate which pass goes first so warm caches favour neither
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if with_spans:
                tracer.install(i)
            try:
                elapsed, outputs, problem = run_op(workload, op)
            finally:
                tracer.uninstall()
            if with_spans:
                traced_s += elapsed
                if outputs is not None:
                    bytes_out += workload.bytes_out(op, outputs)
            else:
                plain_s += elapsed
            bad |= check_op(workload, op, outputs, problem) is not None
        attempted += 1
        failed += bad
    values = layer_metrics(tracer.spans, traced_s, plain_s, attempted, bytes_out)
    tracer.write(spans_path)
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    notes = [f"failed_ops_frac = {failed / attempted} ratio ({failed} of {attempted} ops)",
             f"{len(tracer.spans)} spans, traced op time {traced_s:.3f} s, "
             f"untraced {plain_s:.3f} s"]
    return attempted, failed, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "collision_lab" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    by_name = wl.workloads(wl.load_references())
    if args.workload not in by_name:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(by_name)}",
              file=sys.stderr)
        return 2
    workload = by_name[args.workload]
    wl.WORK.mkdir(exist_ok=True)
    if args.trace:
        spans_path = wl.WORK / f"spans-{workload.name}-{args.seed}.jsonl"
        attempted, failed, metrics, notes = traced(workload, args.seed, spans_path)
    else:
        attempted, failed, metrics, notes = measure(workload, args.seed, args.seconds)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
