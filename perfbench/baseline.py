#!/usr/bin/env python3
"""Record the benchmark's baseline in perfbench/baseline.json.  Run from the
repository root:

    python3 perfbench/baseline.py

For each workload: RUNS untraced runs with seeds 1..RUNS, each as long as
BENCHMARK.json's run_seconds (median and quartile spread of every
end-to-end metric), then one traced run (seed 1) for the per-layer
metrics.  Also records the machine, and cross-checks the traced per-layer
numbers against the single-call timings in HAND_MS below: a ratio beyond
2x either way is listed as a finding.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402

WORKLOADS = ("simulate", "analytic", "pmf", "count-seq")
RUNS = 10

# single-call timings from the baseline table in ROADMAP.md (2-core VM, best
# of 3, wall clock)
HAND_MS = {
    "mt19937 1e6 x 32-bit": 106.0,
    "cmrg 1e6 x 32-bit": 274.0,
    "cmrg 1e6 two-word draws": 544.0,
    "splitcounter 1e6": 12.0,
    "collision_probability(1e6, 2^64)": 85.0,
    "pmf log mode at n = 1e4": 1440.0,
}


def machine() -> dict:
    model = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def run(name: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [line for line in lines[:-1]
                       if line.split(" = ")[0] not in result["metrics"]]
    result["wall_s"] = time.perf_counter() - start
    return result


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def pmf_ms_at_1e4(seed: int) -> float:
    """Least-squares c in t = c n^2 over traced log-mode pmf calls with n >= 2000."""
    refs = wl.load_references()
    pmf = wl.Pmf(refs)
    stream = pmf.ops(seed)
    ops = list(itertools.islice(stream, pmf.warmup + pmf.trace_ops))[pmf.warmup:]
    sizes = {i: op.ref["n"] for i, op in enumerate(ops)}
    num = den = 0.0
    with open(wl.WORK / f"spans-pmf-{seed}.jsonl") as fh:
        for line in fh:
            s = json.loads(line)
            n = sizes[s["op"]]
            if s["name"] == "analytics.collision_pmf_exact" and n >= 2000:
                num += (s["end"] - s["start"]) * n * n
                den += float(n) ** 4
    return 1e3 * num / den * 1e8


def cross_check(traced: dict, seed: int) -> list:
    def m(workload, name):
        return traced[workload]["metrics"][name]["value"]

    sim, ana = "simulate", "analytic"
    measured = {
        "mt19937 1e6 x 32-bit": 1e9 / m(sim, "prng.mt19937_32.draws_per_s"),
        "cmrg 1e6 x 32-bit": 1e9 / m(sim, "prng.cmrg_32.draws_per_s"),
        "cmrg 1e6 two-word draws": 1e9 / m(sim, "prng.cmrg_40.draws_per_s"),
        "splitcounter 1e6": 1e9 / m(sim, "prng.splitcounter_64.draws_per_s"),
        # every sum_log1p call comes from collision_probability here
        "collision_probability(1e6, 2^64)":
            1e9 * (m(ana, "analytics.collision_probability.self_s")
                   + m(ana, "stable_math.sum_log1p.self_s"))
            / m(ana, "stable_math.sum_log1p.terms"),
        "pmf log mode at n = 1e4": pmf_ms_at_1e4(seed),
    }
    rows = []
    for what, hand in HAND_MS.items():
        ratio = measured[what] / hand
        rows.append({"what": what, "hand_ms": hand, "traced_ms": measured[what],
                     "ratio": ratio, "finding": not 0.5 <= ratio <= 2.0})
    return rows


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    record = {"machine": machine(), "runs": RUNS, "seconds": seconds, "workloads": {}}
    traced = {}
    for name in WORKLOADS:
        results = [run(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        end_to_end = {k: summarize([r["metrics"][k]["value"] for r in results])
                      for k in results[0]["metrics"]}
        traced[name] = run(name, 1, seconds, 1)
        record["workloads"][name] = {
            "correct": all(r["correct"] for r in results) and traced[name]["correct"],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "run_wall_s": [r["wall_s"] for r in results],
            "traced_run_wall_s": traced[name]["wall_s"],
            "end_to_end": end_to_end,
            "per_layer_seed_1": {k: v["value"] for k, v in traced[name]["metrics"].items()},
            "notes_seed_1": results[0]["notes"],
        }
        print(name, {k: round(v["spread"], 4) for k, v in end_to_end.items()}, file=sys.stderr)
    record["cross_check"] = cross_check(traced, 1)
    with open(HERE / "baseline.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
