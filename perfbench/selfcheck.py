#!/usr/bin/env python3
"""Checks on the benchmark itself.  Run from the repository root:

    python3 perfbench/selfcheck.py

1. Corrupted outputs: ops whose output is altered, whose exit code is
   nonzero, or that raise are each counted as failed, and the run goes on.
2. Determinism: two traced runs with the same seed report identical counts;
   a run with another seed passes every output check.
3. BENCHMARK.json lists exactly the per-layer metrics the traced run emits.
4. In a directory holding only BENCHMARK.json and perfbench/, the runner
   exits nonzero without printing a result.

Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

COUNT_UNITS = ("count", "B")
SEEDS = (101, 202)


def _scaled(text: str, row: int, col: int, factor: float) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def corrupt_value(name: str, outputs):
    """The op's outputs with one checked value altered."""
    if name == "count-seq":
        dups, ties, positions = outputs
        return dups + 1, ties, positions
    outputs = list(outputs)
    if name == "simulate":
        rc, text = outputs[0]
        lines = text.splitlines()
        seed, dups, ties = lines[1].split(",")
        lines[1] = f"{seed},{int(dups) + 1},{ties}"
        outputs[0] = (rc, "\n".join(lines) + "\n")
    elif name == "analytic":
        rc, text = outputs[1]   # prob: stable value
        outputs[1] = (rc, _scaled(text, 1, 3, 1.0 + 1e-6))
    else:                       # pmf: the largest probability, never 0
        rc, text = outputs[0]
        probs = [float(row[1]) for row in wl.csv_rows(text)[1:-2]]
        outputs[0] = (rc, _scaled(text, 1 + probs.index(max(probs)), 1, 1.0 + 1e-6))
    return outputs


class Corrupting:
    """A workload whose ops 1, 2, 3 of every 4 come back wrong or raise."""

    def __init__(self, inner):
        self.inner = inner
        self.name, self.cycle, self.trace_ops = inner.name, 4, inner.trace_ops
        self.warmup = 0
        self.calls = 0
        self.ops, self.check, self.bytes_out = inner.ops, inner.check, inner.bytes_out
        self.kernels, self.kernel = inner.kernels, inner.kernel

    def execute(self, op):
        self.calls += 1
        mode = self.calls % 4
        if mode == 3:
            raise RuntimeError("injected failure")
        outputs = self.inner.execute(op)
        if mode == 1:
            return corrupt_value(self.inner.name, outputs)
        if mode == 2 and self.inner.name != "count-seq":
            return [(1, text) for _, text in outputs]
        if mode == 2:
            return None   # unpackable counting result
        return outputs


def check_corruption(workload) -> None:
    attempted, failed, _, _ = run.measure(Corrupting(workload), SEEDS[0], 0.0)
    if (attempted, failed) != (4, 3):
        raise SystemExit(f"{workload.name}: corrupted ops counted {failed} of "
                         f"{attempted}, want 3 of 4")
    print(f"ok  {workload.name}: 3 of 4 corrupted ops counted as failed")


def traced_run(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def check_determinism(name: str) -> None:
    first, again, other = (traced_run(name, s) for s in (SEEDS[0], SEEDS[0], SEEDS[1]))
    for result, seed in ((first, SEEDS[0]), (again, SEEDS[0]), (other, SEEDS[1])):
        if not result["correct"]:
            raise SystemExit(f"{name}: traced run with seed {seed} failed its checks")
    counts = [k for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS]
    differ = [k for k in counts
              if first["metrics"][k]["value"] != again["metrics"][k]["value"]]
    if differ:
        raise SystemExit(f"{name}: counts differ between same-seed runs: {differ}")
    print(f"ok  {name}: {len(counts)} counts repeat for seed {SEEDS[0]}; "
          f"seed {SEEDS[1]} passes its checks")


def check_metric_list() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != list(tracing.PER_LAYER):
        raise SystemExit("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    print(f"ok  BENCHMARK.json lists the {len(listed)} per-layer metrics")


def check_bare_directory() -> None:
    bare = wl.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "simulate", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok  bare directory: exit {proc.returncode}, nothing on stdout")


def main() -> int:
    wl.WORK.mkdir(exist_ok=True)
    by_name = wl.workloads(wl.load_references())
    check_metric_list()
    check_bare_directory()
    for workload in by_name.values():
        check_corruption(workload)
    for name in by_name:
        check_determinism(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
