#!/usr/bin/env python3
"""Rebuild references.json: the benchmark's input pools and their outputs.

Run from the repository root:

    python3 perfbench/make_references.py

The pools are fixed (their own seed below); the outputs are whatever the
library at the current commit prints for them.  Regenerate only when an
output is meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

POOL_SEED = "collision-lab perfbench pools v2"
# Whole rotations each pool supplies, at least three times what a 20 s run
# makes: a run draws every entry at most once (workloads._without_replacement)
ROTATIONS = 32
ANALYTIC_STRATA = 32
PMF_EXACT_STRATA = 4
PMF_LOG_STRATA = 16
JITTER = 0.02    # n within a stratum varies by this relative amount
TARGETS = (0.5, 1.0, 10.0, 116.0)
# analytic stratum kinds, by stratum index mod 8: "wide" is k = 32..64
# (n << b), "tight" has n/b in (1/2, 1], "overfull" has n/b in (1, 4];
# the last (largest-n) stratum is wide, so it is also the costliest
ANALYTIC_KINDS = ("wide", "wide", "wide", "tight", "wide", "wide", "overfull", "wide")


def _log_centers(lo: float, hi: float, count: int) -> list:
    # one center per equal-width stratum of log(n)
    return [math.exp(math.log(lo) + (j + 0.5) / count * math.log(hi / lo))
            for j in range(count)]


def _jittered(rng: random.Random, center: float, spread: float = JITTER) -> int:
    return round(center * math.exp(rng.uniform(-spread, spread)))


def _distinct(draw, key, count: int, seen: set) -> list:
    """`count` results of draw() whose key() is not yet in `seen`."""
    drawn = []
    while len(drawn) < count:
        entry = draw()
        if key(entry) not in seen:
            seen.add(key(entry))
            drawn.append(entry)
    return drawn


def _uses(extra: tuple, strata: int) -> list:
    """Entries each stratum needs for ROTATIONS rotations."""
    uses = Counter(wl._rotation(range(strata), extra))
    return [ROTATIONS * uses[s] for s in range(strata)]


def simulate_pool(rng: random.Random) -> dict:
    pool = {}
    for label in sorted(set(wl.SIM_MIX)):
        spec, _, out = label.partition("+")
        family, bits = spec.split(":")
        entries = []
        seeds = _distinct(lambda: rng.getrandbits(64), lambda seed: seed,
                          ROTATIONS * wl.SIM_MIX.count(label), set())
        for seed in seeds:
            argv = ["simulate", "--n", str(wl.SIM_N), "--generator",
                    f"{family}:{seed}:{bits}", "--format", "csv"]
            prefix = wl.WORK / "references"
            if out:
                argv += ["--out", str(prefix)]
            rc, text = wl.run_cli(argv)
            assert rc == 0, argv
            rows = wl.csv_rows(text)
            entry = {"seed": seed, "duplicates": int(rows[1][1]), "ties": int(rows[1][2]),
                     "expected": float(rows[3][1])}
            if out:
                for part in ("trajectory", "positions"):
                    path = Path(f"{prefix}_{part}.csv")
                    entry[f"{part}_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
                    path.unlink()
            entries.append(entry)
        pool[label] = entries
        print(f"simulate {label}: {len(entries)} seeds", file=sys.stderr)
    return pool


def analytic_space(rng: random.Random, kind: str, n: int) -> str:
    if kind == "wide":
        return f"bits:{rng.randint(32, 64)}"
    lo, hi = (0.5, 1.0) if kind == "tight" else (1.0, 4.0)
    bits = [k for k in range(1, 64) if lo < n / 2 ** k <= hi]
    if bits and rng.random() < 0.5:
        return f"bits:{rng.choice(bits)}"
    while True:
        b = round(n / rng.uniform(lo, hi))
        if lo < n / b <= hi:
            return f"buckets:{b}"


def analytic_pool(rng: random.Random) -> list:
    strata, seen = [], set()
    centers = _log_centers(1e4, 4e6, ANALYTIC_STRATA)
    for s, (center, count) in enumerate(zip(centers, _uses(wl.Analytic.extra, len(centers)))):
        kind = ANALYTIC_KINDS[s % len(ANALYTIC_KINDS)]
        stratum = []
        for n in _distinct(lambda: _jittered(rng, center), lambda n: n, count, seen):
            entry = {"n": n, "kind": kind, "space": analytic_space(rng, kind, n),
                     "solve": rng.choice(("k", "n")), "target": rng.choice(TARGETS)}
            op = wl.Analytic.op(entry)
            outputs = [wl.run_cli(argv) for argv in op.argvs]
            assert all(rc == 0 for rc, _ in outputs), op.argvs
            for (_, text), what in zip(outputs[:2], ("expect", "prob")):
                row = wl.csv_rows(text)[1]
                entry[what] = [float(row[2]), float(row[3])]
            solve_row = wl.csv_rows(outputs[2][1])[1]
            if entry["solve"] == "k":
                entry["k"] = None if solve_row[2] == "none" else int(solve_row[2])
            else:
                entry["root"] = float(solve_row[2])
            stratum.append(entry)
        strata.append(stratum)
    print(f"analytic: {len(strata)} strata", file=sys.stderr)
    return strata


def pmf_pool(rng: random.Random) -> list:
    strata, seen = [], set()
    centers = _log_centers(8, 64, PMF_EXACT_STRATA) + _log_centers(200, 1e4, PMF_LOG_STRATA)
    for center, count in zip(centers, _uses(wl.Pmf.extra, len(centers))):
        # log mode: distinct n, as the Stirling row, the whole cost, depends
        # on n alone, so a stratum spans at least `count` values of n either
        # side of its center; exact mode (n <= 64) has too few values of n,
        # so distinct (n, b)
        exact = center <= 64
        spread = JITTER if exact else max(JITTER, count / center)
        key = (lambda point: point) if exact else (lambda point: point[0])
        stratum = []
        for n, space in _distinct(lambda: _pmf_point(rng, center, spread), key, count, seen):
            rc, text = wl.run_cli(["pmf", "--n", str(n), *wl.space_args(space)])
            assert rc == 0, (n, space)
            summary, problem = wl.pmf_summary(text, n)
            assert problem is None, problem
            stratum.append({"n": n, "space": space, **summary})
        strata.append(stratum)
    print(f"pmf: {len(strata)} strata", file=sys.stderr)
    return strata


def _pmf_point(rng: random.Random, center: float, spread: float) -> tuple:
    n = min(_jittered(rng, center, spread), 10 ** 4)
    if rng.random() < 0.15:
        # pigeonhole side: fewer buckets than draws
        return n, f"buckets:{max(2, round(n * rng.uniform(0.3, 0.9)))}"
    return n, f"bits:{rng.randint(16, 64)}"


def main() -> int:
    wl.WORK.mkdir(exist_ok=True)
    rng = random.Random(POOL_SEED)
    refs = {
        "simulate": simulate_pool(rng),
        "analytic": analytic_pool(rng),
        "pmf": pmf_pool(rng),
    }
    with open(wl.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
