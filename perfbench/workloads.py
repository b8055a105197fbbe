"""The four benchmark workloads.

Each workload turns a seed into an endless stream of ops, runs one op
through the library's public entry points (``collision_lab.cli.main``
in-process, or the ``empirics`` counting functions), and checks the op's
output.  Ops for ``simulate``, ``analytic`` and ``pmf`` draw their inputs
from pools whose outputs were recorded in ``references.json`` (see
``make_references.py``); ``count-seq`` outputs are checked against an
independent numpy recount of the same sequence.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from collision_lab import cli, empirics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
REFERENCES = HERE / "references.json"

# Output tolerances.  Stream counts and CSV bytes must match exactly; the
# floating-point values below may drift by these relative amounts, so that
# a faster formula with different rounding still passes.
STABLE_RTOL = 1e-10   # stable expect/prob values, simulate's expected line
NAIVE_RTOL = 1e-9     # literal (naive) expect/prob values
ROOT_RTOL = 1e-8      # sample-size root of `solve --bits/--buckets`
PMF_RTOL = 1e-9       # pmf P(C=0), largest probability, second moment
PMF_SUM_ATOL = 1e-9   # |sum of the pmf - 1|
PMF_MEAN_RTOL = 1e-8  # pmf mean against the exact expectation

SIM_N = 10 ** 6
SEQ_LEN = 10 ** 5

# The simulate rotation.  mt19937:32 is the most frequent class, with six
# cheaper (splitcounter) and six costlier ops, so that the median op
# (op_p50_ms) falls in the middle of the mt19937:32 ops; cmrg:40 (two words
# per draw) is the slowest class without --out and holds the op op_tail_ms
# reports while a run makes 3 to 10 rotations; the last op adds --out (the
# figure_data.py path).
SIM_MIX = (
    "mt19937:32", "cmrg:40", "splitcounter:64", "mt19937:32", "cmrg:32", "splitcounter:24",
    "mt19937:32", "splitcounter:64", "cmrg:40", "mt19937:32", "splitcounter:24",
    "mt19937:32", "cmrg:32", "splitcounter:64", "cmrg:40", "mt19937:32", "splitcounter:24",
    "mt19937:32+out",
)

SEQ_KINDS = ("gamma", "ints", "ndarray")

# quiet NaNs with distinct payloads and signs, compared by bit pattern
_NAN_PAYLOADS = np.array(
    [0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000003, 0x7FF80000DEADBEEF],
    dtype=np.uint64).view(np.float64)


@dataclass
class Op:
    """One unit of client work: one or more CLI calls, or one counting pass."""

    label: str
    argvs: list = field(default_factory=list)
    ref: dict = field(default_factory=dict)
    seq: object = None
    out_files: tuple = ()


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def run_cli(argv: list) -> tuple:
    """(exit code, captured stdout) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def space_args(space: str) -> list:
    """'bits:40' -> ['--bits', '40']; 'buckets:300' -> ['--buckets', '300']."""
    kind, value = space.split(":")
    return [f"--{kind}", value]


def space_count(space: str) -> int:
    kind, value = space.split(":")
    return 1 << int(value) if kind == "bits" else int(value)


def expected_collisions_exact(n: int, b: int) -> float:
    """E[C] = n - b + b(1 - 1/b)^n in exact integer arithmetic, rounded once.

    Independent of the library, and exact where its double-precision
    closed form cancels (n much smaller than b).
    """
    scale = b ** (n - 1)
    return ((n - b) * scale + (b - 1) ** n) / scale


def _close(got: float, want: float, rtol: float) -> bool:
    if not math.isfinite(want):
        # the literal product overflows to NaN for n far above b; that
        # output is pinned like any other
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= rtol * abs(want)


def csv_rows(text: str) -> list:
    return [line.split(",") for line in text.splitlines()]


def _rotation(strata: list, extra: tuple) -> list:
    # one op per stratum, plus one more for each index in `extra`, so that
    # the median op and the op op_tail_ms reports each fall inside one
    # class rather than between two
    order = list(range(len(strata)))
    return order + [order[s] for s in extra]


def _spread_order(entries: list, rng: random.Random) -> list:
    """The pool's entries in a seeded order whose every prefix spreads evenly
    over their cost.

    Entries are ranked by n (the op's cost grows with it; simulate entries
    all cost the same) and taken in order of (start + rank * golden ratio)
    mod 1, for a seeded start.  The ranks that come first then lie at nearly
    even spacing over the whole pool, whatever the prefix length (the
    three-gap theorem), so the share of costly and cheap entries that a run
    draws, and with it the run's median and tail, does not depend on the
    seed.  A plain shuffle let the median op's cost move by up to 30% from
    seed to seed in pmf strata, which span up to +-16% in n.
    """
    ranked = sorted(entries, key=lambda entry: entry.get("n", 0))
    start = rng.random()
    order = sorted(range(len(ranked)), key=lambda rank: (start + rank * _GOLDEN) % 1.0)
    return [ranked[rank] for rank in order]


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _without_replacement(pools, order: list, rng: random.Random) -> Iterator[tuple]:
    """(key, entry) over whole rotations of `order`, no entry drawn twice.

    Each pool's entries come in a seeded order (_spread_order) and are used
    at most once, so no input recurs within a run: a cache kept across calls
    in the one process would make a repeated op near-free, which a CLI user,
    who pays a fresh process per call, never sees.  The stream ends before a
    rotation that some pool can no longer fill; the pools hold several times
    the rotations a run makes.
    """
    queues = {key: _spread_order(pools[key], rng)[::-1] for key in dict.fromkeys(order)}
    uses = Counter(order)
    for _ in range(min(len(queues[key]) // count for key, count in uses.items())):
        for key in order:
            yield key, queues[key].pop()


class Workload:
    name = ""
    cycle = 1        # runs stop on a whole rotation of this many ops
    warmup = 1       # untimed ops before measuring
    trace_ops = 1    # fixed op count of a traced run, so its counts repeat
    # the pace kernels (pace_kernel.py) whose factors scale this workload's
    # op times: the one whose speed, on a shared machine, follows the ops'
    # own most closely
    kernels = ("sets",)

    def kernel(self, label: str) -> str:
        """The pace kernel that scales ops of this class."""
        return self.kernels[0]

    def ops(self, seed: int) -> Iterator[Op]:
        raise NotImplementedError

    def execute(self, op: Op):
        """Run the op; this is the timed region."""
        return [run_cli(argv) for argv in op.argvs]

    def check(self, op: Op, outputs) -> Optional[str]:
        """None when the op's outputs are correct, else what was wrong."""
        raise NotImplementedError

    def bytes_out(self, op: Op, outputs) -> int:
        """Bytes the CLI wrote: captured stdout plus --out files."""
        total = sum(len(text) for _, text in outputs)
        return total + sum(p.stat().st_size for p in op.out_files if p.exists())

    def _exit_codes(self, outputs) -> Optional[str]:
        for rc, _ in outputs:
            if rc != 0:
                return f"exit code {rc}"
        return None


class Simulate(Workload):
    """simulate --n 1000000 --generator fam:seed:bits --format csv [--out]."""

    name = "simulate"
    cycle = len(SIM_MIX)
    warmup = 6
    trace_ops = 2 * len(SIM_MIX)
    kernels = ("python", "numpy")

    def __init__(self, refs: dict):
        self.pool = refs["simulate"]

    def kernel(self, label):
        # the MRG32k3a lane steps and SplitMix64 are numpy arithmetic on
        # cache-resident arrays; the mt19937 ops, and the --out writers,
        # follow the interpreter
        return "python" if label.startswith("mt19937") else "numpy"

    def ops(self, seed):
        prefix = WORK / "simulate"
        for label, entry in _without_replacement(self.pool, SIM_MIX,
                                                 random.Random(f"simulate:{seed}")):
            spec, _, out = label.partition("+")
            family, bits = spec.split(":")
            argv = ["simulate", "--n", str(SIM_N), "--generator",
                    f"{family}:{entry['seed']}:{bits}", "--format", "csv"]
            files = ()
            if out:
                argv += ["--out", str(prefix)]
                files = (Path(f"{prefix}_trajectory.csv"), Path(f"{prefix}_positions.csv"))
            yield Op(label, [argv], entry, out_files=files)

    def check(self, op, outputs):
        err = self._exit_codes(outputs)
        if err:
            return err
        ref = op.ref
        rows = csv_rows(outputs[0][1])
        want = [["seed", "duplicates", "ties"],
                [str(ref["seed"]), str(ref["duplicates"]), str(ref["ties"])],
                ["mean", str(ref["duplicates"]), ""]]
        if rows[:3] != want or len(rows) != 4 or rows[3][0] != "expected":
            return f"simulate rows {rows} != {want} + expected"
        if not _close(float(rows[3][1]), ref["expected"], STABLE_RTOL):
            return f"expected {rows[3][1]} != {ref['expected']}"
        for path, key in zip(op.out_files, ("trajectory_sha256", "positions_sha256")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            path.unlink()
            if digest != ref[key]:
                return f"{path.name} sha256 {digest} != {ref[key]}"
        return None


class Analytic(Workload):
    """expect, prob and solve at one point (n, b)."""

    name = "analytic"
    warmup = 8
    kernels = ("python",)
    # the costliest stratum twice more holds the tail (about 6 rotations fit
    # in a run); stratum 16, of median cost, six more times holds the median
    extra = (-1, -1) + (16,) * 6

    def __init__(self, refs: dict):
        self.strata = refs["analytic"]
        self.cycle = len(_rotation(self.strata, self.extra))
        self.trace_ops = 5 * self.cycle

    def ops(self, seed):
        order = _rotation(self.strata, self.extra)
        for _, entry in _without_replacement(self.strata, order,
                                             random.Random(f"analytic:{seed}")):
            yield self.op(entry)

    @staticmethod
    def op(entry: dict) -> Op:
        """The op for one pool entry."""
        n, space = str(entry["n"]), space_args(entry["space"])
        target = ["--target", repr(entry["target"]), "--format", "csv"]
        solve = (["solve", "--n", n] if entry["solve"] == "k"
                 else ["solve", *space]) + target
        argvs = [["expect", "--n", n, *space, "--format", "csv"],
                 ["prob", "--n", n, *space, "--format", "csv"],
                 solve]
        return Op(f"analytic:{entry['kind']}", argvs, entry)

    def check(self, op, outputs):
        err = self._exit_codes(outputs)
        if err:
            return err
        ref = op.ref
        for (_, text), what in zip(outputs[:2], ("expect", "prob")):
            rows = csv_rows(text)
            if rows[0] != ["n", "buckets", "naive", "stable", "relative_difference"]:
                return f"{what} header {rows[0]}"
            naive, stable = float(rows[1][2]), float(rows[1][3])
            want_naive, want_stable = ref[what]
            if not _close(naive, want_naive, NAIVE_RTOL):
                return f"{what} naive {naive!r} != {want_naive!r}"
            if not _close(stable, want_stable, STABLE_RTOL):
                return f"{what} stable {stable!r} != {want_stable!r}"
        rows = csv_rows(outputs[2][1])
        if ref["solve"] == "k":
            got = rows[1][2]
            want = "none" if ref["k"] is None else str(ref["k"])
            if rows[0] != ["n", "target", "k"] or got != want:
                return f"solve k {got} != {want}"
        else:
            if rows[0] != ["buckets", "target", "n", "expected_at_n"]:
                return f"solve header {rows[0]}"
            root = float(rows[1][2])
            if not _close(root, ref["root"], ROOT_RTOL):
                return f"solve n {root!r} != {ref['root']!r}"
        return None


class Pmf(Workload):
    """pmf --n N with --bits k or an explicit --buckets b."""

    name = "pmf"
    warmup = 4
    # the second-largest stratum once more holds the tail (the largest
    # holds about 5 ops per run, this one 10); stratum 10, of median cost,
    # four more times holds the median
    extra = (-2,) + (10,) * 4

    def __init__(self, refs: dict):
        self.strata = refs["pmf"]
        self.cycle = len(_rotation(self.strata, self.extra))
        self.trace_ops = 3 * self.cycle

    def ops(self, seed):
        order = _rotation(self.strata, self.extra)
        for _, entry in _without_replacement(self.strata, order, random.Random(f"pmf:{seed}")):
            mode = "exact" if entry["n"] <= 64 else "log"
            argv = ["pmf", "--n", str(entry["n"]), *space_args(entry["space"])]
            yield Op(f"pmf:{mode}", [argv], entry)

    def check(self, op, outputs):
        err = self._exit_codes(outputs)
        if err:
            return err
        summary, problem = pmf_summary(outputs[0][1], op.ref["n"])
        if problem:
            return problem
        ref = op.ref
        n, b = ref["n"], space_count(ref["space"])
        if summary["mode"] != ref["mode"]:
            return f"pmf mode {summary['mode']} != {ref['mode']}"
        for key in ("p0", "pmax", "m2", "mean"):
            if not _close(summary[key], ref[key], PMF_RTOL):
                return f"pmf {key} {summary[key]!r} != {ref[key]!r}"
        if abs(summary["sum"] - 1.0) > PMF_SUM_ATOL:
            return f"pmf sum {summary['sum']!r} is not 1"
        expected = expected_collisions_exact(n, b)
        if not _close(summary["mean"], expected, PMF_MEAN_RTOL):
            return f"pmf mean {summary['mean']!r} != E[C] {expected!r}"
        return None


def pmf_summary(text: str, n: int) -> tuple:
    """(summary, problem) of a `pmf` CSV: P(C=0), mode, max, moments."""
    rows = csv_rows(text)
    if rows[0] != ["c", "probability"] or len(rows) != n + 3:
        return None, f"pmf has {len(rows)} rows, want header + {n} + sum + mean"
    body = rows[1:n + 1]
    if [r[0] for r in body] != [str(c) for c in range(n)]:
        return None, "pmf collision counts are not 0..n-1"
    if rows[n + 1][0] != "sum" or rows[n + 2][0] != "mean":
        return None, "pmf footer is not sum, mean"
    probs = [float(r[1]) for r in body]
    mode = max(range(n), key=probs.__getitem__)
    summary = {
        "p0": probs[0],
        "mode": mode,
        "pmax": probs[mode],
        "m2": math.fsum(c * c * p for c, p in enumerate(probs)),
        "sum": float(rows[n + 1][1]),
        "mean": float(rows[n + 2][1]),
    }
    return summary, None


class CountSeq(Workload):
    """count_duplicates, count_ties and collision_positions on one sequence."""

    name = "count-seq"
    cycle = len(SEQ_KINDS)
    warmup = 3
    trace_ops = 36

    def ops(self, seed):
        for i in itertools.count():
            kind = SEQ_KINDS[i % len(SEQ_KINDS)]
            yield Op(f"count-seq:{kind}", seq=make_sequence(kind, seed, i))

    def execute(self, op):
        seq = op.seq
        return (empirics.count_duplicates(seq), empirics.count_ties(seq),
                empirics.collision_positions(seq))

    def check(self, op, outputs):
        dups, ties, positions = outputs
        if op.label.endswith(":ints"):
            keys = np.asarray(op.seq, dtype=np.int64)
        else:
            keys = np.asarray(op.seq, dtype=np.float64).view(np.uint64)
        _, first, counts = np.unique(keys, return_index=True, return_counts=True)
        is_dup = np.ones(keys.size, dtype=bool)
        is_dup[first] = False
        want_positions = np.flatnonzero(is_dup) + 1
        if dups != keys.size - first.size:
            return f"duplicates {dups} != {keys.size - first.size}"
        if ties != int(counts[counts >= 2].sum()):
            return f"ties {ties} != {int(counts[counts >= 2].sum())}"
        if not np.array_equal(np.asarray(positions, dtype=np.int64), want_positions):
            return "collision positions differ from the numpy recount"
        return None

    def bytes_out(self, op, outputs):
        return 0


def make_sequence(kind: str, seed: int, index: int):
    """The materialized input of one count-seq op (untimed)."""
    rng = np.random.default_rng([seed, index])
    if kind == "gamma":
        # tiny-shape gamma underflows to exactly 0.0 about half the time
        # (the gamma_truncation_demo.py case); Python floats
        return rng.gamma(1e-3, 1.0, SEQ_LEN).tolist()
    if kind == "ints":
        return rng.integers(0, 1 << 17, SEQ_LEN).tolist()
    # float64 ndarray: coarse values with repeats, plus -0.0 next to 0.0
    # and NaNs whose payloads differ
    arr = rng.integers(0, 1 << 16, SEQ_LEN).astype(np.float64) / 256.0
    spots = rng.choice(SEQ_LEN, size=SEQ_LEN // 10, replace=False)
    third = spots.size // 3
    arr[spots[:third]] = -0.0
    arr[spots[third:2 * third]] = 0.0
    arr[spots[2 * third:]] = _NAN_PAYLOADS[rng.integers(0, _NAN_PAYLOADS.size,
                                                        spots.size - 2 * third)]
    return arr


def workloads(refs: dict) -> dict:
    """Workloads by name."""
    return {w.name: w for w in (Simulate(refs), Analytic(refs), Pmf(refs), CountSeq())}
