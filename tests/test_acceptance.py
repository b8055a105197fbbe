"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -sv tests/test_acceptance.py` to see one line per
criterion.  The error-curve criterion asserts a >1e-3 naive-probability
error at some k >= 54; see notes on the bug-free literal product in the
README.
"""

import math
import struct
import sys
import time
from itertools import product

import numpy as np
import pytest

from collision_lab.analytics import (
    BucketSpace,
    collision_pmf_exact,
    collision_probability,
    expected_collisions,
    expected_collisions_naive,
    min_bits_for_expected,
    probability_error_curve,
    sample_size_for_expected,
)
from collision_lab.empirics import count_duplicates, count_ties, run_seeds
from collision_lab.ieee754 import compose, decompose, machine_constants
from collision_lab.prng import seeds_from_base
from collision_lab.stable_math import DOUBLE_EPS, expm1_ref

N = 10 ** 6
SEEDS = 50


def k(bits):
    return BucketSpace.power_of_two(bits)


def ok(label, detail=""):
    print(f"[{label}] PASS {detail}")


@pytest.fixture(scope="module")
def headline_experiment():
    """50 seeds x {mt19937, cmrg}, n = 1e6 draws of 32-bit integers."""
    start = time.perf_counter()
    seeds = seeds_from_base(20260808, SEEDS)
    results = {
        family: run_seeds(family, 32, N, seeds)
        for family in ("mt19937", "cmrg")
    }
    return results, time.perf_counter() - start


def test_criterion_01_expected_collisions_headline():
    value = expected_collisions(N, k(32))
    assert abs(value - 116.4062) <= 1e-4
    expected_collisions(N, k(32))  # warm
    t0 = time.perf_counter()
    expected_collisions(N, k(32))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    ok("criterion 01", f"E(1e6, 2^32) = {value!r} in {elapsed * 1e6:.1f} us")


def test_criterion_02_expected_collisions_high_bits():
    v52 = expected_collisions(N, k(52))
    v64 = expected_collisions(N, k(64))
    assert abs(v52 - 0.0001110223) <= 1e-6 * 0.0001110223
    assert abs(v64 - 2.712477e-08) <= 1e-6 * 2.712477e-08
    ok("criterion 02", f"E(1e6, 2^52) = {v52!r}, E(1e6, 2^64) = {v64!r}")


def test_criterion_03_collision_probability():
    p64 = collision_probability(N, k(64))
    p54 = collision_probability(3, k(54))
    p53 = collision_probability(3, k(53))
    assert abs(p64 - 2.710503e-08) <= 1e-6 * 2.710503e-08
    assert abs(p54 - 1.665335e-16) <= 1e-6 * 1.665335e-16
    assert abs(p53 - 3.330669e-16) <= 1e-6 * 3.330669e-16
    ok("criterion 03", f"P(1e6, 2^64) = {p64!r}")


def test_criterion_04_inverse_problems():
    bits = min_bits_for_expected(N, 1.0)
    assert bits == 39
    root = sample_size_for_expected(k(64), 1.0, 1e6, 1e10)
    assert abs(root - 6.074e9) <= 0.001e9
    ok("criterion 04", f"k* = {bits}, n* = {root:.6g}")


def test_criterion_05_pathology_reproduction():
    for bits in range(54, 65):
        assert expected_collisions_naive(N, k(bits)) == float(N), bits
    onset = min(b for b in range(1, 65) if 1.0 - 2.0 ** -b == 1.0)
    assert onset == 54
    ok("criterion 05", f"naive collapses to n for k = 54..64; onset k = {onset}")


def test_criterion_06_exact_pmf_oracle():
    start = time.perf_counter()
    for n in range(2, 7):
        for b in range(2, 7):
            space = BucketSpace.exact(b)
            pmf = collision_pmf_exact(n, space)
            counts = [0] * n
            for outcome in product(range(b), repeat=n):
                counts[n - len(set(outcome))] += 1
            total = b ** n
            for c in range(n):
                assert pmf.probs[c] * total == counts[c], (n, b, c)
            assert pmf.total() == 1
            assert abs(pmf.mean() - expected_collisions(n, space)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok("criterion 06", f"25 (n, b) grids enumerated in {elapsed:.2f} s")


def test_criterion_07_headline_statistics(headline_experiment):
    results, elapsed = headline_experiment
    target = 116.4062
    band = 3.0 * 10.8 / math.sqrt(SEEDS)
    means = {}
    for family, summaries in results.items():
        mean = float(np.mean([s.duplicates for s in summaries]))
        means[family] = mean
        assert abs(mean - target) <= band, (family, mean)
    assert elapsed < 60.0, f"experiment took {elapsed:.1f} s"
    ok("criterion 07",
       f"mean duplicates mt19937 = {means['mt19937']:.2f}, "
       f"cmrg = {means['cmrg']:.2f}, band +-{band:.2f}, {elapsed:.1f} s")


def test_criterion_08_tie_convention(headline_experiment):
    assert (count_duplicates([1, 2, 3]), count_ties([1, 2, 3])) == (0, 0)
    assert (count_duplicates([1, 1, 2]), count_ties([1, 1, 2])) == (1, 2)
    assert (count_duplicates([1, 1, 2, 3, 3, 3]),
            count_ties([1, 1, 2, 3, 3, 3])) == (3, 5)
    results, _ = headline_experiment
    for family, summaries in results.items():
        for s in summaries:
            if s.duplicates >= 1:
                assert s.duplicates + 1 <= s.ties <= 2 * s.duplicates, family
    ok("criterion 08", "worked examples exact; C+1 <= T <= 2C on all 100 runs")


def test_criterion_09_ieee754_suite():
    mc = machine_constants()
    def bits_of(x):
        return struct.unpack("<Q", struct.pack("<d", x))[0]
    assert bits_of(mc.xmin) == bits_of(sys.float_info.min)
    assert bits_of(mc.eps) == bits_of(sys.float_info.epsilon)
    assert bits_of(mc.xmax) == bits_of(sys.float_info.max)
    assert format(mc.xmin, ".7g") == "2.225074e-308"
    assert format(mc.eps, ".7g") == "2.220446e-16"
    assert format(mc.xmax, ".7g") == "1.797693e+308"

    rng = np.random.default_rng(99)
    patterns = rng.integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
    signs = (patterns >> np.uint64(63)).astype(np.uint64)
    exps = (patterns >> np.uint64(52)) & np.uint64(0x7FF)
    fracs = patterns & np.uint64((1 << 52) - 1)
    rebuilt = (signs << np.uint64(63)) | (exps << np.uint64(52)) | fracs
    assert np.array_equal(rebuilt, patterns)
    for p in patterns[::1009]:
        x = struct.unpack("<d", struct.pack("<Q", int(p)))[0]
        assert bits_of(compose(decompose(x))) == bits_of(x)
    edges = [0.0, -0.0, mc.xmin, -mc.xmin, mc.eps, 1.0 + mc.eps,
             math.nextafter(1.0, 0.0), mc.xmax, -mc.xmax, math.inf,
             -math.inf, math.nan, 5e-324]
    for x in edges:
        assert bits_of(compose(decompose(x))) == bits_of(x)

    assert mc.xmin / 2 ** 52 != 0.0
    assert mc.xmin / 2 ** 53 == 0.0
    ok("criterion 09", "constants bitwise-equal to platform; roundtrip exact")


def test_criterion_10_expm1_reference():
    xs = np.logspace(-300, math.log10(0.7), 600)
    worst = 0.0
    for x in np.concatenate([xs, -xs]):
        x = float(x)
        ref = math.expm1(x)
        err = abs(expm1_ref(x) - ref) / abs(ref)
        worst = max(worst, err)
        assert err <= 1e-13, x
    for boundary in (DOUBLE_EPS, 1e-8, 0.697):
        for x in (boundary * (1 - 1e-6), boundary * (1 + 1e-6),
                  -boundary * (1 - 1e-6), -boundary * (1 + 1e-6)):
            ref = math.expm1(x)
            assert abs(expm1_ref(x) - ref) <= 1e-13 * abs(ref), x
    ok("criterion 10", f"worst relative deviation {worst:.3e}")


def test_criterion_11_probability_error_curve():
    reports = probability_error_curve(N, 32, 64)
    for r in reports:
        if r.stable_value != 0.0:
            assert r.relative_error is not None
            assert math.isfinite(r.relative_error), r
    high_k = [r for r in reports if r.input >= 54]
    worst = max(r.relative_error for r in high_k)
    assert worst > 1e-3, (
        f"worst naive-vs-stable relative error for k >= 54 is {worst:.3e}; "
        "the length-bug-free literal product never degrades past 1e-3 here "
        "(the famous blow-up needs the emulated sequence-recycling bug, "
        "which this library deliberately does not reproduce)")
    ok("criterion 11", f"worst relative error for k >= 54: {worst:.3e}")
