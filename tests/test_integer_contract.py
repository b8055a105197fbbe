"""The integer contract at every entry point: a bool or a non-integer where
an integer belongs raises TypeError, a value out of range raises a
ValueError subclass, and Python and numpy integers pass unchanged.  A bool
where a real number belongs raises TypeError too."""

import math

import numpy as np
import pytest

from collision_lab.analytics import (
    BucketSpace,
    collision_pmf_exact,
    collision_probability,
    expected_collisions,
    expected_collisions_naive,
    min_bits_for_expected,
    sample_size_for_expected,
    stirling2,
)
from collision_lab.errors import DomainError, exact_index
from collision_lab.ieee754 import FloatAnatomy, compose
from collision_lab.prng import (GeneratorSpec, KBitStream, _Mrg32k3aCore, derive_seed,
                                sample_ints, seeds_from_base)

K32 = BucketSpace.power_of_two(32)


def stream(bits=32):
    return KBitStream(GeneratorSpec("mt19937", 5489, bits))


REFUSED = {
    "exact-2.5": (lambda: BucketSpace.exact(2.5), TypeError),
    "spec-bits-True": (lambda: GeneratorSpec("cmrg", 1, True), TypeError),
    "spec-seed-1.5": (lambda: GeneratorSpec("cmrg", 1.5, 32), TypeError),
    "expect-nan": (lambda: expected_collisions(math.nan, K32), DomainError),
    "expect-inf": (lambda: expected_collisions(math.inf, K32), DomainError),
    "expect_naive-nan": (lambda: expected_collisions_naive(math.nan, K32), DomainError),
    "min_bits-nan": (lambda: min_bits_for_expected(math.nan, 1), TypeError),
    "min_bits-2.5": (lambda: min_bits_for_expected(2.5, 1), TypeError),
    "solve-hi-inf": (lambda: sample_size_for_expected(K32, 1, 1, math.inf), DomainError),
    "pmf-64.0": (lambda: collision_pmf_exact(64.0, K32), TypeError),
    "pmf-True": (lambda: collision_pmf_exact(True, K32), TypeError),
    "prob-True": (lambda: collision_probability(True, K32), TypeError),
    "take_kbits-True": (lambda: stream().take_kbits(True), TypeError),
    "stirling2-l-True": (lambda: stirling2(5, True), TypeError),
    "stirling2-n-True": (lambda: stirling2(True, 0), TypeError),
    "compose-sign-True": (lambda: compose(FloatAnatomy(True, 1023, 0)), TypeError),
    "cmrg-state-float": (lambda: _Mrg32k3aCore.from_state([12345.7, 12345, 12345],
                                                          [12345] * 3), TypeError),
    "seeds-count-negative": (lambda: seeds_from_base(1, -3), DomainError),
    "seeds-count-True": (lambda: seeds_from_base(1, True), TypeError),
    "seeds-base-2^64": (lambda: seeds_from_base(2 ** 64, 1), DomainError),
    "seeds-base-1.0": (lambda: seeds_from_base(1.0, 1), TypeError),
    "derive-base-negative": (lambda: derive_seed(-1, 0), DomainError),
    "derive-base-2^64": (lambda: derive_seed(2 ** 64, 0), DomainError),
    "derive-index-negative": (lambda: derive_seed(1, -1), DomainError),
    "derive-index-True": (lambda: derive_seed(1, True), TypeError),
    # real arguments: a bool is not a number of draws, a target or a bound
    "expect-True": (lambda: expected_collisions(True, K32), TypeError),
    "expect-np.True_": (lambda: expected_collisions(np.True_, K32), TypeError),
    "expect_naive-True": (lambda: expected_collisions_naive(True, K32), TypeError),
    "expect-complex": (lambda: expected_collisions(1j, K32), TypeError),
    "min_bits-target-True": (lambda: min_bits_for_expected(10 ** 6, True), TypeError),
    "solve-target-True": (lambda: sample_size_for_expected(K32, True, 1, 1e12), TypeError),
    "solve-lo-True": (lambda: sample_size_for_expected(K32, 1e3, True, 1e12), TypeError),
    "solve-hi-np.True_": (lambda: sample_size_for_expected(K32, 1e3, 1, np.True_), TypeError),
}


@pytest.mark.parametrize("call, error", REFUSED.values(), ids=REFUSED.keys())
def test_refused(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("cast", [int, np.int64, np.uint64])
def test_integer_types_accepted(cast):
    assert BucketSpace.exact(cast(365)) == BucketSpace.exact(365)
    assert type(BucketSpace.exact(cast(365)).count) is int
    assert BucketSpace.power_of_two(cast(40)) == BucketSpace.power_of_two(40)
    spec = GeneratorSpec("cmrg", cast(271), cast(32))
    assert spec == GeneratorSpec("cmrg", 271, 32) and spec.serialize() == "cmrg:271:32"
    assert np.array_equal(stream().take_kbits(cast(5)), stream().take_kbits(5))
    assert collision_probability(cast(10 ** 6), K32) == collision_probability(10 ** 6, K32)
    assert collision_pmf_exact(cast(30), K32) == collision_pmf_exact(30, K32)
    assert min_bits_for_expected(cast(10 ** 6), 1.0) == 39
    assert stirling2(cast(10), cast(3)) == stirling2(10, 3)
    assert np.array_equal(sample_ints(stream(), cast(100), cast(50)),
                          sample_ints(stream(), 100, 50))
    assert seeds_from_base(cast(271), cast(4)) == seeds_from_base(271, 4)
    assert derive_seed(cast(5), cast(2)) == derive_seed(5, 2)
    assert all(type(v) is int for v in (*seeds_from_base(cast(271), cast(4)),
                                        derive_seed(cast(5), cast(2))))
    assert expected_collisions(cast(10 ** 5), K32) == expected_collisions(10 ** 5, K32)
    assert (sample_size_for_expected(K32, cast(1), cast(1), cast(10 ** 12))
            == sample_size_for_expected(K32, 1, 1, 10 ** 12))


def test_exact_index_bounds():
    assert exact_index("x", np.uint64(2 ** 64 - 1), 0, 2 ** 64 - 1) == 2 ** 64 - 1
    with pytest.raises(DomainError, match="x must be in 1..3, got 4"):
        exact_index("x", 4, 1, 3)
    with pytest.raises(DomainError, match="x must be >= 0, got -1"):
        exact_index("x", -1)
    with pytest.raises(TypeError, match="x must be an integer, got np.True_"):
        exact_index("x", np.True_)


@pytest.mark.parametrize("spec", [
    GeneratorSpec("cmrg", 1, 1), GeneratorSpec("mt19937", 2 ** 64 - 1, 64),
    GeneratorSpec("splitcounter", np.uint64(7), np.int64(24)),
])
def test_parse_inverts_serialize(spec):
    assert GeneratorSpec.parse(spec.serialize()) == spec


def test_parse_takes_exact_integer_forms():
    assert GeneratorSpec.parse("cmrg:1e3:3.2e1") == GeneratorSpec("cmrg", 1000, 32)
    for bad in ("cmrg:1:True", "cmrg:1.5:32", "cmrg:1:3.25e1"):
        with pytest.raises(ValueError):
            GeneratorSpec.parse(bad)
