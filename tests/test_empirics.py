import io
import math
import struct
from collections import Counter
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collision_lab.analytics import BucketSpace, expected_collisions
from collision_lab.empirics import (
    TieSummary,
    _write_indexed_csv,
    collision_positions,
    collision_summary,
    count_duplicates,
    count_ties,
    merge_summaries,
    run_seeds,
    seeds_from_base,
    trace_collisions,
    write_positions_csv,
    write_trajectory_csv,
)
from collision_lab.errors import CapacityError
from collision_lab.prng import GeneratorSpec, KBitStream


def stream(family="mt19937", seed=1, bits=32):
    return KBitStream(GeneratorSpec(family, seed, bits))


# slow reference: the per-element loops the counting kernel replaced

def oracle_key(value):
    # floats compare by bit payload: -0.0 != 0.0, NaNs equal per payload
    if isinstance(value, (float, np.floating)):
        return struct.unpack("<Q", struct.pack("<d", float(value)))[0], "f"
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def oracle_duplicates(values):
    seen = set()
    dup = 0
    for v in values:
        k = oracle_key(v)
        if k in seen:
            dup += 1
        else:
            seen.add(k)
    return dup


def oracle_ties(values):
    counts = Counter(oracle_key(v) for v in values)
    return sum(c for c in counts.values() if c >= 2)


def oracle_positions(values):
    seen = set()
    positions = []
    for i, v in enumerate(values, start=1):
        k = oracle_key(v)
        if k in seen:
            positions.append(i)
        else:
            seen.add(k)
    return positions


def oracle_histogram(values):
    counts = Counter(oracle_key(v) for v in values)
    return dict(Counter(c for c in counts.values() if c >= 2))


def f64_from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


NAN_BITS_64 = [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000002,
               0x7FF0000000000001]
FLOAT_POOL = [0.0, -0.0, 1.0, 0.5, -2.5, math.inf, -math.inf,
              *map(f64_from_bits, NAN_BITS_64)]
MIXED_POOL = [*FLOAT_POOL, 1, 0, -1, True, False, 2 ** 63, 2 ** 64 - 1, -2 ** 63 - 1,
              np.float64(1.0), np.float64(-0.0), np.float32(0.5), np.int64(1),
              np.uint64(2 ** 64 - 1), "1", "a", "", None]
# float32 and float64 bit patterns: signed zeros, ones, infinities and NaNs
# whose payloads differ (quiet and signalling)
BITS_32 = [0, 0x80000000, 0x3F800000, 0x7F800000, 0xFF800000, 0x7FC00000,
           0x7FC00001, 0xFFC00002, 0x7F800001]
BITS_64 = [0, 0x8000000000000000, 0x3FF0000000000000, 0x7FF0000000000000,
           0xFFF0000000000000, *NAN_BITS_64]

mixed_lists = st.lists(st.one_of(st.sampled_from(MIXED_POOL),
                                 st.integers(-3, 3),
                                 st.integers(2 ** 63 - 2, 2 ** 63 + 1)),
                       max_size=40)
float_lists = st.lists(st.one_of(st.sampled_from(FLOAT_POOL),
                                 st.floats(-4, 4, width=16)), max_size=40)
int_lists = st.lists(st.one_of(st.integers(-5, 5),
                               st.integers(2 ** 63 - 2, 2 ** 63 + 1),
                               st.integers(-2 ** 63 - 1, -2 ** 63)), max_size=40)


def assert_matches_oracle(make):
    """``make()`` returns a fresh copy of the input (generators run once)."""
    assert count_duplicates(make()) == oracle_duplicates(make())
    assert count_ties(make()) == oracle_ties(make())
    positions = collision_positions(make())
    assert isinstance(positions, list)
    assert positions == oracle_positions(make())


class TestTieConventions:
    # the three worked examples: (values, duplicates, ties)
    CASES = [
        ([1, 2, 3], 0, 0),
        ([1, 1, 2], 1, 2),
        ([1, 1, 2, 3, 3, 3], 3, 5),
    ]

    @pytest.mark.parametrize("values,dups,ties", CASES)
    def test_worked_examples(self, values, dups, ties):
        assert count_duplicates(values) == dups
        assert count_ties(values) == ties

    def test_positions(self):
        assert collision_positions([1, 1, 2]) == [2]
        assert collision_positions([1, 2, 3]) == []
        assert collision_positions([1, 1, 2, 3, 3, 3]) == [2, 5, 6]

    def test_equality_is_on_bit_patterns(self):
        # -0.0 and 0.0 are different 64-bit payloads, hence no duplicate
        assert count_duplicates([0.0, -0.0]) == 0
        assert count_duplicates([0.0, 0.0]) == 1
        # NaNs with identical payloads collide
        assert count_duplicates([math.nan, math.nan]) == 1
        # ... and NaNs with distinct payloads do not
        assert count_duplicates([f64_from_bits(NAN_BITS_64[0]),
                                 f64_from_bits(NAN_BITS_64[1])]) == 0
        # 1 and 1.0 differ; np.float64 equals the float of the same bits;
        # integers beyond int64 stay exact
        assert count_duplicates([1, 1.0]) == 0
        assert count_duplicates([1.0, np.float64(1.0)]) == 1
        assert count_duplicates([2 ** 64 - 1, 2 ** 64 - 1, 2 ** 64 - 2]) == 1

    @given(st.lists(st.integers(min_value=0, max_value=8), max_size=60),
           st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_permutation_invariance(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert count_duplicates(shuffled) == count_duplicates(values)
        assert count_ties(shuffled) == count_ties(values)

    @given(st.lists(st.integers(min_value=0, max_value=10), max_size=80))
    @settings(max_examples=100)
    def test_tie_bounds(self, values):
        c = count_duplicates(values)
        t = count_ties(values)
        if c == 0:
            assert t == 0
        else:
            assert c + 1 <= t <= 2 * c


class TestCountingKernelMatchesOracle:
    @given(st.one_of(mixed_lists, float_lists, int_lists))
    @settings(max_examples=300)
    def test_lists(self, values):
        assert_matches_oracle(lambda: list(values))

    @given(st.one_of(mixed_lists, float_lists, int_lists))
    @settings(max_examples=100)
    def test_generators_and_tuples(self, values):
        assert_matches_oracle(lambda: (v for v in values))
        assert_matches_oracle(lambda: tuple(values))

    @given(st.integers(-50, 50), st.integers(-50, 50),
           st.integers(1, 7).flatmap(lambda s: st.sampled_from([s, -s])))
    @settings(max_examples=50)
    def test_ranges(self, start, stop, step):
        assert_matches_oracle(lambda: range(start, stop, step))

    @given(st.lists(st.sampled_from(BITS_32), max_size=40),
           st.lists(st.sampled_from(BITS_64), max_size=40))
    @settings(max_examples=200)
    def test_float_arrays_by_bit_pattern(self, bits32, bits64):
        a32 = np.array(bits32, dtype=np.uint32).view(np.float32)
        a64 = np.array(bits64, dtype=np.uint64).view(np.float64)
        assert_matches_oracle(lambda: a32)
        assert_matches_oracle(lambda: a64)
        assert_matches_oracle(lambda: a64[::2])

    @given(st.lists(st.integers(-5, 5), max_size=40),
           st.lists(st.sampled_from([0, 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1]),
                    max_size=40))
    @settings(max_examples=100)
    def test_int_arrays(self, small, wide):
        assert_matches_oracle(lambda: np.array(small, dtype=np.int64))
        assert_matches_oracle(lambda: np.array(wide, dtype=np.uint64))

    def test_unhashable_elements_refused(self):
        with pytest.raises(TypeError):
            count_duplicates([[1], [1]])


class TestTieSummary:
    def test_from_multiplicities(self):
        s = TieSummary.from_multiplicities(6, np.array([2, 1, 3]))
        assert s.duplicates == 3
        assert s.ties == 5
        assert s.histogram == {2: 1, 3: 1}

    def test_histogram_identities(self):
        s = TieSummary.from_multiplicities(10, np.array([2, 2, 3, 1, 1, 1]))
        assert s.duplicates == sum((m - 1) * c for m, c in s.histogram.items())
        assert s.ties == sum(m * c for m, c in s.histogram.items())

    def test_merge(self):
        a = TieSummary(n=3, duplicates=1, ties=2, histogram={2: 1})
        b = TieSummary(n=6, duplicates=3, ties=5, histogram={2: 1, 3: 1})
        m = merge_summaries([a, b])
        assert m.n == 9
        assert m.duplicates == 4
        assert m.ties == 7
        assert m.histogram == {2: 2, 3: 1}


class StubCore:
    """A native-64-bit generator core that returns fixed words."""

    native_bits = 64

    def __init__(self, words):
        self._words = words

    def words(self, count):
        out, self._words = self._words[:count], self._words[count:]
        return out


def stub_stream(bits, keys):
    """A ``bits``-wide stream whose draws are ``keys``."""
    s = stream(bits=bits)
    s._core = StubCore(np.asarray(keys, dtype=np.uint64) << np.uint64(64 - bits))
    return s


def assert_trace_matches_oracle(make_stream, n):
    """``make_stream()`` returns a fresh stream; its first n draws are traced."""
    draws = make_stream().take_kbits(n).tolist()
    summary, trace = trace_collisions(make_stream(), n)
    assert summary == collision_summary(make_stream(), n)
    assert summary.n == n
    assert summary.duplicates == oracle_duplicates(draws)
    assert summary.ties == oracle_ties(draws)
    assert summary.histogram == oracle_histogram(draws)
    positions = oracle_positions(draws)
    assert trace.positions.tolist() == positions
    is_dup = np.zeros(n, dtype=np.int64)
    is_dup[np.array(positions, dtype=np.int64) - 1] = 1
    assert trace.cumulative.tolist() == np.cumsum(is_dup).tolist()


# widths on both sides of the uint32 sort keys (k <= 32)
KEY_WIDTHS = [1, 10, 16, 32, 33, 64]


class TestTraceCollisions:
    def test_empty_and_single(self):
        summary, trace = trace_collisions(stream(), 0)
        assert summary.duplicates == 0 and summary.ties == 0
        assert trace.positions.size == 0 and trace.cumulative.size == 0
        summary, trace = trace_collisions(stream(), 1)
        assert summary.duplicates == 0
        assert list(trace.cumulative) == [0]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_streaming_equals_batch_counting(self, seed):
        # few output bits force collisions quickly; n = 0 and 1 are the
        # empty and single-run edges of the sort
        for bits in KEY_WIDTHS:
            for n in (0, 1, 5000):
                assert_trace_matches_oracle(lambda: stream(seed=seed, bits=bits), n)
        n = 5000
        draws = stream(seed=seed, bits=10).take_kbits(n).tolist()
        summary, trace = trace_collisions(stream(seed=seed, bits=10), n)
        assert summary.duplicates == count_duplicates(draws)
        assert summary.ties == count_ties(draws)
        assert trace.positions.tolist() == collision_positions(draws)

    @pytest.mark.parametrize("bits", KEY_WIDTHS)
    def test_all_equal_and_all_distinct_draws(self, bits):
        n = min(2000, 2 ** bits)
        assert_trace_matches_oracle(lambda: stub_stream(bits, [2 ** bits - 1] * n), n)
        # pairs j and j + 2^(k-1): distinct at k bits, and equal in their
        # low 32 bits at k = 33, so a key cast that drops bits would tie them
        i = np.arange(n, dtype=np.uint64)
        distinct = (i >> np.uint64(1)) | ((i & np.uint64(1)) << np.uint64(bits - 1))
        assert_trace_matches_oracle(lambda: stub_stream(bits, distinct), n)
        assert collision_summary(stub_stream(bits, distinct), n).duplicates == 0

    def test_trace_shape(self):
        summary, trace = trace_collisions(stream(seed=5, bits=12), 4000)
        assert trace.positions.size == summary.duplicates
        assert trace.cumulative[-1] == summary.duplicates
        assert np.all(np.diff(trace.cumulative) >= 0)
        assert np.all(np.diff(trace.positions) > 0)

    def test_summary_matches_trace_path(self):
        a = collision_summary(stream(seed=9, bits=14), 3000)
        b, _ = trace_collisions(stream(seed=9, bits=14), 3000)
        assert a == b

    def test_tie_bounds_on_generated_sample(self):
        summary, _ = trace_collisions(stream(seed=6, bits=16), 2000)
        c, t = summary.duplicates, summary.ties
        assert c >= 1  # 16-bit draws at n=2000 essentially always collide
        assert c + 1 <= t <= 2 * c

    def test_capacity_error(self, monkeypatch):
        monkeypatch.setenv("COLLISION_LAB_MAX_DISTINCT", "1000")
        with pytest.raises(CapacityError):
            trace_collisions(stream(), 2000)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("COLLISION_LAB_MAX_DISTINCT", "500")
        with pytest.raises(CapacityError):
            trace_collisions(stream(), 600)
        monkeypatch.setenv("COLLISION_LAB_MAX_DISTINCT", "700")
        summary, _ = trace_collisions(stream(), 600)
        assert summary.n == 600


    def test_env_cap_in_scientific_form(self, monkeypatch):
        monkeypatch.setenv("COLLISION_LAB_MAX_DISTINCT", "1e8")
        summary, _ = trace_collisions(stream(), 600)
        assert summary.n == 600
        monkeypatch.setenv("COLLISION_LAB_MAX_DISTINCT", "5e2")
        with pytest.raises(CapacityError):
            trace_collisions(stream(), 600)

    @pytest.mark.parametrize("bad", ["-1", "0", "abc", "1.5", "inf", "1e99999"])
    def test_env_cap_refused_naming_the_variable(self, monkeypatch, bad):
        monkeypatch.setenv("COLLISION_LAB_MAX_DISTINCT", bad)
        with pytest.raises(ValueError, match="COLLISION_LAB_MAX_DISTINCT"):
            trace_collisions(stream(), 600)


class TestRunSeeds:
    def test_deterministic_and_ordered(self):
        seeds = seeds_from_base(271, 4)
        a = run_seeds("mt19937", 16, 2000, seeds)
        b = run_seeds("mt19937", 16, 2000, seeds)
        assert a == b

    def test_cap_applies_per_stream(self, monkeypatch):
        monkeypatch.setenv("COLLISION_LAB_MAX_DISTINCT", "1000")
        # one stream of 1200 draws is over a cap of 1000
        with pytest.raises(CapacityError):
            run_seeds("cmrg", 16, 1200, [1])
        # streams are counted one at a time, so three of 600 draws fit
        assert len(run_seeds("cmrg", 16, 600, [1, 2, 3])) == 3

    def test_seed_derivation_distinct(self):
        assert len(set(seeds_from_base(1, 100))) == 100

    def test_mean_duplicates_near_expectation(self):
        # n = 1e5 in a 32-bit setup: expectation ~1.164, sd ~ sqrt(E);
        # 30 independent seeds should land within 3 standard errors
        n, n_seeds = 10 ** 5, 30
        e = expected_collisions(n, BucketSpace.power_of_two(32))
        summaries = run_seeds("mt19937", 32, n, seeds_from_base(2024, n_seeds))
        mean = np.mean([s.duplicates for s in summaries])
        band = 3.0 * math.sqrt(e) / math.sqrt(n_seeds)
        assert abs(mean - e) <= band


class TestCsvEmission:
    def test_trajectory_csv(self):
        _, trace = trace_collisions(stream(seed=3, bits=8), 64)
        buf = io.StringIO()
        write_trajectory_csv(trace, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "index,cumulative_collisions"
        assert len(lines) == 65
        assert lines[-1] == f"64,{trace.cumulative[-1]}"

    def test_positions_csv(self):
        _, trace = trace_collisions(stream(seed=3, bits=8), 64)
        buf = io.StringIO()
        write_positions_csv(trace, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "collision_rank,position"
        assert len(lines) == 1 + trace.positions.size
        if trace.positions.size:
            assert lines[1] == f"1,{trace.positions[0]}"

    # nondecreasing columns whose values sit at and around every power of
    # ten that int64 holds, where the digit width of a row changes
    near_powers = st.integers(0, 18).flatmap(
        lambda j: st.integers(max(0, 10 ** j - 2), 10 ** j + 1))
    columns = st.lists(st.one_of(near_powers, st.integers(0, 2 ** 63 - 1),
                                 st.just(2 ** 63 - 1)), max_size=60).map(sorted)

    @staticmethod
    def assert_rows(values):
        """The writer's text for ``values`` equals one f-string per row."""
        buf = io.StringIO()
        _write_indexed_csv(buf, "h", np.array(values, dtype=np.int64))
        got = buf.getvalue()
        want = "h\n" + "".join(f"{i},{v}\n" for i, v in enumerate(values, 1))
        if got != want:  # name the first differing row, not a diff of megabytes
            rows = zip_longest(got.split("\n"), want.split("\n"))
            bad = next((g, w) for g, w in rows if g != w)
            pytest.fail(f"row {bad[0]!r} != {bad[1]!r}")

    @given(columns)
    @settings(max_examples=300)
    def test_indexed_csv_matches_row_format(self, values):
        self.assert_rows(values)

    @pytest.mark.parametrize("length", [0, 1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1])
    def test_indexed_csv_lengths(self, length):
        # cubes cross the powers of ten up to 10^14 within the one column
        self.assert_rows((np.arange(length, dtype=np.int64) ** 3).tolist())

    @pytest.mark.parametrize("values", [[1, 0], [5, 7, 6], [-1], [-3, 2]])
    def test_indexed_csv_refuses_unsorted_or_negative_columns(self, values):
        buf = io.StringIO()
        with pytest.raises(ValueError):
            _write_indexed_csv(buf, "h", values)
        assert buf.getvalue() == ""

