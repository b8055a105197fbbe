import hashlib
import io
import math
import os
import re
import struct
import threading
import tracemalloc
import warnings
from collections import Counter
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collision_lab import empirics
from collision_lab.analytics import BucketSpace, expected_collisions
from collision_lab.empirics import (
    TieSummary,
    _PHI,
    _SPLIT_SORT,
    _key,
    _keys,
    _sort,
    _tally,
    collision_positions,
    collision_summary,
    count_duplicates,
    count_ties,
    run_seeds,
    trace_collisions,
    write_indexed_csv,
    write_positions_csv,
    write_trajectory_csv,
)
from collision_lab.errors import CapacityError, DomainError
from collision_lab.prng import GeneratorSpec, KBitStream, seeds_from_base


def stream(family="mt19937", seed=1, bits=32):
    return KBitStream(GeneratorSpec(family, seed, bits))


def peak_per_draw(count, s, n=10 ** 6):
    """tracemalloc peak of ``count(s, n)`` in bytes per draw."""
    tracemalloc.start()
    try:
        count(s, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / n


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


def set_rule_keys(values):
    """The list rule the type-identity branch of ``_keys`` replaced: one set
    of the element types, then ``np.array``, then the dense-code hash map."""
    types = set(map(type, values))
    if types == {float}:
        return np.array(values, dtype=np.float64).view(np.uint64)
    if types == {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    codes = {}
    return np.fromiter((codes.setdefault(_key(v), len(codes)) for v in values),
                       dtype=np.int64, count=len(values))


def assert_list_keys(values):
    """Counts as the oracle's, and keys of the set rule's dtype and bytes."""
    assert_matches_oracle(lambda: list(values))
    got, want = _keys(list(values)), set_rule_keys(list(values))
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


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

    def test_exact_types_key_like_their_lookalikes(self):
        # a mixed list's plain ints and floats are keyed by type identity;
        # bools, numpy scalars and subclasses keep their own branches and
        # key alike: four 1s, three 1.0s, two -0.0s and two 2^70s
        class Float(float):
            pass

        class Int(int):
            pass

        values = [1, 1.0, True, np.int64(1), Int(1), np.float64(1.0), Float(1.0), -0.0,
                  Float(-0.0), 0, 2 ** 70, Int(2 ** 70)]
        assert count_duplicates(values) == 7

    @pytest.mark.parametrize("dtype", ["m8[s]", "m8[ns]", ">m8[ms]", "M8[D]", "M8[ns]"])
    @pytest.mark.parametrize("form", [lambda a: a, list], ids=["array", "list"])
    def test_datetimes_count_by_payload(self, dtype, form):
        # the int64 payload is the value: NaT equals NaT, as equal NaN
        # payloads do, whatever the unit
        nat = np.iinfo(np.int64).min
        values = form(np.array([1, 1, nat, 2, nat, nat], dtype=np.int64).astype(dtype))
        assert count_duplicates(values) == 3
        assert count_ties(values) == 5
        assert collision_positions(values) == [2, 5, 6]

    def test_datetime_scalars_keep_their_unit(self):
        # 1 s and 1000 ms are one duration in two units, as 1 and 1.0 are
        # one number in two types: they differ
        assert count_duplicates([np.timedelta64(1, "s"), np.timedelta64(1000, "ms")]) == 0
        assert count_duplicates([np.timedelta64(1, "s"), np.datetime64(1, "s"), 1]) == 0
        assert count_duplicates([np.timedelta64("NaT", "s"), np.timedelta64("NaT", "s"),
                                 np.datetime64("NaT", "s")]) == 1

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
        assert_list_keys(values)

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

    @given(st.lists(st.sampled_from(BITS_64), max_size=40),
           st.lists(st.one_of(st.integers(-2048, 2048).map(lambda k: k / 4),
                              st.sampled_from([-0.0, math.inf, -math.inf, math.nan])),
                    max_size=40))
    @settings(max_examples=100)
    def test_float_key_layouts_agree(self, bits64, small):
        # one float branch widens without a copy where it can: byte-swapped,
        # strided and narrow arrays must count as their native float64 copies
        def counts(values):
            return (count_duplicates(values), count_ties(values),
                    collision_positions(values))

        a64 = np.array(bits64, dtype=np.uint64).view(np.float64)
        assert counts(a64.astype(">f8")) == counts(a64)
        assert counts(a64[::2]) == counts(a64[::2].copy())
        # quarters of integers up to 2048, signed zeros, infinities and the
        # default NaN are exact in float16
        exact = np.array(small, dtype=np.float64)
        assert counts(exact.astype(np.float32)) == counts(exact)
        assert counts(exact.astype(np.float16)) == counts(exact)

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

    @pytest.mark.parametrize("shape", [(3, 2), (0, 2), ()])
    def test_arrays_not_1d_refused(self, shape):
        # the rows of a 2-D array are not values to compare, and an empty
        # one is no empty sequence
        for count in (count_duplicates, count_ties, collision_positions):
            with pytest.raises(TypeError, match=re.escape(f"got shape {shape}")):
                count(np.zeros(shape))

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                        reason="long double is binary64 on this platform")
    @pytest.mark.parametrize("make", [
        # distinct values that would round to the one binary64 1.0
        lambda: np.array([1, 1 + 2 ** -60], dtype=np.longdouble),
        lambda: [np.longdouble(1), np.longdouble(1) + np.longdouble(2 ** -60)],
        lambda: [1.0, np.longdouble(2)],
        lambda: np.array([], dtype=np.longdouble),
    ], ids=["array", "scalars", "mixed-list", "empty-array"])
    def test_floats_wider_than_binary64_refused(self, make):
        for count in (count_duplicates, count_ties, collision_positions):
            with pytest.raises(TypeError, match="binary64"):
                count(make())

    @pytest.mark.parametrize("make", [
        # 0j and -0j are distinct by sign, equal by value
        lambda: np.array([0j, -0j]),
        lambda: [0j, complex(0.0, -0.0)],
        lambda: [1, np.complex64(1)],
        lambda: np.array([], dtype=np.complex64),
    ], ids=["array", "scalars", "mixed-list", "empty-array"])
    def test_complex_refused(self, make):
        for count in (count_duplicates, count_ties, collision_positions):
            with pytest.raises(TypeError, match="binary64"):
                count(make())

    # only a stream's own keys are sorted in place; integer and float
    # arrays are counted through views of the caller's buffer.  At 3 * 10^5
    # values the sorted copy is split at its median and sorted on two threads
    @pytest.mark.parametrize("size", [8, 3 * 10 ** 5])
    @pytest.mark.parametrize("dtype", [np.uint32, np.int64, np.uint64, np.float64])
    def test_callers_array_left_as_it_was(self, dtype, size, monkeypatch):
        monkeypatch.setattr(empirics, "_CPUS", 2)
        values = np.resize(np.array([5, 3, 5, 1, 3, 3, 9, 0], dtype=dtype), size)
        before = values.copy()
        assert count_duplicates(values) == size - 5
        assert count_ties(values) == (5 if size == 8 else size)
        positions = collision_positions(values)
        assert positions[:3] == [3, 5, 6] and len(positions) == size - 5
        assert np.array_equal(values, before)


def counting_threads(monkeypatch, start_fails=False):
    """Threads started from now on, in a list; with ``start_fails`` each
    ``start`` raises RuntimeError, as it does at the process's thread limit."""
    started = []

    class Counting(threading.Thread):
        def start(self):
            started.append(self)
            if start_fails:
                raise RuntimeError("can't start new thread")
            super().start()

    monkeypatch.setattr(threading, "Thread", Counting)
    return started


SORT_KINDS = ["random", "all-equal", "two-valued", "sorted", "reverse-sorted",
              "run-across-median"]


def sort_input(kind, rng, n, dtype, lo, hi):
    """``n`` keys of one of the SORT_KINDS, in [lo, hi)."""
    if kind == "all-equal":
        return np.full(n, hi - 1, dtype=dtype)
    if kind == "two-valued":
        return np.array([lo, hi - 1], dtype=dtype)[rng.integers(0, 2, n)]
    a = rng.integers(lo, hi, n, dtype=dtype)
    if kind == "sorted":
        return np.sort(a)
    if kind == "reverse-sorted":
        return np.sort(a)[::-1].copy()
    if kind == "run-across-median":  # the quarter ranked around the median set to it
        s = np.sort(a)
        s[n // 2 - n // 8:n // 2 + n // 8 + 1] = s[n // 2]
        return s[rng.permutation(n)]
    return a


class TestSplitSort:
    """``_sort`` against ``np.sort``, and when it starts its one thread."""

    @pytest.mark.parametrize("kind", SORT_KINDS)
    @pytest.mark.parametrize("dtype, lo, hi", [(np.uint32, 0, 2 ** 32),
                                               (np.uint64, 0, 2 ** 64),
                                               (np.int64, -2 ** 63, 2 ** 63)])
    def test_equals_np_sort(self, kind, dtype, lo, hi, monkeypatch):
        monkeypatch.setattr(empirics, "_CPUS", 2)  # the split path on any machine
        rng = np.random.default_rng(5)
        for n in (_SPLIT_SORT - 1, _SPLIT_SORT, _SPLIT_SORT + 1, 10 ** 6 + 3):
            a = sort_input(kind, rng, n, dtype, lo, hi)
            want = np.sort(a)
            _sort(a)
            assert a.dtype == dtype and np.array_equal(a, want)

    def test_splits_only_from_the_threshold(self, monkeypatch):
        monkeypatch.setattr(empirics, "_CPUS", 2)
        started = counting_threads(monkeypatch)
        for n in (0, 1, 1000, _SPLIT_SORT - 1, _SPLIT_SORT, _SPLIT_SORT + 1):
            del started[:]
            _sort(np.arange(n, dtype=np.uint32)[::-1].copy())
            assert len(started) == (n >= _SPLIT_SORT)

    def test_one_cpu_never_splits(self, monkeypatch):
        monkeypatch.setattr(empirics, "_CPUS", 1)
        started = counting_threads(monkeypatch)
        for n in (_SPLIT_SORT, _SPLIT_SORT + 1, 10 ** 6):
            a = np.arange(n, dtype=np.uint64)[::-1].copy()
            _sort(a)
            assert np.array_equal(a, np.arange(n, dtype=np.uint64))
        assert started == []

    def test_cpus_read_from_the_process_affinity(self, monkeypatch):
        # under `taskset -c 0` this is the one-CPU path, read from the real affinity
        want = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        assert empirics._CPUS == want
        started = counting_threads(monkeypatch)
        collision_summary(stream(), 10 ** 6)
        assert len(started) == (want > 1)

    def test_thread_refused_sorts_both_halves_here(self, monkeypatch):
        monkeypatch.setattr(empirics, "_CPUS", 2)
        want_summary = collision_summary(stream(bits=24), 10 ** 6)
        started = counting_threads(monkeypatch, start_fails=True)
        a = np.random.default_rng(7).integers(0, 2 ** 32, _SPLIT_SORT + 1, dtype=np.uint32)
        want = np.sort(a)
        _sort(a)
        assert len(started) == 1 and np.array_equal(a, want)
        assert collision_summary(stream(bits=24), 10 ** 6) == want_summary
        assert len(started) == 2

    def test_no_thread_outlives_a_count(self, monkeypatch):
        monkeypatch.setattr(empirics, "_CPUS", 2)
        started = counting_threads(monkeypatch)
        before = threading.active_count()
        collision_summary(stream(), 10 ** 6)
        trace_collisions(stream(), 10 ** 6)
        assert len(started) == 2
        assert threading.active_count() == before
        assert not any(t.is_alive() for t in started)


class TestPlainListKeys:
    """Edges of the branch that keys all-float and all-int lists at once."""

    # a float first, then one element of another type
    @pytest.mark.parametrize("later", [1, 0, True, np.float64(0.5), np.float64(-0.0), "0.5",
                                       None])
    @pytest.mark.parametrize("at", [1, 2, -1])
    def test_float_first_with_another_type_later(self, later, at):
        values = [0.5, -0.0, 1.0, 0.0, 0.5, 1.0]
        values.insert(at if at >= 0 else len(values), later)
        assert_list_keys(values)

    # an int first, then one element of another type
    @pytest.mark.parametrize("later", [1.0, 0.0, True, False, np.int64(1)])
    @pytest.mark.parametrize("at", [1, 2, -1])
    def test_int_first_with_another_type_later(self, later, at):
        values = [1, 0, 2, 1, 0]
        values.insert(at if at >= 0 else len(values), later)
        assert_list_keys(values)

    @pytest.mark.parametrize("wide", [2 ** 63, -2 ** 63 - 1])
    def test_int_list_ending_beyond_int64(self, wide):
        # the int64 conversion overflows at the last element, and the whole
        # list is keyed through the hash map instead
        values = [3, -2 ** 63, 2 ** 63 - 1, 3, *range(100), wide]
        assert _keys(values).dtype == np.int64
        assert_list_keys(values)
        assert_list_keys([wide, wide, 0])

    @pytest.mark.parametrize("values", [
        [], [0.0], [-0.0], [math.inf], [f64_from_bits(0x7FF0000000000001)], [0], [-1],
        [2 ** 63 - 1], [2 ** 63], [True], [np.float64(1.0)], [np.int64(1)], ["a"], [None]])
    def test_empty_and_single_element_lists(self, values):
        assert_list_keys(values)

    def test_long_float_list_with_every_nan_payload_and_both_zeros(self):
        # 2^17 plain floats: coarse repeats, every NaN payload of NAN_BITS_64
        # (the signalling 0x7FF0000000000001 among them) and both zeros,
        # each many times and at both ends
        rnd = np.random.default_rng(17)
        special = [*NAN_BITS_64, 0, 0x8000000000000000]  # 0x7FF0000000000001 among the NaNs
        bits = (rnd.integers(0, 1 << 12, 2 ** 17) << 40).astype(np.uint64)
        spots = rnd.choice(bits.size, size=bits.size // 8, replace=False)
        bits[spots] = rnd.choice(np.array(special, dtype=np.uint64), size=spots.size)
        bits[:len(special)] = special
        bits[-len(special):] = special
        values = bits.view(np.float64).tolist()
        assert set(map(type, values)) == {float}
        assert _keys(values).tobytes() == bits.tobytes()
        assert_list_keys(values)


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


class StubCore:
    """A native-64-bit generator core that returns fixed words."""

    native_bits = 64

    def __init__(self, words):
        self._words = words

    def words(self, count):
        out, self._words = self._words[:count], self._words[count:]
        return out

    def kbits(self, count, k, dtype):
        return (self.words(count) >> np.uint64(64 - k)).astype(dtype)


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


PHI_INVERSE = pow(int(_PHI), -1, 2 ** 64)


def assert_tally_exact(keys):
    """The hash-sort kernel against a numpy recount and the oracle."""
    summary, is_dup = _tally(keys)
    # np.unique's first index per value is its first occurrence
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    tied = counts[counts >= 2]
    assert summary == TieSummary(n=keys.size, duplicates=keys.size - first.size,
                                 ties=int(tied.sum()), histogram=dict(Counter(tied.tolist())))
    want = np.ones(keys.size, dtype=bool)
    want[first] = False
    assert np.array_equal(is_dup, want)
    assert collision_positions(keys) == oracle_positions(keys.tolist())


def clashing_keys(t, count):
    """``count`` distinct 64-bit keys x + j*PHI^-1 with x*PHI = t * 2^32:
    times PHI they differ only in j < count, below the index field of any
    input of under 2^32 draws that holds them all, so they share a hash."""
    x = (t << 32) * PHI_INVERSE % 2 ** 64
    keys = [(x + j * PHI_INVERSE) % 2 ** 64 for j in range(count)]
    assert len({k * int(_PHI) % 2 ** 64 >> 32 for k in keys}) == 1
    return keys


def position_digest(values):
    positions = collision_positions(values)
    return len(positions), hashlib.sha256(
        np.asarray(positions, dtype="<i8").tobytes()).hexdigest()


class TestHashSortKernel:
    @pytest.mark.parametrize("seed", range(6))
    def test_forced_hash_clashes_mixed_with_repeats(self, seed):
        rng = np.random.default_rng(seed)
        pool = [k for t in (1, 2, 2 ** 31 + 5) for k in clashing_keys(t, 2 + seed)]
        pool += rng.integers(0, 2 ** 63, size=20).tolist()
        values = [v for v in pool for _ in range(int(rng.integers(1, 4)))]
        keys = np.array(values, dtype=np.uint64)[rng.permutation(len(values))]
        assert_tally_exact(keys)
        assert_tally_exact(keys.view(np.int64))

    def test_only_clashes(self):
        # every run mixes values and none repeats: no duplicates at all
        keys = np.array(clashing_keys(7, 50), dtype=np.uint64)[::-1]
        summary, is_dup = _tally(keys)
        assert summary.duplicates == 0 and not is_dup.any()
        assert_tally_exact(keys)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64,
                                       np.uint16, np.uint32, np.uint64])
    def test_every_integer_key_dtype(self, dtype):
        info = np.iinfo(dtype)
        edges = [info.min, info.min + 1, info.max - 1, info.max, 0, 1, -1, -2]
        if dtype == np.uint64:
            edges += [2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1]
        elif dtype == np.int64:
            edges += [2 ** 63 - 1, -2 ** 63]
        edges = [e for e in edges if info.min <= e <= info.max]
        rng = np.random.default_rng(int(info.bits) + (info.min < 0))
        drawn = rng.integers(info.min, info.max, size=40, endpoint=True, dtype=dtype)
        pool = np.array(edges + drawn.tolist(), dtype=dtype)
        assert_tally_exact(pool[rng.integers(0, pool.size, size=3000)])

    # the index field takes max(1, (n - 1).bit_length()) bits: n = 2^j needs
    # j bits and n = 2^j + 1 one more
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 128, 129, 4096, 4097, 65536, 65537])
    def test_index_width_edges(self, n):
        bits = max(1, n.bit_length() - 1)
        assert_tally_exact(stream(seed=n, bits=bits).take_kbits(n))
        assert_tally_exact(stream(seed=n, bits=bits).take_kbits(n).astype(np.uint32))

    def test_long_64bit_stream_with_certain_clashes(self):
        # 2^22 + 1 draws leave 64 - 23 hash bits, so about four pairs of
        # distinct draws share a hash; copies of the clashing draws and of
        # others are written over the last draws
        n = 2 ** 22 + 1
        keys = stream("splitcounter", 1, 64).take_kbits(n)
        hashes = (keys * _PHI) >> np.uint64(23)
        s = np.sort(hashes)
        shared = s[1:][s[1:] == s[:-1]]
        assert shared.size >= 1
        s = np.sort(keys)
        assert np.all(s[1:] != s[:-1])
        sources = np.concatenate([np.flatnonzero(np.isin(hashes, shared)),
                                  np.arange(1000, 1010)])
        assert sources.max() < n - 2 * sources.size
        targets = n - 1 - np.arange(2 * sources.size)
        keys[targets] = np.repeat(keys[sources], 2)
        summary, is_dup = _tally(keys)
        assert summary.histogram == {3: sources.size}
        assert np.array_equal(np.flatnonzero(is_dup), np.sort(targets))
        assert collision_positions(keys) == (np.sort(targets) + 1).tolist()

    # recorded at the argsort kernel this one replaced
    def test_positions_pinned(self):
        words = stream("splitcounter", 5, 64).take_kbits(1 << 12)
        picks = stream("mt19937", 9, 12).take_kbits(200000)
        assert position_digest(words[picks]) == (
            195904, "088df353d78f94ef8b0c05e14372f45667c70b68e854a3f5fc4ddd1a077985ee")
        assert position_digest(stream("cmrg", 3, 10).take_kbits(200000)) == (
            198976, "d13c44288501ea7a1249bd2eb785911f6646b8b58d5aa480d50329a7f0476133")

    # tracemalloc peak of one 10^6-draw trace, in bytes per draw: the keys
    # (4 or 8), the sorted hash-and-index words (8), the equal-hash mask (1)
    # and block-sized scratch; measured 13.3 and 17.3, where whole-array
    # temporaries took 21 and 25.  cmrg, whose lane windows are freed before
    # the tally, measures 13.3 and 17.3 too, where a 512 KB buffer kept
    # beside its lanes took 14.5 and 18.5
    @pytest.mark.parametrize("family, bits, limit", [("mt19937", 32, 14),
                                                     ("splitcounter", 64, 18),
                                                     ("cmrg", 32, 13.5),
                                                     ("cmrg", 40, 17.5)])
    def test_trace_peak_per_draw(self, family, bits, limit):
        assert peak_per_draw(trace_collisions, stream(family, 3, bits)) <= limit


# tracemalloc peak of one 10^6-draw collision_summary, in bytes per draw:
# the keys sorted in place (4 for k <= 32, 8 above) and the equal-neighbour
# mask (1), or for cmrg while the keys are made its 1.2 MB of lane windows;
# measured 5.0, 5.3, 9.3, 5.9 and 9.0, where cmrg's 512 KB buffer kept
# beside its lanes took 6.25 and 10.4, and a full-size draw array beside
# the keys and a sorted copy took 12.0, 12.0, 24.0, 16.0 and 17.0
@pytest.mark.parametrize("family, bits, limit", [
    ("mt19937", 32, 5.5), ("cmrg", 32, 5.5), ("cmrg", 40, 9.5),
    ("splitcounter", 24, 6.5), ("splitcounter", 64, 9.5)])
def test_summary_peak_per_draw(family, bits, limit):
    assert peak_per_draw(collision_summary, stream(family, 3, bits)) <= limit


# at 3 * 2^20 + 5 draws, one request of lanes of 1024 steps (2048 for two
# words a draw) whose windows stay near 1.2 MB, so the keys (4 or 8 bytes
# per draw) and the mask dominate; measured 5.0 and 9.0, where 2^16-draw
# key blocks and a 512 KB buffer took 5.4 and 9.4 and one request for all
# into a uint64 detour 9.0 and 17.0
@pytest.mark.parametrize("bits, limit", [(32, 5.25), (40, 9.25)])
def test_cmrg_summary_peak_past_its_block(bits, limit):
    assert peak_per_draw(collision_summary, stream("cmrg", 3, bits), 3 * 2 ** 20 + 5) <= limit


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

    def test_seeds_distinct_in_what_mt19937_reads(self):
        # base 61 at 10^4 seeds: words 1041 and 8323 of its splitcounter
        # stream share their low 32 bits, 2330712827, so word 8323 is skipped
        seeds = seeds_from_base(61, 10 ** 4)
        words = KBitStream(GeneratorSpec("splitcounter", 61, 64)).take_kbits(10 ** 4 + 1).tolist()
        assert words[1041] & 0xFFFFFFFF == words[8323] & 0xFFFFFFFF == 2330712827
        assert seeds == words[:8323] + words[8324:]
        assert len({s & 0xFFFFFFFF for s in seeds}) == 10 ** 4
        # two of the streams would otherwise have been one
        first = [KBitStream(GeneratorSpec("mt19937", s, 32)).take_kbits(4).tolist()
                 for s in (words[1041], words[8323])]
        assert first[0] == first[1]

    def test_headline_seeds_unchanged(self):
        # a run without a repeated low half takes the first words as before
        words = KBitStream(GeneratorSpec("splitcounter", 20260808, 64)).take_kbits(50)
        assert seeds_from_base(20260808, 50) == words.tolist()

    def test_more_seeds_than_low_halves_refused(self, monkeypatch):
        monkeypatch.setenv("COLLISION_LAB_MAX_DISTINCT", str(2 ** 33))
        with pytest.raises(DomainError, match=r"^count must be in 0\.\.4294967296"):
            seeds_from_base(1, 2 ** 32 + 1)

    # recorded before seeds_from_base drew its seeds as splitcounter words
    SEEDS = {(271, 4): [7738825323609040495, 8325891990607108871,
                        14446157519787916250, 3458682794589304879],
             (1, 5): [10451216379200822465, 13757245211066428519, 17911839290282890590,
                      8196980753821780235, 8195237237126968761],
             (0, 3): [16294208416658607535, 7960286522194355700, 487617019471545679],
             (2 ** 64 - 1, 3): [16490336266968443936, 16834447057089888969,
                                4048727598324417001],
             (20260808, 2): [831031019729586977, 15461557645667858724]}

    @pytest.mark.parametrize("base, count", SEEDS)
    def test_seeds_from_base_pinned(self, base, count):
        seeds = seeds_from_base(base, count)
        assert seeds == self.SEEDS[base, count]
        assert all(type(s) is int for s in seeds)
        words = KBitStream(GeneratorSpec("splitcounter", base, 64)).take_kbits(count)
        assert seeds == words.tolist()

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
        write_indexed_csv(buf, "h", np.array(values, dtype=np.int64))
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

    # the first index at and around the widths' edges, with the pmf's
    # zero columns and a column that crosses widths of its own
    @pytest.mark.parametrize("first", [0, 1, 8, 9, 10, 98, 99, 100, 9990, 10 ** 17 - 3,
                                       2 ** 63 - 40])
    @pytest.mark.parametrize("values", [[0] * 40, [0, 0, 7, 9, 10, 99, 100, 100, 1000]])
    def test_indexed_csv_from_any_first_index(self, first, values):
        buf = io.StringIO()
        write_indexed_csv(buf, None, values, first)
        assert buf.getvalue() == "".join(f"{i},{v}\n" for i, v in enumerate(values, first))

    # the last row's index must fit int64: from 2^63 - 2 on, three rows pass it
    @pytest.mark.parametrize("first, error", [(-1, ValueError), (1.0, TypeError),
                                              (True, TypeError), (2 ** 63, DomainError),
                                              (2 ** 63 - 2, DomainError)])
    def test_indexed_csv_refuses_bad_first_index(self, first, error):
        buf = io.StringIO()
        with pytest.raises(error):
            write_indexed_csv(buf, "h", [0, 1, 2], first)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("values", [[1, 0], [5, 7, 6], [-1], [-3, 2]])
    def test_indexed_csv_refuses_unsorted_or_negative_columns(self, values):
        buf = io.StringIO()
        with pytest.raises(ValueError):
            write_indexed_csv(buf, "h", values)
        assert buf.getvalue() == ""

    # nothing is cast: what np.asarray(values, dtype=np.int64) once made of
    # these would have been written as rows, or refused for the wrong reason
    @pytest.mark.parametrize("values, error, message", [
        ([0.5, 1.7], TypeError, "got 0.5 (float)"),
        (["1", "2"], TypeError, "got '1' (str)"),
        ([True, True], TypeError, "got True (bool)"),
        ([0, True], TypeError, "got True (bool)"),
        ([0, np.int64(1)], TypeError, "(int64)"),
        (np.array([0.5, 1.7]), TypeError, "got float64"),
        (np.array([1.0, np.nan]), TypeError, "got float64"),
        (np.array([], dtype=np.float64), TypeError, "got float64"),
        (np.array([True, True]), TypeError, "got bool"),
        (np.array(["1", "2"]), TypeError, "got <U1"),
        ([[1, 2], [3, 4]], TypeError, "got [1, 2] (list)"),
        (np.zeros((2, 2), dtype=np.int64), TypeError, "1-D column, got shape (2, 2)"),
        (np.array(7), TypeError, "1-D column, got shape ()"),
        (np.array([0, 2 ** 63], dtype=np.uint64), DomainError, "got 9223372036854775808"),
        (np.array([2 ** 64 - 1], dtype=np.uint64), DomainError, "got 18446744073709551615"),
        ([0, 2 ** 63], DomainError, "got 9223372036854775808"),
        ([-2 ** 63 - 1, 0], DomainError, "got -9223372036854775809"),
        ([-1, 0], DomainError, "got -1"),
        (np.array([-5, 3], dtype=np.int8), DomainError, "got -5"),
    ])
    def test_indexed_csv_refuses_what_is_not_a_column_of_indices(self, values, error, message):
        buf = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NaN is refused, not cast with a warning
            with pytest.raises(error, match=re.escape(message)) as raised:
                write_indexed_csv(buf, "h", values)
        if error is DomainError:
            assert "must be in 0..9223372036854775807" in str(raised.value)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("values", [[0, 1, 2 ** 63 - 1],
                                        np.array([0, 1, 2 ** 63 - 1], dtype=np.uint64),
                                        np.array([3, 9], dtype=np.uint8), range(3), []])
    def test_indexed_csv_takes_every_integer_column_in_range(self, values):
        buf = io.StringIO()
        write_indexed_csv(buf, "h", values)
        assert buf.getvalue() == "h\n" + "".join(
            f"{i},{v}\n" for i, v in enumerate(list(values), 1))

