import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collision_lab.errors import DomainError
from collision_lab.prng import (
    FAMILIES,
    GeneratorSpec,
    KBitStream,
    _Mrg32k3aCore,
    _make_core,
    derive_seed,
    mix64,
    rand_int_rejection,
    sample_ints,
)

# chi-square 0.999 quantiles (scipy.stats.chi2.ppf(0.999, df)); tests pass
# at significance 0.001 when the statistic stays below these
CHI2_999 = {2: 13.815511, 4: 18.466827, 5: 20.515006, 99: 148.230359,
            1023: 1168.497164}

# first outputs of the reference mt19937ar init_genrand(5489) stream
MT_SEED_5489_FIRST = [3499211612, 581869302, 3890346734, 3586334585, 545404204]


def stream(family="mt19937", seed=5489, bits=32):
    return KBitStream(GeneratorSpec(family, seed, bits))


class TestMt19937:
    def test_reference_vector(self):
        s = stream()
        assert [s.next_kbit() for _ in range(5)] == MT_SEED_5489_FIRST

    def test_against_numpy_legacy_randomstate(self):
        # numpy's legacy RandomState seeds with the same init_genrand
        ref = np.random.RandomState(12345).randint(0, 2 ** 32, size=2000,
                                                   dtype=np.uint32)
        got = stream(seed=12345).take_kbits(2000)
        assert np.array_equal(got, ref.astype(np.uint64))

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 32 - 1])
    def test_long_run_against_numpy_legacy_randomstate(self, seed):
        # 10^5 words span 160 twist blocks
        ref = np.random.RandomState(seed).randint(0, 2 ** 32, size=10 ** 5,
                                                  dtype=np.uint32)
        got = stream(seed=seed).take_kbits(10 ** 5)
        assert np.array_equal(got, ref.astype(np.uint64))

    @pytest.mark.parametrize("seed,low32", [(2 ** 40 + 3, 3),
                                            (2 ** 64 - 1, 2 ** 32 - 1)])
    def test_seed_reduced_to_low_32_bits(self, seed, low32):
        assert np.array_equal(stream(seed=seed).take_kbits(5000),
                              stream(seed=low32).take_kbits(5000))

    def test_block_boundaries(self):
        # 624-word twist blocks must be invisible in the output
        a = stream(seed=9).take_kbits(2000)
        b_ = stream(seed=9)
        singles = np.array([b_.next_kbit() for _ in range(2000)], dtype=np.uint64)
        assert np.array_equal(a, singles)


class TestMrg32k3a:
    @staticmethod
    def scalar_reference(s1, s2, count):
        # the published recurrences, stepped one output at a time
        m1, m2 = 4294967087, 4294944443
        s1, s2 = list(s1), list(s2)
        out = []
        for _ in range(count):
            p1 = (1403580 * s1[1] - 810728 * s1[0]) % m1
            s1 = [s1[1], s1[2], p1]
            p2 = (527612 * s2[2] - 1370589 * s2[0]) % m2
            s2 = [s2[1], s2[2], p2]
            out.append((p1 - p2) % m1)
        return out

    def test_known_vector_from_canonical_state(self):
        core = _Mrg32k3aCore.from_state([12345] * 3, [12345] * 3)
        want_z = [545508589, 1368065410, 1327943761, 3546985096, 951893194]
        got = core.words(5)
        want = [(z << 32) // 4294967087 for z in want_z]
        assert list(got) == want

    def test_vectorized_path_matches_scalar_reference(self):
        # one request of 12000 outputs takes the lane-vectorized path alone
        # (only requests below _CMRG_SCALAR_BELOW step the scalar
        # recurrence); test_lane_path_across_calls crosses the two paths
        m1 = 4294967087
        ref_z = self.scalar_reference([12345] * 3, [12345] * 3, 12000)
        ref = [(z << 32) // m1 for z in ref_z]

        core = _Mrg32k3aCore.from_state([12345] * 3, [12345] * 3)
        got = core.words(12000)
        assert list(got) == ref

    def test_single_draw_path_matches_bulk(self):
        a = stream("cmrg", seed=7).take_kbits(9000)
        s = stream("cmrg", seed=7)
        b_ = np.array([s.next_kbit() for _ in range(9000)], dtype=np.uint64)
        assert np.array_equal(a, b_)

    # 8192 is the first lane-path count; 10240 fills lanes * steps exactly
    ODD_TAKES = (1, 5003, 777, 100001, 3, 99999, 8192, 10240)

    def test_lane_path_across_calls(self):
        # odd counts leave the last lane part-filled (T*lanes > count), and
        # lane-path calls follow scalar-path ones; every call must return
        # exactly its count and continue the canonical sequence
        m1 = 4294967087
        total = sum(self.ODD_TAKES)
        ref = [(z << 32) // m1
               for z in self.scalar_reference([12345] * 3, [12345] * 3, total)]
        core = _Mrg32k3aCore.from_state([12345] * 3, [12345] * 3)
        at = 0
        for count in self.ODD_TAKES:
            got = core.words(count)
            assert got.size == count
            assert list(got) == ref[at:at + count]
            at += count

    @pytest.mark.parametrize("bits", [32, 40])
    def test_stream_takes_match_one_bulk_take(self, bits):
        s = stream("cmrg", seed=7, bits=bits)
        parts = [s.take_kbits(count) for count in self.ODD_TAKES]
        bulk = stream("cmrg", seed=7, bits=bits).take_kbits(sum(self.ODD_TAKES))
        assert np.array_equal(np.concatenate(parts), bulk)

    def test_bad_states_rejected(self):
        with pytest.raises(ValueError):
            _Mrg32k3aCore.from_state([0, 0, 0], [12345] * 3)
        with pytest.raises(ValueError):
            _Mrg32k3aCore.from_state([12345] * 3, [1, 2, 4294944443])


class TestCoreMemory:
    # a core's words(count) array is 8 bytes per word; the limits leave room
    # for one temporary at a time, not for a second full-size copy.  A
    # "family:bits" case measures take_kbits per draw on the two-word path:
    # 16 bytes of words and 8 of result, since numpy's temporary elision
    # reuses the shift's buffer for the or (32 bytes without it)
    @pytest.mark.parametrize("family, limit", [("cmrg", 12), ("splitcounter", 20),
                                               ("cmrg:40", 26)])
    def test_words_peak_per_word(self, family, limit):
        count = 10 ** 6
        family, _, bits = family.partition(":")
        if bits:
            draw = stream(family, 7, int(bits)).take_kbits
        else:
            draw = _make_core(GeneratorSpec(family, 7, 32)).words
        tracemalloc.start()
        try:
            draw(count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / count < limit


class TestStreamContract:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_determinism(self, family):
        a = stream(family, seed=271).take_kbits(10 ** 4)
        b_ = stream(family, seed=271).take_kbits(10 ** 4)
        assert np.array_equal(a, b_)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_position_counts_draws(self, family):
        s = stream(family, seed=3, bits=16)
        s.next_kbit()
        s.take_kbits(99)
        assert s.position == 100

    @pytest.mark.parametrize("family,bits", [
        ("mt19937", 1), ("mt19937", 10), ("mt19937", 32), ("mt19937", 48),
        ("mt19937", 64), ("cmrg", 32), ("cmrg", 64), ("splitcounter", 64),
        ("splitcounter", 17),
    ])
    def test_range(self, family, bits):
        draws = stream(family, seed=11, bits=bits).take_kbits(10 ** 5)
        assert int(draws.max()) < 2 ** bits

    def test_one_bit_stream(self):
        vals = set(stream(bits=1).take_kbits(10 ** 4).tolist())
        assert vals == {0, 1}

    def test_truncation_keeps_top_bits(self):
        full = stream(seed=5, bits=32).take_kbits(1000)
        top10 = stream(seed=5, bits=10).take_kbits(1000)
        assert np.array_equal(top10, full >> 22)

    @pytest.mark.parametrize("family", ["mt19937", "cmrg"])
    def test_concatenation_of_native_words(self, family):
        words = stream(family, seed=5, bits=32).take_kbits(2000)
        wide = stream(family, seed=5, bits=64).take_kbits(1000)
        assert np.array_equal(wide, (words[0::2] << 32) | words[1::2])

    def test_concatenation_truncates_to_top(self):
        wide = stream(seed=5, bits=64).take_kbits(1000)
        mid = stream(seed=5, bits=48).take_kbits(1000)
        assert np.array_equal(mid, wide >> 16)

    def test_mixed_single_and_bulk_draws(self):
        s = stream(seed=42)
        mixed = [s.next_kbit(), *s.take_kbits(700).tolist(), s.next_kbit()]
        ref = stream(seed=42).take_kbits(702).tolist()
        assert mixed == ref

    def test_word_pairing_survives_single_draws(self):
        # wide draws pair two native words; single draws must not shift the
        # pairing for later bulk draws
        s = stream(seed=6, bits=64)
        mixed = [s.next_kbit(), s.next_kbit(), *s.take_kbits(50).tolist()]
        ref = stream(seed=6, bits=64).take_kbits(52).tolist()
        assert mixed == ref

    @pytest.mark.parametrize("family", FAMILIES)
    def test_core_returns_exactly_the_words_asked(self, family):
        # 8191/8192 straddle the MRG32k3a scalar/lane boundary
        core = _make_core(GeneratorSpec(family, 5, 32))
        for count in (0, 1, 8191, 8192, 10001):
            words = core.words(count)
            assert words.dtype == np.uint64 and words.size == count

    @pytest.mark.parametrize("family", FAMILIES)
    def test_core_keeps_no_reference_to_its_words(self, family):
        # take_kbits shifts the core's words in place
        core = _make_core(GeneratorSpec(family, 5, 32))
        ref = _make_core(GeneratorSpec(family, 5, 32))
        for count in (3, 8191, 10001):
            words = core.words(count)
            assert np.array_equal(words, ref.words(count))
            words[:] = 0
        assert np.array_equal(core.words(9000), ref.words(9000))

    def test_max_seed_accepted(self):
        s = stream(seed=2 ** 64 - 1)
        assert s.next_kbit() < 2 ** 32

    @pytest.mark.parametrize("family", ["mt19937", "cmrg"])
    def test_uniformity_top_10_bits(self, family):
        draws = stream(family, seed=97, bits=32).take_kbits(10 ** 6)
        buckets = np.bincount((draws >> 22).astype(np.int64), minlength=1024)
        expected = 10 ** 6 / 1024
        chi2 = float(((buckets - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_999[1023], f"{family} top-bit chi2 {chi2}"


class TestUnitMapping:
    def test_exact_dyadics(self):
        s = stream(seed=1)
        scale = 2.0 ** -32
        draws = s.take_kbits(1000)
        units = stream(seed=1).take_units(1000)
        assert np.array_equal(units, draws.astype(np.float64) * scale)

    def test_specific_values(self):
        # integer 0 -> 0.0, 2^31 -> 0.5, 1 -> 2^-32 under the k=32 map
        scale = 2.0 ** -32
        assert 0 * scale == 0.0
        assert 2 ** 31 * scale == 0.5
        assert 1 * scale == 2.0 ** -32
        assert format(2.0 ** -32, ".7g") == "2.328306e-10"

    def test_units_in_half_open_interval(self):
        units = stream(seed=8, bits=20).take_units(10 ** 5)
        assert units.min() >= 0.0
        assert units.max() < 1.0

    def test_injectivity_up_to_52_bits(self):
        s = stream(seed=4)
        assert s.unit_map_injective
        ints = s.take_kbits(10 ** 6)
        units = stream(seed=4).take_units(10 ** 6)
        dup_ints = 10 ** 6 - np.unique(ints).size
        dup_units = 10 ** 6 - np.unique(units).size
        assert dup_ints == dup_units
        assert dup_ints > 0  # 32-bit draws at n=1e6 do collide

    @pytest.mark.parametrize("bits,top", [(53, 1.0 - 2.0 ** -53), (54, 1.0), (64, 1.0)])
    def test_top_draw_reaches_one_from_54_bits(self, bits, top):
        # a core of all-ones words yields the top draw 2^k - 1 every time
        class OnesCore:
            native_bits = 64

            @staticmethod
            def words(count):
                return np.full(count, 2 ** 64 - 1, dtype=np.uint64)

        s = stream("splitcounter", bits=bits)
        s._core = OnesCore()
        assert s.take_kbits(1)[0] == 2 ** bits - 1
        assert s.take_units(3).tolist() == [top] * 3

    def test_injectivity_flag(self):
        assert stream(bits=52).unit_map_injective
        assert not stream(bits=53).unit_map_injective
        assert not stream("splitcounter", bits=64).unit_map_injective


class TestRejectionSampler:
    def test_n_one_draws_nothing(self):
        s = stream(seed=2)
        assert rand_int_rejection(s, 1) == 1
        assert s.position == 0

    def test_two_sided_frequencies(self):
        s = stream(seed=13, bits=32)
        vals = sample_ints(s, 2, 10 ** 5)
        freq1 = float(np.mean(vals == 1))
        assert abs(freq1 - 0.5) <= 0.01

    def test_acceptance_rate_n3(self):
        # 2-bit patterns, pattern 3 rejected: acceptance probability 3/4
        s = stream(seed=17, bits=32)
        draws = 10 ** 5
        for _ in range(draws):
            v = rand_int_rejection(s, 3)
            assert 1 <= v <= 3
        rate = draws / s.position
        assert abs(rate - 0.75) <= 0.01

    @pytest.mark.parametrize("n", [3, 5, 6, 100])
    def test_uniformity(self, n):
        s = stream(seed=23 + n, bits=32)
        vals = sample_ints(s, n, 10 ** 6)
        counts = np.bincount(vals.astype(np.int64), minlength=n + 1)[1:]
        expected = 10 ** 6 / n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_999[n - 1], f"n={n} chi2={chi2}"

    def test_scalar_and_vectorized_agree(self):
        a = stream(seed=31)
        b_ = stream(seed=31)
        scalar = [rand_int_rejection(a, 5) for _ in range(1000)]
        vector = sample_ints(b_, 5, 1000).tolist()
        assert scalar == vector

    def test_power_of_two_n_never_rejects(self):
        s = stream(seed=41)
        vals = [rand_int_rejection(s, 8) for _ in range(2000)]
        assert s.position == 2000  # 3-bit patterns, every draw accepted
        assert set(vals) <= set(range(1, 9))

    def test_patterns_wider_than_stream(self):
        # 100 needs 7-bit patterns from a 4-bit stream: two draws per attempt
        a = stream(seed=37, bits=4)
        b_ = stream(seed=37, bits=4)
        scalar = [rand_int_rejection(a, 100) for _ in range(500)]
        vector = sample_ints(b_, 100, 500).tolist()
        assert scalar == vector
        assert min(scalar) >= 1 and max(scalar) <= 100
        # two draws span 96 and 66 bits, more than a uint64 holds
        for bits, n in [(48, 2 ** 59 + 12345), (33, 2 ** 64 - 1)]:
            a = stream(seed=37, bits=bits)
            b_ = stream(seed=37, bits=bits)
            scalar = [rand_int_rejection(a, n) for _ in range(200)]
            assert sample_ints(b_, n, 200).tolist() == scalar
            assert max(scalar) > n // 2

    def test_domain_error(self):
        with pytest.raises(DomainError):
            rand_int_rejection(stream(), 0)
        with pytest.raises(DomainError):
            sample_ints(stream(), 0, 10)
        with pytest.raises(DomainError):
            # the uint64 output cannot hold n = 2^64
            sample_ints(stream(), 2 ** 64, 10)

    def test_rejection_cap_flags_broken_generator(self):
        class Stuck:
            # always emits the all-ones pattern, so n=3 never accepts
            spec = GeneratorSpec("mt19937", 0, 2)

            def next_kbit(self):
                return 3

        with pytest.raises(RuntimeError, match="rejection"):
            rand_int_rejection(Stuck(), 3, max_rejections=1000)


class TestSpecAndSeeds:
    def test_serialize_roundtrip(self):
        spec = GeneratorSpec("cmrg", 271, 32)
        assert spec.serialize() == "cmrg:271:32"
        assert GeneratorSpec.parse("cmrg:271:32") == spec

    @given(st.sampled_from(FAMILIES), st.integers(0, 2 ** 64 - 1),
           st.integers(1, 64))
    @settings(max_examples=50)
    def test_parse_any_valid_triple(self, family, seed, bits):
        spec = GeneratorSpec(family, seed, bits)
        assert GeneratorSpec.parse(spec.serialize()) == spec

    @pytest.mark.parametrize("bad", [
        "nosuch:1:32", "mt19937:1", "mt19937:x:32", "mt19937:1:0",
        "mt19937:1:65", "mt19937:-1:32",
    ])
    def test_bad_specs(self, bad):
        with pytest.raises(ValueError):
            GeneratorSpec.parse(bad)

    def test_derive_seed_distinct(self):
        seeds = [derive_seed(271, i) for i in range(10 ** 4)]
        assert len(set(seeds)) == 10 ** 4

    def test_mix64_is_deterministic(self):
        assert mix64(0) == mix64(0)
        assert mix64(1) != mix64(2)

    def test_splitcounter_reference(self):
        got = [stream("splitcounter", 42, 64).next_kbit() for _ in range(1)]
        s = stream("splitcounter", 42, 64)
        first3 = [s.next_kbit() for _ in range(3)]
        assert first3 == [13679457532755275413, 2949826092126892291,
                          5139283748462763858]
        assert got[0] == first3[0]
