import copy
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collision_lab import prng
from collision_lab.errors import CapacityError, DomainError
from collision_lab.prng import (
    FAMILIES,
    GeneratorSpec,
    KBitStream,
    _MAT1,
    _MAT2,
    _Mrg32k3aCore,
    _mat_pow,
    derive_seed,
    sample_ints,
    seeds_from_base,
)

# chi-square 0.999 quantiles (scipy.stats.chi2.ppf(0.999, df)); tests pass
# at significance 0.001 when the statistic stays below these
CHI2_999 = {2: 13.815511, 4: 18.466827, 5: 20.515006, 99: 148.230359,
            1023: 1168.497164}

# first outputs of the reference mt19937ar init_genrand(5489) stream
MT_SEED_5489_FIRST = [3499211612, 581869302, 3890346734, 3586334585, 545404204]


def stream(family="mt19937", seed=5489, bits=32):
    return KBitStream(GeneratorSpec(family, seed, bits))


def make_core(family, seed):
    """A fresh generator core of ``family``, the one a stream of it draws from."""
    return prng._CORES[family](seed)


def draw(s):
    """The stream's next k-bit draw as an int: its one-value call."""
    return int(s.take_kbits(1)[0])


def sample_one(s, n):
    """One uniform integer in {1..n} as an int: the sampler's one-value call."""
    return int(sample_ints(s, n, 1)[0])


GOLDEN = 0x9E3779B97F4A7C15


def mix64(z):
    """The SplitMix64 mixer of z: word 1 of splitcounter:(z - golden) mod 2^64:64,
    the mixer of (z - golden) + 1 * golden."""
    return draw(stream("splitcounter", (z - GOLDEN) % 2 ** 64, 64))


class AllOnesCore:
    """A 32-bit core of all-ones words: every 2-bit draw is 3, so n=3 never
    accepts.  The count of words handed out stops a sampler that would loop
    for ever."""

    native_bits = 32

    def __init__(self):
        self.given = 0

    def words(self, count):
        self.given += count
        assert self.given <= 10 ** 6, "sampler ignored the rejection cap"
        return np.full(count, 2 ** 32 - 1, dtype=np.uint64)


class TestMt19937:
    def test_reference_vector(self):
        s = stream()
        assert [draw(s) for _ in range(5)] == MT_SEED_5489_FIRST

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
        singles = np.array([draw(b_) for _ in range(2000)], dtype=np.uint64)
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

    M1, M2 = 4294967087, 4294944443
    X0 = [12345] * 3

    @classmethod
    def jumped(cls, mat, m, steps):
        # A^steps x0 in Python ints: the component state `steps` words on
        return [sum(r * v for r, v in zip(row, cls.X0)) % m
                for row in _mat_pow(mat, steps, m)]

    @staticmethod
    def continues_from(core, s1, s2):
        # a copy of the core draws what a fresh core at states (s1, s2)
        # draws: eight words, 256 bits, pin the 192-bit state
        twin = copy.deepcopy(core)
        return np.array_equal(twin.words(8), _Mrg32k3aCore.from_state(s1, s2).words(8))

    def continues_at(self, core, at):
        # the core continues from A^at x0
        return self.continues_from(core, self.jumped(_MAT1, self.M1, at),
                                   self.jumped(_MAT2, self.M2, at))

    def test_known_vector_from_canonical_state(self):
        core = _Mrg32k3aCore.from_state([12345] * 3, [12345] * 3)
        want_z = [545508589, 1368065410, 1327943761, 3546985096, 951893194]
        got = core.words(5)
        want = [(z << 32) // 4294967087 for z in want_z]
        assert list(got) == want

    def test_vectorized_path_matches_scalar_reference(self):
        # one request of 12000 outputs, part of a 2^15-word fill in 1024
        # lanes of 32 steps; test_lane_path_across_calls chains requests of
        # many sizes
        m1 = 4294967087
        ref_z = self.scalar_reference([12345] * 3, [12345] * 3, 12000)
        ref = [(z << 32) // m1 for z in ref_z]

        core = _Mrg32k3aCore.from_state([12345] * 3, [12345] * 3)
        got = core.words(12000)
        assert list(got) == ref

    def test_single_draw_path_matches_bulk(self):
        a = stream("cmrg", seed=7).take_kbits(9000)
        s = stream("cmrg", seed=7)
        b_ = np.array([draw(s) for _ in range(9000)], dtype=np.uint64)
        assert np.array_equal(a, b_)

    # the first call (one word) sets a two-word fill, each later fill twice
    # the last up to 2^17 words; the odd counts end inside fills, part-way
    # along a lane, and the larger ones span several fills
    ODD_TAKES = (1, 2, 5003, 777, 5, 100001, 3, 7, 99999, 8192, 10240, 10000)

    def test_lane_path_across_calls(self):
        # every call must return exactly its count and continue the
        # canonical sequence, whatever fill it starts or ends in
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
            # the core continues from A^at x0
            assert self.continues_at(core, at)

    @pytest.fixture(scope="class")
    def long_reference(self):
        # the scaled scalar reference past the lane-cap switch at 2^20 words
        return [(z << 32) // self.M1
                for z in self.scalar_reference(self.X0, self.X0, 2 ** 20 + 1)]

    # one request each, the boundaries of the lane rule this kernel replaced
    # (lanes = min(8192, 8*isqrt(count), count), 2^20 words where it reached
    # its cap); here 2^20 is eight whole 2^17-word fills, 2^20 - 1 ends one
    # word short of the eighth and 2^20 + 1 starts a ninth, and each count
    # below 2^16 is one fill of twice its next power of two, part-read
    BOUNDARY_COUNTS = (8191, 8192, 8193, 2 * 8192 + 1, 2 ** 20 - 1, 2 ** 20,
                       2 ** 20 + 1, 14399, 14400, 16383, 16384, 18495, 18496)

    @pytest.mark.parametrize("count", BOUNDARY_COUNTS)
    def test_lane_and_block_boundaries(self, long_reference, count):
        core = _Mrg32k3aCore.from_state(self.X0, self.X0)
        assert list(core.words(count)) == long_reference[:count]
        assert self.continues_at(core, count)

    def test_fills_straddled_and_started_by_one_word(self, long_reference):
        # the first request sets 2^17-word fills; the second straddles the
        # first fill into the next, the third ends exactly on that fill's
        # last word, the fourth (one word) starts a fill from the kept
        # lanes, and the fifth spans three more
        core = _Mrg32k3aCore.from_state(self.X0, self.X0)
        at = 0
        for count in (2 ** 17 - 5, 10, 2 ** 17 - 5, 1, 3 * 2 ** 17 + 7):
            assert core.words(count).tolist() == long_reference[at:at + count]
            at += count
        assert self.continues_at(core, at)

    # per seed: SHA-256 of the little-endian uint64 words of words(2_000_003),
    # the state after it, and SHA-256 of 10^6 draws of cmrg:seed:40, recorded
    # before the lane kernel reduced by floor division; too long for the
    # scalar reference
    DIGESTS = {
        7: ("5c5a6df49320df31bb55f01019a3863833324159b02e656f88b337dc5a3a87c2",
            [2916585763, 3435359985, 2172691834], [2867226749, 3409597772, 1721699639],
            "8eed93743dfd482ee6bf5919c45b838b85dadc3c1d31c9cb458a63c261040f8f"),
        2 ** 64 - 1: ("b9fe1802dd52d3a0dd9dbc65a89126fb058ac3050a8214dcd8fec20a9c8f855e",
                      [334351682, 1068486443, 516934160], [4040183878, 3014524749, 3416532644],
                      "4df13c5feab5721de82b6b9e2ecbbcd1823cc1b6a96b741d07ef45b16d21a6a6"),
    }

    @staticmethod
    def digest(words):
        return hashlib.sha256(words.astype("<u8").tobytes()).hexdigest()

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_literal_digests(self, seed):
        words_sha, s1, s2, draws_sha = self.DIGESTS[seed]
        core = _Mrg32k3aCore(seed)
        assert self.digest(core.words(2_000_003)) == words_sha
        assert self.continues_from(core, s1, s2)
        draws = KBitStream(GeneratorSpec("cmrg", seed, 40)).take_kbits(10 ** 6)
        assert self.digest(draws) == draws_sha

    def test_reductions_exact_at_extremes(self):
        m1, m2 = self.M1, self.M2
        # the step's numerators run from 0 up to a12*(m1-1) + m1*a13 and
        # a21*(m2-1) + m2*a23; the output's p1 + m1 - p2 up to 2*m1 - 1
        for m, top in ((m1, 1403580 * (m1 - 1) + m1 * 810728),
                       (m2, 527612 * (m2 - 1) + m2 * 1370589)):
            x = [0, 1, m - 1, m, m + 1, 2 * m - 1, 2 ** 32, top - m, top - 1, top]
            got = prng._mod(np.array(x, dtype=np.uint64), np.uint64(m))
            assert got.tolist() == [v % m for v in x]
        # the 16-bit split of a lane-start jump stays exact at its largest
        # matrix and state entries
        for m in (m1, m2):
            j = ((m - 1,) * 3, (m - 1, 0, 1), (2 ** 16 - 1, 2 ** 16, m - 2))
            x = np.array([[m - 1, 0], [m - 1, 1], [m - 1, m - 2]], dtype=np.uint64)
            want = [[sum(j[i][k] * int(x[k, c]) for k in range(3)) % m for c in range(2)]
                    for i in range(3)]
            assert prng._jump(j, x, np.uint64(m)).tolist() == want

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_keys_and_draws_interleaved_across_fills(self, seed):
        # cmrg:seed:32 draws are the core's words: keys and draws taken in
        # turn cross fills of every size and end on the pinned digest
        s = KBitStream(GeneratorSpec("cmrg", seed, 32))
        parts = []
        for count in (3, 2 ** 16 + 1, 2 ** 17 - 4, 1, 2 ** 18 + 5):
            parts += [s.take_keys(count), s.take_kbits(count % 7 + 1)]
        parts.append(s.take_kbits(2_000_003 - s.position))
        assert self.digest(np.concatenate(parts)) == self.DIGESTS[seed][0]

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
        with pytest.raises(ValueError, match="exactly 3 values"):
            _Mrg32k3aCore.from_state([12345] * 2, [12345] * 3)


class TestCoreMemory:
    # a core's words(count) array is 4 bytes per word from the 32-bit cores
    # and 8 from splitcounter; the limits leave room for one temporary at a
    # time, not for a second full-size copy (cmrg: 5.4 measured with its
    # 512 KB buffer and lane windows).  A "family:bits" case measures
    # take_kbits per draw on the two-word path: 8 bytes per draw of words
    # paired into 8 of draws (17.3 measured with cmrg's buffer, where
    # uint64 words took 17.9)
    @pytest.mark.parametrize("family, limit", [("mt19937", 5), ("cmrg", 6.5),
                                               ("splitcounter", 20), ("cmrg:40", 18)])
    def test_words_peak_per_word(self, family, limit):
        count = 10 ** 6
        family, _, bits = family.partition(":")
        if bits:
            draw = stream(family, 7, int(bits)).take_kbits
        else:
            draw = make_core(family, 7).words
        tracemalloc.start()
        try:
            draw(count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / count < limit

    def test_sampler_round_bounded_in_draws(self):
        # n = 2^64 - 1 takes 64 one-bit draws per pattern; a round is capped
        # at 2^22 draws, not at 2^22 patterns of 64 draws each
        s = stream("splitcounter", 3, 1)
        tracemalloc.start()
        try:
            sample_ints(s, 2 ** 64 - 1, 2 ** 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * 2 ** 20


def splitmix64_reference(seed, first, count):
    """Words ``first`` .. ``first + count - 1`` of SplitMix64 at ``seed``,
    one Python int at a time."""
    out = []
    for j in range(first, first + count):
        z = (seed + j * GOLDEN) % 2 ** 64
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2 ** 64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2 ** 64
        out.append(z ^ (z >> 31))
    return out


class TestBlocks:
    """The mixer's 2^15-word blocks, the two-word draws' pairing blocks
    and take_keys' 2^16-draw blocks change no draw."""

    EDGES = [0, 1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 3 * 2 ** 16 + 5]

    @pytest.mark.parametrize("seed, first, count", [
        (42, 1, 2 ** 15 - 1), (42, 1, 2 ** 15 + 1), (2 ** 64 - 1, 2 ** 64 - 2 ** 15, 2 ** 16 + 3),
        (7, 2 ** 40, 3)])
    def test_mixer_blocks_match_reference(self, seed, first, count):
        got = prng._splitmix64(seed, first, count)
        assert got.dtype == np.uint64
        assert got.tolist() == splitmix64_reference(seed, first, count)

    @pytest.mark.parametrize("family", ["mt19937", "cmrg"])
    @pytest.mark.parametrize("count", [1, 2, 3, 2 ** 15 + 1, 2 ** 16 + 3])
    def test_two_word_blocks_pair_consecutive_words(self, family, count):
        words = stream(family, seed=9, bits=32).take_kbits(2 * count + 2)
        s = stream(family, seed=9, bits=64)
        got = np.concatenate([s.take_kbits(count), s.take_kbits(1)])
        assert np.array_equal(got, (words[0::2] << 32) | words[1::2])

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("bits", [24, 32, 40, 64])
    def test_keys_are_the_draws(self, family, bits):
        s = stream(family, seed=13, bits=bits)
        for count in self.EDGES:
            want = stream(family, seed=13, bits=bits)
            want.take_kbits(s.position)
            keys = s.take_keys(count)
            assert keys.dtype == (np.uint32 if bits <= 32 else np.uint64)
            assert keys.size == count
            assert np.array_equal(keys, want.take_kbits(count))
        assert s.position == sum(self.EDGES)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_keys_interleave_with_draws(self, family):
        s = stream(family, seed=17, bits=40)
        parts = [s.take_keys(2 ** 16 + 1), s.take_kbits(5), s.take_keys(3),
                 s.take_keys(2 ** 17 - 1), s.take_kbits(1)]
        assert np.array_equal(np.concatenate(parts),
                              stream(family, seed=17, bits=40).take_kbits(3 * 2 ** 16 + 9))

    # whole and part cmrg fills of 2^17 words, in one and two words a draw
    CMRG_EDGES = [2 ** 20 - 1, 2 ** 20, 2 ** 20 + 1, 2 * 2 ** 20 + 5]

    @pytest.mark.parametrize("bits", [24, 32, 40, 64])
    def test_cmrg_keys_cross_its_fills(self, bits):
        for count in self.CMRG_EDGES:
            keys = stream("cmrg", seed=19, bits=bits).take_keys(count)
            assert keys.dtype == (np.uint32 if bits <= 32 else np.uint64)
            assert np.array_equal(keys, stream("cmrg", seed=19, bits=bits).take_kbits(count))
        # interleaved on one stream, against one request for all
        s = stream("cmrg", seed=19, bits=bits)
        parts = []
        for count in self.CMRG_EDGES:
            parts += [s.take_keys(count), s.take_kbits(3)]
        got = np.concatenate(parts)
        assert s.position == got.size
        assert np.array_equal(got, stream("cmrg", seed=19, bits=bits).take_kbits(got.size))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_keys_cap_refused_before_drawing(self, family, monkeypatch):
        monkeypatch.setenv("COLLISION_LAB_MAX_DISTINCT", "1000")
        s = stream(family, bits=24)
        with pytest.raises(CapacityError):
            s.take_keys(1001)
        assert s.position == 0
        assert np.array_equal(s.take_keys(1000), stream(family, bits=24).take_kbits(1000))


class TestStreamContract:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_determinism(self, family):
        a = stream(family, seed=271).take_kbits(10 ** 4)
        b_ = stream(family, seed=271).take_kbits(10 ** 4)
        assert np.array_equal(a, b_)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_position_counts_draws(self, family):
        s = stream(family, seed=3, bits=16)
        draw(s)
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

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cap_refuses_before_drawing(self, family, monkeypatch):
        monkeypatch.setenv("COLLISION_LAB_MAX_DISTINCT", "1000")
        s = stream(family, bits=40)
        with pytest.raises(CapacityError):
            s.take_kbits(1001)
        with pytest.raises(CapacityError):
            sample_ints(s, 5, 1001)
        # neither the position nor the core moved
        assert s.position == 0
        assert np.array_equal(s.take_kbits(1000), stream(family, bits=40).take_kbits(1000))
        with pytest.raises(CapacityError):
            seeds_from_base(1, 1001)
        assert len(seeds_from_base(1, 1000)) == 1000

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
        mixed = [draw(s), *s.take_kbits(700).tolist(), draw(s)]
        ref = stream(seed=42).take_kbits(702).tolist()
        assert mixed == ref

    def test_word_pairing_survives_single_draws(self):
        # wide draws pair two native words; single draws must not shift the
        # pairing for later bulk draws
        s = stream(seed=6, bits=64)
        mixed = [draw(s), draw(s), *s.take_kbits(50).tolist()]
        ref = stream(seed=6, bits=64).take_kbits(52).tolist()
        assert mixed == ref

    @pytest.mark.parametrize("family", FAMILIES)
    def test_fractional_count_refused(self, family):
        s = stream(family, seed=3, bits=16)
        s.take_kbits(4)
        with pytest.raises(TypeError):
            s.take_kbits(2.5)
        assert s.position == 4
        assert np.array_equal(s.take_kbits(9), stream(family, seed=3, bits=16).take_kbits(13)[4:])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_core_returns_exactly_the_words_asked(self, family):
        # odd and even counts, at the core's native width; MRG32k3a serves
        # them from its fills, each into an array of its own
        core = make_core(family, 5)
        width = np.uint32 if core.native_bits == 32 else np.uint64
        for count in (0, 1, 8191, 8192, 10001):
            words = core.words(count)
            assert words.dtype == width and words.size == count
            assert words.flags.owndata and words.nbytes == core.native_bits // 8 * count

    @pytest.mark.parametrize("family", FAMILIES)
    def test_core_keeps_no_reference_to_its_words(self, family):
        # take_kbits shifts the core's words in place
        core = make_core(family, 5)
        ref = make_core(family, 5)
        for count in (3, 8191, 10001):
            words = core.words(count)
            assert np.array_equal(words, ref.words(count))
            words[:] = 0
        assert np.array_equal(core.words(9000), ref.words(9000))

    def test_max_seed_accepted(self):
        s = stream(seed=2 ** 64 - 1)
        assert draw(s) < 2 ** 32

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
        assert sample_one(s, 1) == 1
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
            v = sample_one(s, 3)
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
        scalar = [sample_one(a, 5) for _ in range(1000)]
        vector = sample_ints(b_, 5, 1000).tolist()
        assert scalar == vector

    def test_power_of_two_n_never_rejects(self):
        s = stream(seed=41)
        vals = [sample_one(s, 8) for _ in range(2000)]
        assert s.position == 2000  # 3-bit patterns, every draw accepted
        assert set(vals) <= set(range(1, 9))

    def test_patterns_wider_than_stream(self):
        # 100 needs 7-bit patterns from a 4-bit stream: two draws per attempt
        a = stream(seed=37, bits=4)
        b_ = stream(seed=37, bits=4)
        scalar = [sample_one(a, 100) for _ in range(500)]
        vector = sample_ints(b_, 100, 500).tolist()
        assert scalar == vector
        assert min(scalar) >= 1 and max(scalar) <= 100
        # two draws span 96 and 66 bits, more than a uint64 holds; at 8 and
        # 64 bits the pattern is the whole draw, shifted by zero
        for bits, n in [(48, 2 ** 59 + 12345), (33, 2 ** 64 - 1), (8, 256),
                        (64, 2 ** 64 - 1)]:
            a = stream(seed=37, bits=bits)
            b_ = stream(seed=37, bits=bits)
            scalar = [sample_one(a, n) for _ in range(200)]
            assert sample_ints(b_, n, 200).tolist() == scalar
            assert max(scalar) > n // 2

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sample_ints(stream(), 0, 10)
        with pytest.raises(DomainError):
            # the uint64 output cannot hold n = 2^64
            sample_ints(stream(), 2 ** 64, 10)

    def test_rejection_cap_flags_broken_generator(self, monkeypatch):
        monkeypatch.setattr(prng, "_MAX_REJECTIONS", 1000)
        s = stream(bits=2)
        s._core = AllOnesCore()
        with pytest.raises(RuntimeError, match="rejection"):
            sample_one(s, 3)

    def test_rejection_cap_stops_batch_sampler(self, monkeypatch):
        monkeypatch.setattr(prng, "_MAX_REJECTIONS", 1000)
        s = stream(bits=2)
        s._core = AllOnesCore()
        with pytest.raises(RuntimeError, match="rejection"):
            sample_ints(s, 3, 10)


def frozen_rand_int_rejection(stream, n):
    """The scalar sampler as it stood before ``sample_ints`` became the one
    sampler: one pattern at a time, one ``next_kbit`` per draw.  Kept here,
    frozen, as the draw-for-draw reference of the one sampler."""
    if n == 1:
        return 1
    m = (n - 1).bit_length()
    k = stream.spec.output_bits
    draws_per_pattern = -(-m // k)
    while True:
        acc = 0
        for _ in range(draws_per_pattern):
            acc = (acc << k) | stream.next_kbit()
        v = acc >> (draws_per_pattern * k - m)
        if v <= n - 1:
            return v + 1


class Replay:
    """A stream's k-bit draws, taken 1024 at a time and handed out one
    ``next_kbit`` at a time; ``position`` counts those handed out.  Bulk
    and single draws are the same sequence (TestStreamContract), and bulk
    requests spare the frozen loop a core call per draw."""

    def __init__(self, spec):
        self.spec = spec
        self.position = 0
        self._stream = KBitStream(spec)
        self._draws = []

    def next_kbit(self):
        if self.position == len(self._draws):
            self._draws += self._stream.take_kbits(1024).tolist()
        self.position += 1
        return self._draws[self.position - 1]


def frozen_draws(spec, n, count):
    """Values, position and next k-bit word after ``count`` frozen draws."""
    s = Replay(spec)
    values = [frozen_rand_int_rejection(s, n) for _ in range(count)]
    return values, s.position, s.next_kbit()


def split_draws(spec, n, splits):
    """The same three after ``sample_ints`` calls of the given sizes."""
    s = KBitStream(spec)
    values = [v for c in splits for v in sample_ints(s, n, c).tolist()]
    return values, s.position, draw(s)


class TestFrozenSampler:
    """``sample_ints``, in one-value calls and in calls of any size, draws
    the values, ends at the position and leaves the next word of the frozen
    scalar loop: a pattern is drawn only while a value is still wanted."""

    @pytest.mark.parametrize("seed", [1, 37])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 100, 1000, 2 ** 40 + 3,
                                   2 ** 59 + 12345, 2 ** 64 - 1])
    @pytest.mark.parametrize("bits", [2, 4, 8, 17, 32, 33, 48, 64])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_frozen_loop(self, family, bits, n, seed):
        spec = GeneratorSpec(family, seed, bits)
        expected = frozen_draws(spec, n, 60)
        s = KBitStream(spec)
        one_by_one = [sample_one(s, n) for _ in range(60)]
        assert (one_by_one, s.position, draw(s)) == expected
        assert split_draws(spec, n, [60]) == expected
        assert split_draws(spec, n, [1, 7, 1, 0, 51]) == expected

    @given(st.sampled_from(FAMILIES), st.integers(1, 64), st.integers(1, 2 ** 64 - 1),
           st.integers(0, 2 ** 64 - 1), st.lists(st.integers(0, 40), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_random_splits(self, family, bits, n, seed, splits):
        spec = GeneratorSpec(family, seed, bits)
        assert split_draws(spec, n, splits) == frozen_draws(spec, n, sum(splits))


class TestSpecAndSeeds:
    @given(st.sampled_from(FAMILIES), st.integers(0, 2 ** 64 - 1),
           st.integers(1, 64))
    @settings(max_examples=50)
    def test_parse_any_valid_triple(self, family, seed, bits):
        assert GeneratorSpec.parse(f"{family}:{seed}:{bits}") == GeneratorSpec(family, seed, bits)

    @pytest.mark.parametrize("bad", [
        "nosuch:1:32", "mt19937:1", "mt19937:x:32", "mt19937:1:0",
        "mt19937:1:65", "mt19937:-1:32",
    ])
    def test_bad_specs(self, bad):
        with pytest.raises(ValueError):
            GeneratorSpec.parse(bad)

    # a family is spelled one way only; parse refuses what the constructor does
    @pytest.mark.parametrize("family", ["MT19937", "Cmrg", "splitCounter"])
    def test_family_case_refused(self, family):
        with pytest.raises(ValueError, match="expected one of") as parsed:
            GeneratorSpec.parse(f"{family}:1:32")
        with pytest.raises(ValueError) as built:
            GeneratorSpec(family, 1, 32)
        assert str(parsed.value) == str(built.value)

    def test_derive_seed_distinct(self):
        seeds = [derive_seed(271, i) for i in range(10 ** 4)]
        assert len(set(seeds)) == 10 ** 4

    def test_mix64_is_deterministic(self):
        assert mix64(0) == mix64(0)
        assert mix64(1) != mix64(2)

    def test_splitcounter_reference(self):
        got = [draw(stream("splitcounter", 42, 64)) for _ in range(1)]
        s = stream("splitcounter", 42, 64)
        first3 = [draw(s) for _ in range(3)]
        assert first3 == [13679457532755275413, 2949826092126892291,
                          5139283748462763858]
        assert got[0] == first3[0]


class TestSeedingPins:
    """Literal values of every seeding path, recorded before the SplitMix64
    rule was reduced to one implementation; they are the reference that
    does not depend on the code under test."""

    MIX64 = {0: 0, 1: 6238072747940578789, 2: 15839785061582574730,
             271: 7246980572942276072, 2 ** 32 + 5: 3958888734102629462,
             2 ** 63: 2720858781877447050, 2 ** 64 - 1: 13029008266876403067}

    DERIVE_SEED = {(0, 0): 16294208416658607535, (1, 0): 10451216379200822465,
                   (1, 1): 13757245211066428519, (271, 0): 7738825323609040495,
                   (271, 3): 3458682794589304879,
                   (2 ** 64 - 1, 0): 16490336266968443936,
                   (2 ** 64 - 1, 7): 4638043754431676516,
                   (5, 2 ** 40): 4200579470777321078,
                   (20260808, 49): 14526793510165929817}

    # the six MRG32k3a component seeds, (s1, s2), of a 64-bit seed
    CMRG_STATE = {
        0: ([4192756788, 1084990351, 220047340], [434978859, 3346614284, 849877705]),
        1: ([2203871736, 46766916, 3830359027], [1590380916, 412021574, 3625055133]),
        271: ([1376541362, 4074345762, 490694903], [1311462188, 197843195, 1119956745]),
        2 ** 32 + 5: ([1191079537, 15247855, 3639255537],
                      [141689351, 2409208476, 48912498]),
        2 ** 64 - 1: ([3586447653, 2167465160, 3385611774],
                      [40789039, 2315914353, 3379124828]),
    }

    # per (family, seed): a core's words 0..5 and 620..629 when drawn in
    # calls of 1, 2, 3 and 700 words (mt19937 twists its 624-word block
    # inside the last call), then the first eight 40-bit draws of a
    # KBitStream taken as three one-draw calls and one take_kbits(5)
    FIRST_WORDS = {
        ("mt19937", 0): (
            [2357136044, 2546248239, 3071714933, 3626093760, 2588848963, 3684848379],
            [3309619115, 1308169859, 631131020, 3791854820, 341544762, 1076416385,
             384842097, 2909461632, 2886423335, 3480744984],
            [603426827415, 786359023064, 662745334747, 599105389528, 465813375391,
             710168089954, 481132225612, 980514784782]),
        ("mt19937", 2 ** 32 + 5): (
            [953453411, 236996814, 3739766767, 3570525885, 887852006, 1562238070],
            [3140411373, 911683318, 4288592546, 2809743450, 164677315, 3235025989,
             3689798726, 3471578330, 2337771902, 747544439],
            [244084073230, 957380292564, 227290113629, 1010023371002, 537013782550,
             672619489125, 842124598106, 570006609532]),
        ("mt19937", 2 ** 64 - 1): (
            [419326371, 479346978, 3918654476, 2416749639, 3388880820, 2260532800],
            [194249753, 2027836416, 1222270187, 1027084080, 3860652269, 657474326,
             948840071, 4178390586, 293166381, 523477919],
            [107347551004, 1003175546000, 867553490054, 857623025349, 19724884296,
             1065983049601, 652203193010, 160657509299]),
        ("cmrg", 0): (
            [1638311796, 1496463689, 4107089448, 3013859332, 891145807, 742418564],
            [3171812441, 2144801051, 2007732454, 4245792913, 3849881361, 1354276359,
             1233656883, 2519159991, 2342680024, 2909393712],
            [419407819865, 1051414898867, 228133326636, 670109068469, 291603002051,
             79024448397, 2889709002, 603424499049]),
        ("cmrg", 2 ** 32 + 5): (
            [3430784255, 3890897209, 2622417330, 1995222392, 634924813, 2656366802],
            [3175673660, 1137044315, 2723078598, 4123568630, 4161556662, 406225277,
             3228814207, 995977275, 1586849870, 3824312226],
            [878280769511, 671338836598, 162540752286, 638615349940, 273151441915,
             961216721053, 249286126308, 1061646758406]),
        ("cmrg", 2 ** 64 - 1): (
            [4013135275, 592632168, 327729380, 2991866720, 1974454190, 3151541542],
            [936795492, 368169595, 1946720078, 1110657024, 3482621732, 2032296117,
             1874716666, 2729620999, 1968237882, 272487094],
            [1027362630435, 83898721458, 505460272827, 212029066227, 1232272274,
             88411768476, 115817245030, 861963138934]),
        ("splitcounter", 0): (
            [16294208416658607535, 7960286522194355700, 487617019471545679,
             17909611376780542444, 1961750202426094747, 6038094601263162090],
            [9896328981752488307, 4353296321515634378, 5863181898144841561,
             15788308404117636412, 12471312267484396559, 11142628642521954783,
             4220400455452318983, 3522515547680592265, 1980689092901566094,
             2190398323048852815],
            [971210504571, 474470050465, 29064239232, 1067496024178, 116929423953,
             359898483828, 191169740319, 848324410057]),
        ("splitcounter", 2 ** 32 + 5): (
            [5850300198034702058, 3809210255663399888, 12621417383238494872,
             6505420513119442160, 8123797096065537657, 11415528309864215071],
            [12789878624458550712, 2095648344588338775, 8222054058553662837,
             8443404377879183265, 13368038043658712123, 1306059847613321086,
             1551975423344360475, 14130439248774663897, 7182552654905006312,
             11061384949378518936],
            [348705065133, 227046624163, 752295099689, 387753278799, 484216040138,
             680418509832, 1025344358536, 43551853645]),
        ("splitcounter", 2 ** 64 - 1): (
            [16490336266968443936, 16834447057089888969, 4048727598324417001,
             7862637804313477842, 13015481187462834606, 15212506146343009075],
            [3465130122984671834, 14452922244573622703, 11404467885397485002,
             10824786454444082299, 10213268711260577607, 5101002577924620184,
             16543831845163621960, 6982668709053226285, 5006012985479007279,
             10431394704425975019],
            [982900635419, 1003411236827, 241322970290, 468649733323, 775783132759,
             906736024996, 1036415465474, 276448950435]),
    }

    @pytest.mark.parametrize("z", MIX64)
    def test_mix64(self, z):
        assert mix64(z) == self.MIX64[z]

    @pytest.mark.parametrize("base, index", DERIVE_SEED)
    def test_derive_seed(self, base, index):
        assert derive_seed(base, index) == self.DERIVE_SEED[base, index]

    @pytest.mark.parametrize("seed", CMRG_STATE)
    def test_cmrg_seed_expansion(self, seed):
        core = _Mrg32k3aCore(seed)
        assert (core._s1, core._s2) == self.CMRG_STATE[seed]

    @pytest.mark.parametrize("family, seed", FIRST_WORDS)
    def test_first_words(self, family, seed):
        head, at620, kbit40 = self.FIRST_WORDS[family, seed]
        core = make_core(family, seed)
        words = np.concatenate([core.words(count) for count in (1, 2, 3, 700)])
        assert words[:6].tolist() == head
        assert words[620:630].tolist() == at620
        s = stream(family, seed, 40)
        assert [draw(s) for _ in range(3)] + s.take_kbits(5).tolist() == kbit40
