"""What the kernels assume of numpy, one test per assumption.

pyproject.toml declares numpy >= 1.24, where value-based casting still
decides result types; numpy 2 promotes by NEP 50 instead.  Each kernel
below is pinned bit for bit to a slower reference elsewhere in the suite,
so a numpy that broke one of these assumptions would show only as a pin
that differs in its last bits.  Each test names the kernel that relies on
its assumption, and checks that assumption alone on crafted inputs.
"""

import functools
import itertools
import operator
import random
import tracemalloc

import numpy as np

from collision_lab.analytics import _SCALE
from collision_lab.empirics import _PHI
from collision_lab.prng import (_GOLDEN, _M1, _MIX1, _RAMP, _U16, _U30, _U32, _UA12, _UC1,
                                _UM1, _LOW16, _narrowed, _pairs)

MASK64 = (1 << 64) - 1
WIDE = [0, 1, 2 ** 32 - 1, 2 ** 63 + 12345, MASK64]


def floats(count, seed, lo=0.5, hi=1.5):
    rnd = random.Random(seed)
    return np.array([rnd.uniform(lo, hi) for _ in range(count)])


def test_tally_hash_multiply_wraps_in_uint64():
    # empirics._tally (and prng._splitmix64) multiply in place mod 2^64
    h = np.array(WIDE, dtype=np.uint64)
    h *= _PHI
    assert h.dtype == np.uint64
    assert h.tolist() == [v * int(_PHI) & MASK64 for v in WIDE]


def test_mrg32k3a_lanes_keep_uint64_with_uint64_scalars():
    # _Mrg32k3aCore.words mixes uint64 arrays only with np.uint64 scalars;
    # every intermediate must stay uint64, with no detour through int64 or
    # float64, which would round values above 2^53
    x = np.array([_M1 - 1, 2 ** 32 - 1, 2 ** 53 + 1], dtype=np.uint64)
    v = [int(e) for e in x]
    cases = [
        (x * _UA12, [e * int(_UA12) & MASK64 for e in v]),
        (x + _UC1, [e + int(_UC1) for e in v]),
        (x // _UM1, [e // _M1 for e in v]),
        ((x & _LOW16) << _U32, [(e & 0xFFFF) << 32 for e in v]),
        (x >> _U16, [e >> 16 for e in v]),
    ]
    for got, want in cases:
        assert got.dtype == np.uint64 and got.tolist() == want


def test_power_factors_python_float_minus_float64_array_stays_float64():
    # analytics._power_factors and the literal rules of _chunked_product
    # subtract a float64 array from a Python float; under value-based
    # casting and under NEP 50 alike the result is float64, one rounding
    # per element
    scale = 2.0 ** -40
    ramp = np.arange(2 ** 11 + 5, dtype=np.float64) * scale
    head = 1.0 - 3 * 2 ** 11 * scale
    got = np.subtract(head, ramp)
    assert got.dtype == np.float64
    assert got.tolist() == [head - r for r in ramp.tolist()]


def test_chunked_product_multiply_reduce_with_initial_is_left_to_right():
    # analytics._chunked_product continues a chunk's product piece by
    # piece as the initial value of np.multiply.reduce; the pieces give the
    # bits of the whole chunk only if each reduce is one left-to-right loop
    piece, part = floats(2 ** 14, seed=1), 0.7
    left_to_right = functools.reduce(operator.mul, piece.tolist(), part)
    # the input tells the orders apart: eight interleaved partial products
    # multiplied at the end give other bits
    lanes = [functools.reduce(operator.mul, piece[j::8].tolist(), 1.0) for j in range(8)]
    assert functools.reduce(operator.mul, lanes, part) != left_to_right
    assert np.multiply.reduce(piece, initial=part) == left_to_right
    split = np.multiply.reduce(piece[5000:], initial=np.multiply.reduce(piece[:5000],
                                                                        initial=part))
    assert split == left_to_right


def test_pmf_eulerian_add_reduce_of_a_row_slice_is_its_sum():
    # analytics._pmf_eulerian sums each grid row with np.add.reduce over a
    # contiguous slice of a 2-D array; its pin, the frozen per-c loop, sums
    # a fresh 1-D array.  The pairwise order must depend on the values
    # alone, not on where the slice starts
    grid = floats(300 * 8, seed=2, lo=0.0, hi=1.0).reshape(8, 300)
    for offset in range(8):
        for size in (1, 7, 8, 9, 127, 128, 129, 255, 256, 292):
            row = grid[offset, offset:offset + size]
            assert np.add.reduce(row) == row.copy().sum()
    # the input tells the orders apart: a sequential sum differs
    values = grid[0, :256].tolist()
    assert functools.reduce(operator.add, values) != np.add.reduce(grid[0, :256])


def test_pmf_eulerian_reversed_sliding_window_reads_window_sums():
    # analytics._pmf_eulerian reads prefix[i + c_max - 1 - k] at [i, k]
    # through a reversed sliding_window_view, and adds its slices in place
    prefix = np.cumsum(floats(40, seed=3))
    c_max = 6
    window = np.lib.stride_tricks.sliding_window_view(prefix, c_max)[:, ::-1]
    want = np.array([[prefix[i + c_max - 1 - k] for k in range(c_max)]
                     for i in range(prefix.size - c_max + 1)])
    assert np.array_equal(window, want)
    grid = np.zeros((c_max + 1, c_max))
    grid += window[c_max + 1:2 * c_max + 2]
    grid -= window[c_max + 1:0:-1]
    assert np.array_equal(grid, want[c_max + 1:2 * c_max + 2] - want[c_max + 1:0:-1])


def test_pmf_occupancy_einsum_reads_overlapping_strides():
    # analytics._pmf_occupancy contracts a band with a sliding_window_view
    # of q, whose rows overlap in memory: q[i - m + j] at [i, j]
    m, size = 16, 200
    qpad = floats(size + m, seed=4, lo=0.0, hi=1.0)
    band = floats((m + 1) * size, seed=5, lo=0.0, hi=1.0).reshape(m + 1, size)
    win = np.lib.stride_tricks.sliding_window_view(qpad, m + 1)
    got = np.einsum("ji,ij->i", band, win[:size])
    exact = [sum(band[j, i] * qpad[i + j] for j in range(m + 1)) for i in range(size)]
    assert np.allclose(got, exact, rtol=4e-16 * (m + 1), atol=0.0)
    # one order for one layout: the same call gives the same bits
    assert np.array_equal(got, np.einsum("ji,ij->i", band, win[:size]))


def test_tally_unique_return_index_gives_first_occurrences():
    # empirics._tally settles hash clashes with np.unique, whose index per
    # value must be the value's first occurrence and whose counts its
    # multiplicity, over many repeats where an unstable sort would not keep
    # the first
    rnd = random.Random(6)
    keys = np.array([rnd.choice(WIDE) for _ in range(5000)], dtype=np.uint64)
    values, first, counts = np.unique(keys, return_index=True, return_counts=True)
    seen = {}
    for i, key in enumerate(keys.tolist()):
        seen.setdefault(key, i)
    assert values.tolist() == sorted(seen)
    assert first.tolist() == [seen[v] for v in values.tolist()]
    assert counts.tolist() == [keys.tolist().count(v) for v in values.tolist()]


def test_pmf_occupancy_scaling_by_2_to_512_is_exact():
    # analytics._pmf_occupancy carries q times _SCALE = 2^512 and unscales
    # once with q *= 1 / _SCALE; both are exact for every normal q <= 1,
    # so entries keep their bits
    rnd = random.Random(7)
    q = np.array([rnd.uniform(1.0, 2.0) * 2.0 ** e for e in range(-1022, 0)]
                 + [2.0 ** -1022, 1.0])
    scaled = q * _SCALE
    assert np.array_equal(scaled / _SCALE, q)
    scaled *= 1.0 / _SCALE
    assert np.array_equal(scaled, q)


def test_take_keys_uint64_below_2_to_32_assigned_into_uint32_slice_arrive_unchanged():
    # KBitStream.take_keys stores each block's uint64 draws into a slice of
    # uint32 keys; the assignment casts unsafely, with no same-kind refusal
    keys = np.zeros(8, dtype=np.uint32)
    draws = np.array([0, 1, 2 ** 31, 2 ** 32 - 1], dtype=np.uint64)
    keys[2:6] = draws
    assert keys.tolist() == [0, 0, 0, 1, 2 ** 31, 2 ** 32 - 1, 0, 0]


def test_narrowed_uint32_view_of_a_uint64_buffer_holds_the_values():
    # prng._narrowed writes uint32 keys over the front of their own uint64
    # buffer through a uint32 view, block by block
    rnd = random.Random(8)
    values = [rnd.randrange(2 ** 32) for _ in range(3 * 2 ** 15 + 7)]
    vals = np.array(values, dtype=np.uint64)
    keys = _narrowed(vals)
    assert keys.dtype == np.uint32 and keys.size == len(values)
    assert keys.tolist() == values


def test_pairs_shift_and_or_of_strided_uint64_words_over_their_own_buffer():
    # prng._pairs makes two-word draws from strided uint64 slices shifted
    # by a np.uint64 scalar, and stores them over the front of the words
    rnd = random.Random(9)
    words = [rnd.randrange(2 ** 32) for _ in range(2 * (2 ** 15 + 3))]
    got = _pairs(np.array(words, dtype=np.uint64), 32)
    assert got.dtype == np.uint64
    assert got.tolist() == [
        (words[2 * i] << 32) | words[2 * i + 1] for i in range(len(words) // 2)]


def test_mrg_words_resize_flattens_an_owned_2d_uint64_array_to_its_front():
    # prng._Mrg32k3aCore.words shrinks its owned (lanes, steps) output with
    # ndarray.resize(count, refcheck=False): the array stays owned, becomes
    # 1-D and keeps the first `count` values in C order
    rnd = random.Random(10)
    values = [rnd.randrange(2 ** 64) for _ in range(7 * 9)]
    out = np.empty((7, 9), dtype=np.uint64)
    out[...] = np.array(values, dtype=np.uint64).reshape(7, 9)
    out.resize(60, refcheck=False)
    assert out.dtype == np.uint64 and out.flags.owndata
    assert out.shape == (60,) and out.nbytes == 8 * 60
    assert out.tolist() == values[:60]

def test_splitmix64_block_add_and_shift_with_out_stay_uint64():
    # prng._splitmix64 starts each block as _RAMP plus a np.uint64 scalar
    # into an out= slice, and xors it with its shift into a scratch array
    assert _RAMP.dtype == np.uint64
    assert _RAMP[:4].tolist() == [j * _GOLDEN & MASK64 for j in range(4)]
    z = np.empty(4, dtype=np.uint64)
    start = np.uint64(MASK64 - 1)
    np.add(_RAMP[:4], start, out=z)
    assert z.tolist() == [(int(start) + j * _GOLDEN) & MASK64 for j in range(4)]
    want = [v ^ (v >> 30) for v in z.tolist()]
    s = np.empty(4, dtype=np.uint64)
    z ^= np.right_shift(z, _U30, out=s)
    assert z.dtype == np.uint64 and z.tolist() == want
    z *= _MIX1
    assert z.tolist() == [v * int(_MIX1) & MASK64 for v in want]


def test_tally_signed_keys_assigned_into_uint64_slice_wrap_as_astype():
    # empirics._tally copies each block of keys into its uint64 words by
    # slice assignment; negative int64 keys must wrap as astype wraps them
    keys = np.array([-1, -2 ** 63, 0, 2 ** 63 - 1], dtype=np.int64)
    words = np.zeros(6, dtype=np.uint64)
    words[1:5] = keys
    assert words[1:5].tolist() == keys.astype(np.uint64).tolist()


def test_tally_equal_hash_mask_compares_uint64_exactly():
    # empirics._tally marks adjacent equal hashes with np.less_equal of a
    # uint64 xor and a np.uint64 scalar into a bool slice; values above
    # 2^53 must compare exactly, with no detour through float64
    low = np.uint64(2 ** 60 - 1)
    x = np.array([2 ** 60 - 1, 2 ** 60, 2 ** 64 - 1, 0], dtype=np.uint64)
    same = np.ones(6, dtype=bool)
    np.less_equal(x, low, out=same[1:5])
    assert same.tolist() == [True, True, False, False, True, True]


def test_trace_collisions_cumsum_in_place_is_the_cumsum():
    # empirics.trace_collisions sums its int64 duplicate mask in place
    rnd = random.Random(10)
    mask = np.array([rnd.random() < 0.3 for _ in range(10000)])
    cumulative = mask.astype(np.int64)
    np.cumsum(cumulative, out=cumulative)
    assert cumulative.tolist() == list(itertools.accumulate(mask.tolist()))


def test_collision_summary_sorts_in_place_without_a_full_copy():
    # empirics.collision_summary sorts the stream's keys with ndarray.sort;
    # its memory bound holds only if that sort needs no second array
    rnd = random.Random(11)
    values = [rnd.randrange(2 ** 32) for _ in range(2 ** 18)]
    for dtype in (np.uint32, np.uint64):
        keys = np.array(values, dtype=dtype)
        tracemalloc.start()
        try:
            keys.sort()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert keys.tolist() == sorted(values)
        assert peak < keys.nbytes // 8
