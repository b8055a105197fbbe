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
import pytest

from collision_lab.analytics import _SCALE
from collision_lab.empirics import _PHI
from collision_lab.prng import (_GOLDEN, _M1, _MIX1, _RAMP, _U16, _U30, _U32, _UA12, _UC1,
                                _UM1, _LOW16, _pair)

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


def test_splitmix64_narrowed_block_store_of_uint64_into_uint32_slice_is_unchanged():
    # prng._splitmix64 stores each shifted uint64 block into a slice of a
    # uint32 output; the assignment casts unsafely, with no same-kind refusal
    keys = np.zeros(8, dtype=np.uint32)
    draws = np.array([0, 1, 2 ** 31, 2 ** 32 - 1], dtype=np.uint64)
    keys[2:6] = draws
    assert keys.tolist() == [0, 0, 0, 1, 2 ** 31, 2 ** 32 - 1, 0, 0]


def test_mt19937_kbits_shifts_uint32_words_in_place_by_a_uint32_scalar():
    # prng._Mt19937Core.kbits (and prng._draws) shift uint32 words right in
    # place by a scalar of the array's own type; the array must stay uint32
    rnd = random.Random(12)
    values = [rnd.randrange(2 ** 32) for _ in range(1000)] + [0, 2 ** 32 - 1]
    for shift in (1, 8, 31):
        words = np.array(values, dtype=np.uint32)
        words >>= words.dtype.type(shift)
        assert words.dtype == np.uint32
        assert words.tolist() == [v >> shift for v in values]


def test_mt19937_words_randint_uint32_matches_the_uint64_call():
    # prng._Mt19937Core.words asks RandomState.randint(0, 2^32) for uint32;
    # each word must be the raw 32-bit output the uint64 call gives
    for seed in (0, 5489, 2 ** 32 - 1):
        narrow = np.random.RandomState(seed).randint(0, 2 ** 32, size=3 * 2 ** 12 + 5,
                                                     dtype=np.uint32)
        wide = np.random.RandomState(seed).randint(0, 2 ** 32, size=3 * 2 ** 12 + 5,
                                                   dtype=np.uint64)
        assert narrow.dtype == np.uint32
        assert narrow.tolist() == wide.tolist()


def test_mt19937_kbits_pairs_strided_uint32_words_into_a_uint64_slice():
    # prng._Mt19937Core.kbits copies strided uint32 words into a uint64
    # slice and prng._pair shifts it by a np.uint64 scalar, ors the other
    # uint32 words in and shifts the draws down, all in place
    rnd = random.Random(9)
    words = [rnd.randrange(2 ** 32) for _ in range(2 * (2 ** 15 + 3))]
    w = np.array(words, dtype=np.uint32)
    out = np.zeros(2 ** 15 + 5, dtype=np.uint64)
    v = out[1:-1]
    v[...] = w[0::2]
    _pair(v, w[1::2], 24)
    assert out.dtype == np.uint64 and out[0] == out[-1] == 0
    assert v.tolist() == [
        ((words[2 * i] << 32) | words[2 * i + 1]) >> 24 for i in range(len(words) // 2)]


def test_mrg_output_stage_pairs_strided_uint64_rows_in_place():
    # prng._Mrg32k3aCore.kbits pairs each block of scaled words in place:
    # prng._pair on its even rows, a strided uint64 view, with the odd rows
    # as the low words; the odd rows must stay as they were
    rnd = random.Random(13)
    block = [[rnd.randrange(2 ** 32) for _ in range(5)] for _ in range(8)]
    w = np.array(block, dtype=np.uint64)
    hi = _pair(w[0::2], w[1::2], 64 - 40)
    assert hi.dtype == np.uint64 and not hi.flags.c_contiguous
    assert w[0::2].tolist() == [[((a << 32) | b) >> 24 for a, b in zip(block[i], block[i + 1])]
                                for i in range(0, 8, 2)]
    assert w[1::2].tolist() == block[1::2]


def test_mrg_jump_einsum_of_uint64_stays_exact_uint64():
    # prng._jump multiplies 16-bit matrix halves into (3, n) uint64 states
    # with np.einsum, and lane-major the 16-bit halves of a transposed view
    # of the states into the rows table; sums up to 2^50 must stay exact,
    # with no float detour
    j = np.array([[2 ** 16 - 1] * 3, [0, 1, 2 ** 16 - 1], [3, 2 ** 15, 7]], dtype=np.uint64)
    x = np.array([[_M1 - 1, 0, 2 ** 32 - 1], [_M1 - 2, 1, 2 ** 31], [_M1 - 3, 2, 5]],
                 dtype=np.uint64)
    want = [[sum(int(j[i, k]) * int(x[k, c]) for k in range(3)) for c in range(3)]
            for i in range(3)]
    for view in (j, np.ascontiguousarray(j.T).T):
        got = np.einsum("ij,jk->ik", view, x)
        assert got.dtype == np.uint64
        assert got.tolist() == want


def test_mrg_step_lanes_wrapped_minimum_and_uint32_grid_store():
    # prng._scaled takes (p1 - p2) mod m1 as the minimum of the wrapped
    # uint64 difference and that plus m1, prng._step_lanes subtracts arrays
    # from a np.uint64 scalar into an out= row, and the cmrg output stage
    # stores each scaled block transposed into a uint32 slice of the output,
    # casting on assignment
    p1 = np.array([0, 5, _M1 - 1, 7], dtype=np.uint64)
    p2 = np.array([0, 9, 3, 7], dtype=np.uint64)
    d = np.empty(4, dtype=np.uint64)
    e = np.empty(4, dtype=np.uint64)
    np.subtract(p1, p2, out=d)
    np.add(d, _UM1, out=e)
    np.minimum(d, e, out=d)
    assert d.tolist() == [(a - b) % _M1 for a, b in zip(p1.tolist(), p2.tolist())]
    np.subtract(_UC1, p1, out=e)
    assert e.dtype == np.uint64 and e.tolist() == [int(_UC1) - v for v in p1.tolist()]
    block = np.array([[_M1 - 1, 1], [2, 3]], dtype=np.uint64)
    block <<= _U32
    block //= _UM1
    grid = np.zeros((2, 4), dtype=np.uint32)
    grid[:, 1:3] = block.T
    want = [[(v << 32) // _M1 for v in row] for row in ([_M1 - 1, 2], [1, 3])]
    assert grid.tolist() == [[0, *want[0], 0], [0, *want[1], 0]]


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


def test_bool_diff_marks_run_edges():
    # cli.write_pmf_csv splits the rows into runs of zero and nonzero
    # entries where np.diff of the padded nonzero mask is True
    nonzero = np.array([False, True, True, False, False, True])
    edges = np.diff(nonzero, prepend=False, append=False)
    assert edges.dtype == bool
    assert np.flatnonzero(edges).tolist() == [1, 3, 5, 6]


def test_keys_fromiter_float64_keeps_every_double_bit_pattern():
    # empirics._keys converts a list of plain floats with one np.fromiter
    # into float64 and reads the bits back through a uint64 view: every
    # double must arrive unchanged, signalling NaNs and -0.0 included
    rnd = random.Random(13)
    bits = [0, 1 << 63, 0x7FF0000000000000, 0x7FF0000000000001, 0x7FF4000000000000,
            0xFFF0000000000001, 0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000002,
            0x0000000000000001, *(rnd.getrandbits(64) for _ in range(2 ** 12))]
    values = np.array(bits, dtype=np.uint64).view(np.float64).tolist()
    got = np.fromiter(values, np.float64, count=len(values))
    assert got.dtype == np.float64
    assert got.view(np.uint64).tolist() == bits


def test_keys_fromiter_int64_refuses_ints_beyond_int64():
    # empirics._keys converts a list of plain ints with one np.fromiter into
    # int64 and sends it to the hash map on OverflowError (write_indexed_csv
    # then range-checks it); an int beyond int64 must raise it, never wrap
    edge = [-2 ** 63, -1, 0, 2 ** 63 - 1]
    assert np.fromiter(edge, np.int64, count=4).tolist() == edge
    for wide in (2 ** 63, -2 ** 63 - 1, 2 ** 64, 2 ** 200):
        with pytest.raises(OverflowError):
            np.fromiter([0, wide, 1], np.int64, count=3)
