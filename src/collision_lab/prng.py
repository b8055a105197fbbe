"""Deterministic k-bit integer streams.

Three families:

* ``mt19937`` -- the standard Mersenne Twister: numpy's legacy
  ``RandomState``, seeded by the classic Knuth-multiplier init_genrand and
  drawn as ``randint(0, 2^32)``, one raw word each.  Native output is 32 bits.
* ``cmrg`` -- L'Ecuyer's combined multiple recursive generator MRG32k3a
  with the published parameters; the native value in [0, m1) is reduced
  to 32 bits by scaling.
* ``splitcounter`` -- a SplitMix64 counter mixer, native 64 bits, for
  experiments where concatenating 32-bit words is awkward.

Requesting fewer than the native bits truncates to the top bits; requesting
more (from a 32-bit family) concatenates two successive native outputs, the
first high.  Identical GeneratorSpec values always yield bitwise-identical
streams.  Each core makes the k-bit draws of a request itself, in
cache-sized blocks, into a fresh array of the dtype asked for (uint32 or
uint64) that it keeps no reference to: mt19937 shifts ``randint``'s uint32
words in place, and above 32 bits pairs them 2^15 draws at a time; the
SplitMix64 mixer stores each block shifted and narrowed; cmrg scales each
block of its lanes and shifts or pairs it straight into the output.  One
SplitMix64 routine makes the splitcounter draws, ``derive_seed`` (word
``index`` of the base seed's splitcounter stream), ``seeds_from_base`` (that
stream's words, less repeats of a low 32-bit half) and the six MRG32k3a
component seeds.

``KBitStream.take_keys`` is the one path from a core to sort keys, by one
rule for every family: one ``take_kbits`` request of the key dtype, uint32
for k <= 32 and otherwise uint64, so no draw is widened to be narrowed.

Building a core costs about 0.17 ms for mt19937 (init_genrand), 0.01 ms for
cmrg and 1 us for splitcounter.  A single word costs about 5 us from
mt19937, most of it ``randint``'s argument handling.  Every cmrg request
steps lanes of at least 16 steps: a first request of 1 or 2 words costs
about 0.14 ms, one of 130 about 0.18 ms, of 10^3 about 0.22 ms and of 10^4
about 0.37 ms; a word that the words kept from the last request cover
costs about 1 us, so one-draw calls average about 11 us a draw at 32 bits
and 24 us at 40; and 10^6 words take about 9 ms (2-core x86-64).  No caller
makes requests that small: each stream is drawn by one ``take_keys`` call.

``sample_ints`` is the one uniform-integer sampler: rejection on
ceil(log2 n)-bit patterns for 1 <= n < 2^64, drawing in each round at
most one pattern per value still wanted, so it takes exactly the draws its
accepted values need and calls of any size interleave.

``take_kbits``, ``take_keys``, ``sample_ints`` and ``seeds_from_base`` state
their cost as the count of values they hold at once, and refuse one past
the distinct-value budget (``errors.within_budget``) before they draw or
allocate.

Streams are single-owner mutable state: move them between threads, never
share one.  Multi-seed runs take one seed per stream from
``seeds_from_base``, whose seeds differ in their low 32 bits, the part
``mt19937`` reads, so no two streams of a run are one stream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import exact_index, exact_int, within_budget

__all__ = [
    "DEFAULT_MAX_DISTINCT",
    "FAMILIES",
    "GeneratorSpec",
    "KBitStream",
    "MAX_DISTINCT_ENV",
    "derive_seed",
    "sample_ints",
    "seeds_from_base",
]

DEFAULT_MAX_DISTINCT = 10 ** 8
MAX_DISTINCT_ENV = "COLLISION_LAB_MAX_DISTINCT"

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

# uint64 words per pass of whole-array work: 256 KB, which stays in cache
_CACHE_WORDS = 1 << 15


def _capped_count(count) -> int:
    """``count`` as an int >= 0 (``exact_index``), refused when holding that
    many values at once exceeds the distinct-value budget."""
    count = exact_index("count", count)
    env = os.environ.get(MAX_DISTINCT_ENV)
    try:
        cap = exact_index(MAX_DISTINCT_ENV, exact_int(env), 1) if env else DEFAULT_MAX_DISTINCT
    except ValueError:
        raise ValueError(
            f"{MAX_DISTINCT_ENV} must be a positive exact integer, got {env!r}") from None
    within_budget("holding the draws", count, "values at once", cap,
                  f"count ({MAX_DISTINCT_ENV} sets the budget)")
    return count


# j * golden-ratio increment mod 2^64 for j in 0 .. _CACHE_WORDS - 1
_RAMP = np.arange(_CACHE_WORDS, dtype=np.uint64)
_RAMP *= np.uint64(_GOLDEN)
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_U27, _U30, _U31 = np.uint64(27), np.uint64(30), np.uint64(31)


def _splitmix64(seed: int, first: int, count: int, shift: int = 0,
                dtype=np.uint64) -> np.ndarray:
    """SplitMix64 words ``first`` .. ``first + count - 1`` of ``seed``, each
    shifted right by ``shift``, as a new ``dtype`` array: word j is
    seed + j * golden-ratio increment mod 2^64 through the bijective mixer
    of Steele, Lea & Flood (OOPSLA 2014).  Each block of _CACHE_WORDS words
    goes through the whole mixer, and is stored shifted and narrowed,
    before the next is started."""
    out = np.empty(count, dtype=dtype)
    t = np.empty(min(count, _CACHE_WORDS), dtype=np.uint64)
    # a uint64 output is mixed in place, a narrower one in scratch
    narrow = None if out.dtype == np.uint64 else np.empty_like(t)
    for a in range(0, count, _CACHE_WORDS):
        o = out[a:a + _CACHE_WORDS]
        z = o if narrow is None else narrow[:o.size]
        s = t[:o.size]
        # the mixer, wrapping mod 2^64
        np.add(_RAMP[:z.size], np.uint64((seed + (first + a) * _GOLDEN) & _MASK64), out=z)
        z ^= np.right_shift(z, _U30, out=s)
        z *= _MIX1
        z ^= np.right_shift(z, _U27, out=s)
        z *= _MIX2
        z ^= np.right_shift(z, _U31, out=s)
        if shift:
            z >>= np.uint64(shift)
        if z is not o:
            o[...] = z
    return out


def derive_seed(base_seed: int, index: int) -> int:
    """Seed of stream ``index`` >= 0 derived from ``base_seed`` in 0..2^64-1:
    base + (index+1) * golden-ratio increment through the SplitMix64 mixer,
    word ``index`` of ``splitcounter:base_seed:64``.  Distinct indices give
    unrelated seeds."""
    base_seed = exact_index("base_seed", base_seed, 0, _MASK64)
    return int(_splitmix64(base_seed, exact_index("index", index) + 1, 1)[0])


def seeds_from_base(base_seed: int, count: int) -> list:
    """``count`` >= 0 stream seeds as ints, ``base_seed`` in 0..2^64-1: the
    words of ``splitcounter:base_seed:64`` (``derive_seed(base_seed, i)`` for
    i = 0, 1, ...) in order, skipping each word whose low 32 bits repeat an
    earlier word's.  ``mt19937`` reads only those bits, so two seeds that
    share them would give one stream twice.  About one base in 86 has such
    a repeat among 10^4 seeds; a run without one takes exactly the first
    ``count`` words.
    A count past the distinct-value budget raises CapacityError, and one
    past 2^32, which no set of distinct low halves reaches, DomainError."""
    base_seed = exact_index("base_seed", base_seed, 0, _MASK64)
    count = exact_index("count", _capped_count(count), 0, 1 << 32)
    seeds, drawn = _splitmix64(base_seed, 1, count), count
    while True:
        # the first word with each low half, in draw order
        first = np.unique(seeds & np.uint64(_MASK32), return_index=True)[1]
        if first.size == count:
            return seeds.tolist()
        first.sort()
        more = count - first.size
        seeds = np.concatenate([seeds[first], _splitmix64(base_seed, drawn + 1, more)])
        drawn += more


@dataclass(frozen=True)
class GeneratorSpec:
    """Family, seed and output width of one deterministic stream."""

    family: str
    seed: int
    output_bits: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown generator family {self.family!r}; "
                             f"expected one of {FAMILIES}")
        object.__setattr__(self, "seed", exact_index("seed", self.seed, 0, _MASK64))
        object.__setattr__(self, "output_bits",
                           exact_index("output_bits", self.output_bits, 1, 64))

    @classmethod
    def parse(cls, text: str) -> "GeneratorSpec":
        """The spec written ``family:seed:bits``; seed and bits also take
        exact_int's forms ('1e3')."""
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"generator spec must be family:seed:bits, got {text!r}")
        family, seed, bits = parts
        return cls(family=family, seed=exact_int(seed), output_bits=exact_int(bits))


# --------------------------------------------------------------------------
# k-bit draws from 32-bit words


def _draws(words, per, shift, dtype):
    """Draws of ``per`` (1 or 2) uint32 words each, the first high, shifted
    right by ``shift``, as a new ``dtype`` array."""
    if per == 1:
        out = words.astype(dtype)
        if shift:
            out >>= out.dtype.type(shift)
        return out
    return _pair(words[0::2].astype(np.uint64), words[1::2], shift)


def _pair(hi, lo, shift):
    """Two-word draws ``(hi << 32 | lo) >> shift`` in place in the uint64
    array ``hi``, whose values are the first words, below 2^32."""
    hi <<= _U32
    hi |= lo
    if shift:
        hi >>= np.uint64(shift)
    return hi


# --------------------------------------------------------------------------
# MT19937


class _Mt19937Core:
    """numpy's legacy RandomState, whose MT19937 is seeded by init_genrand."""

    native_bits = 32

    def __init__(self, seed: int):
        # the 64-bit seed field is reduced to its low 32 bits
        self._rs = np.random.RandomState(seed & _MASK32)

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` raw 32-bit words as uint32."""
        return self._rs.randint(0, 1 << 32, size=count, dtype=np.uint32)

    def kbits(self, count: int, k: int, dtype) -> np.ndarray:
        """The next ``count`` k-bit draws as a new ``dtype`` array: the top k
        bits of one word, or above 32 bits of two, paired _CACHE_WORDS draws
        at a time."""
        if k <= 32:
            out = self.words(count)
            if k < 32:
                out >>= np.uint32(32 - k)
            return out.astype(dtype, copy=False)
        out = np.empty(count, dtype=np.uint64)
        for a in range(0, count, _CACHE_WORDS):
            v = out[a:a + _CACHE_WORDS]
            w = self.words(2 * v.size)
            v[...] = w[0::2]
            _pair(v, w[1::2], 64 - k)
        return out


# --------------------------------------------------------------------------
# MRG32k3a (L'Ecuyer's combined MRG)

_M1 = 4294967087          # 2^32 - 209
_M2 = 4294944443          # 2^32 - 22853
_A12, _A13N = 1403580, 810728
_A21, _A23N = 527612, 1370589

# companion matrices acting on the column state (s[n-3], s[n-2], s[n-1])
_MAT1 = ((0, 1, 0), (0, 0, 1), ((_M1 - _A13N) % _M1, _A12, 0))
_MAT2 = ((0, 1, 0), (0, 0, 1), ((_M2 - _A23N) % _M2, 0, _A21))


def _mat_mul(a, b, m):
    cols = tuple(zip(*b))
    return tuple(tuple((r0 * c0 + r1 * c1 + r2 * c2) % m for c0, c1, c2 in cols)
                 for r0, r1, r2 in a)


# every constant the lane kernel mixes with its uint64 arrays is a uint64
# scalar, so each intermediate stays uint64 under numpy 1.x value-based
# casting and numpy 2 promotion alike
_U16, _U32, _LOW16 = np.uint64(16), np.uint64(32), np.uint64(0xFFFF)
_UM1, _UM2 = np.uint64(_M1), np.uint64(_M2)
_UA12, _UA13N, _UA21, _UA23N = (np.uint64(v) for v in (_A12, _A13N, _A21, _A23N))
_UC1, _UC2 = np.uint64(_M1 * _A13N), np.uint64(_M2 * _A23N)

# a request's w fresh words are laid over ceil(w / T) <= _MAX_LANES lanes of
# T steps end to end, T the least power of two >= _BLOCK_STEPS that allows
# it, stepped _BLOCK_STEPS steps at a time
_MAX_LANES = 1 << 12
_BLOCK_STEPS = 16


def _powers(mat, m):
    """A^(2^i) for i = 0 .. 63 as a (64, 3, 3) uint64 array: A^(T have)
    carries the first ``have`` lane starts of T steps to the next ``have``."""
    out = [mat]
    while len(out) < 64:
        out.append(_mat_mul(out[-1], out[-1], m))
    return np.array(out, dtype=np.uint64)


_POWERS = _powers(_MAT1, _M1), _powers(_MAT2, _M2)


def _mod(x, m):
    """x mod m in place for a uint64 array x and uint64 scalar m: numpy
    divides by a scalar several times faster than it takes ``%``."""
    q = x // m
    q *= m
    x -= q
    return x


def _halves(j):
    """(3, r) matrices of ints below 2^32 as (3, 2r) uint64 arrays, each
    matrix's high 16-bit halves beside its low ones."""
    j = np.asarray(j, dtype=np.uint64)
    return np.concatenate([j >> _U16, j & _LOW16], axis=-1)


def _jump(x, j, m):
    """x @ j mod m for an (n, 3) uint64 array x of values below m < 2^32
    and a (3, r) matrix j given in halves (_halves), as an (n, r) view: each
    half makes sums below 2^50, exact in uint64."""
    r = j.shape[1] // 2
    y = np.einsum("ij,jk->ik", x, j)
    hi = _mod(y[:, :r], m)
    hi <<= _U16
    hi += y[:, r:]
    return _mod(hi, m)


# lane starts are rows, and s @ (A^(2^i))^T is the start A^(2^i) s
_STARTS = tuple(_halves(powers.transpose(0, 2, 1)) for powers in _POWERS)


def _scaled(p1, p2):
    """The output of component values p1 < m1 and p2 < m2, arrays of one
    shape: (p1 - p2) mod m1 scaled to 32 bits, floor(z * 2^32 / m1), made in
    p2; p1 is overwritten."""
    # the difference wraps below 0 exactly when m1 is due
    np.subtract(p1, p2, out=p2)
    np.add(p2, _UM1, out=p1)
    np.minimum(p2, p1, out=p2)
    p2 <<= _U32
    p2 //= _UM1
    return p2


def _step_lanes(h1, h2, steps):
    """Step every lane ``steps`` times, yielding (a, w) per block of B
    steps: w[i, r] is lane r's word a + i, scaled to 32 bits (_scaled), in a
    (B, lanes) uint64 view that the next block overwrites.

    ``h1`` and ``h2`` are (B + 3, lanes) uint64 windows whose rows 0..2 hold
    each lane's last three component states, and which end holding them
    again; a block fills rows 3..B+2.  The first component,
    s[n] = a12 s[n-2] - a13 s[n-3], reads no s[n-1], so it takes two steps a
    pass; the second, s[n] = a21 s[n-1] - a23 s[n-3], one, with the a23 terms
    of three steps made in one pass.  a12 s + m1 a13 - a13 s' < 2^54 and
    a21 s + m2 a23 - a23 s' < 2^53 stay exact in uint64 when the addition
    comes first, and each reduces by floor division.
    """
    room = h1.shape[0] - 3
    t = np.empty((3, h1.shape[1]), dtype=np.uint64)
    for a in range(0, steps, room):
        k = min(room, steps - a)
        for n in range(3, 3 + k, 2):
            e = min(n + 2, 3 + k)
            h, u = h1[n:e], t[:e - n]
            np.multiply(h1[n - 3:e - 3], _UA13N, out=u)
            np.multiply(h1[n - 2:e - 2], _UA12, out=h)
            h += _UC1
            h -= u
            np.floor_divide(h, _UM1, out=u)
            u *= _UM1
            h -= u
        for n in range(3, 3 + k, 3):
            e = min(n + 3, 3 + k)
            c = t[:e - n]
            np.multiply(h2[n - 3:e - 3], _UA23N, out=c)
            np.subtract(_UC2, c, out=c)
            for i, q in zip(range(n, e), c):
                h = h2[i]
                np.multiply(h2[i - 1], _UA21, out=h)
                h += q
                np.floor_divide(h, _UM2, out=q)
                q *= _UM2
                h -= q
        # keep the last three states, then make the block's words in place
        h1[:3], h2[:3] = h1[k:k + 3], h2[k:k + 3]
        yield a, _scaled(h1[3:3 + k], h2[3:3 + k])


class _Mrg32k3aCore:
    """MRG32k3a emitting the canonical output sequence.

    A request's draws are made straight into its output array.  It first
    takes the words kept from the last request; its w fresh words are laid
    over ``lanes = ceil(w / T)`` lanes of T steps end to end, T the least
    power of two >= 16 that keeps them to 4096 lanes.  Lane r starts at
    offset r*T, at state A^(rT) x0 (the substream jump-ahead of L'Ecuyer,
    Simard, Chen & Kelton, Oper. Res. 50(6), 2002), so the lanes together
    are the canonical sequence, bit for bit.  The lane starts are built by
    doubling: with ``have`` starts built, A^(T have), a power of two from
    the precomputed _POWERS, carries them to the next ``have``, so 4096
    lanes take 12 rounds.  The lanes step together _BLOCK_STEPS steps at
    a time (_step_lanes), and each block of scaled words is shifted, or
    above 32 bits paired, straight into the output.

    Only the last lane's words past the request, fewer than T, are kept
    (``_tail``) to start the next one, and ``_s1`` and ``_s2`` are the
    component states past them.  So no word is stepped twice, at most
    T - 1 are stepped past a stream's end, and a request the kept words
    cover is served by a slice.
    """

    native_bits = 32

    def __init__(self, seed: int):
        # six component seeds in [1, m-1]: the seed's first six derived seeds
        raw = _splitmix64(seed, 1, 6).tolist()
        self._init_state([v % (_M1 - 1) + 1 for v in raw[:3]],
                         [v % (_M2 - 1) + 1 for v in raw[3:]])

    @classmethod
    def from_state(cls, s1, s2):
        """Construct from raw component states (validation vectors)."""
        core = cls.__new__(cls)
        core._init_state(s1, s2)
        return core

    def _init_state(self, s1, s2):
        if len(s1) != 3 or len(s2) != 3:
            raise ValueError("each component state needs exactly 3 values")
        self._s1 = [exact_index("first component state", v, 0, _M1 - 1) for v in s1]
        self._s2 = [exact_index("second component state", v, 0, _M2 - 1) for v in s2]
        if not any(self._s1) or not any(self._s2):
            raise ValueError("neither component state may be all zero")
        self._tail = np.empty(0, dtype=np.uint32)

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` words as uint32."""
        return self.kbits(count, 32, np.uint32)

    def kbits(self, count: int, k: int, dtype) -> np.ndarray:
        """The next ``count`` k-bit draws as a new ``dtype`` array: the top k
        bits of one word, or above 32 bits of two, the first high."""
        per = 1 if k <= 32 else 2
        shift = 32 * per - k
        if per == 2 and self._tail.size % 2:
            # an odd words() call left half a draw kept: pair the words
            return _draws(self.words(2 * count), 2, shift, dtype)
        done = min(count, self._tail.size // per)     # draws the kept words hold
        if done == count:
            head, self._tail = self._tail[:per * done], self._tail[per * done:]
            return _draws(head, per, shift, dtype)
        out = np.empty(count, dtype=dtype)
        if done:
            out[:done] = _draws(self._tail[:per * done], per, shift, dtype)
        words = per * (count - done)
        steps = max(_BLOCK_STEPS, 1 << (-(-words // _MAX_LANES) - 1).bit_length())
        lanes = -(-words // steps)
        full = words // steps      # lanes that end inside the request
        at = done + full * steps // per
        grid = out[done:at].reshape(full, steps // per)
        tail = np.empty(steps if full < lanes else 0, dtype=np.uint32)
        for a, w in self._lanes(steps, lanes):
            b = a + w.shape[0]
            if tail.size:
                tail[a:b] = w[:, -1]
            if per == 1:
                if shift:
                    w >>= np.uint64(shift)
                grid[:, a:b] = w[:, :full].T
            else:
                hi = _pair(w[0::2], w[1::2], shift)
                grid[:, a // 2:b // 2] = hi[:, :full].T
        rest = per * (count - at)
        out[at:] = _draws(tail[:rest], per, shift, dtype)
        self._tail = tail[rest:]
        return out

    def _lanes(self, steps, lanes):
        """Lay ``lanes`` lanes of ``steps`` steps end to end from the core's
        state and yield their words block by block (_step_lanes).  The
        core's state ends past the last lane."""
        # row i of window c holds state entry i of component c in every lane
        h1, h2 = (np.empty((3 + _BLOCK_STEPS, lanes), dtype=np.uint64) for _ in range(2))
        h1[:3, 0], h2[:3, 0] = self._s1, self._s2
        have, i = 1, steps.bit_length() - 1
        while have < lanes:
            n = min(have, lanes - have)
            h1[:3, have:have + n] = _jump(h1[:3, :n].T, _STARTS[0][i], _UM1).T
            h2[:3, have:have + n] = _jump(h2[:3, :n].T, _STARTS[1][i], _UM2).T
            have += n
            i += 1
        yield from _step_lanes(h1, h2, steps)
        self._s1, self._s2 = h1[:3, -1].tolist(), h2[:3, -1].tolist()


# --------------------------------------------------------------------------
# SplitCounter


class _SplitCounterCore:
    """Counter through the SplitMix64 mixer; native 64-bit output."""

    native_bits = 64

    def __init__(self, seed: int):
        self._seed = seed
        self._drawn = 0

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` words as uint64."""
        return self.kbits(count, 64, np.uint64)

    def kbits(self, count: int, k: int, dtype) -> np.ndarray:
        """The next ``count`` k-bit draws, each a word's top k bits, as a new
        ``dtype`` array."""
        self._drawn += count
        return _splitmix64(self._seed, self._drawn - count + 1, count, 64 - k, dtype)


_CORES = {"mt19937": _Mt19937Core, "cmrg": _Mrg32k3aCore, "splitcounter": _SplitCounterCore}
FAMILIES = tuple(_CORES)


class KBitStream:
    """Stream of k-bit unsigned integers from one generator core.

    ``position`` counts emitted k-bit draws.  ``take_kbits`` and
    ``take_units`` produce one sequence whatever the call sizes: the core
    makes exactly the draws each call asks for, so ``take_kbits(a)`` then
    ``take_kbits(b)`` equals ``take_kbits(a + b)``.
    """

    def __init__(self, spec: GeneratorSpec):
        self.spec = spec
        self._core = _CORES[spec.family](spec.seed)
        self.position = 0
        self._unit_scale = 2.0 ** -spec.output_bits

    @property
    def unit_map_injective(self) -> bool:
        """True when distinct k-bit integers map to distinct unit doubles.

        Conservative at k = 53: ``v / 2^53`` is still exact there, but the flag
        reads True only up to k = 52.
        """
        return self.spec.output_bits <= 52

    def take_kbits(self, count: int, dtype=np.uint64) -> np.ndarray:
        """Next ``count`` k-bit integers as a new array of ``dtype``, uint64 or
        (for k <= 32) uint32, that the caller owns.  A count past the
        distinct-value cap raises CapacityError and leaves the stream as it
        was."""
        count = _capped_count(count)
        k = self.spec.output_bits
        dtype = np.dtype(dtype)
        if dtype != np.uint64 and (dtype != np.uint32 or k > 32):
            raise ValueError(f"{k}-bit draws come as uint64 or, up to 32 bits, "
                             f"uint32, not {dtype}")
        vals = self._core.kbits(count, k, dtype)
        self.position += count
        return vals

    def take_keys(self, count: int) -> np.ndarray:
        """Next ``count`` k-bit integers as sort keys that the caller owns and
        may sort in place: uint32 for k <= 32, otherwise uint64, made by one
        ``take_kbits`` request.  A count past the distinct-value cap raises
        CapacityError before anything is allocated or drawn."""
        return self.take_kbits(count, np.uint32 if self.spec.output_bits <= 32 else np.uint64)

    def take_units(self, count: int) -> np.ndarray:
        """Next ``count`` doubles in [0, 1], each k-bit draw / 2^k.

        The quotient is exact and below 1 for k <= 53.  For k >= 54 the
        draw is rounded to a double first, and every v >= 2^k - 2^(k-54)
        rounds to exactly 1.0.
        """
        return self.take_keys(count).astype(np.float64) * self._unit_scale


# rejected patterns in a row after which the sampler gives up; a working
# stream rejects fewer than half its patterns, so only a broken one gets here
_MAX_REJECTIONS = 10 ** 6


def sample_ints(stream: KBitStream, n: int, count: int) -> np.ndarray:
    """``count`` uniform integers in {1..n}, 1 <= n < 2^64, by rejection on
    ceil(log2 n)-bit patterns.

    A pattern is the top bits of the stream's draws (several draws are
    combined when it is wider than the stream).  A pattern p is accepted
    iff p <= n-1 and then shifted to p+1, which is exactly uniform.  Each
    round draws at most one pattern per value still wanted, in at most 2^22
    draws, so no pattern past the last accepted one is drawn: the stream
    ends exactly where ``count`` one-value calls leave it, and calls of any
    size interleave.  n = 1 draws nothing.  A count past the distinct-value
    cap raises CapacityError before anything is drawn.  A stream that yields
    _MAX_REJECTIONS rejected patterns in a row at the end of a round raises
    RuntimeError.
    """
    n = exact_index("n", n, 1, _MASK64)
    count = _capped_count(count)
    out = np.empty(count, dtype=np.uint64)
    if n == 1:
        out.fill(1)
        return out
    m = (n - 1).bit_length()
    k = stream.spec.output_bits
    draws_per_pattern = -(-m // k)
    # the last draw supplies only the top bits the pattern still needs, so
    # no value holds more than m <= 64 bits
    last = m - (draws_per_pattern - 1) * k
    filled = rejections = 0
    while filled < count:
        # a round of `batch` patterns accepts at most `batch` of them; its
        # 2^22-draw bound keeps memory flat however wide a pattern is
        batch = min(count - filled, (1 << 22) // draws_per_pattern)
        words = stream.take_kbits(batch * draws_per_pattern)
        words = words.reshape(batch, draws_per_pattern)
        v = words[:, -1] >> np.uint64(k - last)
        for col in range(draws_per_pattern - 1):
            v |= words[:, col] << np.uint64(m - (col + 1) * k)
        ok = v <= n - 1
        good = v[ok]
        # the round's trailing rejections extend the run the last round left
        rejections = int(ok[::-1].argmax()) if good.size else rejections + batch
        if rejections >= _MAX_REJECTIONS:
            raise RuntimeError(f"rejection sampler rejected {rejections} patterns "
                               f"in a row for n={n}; the generator looks broken")
        out[filled:filled + good.size] = good + np.uint64(1)
        filled += good.size
    return out
