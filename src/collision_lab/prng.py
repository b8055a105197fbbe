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
more (from a 32-bit family) concatenates two successive native outputs.
Identical GeneratorSpec values always yield bitwise-identical streams.
Each core returns exactly the words asked for, as a fresh array of its
native width (uint32 for mt19937 and cmrg, uint64 for splitcounter) that it
keeps no reference to, and keeps its own position, so ``KBitStream`` holds
no words between calls: it widens 32-bit words to uint64, or pairs two a
draw into a new uint64 array, and shifts the draws in place.  One SplitMix64
routine makes the splitcounter words, ``derive_seed`` (word ``index`` of
the base seed's splitcounter stream), ``seeds_from_base`` (that stream's
words, less repeats of a low 32-bit half) and the six MRG32k3a component
seeds; it mixes its output 2^15 words at a time, so each pass stays in
cache.

``KBitStream.take_keys`` is the one path from a core to sort keys, by one
rule for every family: preallocated keys (uint32 for k <= 32) filled 2^16
draws at a time, each block one ``take_kbits`` request.  Since every stream
is call-size-invariant, the blocks change no draw.

Building a core costs about 0.17 ms for mt19937 (init_genrand), 0.01 ms for
cmrg and 1 us for splitcounter.  A single word costs about 5 us from
mt19937, most of it ``randint``'s argument handling.  cmrg serves its
words from a buffer of at most 2^17 words (512 KB), filled by up to 4096
lanes that a matrix jump-ahead sets apart: a first request of 1 or 2 words
costs about 0.05 ms, one of 10^3 about 0.35 ms, a word already in the
buffer under 1 us, and 10^6 words about 10 ms (2-core x86-64).

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


def _splitmix64(seed: int, first: int, count: int) -> np.ndarray:
    """SplitMix64 words ``first`` .. ``first + count - 1`` of ``seed``: word j
    is seed + j * golden-ratio increment mod 2^64 through the bijective mixer
    of Steele, Lea & Flood (OOPSLA 2014).  Each block of _CACHE_WORDS words
    goes through the whole mixer before the next is started."""
    out = np.empty(count, dtype=np.uint64)
    t = np.empty(min(count, _CACHE_WORDS), dtype=np.uint64)
    for a in range(0, count, _CACHE_WORDS):
        z = out[a:a + _CACHE_WORDS]
        s = t[:z.size]
        # the mixer in place, wrapping mod 2^64
        np.add(_RAMP[:z.size], np.uint64((seed + (first + a) * _GOLDEN) & _MASK64), out=z)
        z ^= np.right_shift(z, _U30, out=s)
        z *= _MIX1
        z ^= np.right_shift(z, _U27, out=s)
        z *= _MIX2
        z ^= np.right_shift(z, _U31, out=s)
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


def _mat_pow(a, e, m):
    r = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    while e:
        if e & 1:
            r = _mat_mul(r, a, m)
        e >>= 1
        if e:
            a = _mat_mul(a, a, m)
    return r


# every constant the lane kernel mixes with its uint64 arrays is a uint64
# scalar, so each intermediate stays uint64 under numpy 1.x value-based
# casting and numpy 2 promotion alike
_U16, _U32, _LOW16 = np.uint64(16), np.uint64(32), np.uint64(0xFFFF)
_UM1, _UM2 = np.uint64(_M1), np.uint64(_M2)
_UA12, _UA13N, _UA21, _UA23N = (np.uint64(v) for v in (_A12, _A13N, _A21, _A23N))
_UC1, _UC2 = np.uint64(_M1 * _A13N), np.uint64(_M2 * _A23N)

# a fill of f words (a power of two) runs f / T lanes of T = min(_LANE_STEPS,
# f) steps, in blocks of _BLOCK_STEPS; fills stop growing at _FILL_CAP words
# (512 KB), 4096 lanes
_LANE_STEPS = 32
_BLOCK_STEPS = 8
_FILL_CAP = 1 << 17


def _doublings():
    """A^(T 2^i) for T = _LANE_STEPS and i = 0, 1, ...: round i of building
    a fill's lane starts, 12 rounds for a full fill."""
    out = [(_mat_pow(_MAT1, _LANE_STEPS, _M1), _mat_pow(_MAT2, _LANE_STEPS, _M2))]
    while _LANE_STEPS << len(out) < _FILL_CAP:
        a, b = out[-1]
        out.append((_mat_mul(a, a, _M1), _mat_mul(b, b, _M2)))
    return out


_DOUBLINGS = _doublings()
# A^(_FILL_CAP - T) carries a lane of one full fill, stepped T, to its start
# in the next
_NEXT_FILL = (_mat_pow(_MAT1, _FILL_CAP - _LANE_STEPS, _M1),
              _mat_pow(_MAT2, _FILL_CAP - _LANE_STEPS, _M2))


def _mod(x, m):
    """x mod m in place for a uint64 array x and uint64 scalar m: numpy
    divides by a scalar several times faster than it takes ``%``."""
    q = x // m
    q *= m
    x -= q
    return x


def _jump(j, x, m):
    """j @ x mod m for a 3x3 matrix j of ints below m < 2^32 and a (3, n)
    uint64 array x of values below m.  Split into 16-bit halves, j's rows
    make sums below 2^50, exact in uint64."""
    j = np.array(j, dtype=np.uint64)
    y = _mod(np.einsum("ij,jk->ik", j >> _U16, x), m)
    y <<= _U16
    y += np.einsum("ij,jk->ik", j & _LOW16, x)
    return _mod(y, m)


def _step_lanes(h1, h2, grid):
    """Step every lane ``grid.shape[1]`` times, writing lane r's words, scaled
    to 32 bits, into ``grid[r]``.

    ``h1`` and ``h2`` are (B + 3, lanes) uint64 windows whose rows 0..2 hold
    each lane's last three component states, and which end holding them
    again; a block of B steps fills rows 3..B+2.  The first component,
    s[n] = a12 s[n-2] - a13 s[n-3], reads no s[n-1], so it takes two steps a
    pass; the second, s[n] = a21 s[n-1] - a23 s[n-3], one, with the a23 terms
    of three steps made in one pass.  a12 s + m1 a13 - a13 s' < 2^54 and
    a21 s + m2 a23 - a23 s' < 2^53 stay exact in uint64 when the addition
    comes first, and each reduces by floor division.
    """
    steps = grid.shape[1]
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
        y1, y2 = h1[3:3 + k], h2[3:3 + k]
        # (p1 - p2) mod m1: the difference wraps below 0 exactly when m1 is due
        np.subtract(y1, y2, out=y2)
        np.add(y2, _UM1, out=y1)
        np.minimum(y2, y1, out=y2)
        # scale [0, m1) onto the 32-bit range: floor(z * 2^32 / m1)
        y2 <<= _U32
        y2 //= _UM1
        grid[:, a:a + k] = y2.T


class _Mrg32k3aCore:
    """MRG32k3a emitting the canonical output sequence, served from a
    buffer of its canonical uint32 words.

    ``_s1`` and ``_s2`` are the component states just past the buffer's
    last word.  A request takes the buffer's unread words and refills it as
    often as it needs.  The fill sizes follow from the first request alone:
    twice it, rounded up to a power of two, then twice the last fill, up to
    _FILL_CAP words (512 KB).  Later requests do not change them, and no
    fill size changes a word.

    A fill of f words runs ``lanes = f / T`` lanes of ``T = min(32, f)``
    steps: lane r starts at offset r*T, at state A^(rT) x0 (the substream
    jump-ahead of L'Ecuyer et al. 2002), so the lanes laid end to end are
    the canonical sequence, bit for bit.  The lane starts are built by
    doubling: with ``have`` starts built, A^(have*T) carries all of them to
    the next ``have`` (_DOUBLINGS), so a full fill's 4096 lanes take 12
    rounds.  A full fill after a full fill keeps the lanes instead: after T
    steps lane r sits where lane r + 1 started, and one jump by
    A^(_FILL_CAP - T) carries it to its start in the new fill.  The lanes
    step _BLOCK_STEPS steps at a time (_step_lanes), and the last lane's
    state after the fill is the state past the buffer.
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
        self._buf = np.empty(0, dtype=np.uint32)
        self._read = 0
        self._fill_size = 0      # set by the first request
        self._lanes = None       # a full fill's lane windows, kept for the next

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` words as uint32."""
        out = np.empty(count, dtype=np.uint32)
        if count and not self._fill_size:
            self._fill_size = min(2 << (count - 1).bit_length(), _FILL_CAP)
        done = 0
        while done < count:
            if self._read == self._buf.size:
                self._fill()
            n = min(count - done, self._buf.size - self._read)
            out[done:done + n] = self._buf[self._read:self._read + n]
            self._read += n
            done += n
        return out

    def _fill(self):
        f = self._fill_size
        steps = min(_LANE_STEPS, f)
        lanes = f // steps
        if self._lanes is None:
            # row i of window c holds state entry i of component c in every lane
            h1, h2 = (np.empty((min(_BLOCK_STEPS, steps) + 3, lanes), dtype=np.uint64)
                      for _ in range(2))
            h1[:3, 0], h2[:3, 0] = self._s1, self._s2
            have = 1
            for j1, j2 in _DOUBLINGS[:lanes.bit_length() - 1]:
                h1[:3, have:2 * have] = _jump(j1, h1[:3, :have], _UM1)
                h2[:3, have:2 * have] = _jump(j2, h2[:3, :have], _UM2)
                have *= 2
        else:
            h1, h2 = self._lanes
            h1[:3] = _jump(_NEXT_FILL[0], h1[:3], _UM1)
            h2[:3] = _jump(_NEXT_FILL[1], h2[:3], _UM2)
        if self._buf.size != f:
            self._buf = np.empty(f, dtype=np.uint32)
        _step_lanes(h1, h2, self._buf.reshape(lanes, steps))
        self._s1, self._s2 = h1[:3, -1].tolist(), h2[:3, -1].tolist()
        if f == _FILL_CAP:
            self._lanes = h1, h2
        self._read = 0
        self._fill_size = min(2 * f, _FILL_CAP)


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
        self._drawn += count
        return _splitmix64(self._seed, self._drawn - count + 1, count)


_CORES = {"mt19937": _Mt19937Core, "cmrg": _Mrg32k3aCore, "splitcounter": _SplitCounterCore}
FAMILIES = tuple(_CORES)


def _pairs(words: np.ndarray, nb: int) -> np.ndarray:
    """``words`` paired into draws ``words[2i] << nb | words[2i+1]``, as a new
    uint64 array filled _CACHE_WORDS draws at a time."""
    count = words.size // 2
    out = np.empty(count, dtype=np.uint64)
    for a in range(0, count, _CACHE_WORDS):
        b = min(a + _CACHE_WORDS, count)
        v = out[a:b]
        v[...] = words[2 * a:2 * b:2]
        v <<= np.uint64(nb)
        v |= words[2 * a + 1:2 * b:2]
    return out


# draws per take_kbits request in take_keys, which stay in cache
_KEY_BLOCK = 1 << 16


class KBitStream:
    """Stream of k-bit unsigned integers from one generator core.

    ``position`` counts emitted k-bit draws.  ``take_kbits`` and
    ``take_units`` produce one sequence whatever the call sizes: the core
    returns exactly the native words each call needs, so ``take_kbits(a)``
    then ``take_kbits(b)`` equals ``take_kbits(a + b)``.
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

    def take_kbits(self, count: int) -> np.ndarray:
        """Next ``count`` k-bit integers as a uint64 array; a count past the
        distinct-value cap raises CapacityError and leaves the stream as it was."""
        count = _capped_count(count)
        k = self.spec.output_bits
        nb = self._core.native_bits
        if k <= nb:
            # the core's array is fresh and ours alone: widened to uint64 if
            # narrower, and shifted in place
            vals = self._core.words(count).astype(np.uint64, copy=False)
            shift = nb - k
        else:
            # two native words per draw, the first supplying the high bits
            vals = _pairs(self._core.words(2 * count), nb)
            shift = 2 * nb - k
        if shift:
            vals >>= np.uint64(shift)
        self.position += count
        return vals

    def take_keys(self, count: int) -> np.ndarray:
        """Next ``count`` k-bit integers as sort keys that the caller owns and
        may sort in place: uint32 for k <= 32, otherwise uint64.

        A count past the distinct-value cap raises CapacityError before
        anything is allocated or drawn.  The keys are filled _KEY_BLOCK
        draws at a time, each block one ``take_kbits`` request.
        """
        count = _capped_count(count)
        keys = np.empty(count, dtype=np.uint32 if self.spec.output_bits <= 32 else np.uint64)
        for a in range(0, count, _KEY_BLOCK):
            keys[a:a + _KEY_BLOCK] = self.take_kbits(min(_KEY_BLOCK, count - a))
        return keys

    def take_units(self, count: int) -> np.ndarray:
        """Next ``count`` doubles in [0, 1], each k-bit draw / 2^k.

        The quotient is exact and below 1 for k <= 53.  For k >= 54 the
        draw is rounded to a double first, and every v >= 2^k - 2^(k-54)
        rounds to exactly 1.0.
        """
        return self.take_kbits(count).astype(np.float64) * self._unit_scale


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
