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
Each core returns exactly the words asked for, as a fresh uint64 array that
it keeps no reference to, and keeps its own position, so ``KBitStream``
holds no words between calls and may shift them in place.  One SplitMix64
routine makes the splitcounter words, ``derive_seed`` (word ``index`` of
the base seed's splitcounter stream), ``seeds_from_base`` (that stream's
words, less repeats of a low 32-bit half) and the six MRG32k3a component
seeds; it mixes its output 2^15 words at a time, so each pass stays in
cache.

``KBitStream.take_keys`` is the one path from a core to sort keys, by one
rule: a count within the core's ``key_block`` (2^16 draws; 2^20 for
cmrg, where its lanes reach their cap) is one ``take_kbits`` request,
narrowed to uint32 over its own buffer for k <= 32, and a larger one
fills preallocated keys block by block.  Since every stream is
call-size-invariant, the blocks change no draw.

Building a core costs about 0.15 ms for mt19937 (init_genrand), 0.02 ms for
cmrg and 1 us for splitcounter.  A single word costs about 9 us from
mt19937, most of it ``randint``'s argument handling, and 0.05 ms from cmrg,
which splits every request into up to 8192 lanes by matrix jump-ahead,
built by doubling; 10^3 cmrg words take about 0.5 ms and 10^6 about 16 ms,
and from 2 to about 100 words a request costs 0.2-0.4 ms, nearly all of it
lane setup (2-core x86-64).

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

import math
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
    # draws per take_kbits request in take_keys, which stay in cache
    key_block = 1 << 16

    def __init__(self, seed: int):
        # the 64-bit seed field is reduced to its low 32 bits
        self._rs = np.random.RandomState(seed & _MASK32)

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` words as uint64, one raw 32-bit word each."""
        return self._rs.randint(0, 1 << 32, size=count, dtype=np.uint64)


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

# lanes = min(_LANE_CAP, 8*isqrt(count), count); each step's words go to a
# step-major block of _BLOCK_STEPS rows, copied into the output when full
_LANE_CAP = 8192
_BLOCK_STEPS = 16


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
    y = _mod((j >> _U16) @ x, m)
    y <<= _U16
    y += (j & _LOW16) @ x
    return _mod(y, m)


class _Mrg32k3aCore:
    """MRG32k3a emitting the canonical output sequence.

    The state is always the scalar pair of component states.  Every
    request of ``count`` words splits its stretch of the sequence into
    ``lanes = min(8192, 8*isqrt(count), count)`` lanes of
    ``T = ceil(count / lanes)`` steps (then ``lanes = ceil(count / T)``, so
    the last lane is not empty): lane r starts at offset r*T, at state
    A^(rT) x0 (the substream jump-ahead of L'Ecuyer et al. 2002).  The lane
    starts are built by doubling: with ``have`` starts built, the matrix
    A^(have*T) carries all of them to the next ``have``, so 8192 lanes take
    13 rounds of whole-array work.  All lanes then step the one-step
    recurrence together, reducing by floor division, and the lanes laid end
    to end are the canonical sequence, bit for bit.  Word ``count`` falls
    in the last lane, so the state after the call is read from that lane at
    that step: A^count x0, the position just past the words returned.  The
    unscaled outputs go through a 16-step block into the output, which is
    scaled to 32 bits once, in place, after the last step.
    """

    native_bits = 32
    # the smallest request whose lanes are capped: no more steps per word
    key_block = (_LANE_CAP // 8) ** 2

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

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` words as uint64."""
        if count == 0:
            return np.empty(0, dtype=np.uint64)
        lanes = min(_LANE_CAP, 8 * math.isqrt(count), count)
        steps = -(-count // lanes)
        lanes = -(-count // steps)
        # word `count` is step `last` of the last lane, in [1, steps]
        last = count - (lanes - 1) * steps
        # row i holds state entry i of every lane
        x1 = np.empty((3, lanes), dtype=np.uint64)
        x2 = np.empty((3, lanes), dtype=np.uint64)
        x1[:, 0], x2[:, 0] = self._s1, self._s2
        have = 1
        if lanes > 1:
            jump1 = _mat_pow(_MAT1, steps, _M1)
            jump2 = _mat_pow(_MAT2, steps, _M2)
        while have < lanes:
            # lane have + i starts have*T steps after lane i
            n = min(have, lanes - have)
            x1[:, have:have + n] = _jump(jump1, x1[:, :n], _UM1)
            x2[:, have:have + n] = _jump(jump2, x2[:, :n], _UM2)
            have += n
            if have < lanes:
                jump1 = _mat_mul(jump1, jump1, _M1)
                jump2 = _mat_mul(jump2, jump2, _M2)
        x1, x2 = list(x1), list(x2)
        out = np.empty((lanes, steps), dtype=np.uint64)
        block = np.empty((_BLOCK_STEPS, lanes), dtype=np.uint64)
        for t in range(steps):
            # a12*s1 + m1*a13 - a13*s0 < 2^54 and a21*s2 + m2*a23 - a23*s0
            # < 2^53 stay exact in uint64 when the addition comes first
            p1 = x1[1] * _UA12
            p1 += _UC1
            p1 -= x1[0] * _UA13N
            p2 = x2[2] * _UA21
            p2 += _UC2
            p2 -= x2[0] * _UA23N
            x1 = [x1[1], x1[2], _mod(p1, _UM1)]
            x2 = [x2[1], x2[2], _mod(p2, _UM2)]
            row = t % _BLOCK_STEPS
            z = np.add(p1, _UM1, out=block[row])
            z -= p2
            _mod(z, _UM1)
            if row == _BLOCK_STEPS - 1 or t == steps - 1:
                out[:, t - row:t + 1] = block[:row + 1].T
            if t + 1 == last:
                self._s1 = [int(v[-1]) for v in x1]
                self._s2 = [int(v[-1]) for v in x2]
        # scale [0, m1) onto the 32-bit range: floor(z * 2^32 / m1)
        out <<= _U32
        out //= _UM1
        # flattened in place to exactly `count` words, dropping the last
        # lane's padding, so the array returned owns its buffer
        out.resize(count, refcheck=False)
        return out


# --------------------------------------------------------------------------
# SplitCounter


class _SplitCounterCore:
    """Counter through the SplitMix64 mixer; native 64-bit output."""

    native_bits = 64
    key_block = 1 << 16

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
    """``words`` paired into draws ``words[2i] << nb | words[2i+1]``, written
    over the front half of ``words`` and returned as a view of it, which
    keeps the whole buffer.  A block's pairs are made before they are
    stored, and they land where the words of earlier blocks were."""
    count = words.size // 2
    for a in range(0, count, _CACHE_WORDS):
        b = min(a + _CACHE_WORDS, count)
        words[a:b] = (words[2 * a:2 * b:2] << np.uint64(nb)) | words[2 * a + 1:2 * b:2]
    return words[:count]


def _narrowed(vals: np.ndarray) -> np.ndarray:
    """uint64 values below 2^32 as uint32, written over the front of their
    own buffer: a block is narrowed before it is stored, and it lands where
    earlier blocks were read."""
    keys = vals.view(np.uint32)[:vals.size]
    for a in range(0, vals.size, _CACHE_WORDS):
        keys[a:a + _CACHE_WORDS] = vals[a:a + _CACHE_WORDS].astype(np.uint32)
    return keys


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
            # the core's array is fresh and ours alone: shift it in place
            vals = self._core.words(count)
            shift = nb - k
        else:
            # two native words per draw, the first supplying the high bits,
            # paired over the front of their own buffer
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
        anything is allocated or drawn.  A count within the core's
        ``key_block`` is one ``take_kbits`` request, narrowed in its own
        buffer for k <= 32, so no second array is made beside it; a
        larger count fills preallocated keys block by block.
        """
        count = _capped_count(count)
        narrow = self.spec.output_bits <= 32
        block = self._core.key_block
        if count <= block:
            vals = self.take_kbits(count)
            return _narrowed(vals) if narrow else vals
        keys = np.empty(count, dtype=np.uint32 if narrow else np.uint64)
        for a in range(0, count, block):
            keys[a:a + block] = self.take_kbits(min(block, count - a))
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
