"""Deterministic k-bit integer streams.

Three families:

* ``mt19937`` -- the standard Mersenne Twister: numpy's ``MT19937`` bit
  generator in the state of the classic Knuth-multiplier initialization
  (init_genrand, as numpy's legacy ``RandomState`` seeds it).  Native
  output is 32 bits.
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
holds no words between calls and may shift them in place.  The MRG32k3a
core's state is always its scalar pair of component states; a large request
splits into lanes, lane r starting at offset r*T by matrix jump-ahead and
stepping the one-step recurrence, and its output is an exact reproduction of
that recurrence (tested against a scalar reference).

Streams are single-owner mutable state: move them between threads, never
share one.  Multi-seed runs derive one seed per stream via ``derive_seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "FAMILIES",
    "GeneratorSpec",
    "KBitStream",
    "derive_seed",
    "mix64",
    "rand_int_rejection",
    "sample_ints",
]

FAMILIES = ("mt19937", "cmrg", "splitcounter")

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective mixer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, index: int) -> int:
    """Seed of stream ``index`` derived from ``base_seed``.

    The splitting rule is base + (index+1) * golden-ratio increment, pushed
    through the SplitMix64 mixer; distinct indices give unrelated seeds.
    """
    return mix64((base_seed + (index + 1) * _GOLDEN) & _MASK64)


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
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 1 <= self.output_bits <= 64:
            raise ValueError(f"output_bits must be in 1..64, got {self.output_bits}")

    def serialize(self) -> str:
        """Plain-text triple ``family:seed:bits`` used by the CLI."""
        return f"{self.family}:{self.seed}:{self.output_bits}"

    @classmethod
    def parse(cls, text: str) -> "GeneratorSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"generator spec must be family:seed:bits, got {text!r}")
        family, seed_s, bits_s = parts
        try:
            seed = int(seed_s)
            bits = int(bits_s)
        except ValueError:
            raise ValueError(f"generator spec must be family:seed:bits, got {text!r}")
        return cls(family=family.lower(), seed=seed, output_bits=bits)


# --------------------------------------------------------------------------
# MT19937


class _Mt19937Core:
    """numpy's MT19937 bit generator in its classic init_genrand state."""

    native_bits = 32

    def __init__(self, seed: int):
        # RandomState seeds with init_genrand; the 64-bit seed field is
        # reduced to its low 32 bits
        self._bg = np.random.MT19937()
        self._bg.state = np.random.RandomState(seed & _MASK32).get_state(legacy=False)

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` words as uint64."""
        return self._bg.random_raw(count)


# --------------------------------------------------------------------------
# MRG32k3a (L'Ecuyer's combined MRG)

_M1 = 4294967087          # 2^32 - 209
_M2 = 4294944443          # 2^32 - 22853
_A12, _A13N = 1403580, 810728
_A21, _A23N = 527612, 1370589

# companion matrices acting on the column state (s[n-3], s[n-2], s[n-1])
_MAT1 = ((0, 1, 0), (0, 0, 1), ((_M1 - _A13N) % _M1, _A12, 0))
_MAT2 = ((0, 1, 0), (0, 0, 1), ((_M2 - _A23N) % _M2, 0, _A21))

_CMRG_LANES = 2048        # substreams stepped together by a large request
_CMRG_SCALAR_BELOW = 8192  # smaller requests step the scalar recurrence


def _mat_mul(a, b, m):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) % m for j in range(3))
        for i in range(3)
    )


def _mat_pow(a, e, m):
    r = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    while e:
        if e & 1:
            r = _mat_mul(r, a, m)
        a = _mat_mul(a, a, m)
        e >>= 1
    return r


def _mat_vec(a, x, m):
    x0, x1, x2 = x
    return [(r0 * x0 + r1 * x1 + r2 * x2) % m for r0, r1, r2 in a]


class _Mrg32k3aCore:
    """MRG32k3a emitting the canonical output sequence.

    The state is always the scalar pair of component states.  Small
    requests step it one output at a time.  A large request of ``count``
    words splits its stretch of the sequence into at most ``_CMRG_LANES``
    lanes of ``T = ceil(count / _CMRG_LANES)`` steps, ``lanes =
    ceil(count / T)`` of them: lane r starts at offset r*T, at state
    A^(rT) x0 (the substream jump-ahead of L'Ecuyer et al. 2002), all lanes
    step the one-step recurrence together, and the lanes laid end to end
    are the canonical sequence, bit for bit.  Word ``count`` falls in the
    last lane, so the state after the call is read from that lane at that
    step: A^count x0, the position just past the words returned.
    """

    native_bits = 32

    def __init__(self, seed: int):
        # expand the 64-bit seed into six component seeds in [1, m-1]
        raw = [mix64(seed + (i + 1) * _GOLDEN) for i in range(6)]
        s1 = [raw[i] % (_M1 - 1) + 1 for i in range(3)]
        s2 = [raw[i + 3] % (_M2 - 1) + 1 for i in range(3)]
        self._init_state(s1, s2)

    @classmethod
    def from_state(cls, s1, s2):
        """Construct from raw component states (validation vectors)."""
        core = cls.__new__(cls)
        core._init_state(list(s1), list(s2))
        return core

    def _init_state(self, s1, s2):
        if len(s1) != 3 or len(s2) != 3:
            raise ValueError("each component state needs exactly 3 values")
        if not all(0 <= v < _M1 for v in s1) or not any(s1):
            raise ValueError(f"first component state must be in [0, {_M1}) and not all zero")
        if not all(0 <= v < _M2 for v in s2) or not any(s2):
            raise ValueError(f"second component state must be in [0, {_M2}) and not all zero")
        self._s1 = s1
        self._s2 = s2

    def _scalar_step(self) -> int:
        s1, s2 = self._s1, self._s2
        p1 = (_A12 * s1[1] - _A13N * s1[0]) % _M1
        s1[0], s1[1], s1[2] = s1[1], s1[2], p1
        p2 = (_A21 * s2[2] - _A23N * s2[0]) % _M2
        s2[0], s2[1], s2[2] = s2[1], s2[2], p2
        return (p1 - p2) % _M1

    @staticmethod
    def _reduce32(z: np.ndarray) -> np.ndarray:
        # scale [0, m1) onto the full 32-bit range: floor(z * 2^32 / m1)
        return (z << np.uint64(32)) // np.uint64(_M1)

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` words as uint64."""
        if count < _CMRG_SCALAR_BELOW:
            out = np.fromiter((self._scalar_step() for _ in range(count)),
                              dtype=np.uint64, count=count)
            return self._reduce32(out)
        steps = -(-count // _CMRG_LANES)
        lanes = -(-count // steps)
        # word `count` is step `last` of the last lane, in [1, steps]
        last = count - (lanes - 1) * steps
        jump1 = _mat_pow(_MAT1, steps, _M1)
        jump2 = _mat_pow(_MAT2, steps, _M2)
        s1, s2 = self._s1, self._s2
        states = []
        for _ in range(lanes):
            states.append(s1 + s2)
            s1, s2 = _mat_vec(jump1, s1, _M1), _mat_vec(jump2, s2, _M2)
        # row i holds state entry i of every lane
        x = np.array(states, dtype=np.uint64).T
        x1, x2 = x[:3], x[3:]
        out = np.empty((lanes, steps), dtype=np.uint64)
        for t in range(1, steps + 1):
            # a12*s1 + m1*a13 - a13*s0 < 2^54 and a21*s2 + m2*a23 - a23*s0
            # < 2^53 stay exact in uint64 when the addition comes first
            p1 = (_A12 * x1[1] + _M1 * _A13N - _A13N * x1[0]) % _M1
            p2 = (_A21 * x2[2] + _M2 * _A23N - _A23N * x2[0]) % _M2
            x1 = [x1[1], x1[2], p1]
            x2 = [x2[1], x2[2], p2]
            out[:, t - 1] = self._reduce32((p1 + _M1 - p2) % _M1)
            if t == last:
                self._s1 = [int(v[-1]) for v in x1]
                self._s2 = [int(v[-1]) for v in x2]
        return out.ravel()[:count]


# --------------------------------------------------------------------------
# SplitCounter

_SM_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MULT2 = np.uint64(0x94D049BB133111EB)


class _SplitCounterCore:
    """Counter through the SplitMix64 mixer; native 64-bit output."""

    native_bits = 64

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._drawn = 0

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` words as uint64."""
        z = np.arange(self._drawn + 1, self._drawn + count + 1, dtype=np.uint64)
        self._drawn += count
        # the mixer in place, wrapping mod 2^64: one temporary at a time
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._seed)
        z ^= z >> np.uint64(30)
        z *= _SM_MULT1
        z ^= z >> np.uint64(27)
        z *= _SM_MULT2
        z ^= z >> np.uint64(31)
        return z


def _make_core(spec: GeneratorSpec):
    if spec.family == "mt19937":
        return _Mt19937Core(spec.seed)
    if spec.family == "cmrg":
        return _Mrg32k3aCore(spec.seed)
    return _SplitCounterCore(spec.seed)


class KBitStream:
    """Stream of k-bit unsigned integers from one generator core.

    ``position`` counts emitted k-bit draws; ``next_kbit`` advances it by
    exactly one.  ``take_kbits``/``take_units`` are the bulk equivalents and
    produce the identical sequence: the core returns exactly the native
    words each call needs, so any interleaving of single and bulk draws
    yields the same stream.
    """

    def __init__(self, spec: GeneratorSpec):
        self.spec = spec
        self._core = _make_core(spec)
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
        """Next ``count`` k-bit integers as a uint64 array."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        k = self.spec.output_bits
        nb = self._core.native_bits
        if k <= nb:
            # the core's array is fresh and ours alone: shift it in place
            vals = self._core.words(count)
            shift = nb - k
        else:
            # two native words per draw, first word supplies the high bits;
            # numpy elides the shift's temporary, so the or reuses its buffer
            words = self._core.words(2 * count)
            vals = (words[0::2] << np.uint64(nb)) | words[1::2]
            shift = 2 * nb - k
        if shift:
            vals >>= np.uint64(shift)
        self.position += count
        return vals

    def next_kbit(self) -> int:
        """Next k-bit integer in [0, 2^k - 1]."""
        return int(self.take_kbits(1)[0])

    def take_units(self, count: int) -> np.ndarray:
        """Next ``count`` doubles in [0, 1], each next_kbit / 2^k.

        The quotient is exact and below 1 for k <= 53.  For k >= 54 the
        draw is rounded to a double first, and every v >= 2^k - 2^(k-54)
        rounds to exactly 1.0.
        """
        return self.take_kbits(count).astype(np.float64) * self._unit_scale


def rand_int_rejection(stream: KBitStream, n: int, max_rejections: int = 10 ** 6) -> int:
    """Uniform integer in {1..n} by rejection on ceil(log2 n)-bit patterns.

    Patterns are the top bits of the stream's draws (several draws are
    combined when the pattern is wider than the stream).  A pattern p is
    accepted iff p <= n-1 and then shifted to p+1, which is exactly uniform.
    n = 1 returns 1 without drawing.  ``max_rejections`` guards against a
    broken generator; hitting it raises RuntimeError.
    """
    if n < 1:
        raise DomainError(f"rand_int_rejection requires n >= 1, got {n}")
    if n == 1:
        return 1
    m = (n - 1).bit_length()
    k = stream.spec.output_bits
    draws_per_pattern = max(1, math.ceil(m / k))
    rejections = 0
    while True:
        if draws_per_pattern == 1:
            v = stream.next_kbit() >> (k - m)
        else:
            acc = 0
            for _ in range(draws_per_pattern):
                acc = (acc << k) | stream.next_kbit()
            v = acc >> (draws_per_pattern * k - m)
        if v <= n - 1:
            return v + 1
        rejections += 1
        if rejections >= max_rejections:
            raise RuntimeError(
                f"rejection sampler exceeded {max_rejections} rejections for "
                f"n={n}; the generator looks broken")


def sample_ints(stream: KBitStream, n: int, count: int) -> np.ndarray:
    """Vectorized batch of ``count`` draws from {1..n}.

    Accepts and rejects exactly like ``rand_int_rejection`` and yields the
    same value sequence for the same stream state, but consumes draws in
    batches (the final batch may discard unused draws), so do not interleave
    it with the scalar sampler on one stream.  ``n`` must be below 2^64, the
    range of the uint64 output.
    """
    if not 1 <= n <= _MASK64:
        raise DomainError(f"sample_ints requires 1 <= n < 2^64, got {n}")
    out = np.empty(count, dtype=np.uint64)
    if n == 1:
        out.fill(1)
        return out
    m = (n - 1).bit_length()
    k = stream.spec.output_bits
    draws_per_pattern = max(1, math.ceil(m / k))
    accept = n / 2.0 ** m
    filled = 0
    while filled < count:
        want = count - filled
        batch = min(1 << 22, int(want / accept) + 16)
        if draws_per_pattern == 1:
            v = stream.take_kbits(batch) >> (k - m)
        else:
            words = stream.take_kbits(batch * draws_per_pattern)
            words = words.reshape(batch, draws_per_pattern)
            acc = np.zeros(batch, dtype=np.uint64)
            for col in range(draws_per_pattern - 1):
                acc = (acc << np.uint64(k)) | words[:, col]
            # take from the last draw only the top bits the pattern still
            # needs, so no value holds more than m <= 64 bits
            last = m - (draws_per_pattern - 1) * k
            v = (acc << np.uint64(last)) | (words[:, -1] >> np.uint64(k - last))
        good = v[v <= n - 1][:want]
        out[filled:filled + good.size] = good + np.uint64(1)
        filled += good.size
    return out
