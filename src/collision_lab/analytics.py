"""Closed-form collision mathematics for n draws into b buckets.

The expected number of collisions is n - b*(1 - (1 - 1/b)^n).  Evaluated
literally, the inner 1 - 1/b rounds to exactly 1 once 1/b drops below half
a unit in the last place of 1.0 (b = 2^k with k >= 54), collapsing the
whole expression to n.  The stable rewrite n + b*expm1(n*log1p(-1/b))
never forms the doomed difference.  The same treatment applies to the
birthday-problem collision probability 1 - prod(1 - i/b), rewritten as
-expm1(sum log1p(-i/b)), whose sum is taken at constant cost from exact
power sums.  Both literal forms are kept alongside the stable ones so the
error curves can be measured; they cost O(n) and stop at LITERAL_CAP.
For b = 2^k each factor is one subtraction of two exact doubles,
(1 - q/b) - r/b with i = q + r, rounded once as the literal 1 - i/b is.
Where the product is fixed without multiplying they return in O(1): when
it saturates (n(n-1) >= 80b), and when it meets a zero factor (n > b).
Past that factor the naive form multiplies only the chunks after the
zero factor's own that hold some i >= 2b + 1, whose factors can overflow
and give NaN.  The factors pbirthday recycles are exactly 1: unmultiplied.

The exact distribution of the collision count C is
P(C = c) = (b)_(n-c) / b^n * S(n, n-c), with (b)_l the falling factorial
and S the Stirling numbers of the second kind, taken in exact rationals
from exact integer rows of S for n <= 64; its sum and mean add integer
numerators over one common denominator.  In floats it comes from
second-order Eulerian numbers over the few c that carry mass when b >> n
(O(c_max^2) on one c x k grid of at most 0.53 MB), else from Knuth's
occupancy recurrence over a window of occupancies, advanced 16 draws per
numpy call by one band of the 16-draw transition (at most O(n^2) work,
8-30 ms at n = 10^4); within 1e-12 relative, subnormal entries flushed
to 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import BracketingError, CapacityError, exact_index, real_number, shown
# sum_log1p has no caller here; it stays bound as analytics.sum_log1p,
# the name perfbench/tracing.py wraps
from .stable_math import StableEvalReport, sum_log1p

__all__ = [
    "BucketSpace",
    "CollisionPmf",
    "expected_collisions_naive",
    "expected_collisions",
    "collision_probability_naive",
    "collision_probability_pbirthday",
    "collision_probability",
    "LITERAL_CAP",
    "stirling2",
    "collision_pmf_exact",
    "min_bits_for_expected",
    "sample_size_for_expected",
    "probability_error_curve",
]

# literal products: factors per chunk product, and per piece built at once;
# 1 - q*2^-k is exact for every k <= 64 where q is a multiple of _ALIGN
_CHUNK = 1 << 20
_PIECE = 1 << 14
_ALIGN = 1 << 11

# the literal forms multiply O(n) factors; above this n they refuse
LITERAL_CAP = 10 ** 8

# C's FLT_EPSILON, the fuzz R's colon operator adds before truncating a length
_FLT_EPSILON = 2.0 ** -23

MAX_BITS = 64
_MAX_EXACT_BUCKETS = 1 << 63


@dataclass(frozen=True)
class BucketSpace:
    """The collision universe: b buckets, either exactly 2^k or explicit.

    ``count`` is the exact integer b (arbitrary precision, so 2^64 is fine);
    float arithmetic goes through ``inv_count`` (exact 2^-k for power-of-two
    spaces).
    """

    bits: Optional[int]
    count: int

    def __post_init__(self):
        # both fields are kept as Python ints, which b^n cannot wrap
        if self.bits is None:
            count = exact_index("bucket count", self.count, 1, _MAX_EXACT_BUCKETS)
        else:
            object.__setattr__(self, "bits", exact_index("bits", self.bits, 1, MAX_BITS))
            count = exact_index("bucket count", self.count)
            if count != 1 << self.bits:
                raise ValueError("count does not match 2^bits; use the constructors")
        object.__setattr__(self, "count", count)

    @classmethod
    def power_of_two(cls, k: int) -> "BucketSpace":
        """The k-bit setup: b = 2^k."""
        k = exact_index("bits", k, 1, MAX_BITS)
        return cls(bits=k, count=1 << k)

    @classmethod
    def exact(cls, b: int) -> "BucketSpace":
        return cls(bits=None, count=b)

    @property
    def inv_count(self) -> float:
        """1/b as a double; exact for power-of-two spaces."""
        return 1.0 / self.count

    def __str__(self):
        return f"2^{self.bits}" if self.bits is not None else str(self.count)


def expected_collisions_naive(n, space: BucketSpace) -> float:
    """Literal n - b*(1 - (1 - 1/b)^n) in double precision.

    Deliberately carries the cancellation failure: for b = 2^k with k >= 54
    the inner 1 - 1/b rounds to 1 and the result collapses to n.  Kept as a
    cross-check for small k and to measure the failure itself.
    """
    n = real_number("n", n, 0, sys.float_info.max)
    bf = float(space.count)
    return n - bf * (1.0 - (1.0 - 1.0 / bf) ** n)


def expected_collisions(n, space: BucketSpace) -> float:
    """Stable expected collision count n + b*expm1(n*log1p(-1/b)).

    Accepts real n (the root solver works on the continuous extension).
    Always finite and within [0, max(0, n-1)].
    """
    n = real_number("n", n, 0, sys.float_info.max)
    if n <= 1:
        return 0.0
    if space.count == 1:
        return float(n - 1)
    value = n + float(space.count) * math.expm1(n * math.log1p(-space.inv_count))
    return max(0.0, value)


def _check_literal_cap(n: int):
    if n > LITERAL_CAP:
        raise CapacityError(
            f"literal products are capped at n = {LITERAL_CAP}, got {shown(n)}; "
            f"collision_probability has no cap")


def _collision_certain(n: int, b: int) -> bool:
    """Whether the birthday probability is exactly 1.0 in each form reading it:

    * n > b (pigeonhole): R's sequential product meets the factor (c - b)/c
      = 0 (c = b < n <= LITERAL_CAP) and stays 0; the naive form's chunk
      products can overflow past i = 2b to NaN, so it skips this case.
    * n(n-1) >= 80b: L = sum_{i<n} log1p(-i/b) <= -n(n-1)/2b <= -40, as
      log1p(-x) <= -x, and -expm1(-40) rounds to 1.0.  With n <= b every
      literal factor lies in (0, 1], so no rounded partial product grows:
      the exact product is at most e^-40, rounding factors and products
      raises it by less than e^(u b (1 + ln b) + 2un) < 1.6 (u = 2^-53,
      b <= LITERAL_CAP^2/80), and 1 - prod rounds to 1.0.
    """
    return n > b or n * (n - 1) >= 80 * b


def collision_probability_naive(n: int, space: BucketSpace) -> float:
    """Literal birthday probability 1 - prod_{i=1}^{n-1} (1 - i/b).

    The product runs over exactly n-1 factors, each evaluated in double
    precision.  Each chunk of 2^20 factors, from i = 1 on, is multiplied
    out left to right, and the chunk products are multiplied into a running
    product in turn (the association perfbench/references.json pins).
    Each factor is fl(1 - fl(i/b)); for b = 2^k it is built by one
    subtraction (see _power_factors), to the same bits.  Two cases are
    decided without multiplying, to the same bits:

    * n - 1 < b and n(n-1) >= 80b: saturated, 1.0 (see _collision_certain);
    * n - 1 >= b: the factor 1 - b/b is exactly 0 (b < LITERAL_CAP < 2^53).
      The factors before it lie in (0, 1], so the chunk holding it
      multiplies out to +-0 without overflowing, even when it also holds
      factors past i = 2b; the running product stays +-0 through every
      later chunk that holds only factors of magnitude <= 1 (i <= 2b).
      Only the chunks after the zero factor's that hold some i >= 2b + 1
      are multiplied, to keep the NaN that an overflowing one gives
      (0 * inf).

    Raises CapacityError for n > LITERAL_CAP.
    """
    n = exact_index("n", n)
    _check_literal_cap(n)
    b, bf = space.count, float(space.count)
    start, prod = 1, 1.0
    if n - 1 >= b:
        first = max(2 * b // _CHUNK, (b - 1) // _CHUNK + 1)
        start, prod = 1 + first * _CHUNK, 0.0
    elif _collision_certain(n, b):
        return 1.0
    return 1.0 - _chunked_product(
        start, n, b, lambda i: np.subtract(1.0, np.divide(i, bf, out=i), out=i), prod)


def _power_factors(k: int, size: int):
    """Factors fl(1 - i·2^-k) at one subtraction each, for b = 2^k, in
    pieces of at most size.

    Write i = q + r, with q the piece's first index rounded down to a
    multiple of _ALIGN.  Then 1 - q·2^-k is exact: 2^k - q is either a
    multiple of 2^11 below 2^64, which 53 bits hold, or above -LITERAL_CAP.
    r·2^-k is exact too, so their difference is one rounding of 1 - i·2^-k:
    the bits of fl(1 - fl(i/2^k)), and of fl(2^k - i)/2^k, since scaling by
    2^-k commutes with rounding.
    """
    scale = 2.0 ** -k
    ramp = np.arange(size + _ALIGN, dtype=np.float64) * scale

    def fill(p, out):
        r = p % _ALIGN
        return np.subtract(1.0 - (p - r) * scale, ramp[r:r + out.size], out=out)

    return fill


def _chunked_product(start: int, stop: int, b: int, rule, prod: float) -> float:
    """prod times the factors of i = start..stop-1: for b = 2^k those of
    _power_factors, the bits of both literal rules, else rule(i), which
    maps a float array of indices to their factors in place.

    Each chunk of _CHUNK indices from start is multiplied out left to right
    and then into prod.  The factors are built _PIECE at a time in one
    buffer, and each piece continues its chunk's product as the initial
    value of a sequential reduce, so the bits are those of whole chunks
    whatever the piece size; 2^14 factors keep the buffers in cache.
    """
    size = min(_PIECE, max(stop - start, 0))
    if b & (b - 1):
        ramp = np.arange(size, dtype=np.float64)

        def fill(p, out):
            return rule(np.add(ramp[:out.size], p, out=out))
    else:
        fill = _power_factors(b.bit_length() - 1, size)
    buf = np.empty(size)
    for lo in range(start, stop, _CHUNK):
        end = min(stop, lo + _CHUNK)
        part = 1.0
        # the literal product may overflow where n is far above b; that
        # overflow is the behaviour measured, not a fault to report
        with np.errstate(over="ignore"):
            for p in range(lo, end, _PIECE):
                part = np.multiply.reduce(fill(p, buf[:end - p]), initial=part)
        prod *= float(part)
        if prod != prod:
            break  # NaN stays NaN
    return prod


def pbirthday_sequence_length(n: int, space: BucketSpace) -> int:
    """Length of R's c:(c-n+1) for c = double(b): n while the doubles below c
    are spaced at most 1 apart, not n beyond (999,425 at n = 10^6, b = 2^64)."""
    c = float(space.count)
    to = (c - n) + 1.0
    return int(abs(to - c) + 1.0 + _FLT_EPSILON)


def collision_probability_pbirthday(n: int, space: BucketSpace) -> float:
    """R's ``pbirthday(n, classes)``, 1 - prod((c:(c-n+1)) / rep(c, n)).

    Emulates the literal evaluation, artifacts included.  With c = double(b),
    the colon operator's end point is to = (c - n) + 1 in double, its length
    is floor(|to - c| + 1 + FLT_EPSILON) and its values are the doubles
    c - i (for n >= 1, to never rounds above c).  Once the spacing of
    doubles below c exceeds 1 (c > 2^53) that length can be wrong, and
    ``/`` recycles the shorter operand; rep(c, 0) is empty, so n = 0 gives 0.

    Only i = 0..length-1 is multiplied, whatever n is: a longer sequence
    recycles only the divisor c, and a shorter one only factors of exactly
    1.0, which leave every double (+-0, NaN, subnormals) as it is.  For
    n >= 1, length = c - to + 1 exactly, so a recycled index j = i % length
    (length <= i < n) is below n - length = to - (c - n + 1).  Let u be the
    spacing of doubles just below c; for u <= 1 every step is exact.  Else
    fl(c - n) lies within u/2 of c - n, and the + 1 leaves it unchanged
    where the spacing above it is 4 or more.  Where that spacing is 2, ties
    go to even: an odd c - n rounds to a multiple of 4, which the + 1
    keeps, and an even one is exact and gains at most 2.  So j <= u/2 - 2
    for u >= 4 and j = 0 for u = 2: fl(c - j) = c, and c/c = 1.0.

    These semantics are taken from R's seq_colon rule and its recycling of
    arithmetic operands, not checked against a running R.  R's prod()
    accumulates sequentially in long double; here chunk products are
    accumulated in double, as in ``collision_probability_naive``, a
    rounding-level difference.  For b = 2^k the factor fl(c - i)/c is
    fl(1 - i·2^-k), built by one subtraction as in that function.  Where
    _collision_certain holds the result is 1.0, unmultiplied.
    Raises CapacityError for n > LITERAL_CAP.
    """
    n = exact_index("n", n)
    _check_literal_cap(n)
    b, c = space.count, float(space.count)
    if _collision_certain(n, b):
        return 1.0
    length = pbirthday_sequence_length(n, space) if n else 0
    return 1.0 - _chunked_product(
        0, length, b, lambda i: np.divide(np.subtract(c, i, out=i), c, out=i), 1.0)


def collision_probability(n: int, space: BucketSpace) -> float:
    """Stable birthday probability -expm1(L), L = sum_{i<n} log1p(-i/b), in [0, 1].

    Returns 0 for n <= 1 and exactly 1 where _collision_certain holds:
    n > b (pigeonhole), or n(n-1) >= 80b, where L <= -40.  Otherwise the
    cost is bounded at every n; two regimes, told apart in exact integers:

    * series, 2(n-1) <= b: L = -sum_{j>=1} S_j(n-1) / (j b^j) with the
      power sums S_j(m) = sum_{i<=m} i^j taken exactly in integers.  With
      r = (n-1)/b, S_{j+1} <= m S_j bounds the tail after term j by
      term_j * r/(1-r); terms stop once that is below 2^-64 of the partial
      sum, after at most 59 of them (r = 1/2), and the exact rational
      partial sum is rounded to a double once;
    * otherwise, which forces b < 320 and n < 161: the exact
      (b^n - b!/(b-n)!) / b^n in integers, rounded to a double once.
    """
    n = exact_index("n", n)
    if n <= 1:
        return 0.0
    b = space.count
    if _collision_certain(n, b):
        return 1.0
    m = n - 1
    if 2 * m <= b:
        return -math.expm1(-_log_falling_series(m, b)[0])
    return (b ** n - math.perm(b, n)) / b ** n


def _log_falling_series(m: int, b: int) -> tuple[float, int]:
    """sum_{j>=1} S_j(m) / (j b^j) = -sum_{i<=m} log1p(-i/b) for 2m <= b,
    truncated below 2^-64 relative and rounded to a double once, with the
    number of terms taken (at most 59, reached at m/b = 1/2)."""
    # (m+1)^(j+1) - 1 = sum_{r<=j} C(j+1, r) S_r(m) gives each S_j from the
    # ones before it, starting from S_0(m) = m
    sums = [m]
    # the partial sum is num / (lcm * b^j), lcm = lcm(1..j), all exact
    num, lcm, j = 0, 1, 0
    while True:
        j += 1
        rest = sum(math.comb(j + 1, r) * s for r, s in enumerate(sums))
        sums.append(((m + 1) ** (j + 1) - 1 - rest) // (j + 1))
        grow = j // math.gcd(lcm, j)
        lcm *= grow
        term = sums[j] * (lcm // j)
        num = num * grow * b + term
        # the tail is at most term * r/(1-r) with r = m/b
        if (term * m) << 64 < num * (b - m):
            return num / (lcm * b ** j), j


# --------------------------------------------------------------------------
# Stirling numbers of the second kind

_TABLE_LIMIT = 64


def _stirling_row(n: int) -> list:
    """Exact S(n, l) for l = 0..n, as Python ints: they outgrow every fixed
    width quickly, and past n = 64 the float pmf kernels take over."""
    row = [1]
    for nn in range(1, n + 1):
        # S(nn, l) = l*S(nn-1, l) + S(nn-1, l-1)
        row = [0] + [l * row[l] + row[l - 1] for l in range(1, nn)] + [1]
    return row


def stirling_log_row(n: int) -> np.ndarray:
    """log S(n, l) for l = 0..n (-inf where S = 0), one row at a time.

    No pmf kernel calls it; perfbench/tracing.py wraps it by name.
    """
    row = np.array([0.0])
    for nn in range(1, n + 1):
        # S(n, l) = l*S(n-1, l) + S(n-1, l-1), in log domain
        prev, row = row, np.empty(nn + 1)
        row[0] = -np.inf
        row[nn] = 0.0
        row[1:nn] = np.logaddexp(np.log(np.arange(1, nn)) + prev[1:nn], prev[0:nn - 1])
    return row


def stirling2(n: int, l: int) -> int:
    """Exact S(n, l) for 0 <= l <= n <= 64; CapacityError for n > 64."""
    n = exact_index("n", n)
    if n > _TABLE_LIMIT:
        raise CapacityError(f"stirling2 is capped at n = {_TABLE_LIMIT}, got {shown(n)}")
    return _stirling_row(n)[exact_index("l", l, 0, n)]


# --------------------------------------------------------------------------
# Exact collision distribution

EXACT_PMF_CAP = _TABLE_LIMIT
LOG_PMF_CAP = 10 ** 4


@dataclass(frozen=True)
class CollisionPmf:
    """Distribution of the collision count C for n draws into b buckets.

    probs[c] = P(C = c) for c = 0..n-1, as Fractions ("exact-rational",
    n <= EXACT_PMF_CAP) or a float array ("log-domain-float", a historical
    name; see collision_pmf_exact).
    """

    n: int
    space: BucketSpace
    probs: Sequence[Union[Fraction, float]]
    representation: str  # "exact-rational" | "log-domain-float"

    def total(self):
        """Sum of all probabilities (exactly 1 in rational mode)."""
        if self.representation == "exact-rational":
            nums, lcm = self._over_lcm()
            return Fraction(sum(nums), lcm)
        _, p = self._nonzero()
        return math.fsum(p.tolist())

    def mean(self) -> float:
        """Expected collision count sum c * P(C = c)."""
        if self.representation == "exact-rational":
            nums, lcm = self._over_lcm()
            # int / int rounds the exact quotient once, as float(Fraction) does
            return sum(c * num for c, num in enumerate(nums)) / lcm
        c, p = self._nonzero()
        return math.fsum((c * p).tolist())

    def _over_lcm(self) -> tuple:
        # the exact probabilities as integer numerators over the lcm of
        # their denominators, so that a sum reduces one Fraction, not n
        lcm = math.lcm(*(p.denominator for p in self.probs))
        return [p.numerator * (lcm // p.denominator) for p in self.probs], lcm

    def prob_any_collision(self) -> float:
        """P(C > 0); summed in float mode, as 1 - P(C = 0) would cancel."""
        if self.representation == "exact-rational":
            return float(1 - self.probs[0])
        c, p = self._nonzero()
        return math.fsum(p[c > 0].tolist())

    def _nonzero(self) -> tuple:
        # (c, P(C = c)) over the nonzero float entries: the zeros, most of
        # a float pmf, add nothing to an fsum
        probs = np.asarray(self.probs)
        c = np.flatnonzero(probs)
        return c, probs[c]


def collision_pmf_exact(n: int, space: BucketSpace) -> CollisionPmf:
    """Exact PMF of the collision count.

    P(C = c) = (b)_(n-c) / b^n * S(n, n-c).  The representation follows n
    alone: exact rationals from exact Stirling numbers for
    n <= EXACT_PMF_CAP (64), whose total() and mean() sum integer
    numerators over the lcm of the denominators; floats for
    n <= LOG_PMF_CAP (10^4), entries from 1e-290 up within 1e-12 relative
    and those below 2^-1022 flushed to 0, from one of two kernels chosen
    by (n, b):

    * b >> n: a Chernoff bound gives the c_max past which every entry is
      flushed.  If 2(n-1) <= b, c_max <= 256 and 2(c_max + 1) < n, P(C = c)
      for c <= c_max comes from S(n, n-c) as a sum over second-order
      Eulerian numbers, in logs on one (c_max + 1) x c_max grid (at most
      0.53 MB): O(c_max^2), a few ms at n = 10^4, where the recurrence
      below spends 8-16 ms on entries that end as 0.  Only the rows of
      Eulerian numbers are built c by c; the rest runs on the whole grid.
    * otherwise: q_n(n - c), where q_t(l) = P(t draws occupy exactly l
      buckets) follows Knuth's occupancy recurrence (TAOCP 3.3.2)
      q_t(l) = q_{t-1}(l) l/b + q_{t-1}(l-1) (1 - (l-1)/b), q_1(1) = 1,
      in plain probabilities over the window of l that holds all but
      2^-1022 of the mass, 16 draws at a time through one band of T^16
      (T the one-draw transition), carried times 2^512 so that no operand
      is subnormal: O(n * window), at most O(n^2), 8-30 ms at n = 10^4.

    n above LOG_PMF_CAP raises CapacityError.
    """
    n = exact_index("n", n, 1)
    if n <= EXACT_PMF_CAP:
        return _pmf_exact_rational(n, space)
    if n > LOG_PMF_CAP:
        raise CapacityError(f"float-mode pmf capped at n = {LOG_PMF_CAP}, got {shown(n)}")
    return _pmf_log_domain(n, space)


def _pmf_exact_rational(n: int, space: BucketSpace) -> CollisionPmf:
    bn, row = space.count ** n, _stirling_row(n)
    falling = [1]  # (b)_l for l = 0..n; hits 0 once l exceeds b
    for l in range(n):
        falling.append(falling[-1] * (space.count - l))
    probs = [Fraction(falling[l] * row[l], bn) for l in range(n, 0, -1)]
    return CollisionPmf(n=n, space=space, probs=probs,
                        representation="exact-rational")


# the float pmf flushes entries below the smallest normal double to 0
_TINY = 2.0 ** -1022
# log(2^-1022 e^-40): a tail bound below this is flushed with room to spare
_LOG_FLUSH_TAIL = -1022 * math.log(2.0) - 40.0
# largest c window the Eulerian kernel builds rows for
_EULERIAN_C_CAP = 256
# draws the occupancy recurrence takes per step, as one band of T^_BLOCK
_BLOCK = 16
# power of two the occupancy recurrence carries q times (see _pmf_occupancy)
_SCALE = 2.0 ** 512


def _pmf_log_domain(n: int, space: BucketSpace) -> CollisionPmf:
    c_max = _eulerian_window(n, space.count)
    if c_max is None:
        probs = _pmf_occupancy(n, space)
    else:
        probs = _pmf_eulerian(n, space, c_max)
    return CollisionPmf(n=n, space=space, probs=probs,
                        representation="log-domain-float")


def _eulerian_window(n: int, b: int) -> Optional[int]:
    """c_max when the Eulerian kernel applies to (n, b), else None.

    Draw t collides with probability at most (t-1)/b whatever came before,
    so C is dominated by a sum of independent Bernoulli variables of mean
    lam = n(n-1)/2b, and Chernoff gives P(C >= c) <= e^-lam (e lam/c)^c for
    c >= lam.  c_max is the first c where that bound is below
    2^-1022 e^-40: every entry from there on would be flushed.  The kernel
    applies when 2(n - 1) <= b, the domain of the exact series it takes
    log((b)_n / b^n) from, c_max <= 256, and 2(c_max + 1) < n, so that
    every binomial C(n+c-1-k, 2c) it uses is positive.
    """
    if n < 2 or 2 * (n - 1) > b:
        return None
    lam = n * (n - 1) / (2 * b)
    log_lam = math.log(lam)
    c = max(1, math.ceil(lam))
    # the bound's log falls with c once c > lam
    while c * (1.0 + log_lam - math.log(c)) - lam >= _LOG_FLUSH_TAIL:
        c += 1
        if c > _EULERIAN_C_CAP:
            return None
    return c if 2 * (c + 1) < n else None


def _pmf_eulerian(n: int, space: BucketSpace, c_max: int) -> np.ndarray:
    """P(C = c) for c <= c_max from S(n, n-c) = sum_k <<c,k>> C(n+c-1-k, 2c).

    With e_c(k) = <<c,k>> / (2c-1)!! (second-order Eulerian numbers, which
    sum to (2c-1)!! over k; Graham, Knuth & Patashnik eq. 6.43) and
    C(n+c-1-k, 2c) = n^2c / (2c)! prod_{o=-c-k}^{c-1-k} (1 + o/n),
    P(C = c) = (b)_(n-c) / b^(n-c) * (n^2/2b)^c / c!
               * sum_k e_c(k) prod_o (1 + o/n),
    evaluated in logs on one (c_max + 1) x c_max grid, at most 0.53 MB:
    row c holds the terms for k < max(c, 1) and -inf past them.  Only the
    recurrence of the e_c rows runs c by c; the window sums, maxima and
    exp run on the whole grid.  Each row is summed on its own, as a
    padded 2-D sum would add in another order; entries past c_max are 0.
    """
    b, bf = space.count, float(space.count)
    # log((b)_(n-c) / b^(n-c)); _eulerian_window checks the series' domain 2(n-1) <= b
    steps = np.log1p(-np.arange(n - 1, n - 1 - c_max, -1) / bf)
    log_falling = -_log_falling_series(n - 1, b)[0] - np.concatenate(([0.0], np.cumsum(steps)))
    # prefix sums of log1p(o/n), o = -2c_max .. c_max-1: the log products
    off = 2 * c_max
    prefix = np.concatenate(([0.0], np.cumsum(np.log1p(np.arange(-off, c_max) / n))))
    logs = np.log(np.arange(1, off + 1))  # logs[j] = log(j + 1)
    log_half_n2_b = math.log(n * n / (2.0 * bf))
    # grid[c, k] = log e_c(k); rows 0 and 1 are [0]
    grid = np.full((c_max + 1, c_max), -np.inf)
    grid[:2, 0] = 0.0
    spare = np.empty(c_max)
    for c in range(2, c_max + 1):
        # <<c,k>> = (k+1) <<c-1,k>> + (2c-1-k) <<c-1,k-1>>
        prev, row = grid[c - 1, :c - 1], grid[c, :c]
        np.add(logs[:c - 1], prev, out=row[:c - 1])
        up = np.add(logs[2 * c - 3:c - 2:-1], prev, out=spare[:c - 1])
        np.logaddexp(row[1:], up, out=row[1:])
        np.subtract(row, logs[2 * c - 2], out=row)
    # prefix[off + c - k] and prefix[off - c - k] at [c, k], as views:
    # window[i, k] = prefix[i + c_max - 1 - k]
    window = np.lib.stride_tricks.sliding_window_view(prefix, c_max)[:, ::-1]
    grid += window[c_max + 1:]
    grid -= window[c_max + 1:0:-1]
    tops = grid.max(axis=1)
    grid -= tops[:, None]
    np.exp(grid, out=grid)
    log_p = np.empty(c_max + 1)
    for c, top in enumerate(tops.tolist()):
        log_p[c] = (log_falling[c] + c * log_half_n2_b - math.lgamma(c + 1)
                    + top + math.log(np.add.reduce(grid[c, :max(c, 1)])))
    probs = np.zeros(n)
    probs[:c_max + 1] = np.exp(log_p)
    probs[probs < _TINY] = 0.0
    return probs


def _pmf_occupancy(n: int, space: BucketSpace) -> np.ndarray:
    """P(C = c) from q[l], the chance that the draws so far fill l buckets.

    One draw maps q to T q, with T lower bidiagonal and the same at every
    draw, so _BLOCK draws are one band of T^_BLOCK with _BLOCK + 1
    diagonals over l = 0..min(n, b).  The band is built once, by _BLOCK
    in-place bidiagonal updates of its diagonals (O(_BLOCK^2 min(n, b))),
    and applied as one einsum per block over l in [lo, min(t, b)]: O(n
    _BLOCK window) work in about n / _BLOCK numpy calls, 8-30 ms at
    n = 10^4.  q_1 is e_1, so the first (n - 1) mod _BLOCK draws are
    column 1 of the band while it is built.  The mass at or below a fixed
    l never grows, so dropping q[lo] (and moving lo up) while the total
    dropped stays below 2^-1022 moves no entry by more than that; a zero
    test would not do, as stuck subnormals never reach 0.

    q is carried times _SCALE, a power of two, and unscaled once at the
    end.  That is exact for every normal value, and it keeps the window's
    low-occupancy head, which the drop budget cannot afford to drop, out
    of the subnormal range, where each einsum would run about 4 times
    slower.  q <= 1, so nothing scaled exceeds _SCALE.
    """
    b, bf = space.count, float(space.count)
    top_l = min(n, b)
    l = np.arange(top_l + 1, dtype=np.float64)
    hit, miss = l / bf, (bf - l) / bf
    m, rest = _BLOCK, (n - 1) % _BLOCK
    # band[m - d, i]: coefficient of q[i - d] in row i of T^k, k = 0..m;
    # T^(k+1) = T T^k adds diagonal k + 1 and updates the others from the
    # top down, each from the old diagonal below it
    band = np.zeros((m + 1, top_l + 1))
    band[m] = 1.0
    qpad = np.zeros(m + top_l + 1)  # m zeros below q[0]
    q = qpad[m:]
    for k in range(m):
        if k == rest:  # q_(1 + rest) = T^rest e_1: row i, diagonal i - 1
            i = np.arange(1, min(rest + 1, top_l) + 1)
            q[i] = band[m + 1 - i, i] * _SCALE
        for d in range(k + 1, 0, -1):
            row = band[m - d, 1:]
            row *= hit[1:]
            row += miss[:-1] * band[m - d + 1, :-1]
        band[m] *= hit
    # win[i, j] = q[i - m + j], the q that band[j, i] multiplies
    win = np.lib.stride_tricks.sliding_window_view(qpad, m + 1)
    lo, dropped = 1, 0.0
    for t in range(1 + rest + m, n + 1, m):
        top = min(t, b)
        q[lo:top + 1] = np.einsum("ji,ij->i", band[:, lo:top + 1], win[lo:top + 1])
        # drop from the head while the total dropped stays below 2^-1022
        while lo < top:
            cum = dropped + np.cumsum(q[lo:min(lo + m, top)])
            drop = int(np.searchsorted(cum, _TINY * _SCALE))
            if drop:
                dropped = cum[drop - 1]
                q[lo:lo + drop] = 0.0
                lo += drop
            if drop < cum.size:
                break
    q *= 1.0 / _SCALE
    q[q < _TINY] = 0.0  # subnormals stop decaying: flush them
    probs = np.zeros(n)
    probs[n - top_l:] = q[:0:-1]
    return probs


# --------------------------------------------------------------------------
# Inverse problems

# relative bracket width at which sample_size_for_expected stops bisecting
_SOLVE_REL_TOL = 1e-9


def min_bits_for_expected(n: int, target: float) -> Optional[int]:
    """Smallest k in 1..64 with expected_collisions(n, 2^k) <= target.

    Returns None when no k in range reaches the target; a target that is
    not positive and finite raises DomainError.
    """
    n = exact_index("n", n, 1)
    target = real_number("target", target, math.ulp(0.0), sys.float_info.max)
    for k in range(1, MAX_BITS + 1):
        if expected_collisions(n, BucketSpace.power_of_two(k)) <= target:
            return k
    return None


def sample_size_for_expected(space: BucketSpace, target: float,
                             lo: float, hi: float) -> float:
    """Real-valued n with expected_collisions(n, space) = target, by bisection.

    The objective is monotone in n, so bisection on the bracketing interval
    [lo, hi] is robust; it stops at _SOLVE_REL_TOL relative width, and the
    caller rounds the root to a count as needed.
    Raises DomainError for a target that is not positive and finite or a
    bracket [lo, hi] without 0 <= lo <= hi <= the largest double (int bounds
    included), and BracketingError when f(lo) and f(hi) share a sign.
    """
    target = real_number("target", target, math.ulp(0.0), sys.float_info.max)
    lo = real_number("bracket lo", lo, 0, sys.float_info.max)
    hi = real_number("bracket hi", hi, lo, sys.float_info.max)

    def f(x):
        return expected_collisions(x, space) - target

    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return float(lo)
    if fhi == 0.0:
        return float(hi)
    if (flo < 0) == (fhi < 0):
        raise BracketingError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    while hi - lo > _SOLVE_REL_TOL * hi:
        mid = 0.5 * lo + 0.5 * hi  # halved first: lo + hi may overflow
        if mid in (lo, hi):
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi


def probability_error_curve(n: int, k_lo: int, k_hi: int):
    """Literal-vs-stable collision-probability reports for k = k_lo..k_hi.

    The literal side is R's pbirthday() (``collision_probability_pbirthday``),
    the evaluation the paper measures, so the curve shows its sequence-length
    artifact for k >= 54 as well as the rounding noise below it.
    """
    reports = []
    for k in range(k_lo, k_hi + 1):
        space = BucketSpace.power_of_two(k)
        reports.append(StableEvalReport.compare(
            input=float(k),
            naive=collision_probability_pbirthday(n, space),
            stable=collision_probability(n, space),
        ))
    return reports
