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
Where the product is fixed without multiplying they return in O(1): when
it saturates (n(n-1) >= 80b), and when it meets a zero factor (n > b),
where the naive form still multiplies the chunks from the one holding
i = 2b + 1 on, whose factors can overflow and give NaN.

The exact distribution of the collision count C is
P(C = c) = (b)_(n-c) / b^n * S(n, n-c), with (b)_l the falling factorial
and S the Stirling numbers of the second kind, taken in exact rationals
from exact integer rows of S for n <= 64.  In floats it comes from
second-order Eulerian numbers over the few c that carry mass when b >> n
(O(c_max^2)), else from Knuth's occupancy recurrence over a window of
occupancies, advanced 16 draws per numpy call by one band of the 16-draw
transition (at most O(n^2) work, 15-50 ms at n = 10^4); within 1e-12
relative, subnormal entries flushed to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import BracketingError, CapacityError, DomainError, exact_index, real_number
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

# literal products: factors per chunk product, and per piece built at once
_CHUNK = 1 << 20
_PIECE = 1 << 16

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
    if not 0 <= real_number("n", n) < math.inf:
        raise DomainError(f"n must be finite and nonnegative, got {n}")
    bf = float(space.count)
    return n - bf * (1.0 - (1.0 - 1.0 / bf) ** n)


def expected_collisions(n, space: BucketSpace) -> float:
    """Stable expected collision count n + b*expm1(n*log1p(-1/b)).

    Accepts real n (the root solver works on the continuous extension).
    Always finite and within [0, max(0, n-1)].
    """
    if not 0 <= real_number("n", n) < math.inf:
        raise DomainError(f"n must be finite and nonnegative, got {n}")
    if n <= 1:
        return 0.0
    if space.count == 1:
        return float(n - 1)
    value = n + float(space.count) * math.expm1(n * math.log1p(-space.inv_count))
    return max(0.0, value)


def _check_literal_cap(n: int):
    if n > LITERAL_CAP:
        raise CapacityError(
            f"literal products are capped at n = {LITERAL_CAP}, got {n}; "
            f"collision_probability has no cap")


def collision_probability_naive(n: int, space: BucketSpace) -> float:
    """Literal birthday probability 1 - prod_{i=1}^{n-1} (1 - i/b).

    The product runs over exactly n-1 factors, each evaluated in double
    precision.  Each chunk of 2^20 factors, from i = 1 on, is multiplied
    out left to right, and the chunk products are multiplied into a running
    product in turn (the association perfbench/references.json pins).
    Two cases are decided without multiplying, to the same bits:

    * n - 1 < b and n(n-1) >= 80b: every factor lies in (0, 1], so no
      rounded partial product grows.  The exact product is at most
      e^(-n(n-1)/2b) <= e^-40, and rounding factors and products raises it
      by less than e^(u b (1 + ln b) + 2un) < 1.6 (u = 2^-53,
      b <= LITERAL_CAP^2/80), so the product stays below 2^-56 and
      1 - prod rounds to exactly 1.0;
    * n - 1 >= b: the factor 1 - b/b is exactly 0 (b < LITERAL_CAP < 2^53),
      so the chunk holding it multiplies out to +-0, and the running
      product stays +-0 through every later chunk that holds only factors
      of magnitude <= 1 (i <= 2b).  Only the chunks from the one holding
      i = 2b + 1 are multiplied, to keep the NaN that an overflowing one
      gives (0 * inf).

    Raises CapacityError for n > LITERAL_CAP.
    """
    n = exact_index("n", n)
    _check_literal_cap(n)
    if n <= 1:
        return 0.0
    b, bf = space.count, float(space.count)

    def factors(i):
        return np.subtract(1.0, np.divide(i, bf, out=i), out=i)

    if n - 1 < b:
        if n * (n - 1) >= 80 * b:
            return 1.0
        return 1.0 - _chunked_product(1, n, factors, 1.0)
    return 1.0 - _chunked_product(1 + 2 * b // _CHUNK * _CHUNK, n, factors, 0.0)


def _chunked_product(start: int, stop: int, factors, prod: float) -> float:
    """prod times factors(i) for i = start..stop-1, where factors maps a
    float array of indices to its factors in place.

    Each chunk of _CHUNK indices from start is multiplied out left to right
    and then into prod.  The factors are built _PIECE at a time in one
    buffer, and each piece continues its chunk's product as the initial
    value of a sequential reduce, so the bits are those of whole chunks.
    """
    ramp = np.arange(min(_PIECE, max(stop - start, 0)), dtype=np.float64)
    buf = np.empty_like(ramp)
    for lo in range(start, stop, _CHUNK):
        end = min(stop, lo + _CHUNK)
        part = 1.0
        # the literal product may overflow where n is far above b; that
        # overflow is the behaviour measured, not a fault to report
        with np.errstate(over="ignore"):
            for p in range(lo, end, _PIECE):
                i = np.add(ramp[:end - p], p, out=buf[:end - p])
                part = np.multiply.reduce(factors(i), initial=part)
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
    doubles near c exceeds 1 (b >= 2^54) that length is wrong, and ``/``
    recycles the shorter operand up to max(length, n) factors; rep(c, 0) is
    empty, so n = 0 gives 0.

    These semantics are taken from R's seq_colon rule and its recycling of
    arithmetic operands, not checked against a running R.  R's prod()
    accumulates sequentially in long double; here chunk products are
    accumulated in double, as in ``collision_probability_naive``, a
    rounding-level difference.  When no operand is recycled (length = n, as
    for every b < 2^53) and n - 1 >= b or n(n-1) >= 80b, the result is
    exactly 1 and nothing is multiplied: from the zero factor c - b on the
    product is exactly 0 (multiplying on would meet the overflowing factors
    past it and give NaN, as ``collision_probability_naive`` does for n far
    above b), and a saturated product rounds away as in that function.
    Raises CapacityError for n > LITERAL_CAP.
    """
    n = exact_index("n", n)
    _check_literal_cap(n)
    b, c = space.count, float(space.count)
    length = pbirthday_sequence_length(n, space)
    if length == n and (n - 1 >= b or n * (n - 1) >= 80 * b):
        return 1.0
    spare = np.empty(_PIECE)

    def factors(i):
        if length < n:
            # i % length, exact as i < 2^53; np.fmod takes twice as long
            q = np.divide(i, length, out=spare[:i.size])
            i -= np.multiply(np.floor(q, out=q), length, out=q)
        return np.divide(np.subtract(c, i, out=i), c, out=i)

    return 1.0 - _chunked_product(0, max(length, n) if n else 0, factors, 1.0)


def collision_probability(n: int, space: BucketSpace) -> float:
    """Stable birthday probability -expm1(L), L = sum_{i<n} log1p(-i/b), in [0, 1].

    Returns 0 for n <= 1 and (pigeonhole) exactly 1 for n > b.  Otherwise
    the cost is bounded at every n; three regimes, told apart in exact
    integers:

    * saturated, n(n-1) >= 80b: L <= -n(n-1)/(2b) <= -40 because
      log1p(-x) <= -x, and -expm1(-40) rounds to exactly 1.0, returned as is;
    * series, 2(n-1) <= b: L = -sum_{j>=1} S_j(n-1) / (j b^j) with the
      power sums S_j(m) = sum_{i<=m} i^j taken exactly in integers.  With
      r = (n-1)/b, S_{j+1} <= m S_j bounds the tail after term j by
      term_j * r/(1-r); terms stop once that is below 2^-64 of the partial
      sum, after at most 59 of them (r = 1/2), and the exact rational
      partial sum is rounded to a double once;
    * otherwise, which forces n < 161: the compensated sum_log1p of the
      n-1 terms.
    """
    n = exact_index("n", n)
    if n <= 1:
        return 0.0
    b = space.count
    if n > b:
        return 1.0
    m = n - 1
    if n * m >= 80 * b:
        return 1.0
    if 2 * m <= b:
        return -math.expm1(-_log_falling_series(m, b)[0])
    return -math.expm1(sum_log1p(-np.arange(1, n) / float(b)))


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
        raise CapacityError(f"stirling2 is capped at n = {_TABLE_LIMIT}, got {n}")
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
            return sum(self.probs, Fraction(0))
        _, p = self._nonzero()
        return math.fsum(p.tolist())

    def mean(self) -> float:
        """Expected collision count sum c * P(C = c)."""
        if self.representation == "exact-rational":
            return float(sum((c * p for c, p in enumerate(self.probs)), Fraction(0)))
        c, p = self._nonzero()
        return math.fsum((c * p).tolist())

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
    n <= EXACT_PMF_CAP (64); floats for n <= LOG_PMF_CAP (10^4), entries
    from 1e-290 up within 1e-12 relative and those below 2^-1022 flushed
    to 0, from one of two kernels chosen by (n, b):

    * b >> n: a Chernoff bound gives the c_max past which every entry is
      flushed.  If 2(n-1) <= b, c_max <= 256 and 2(c_max + 1) < n, P(C = c)
      for c <= c_max comes from S(n, n-c) as a sum over second-order
      Eulerian numbers, in logs: O(c_max^2), a few ms at n = 10^4, where
      the recurrence below spends 8-16 ms on entries that end as 0.
    * otherwise: q_n(n - c), where q_t(l) = P(t draws occupy exactly l
      buckets) follows Knuth's occupancy recurrence (TAOCP 3.3.2)
      q_t(l) = q_{t-1}(l) l/b + q_{t-1}(l-1) (1 - (l-1)/b), q_1(1) = 1,
      in plain probabilities over the window of l that holds all but
      2^-1022 of the mass, 16 draws at a time through one band of T^16
      (T the one-draw transition): O(n * window), at most O(n^2), 15-50 ms
      at n = 10^4.

    n above LOG_PMF_CAP raises CapacityError.
    """
    n = exact_index("n", n, 1)
    if n <= EXACT_PMF_CAP:
        return _pmf_exact_rational(n, space)
    if n > LOG_PMF_CAP:
        raise CapacityError(f"float-mode pmf capped at n = {LOG_PMF_CAP}, got {n}")
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
    evaluated in logs, one row of e_c at a time; entries past c_max are 0.
    """
    b, bf = space.count, float(space.count)
    # log((b)_(n-c) / b^(n-c)); _eulerian_window checks the series' domain 2(n-1) <= b
    steps = np.log1p(-np.arange(n - 1, n - 1 - c_max, -1) / bf)
    log_falling = -_log_falling_series(n - 1, b)[0] - np.concatenate(([0.0], np.cumsum(steps)))
    # prefix sums of log1p(o/n), o = -2c_max .. c_max-1: the log products
    off = 2 * c_max
    prefix = np.concatenate(([0.0], np.cumsum(np.log1p(np.arange(-off, c_max) / n))))
    ks = np.arange(c_max + 1)
    logs = np.log(np.arange(1, off + 1))  # logs[j] = log(j + 1)
    log_half_n2_b = math.log(n * n / (2.0 * bf))
    log_p = np.empty(c_max + 1)
    row = np.zeros(1)  # log e_c(k) for k = 0..c-1; rows 0 and 1 are [0]
    for c in range(c_max + 1):
        if c >= 2:
            # <<c,k>> = (k+1) <<c-1,k>> + (2c-1-k) <<c-1,k-1>>
            new = np.empty(c)
            new[:c - 1] = logs[:c - 1] + row
            new[c - 1] = -np.inf
            new[1:] = np.logaddexp(new[1:], logs[2 * c - 3:c - 2:-1] + row)
            new -= logs[2 * c - 2]
            row = new
        k = ks[:row.size]
        terms = row + prefix[off + c - k] - prefix[off - c - k]
        top = terms.max()
        log_p[c] = (log_falling[c] + c * log_half_n2_b - math.lgamma(c + 1)
                    + top + math.log(np.exp(terms - top).sum()))
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
    _BLOCK window) work in about n / _BLOCK numpy calls, 15-50 ms at
    n = 10^4.  q_1 is e_1, so the first (n - 1) mod _BLOCK draws are
    column 1 of the band while it is built.  The mass at or below a fixed
    l never grows, so dropping q[lo] (and moving lo up) while the total
    dropped stays below 2^-1022 moves no entry by more than that; a zero
    test would not do, as stuck subnormals never reach 0.
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
            q[i] = band[m + 1 - i, i]
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
        # drop from the head while the total dropped stays below 2^-1022;
        # those partial sums are subnormal, so exact in any order
        while lo < top:
            cum = dropped + np.cumsum(q[lo:min(lo + m, top)])
            drop = int(np.searchsorted(cum, _TINY))
            if drop:
                dropped = cum[drop - 1]
                q[lo:lo + drop] = 0.0
                lo += drop
            if drop < cum.size:
                break
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
    if not 0 < real_number("target", target) < math.inf:
        raise DomainError(f"target must be positive and finite, got {target}")
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
    bracket not finite with 0 <= lo < hi, and BracketingError when f(lo)
    and f(hi) share a sign.
    """
    if not 0 < real_number("target", target) < math.inf:
        raise DomainError(f"target must be positive and finite, got {target}")
    if not 0 <= real_number("lo", lo) < real_number("hi", hi) < math.inf:
        raise DomainError(f"need finite 0 <= lo < hi, got [{lo}, {hi}]")

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
    while hi - lo > _SOLVE_REL_TOL * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
