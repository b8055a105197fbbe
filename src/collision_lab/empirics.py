"""Collision and tie counting over samples and generator streams.

Duplicates follow the first-occurrence convention: a draw is a duplicate
when it equals some earlier draw, so m equal values count m-1 duplicates.
Ties follow the Kendall convention: every member of a group of equal
values is a tie, so the same group counts m ties.  Equality is always on
the exact 64-bit representation (bit patterns), never on a tolerance.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CapacityError, exact_index, exact_int
from .prng import GeneratorSpec, KBitStream

__all__ = [
    "DEFAULT_MAX_DISTINCT",
    "MAX_DISTINCT_ENV",
    "TieSummary",
    "CollisionTrace",
    "count_duplicates",
    "count_ties",
    "collision_positions",
    "trace_collisions",
    "collision_summary",
    "run_seeds",
    "write_trajectory_csv",
    "write_positions_csv",
]

DEFAULT_MAX_DISTINCT = 10 ** 8
MAX_DISTINCT_ENV = "COLLISION_LAB_MAX_DISTINCT"


def _require_binary64(dtype: np.dtype) -> None:
    """Refuse complex values and floats wider than binary64: they have no
    binary64 bit pattern, and rounding them onto one would merge values."""
    if dtype.kind == "c" or np.finfo(dtype).nmant > 52:
        raise TypeError(f"cannot count {dtype} values: counting compares "
                        f"binary64 bit patterns")


def _key(value):
    # floats compare by bit payload: -0.0 != 0.0, NaNs equal per payload
    if isinstance(value, (float, np.floating)):
        if not isinstance(value, float):
            # a numpy float other than float64, which subclasses float
            _require_binary64(value.dtype)
        return struct.unpack("<Q", struct.pack("<d", float(value)))[0], "f"
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        _require_binary64(np.result_type(value))
    return value


def _keys(values) -> np.ndarray:
    """One integer key per element, equal exactly where the ``_key``s are."""
    if isinstance(values, np.ndarray) and values.ndim == 1:
        if values.dtype == np.float64:
            return values.view(np.uint64)
        if values.dtype.kind in "fc":
            _require_binary64(values.dtype)
            # widening a signalling NaN sets the invalid flag; it is a key here
            with np.errstate(invalid="ignore"):
                return values.astype(np.float64).view(np.uint64)
        if values.dtype.kind in "iu":
            return values
    if not isinstance(values, list):
        values = list(values)
    types = set(map(type, values))
    if types == {float}:
        return np.array(values, dtype=np.float64).view(np.uint64)
    if types == {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    # mixed, wide or non-numeric values: dense codes of the distinct _keys
    codes = {}
    return np.fromiter((codes.setdefault(_key(v), len(codes)) for v in values),
                       dtype=np.int64, count=len(values))


def _tied_runs(equal: np.ndarray) -> np.ndarray:
    """Multiplicities m >= 2 of sorted keys ``s``, from ``equal = s[1:] == s[:-1]``.

    The indices where ``equal`` holds come in consecutive runs, and a run
    of ``r`` such indices is one value seen ``r + 1`` times.  Only tied
    values are looked at, so no per-distinct-value array is built.
    """
    tied = np.flatnonzero(equal)
    run_starts = np.flatnonzero(np.diff(tied, prepend=-2) != 1)
    return np.diff(run_starts, append=tied.size) + 1


def _summary(keys: np.ndarray) -> TieSummary:
    """TieSummary of the keys from one unstable sort."""
    s = np.sort(keys)
    return TieSummary.from_multiplicities(keys.size, _tied_runs(s[1:] == s[:-1]))


def _argsort_tally(keys: np.ndarray):
    """Multiplicities of the tied keys and the mask of first-occurrence
    duplicates, from one unstable argsort: the first occurrence of each
    value is the smallest original index in its group."""
    order = np.argsort(keys)
    s = keys[order]
    new_run = np.ones(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=new_run[1:])
    is_dup = np.ones(s.size, dtype=bool)
    is_dup[np.minimum.reduceat(order, np.flatnonzero(new_run))] = False
    return _tied_runs(~new_run[1:]), is_dup


_PHI = np.uint64(0x9E3779B97F4A7C15)  # odd, so x -> x*_PHI mod 2^64 is a bijection


def _tally(keys: np.ndarray):
    """TieSummary of the keys and the mask of first-occurrence duplicates.

    One sort of uint64 words ``hash << b | index``, where the hash is the top
    ``64 - b`` bits of ``key * _PHI mod 2^64`` and the low ``b`` bits hold
    the original index, puts every value's draws in one run of equal hashes,
    in index order: the run's head is the first occurrence and every later
    member a duplicate.  A run whose adjacent entries differ in their full
    keys mixes values that share a hash; its draws alone, in index order,
    go through ``_argsort_tally``.
    """
    n = keys.size
    b = max(1, (n - 1).bit_length())
    low = np.uint64((1 << b) - 1)  # the index field
    h = keys.astype(np.uint64)
    h *= _PHI
    h &= ~low
    h |= np.arange(n, dtype=np.uint64)
    h.sort()
    same = (h[1:] ^ h[:-1]) <= low  # adjacent entries with equal hashes
    counts = _tied_runs(same)
    tied = np.flatnonzero(same)
    earlier = (h[tied] & low).astype(np.intp)
    later = (h[tied + 1] & low).astype(np.intp)
    is_dup = np.zeros(n, dtype=bool)
    clash = keys[later] != keys[earlier]
    if clash.any():
        run = np.cumsum(np.diff(tied, prepend=-2) != 1) - 1
        mixed = np.zeros(counts.size, dtype=bool)
        mixed[run[clash]] = True
        in_mixed = mixed[run]
        sub = np.union1d(earlier[in_mixed], later[in_mixed])
        sub_counts, sub_dup = _argsort_tally(keys[sub])
        is_dup[sub[sub_dup]] = True
        later = later[~in_mixed]
        counts = np.concatenate([counts[~mixed], sub_counts])
    is_dup[later] = True
    return TieSummary.from_multiplicities(n, counts), is_dup


def count_duplicates(values: Sequence) -> int:
    """Number of elements equal to at least one earlier element."""
    return _summary(_keys(values)).duplicates


def count_ties(values: Sequence) -> int:
    """Total multiplicity of all values appearing more than once."""
    return _summary(_keys(values)).ties


def collision_positions(values: Sequence) -> list:
    """1-based indices of duplicate occurrences, ascending."""
    _, is_dup = _tally(_keys(values))
    return (np.flatnonzero(is_dup) + 1).tolist()


@dataclass
class TieSummary:
    """Duplicate count, Kendall tie count and multiplicity histogram.

    histogram maps multiplicity m >= 2 to the number of distinct values
    appearing exactly m times.  Always: C = sum (m-1)*count(m) and
    T = sum m*count(m); whenever C >= 1, C+1 <= T <= 2C.
    """

    n: int
    duplicates: int
    ties: int
    histogram: dict = field(default_factory=dict)

    @classmethod
    def from_multiplicities(cls, n: int, counts: np.ndarray) -> "TieSummary":
        """Summary of ``n`` values from the multiplicities of their values.

        Entries below 2 are ignored, so ``counts`` may list every distinct
        value or the tied ones alone: C = sum (m-1) and T = sum m over m >= 2.
        """
        tied = counts[counts >= 2]
        mult, mult_counts = np.unique(tied, return_counts=True)
        histogram = {int(m): int(c) for m, c in zip(mult, mult_counts)}
        ties = int(tied.sum())
        return cls(n=n, duplicates=ties - tied.size, ties=ties, histogram=histogram)


@dataclass
class CollisionTrace:
    """Where duplicates landed: 1-based positions and the running count."""

    positions: np.ndarray
    cumulative: np.ndarray


def _check_cap(n: int):
    """Refuse holding ``n`` draws in memory at once beyond the cap."""
    env = os.environ.get(MAX_DISTINCT_ENV)
    try:
        cap = exact_index(MAX_DISTINCT_ENV, exact_int(env), 1) if env else DEFAULT_MAX_DISTINCT
    except ValueError:
        raise ValueError(
            f"{MAX_DISTINCT_ENV} must be a positive exact integer, got {env!r}") from None
    if n > cap:
        raise CapacityError(
            f"{n} draws held at once exceed the distinct-value cap of {cap}; "
            f"raise it via the {MAX_DISTINCT_ENV} environment variable "
            f"if you really want to hold that many values in memory")


def _stream_keys(stream: KBitStream, n: int) -> np.ndarray:
    """The next ``n`` draws as sort keys, uint32 when they fit in 32 bits."""
    keys = stream.take_kbits(n)
    return keys.astype(np.uint32) if stream.spec.output_bits <= 32 else keys


def collision_summary(stream: KBitStream, n: int) -> TieSummary:
    """TieSummary of the next ``n`` draws (no positional trace)."""
    _check_cap(n)
    return _summary(_stream_keys(stream, n))


def trace_collisions(stream: KBitStream, n: int):
    """Consume ``n`` draws; return (TieSummary, CollisionTrace).

    Duplicate detection is exact: one sort of hash-and-index words finds
    the runs, and the full k-bit keys decide wherever hashes tie, so it
    agrees with count_duplicates/count_ties on the materialized sequence.
    Draw counts above the distinct-value cap raise CapacityError instead of
    degrading to approximate counting.
    """
    _check_cap(n)
    summary, is_dup = _tally(_stream_keys(stream, n))
    trace = CollisionTrace(
        positions=np.flatnonzero(is_dup) + 1,
        cumulative=np.cumsum(is_dup),
    )
    return summary, trace


def run_seeds(family: str, output_bits: int, n: int, seeds: Sequence[int]) -> list:
    """TieSummary per seed, in seed order.

    Each seed gets its own stream (single-owner state), built and counted
    one after another, so one stream of ``n`` draws is held at a time and
    the distinct-value cap applies to each stream alone.
    """
    return [collision_summary(KBitStream(GeneratorSpec(family, seed, output_bits)), n)
            for seed in seeds]


_CSV_CHUNK = 1 << 16  # rows formatted at once; bounds the writer's memory
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)  # every width change in int64


def _put_digits(rows: np.ndarray, values: np.ndarray) -> None:
    """Decimal digits of ``values``, most significant first, down ``rows``."""
    # numpy vectorizes uint32 division by a constant; nine digits fit in it
    v = values.astype(np.uint32 if len(rows) <= 9 else np.uint64)
    for row in rows[::-1]:
        q = v // 10
        np.subtract(v, q * 10, out=row, casting="unsafe")
        v = q


def _write_indexed_csv(out, header: str, values) -> None:
    """CSV ``header`` row, then one ``i,value`` row per value, i from 1.

    ``values`` must be nonnegative and nondecreasing, as every trace column
    is.  Then both columns change digit width only at the rows where they
    reach a power of ten, and between those rows (and at most ``_CSV_CHUNK``
    apart) each block of rows is one fixed-width byte table, filled digit by
    digit with numpy and written as one string.
    """
    values = np.asarray(values, dtype=np.int64)
    n = values.size
    if n and (values[0] < 0 or np.any(values[1:] < values[:-1])):
        raise ValueError("CSV trace columns must be nonnegative and nondecreasing")
    out.write(header + "\n")
    cuts = sorted({*np.minimum(_POWERS_OF_TEN - 1, n).tolist(),  # row a holds index a + 1
                   *np.searchsorted(values, _POWERS_OF_TEN).tolist(),
                   *range(0, n, _CSV_CHUNK), n})
    for a, b in zip(cuts, cuts[1:]):
        wi, wv = len(str(a + 1)), len(str(values[a]))
        block = np.empty((wi + wv + 2, b - a), dtype=np.uint8)
        _put_digits(block[:wi], np.arange(a + 1, b + 1, dtype=np.int64))
        _put_digits(block[wi + 1:-1], values[a:b])
        block += ord("0")
        block[wi] = ord(",")
        block[-1] = ord("\n")
        out.write(block.T.tobytes().decode("ascii"))


def write_trajectory_csv(trace: CollisionTrace, out) -> None:
    """CSV `index,cumulative_collisions`: collisions as a function of sample size."""
    _write_indexed_csv(out, "index,cumulative_collisions", trace.cumulative)


def write_positions_csv(trace: CollisionTrace, out) -> None:
    """CSV `collision_rank,position`: the 1-based index of each duplicate draw."""
    _write_indexed_csv(out, "collision_rank,position", trace.positions)
