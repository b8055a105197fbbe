"""Collision and tie counting over samples and generator streams.

Duplicates follow the first-occurrence convention: a draw is a duplicate
when it equals some earlier draw, so m equal values count m-1 duplicates.
Ties follow the Kendall convention: every member of a group of equal
values is a tie, so the same group counts m ties.  Equality is always on
the exact 64-bit representation (bit patterns and a datetime's unit), never on a tolerance.

A stream's draws are counted as the keys ``KBitStream.take_keys`` fills
in blocks, which are sorted in place; values a caller passes in are
never changed.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import exact_index, real_number, require_binary64
from .prng import GeneratorSpec, KBitStream

__all__ = [
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
    "write_indexed_csv",
]


_DOUBLE, _WORD = struct.Struct("<d"), struct.Struct("<Q")


def _key(value):
    # exact floats and ints first, by type identity: the common elements
    # of a mixed list, with no isinstance chain or real_number call
    kind = type(value)
    if kind is float:
        return _WORD.unpack(_DOUBLE.pack(value))[0], "f"
    if kind is int:
        return value
    # floats compare by bit payload: -0.0 != 0.0, NaNs equal per payload
    if isinstance(value, (float, np.floating)):
        value = real_number("counted values", value)  # a Python float, or refused
        return _WORD.unpack(_DOUBLE.pack(value))[0], "f"
    if isinstance(value, (np.datetime64, np.timedelta64)):  # before np.integer's int()
        return int(value.view(np.int64)), value.dtype.str
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        require_binary64("counted values", np.result_type(value))
    return value


def _keys(values) -> np.ndarray:
    """One integer key per element, equal exactly where the ``_key``s are.

    A list whose elements are all exactly ``float`` (or all exactly
    ``int``), checked by type identity in one C-level pass, is converted in
    one ``np.fromiter``: floats to their float64 bit patterns, ints to
    int64 unless one is beyond it.  Anything else (bools, numpy scalars,
    subclasses, mixed or wide values) goes through the dense-code hash map.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise TypeError(f"can only count a 1-D array, got shape {values.shape}")
        if values.dtype.kind in "fc":
            require_binary64("counted values", values.dtype)
            # widening a signalling NaN sets the invalid flag; it is a key here
            with np.errstate(invalid="ignore"):
                return values.astype(np.float64, copy=False).view(np.uint64)
        if values.dtype.kind in "iu":
            return values
        if values.dtype.kind in "mM":  # one unit per array; NaT is one payload
            return values.view(np.int64)
    if not isinstance(values, list):
        values = list(values)
    n = len(values)
    kind = type(values[0]) if n else None
    if (kind is float or kind is int) and operator.countOf(map(type, values), kind) == n:
        try:
            keys = np.fromiter(values, np.float64 if kind is float else np.int64, count=n)
            return keys.view(np.uint64) if kind is float else keys
        except OverflowError:  # an int beyond int64
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


def _summary(s: np.ndarray) -> TieSummary:
    """TieSummary of sorted keys ``s``."""
    return TieSummary.from_multiplicities(s.size, _tied_runs(s[1:] == s[:-1]))


_PHI = np.uint64(0x9E3779B97F4A7C15)  # odd, so x -> x*_PHI mod 2^64 is a bijection
_TALLY_BLOCK = 1 << 15  # entries per pass of _tally's whole-array work


def _tally(keys: np.ndarray):
    """TieSummary of the keys and the mask of first-occurrence duplicates.

    One sort of uint64 words ``hash << b | index``, where the hash is the top
    ``64 - b`` bits of ``key * _PHI mod 2^64`` and the low ``b`` bits hold
    the original index, puts every value's draws in one run of equal hashes,
    in index order: the run's head is the first occurrence and every later
    member a duplicate.  A run whose adjacent entries differ in their full
    keys mixes values that share a hash; its draws alone, in index order, go
    through ``np.unique``, whose first index per value is its first occurrence.
    The words, and the mask of adjacent entries with equal hashes, are built
    _TALLY_BLOCK entries at a time, through one block-sized scratch array.
    """
    n = keys.size
    b = max(1, (n - 1).bit_length())
    low = np.uint64((1 << b) - 1)  # the index field
    h = np.empty(n, dtype=np.uint64)
    t = np.arange(min(n, _TALLY_BLOCK), dtype=np.uint64)  # the first block's indices
    for a in range(0, n, _TALLY_BLOCK):
        w = h[a:a + _TALLY_BLOCK]
        w[:] = keys[a:a + _TALLY_BLOCK]  # int64 keys wrap, as under astype
        w *= _PHI
        w &= ~low
        w |= t[:w.size]
        t += np.uint64(_TALLY_BLOCK)
    h.sort()
    same = np.empty(max(n - 1, 0), dtype=bool)  # adjacent entries with equal hashes
    for a in range(0, n - 1, _TALLY_BLOCK):
        e = min(a + _TALLY_BLOCK, n - 1)
        np.less_equal(np.bitwise_xor(h[a + 1:e + 1], h[a:e], out=t[:e - a]), low,
                      out=same[a:e])
    counts = _tied_runs(same)
    tied = np.flatnonzero(same)
    earlier = (h[tied] & low).astype(np.intp)
    later = (h[tied + 1] & low).astype(np.intp)
    del h, same  # the tied entries hold all that is left to read
    is_dup = np.zeros(n, dtype=bool)
    clash = keys[later] != keys[earlier]
    if clash.any():
        run = np.cumsum(np.diff(tied, prepend=-2) != 1) - 1
        mixed = np.zeros(counts.size, dtype=bool)
        mixed[run[clash]] = True
        in_mixed = mixed[run]
        sub = np.union1d(earlier[in_mixed], later[in_mixed])
        _, first, sub_counts = np.unique(keys[sub], return_index=True, return_counts=True)
        is_dup[sub] = True
        is_dup[sub[first]] = False
        later = later[~in_mixed]
        counts = np.concatenate([counts[~mixed], sub_counts])
    is_dup[later] = True
    return TieSummary.from_multiplicities(n, counts), is_dup


def count_duplicates(values: Sequence) -> int:
    """Number of elements equal to at least one earlier element."""
    return _summary(np.sort(_keys(values))).duplicates


def count_ties(values: Sequence) -> int:
    """Total multiplicity of all values appearing more than once."""
    return _summary(np.sort(_keys(values))).ties


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


def collision_summary(stream: KBitStream, n: int) -> TieSummary:
    """TieSummary of the next ``n`` draws (no positional trace).

    The draws arrive in blocks as the stream's keys (``take_keys``), which
    are ours, so they are sorted in place.
    """
    keys = stream.take_keys(n)
    keys.sort()
    return _summary(keys)


def trace_collisions(stream: KBitStream, n: int):
    """Consume ``n`` draws; return (TieSummary, CollisionTrace).

    Duplicate detection is exact: one sort of hash-and-index words finds
    the runs, and the full k-bit keys decide wherever hashes tie, so it
    agrees with count_duplicates/count_ties on the materialized sequence.
    Draw counts above the distinct-value cap raise CapacityError from
    ``take_keys``, before anything is allocated, instead of degrading to
    approximate counting.
    """
    summary, is_dup = _tally(stream.take_keys(n))
    # summed in place: np.cumsum of the mask would widen it in a second copy
    cumulative = is_dup.astype(np.int64)
    np.cumsum(cumulative, out=cumulative)
    return summary, CollisionTrace(positions=np.flatnonzero(is_dup) + 1, cumulative=cumulative)


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


def write_indexed_csv(out, header: Optional[str], values, first: int = 1) -> None:
    """CSV ``header`` row (none if it is None), then one ``i,value`` row per
    value, i from ``first``, an integer >= 0 whose last row's index fits
    int64 (first + len(values) - 1 <= 2^63 - 1).

    ``values`` (a 1-D integer array, or Python ints) must be nondecreasing
    and in 0..2^63-1, as every trace column and every run of zero pmf rows
    is; nothing is cast.  Any other column (bools, floats, strings, one not
    1-D) raises TypeError, an unsorted one ValueError, and one whose first
    or last value is out of range DomainError, as does a ``first`` out of
    range, before anything is written.
    Then both columns change digit width only at the rows where they reach
    a power of ten, and between those rows (and at most ``_CSV_CHUNK``
    apart) each block of rows is one fixed-width byte table, filled digit
    by digit with numpy and written as one string.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise TypeError(f"can only write a 1-D column, got shape {values.shape}")
        if values.dtype.kind not in "iu":
            raise TypeError(f"CSV column values must be integers, got {values.dtype}")
        column = values
    else:  # Python ints only, by exact type; those past int64 are refused below
        values = list(values)
        if operator.countOf(map(type, values), int) != len(values):
            odd = next(v for v in values if type(v) is not int)
            raise TypeError(f"CSV column values must be an integer array or Python ints, "
                            f"got {odd!r} ({type(odd).__name__})")
        try:
            column = np.fromiter(values, np.int64, count=len(values))
        except OverflowError:
            column = np.array(values, dtype=object)
    if np.any(column[1:] < column[:-1]):
        raise ValueError("CSV trace columns must be nondecreasing")
    for end in column[:1].tolist() + column[-1:].tolist():  # the least and the greatest
        exact_index("CSV column values", end, 0, 2 ** 63 - 1)
    values = column.astype(np.int64, copy=False)
    n = values.size
    first = exact_index("first", first, 0, 2 ** 63 - max(n, 1))
    if header is not None:
        out.write(header + "\n")
    cuts = sorted({*np.clip(_POWERS_OF_TEN - first, 0, n).tolist(),  # row a holds index first + a
                   *np.searchsorted(values, _POWERS_OF_TEN).tolist(),
                   *range(0, n, _CSV_CHUNK), n})
    for a, b in zip(cuts, cuts[1:]):
        wi, wv = len(str(first + a)), len(str(values[a]))
        block = np.empty((wi + wv + 2, b - a), dtype=np.uint8)
        _put_digits(block[:wi], np.arange(first + a, first + b, dtype=np.int64))
        _put_digits(block[wi + 1:-1], values[a:b])
        block += ord("0")
        block[wi] = ord(",")
        block[-1] = ord("\n")
        out.write(block.T.tobytes().decode("ascii"))


def write_trajectory_csv(trace: CollisionTrace, out) -> None:
    """CSV `index,cumulative_collisions`: collisions as a function of sample size."""
    write_indexed_csv(out, "index,cumulative_collisions", trace.cumulative)


def write_positions_csv(trace: CollisionTrace, out) -> None:
    """CSV `collision_rank,position`: the 1-based index of each duplicate draw."""
    write_indexed_csv(out, "collision_rank,position", trace.positions)
