#!/usr/bin/env python3
"""Collisions from underflow: tiny-shape gamma variates truncate to zero.

Uniform doubles are not the only source of colliding random numbers.  A
gamma distribution with a very small shape parameter pushes nearly all of
its probability mass toward 0; variates smaller than the smallest positive
representable double underflow to exactly 0.0, and every one of those is a
collision with every other.

This is a demonstration script, not part of the library: run it with

    python scripts/gamma_truncation_demo.py [shape] [count]

The shape must be above 0 and below 2^1023, and the count an exact
integer of at least 1 ('1e5' works); anything else is refused with one
``error:`` line and exit status 2.

The default shape 1e-3 makes roughly half of all draws underflow.  For a
shape-a gamma, P(X = 0 after rounding) ~ P(X < 2^-1074) ~ (2^-1074)^a / a
up to constants, which is sizeable once a is of order 1/1000.
"""

import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from collision_lab import count_duplicates, count_ties  # noqa: E402
from collision_lab.errors import exact_index, exact_int  # noqa: E402


def parse_args(argv):
    """(shape, count) from the command line; ValueError names a bad one."""
    shape = float(argv[0]) if argv else 1e-3
    # gammavariate never returns for a NaN shape, nor for one whose
    # 2*shape - 1 overflows to inf
    if not 0 < shape < 2.0 ** 1023:
        raise ValueError(f"shape must be above 0 and below 2^1023, got {argv[0]!r}")
    count = exact_index("count", exact_int(argv[1]), 1) if len(argv) > 1 else 10 ** 5
    return shape, count


def main():
    try:
        shape, count = parse_args(sys.argv[1:])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)

    rng = random.Random(271)
    draws = [rng.gammavariate(shape, 1.0) for _ in range(count)]

    first_ten = [x == 0.0 for x in draws[:10]]
    zeros = sum(1 for x in draws if x == 0.0)
    dups = count_duplicates(draws)
    ties = count_ties(draws)

    print(f"gamma(shape={shape}) variates: {count}")
    print(f"first ten equal to zero?     {first_ten}")
    print(f"draws truncated to exactly 0: {zeros} ({zeros / count:.1%})")
    print(f"duplicates (first-occurrence convention): {dups}")
    print(f"ties (every member of an equal group):    {ties}")
    print()
    print("Every underflowed draw collides with every other; a continuous")
    print("distribution turns into a point mass at 0.0 purely through the")
    print("floating-point representation.")


if __name__ == "__main__":
    main()
