#!/usr/bin/env python3
"""Collisions from underflow: tiny-shape gamma variates truncate to zero.

Uniform doubles are not the only source of colliding random numbers.  A
gamma distribution with a very small shape parameter pushes nearly all of
its probability mass toward 0; variates smaller than the smallest positive
representable double underflow to exactly 0.0, and every one of those is a
collision with every other.

This is a demonstration script, not part of the library: run it with

    python scripts/gamma_truncation_demo.py [shape] [count]

The default shape 1e-3 makes roughly half of all draws underflow.  For a
shape-a gamma, P(X = 0 after rounding) ~ P(X < 2^-1074) ~ (2^-1074)^a / a
up to constants, which is sizeable once a is of order 1/1000.
"""

import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from collision_lab import count_duplicates, count_ties  # noqa: E402


def main():
    shape = float(sys.argv[1]) if len(sys.argv) > 1 else 1e-3
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 10 ** 5

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
