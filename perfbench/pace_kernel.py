"""The reference kernels behind run.Pace, in a helper process of their own.

    python3 perfbench/pace_kernel.py python numpy

Answers each line read from stdin with one line of kernel times in seconds,
one for each kernel named on the command line, in that order, and exits at
the end of stdin.  The kernels are benchmark code that no library change
touches.  A shared machine does not slow every kind of work alike, so each
op class is scaled by the kernel that does its kind of work (see
Workload.kernel in workloads.py):

* ``python``: a pure-Python integer loop (the interpreter alone);
* ``numpy``: uint64 modular arithmetic on 4096-element arrays, cache
  resident (like the MRG32k3a lane steps);
* ``sets``: a set-building loop over float bit patterns (like the sequence
  counting loop) and np.unique over 1e5 uint64 (like the stream counting).

Running them here, and not in the runner, keeps the heap, allocator and
garbage that the library leaves behind out of their time.  Each time is the
fastest of REPEATS runs: the first run after the helper wakes pays for
caches the runner's op has just evicted.
"""

import struct
import sys
from time import perf_counter

import numpy as np

REPEATS = 3


def kernels() -> dict:
    rng = np.random.default_rng(0)
    floats = rng.random(10_000).tolist()
    words = (rng.random(100_000) * 2.0 ** 32).astype(np.uint64)
    lanes = (rng.random((3, 4096)) * 2.0 ** 31).astype(np.uint64)

    def python() -> None:
        a = 12345
        for i in range(20_000):
            a = (a * 1103515245 + i) % 2147483647

    def numpy() -> None:
        m, x = np.uint64(4294967087), lanes
        for _ in range(60):
            acc = (np.uint64(1403580) * x[1]) % m
            acc = (acc + np.uint64(810728) * x[0]) % m
            x = np.array([x[1], x[2], acc])

    def sets() -> None:
        seen = set()
        for v in floats:
            seen.add((struct.unpack("<Q", struct.pack("<d", v))[0], "f"))
        np.unique(words, return_counts=True)

    return {"python": python, "numpy": numpy, "sets": sets}


def timed(kernel) -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


def main() -> None:
    known = kernels()
    chosen = [known[name] for name in sys.argv[1:]]
    for _ in sys.stdin:
        print(" ".join(repr(min(timed(k) for _ in range(REPEATS))) for k in chosen),
              flush=True)


if __name__ == "__main__":
    main()
