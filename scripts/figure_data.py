#!/usr/bin/env python3
"""Regenerate the plot-ready CSV data sets in one go.

Writes into the output directory (default ./figure_data):

  collisions_trajectory.csv   index,cumulative_collisions: cumulative
                              collision count per draw index
  collisions_positions.csv    collision_rank,position: 1-based position of
                              each duplicate draw
  expected_scan.csv           k,naive,stable expected collisions, k = 32..64
  prob_relative_error.csv     k,relative_error,zero_error of R's pbirthday()
                              vs the stable collision probability, k = 32..64

Usage: python scripts/figure_data.py [outdir] [--n N] [--bits K] [--seed S]

N, K and S are exact integers, also in scientific form (1e6); 1.5 is
refused.

Everything is deterministic given the arguments; plotting is left to
external tooling (the CSVs are gnuplot/pandas-friendly).
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from collision_lab.cli import main as cli_main  # noqa: E402


def run(argv):
    code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"command failed: {argv}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?", default="figure_data")
    # passed through as text: the CLI parses them exactly ('1e6' yes, '1.5' no)
    ap.add_argument("--n", default=str(10 ** 6))
    ap.add_argument("--bits", default="32")
    ap.add_argument("--seed", default="271")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    run(["simulate", "--n", args.n, "--generator", f"mt19937:{args.seed}:{args.bits}",
         "--out", str(outdir / "collisions")])
    run(["scan", "--n", args.n, "--out", str(outdir / "expected_scan.csv")])
    run(["prob", "--n", args.n, "--errcmp",
         "--out", str(outdir / "prob_relative_error.csv")])

    print(f"wrote {outdir}/collisions_trajectory.csv")
    print(f"wrote {outdir}/collisions_positions.csv")
    print(f"wrote {outdir}/expected_scan.csv")
    print(f"wrote {outdir}/prob_relative_error.csv")


if __name__ == "__main__":
    main()
