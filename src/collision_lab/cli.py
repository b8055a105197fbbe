"""Command-line front end.

Subcommands: expect, scan, prob, pmf, simulate, solve, inspect.  Defaults
are the headline case n = 10^6 draws in a 32-bit setup.  Reals print with
7 significant digits in human output and 17 (round-trip exact) in CSV;
scan and pmf print CSV only.

Each subcommand writes its whole output into a buffer; ``main`` sends that
buffer to stdout or to ``--out`` once the subcommand has returned.  A
refused call exits 1 with one ``error:`` line on stderr and writes nothing
to stdout or ``--out``.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys

import numpy as np

from . import analytics, empirics, ieee754
from .analytics import BucketSpace
from .errors import CapacityError, exact_index, exact_int, within_budget
from .prng import FAMILIES, GeneratorSpec, KBitStream, seeds_from_base
from .stable_math import StableEvalReport

DEFAULT_N = 10 ** 6
DEFAULT_BITS = 32
# simulate costs --seeds x (--n + SEED_SETUP_DRAWS) draws: building a cmrg
# stream and counting its one draw, the dearest setup of the three families,
# takes 0.19-0.21 ms (mt19937 0.17 ms, splitcounter 0.05 ms), as long as
# about 22,000-28,000 draws at 7.5-8.5 ns a draw (2-core x86-64)
SEED_SETUP_DRAWS = 20_000
# about 15 s of mt19937:32 draws, and 60 s of cmrg:40's, the slowest width
SIMULATE_BUDGET = 2 * 10 ** 9


def _fmt(x: float, fmt: str) -> str:
    return format(float(x), ".17g" if fmt == "csv" else ".7g")


def _n(args) -> int:
    return DEFAULT_N if args.n is None else args.n


def _space_from(args) -> BucketSpace:
    if args.bits is not None and args.buckets is not None:
        raise ValueError("give exactly one of --bits or --buckets")
    if args.buckets is not None:
        return BucketSpace.exact(args.buckets)
    return BucketSpace.power_of_two(DEFAULT_BITS if args.bits is None else args.bits)


def _exact_int(text: str) -> int:
    """An exact integer, also in scientific form ('1e6'); '1.5' is refused."""
    try:
        return exact_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_range(text: str, lo_default, hi_default, conv):
    if text is None:
        return lo_default, hi_default
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"--range must be lo:hi, got {text!r}")
    lo, hi = conv(parts[0]), conv(parts[1])
    if lo > hi:
        raise ValueError(f"--range must have lo <= hi, got {text!r}")
    return lo, hi


def _add_common(sub, n=True, space=True, out=True, fmt=True):
    if n:
        sub.add_argument("--n", type=_exact_int, default=None,
                         help=f"sample size (default {DEFAULT_N})")
    if space:
        sub.add_argument("--bits", type=_exact_int, default=None,
                         help=f"k-bit setup, buckets = 2^k (default {DEFAULT_BITS})")
        sub.add_argument("--buckets", type=_exact_int, default=None,
                         help="explicit bucket count instead of --bits")
    if out:
        sub.add_argument("--out", default=None, help="write output to this path")
    if fmt:
        sub.add_argument("--format", choices=("csv", "human"), default="human")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="collision-lab",
        description="Collision statistics of k-bit random number generation",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("expect", help="expected collision count, naive and stable")
    _add_common(s)
    s.set_defaults(run=cmd_expect)

    s = sub.add_parser("scan", help="CSV k,naive,stable over a bit range")
    _add_common(s, space=False, fmt=False)
    s.add_argument("--range", default=None, help="k range lo:hi (default 32:64)")
    s.set_defaults(run=cmd_scan)

    s = sub.add_parser("prob", help="collision probability, naive and stable")
    _add_common(s)
    s.add_argument("--errcmp", action="store_true",
                   help="emit CSV k,relative_error of R's pbirthday() against "
                        "the stable form over the bit range instead")
    s.add_argument("--range", default=None, help="k range for --errcmp (default 32:64)")
    s.set_defaults(run=cmd_prob)

    s = sub.add_parser("pmf", help="CSV c,probability of the exact collision distribution")
    _add_common(s, fmt=False)
    s.set_defaults(run=cmd_pmf)

    s = sub.add_parser("simulate", help="count collisions in generated streams")
    _add_common(s, out=False)
    s.add_argument("--seeds", type=_exact_int, default=1,
                   help="number of seeds (default 1); a run costs seeds x (n + "
                        f"{SEED_SETUP_DRAWS}) draws, at most {SIMULATE_BUDGET:,}, as each "
                        f"stream's setup takes as long as {SEED_SETUP_DRAWS} draws")
    s.add_argument("--generator", default=None,
                   help="family:seed:bits, families " + "/".join(FAMILIES) +
                        "; the seed is the base of --seeds (default mt19937:1:<bits>)")
    s.add_argument("--out", dest="trace_prefix", metavar="OUT", default=None,
                   help="prefix for <out>_trajectory.csv and <out>_positions.csv "
                        "(first seed's trace)")
    s.set_defaults(run=cmd_simulate)

    s = sub.add_parser("solve", help="invert the expected-collision curve")
    _add_common(s)
    s.add_argument("--target", type=float, required=True,
                   help="target expected collision count")
    s.add_argument("--range", default=None,
                   help="bracket lo:hi for the sample-size solve (default 1:1e12, "
                        "or 1:2*(target+buckets) when the root lies past 1e12)")
    s.set_defaults(run=cmd_solve)

    s = sub.add_parser("inspect", help="IEEE-754 anatomy of a double")
    s.add_argument("value", help="decimal ('1.5e-3'), hex ('0x1.8p1'), inf, nan, -0.0; "
                                 "a value that argparse reads as an option, such as "
                                 "-1e-300, -inf or -0x1p-1074, needs -- before it")
    s.add_argument("--format", choices=("csv", "human"), default="human")
    s.set_defaults(run=cmd_inspect)

    return p


# parse_args leaves the parser unchanged, so one parser serves every call
_parser = functools.cache(build_parser)


# --------------------------------------------------------------------------
# Each cmd_x(args, out) resolves its own arguments and writes into `out`.


def _write_comparison(out, fmt: str, n: int, space: BucketSpace, label: str,
                      report: StableEvalReport) -> None:
    """One naive/stable point as CSV or as aligned human-readable lines."""
    naive, stable, rel = report.naive_value, report.stable_value, report.relative_error
    if fmt == "csv":
        out.write("n,buckets,naive,stable,relative_difference\n")
        out.write(",".join([str(n), str(space), _fmt(naive, "csv"), _fmt(stable, "csv"),
                            "" if rel is None else _fmt(rel, "csv")]) + "\n")
    else:
        out.write(f"n = {n}, buckets = {space}\n")
        out.write(f"{label} (stable) = {_fmt(stable, 'human')}\n")
        out.write(f"{label} (naive)  = {_fmt(naive, 'human')}\n")
        if rel is not None:
            out.write(f"{'relative difference':{len(label) + 10}}= "
                      f"{_fmt(rel, 'human')}\n")


def cmd_expect(args, out) -> None:
    n, space = _n(args), _space_from(args)
    naive = analytics.expected_collisions_naive(n, space)
    stable = analytics.expected_collisions(n, space)
    _write_comparison(out, args.format, n, space, "expected collisions",
                      StableEvalReport.compare(input=float(n), naive=naive, stable=stable))


def cmd_scan(args, out) -> None:
    k_lo, k_hi = _parse_range(args.range, 32, 64, exact_int)
    n = _n(args)
    out.write("k,naive,stable\n")
    for k in range(k_lo, k_hi + 1):
        space = BucketSpace.power_of_two(k)
        naive = analytics.expected_collisions_naive(n, space)
        stable = analytics.expected_collisions(n, space)
        out.write(f"{k},{_fmt(naive, 'csv')},{_fmt(stable, 'csv')}\n")


def cmd_prob(args, out) -> None:
    k_lo, k_hi = _parse_range(args.range, 32, 64, exact_int)
    if args.range is not None and not args.errcmp:
        raise ValueError("--range applies only with --errcmp")
    n, space = _n(args), _space_from(args)
    if not args.errcmp:
        naive = analytics.collision_probability_naive(n, space)
        stable = analytics.collision_probability(n, space)
        _write_comparison(out, args.format, n, space, "collision probability",
                          StableEvalReport.compare(input=float(n), naive=naive, stable=stable))
        return
    # error-curve data; zero-error rows are flagged so log-scale plotting
    # tools can drop them
    out.write("k,relative_error,zero_error\n")
    for report in analytics.probability_error_curve(n, k_lo, k_hi):
        k = int(report.input)
        if report.relative_error is None:
            out.write(f"{k},,stable_zero\n")
        else:
            flag = "zero" if report.relative_error == 0.0 else ""
            out.write(f"{k},{_fmt(report.relative_error, 'csv')},{flag}\n")


def cmd_pmf(args, out) -> None:
    write_pmf_csv(analytics.collision_pmf_exact(_n(args), _space_from(args)), out)


def write_pmf_csv(pmf: analytics.CollisionPmf, out) -> None:
    """Rows c,P(C = c), then sum and mean.  Each run of nonzero entries
    goes through _fmt and out in one write; each run of zero rows, c,0,
    the bytes _fmt gives 0.0, through the trace writers' digit tables."""
    probs = np.asarray(pmf.probs, dtype=np.float64)
    out.write("c,probability\n")
    # a zero run, then a nonzero run, and so on, ending with a zero run
    cuts = [0, *np.flatnonzero(np.diff(probs != 0, prepend=False, append=False)).tolist(),
            probs.size]
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        if i % 2:
            out.write("".join([f"{c},{_fmt(p, 'csv')}\n"
                               for c, p in zip(range(lo, hi), probs[lo:hi].tolist())]))
        else:
            empirics.write_indexed_csv(out, None, np.zeros(hi - lo, dtype=np.int64), lo)
    out.write(f"sum,{_fmt(pmf.total(), 'csv')}\n")
    out.write(f"mean,{_fmt(pmf.mean(), 'csv')}\n")


def cmd_simulate(args, out) -> None:
    n, space = _n(args), _space_from(args)
    bits = space.count.bit_length() - 1  # --buckets 2^k is --bits k
    if space.count != 1 << bits or bits < 1:
        raise ValueError("simulate needs a power-of-two space (--bits, or --buckets 2^k)")
    if args.generator is None:
        spec = GeneratorSpec("mt19937", 1, bits)
    else:
        spec = GeneratorSpec.parse(args.generator)
        if (args.bits is not None or args.buckets is not None) and spec.output_bits != bits:
            raise ValueError("--generator bits disagree with --bits or --buckets")
        space = BucketSpace.power_of_two(spec.output_bits)
    n = exact_index("--n", n)
    within_budget("simulate", exact_index("--seeds", args.seeds, 1) * (n + SEED_SETUP_DRAWS),
                  f"draws ({SEED_SETUP_DRAWS} for each stream's setup)", SIMULATE_BUDGET,
                  "--seeds and --n")
    seeds = [spec.seed] if args.seeds == 1 else seeds_from_base(spec.seed, args.seeds)
    if args.trace_prefix is None:
        summaries = empirics.run_seeds(spec.family, spec.output_bits, n, seeds)
    else:
        # the traced first seed is counted in the same pass that traces it
        stream = KBitStream(GeneratorSpec(spec.family, seeds[0], spec.output_bits))
        first, trace = empirics.trace_collisions(stream, n)
        summaries = [first, *empirics.run_seeds(spec.family, spec.output_bits, n, seeds[1:])]
    expected = analytics.expected_collisions(n, space)
    dups = np.array([s.duplicates for s in summaries], dtype=np.float64)
    if args.format == "csv":
        out.write("seed,duplicates,ties\n")
        for seed, s in zip(seeds, summaries):
            out.write(f"{seed},{s.duplicates},{s.ties}\n")
        out.write(f"mean,{_fmt(dups.mean(), 'csv')},\n")
        if len(seeds) > 1:
            out.write(f"sd,{_fmt(dups.std(ddof=1), 'csv')},\n")
        out.write(f"expected,{_fmt(expected, 'csv')},\n")
    else:
        for seed, s in zip(seeds, summaries):
            out.write(f"seed {seed}: duplicates={s.duplicates} ties={s.ties}\n")
        out.write(f"seeds = {len(seeds)}, mean duplicates = {_fmt(dups.mean(), 'human')}")
        if len(seeds) > 1:
            out.write(f", sd = {_fmt(dups.std(ddof=1), 'human')}")
        out.write(f", expected = {_fmt(expected, 'human')}\n")
    if args.trace_prefix is not None:
        with open(f"{args.trace_prefix}_trajectory.csv", "w") as fh:
            empirics.write_trajectory_csv(trace, fh)
        with open(f"{args.trace_prefix}_positions.csv", "w") as fh:
            empirics.write_positions_csv(trace, fh)


def cmd_solve(args, out) -> None:
    lo, hi = _parse_range(args.range, 1.0, 1e12, float)
    space = _space_from(args)
    space_given = args.bits is not None or args.buckets is not None
    target = args.target
    if args.n is not None and space_given:
        raise ValueError("solve needs --n (find k) or --bits/--buckets (find n), not both")
    if args.n is not None and args.range is not None:
        raise ValueError("--range brackets the sample-size solve and does not apply with --n")
    if args.n is not None:
        n = args.n
        k = analytics.min_bits_for_expected(n, target)
        if args.format == "csv":
            out.write("n,target,k\n")
            out.write(f"{n},{_fmt(target, 'csv')}," + ("none" if k is None else str(k)) + "\n")
        elif k is None:
            out.write(f"no k in 1..{analytics.MAX_BITS} brings expected "
                      f"collisions for n = {n} down to {_fmt(target, 'human')} "
                      "(none in range)\n")
        else:
            out.write(f"smallest k with expected collisions <= "
                      f"{_fmt(target, 'human')} at n = {n}: k = {k}\n")
    elif space_given:
        if args.range is None and analytics.expected_collisions(hi, space) < target:
            # E[C](n) >= n - b, so E[C] passes the target below n = 2(target + b);
            # at the largest double E[C] is that double, above every finite target
            hi = min(2 * (target + space.count), sys.float_info.max)
        root = analytics.sample_size_for_expected(space, target, lo, hi)
        check = analytics.expected_collisions(root, space)
        if args.format == "csv":
            out.write("buckets,target,n,expected_at_n\n")
            out.write(f"{space},{_fmt(target, 'csv')},{_fmt(root, 'csv')},"
                      f"{_fmt(check, 'csv')}\n")
        else:
            out.write(f"sample size with expected collisions = "
                      f"{_fmt(target, 'human')} in {space} buckets: "
                      f"n = {_fmt(root, 'human')}\n")
    else:
        raise ValueError("solve needs --n (find k) or --bits/--buckets (find n)")


def _parse_double(text: str) -> float:
    """A decimal or special value, or hex when a 0x prefix follows the sign."""
    if text.strip().lstrip("+-").lower().startswith("0x"):
        return float.fromhex(text)
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a decimal or 0x-prefixed hex double, got {text!r}") from None


def cmd_inspect(args, out) -> None:
    x = _parse_double(args.value)
    anatomy = ieee754.decompose(x)
    bits = (anatomy.sign << 63) | (anatomy.exponent_field << 52) | anatomy.significand_bits
    if args.format == "csv":
        out.write("value,bits_hex,sign,exponent_field,significand_hex,class\n")
        out.write(f"{x!r},0x{bits:016x},{anatomy.sign},{anatomy.exponent_field},"
                  f"0x{anatomy.significand_bits:013x},{anatomy.float_class}\n")
        return
    out.write(f"value            = {x!r}\n")
    out.write(f"bits             = 0x{bits:016x}\n")
    out.write(f"sign             = {anatomy.sign}\n")
    out.write(f"exponent field   = {anatomy.exponent_field} "
              f"(0b{anatomy.exponent_field:011b}, unbiased {anatomy.unbiased_exponent})\n")
    out.write(f"significand      = 0b{anatomy.significand_bits:052b}\n")
    out.write(f"                 = 0x{anatomy.significand_bits:013x}\n")
    out.write(f"class            = {anatomy.float_class}\n")
    if anatomy.float_class == "normal":
        frac = anatomy.significand_bits / 2.0 ** 52
        out.write(f"decomposition    = (-1)^{anatomy.sign} * (1 + {_fmt(frac, 'human')}) "
                  f"* 2^{anatomy.unbiased_exponent}\n")


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    buf = io.StringIO()
    try:
        args.run(args, buf)
        path = getattr(args, "out", None)
        if path is None:
            sys.stdout.write(buf.getvalue())
        else:
            with open(path, "w") as fh:
                fh.write(buf.getvalue())
    except (CapacityError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
