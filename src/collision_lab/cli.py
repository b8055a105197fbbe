"""Command-line front end.

Subcommands: expect, scan, prob, pmf, simulate, solve, inspect.  Defaults
are the headline case n = 10^6 draws in a 32-bit setup.  Reals print with
7 significant digits in human output and 17 (round-trip exact) in CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from typing import Optional

import numpy as np

from . import analytics, empirics, ieee754
from .analytics import BucketSpace
from .errors import BracketingError, CapacityError, DomainError
from .prng import FAMILIES, GeneratorSpec, KBitStream, derive_seed
from .stable_math import StableEvalReport

DEFAULT_N = 10 ** 6
DEFAULT_BITS = 32
# int()'s default limit on decimal strings; it also keeps '1e999999999'
# from building a billion-digit integer
_MAX_INT_DIGITS = 4300


def _fmt(x: float, fmt: str) -> str:
    return format(float(x), ".17g" if fmt == "csv" else ".7g")


@contextlib.contextmanager
def _open_out(path: Optional[str]):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


@dataclass
class RunConfig:
    """Resolved arguments of one CLI invocation."""

    subcommand: str
    n: int = DEFAULT_N
    space: BucketSpace = field(default_factory=lambda: BucketSpace.power_of_two(DEFAULT_BITS))
    generator: Optional[GeneratorSpec] = None
    seeds: list = field(default_factory=list)
    output_path: Optional[str] = None
    format: str = "human"


def _space_from(args) -> BucketSpace:
    bits = getattr(args, "bits", None)
    buckets = getattr(args, "buckets", None)
    if bits is not None and buckets is not None:
        raise ValueError("give exactly one of --bits or --buckets")
    if buckets is not None:
        return BucketSpace.exact(buckets)
    return BucketSpace.power_of_two(bits if bits is not None else DEFAULT_BITS)


def _exact_int(text: str) -> int:
    """An exact integer, also in scientific form ('1e6'); '1.5' is refused."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        value = Decimal("NaN")
    if (not value.is_finite() or value != value.to_integral_value()
            or value.adjusted() >= _MAX_INT_DIGITS):
        raise argparse.ArgumentTypeError(f"expected an exact integer, got {text!r}")
    return int(value)


def _parse_range(text: str, lo_default, hi_default, integer: bool):
    if text is None:
        return lo_default, hi_default
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"--range must be lo:hi, got {text!r}")
    conv = _exact_int if integer else float
    lo, hi = conv(parts[0]), conv(parts[1])
    if lo > hi:
        raise ValueError(f"--range must have lo <= hi, got {text!r}")
    return lo, hi


def _add_common(sub, n=True, space=True, out=True, fmt=True):
    if n:
        sub.add_argument("--n", type=_exact_int, default=None,
                         help=f"sample size (default {DEFAULT_N})")
    if space:
        sub.add_argument("--bits", type=int, default=None,
                         help=f"k-bit setup, buckets = 2^k (default {DEFAULT_BITS})")
        sub.add_argument("--buckets", type=int, default=None,
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

    s = sub.add_parser("scan", help="CSV k,naive,stable over a bit range")
    _add_common(s, space=False)
    s.add_argument("--range", default=None, help="k range lo:hi (default 32:64)")

    s = sub.add_parser("prob", help="collision probability, naive and stable")
    _add_common(s)
    s.add_argument("--errcmp", action="store_true",
                   help="emit CSV k,relative_error of R's pbirthday() against "
                        "the stable form over the bit range instead")
    s.add_argument("--range", default=None, help="k range for --errcmp (default 32:64)")

    s = sub.add_parser("pmf", help="CSV c,probability of the exact collision distribution")
    _add_common(s, fmt=False)

    s = sub.add_parser("simulate", help="count collisions in generated streams")
    _add_common(s, out=False)
    s.add_argument("--seeds", type=int, default=1, help="number of seeds (default 1)")
    s.add_argument("--seed-base", type=int, default=1,
                   help="base seed; per-run seeds derive from it (default 1)")
    s.add_argument("--generator", default=None,
                   help="family:seed:bits, families " + "/".join(FAMILIES))
    s.add_argument("--out", default=None,
                   help="prefix for <out>_trajectory.csv and <out>_positions.csv "
                        "(first seed's trace)")

    s = sub.add_parser("solve", help="invert the expected-collision curve")
    _add_common(s)
    s.add_argument("--target", type=float, required=True,
                   help="target expected collision count")
    s.add_argument("--range", default=None,
                   help="bracket lo:hi for the sample-size solve (default 1:1e12)")

    s = sub.add_parser("inspect", help="IEEE-754 anatomy of a double")
    s.add_argument("value", help="decimal ('1.5e-3'), hex ('0x1.8p1'), inf, nan, -0.0")
    s.add_argument("--format", choices=("csv", "human"), default="human")

    return p


# parse_args leaves the parser unchanged, so one parser serves every call
_parser = functools.cache(build_parser)


# --------------------------------------------------------------------------


def _write_comparison(cfg: RunConfig, label: str, report: StableEvalReport) -> None:
    """One naive/stable point as CSV or as aligned human-readable lines."""
    naive, stable, rel = report.naive_value, report.stable_value, report.relative_error
    with _open_out(cfg.output_path) as out:
        if cfg.format == "csv":
            out.write("n,buckets,naive,stable,relative_difference\n")
            out.write(",".join([str(cfg.n), str(cfg.space), _fmt(naive, "csv"),
                                _fmt(stable, "csv"),
                                "" if rel is None else _fmt(rel, "csv")]) + "\n")
        else:
            out.write(f"n = {cfg.n}, buckets = {cfg.space}\n")
            out.write(f"{label} (stable) = {_fmt(stable, 'human')}\n")
            out.write(f"{label} (naive)  = {_fmt(naive, 'human')}\n")
            if rel is not None:
                out.write(f"{'relative difference':{len(label) + 10}}= "
                          f"{_fmt(rel, 'human')}\n")


def cmd_expect(cfg: RunConfig) -> int:
    _write_comparison(cfg, "expected collisions", StableEvalReport.compare(
        input=float(cfg.n),
        naive=analytics.expected_collisions_naive(cfg.n, cfg.space),
        stable=analytics.expected_collisions(cfg.n, cfg.space)))
    return 0


def cmd_scan(cfg: RunConfig, k_lo: int, k_hi: int) -> int:
    with _open_out(cfg.output_path) as out:
        out.write("k,naive,stable\n")
        for k in range(k_lo, k_hi + 1):
            space = BucketSpace.power_of_two(k)
            naive = analytics.expected_collisions_naive(cfg.n, space)
            stable = analytics.expected_collisions(cfg.n, space)
            out.write(f"{k},{_fmt(naive, 'csv')},{_fmt(stable, 'csv')}\n")
    return 0


def cmd_prob(cfg: RunConfig, errcmp: bool, k_lo: int, k_hi: int) -> int:
    if not errcmp:
        _write_comparison(cfg, "collision probability", StableEvalReport.compare(
            input=float(cfg.n),
            naive=analytics.collision_probability_naive(cfg.n, cfg.space),
            stable=analytics.collision_probability(cfg.n, cfg.space)))
        return 0
    with _open_out(cfg.output_path) as out:
        # error-curve data; zero-error rows are flagged so log-scale
        # plotting tools can drop them
        out.write("k,relative_error,zero_error\n")
        for report in analytics.probability_error_curve(cfg.n, k_lo, k_hi):
            k = int(report.input)
            if report.relative_error is None:
                out.write(f"{k},,stable_zero\n")
            else:
                flag = "zero" if report.relative_error == 0.0 else ""
                out.write(f"{k},{_fmt(report.relative_error, 'csv')},{flag}\n")
    return 0


def cmd_pmf(cfg: RunConfig) -> int:
    pmf = analytics.collision_pmf_exact(cfg.n, cfg.space)
    with _open_out(cfg.output_path) as out:
        out.write("c,probability\n")
        for c, prob in enumerate(pmf.probs):
            out.write(f"{c},{_fmt(prob, 'csv')}\n")
        out.write(f"sum,{_fmt(pmf.total(), 'csv')}\n")
        out.write(f"mean,{_fmt(pmf.mean(), 'csv')}\n")
    return 0


def cmd_simulate(cfg: RunConfig, trace_prefix: Optional[str]) -> int:
    spec = cfg.generator
    if spec.output_bits != cfg.space.log2_count:
        raise ValueError("simulate needs a power-of-two space matching the "
                         "generator's output bits")
    n_seeds = len(cfg.seeds)
    summaries = empirics.run_seeds(spec.family, spec.output_bits, cfg.n, cfg.seeds)
    expected = analytics.expected_collisions(cfg.n, cfg.space)
    dups = np.array([s.duplicates for s in summaries], dtype=np.float64)
    out = sys.stdout
    if cfg.format == "csv":
        out.write("seed,duplicates,ties\n")
        for seed, s in zip(cfg.seeds, summaries):
            out.write(f"{seed},{s.duplicates},{s.ties}\n")
        out.write(f"mean,{_fmt(dups.mean(), 'csv')},\n")
        if n_seeds > 1:
            out.write(f"sd,{_fmt(dups.std(ddof=1), 'csv')},\n")
        out.write(f"expected,{_fmt(expected, 'csv')},\n")
    else:
        for seed, s in zip(cfg.seeds, summaries):
            out.write(f"seed {seed}: duplicates={s.duplicates} ties={s.ties}\n")
        out.write(f"seeds = {n_seeds}, mean duplicates = {_fmt(dups.mean(), 'human')}")
        if n_seeds > 1:
            out.write(f", sd = {_fmt(dups.std(ddof=1), 'human')}")
        out.write(f", expected = {_fmt(expected, 'human')}\n")
    if trace_prefix is not None:
        stream = KBitStream(GeneratorSpec(spec.family, cfg.seeds[0], spec.output_bits))
        _, trace = empirics.trace_collisions(stream, cfg.n)
        with open(f"{trace_prefix}_trajectory.csv", "w") as fh:
            empirics.write_trajectory_csv(trace, fh)
        with open(f"{trace_prefix}_positions.csv", "w") as fh:
            empirics.write_positions_csv(trace, fh)
    return 0


def cmd_solve(cfg: RunConfig, target: float, n_given: bool,
              space_given: bool, lo: float, hi: float) -> int:
    with _open_out(cfg.output_path) as out:
        if n_given and space_given:
            raise ValueError("solve needs --n (find k) or --bits/--buckets (find n), not both")
        if n_given:
            k = analytics.min_bits_for_expected(cfg.n, target)
            if cfg.format == "csv":
                out.write("n,target,k\n")
                out.write(f"{cfg.n},{_fmt(target, 'csv')},"
                          + ("none" if k is None else str(k)) + "\n")
            elif k is None:
                out.write(f"no k in 1..{analytics.MAX_BITS} brings expected "
                          f"collisions for n = {cfg.n} down to {_fmt(target, 'human')} "
                          "(none in range)\n")
            else:
                out.write(f"smallest k with expected collisions <= "
                          f"{_fmt(target, 'human')} at n = {cfg.n}: k = {k}\n")
            return 0
        if space_given:
            root = analytics.sample_size_for_expected(cfg.space, target, lo, hi)
            check = analytics.expected_collisions(root, cfg.space)
            if cfg.format == "csv":
                out.write("buckets,target,n,expected_at_n\n")
                out.write(f"{cfg.space},{_fmt(target, 'csv')},{_fmt(root, 'csv')},"
                          f"{_fmt(check, 'csv')}\n")
            else:
                out.write(f"sample size with expected collisions = "
                          f"{_fmt(target, 'human')} in {cfg.space} buckets: "
                          f"n = {_fmt(root, 'human')}\n")
            return 0
        raise ValueError("solve needs --n (find k) or --bits/--buckets (find n)")


def _parse_double(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return float.fromhex(text)


def cmd_inspect(value_text: str, fmt: str) -> int:
    x = _parse_double(value_text)
    anatomy = ieee754.decompose(x)
    bits = (anatomy.sign << 63) | (anatomy.exponent_field << 52) | anatomy.significand_bits
    out = sys.stdout
    if fmt == "csv":
        out.write("value,bits_hex,sign,exponent_field,significand_hex,class\n")
        out.write(f"{x!r},0x{bits:016x},{anatomy.sign},{anatomy.exponent_field},"
                  f"0x{anatomy.significand_bits:013x},{anatomy.float_class}\n")
        return 0
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
    return 0


# --------------------------------------------------------------------------


def _resolve_simulate(args, n: int) -> RunConfig:
    space = _space_from(args)
    if space.bits is None:
        raise ValueError("simulate needs a power-of-two space (--bits)")
    if args.generator is not None:
        spec = GeneratorSpec.parse(args.generator)
        if args.bits is not None and spec.output_bits != args.bits:
            raise ValueError("--generator bits disagree with --bits")
        space = BucketSpace.power_of_two(spec.output_bits)
        base = spec.seed
        family = spec.family
    else:
        base = args.seed_base
        family = "mt19937"
        spec = GeneratorSpec(family, base, space.bits)
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    if args.seeds == 1:
        seeds = [base]
    else:
        seeds = [derive_seed(base, i) for i in range(args.seeds)]
    return RunConfig(
        subcommand="simulate",
        n=n,
        space=space,
        generator=spec,
        seeds=seeds,
        output_path=None,
        format=args.format,
    )


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    n_given = getattr(args, "n", None) is not None
    n = args.n if n_given else DEFAULT_N
    try:
        cmd = args.subcommand
        if cmd == "expect":
            cfg = RunConfig("expect", n=n, space=_space_from(args), output_path=args.out,
                            format=args.format)
            return cmd_expect(cfg)
        if cmd == "scan":
            k_lo, k_hi = _parse_range(args.range, 32, 64, integer=True)
            cfg = RunConfig("scan", n=n, output_path=args.out, format="csv")
            return cmd_scan(cfg, k_lo, k_hi)
        if cmd == "prob":
            k_lo, k_hi = _parse_range(args.range, 32, 64, integer=True)
            cfg = RunConfig("prob", n=n, space=_space_from(args), output_path=args.out,
                            format=args.format)
            return cmd_prob(cfg, args.errcmp, k_lo, k_hi)
        if cmd == "pmf":
            cfg = RunConfig("pmf", n=n, space=_space_from(args), output_path=args.out,
                            format="csv")
            return cmd_pmf(cfg)
        if cmd == "simulate":
            cfg = _resolve_simulate(args, n)
            return cmd_simulate(cfg, args.out)
        if cmd == "solve":
            lo, hi = _parse_range(args.range, 1.0, 1e12, integer=False)
            space_given = args.bits is not None or args.buckets is not None
            cfg = RunConfig("solve", n=n, space=_space_from(args), output_path=args.out,
                            format=args.format)
            return cmd_solve(cfg, args.target, n_given, space_given, lo, hi)
        if cmd == "inspect":
            return cmd_inspect(args.value, args.format)
        raise ValueError(f"unknown subcommand {cmd!r}")
    except (DomainError, CapacityError, BracketingError, ValueError, OSError,
            argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
