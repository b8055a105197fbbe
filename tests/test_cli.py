import hashlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from collision_lab import cli, empirics
from collision_lab.analytics import (BucketSpace, CollisionPmf, collision_pmf_exact,
                                     expected_collisions)
from collision_lab.cli import SEED_SETUP_DRAWS, SIMULATE_BUDGET, main, write_pmf_csv
from collision_lab.prng import GeneratorSpec, KBitStream


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def per_row_pmf_csv(pmf):
    """The pmf CSV written one formatted row at a time; in float mode the
    sum and mean are per-element fsums."""
    rows = [f"{c},{format(float(p), '.17g')}\n" for c, p in enumerate(pmf.probs)]
    if pmf.representation == "exact-rational":
        total, mean = pmf.total(), pmf.mean()
    else:
        total = math.fsum(pmf.probs)
        mean = math.fsum(c * p for c, p in enumerate(pmf.probs))
    return ("c,probability\n" + "".join(rows) + f"sum,{format(float(total), '.17g')}\n"
            f"mean,{format(float(mean), '.17g')}\n")


def csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


# `prob --errcmp --n 1e6` and `prob --n 4e6 --buckets 1e6` as the per-chunk
# literal products printed them, byte for byte
ERRCMP_1E6 = (
    "k,relative_error,zero_error\n"
    "32,0,zero\n"
    "33,0,zero\n"
    "34,0,zero\n"
    "35,0,zero\n"
    "36,1.1109917840215565e-16,\n"
    "37,6.8413007692684938e-16,\n"
    "38,1.3251481601883955e-16,\n"
    "39,3.1785866107275221e-14,\n"
    "40,1.0634567018942796e-14,\n"
    "41,8.3794826079880917e-14,\n"
    "42,4.043397433733221e-13,\n"
    "43,2.7500431001537122e-14,\n"
    "44,2.5286405150604268e-12,\n"
    "45,1.2755009382332475e-12,\n"
    "46,1.3394288559915122e-11,\n"
    "47,3.0307220837414195e-11,\n"
    "48,9.1752312039920509e-11,\n"
    "49,2.9260016498489652e-10,\n"
    "50,9.3315964295055982e-10,\n"
    "51,2.9659332994278439e-09,\n"
    "52,9.3844706138407112e-09,\n"
    "53,3.094041630205603e-08,\n"
    "54,2.0919402781074978e-06,\n"
    "55,2.354569368327616e-06,\n"
    "56,2.7855198121052245e-06,\n"
    "57,3.7347259007914387e-06,\n"
    "58,2.867363699610377e-06,\n"
    "59,2.4336187870025067e-06,\n"
    "60,0.00012577928137280062,\n"
    "61,0.00012588768768838921,\n"
    "62,0.0001259424028437058,\n"
    "63,0.00089822815553809786,\n"
    "64,0.0011496564127552989,\n"
)
NAIVE_NAN_4E6 = (
    "n = 4000000, buckets = 1000000\n"
    "collision probability (stable) = 1\n"
    "collision probability (naive)  = nan\n"
    "relative difference            = nan\n"
)


class TestExpect:
    def test_headline(self, capsys):
        code, out, err = run(capsys, "expect", "--n", "1000000", "--bits", "32")
        assert code == 0 and err == ""
        assert "116.4062" in out

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "expect", "--n", "1", "--bits", "32")
        assert code == 0
        assert "(stable) = 0" in out

    def test_64bit(self, capsys):
        code, out, _ = run(capsys, "expect", "--n", "1000000", "--bits", "64")
        assert code == 0
        assert "2.712477e-08" in out

    def test_csv_roundtrips_losslessly(self, capsys):
        code, out, _ = run(capsys, "expect", "--n", "1000000", "--bits", "32",
                           "--format", "csv")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["n", "buckets", "naive", "stable", "relative_difference"]
        stable = float(rows[0][3])
        assert stable == expected_collisions(10 ** 6, BucketSpace.power_of_two(32))

    def test_defaults_are_headline_case(self, capsys):
        code, out, _ = run(capsys, "expect")
        assert code == 0
        assert "n = 1000000" in out and "2^32" in out

    def test_bits_and_buckets_conflict(self, capsys):
        code, out, err = run(capsys, "expect", "--bits", "32", "--buckets", "100")
        assert code == 1
        assert err.startswith("error:") and "\n" not in err.strip()

    def test_human_layout(self, capsys):
        code, out, _ = run(capsys, "expect", "--n", "1000000", "--bits", "40")
        assert code == 0
        assert out == ("n = 1000000, buckets = 2^40\n"
                       "expected collisions (stable) = 0.4547468\n"
                       "expected collisions (naive)  = 0.4547119\n"
                       "relative difference          = 7.662346e-05\n")

    def test_fractional_n_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expect", "--n", "1.5"])
        assert exc.value.code == 2
        assert "1.5" in capsys.readouterr().err

    def test_scientific_n_accepted_exactly(self, capsys):
        code, out, _ = run(capsys, "expect", "--n", "1e6", "--format", "csv")
        assert code == 0
        assert csv_rows(out)[1][0][0] == "1000000"

    def test_seventeen_digit_n_echoed_exactly(self, capsys):
        # int(float(s)) would round this to ...568
        code, out, _ = run(capsys, "expect", "--n", "12345678901234567",
                           "--format", "csv")
        assert code == 0
        assert csv_rows(out)[1][0][0] == "12345678901234567"


class TestScan:
    def test_scan_across_bit_range(self, capsys):
        code, out, _ = run(capsys, "scan", "--n", "1000000")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["k", "naive", "stable"]
        assert len(rows) == 33
        by_k = {int(r[0]): (float(r[1]), float(r[2])) for r in rows}
        assert by_k[39][1] <= 1.0 < by_k[38][1]
        assert by_k[54][0] == 10 ** 6
        assert by_k[32][0] == pytest.approx(116.4062, abs=1e-4)
        assert by_k[32][1] == pytest.approx(116.4062, abs=1e-4)

    def test_range_flag(self, capsys):
        code, out, _ = run(capsys, "scan", "--n", "1000", "--range", "35:37")
        _, rows = csv_rows(out)
        assert [int(r[0]) for r in rows] == [35, 36, 37]

    def test_range_bounds_parsed_exactly(self, capsys):
        code, out, _ = run(capsys, "scan", "--n", "1000", "--range", "3.5e1:36")
        assert code == 0
        assert [int(r[0]) for r in csv_rows(out)[1]] == [35, 36]
        code, out, err = run(capsys, "scan", "--n", "1000", "--range", "35:36.5")
        assert code == 1 and out == "" and err.startswith("error:")

    def test_format_flag_refused(self, capsys):
        # scan prints CSV only; a --format it would ignore is refused
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--format", "human"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        code, out, _ = run(capsys, "scan", "--n", "1000", "--range", "32:33",
                           "--out", str(path))
        assert code == 0 and out == ""
        header, rows = csv_rows(path.read_text())
        assert header == ["k", "naive", "stable"] and len(rows) == 2


class TestProb:
    def test_headline_64(self, capsys):
        code, out, _ = run(capsys, "prob", "--n", "1000000", "--bits", "64")
        assert code == 0
        assert "2.710503e-08" in out

    def test_pigeonhole(self, capsys):
        code, out, _ = run(capsys, "prob", "--n", "3", "--buckets", "2")
        assert code == 0
        assert "(stable) = 1" in out

    def test_three_draws_54(self, capsys):
        code, out, _ = run(capsys, "prob", "--n", "3", "--bits", "54")
        assert code == 0
        assert "1.665335e-16" in out

    def test_human_layout(self, capsys):
        code, out, _ = run(capsys, "prob", "--n", "23", "--buckets", "365")
        assert code == 0
        assert out == ("n = 23, buckets = 365\n"
                       "collision probability (stable) = 0.5072972\n"
                       "collision probability (naive)  = 0.5072972\n"
                       "relative difference            = 0\n")

    def test_naive_overflow_prints_nan_quietly(self, capsys):
        code, out, err = run(capsys, "prob", "--n", "4000000", "--buckets", "1000000")
        assert code == 0
        assert "(naive)  = nan" in out
        assert err == ""

    def test_literal_cap_refuses_at_once(self, capsys):
        # the naive product would take minutes; the stable form is O(1)
        code, out, err = run(capsys, "prob", "--n", "1e10", "--bits", "64")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "100000000" in err

    @pytest.mark.parametrize("argv, golden", [
        (["prob", "--errcmp", "--n", "1e6"], ERRCMP_1E6),
        (["prob", "--n", "4e6", "--buckets", "1e6"], NAIVE_NAN_4E6),
        # one draw never collides: no relative error to a stable 0
        (["prob", "--errcmp", "--n", "1", "--range", "32:33"],
         "k,relative_error,zero_error\n32,,stable_zero\n33,,stable_zero\n"),
    ])
    def test_literal_products_print_the_same_bytes(self, capsys, argv, golden):
        assert run(capsys, *argv) == (0, golden, "")

    def test_errcmp_csv(self, capsys):
        code, out, _ = run(capsys, "prob", "--n", "1000", "--errcmp",
                           "--range", "32:40")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["k", "relative_error", "zero_error"]
        assert len(rows) == 9
        for r in rows:
            if r[2] == "zero":
                assert float(r[1]) == 0.0
            elif r[2] == "":
                assert math.isfinite(float(r[1]))

    def test_errcmp_shows_pbirthday_length_artifact(self, capsys):
        # the CSV behind scripts/figure_data.py: R's colon operator gives
        # 999,425 factors instead of 10^6 at k = 64
        code, out, _ = run(capsys, "prob", "--n", "1000000", "--errcmp",
                           "--range", "64:64")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["k", "relative_error", "zero_error"]
        assert len(rows) == 1 and rows[0][0] == "64"
        assert float(rows[0][1]) > 1e-3


def digit_width_pmf(b, nonzero_runs):
    """A float pmf over c = 0..10009 with nonzero entries on
    ``nonzero_runs`` ([lo, hi) pairs) and zeros elsewhere; ``b`` only
    names it."""
    probs = np.zeros(10010)
    rng = np.random.default_rng(len(nonzero_runs))
    for lo, hi in nonzero_runs:
        probs[lo:hi] = rng.random(hi - lo) / 40
    nonzero = np.flatnonzero(probs)
    probs[nonzero[:4]] = [5e-324, 1e-300, 1.0, 0.1]
    return CollisionPmf(n=probs.size, space=BucketSpace.exact(b), probs=probs,
                        representation="log-domain-float")


# the index column changes width at 9|10, 99|100, 999|1000 and 9999|10000:
# inside nonzero runs in the first pmf, inside zero runs in the second
WIDTH_CROSSINGS = [
    digit_width_pmf(1, [(0, 1), (7, 12), (97, 103), (997, 1003), (9997, 10003)]),
    digit_width_pmf(2, [(3, 4), (5, 9), (50, 51), (500, 502), (5000, 5001), (10009, 10010)]),
]


class TestPmf:
    def test_three_draws_two_buckets(self, capsys):
        code, out, _ = run(capsys, "pmf", "--n", "3", "--buckets", "2")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["c", "probability"]
        data = {r[0]: r[1] for r in rows}
        assert float(data["0"]) == 0.0
        assert float(data["1"]) == 0.75
        assert float(data["2"]) == 0.25
        assert float(data["sum"]) == 1.0

    def test_two_draws_two_buckets(self, capsys):
        code, out, _ = run(capsys, "pmf", "--n", "2", "--buckets", "2")
        _, rows = csv_rows(out)
        data = {r[0]: r[1] for r in rows}
        assert float(data["0"]) == 0.5 and float(data["1"]) == 0.5

    def test_footer_mean_matches_expectation(self, capsys):
        code, out, _ = run(capsys, "pmf", "--n", "1000", "--bits", "32")
        assert code == 0
        _, rows = csv_rows(out)
        mean = float({r[0]: r[1] for r in rows}["mean"])
        e = expected_collisions(1000, BucketSpace.power_of_two(32))
        assert mean == pytest.approx(e, abs=1e-9)

    @pytest.mark.parametrize("pmf", [
        collision_pmf_exact(3, BucketSpace.exact(2)),
        collision_pmf_exact(40, BucketSpace.exact(7)),
        collision_pmf_exact(64, BucketSpace.power_of_two(64)),
        collision_pmf_exact(1000, BucketSpace.power_of_two(32)),
        collision_pmf_exact(4000, BucketSpace.exact(1310)),
        collision_pmf_exact(2000, BucketSpace.power_of_two(16)),
        CollisionPmf(n=6, space=BucketSpace.exact(6),
                     probs=np.array([0.0, 0.25, 0.0, 5e-324, 0.75 - 5e-324, 0.0]),
                     representation="log-domain-float"),
        # tail inputs of the occupancy recurrence, 1,553-2,075 nonzero rows
        collision_pmf_exact(8767, BucketSpace.exact(7714)),
        collision_pmf_exact(7069, BucketSpace.exact(5442)),
        collision_pmf_exact(7021, BucketSpace.power_of_two(22)),
        collision_pmf_exact(8997, BucketSpace.power_of_two(16)),
        *WIDTH_CROSSINGS,
    ], ids=lambda pmf: f"{pmf.n}-{pmf.space}")
    def test_writer_matches_per_row_writer(self, pmf):
        buf = io.StringIO()
        write_pmf_csv(pmf, buf)
        assert buf.getvalue() == per_row_pmf_csv(pmf)

    def test_knuth_collision_test_setup(self, capsys):
        # Knuth's collision test, n = 2^14 draws into 2^20 urns (TAOCP vol. 2,
        # 3.3.2): a header, 16,384 rows, sum and mean
        code, out, _ = run(capsys, "pmf", "--n", "16384", "--bits", "20")
        assert code == 0 and out.count("\n") == 16387


class TestSimulate:
    def test_single_draw(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "1", "--bits", "32")
        assert code == 0
        assert "duplicates=0" in out and "ties=0" in out

    def test_csv_deterministic(self, capsys):
        args = ("simulate", "--n", "20000", "--generator", "mt19937:7:16", "--seeds", "3",
                "--format", "csv")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert out1 == out2
        header, rows = csv_rows(out1)
        assert header == ["seed", "duplicates", "ties"]
        assert len(rows) == 6  # 3 seeds + mean + sd + expected

    def test_top_seed_base_bytes(self, capsys):
        # recorded before seeds_from_base drew its seeds as splitcounter
        # words; the base 2^64 - 1 wraps the first seed's counter past 2^64
        code, out, _ = run(capsys, "simulate", "--n", "1000", "--seeds", "5", "--generator",
                           "mt19937:18446744073709551615:16", "--format", "csv")
        assert code == 0
        assert out == ("seed,duplicates,ties\n"
                       "16490336266968443936,6,12\n"
                       "16834447057089888969,5,10\n"
                       "4048727598324417001,5,10\n"
                       "7862637804313477842,7,14\n"
                       "13015481187462834606,13,26\n"
                       "mean,7.2000000000000002,\n"
                       "sd,3.3466401061363023,\n"
                       "expected,7.5832230642205332,\n")

    def test_generator_flag(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "10000",
                           "--generator", "cmrg:271:16", "--format", "csv")
        assert code == 0
        header, rows = csv_rows(out)
        assert rows[0][0] == "271"

    def test_tie_bound_on_report(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "20000", "--bits", "16",
                           "--format", "csv")
        _, rows = csv_rows(out)
        c, t = int(rows[0][1]), int(rows[0][2])
        assert c >= 1
        assert c + 1 <= t <= 2 * c

    def test_trace_files(self, capsys, tmp_path):
        prefix = tmp_path / "run"
        code, out, _ = run(capsys, "simulate", "--n", "5000", "--generator", "mt19937:5:16",
                           "--out", str(prefix))
        assert code == 0
        traj = (tmp_path / "run_trajectory.csv").read_text().splitlines()
        pos = (tmp_path / "run_positions.csv").read_text().splitlines()
        assert traj[0] == "index,cumulative_collisions"
        assert pos[0] == "collision_rank,position"
        assert len(traj) == 5001
        final = int(traj[-1].split(",")[1])
        assert final == len(pos) - 1  # cumulative total equals listed positions

    def test_trace_bytes_match_first_index_oracle(self, capsys, tmp_path):
        # 20000 draws in 2^12 buckets: the cumulative column crosses 10, 100,
        # 1000 and 10000, so both files change digit widths in both columns
        n, seed = 20000, 11
        code, _, _ = run(capsys, "simulate", "--n", str(n), "--generator",
                         f"mt19937:{seed}:12", "--out", str(tmp_path / "run"))
        assert code == 0
        keys = KBitStream(GeneratorSpec("mt19937", seed, 12)).take_kbits(n)
        _, first = np.unique(keys, return_index=True)
        is_dup = np.ones(n, dtype=bool)
        is_dup[first] = False
        cumulative = np.cumsum(is_dup).tolist()
        positions = (np.flatnonzero(is_dup) + 1).tolist()
        assert cumulative[-1] > 10000
        trajectory = "".join(f"{i},{c}\n" for i, c in enumerate(cumulative, 1))
        ranked = "".join(f"{r},{p}\n" for r, p in enumerate(positions, 1))
        assert (tmp_path / "run_trajectory.csv").read_bytes() == (
            "index,cumulative_collisions\n" + trajectory).encode("ascii")
        assert (tmp_path / "run_positions.csv").read_bytes() == (
            "collision_rank,position\n" + ranked).encode("ascii")

    # SHA-256 of stdout and of both trace CSVs at 10^6 draws, recorded at
    # the argsort positions kernel that the hash sort replaced
    @pytest.mark.parametrize("seed, stdout, trajectory, positions", [
        (1, "2f8a66b24731a10a9d44224af9e3aab8598e9fa3d3749dbca634a539f05a12f7",
         "0b47f95769f32d2b34e9eceee852e77ff72849ece4d97326f73c956bd311108e",
         "51c5e428b75585684c269574f73cba6bbe8db5156a84423af291ea41f7f166bc"),
        (2023, "243d85d64dc5259dccc1e57fef79d4c02f3f325e67d30737cf1689d6fd681757",
         "48cf5f4a5600cc59cad0b2f1b925d2a406ed2ce2307ff5bc4d4ece7400a3710e",
         "4d1f0de506aadc5efc3000825646c95f2a70f663da3899ce1c267169c00306bd"),
    ], ids=["seed1", "seed2023"])
    def test_trace_bytes_pinned(self, capsys, tmp_path, seed, stdout, trajectory,
                                positions):
        code, out, _ = run(capsys, "simulate", "--n", "1e6", "--generator",
                           f"mt19937:{seed}:32", "--out", str(tmp_path / "p"))
        assert code == 0

        def digest(data):
            return hashlib.sha256(data).hexdigest()

        assert digest(out.encode("ascii")) == stdout
        assert digest((tmp_path / "p_trajectory.csv").read_bytes()) == trajectory
        assert digest((tmp_path / "p_positions.csv").read_bytes()) == positions

    def test_out_draws_each_stream_once(self, capsys, monkeypatch, tmp_path):
        drawn = []
        take = KBitStream.take_kbits

        def counting_take(stream, count):
            drawn.append(count)
            return take(stream, count)

        monkeypatch.setattr(KBitStream, "take_kbits", counting_take)
        args = ("simulate", "--n", "5000", "--bits", "16", "--seeds", "3")
        code, traced, _ = run(capsys, *args, "--out", str(tmp_path / "p"))
        assert code == 0
        assert sum(drawn) == 15000  # the traced first seed is not drawn again
        code, plain, _ = run(capsys, *args)
        assert code == 0 and traced == plain

    def test_capacity_error_via_env(self, capsys, monkeypatch):
        monkeypatch.setenv("COLLISION_LAB_MAX_DISTINCT", "1000")
        code, _, err = run(capsys, "simulate", "--n", "2000", "--bits", "16")
        assert code == 1
        assert err.startswith("error:") and "COLLISION_LAB_MAX_DISTINCT" in err

    @pytest.mark.parametrize("value, code", [("1e8", 0), ("1.5", 1), ("-1", 1)])
    def test_env_cap_parsed_like_n(self, capsys, monkeypatch, value, code):
        monkeypatch.setenv("COLLISION_LAB_MAX_DISTINCT", value)
        got, out, err = run(capsys, "simulate", "--n", "1000", "--bits", "16")
        assert got == code
        if code:
            assert out == "" and err.startswith("error: COLLISION_LAB_MAX_DISTINCT")

    def test_seeds_capped_before_any_seed_is_derived(self, capsys, monkeypatch):
        def derive(*args):
            raise AssertionError("a seed was derived")

        monkeypatch.setattr(cli, "seeds_from_base", derive)
        # the fewest seeds over the budget at --n 1
        seeds = str(SIMULATE_BUDGET // (1 + SEED_SETUP_DRAWS) + 1)
        code, out, err = run(capsys, "simulate", "--n", "1", "--seeds", seeds)
        assert code == 1 and out == ""
        assert err.startswith("error: simulate would take") and err.count("\n") == 1
        assert f"over its budget of {SIMULATE_BUDGET}" in err

    def test_largest_admitted_run(self, capsys, monkeypatch):
        # a budget of exactly three streams of 1000 draws admits --seeds 3
        # and refuses --seeds 4 before deriving a seed
        monkeypatch.setattr(cli, "SIMULATE_BUDGET", 3 * (1000 + SEED_SETUP_DRAWS))
        args = ("simulate", "--n", "1000", "--bits", "16", "--format", "csv")
        code, out, _ = run(capsys, *args, "--seeds", "3")
        assert code == 0 and out.count("\n") == 7
        monkeypatch.setattr(cli, "seeds_from_base", None)
        code, out, err = run(capsys, *args, "--seeds", "4")
        assert code == 1 and out == "" and "would take 84000 draws" in err

    def test_power_of_two_buckets_is_bits(self, capsys):
        # --buckets 1024 is the 10-bit space, as analytics treats it
        args = ("simulate", "--n", "3000", "--seeds", "3", "--format", "csv")
        code, by_count, _ = run(capsys, *args, "--buckets", "1024")
        assert code == 0
        assert (code, by_count) == run(capsys, *args, "--bits", "10")[:2]
        code, _, err = run(capsys, *args, "--buckets", "1024", "--generator", "cmrg:1:12")
        assert code == 1 and "disagree" in err

    def test_buckets_rejected(self, capsys):
        code, _, err = run(capsys, "simulate", "--n", "100", "--buckets", "100")
        assert code == 1
        assert err.startswith("error:")


class TestSolve:
    def test_min_bits(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "1000000", "--target", "1")
        assert code == 0
        assert "k = 39" in out

    def test_min_bits_csv(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "1000000", "--target", "1",
                           "--format", "csv")
        _, rows = csv_rows(out)
        assert rows[0][2] == "39"

    def test_none_in_range(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "1000000", "--target", "1e-12")
        assert code == 0
        assert "none in range" in out

    def test_sample_size_64(self, capsys):
        code, out, _ = run(capsys, "solve", "--bits", "64", "--target", "1",
                           "--range", "1e6:1e10", "--format", "csv")
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0][2]) == pytest.approx(6.074e9, abs=0.001e9)

    def test_sample_size_headline_inverse(self, capsys):
        code, out, _ = run(capsys, "solve", "--bits", "32", "--target",
                           "116.4062", "--range", "1e3:1e9", "--format", "csv")
        _, rows = csv_rows(out)
        assert float(rows[0][2]) == pytest.approx(1e6, abs=1.0)

    def test_requires_exactly_one_unknown(self, capsys):
        code, _, err = run(capsys, "solve", "--n", "10", "--bits", "32",
                           "--target", "1")
        assert code == 1 and err.startswith("error:")

    def test_bracketing_error(self, capsys):
        code, _, err = run(capsys, "solve", "--bits", "32", "--target", "1",
                           "--range", "1e6:1e7")
        assert code == 1 and err.startswith("error:")

    # without --range the bracket [1, 1e12] widens to [1, 2(target + b)],
    # which holds the root since E[C](n) >= n - b; near the largest double
    # the bisection midpoint must not overflow
    @pytest.mark.parametrize("space, target, root", [
        (["--bits", "64"], "1e6", 6.074001334e12),
        (["--buckets", "1000"], "1e12", 1.0000000005e12),
        (["--buckets", "1000"], "1e308", 1e308),
    ])
    def test_root_past_default_bracket(self, capsys, space, target, root):
        code, out, _ = run(capsys, "solve", *space, "--target", target, "--format", "csv")
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0][2]) == pytest.approx(root, rel=1e-9)
        assert abs(float(rows[0][3]) / float(target) - 1) <= 5e-10


class TestInspect:
    def test_one(self, capsys):
        code, out, _ = run(capsys, "inspect", "1.0")
        assert code == 0
        assert "sign             = 0" in out
        assert "exponent field   = 1023" in out
        assert "class            = normal" in out

    def test_negative_zero(self, capsys):
        code, out, _ = run(capsys, "inspect", "-0.0")
        assert "sign             = 1" in out
        assert "class            = zero" in out

    def test_hex_input(self, capsys):
        code, out, _ = run(capsys, "inspect", "0x1p-1022")
        assert code == 0
        assert "class            = normal" in out
        assert "exponent field   = 1" in out

    def test_specials(self, capsys):
        for text, cls in (("inf", "infinity"), ("nan", "nan")):
            code, out, _ = run(capsys, "inspect", text)
            assert code == 0
            assert f"class            = {cls}" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "inspect", "1.0", "--format", "csv")
        header, rows = csv_rows(out)
        assert header == ["value", "bits_hex", "sign", "exponent_field",
                          "significand_hex", "class"]
        assert rows[0][1] == "0x3ff0000000000000"

    def test_garbage_value(self, capsys):
        code, _, err = run(capsys, "inspect", "not-a-number")
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("text", ["abc", "deadbeef", "1p4"])
    def test_bare_hex_digits_refused(self, capsys, text):
        # hex is read only behind a 0x prefix
        code, out, err = run(capsys, "inspect", text)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("text, value", [("0X1P4", "16.0"), ("+0x1p0", "1.0"),
                                             ("-0x1.8p1", "-3.0")])
    def test_signed_and_upper_case_hex(self, capsys, text, value):
        code, out, _ = run(capsys, "inspect", "--", text)
        assert code == 0 and f"value            = {value}\n" in out

    def test_negative_subnormal_after_double_dash(self, capsys):
        code, out, _ = run(capsys, "inspect", "--", "-0x1p-1074")
        assert code == 0
        assert "sign             = 1" in out
        assert "class            = subnormal" in out


class TestRefusedCallsWriteNothing:
    # the output is computed in full before anything is written, so a
    # refused call leaves stdout and an existing --out file as they were
    REFUSED = {
        "solve-both-unknowns": ["solve", "--n", "1000", "--bits", "32", "--target", "1"],
        "solve-no-unknown": ["solve", "--target", "1"],
        "solve-bracketing": ["solve", "--bits", "8", "--target", "1", "--range", "5:6"],
        "errcmp-capacity": ["prob", "--errcmp", "--n", "2e8"],
        # flags that would otherwise be ignored
        "prob-range-without-errcmp": ["prob", "--n", "1000", "--range", "35:36"],
        "solve-range-with-n": ["solve", "--n", "1000", "--target", "1", "--range", "1:2"],
        "simulate-generator-bits-disagree": ["simulate", "--bits", "16", "--generator",
                                             "cmrg:1:32"],
        # a range that is not lo:hi with lo <= hi
        "scan-range-one-bound": ["scan", "--n", "1000", "--range", "32"],
        "scan-range-reversed": ["scan", "--n", "1000", "--range", "40:32"],
        # n beyond the double range, and a bound that float() makes infinite
        "expect-n-overflow": ["expect", "--n", "1e400"],
        "scan-n-overflow": ["scan", "--n", "1e400"],
        "prob-n-overflow": ["prob", "--n", "1e400"],
        "solve-n-overflow": ["solve", "--n", "1e400", "--target", "1"],
        "solve-range-infinite": ["solve", "--bits", "64", "--target", "1",
                                 "--range", "1:1e400"],
        # targets that are not finite
        "solve-k-target-nan": ["solve", "--n", "1000", "--target", "nan"],
        "solve-k-target-inf": ["solve", "--n", "1000", "--target", "inf"],
        "solve-n-target-nan": ["solve", "--bits", "32", "--target", "nan"],
        "solve-n-target-inf": ["solve", "--bits", "32", "--target", "inf"],
    }

    @pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED.keys())
    def test_stdout_and_out_file_untouched(self, capsys, tmp_path, argv):
        path = tmp_path / "out.csv"
        path.write_bytes(b"earlier,bytes\n1,2\n")
        for extra in ([], ["--out", str(path)]):
            code, out, err = run(capsys, *argv, *extra)
            assert code == 1 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
        assert path.read_bytes() == b"earlier,bytes\n1,2\n"
        assert list(tmp_path.iterdir()) == [path]  # nor any trace file

    # an n beyond the double range is refused by name, or by prob's literal cap
    @pytest.mark.parametrize("case, says", [
        ("expect-n-overflow", "error: n must be"), ("scan-n-overflow", "error: n must be"),
        ("solve-n-overflow", "error: n must be"),
        ("prob-n-overflow", "error: literal products would take"),
    ])
    def test_n_overflow_names_n(self, capsys, case, says):
        code, _, err = run(capsys, *self.REFUSED[case])
        assert code == 1 and err.startswith(says) and err.count("\n") == 1


class TestIntegerFlags:
    # every integer flag and both numeric fields of family:seed:bits take
    # --n's exact-integer forms, and print what the plain digits print
    SAME = {
        "buckets": (["expect", "--n", "1000", "--buckets", "1e6"],
                    ["expect", "--n", "1000", "--buckets", "1000000"]),
        "bits": (["pmf", "--n", "70", "--bits", "1.6e1"], ["pmf", "--n", "70", "--bits", "16"]),
        "seeds-and-base": (["simulate", "--n", "1000", "--seeds", "1e1",
                            "--generator", "mt19937:1e3:16", "--format", "csv"],
                           ["simulate", "--n", "1000", "--seeds", "10",
                            "--generator", "mt19937:1000:16", "--format", "csv"]),
        "generator": (["simulate", "--n", "1000", "--generator", "cmrg:1e3:32"],
                      ["simulate", "--n", "1000", "--generator", "cmrg:1000:32"]),
    }

    @pytest.mark.parametrize("forms", SAME.values(), ids=SAME.keys())
    def test_scientific_forms_accepted(self, capsys, forms):
        scientific, plain = (run(capsys, *argv) for argv in forms)
        assert scientific == plain and scientific[0] == 0

    @pytest.mark.parametrize("argv", [
        ["expect", "--bits", "32.5"], ["expect", "--buckets", "1e-3"],
        ["simulate", "--seeds", "True"], ["simulate", "--seeds", "0x10"],
    ])
    def test_non_integer_flags_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "1000", "--generator", "cmrg:1.5:32"],
        ["simulate", "--n", "1000", "--generator", "cmrg:1:True"],
        ["simulate", "--n", "1000", "--seeds", "0"],
        ["simulate", "--n", "1000", "--generator", "mt19937:-1:32"],
        # the seed is a field of family:seed:bits, which GeneratorSpec.parse reads
        ["simulate", "--n", "1000", "--generator", "mt19937:0x10:32"],
        # a family has one spelling, as GeneratorSpec itself requires
        ["simulate", "--n", "1000", "--generator", "MT19937:1:32"],
    ])
    def test_refused_with_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestRepeatedCalls:
    # flags given in one call must not carry into the next: the calls run
    # in one process, one after another, and each must print what it
    # prints in a fresh interpreter
    ARGVS = (
        ["solve", "--n", "1000", "--target", "1"],
        ["solve", "--bits", "32", "--target", "1"],
        ["expect", "--n", "5", "--bits", "40", "--format", "csv"],
        ["expect"],
        ["prob", "--errcmp", "--range", "60:62"],
        ["simulate", "--n", "1000", "--generator", "cmrg:3:24", "--format", "csv"],
        ["expect", "--bits", "32", "--buckets", "100"],
    )

    @staticmethod
    def alone(argv, module="collision_lab.cli"):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", module, *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def test_each_call_prints_what_it_prints_alone(self, capsys):
        in_process = [run(capsys, *argv) for argv in self.ARGVS]
        assert in_process == [self.alone(argv) for argv in self.ARGVS]
        # the package entry that README documents, python -m collision_lab
        assert in_process[-2] == self.alone(self.ARGVS[-2], "collision_lab")


class TestCostBudgets:
    # each refused through errors.within_budget before any work: no seed
    # derived, no stream built, and a tracemalloc peak under 1 MB
    REFUSED = {
        "simulate-draws": ["simulate", "--seeds", "10000", "--n", "1e8",
                           "--generator", "cmrg:1:40"],
        "simulate-seeds-1e6": ["simulate", "--n", "1", "--seeds", "1e6"],
        "simulate-seeds-1e9": ["simulate", "--n", "1", "--seeds", "1e9"],
        "prob-literal": ["prob", "--n", "1e10", "--bits", "64"],
        "pmf-recurrence": ["pmf", "--n", "1e7", "--bits", "24"],
    }

    @pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED.keys())
    def test_refused_before_any_work(self, capsys, monkeypatch, argv):
        def start(*args):
            raise AssertionError("work started")

        for owner, name in ((cli, "seeds_from_base"), (cli, "KBitStream"),
                            (empirics, "run_seeds"), (empirics, "trace_collisions")):
            monkeypatch.setattr(owner, name, start)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == "" and err.count("\n") == 1
        assert " would take " in err and ", over its budget of " in err
        assert peak < 2 ** 20

    # inputs the old caps refused that the budgets admit, each run to the end
    @pytest.mark.parametrize("argv, lines", [
        (["pmf", "--n", "100000", "--bits", "32"], 100003),
        (["pmf", "--n", "20000", "--buckets", "3"], 20003),
    ])
    def test_newly_admitted(self, capsys, argv, lines):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.count("\n") == lines
