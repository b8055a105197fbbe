import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "figure_data.py"

HEADERS = {
    "collisions_trajectory.csv": "index,cumulative_collisions",
    "collisions_positions.csv": "collision_rank,position",
    "expected_scan.csv": "k,naive,stable",
    "prob_relative_error.csv": "k,relative_error,zero_error",
}


def figure_data(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(SCRIPT), *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_writes_the_four_csvs(tmp_path):
    proc = figure_data(str(tmp_path), "--n", "2000")
    assert proc.returncode == 0, proc.stderr
    for name, header in HEADERS.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header, name
    assert len((tmp_path / "collisions_trajectory.csv").read_text().splitlines()) == 2001
    assert len((tmp_path / "expected_scan.csv").read_text().splitlines()) == 34
    assert len((tmp_path / "prob_relative_error.csv").read_text().splitlines()) == 34


def test_fractional_n_refused(tmp_path):
    # --n reaches the CLI's exact parser as text; 1.5 is not rounded to 1
    proc = figure_data(str(tmp_path), "--n", "1.5")
    assert proc.returncode == 2
    assert "1.5" in proc.stderr
    assert not (tmp_path / "collisions_trajectory.csv").exists()


def test_bits_and_seed_take_exact_integer_forms(tmp_path):
    plain, scientific = tmp_path / "plain", tmp_path / "scientific"
    for outdir, bits, seed in ((plain, "16", "271"), (scientific, "1.6e1", "2.71e2")):
        proc = figure_data(str(outdir), "--n", "2000", "--bits", bits, "--seed", seed)
        assert proc.returncode == 0, proc.stderr
    for name in HEADERS:
        assert (plain / name).read_bytes() == (scientific / name).read_bytes(), name
