import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "gamma_truncation_demo.py"


def test_runs_from_another_directory(tmp_path):
    # the script finds the package from its own location, not from the
    # working directory or PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(SCRIPT), "1e-3", "2000"], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "gamma(shape=0.001) variates: 2000"
    assert lines[2].startswith("draws truncated to exactly 0: ")


def run_demo(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True, timeout=60)


def test_count_in_scientific_form():
    proc = run_demo("1e-3", "1e3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "gamma(shape=0.001) variates: 1000"


@pytest.mark.parametrize("args", [
    ("1e-3", "-5"), ("1e-3", "0"), ("1e-3", "2.5"),
    ("-1", "100"), ("0", "100"), ("nan", "100"), ("inf", "100"), ("1e308", "100"),
])
def test_bad_arguments_refused(args):
    # a NaN or near-overflow shape used to spin in gammavariate for ever;
    # the subprocess timeout turns that into a failure
    proc = run_demo(*args)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
