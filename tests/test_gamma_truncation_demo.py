import os
import subprocess
import sys
from pathlib import Path

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
