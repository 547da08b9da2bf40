"""The scripts under scripts/ run against the current package API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_warm_start_comparison_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "warm_start_comparison.py"),
         "--epochs", "1", "--transfer-epochs", "1"],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "epoch  cold train  warm train  cold val  warm val" in result.stdout
