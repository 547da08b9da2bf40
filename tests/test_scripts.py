"""The scripts under scripts/ run against the current package API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result


def test_warm_start_comparison_runs():
    result = run_script("warm_start_comparison.py", "--epochs", "1", "--transfer-epochs", "1")
    assert "epoch  cold train  warm train  cold val  warm val" in result.stdout


def test_run_benchmark_runs(tmp_path):
    # the default 40-vehicle fleet through every CLI command, one epoch
    out = tmp_path / "bench"
    result = run_script("run_benchmark.py", "--epochs", "1", "--out", str(out))
    assert "=== benchmark summary ===" in result.stdout
    for name in ("pretrain/checkpoint.json", "detect/report.json", "detect/classifier.json",
                 "tsne/tsne_raw.csv", "tsne/tsne_embedding.csv"):
        assert (out / name).is_file(), name
