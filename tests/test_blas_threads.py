"""Importing battfault sets OpenBLAS to one thread, and no stage of the package sets it again.

The count is read through OpenBLAS's own getter (conftest.get_blas_threads);
where it or the setter cannot be found the tests skip.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import battfault
from battfault import dataio, downstream, evalkit, pretrain
from battfault.model import ModelConfig, init_params
from battfault.numcore import SeededRng
from conftest import GET_BLAS_THREADS_CALLS, get_blas_threads

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(not battfault.ONE_BLAS_THREAD or get_blas_threads is None,
                                reason="needs an OpenBLAS whose thread count can be read and set")


def test_import_sets_one_blas_thread():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="2")
    code = ("import ctypes, battfault; "
            f"print(battfault.openblas_call({GET_BLAS_THREADS_CALLS!r}, (), ctypes.c_int)())")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1"]


def test_every_stage_runs_on_one_blas_thread(monkeypatch):
    seen = {"encode_batch": [], "tsne": []}

    def recording(point, fn):
        def wrapper(*args, **kwargs):
            seen[point].append(get_blas_threads())
            return fn(*args, **kwargs)
        return wrapper

    fleet = dataio.synth_fleet(dataio.FleetConfig(n_vehicles=6), 31, 16)
    train, val, _ = dataio.vehicle_split(fleet, 0.7, 31)
    cfg = ModelConfig(D=3, H=16, L=1, A=2, FF=32, M_max=17, K=2)
    params = init_params(cfg, SeededRng(9, ("init",)))

    monkeypatch.setattr(downstream, "encode_batch", recording("encode_batch", downstream.encode_batch))
    features = downstream.extract_features(params, train)
    monkeypatch.setattr(evalkit, "_pairwise_sq_dists",
                        recording("tsne", evalkit._pairwise_sq_dists))
    evalkit.tsne(features, 4.0, 5, 0)
    # two workers run the passes on the pool, whatever the CPU count
    monkeypatch.setattr(pretrain, "WORKERS", 2)
    pretrain.run_pretrain(train, val, params, pretrain.PretrainConfig(epochs=1), seed=9)

    assert seen["encode_batch"] and seen["tsne"]
    assert {point: set(counts) for point, counts in seen.items()} == {"encode_batch": {1}, "tsne": {1}}
    assert get_blas_threads() == 1
