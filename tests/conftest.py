"""Shared fixtures.

The expensive fixed-seed pipeline runs (synthetic fleet + 20-epoch
pretraining) are session-scoped so the acceptance criteria that examine the
same run (training curve, detection pipeline) pay for it once.
"""

import ctypes
import time

import pytest

import battfault
from battfault import dataio, model
from battfault.numcore import SeededRng
from battfault.pretrain import PretrainConfig, run_pretrain

FLEET_SEED = 7
SPLIT_SEED = 8
INIT_SEED = 1

# the thread-count getter of numpy's own OpenBLAS build and of a system one,
# found the way battfault finds the setter; None where it cannot be found
GET_BLAS_THREADS_CALLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")
get_blas_threads = battfault.openblas_call(GET_BLAS_THREADS_CALLS, (), ctypes.c_int)

# the whole pipeline at toy size, for the CLI tests and the reproducibility criterion
TINY_CONFIG = {
    "seed": 5,
    "seq_len": 16,
    "generator": {"n_vehicles": 8, "snippets_per_vehicle": 2, "fault_fraction": 0.25},
    "model": {"D": 3, "H": 16, "L": 1, "A": 2, "FF": 32, "M_max": 17, "K": 2},
    "pretrain": {"epochs": 2, "batch_size": 4},
    "gbdt": {"rounds": 10},
    "eval": {"split_ratio": 0.75, "tsne_perplexity": 4.0, "tsne_iterations": 60},
}

# one epoch of the desk model on a 10-vehicle fleet: about 1 s a command, for
# the tests that run `pretrain` more than once and compare the runs
SMALL_PRETRAIN_CONFIG = {"seed": 5, "generator": {"n_vehicles": 10}, "pretrain": {"epochs": 1}}


@pytest.fixture(scope="session")
def default_fleet():
    """Default synthetic benchmark: 40 vehicles, M=128, D=3; (train, val, stats)."""
    fleet = dataio.synth_fleet(dataio.FleetConfig(), FLEET_SEED, 128)
    return dataio.vehicle_split(fleet, 0.8, SPLIT_SEED)


@pytest.fixture(scope="session")
def pretrain_run(default_fleet):
    """20-epoch fixed-seed pretraining on the default fleet, with timing.

    Also keeps a copy of the untouched random initialization so downstream
    comparisons (pretrained vs random-init encoder) share identical seeds.
    """
    cfg = model.ModelConfig.desk_default()
    params = model.init_params(cfg, SeededRng(INIT_SEED, ("init",)))
    random_params = model.ModelParams(cfg, {k: v.copy() for k, v in params.arrays.items()})
    t0 = time.monotonic()
    train, val, _ = default_fleet
    _, history = run_pretrain(train, val, params, PretrainConfig(epochs=20), seed=INIT_SEED)
    elapsed = time.monotonic() - t0
    return {
        "params": params,
        "random_params": random_params,
        "history": history,
        "elapsed_s": elapsed,
    }
