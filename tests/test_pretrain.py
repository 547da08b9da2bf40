import ctypes
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import battfault
from battfault import dataio, pretrain
from battfault.dataio import ParseError
from battfault.downstream import extract_features
from battfault.model import (
    MICRO_BATCH,
    ModelConfig,
    ModelParams,
    embed_dropout,
    encode_batch,
    float32_copy,
    init_params,
    msm_backward,
    msm_forward,
    param_shapes,
)
from battfault.numcore import NonFiniteError, SeededRng
from battfault.pretrain import (
    PretrainConfig,
    checkpoint_document,
    corrupt,
    load_checkpoint,
    msm_loss,
    run_pretrain,
    sample_mask,
    save_checkpoint,
    transfer_init,
)
from conftest import SMALL_PRETRAIN_CONFIG, get_blas_threads

TINY = ModelConfig(D=3, H=16, L=1, A=2, FF=32, M_max=17, dropout_rate=0.1, K=2)
ROOT = Path(__file__).resolve().parent.parent


def tiny_run(epochs):
    """(params, provenance, history, train split) of pretraining TINY on a 6-vehicle fleet."""
    fleet = dataio.synth_fleet(dataio.FleetConfig(n_vehicles=6, snippets_per_vehicle=2), 31, 16)
    train, val, _ = dataio.vehicle_split(fleet, 0.7, 31)
    params = init_params(TINY, SeededRng(9, ("init",)))
    provenance, history = run_pretrain(train, val, params,
                                       PretrainConfig(epochs=epochs, batch_size=4), seed=9)
    return params, provenance, history, train


class TestSampleMask:
    @given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 500))
    @settings(max_examples=50, deadline=None)
    def test_exact_count(self, M, D, seed):
        assume(round(0.15 * M * D) >= 1)
        mask = sample_mask(M, D, 0.15, SeededRng(seed))
        assert mask.shape == (M, D)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert mask.sum() == round(0.15 * M * D)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            sample_mask(10, 3, 0.0, SeededRng(0))
        with pytest.raises(ValueError):
            sample_mask(10, 3, 1.0, SeededRng(0))

    def test_deterministic(self):
        a = sample_mask(20, 3, 0.15, SeededRng(5))
        b = sample_mask(20, 3, 0.15, SeededRng(5))
        np.testing.assert_array_equal(a, b)


class TestCorruptAndLoss:
    def test_corrupt_zeroes_masked_only(self):
        rng = SeededRng(1)
        S = rng.spawn("s").normal((10, 3))
        mask = sample_mask(10, 3, 0.15, rng.spawn("m"))
        C = corrupt(S, mask)
        np.testing.assert_array_equal(C[mask == 1], 0.0)
        np.testing.assert_array_equal(C[mask == 0], S[mask == 0])

    def test_msm_loss_hand_value(self):
        S = np.zeros((2, 2))
        S_hat = np.array([[1.0, 5.0], [2.0, 7.0]])
        mask = np.array([[1.0, 0.0], [1.0, 0.0]])
        # (1^2 + 2^2) / 2
        assert msm_loss(S_hat, S, mask) == pytest.approx(2.5, abs=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            msm_loss(np.zeros((2, 2)), np.zeros((2, 3)), np.ones((2, 2)))


class TestCheckpoint:
    PROVENANCE = {"note": "unit-test"}

    def make(self):
        return init_params(TINY, SeededRng(2, ("init",)))

    def test_round_trip_bytes(self, tmp_path):
        params = self.make()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(params, p1, self.PROVENANCE)
        back, provenance = load_checkpoint(p1)
        save_checkpoint(back, p2, provenance)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_survive_exactly(self, tmp_path):
        params = self.make()
        path = tmp_path / "c.json"
        save_checkpoint(params, path, self.PROVENANCE)
        back, provenance = load_checkpoint(path)
        assert back.cfg == TINY and provenance == self.PROVENANCE
        for name, arr in params.arrays.items():
            np.testing.assert_array_equal(back.arrays[name], arr)

    def test_edge_values_survive_bit_for_bit(self, tmp_path):
        # the data is the float64 bytes themselves: a sign, a subnormal and the
        # last ulp of the largest value come back unchanged
        params = self.make()
        tiny = np.finfo(np.float64).smallest_subnormal
        big = np.finfo(np.float64).max
        via_float32 = np.float64(np.float32(0.1))
        params.arrays["head.b"] = np.array([-0.0, tiny, via_float32])
        params.arrays["embed.cls"][:3] = [big, -big, 3 * tiny]
        path = tmp_path / "edge.json"
        save_checkpoint(params, path, self.PROVENANCE)
        back, _ = load_checkpoint(path)
        for name, arr in params.arrays.items():
            assert back.arrays[name].dtype == np.float64
            assert back.arrays[name].tobytes() == arr.tobytes(), name

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_any_finite_params_survive_bit_for_bit(self, tmp_path_factory, data):
        cfg = ModelConfig(D=2, H=2, L=1, A=1, FF=2, M_max=3, K=0)
        values = st.floats(allow_nan=False, allow_infinity=False)
        arrays = {name: data.draw(hnp.arrays(np.float64, shape, elements=values), label=name)
                  for name, shape in param_shapes(cfg).items()}
        path = tmp_path_factory.mktemp("ck") / "c.json"
        save_checkpoint(ModelParams(cfg, arrays), path, self.PROVENANCE)
        back, _ = load_checkpoint(path)
        for name, arr in arrays.items():
            assert back.arrays[name].tobytes() == arr.tobytes(), name

    def test_document_is_deterministic(self):
        assert (checkpoint_document(self.make(), self.PROVENANCE)
                == checkpoint_document(self.make(), self.PROVENANCE))

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_integral_float_dimension_reads_as_int(self, tmp_path):
        path = tmp_path / "c.json"
        save_checkpoint(self.make(), path, self.PROVENANCE)
        doc = json.loads(path.read_text())
        doc["config"]["H"] = 16.0
        path.write_text(json.dumps(doc))
        back, _ = load_checkpoint(path)
        assert back.cfg.H == 16 and type(back.cfg.H) is int

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ParseError):
            load_checkpoint(path)


class TestTransferInit:
    def test_full_copy_when_compatible(self):
        src_params = init_params(TINY, SeededRng(3, ("init",)))
        params, report = transfer_init(src_params, TINY, SeededRng(4, ("init",)))
        assert report.fresh == []
        for name in params.arrays:
            np.testing.assert_array_equal(params.arrays[name], src_params.arrays[name])

    def test_mismatched_shapes_fall_back_to_fresh(self):
        src_params = init_params(TINY, SeededRng(3, ("init",)))
        wider = dataclasses.replace(TINY, H=32, FF=64)
        params, report = transfer_init(src_params, wider, SeededRng(4, ("init",)))
        # every array except the (D,) head bias depends on H
        assert report.copied == ["head.b"]
        fresh = init_params(wider, SeededRng(4, ("init",)))
        for name in report.fresh:
            np.testing.assert_array_equal(params.arrays[name], fresh.arrays[name])

    def test_partial_copy_when_only_seq_len_changes(self):
        src_params = init_params(TINY, SeededRng(3, ("init",)))
        longer = dataclasses.replace(TINY, M_max=33)
        params, report = transfer_init(src_params, longer, SeededRng(4, ("init",)))
        assert "embed.pos" in report.fresh
        assert "embed.W_e" in report.copied


class TestRunPretrain:
    def test_deterministic_history(self):
        assert tiny_run(2)[2] == tiny_run(2)[2]

    def test_history_schema_and_checkpoint(self):
        _, provenance, hist, train = tiny_run(3)
        assert [row[0] for row in hist] == [1, 2, 3]
        for _, tr, va in hist:
            assert np.isfinite(tr) and np.isfinite(va)
        assert provenance == {"epochs": 3, "final_train_loss": hist[-1][1],
                              "final_val_loss": hist[-1][2], "seed": 9, "mask_rate": 0.15,
                              "train_snippets": len(train)}

    def test_loss_decreases_on_tiny_problem(self):
        hist = tiny_run(6)[2]
        assert hist[-1][1] < hist[0][1]

    def test_an_empty_validation_side_is_refused(self):
        # its loss would be NaN, which the checkpoint's JSON cannot hold
        fleet = dataio.synth_fleet(dataio.FleetConfig(n_vehicles=6, snippets_per_vehicle=2), 31, 16)
        params = init_params(TINY, SeededRng(9, ("init",)))
        with pytest.raises(ValueError, match="validation"):
            run_pretrain(fleet, fleet.take(np.arange(0)), params, PretrainConfig(epochs=1), seed=9)


def _desk_step(n, seed):
    """(desk float32 working weights, n float32 snippets, their float64 masks) for one step."""
    cfg = ModelConfig.desk_default()
    params = init_params(cfg, SeededRng(seed, ("init",)))
    fleet = dataio.synth_fleet(dataio.FleetConfig(n_vehicles=4), seed, 128)
    X = dataio.apply_norm(fleet, dataio.fit_norm(fleet)).channels[:n].astype(np.float32)
    rng = SeededRng(seed + 1)
    masks = np.stack([sample_mask(128, cfg.D, 0.15, rng.spawn("mask", i)) for i in range(n)])
    return float32_copy(params), X, masks


def _whole_batch(work, X, masks, dropout_rng):
    """(loss, cache, gradients) of one msm_forward/msm_backward pass over the whole batch."""
    m = masks.astype(np.float32)
    loss, cache = msm_forward(work, work.cfg, corrupt(X, m), X, m,
                              embed_dropout(X, work.cfg, dropout_rng))
    return loss, cache, msm_backward(cache, work, work.cfg)


class TestMicroBatches:
    """An optimizer step accumulates its gradient over MICRO_BATCH-snippet passes."""

    def test_a_step_of_one_micro_batch_is_one_whole_batch_pass(self):
        work, X, masks = _desk_step(MICRO_BATCH // 2, 31)
        rng = SeededRng(32)
        squared_error, grads = pretrain._step_gradients(work, X, masks, rng.spawn("dropout"))
        loss, _, expected = _whole_batch(work, X, masks, rng.spawn("dropout"))
        assert squared_error == loss * masks.sum()
        assert grads.keys() == expected.keys()
        for name, g in expected.items():
            np.testing.assert_array_equal(grads[name], g, err_msg=name)

    def test_a_desk_step_of_two_micro_batches_matches_the_whole_batch(self, monkeypatch):
        work, X, masks = _desk_step(2 * MICRO_BATCH, 33)
        rng = SeededRng(34)
        drawn, passes = [], []

        def recording_dropout(*args):
            drawn.append(embed_dropout(*args))
            return drawn[-1]

        def recording_forward(*args, **kwargs):
            # (target snippets, dropout rows) of each pass, from whichever thread runs it
            passes.append((args[3], args[5]))
            return msm_forward(*args, **kwargs)

        monkeypatch.setattr(pretrain, "embed_dropout", recording_dropout)
        monkeypatch.setattr(pretrain, "msm_forward", recording_forward)
        squared_error, grads = pretrain._step_gradients(work, X, masks, rng.spawn("dropout"))
        assert len(drawn) == 1 and len(passes) == 2
        loss, cache, expected = _whole_batch(work, X, masks, rng.spawn("dropout"))
        # the step's multiplier, drawn once before its passes, is the whole
        # batch's draw, and each pass gets the rows of its own snippets
        np.testing.assert_array_equal(drawn[0], cache[0][2])
        for target, rows in passes:
            c = next(c for c in range(2) if np.array_equal(target, X[c * MICRO_BATCH:(c + 1) * MICRO_BATCH]))
            np.testing.assert_array_equal(rows, drawn[0][c * MICRO_BATCH:(c + 1) * MICRO_BATCH])
        assert squared_error / masks.sum() == pytest.approx(loss, rel=1e-6, abs=0)
        norm = np.sqrt(sum(float((g * g).sum()) for g in expected.values()))
        worst = max(float(np.abs(grads[name] - g).max()) for name, g in expected.items())
        assert worst <= 1e-6 * norm, f"{worst} against a global norm of {norm}"

    def test_a_pass_that_raises_fails_the_step(self, monkeypatch):
        work, X, masks = _desk_step(2 * MICRO_BATCH, 35)

        def failing_forward(*args, **kwargs):
            if np.array_equal(args[3], X[MICRO_BATCH:]):
                raise NonFiniteError("second pass")
            return msm_forward(*args, **kwargs)

        monkeypatch.setattr(pretrain, "msm_forward", failing_forward)
        with pytest.raises(NonFiniteError, match="second pass"):
            pretrain._step_gradients(work, X, masks, SeededRng(36))


class TestTrainingPrecision:
    """A training step runs in float32; the master weights and Adam stay float64."""

    def test_float32_step_gradients_match_float64(self):
        cfg = ModelConfig.desk_default()
        params = init_params(cfg, SeededRng(21, ("init",)))
        fleet = dataio.synth_fleet(dataio.FleetConfig(n_vehicles=4), 21, 128)
        X = dataio.apply_norm(fleet, dataio.fit_norm(fleet)).channels[:16]
        rng = SeededRng(22)
        masks = np.stack([sample_mask(128, cfg.D, 0.15, rng.spawn("mask", i))
                          for i in range(len(X))])

        grads = {}
        for dtype in (np.float64, np.float32):
            work = float32_copy(params) if dtype == np.float32 else params
            x, m = X.astype(dtype), masks.astype(dtype)
            _, cache = msm_forward(work, cfg, corrupt(x, m), x, m,
                                   dropout=embed_dropout(x, cfg, rng.spawn("dropout")))
            # the activations and the pass's gradients are of the step's dtype
            assert cache[2].dtype == cache[3].dtype == dtype
            grads[dtype] = msm_backward(cache, work, cfg)
            assert {g.dtype for g in grads[dtype].values()} == {np.dtype(dtype)}

        norm = np.sqrt(sum(float((g * g).sum()) for g in grads[np.float64].values()))
        worst = max(float(np.abs(grads[np.float32][k] - g).max())
                    for k, g in grads[np.float64].items())
        assert worst <= 1e-3 * norm, f"{worst} against a global norm of {norm}"

    def test_master_weights_and_adam_state_stay_float64(self, monkeypatch):
        optimizers = []

        class RecordingAdam(pretrain.Adam):
            def step(self, params, grads):
                assert {g.dtype for g in grads.values()} == {np.dtype(np.float64)}
                super().step(params, grads)
                optimizers.append(self)

        monkeypatch.setattr(pretrain, "Adam", RecordingAdam)
        params = tiny_run(2)[0]
        assert optimizers
        opt = optimizers[-1]
        for state in (params.arrays, opt.m, opt.v):
            assert {a.dtype for a in state.values()} == {np.dtype(np.float64)}

    def test_checkpoints_of_two_runs_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            params, provenance, _, _ = tiny_run(2)
            save_checkpoint(params, path, provenance)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def _cli_pretrain(root, threads, cpus=None):
    """Bytes of checkpoint.json and loss_history.csv from synth + pretrain.

    ``threads`` goes to the BLAS thread variables; ``cpus``, when given, is
    the set of CPUs that the commands may run on.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    command = [sys.executable, "-m", "battfault.cli"]
    if cpus is not None:
        # the child sets its affinity and execs the command, which keeps it; a
        # preexec_fn would run between fork and exec of this threaded process
        command = [sys.executable, "-c", f"import os, sys; os.sched_setaffinity(0, {set(cpus)!r}); "
                   "os.execv(sys.argv[1], sys.argv[1:])", *command]
    root.mkdir()
    config = root / "config.json"
    config.write_text(json.dumps(SMALL_PRETRAIN_CONFIG))
    for argv in (["synth", "--out", str(root / "data")],
                 ["pretrain", "--data", str(root / "data"), "--out", str(root / "run")]):
        result = subprocess.run([*command, *argv, "--config", str(config)],
                                env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
    return {name: (root / "run" / name).read_bytes()
            for name in ("checkpoint.json", "loss_history.csv")}


def test_pretrain_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # wherever importing battfault can set OpenBLAS's thread count, it sets
    # it to one, so both runs make their passes on one BLAS thread. They
    # differ in the BLAS threads of a pass only where it cannot (MKL or
    # Accelerate, say) and the passes run inline. There every weight gradient
    # sums its samples in index order (model._outer_sum), so a BLAS that
    # splits a long inner axis across threads cannot reorder the rounding
    assert _cli_pretrain(tmp_path / "one", 1) == _cli_pretrain(tmp_path / "two", 2)


@pytest.mark.skipif(not battfault.ONE_BLAS_THREAD or get_blas_threads is None,
                    reason="needs an OpenBLAS whose thread count can be read and set")
def test_pretrain_bytes_do_not_depend_on_the_blas_threads_of_a_pass(monkeypatch):
    # inline passes on a two-thread OpenBLAS against pool passes on the one
    # thread that importing battfault set; the backward passes record the
    # count they ran on
    set_blas_threads = battfault.openblas_call(battfault.OPENBLAS_SET_THREADS, (ctypes.c_int,), None)
    fleet = dataio.synth_fleet(dataio.FleetConfig(n_vehicles=10), 31, 64)
    train, val, _ = dataio.vehicle_split(fleet, 0.7, 31)
    seen = []

    def recording_backward(*args):
        seen.append(get_blas_threads())
        return msm_backward(*args)

    def run(workers):
        monkeypatch.setattr(pretrain, "WORKERS", workers)
        seen.clear()
        params = init_params(ModelConfig.desk_default(), SeededRng(9, ("init",)))
        provenance, history = run_pretrain(train, val, params, PretrainConfig(epochs=1), seed=9)
        return checkpoint_document(params, provenance), history, set(seen)

    monkeypatch.setattr(pretrain, "msm_backward", recording_backward)
    set_blas_threads(2)
    try:
        inline = run(1)
    finally:
        set_blas_threads(1)
    pooled = run(2)
    assert inline[2] == {2} and pooled[2] == {1}
    assert inline[:2] == pooled[:2]


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="needs at least 2 usable CPUs")
def test_pretrain_bytes_do_not_depend_on_the_cpu_count(tmp_path):
    # on one CPU the passes of a step run inline (OpenBLAS caps its threads
    # at the usable CPUs, so on one BLAS thread whatever the environment
    # says); on every usable CPU they run on the thread pool, and the
    # gradients are summed in pass order either way
    usable = os.sched_getaffinity(0)
    one_cpu = _cli_pretrain(tmp_path / "one", 2, cpus={min(usable)})
    assert one_cpu == _cli_pretrain(tmp_path / "every", len(usable))


def _traced_peak(fn):
    """Peak bytes that fn allocates beyond what was live when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _every_row(masks):
    """masks with channel 0 of every data row masked too, so the last layer runs every row."""
    full = masks.copy()
    full[:, :, 0] = 1.0
    return full


class TestActivationMemory:
    """A pass holds only the activations a backward pass will read."""

    def test_eval_encoding_keeps_no_layer_caches(self):
        cfg = ModelConfig.desk_default()
        work = float32_copy(init_params(cfg, SeededRng(3, ("init",))))
        X = SeededRng(4).normal((32, 128, cfg.D)).astype(np.float32)
        masks = _every_row(np.zeros_like(X))
        encode = _traced_peak(lambda: encode_batch(X, work, cfg))
        forward = _traced_peak(lambda: msm_forward(work, cfg, X, X, masks))
        # without caches the pass holds one layer's activations; building
        # and dropping every layer's caches peaks at about 0.57x the forward
        assert encode < 0.4 * forward, f"{encode} bytes against {forward} for msm_forward"
        no_cache = _traced_peak(lambda: msm_forward(work, cfg, X, X, masks, keep_cache=False))
        assert no_cache < 0.5 * forward, f"{no_cache} bytes against {forward} with caches"

    def test_pretraining_peaks_near_one_micro_batch(self, default_fleet):
        # a step of batch_size snippets holds the activations of the passes
        # in flight, at most SNIPPETS_IN_FLIGHT snippets on any CPU count, as
        # much as one whole-batch pass over that many (the run peaks at about
        # 0.97x it); 16-snippet passes peak at about 2.0x an 8-snippet one
        train, val, _ = default_fleet
        params = init_params(ModelConfig.desk_default(), SeededRng(1, ("init",)))
        work, X, masks = _desk_step(pretrain.SNIPPETS_IN_FLIGHT, 5)
        one_pass = _traced_peak(lambda: _whole_batch(work, X, _every_row(masks), SeededRng(6)))
        run = _traced_peak(lambda: run_pretrain(train, val, params, PretrainConfig(epochs=2), seed=1))
        assert run <= 1.25 * one_pass, f"{run} bytes against {one_pass} for one {len(X)}-snippet pass"

    def test_a_pass_holds_only_the_rows_with_a_masked_cell(self):
        # at a 15% mask about 40% of the data rows hold a masked cell, and the
        # last layer keeps activations for those alone: about 0.72x the peak
        # of a pass whose mask hits every row
        work, X, masks = _desk_step(pretrain.SNIPPETS_IN_FLIGHT, 5)
        every_row = _traced_peak(lambda: _whole_batch(work, X, _every_row(masks), SeededRng(6)))
        masked_rows = _traced_peak(lambda: _whole_batch(work, X, masks, SeededRng(6)))
        assert masked_rows <= 0.9 * every_row, f"{masked_rows} bytes against {every_row}"

    def test_a_backward_frees_each_layer_cache_once_it_has_read_it(self):
        # the backward takes each cache off the forward's list as it reads
        # it, so a forward plus backward peaks at about 1.13x the forward's
        # own peak with caches; a backward that held every cache to its end
        # read 1.58x
        work, X, masks = _desk_step(pretrain.SNIPPETS_IN_FLIGHT, 5)
        m = masks.astype(np.float32)
        forward = _traced_peak(lambda: msm_forward(work, work.cfg, corrupt(X, m), X, m,
                                                   embed_dropout(X, work.cfg, SeededRng(6))))
        whole = _traced_peak(lambda: _whole_batch(work, X, masks, SeededRng(6)))
        assert whole <= 1.3 * forward, f"{whole} bytes against {forward} for the forward"

    def test_feature_extraction_peaks_near_one_micro_batch(self):
        # 32-snippet encode_batch calls peak at about 4x one MICRO_BATCH call
        fleet = dataio.synth_fleet(dataio.FleetConfig(), 7, 128)
        assert len(fleet) == 160
        params = init_params(ModelConfig.desk_default(), SeededRng(1, ("init",)))
        work = float32_copy(params)
        X = fleet.channels[:MICRO_BATCH].astype(np.float32)
        one_call = _traced_peak(lambda: encode_batch(X, work, work.cfg))
        features = _traced_peak(lambda: extract_features(params, fleet))
        assert features <= 1.25 * one_call, f"{features} bytes against {one_call} for one call"
