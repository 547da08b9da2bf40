"""Acceptance gate: eleven fixed-seed, pinned-tolerance criteria.

Each test prints a one-line PASS summary with the measured values so a full
run (`pytest -v -s tests/test_acceptance.py`) doubles as an acceptance report.
The expensive pipeline runs come from session fixtures in conftest.py and are
shared between the training-curve and detection criteria.
"""

import dataclasses
import json
import math
import time

import numpy as np

from battfault import dataio, downstream, evalkit, model, pretrain
from battfault.cli import main as cli_main
from battfault.numcore import SeededRng
from conftest import TINY_CONFIG


def _ok(name, detail):
    print(f"ACCEPTANCE PASS {name}: {detail}")


# --------------------------------------------------------------------------
# 1. Gradient correctness
# --------------------------------------------------------------------------

def test_01_gradient_check_full_model():
    # the criterion pins L/H/A/M/D; FF and M_max are free, and small values
    # keep the ~55k-parameter finite-difference sweep inside the time budget
    cfg = model.ModelConfig(D=3, H=64, L=2, A=4, FF=64, M_max=9, dropout_rate=0.1, K=2)
    params = model.init_params(cfg, SeededRng(0, ("gradcheck",)))
    rng = SeededRng(1, ("gradcheck-data",))
    M = 8
    X = rng.spawn("x").normal((M, cfg.D))
    mask = pretrain.sample_mask(M, cfg.D, 0.25, rng.spawn("mask"))
    X_corrupt = pretrain.corrupt(X, mask)

    t0 = time.monotonic()
    report = model.msm_grad_check(params, X_corrupt, X, mask)
    elapsed = time.monotonic() - t0

    assert report.ok, f"failed params: {report.failed}"
    assert report.max_rel_error < 1e-4
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    _ok("1 gradient-correctness",
        f"max rel error {report.max_rel_error:.3e} < 1e-4 over "
        f"{sum(a.size for a in params.arrays.values())} params in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. Eq. (5) loss oracle
# --------------------------------------------------------------------------

def test_02_msm_loss_matches_naive_double_loop():
    rng = SeededRng(2, ("loss-oracle",))
    worst = 0.0
    for i in range(1000):
        r = rng.spawn("case", i)
        M = int(r.spawn("M").integers(2, 12))
        D = int(r.spawn("D").integers(1, 5))
        S = r.spawn("S").normal((M, D))
        S_hat = r.spawn("Shat").normal((M, D))
        mask = np.zeros((M, D))
        k = max(1, int(r.spawn("k").integers(1, M * D + 1)))
        cells = r.spawn("cells").choice(M * D, size=k)
        mask.flat[np.asarray(cells, dtype=int)] = 1.0

        loss = pretrain.msm_loss(S_hat, S, mask)
        total, count = 0.0, 0
        for t in range(M):
            for d in range(D):
                if mask[t, d] == 1.0:
                    total += (S_hat[t, d] - S[t, d]) ** 2
                    count += 1
        worst = max(worst, abs(loss - total / count))
        assert abs(loss - total / count) < 1e-12

        # perturbing unmasked predictions changes nothing
        S_hat2 = S_hat + 1e6 * (1.0 - mask)
        assert pretrain.msm_loss(S_hat2, S, mask) == loss
    _ok("2 eq5-loss-oracle", f"1000 instances, worst |diff| {worst:.2e} < 1e-12; "
        "unmasked perturbations are invisible")


# --------------------------------------------------------------------------
# 3. Mask exactness and frequency
# --------------------------------------------------------------------------

def test_03_mask_exactness_and_frequency():
    rng = SeededRng(3, ("mask-oracle",))
    for i in range(1000):
        r = rng.spawn("shape", i)
        M = int(r.spawn("M").integers(2, 64))
        D = int(r.spawn("D").integers(1, 8))
        if round(0.15 * M * D) < 1:
            continue
        mask = pretrain.sample_mask(M, D, 0.15, r.spawn("draw"))
        assert mask.sum() == round(0.15 * M * D)

    total = np.zeros((10, 10))
    n_draws = 10_000
    for i in range(n_draws):
        total += pretrain.sample_mask(10, 10, 0.15, rng.spawn("freq", i))
    freq = total / n_draws
    assert abs(freq.mean() - 0.15) < 1e-12  # exact count forces the mean
    assert np.abs(freq - 0.15).max() < 0.01
    _ok("3 mask-exactness",
        f"1000 shapes exact; per-cell frequency in [{freq.min():.4f}, {freq.max():.4f}] "
        "= 0.15 +/- 0.01 over 10000 draws")


# --------------------------------------------------------------------------
# 4. Eq. (8) hand checks
# --------------------------------------------------------------------------

def test_04_expected_cost_hand_checks():
    cp = evalkit.CostParams()
    cases = [((0.0, 0.0), 1900.0), ((1.0, 1.0), 8000.0), ((1.0, 0.0), 3.04)]
    for (q_tp, q_fp), expected in cases:
        got = evalkit.expected_cost(cp, q_tp, q_fp)
        assert abs(got - expected) < 1e-9, f"cost({q_tp},{q_fp}) = {got}"
    _ok("4 eq8-hand-checks", "cost(0,0)=1900, cost(1,1)=8000, cost(1,0)=3.04 CNY "
        "exact to 1e-9")


# --------------------------------------------------------------------------
# 5. AUROC dual oracle
# --------------------------------------------------------------------------

def test_05_auroc_dual_oracle():
    rng = SeededRng(5, ("auroc-oracle",))
    worst = 0.0
    for i in range(200):
        r = rng.spawn("case", i)
        n = int(r.spawn("n").integers(4, 80))
        scores = r.spawn("scores").normal(n)
        if i % 2:
            scores = np.round(scores, 1)  # force ties
        labels = (r.spawn("labels").uniform(n) > 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        mw = evalkit.auroc(scores, labels)
        trap = evalkit.trapezoid_auroc(evalkit.roc_points(scores, labels))
        worst = max(worst, abs(mw - trap))
        assert abs(mw - trap) < 1e-12
    _ok("5 auroc-dual-oracle", f"200 sets (half with ties), worst |MW - trapezoid| "
        f"{worst:.2e} < 1e-12")


# --------------------------------------------------------------------------
# 6. Pretraining learns
# --------------------------------------------------------------------------

def test_06_pretraining_learns(pretrain_run):
    history = pretrain_run["history"]
    epoch1 = history[0][1]
    final = history[-1][1]
    assert len(history) == 20
    assert final < 0.5 * epoch1, f"final {final:.4f} vs epoch-1 {epoch1:.4f}"
    assert final < 1.0  # beats the predict-zero baseline on z-scored data
    assert pretrain_run["elapsed_s"] < 600.0
    _ok("6 pretraining-learns",
        f"epoch-1 train loss {epoch1:.4f} -> final {final:.4f} "
        f"(< 0.5x and < 1.0) in {pretrain_run['elapsed_s']:.0f}s")


# --------------------------------------------------------------------------
# 7. Warm-start advantage
# --------------------------------------------------------------------------

def test_07_warm_start_advantage(pretrain_run):
    # disjoint corpus: different generator seed, so no snippet is shared
    fleet = dataio.synth_fleet(dataio.FleetConfig(n_vehicles=16), 77, 128)
    train_n, val_n, _ = dataio.vehicle_split(fleet, 0.8, 88)

    cfg = pretrain_run["params"].cfg
    pcfg = pretrain.PretrainConfig(epochs=1)
    cold = model.init_params(cfg, SeededRng(2, ("init",)))
    warm, transfer = pretrain.transfer_init(pretrain_run["params"], cfg,
                                            SeededRng(2, ("init",)))
    assert transfer.fresh == []
    _, hist_cold = pretrain.run_pretrain(train_n, val_n, cold, pcfg, seed=3)
    _, hist_warm = pretrain.run_pretrain(train_n, val_n, warm, pcfg, seed=3)

    assert hist_warm[0][1] < hist_cold[0][1]
    _ok("7 warm-start-advantage",
        f"epoch-1 train loss warm {hist_warm[0][1]:.4f} < cold {hist_cold[0][1]:.4f} "
        "on a disjoint corpus, same seeds")


# --------------------------------------------------------------------------
# 8. Representation alignment (two subfleets)
# --------------------------------------------------------------------------

def test_08_representation_alignment(tmp_path):
    base = dataio.FleetConfig(n_vehicles=12, snippets_per_vehicle=4)
    sub_a = dataio.synth_fleet(
        dataclasses.replace(base, voltage_offset=0.02, temp_offset=0.5), 21, 128, id_prefix="a")
    sub_b = dataio.synth_fleet(
        dataclasses.replace(base, voltage_offset=-0.02, temp_offset=-0.5), 22, 128, id_prefix="b")
    fleet = dataio.merge_fleets(sub_a, sub_b)
    train_n, val_n, stats = dataio.vehicle_split(fleet, 0.8, 8)

    cfg = model.ModelConfig.desk_default()
    params = model.init_params(cfg, SeededRng(1, ("init",)))
    pretrain.run_pretrain(train_n, val_n, params, pretrain.PretrainConfig(epochs=6), seed=1)

    fleet_n = dataio.apply_norm(fleet, stats)
    groups = [vid[0] for vid in fleet_n.vehicle_ids]  # subfleet prefix a/b
    raw = fleet_n.channels.reshape(len(fleet_n), -1)
    emb = model.encode_batch(fleet_n.channels, params, cfg)

    mix_raw = evalkit.mixing_score(raw, groups)
    mix_emb = evalkit.mixing_score(emb, groups)
    assert mix_emb > mix_raw, f"embedding {mix_emb:.4f} vs raw {mix_raw:.4f}"

    # t-SNE outputs for both feature spaces
    for stem, X in (("tsne_raw", raw), ("tsne_embedding", emb)):
        coords, _ = evalkit.tsne(X, perplexity=10.0, iterations=300, seed=4)
        evalkit.write_tsne_outputs(coords, fleet_n.vehicle_ids, fleet_n.labels, tmp_path, stem)
        assert (tmp_path / f"{stem}.csv").exists()
        assert (tmp_path / f"{stem}.svg").exists()
    _ok("8 representation-alignment",
        f"mixing score embeddings {mix_emb:.4f} > raw {mix_raw:.4f}; "
        f"t-SNE written to {tmp_path}")


# --------------------------------------------------------------------------
# 9. Detection pipeline
# --------------------------------------------------------------------------

def test_09_detection_pipeline(default_fleet, pretrain_run):
    t0 = time.monotonic()
    train_n, val_n, _ = default_fleet
    results = {}
    for tag in ("pretrained", "random"):
        params = pretrain_run["params" if tag == "pretrained" else "random_params"]
        _, scores = downstream.detect_scores(params, train_n, val_n, downstream.GbdtConfig())
        _, veh_scores, veh_labels = evalkit.vehicle_scores(
            scores, val_n.labels, val_n.vehicle_ids, "mean")
        sweep = evalkit.roc_points(veh_scores, veh_labels)
        results[tag] = {
            "auroc": evalkit.auroc(veh_scores, veh_labels),
            "cost": evalkit.min_expected_cost(sweep, evalkit.CostParams()),
            "thresholds": sweep[0],
        }
    elapsed = time.monotonic() - t0
    total = pretrain_run["elapsed_s"] + elapsed

    assert results["pretrained"]["auroc"] >= 0.85
    assert results["pretrained"]["auroc"] >= results["random"]["auroc"]
    assert total < 900.0, f"pipeline took {total:.0f}s"
    cost, best, _ = results["pretrained"]["cost"]
    thr = results["pretrained"]["thresholds"][best]
    assert math.isfinite(cost)
    _ok("9 detection-pipeline",
        f"vehicle AUROC pretrained {results['pretrained']['auroc']:.4f} >= 0.85 and "
        f">= random-init {results['random']['auroc']:.4f}; min expected cost "
        f"{cost:.2f} CNY at threshold {thr:.4f}; total {total:.0f}s")


# --------------------------------------------------------------------------
# 10. Reproducibility
# --------------------------------------------------------------------------

def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_10_reproducibility(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))

    def pipeline(root):
        data, run, det, ts = (root / n for n in ("data", "run", "detect", "tsne"))
        assert cli_main(["synth", "--config", str(config), "--out", str(data)]) == 0
        assert cli_main(["pretrain", "--config", str(config), "--data", str(data),
                         "--out", str(run)]) == 0
        ckpt = str(run / "checkpoint.json")
        assert cli_main(["detect", "--config", str(config), "--data", str(data),
                         "--checkpoint", ckpt, "--out", str(det)]) == 0
        assert cli_main(["tsne", "--config", str(config), "--data", str(data),
                         "--checkpoint", ckpt, "--out", str(ts)]) == 0
        assert cli_main(["tsne", "--config", str(config), "--data", str(data),
                         "--raw", "--out", str(ts)]) == 0
        return _tree_bytes(root)

    first = pipeline(tmp_path / "one")
    second = pipeline(tmp_path / "two")
    assert set(first) == set(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"

    # checkpoint round-trips byte-identically
    ckpt_path = tmp_path / "one" / "run" / "checkpoint.json"
    resaved = tmp_path / "resaved.json"
    params, provenance = pretrain.load_checkpoint(ckpt_path)
    pretrain.save_checkpoint(params, resaved, provenance)
    assert ckpt_path.read_bytes() == resaved.read_bytes()
    _ok("10 reproducibility",
        f"{len(first)} output files byte-identical across re-runs of "
        "synth/pretrain/detect/tsne; checkpoint round-trip byte-identical")


# --------------------------------------------------------------------------
# 11. Scale sanity
# --------------------------------------------------------------------------

def test_11_full_scale_parameter_count():
    cfg = model.ModelConfig.full_scale()
    assert (cfg.L, cfg.H, cfg.A, cfg.FF) == (12, 768, 12, 3072)
    params = model.init_params(cfg, SeededRng(0, ("full-scale",)))
    count = sum(a.size for a in params.arrays.values())
    rel = abs(count - 110_000_000) / 110_000_000
    assert rel < 0.05, f"{count} params is {rel:.1%} from 110M"
    _ok("11 scale-sanity",
        f"full-scale preset has {count:,} parameters ({rel:.2%} from 110M)")
