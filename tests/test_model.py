import numpy as np
import pytest

from battfault import model
from battfault.model import (
    ModelConfig,
    ModelParams,
    _embed_fwd,
    _encoder_fwd,
    _head_fwd,
    encode_batch,
    init_params,
    msm_backward,
    msm_forward,
    param_shapes,
)
from battfault.numcore import DimensionError, SeededRng
from battfault.pretrain import corrupt, sample_mask


@pytest.fixture(scope="module")
def tiny():
    cfg = ModelConfig(D=3, H=16, L=2, A=2, FF=32, M_max=9, dropout_rate=0.1, K=2)
    params = init_params(cfg, SeededRng(1, ("init",)))
    return cfg, params


def random_instance(cfg, seed, B=1):
    rng = SeededRng(seed)
    M = cfg.M_max - 1
    X = rng.spawn("x").normal((B, M, cfg.D))
    mask = np.zeros((B, M, cfg.D))
    flat = rng.spawn("mask").choice(M * cfg.D, size=max(1, M * cfg.D // 5))
    for b in range(B):
        sel = rng.spawn("mask", b).choice(M * cfg.D, size=max(1, M * cfg.D // 5))
        mask[b].flat[np.asarray(sel, dtype=int)] = 1.0
    del flat
    return X * (1 - mask), X, mask


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(D=3, H=15, L=1, A=2, FF=8, M_max=4)  # H not divisible by A
        with pytest.raises(ValueError, match="physical memory"):
            ModelConfig(L=10 ** 16)  # parameters past physical memory
        with pytest.raises(ValueError, match="physical memory"):
            # 6.4e8 parameters fit as float64 weights alone, but not with the
            # gradients, the Adam moments and 6.4e8 arrays of a training step
            ModelConfig(H=1, A=1, FF=1, L=40_000_000)

    def test_desk_default(self):
        cfg = ModelConfig.desk_default()
        assert (cfg.L, cfg.H, cfg.A) == (2, 64, 4)

    def test_full_scale_dimensions(self):
        cfg = ModelConfig.full_scale()
        assert (cfg.L, cfg.H, cfg.A, cfg.FF) == (12, 768, 12, 3072)

    def test_param_shapes_cover_init(self, tiny):
        cfg, params = tiny
        shapes = param_shapes(cfg)
        assert set(shapes) == set(params.arrays)
        for name, shape in shapes.items():
            assert params.arrays[name].shape == shape


class TestForwardShapes:
    def test_embed_prepends_cls(self, tiny):
        cfg, params = tiny
        X = SeededRng(2).normal((1, 8, cfg.D))
        E, _ = _embed_fwd(X, params.arrays, cfg)
        assert E.shape == (1, 9, cfg.H)

    def test_encode_and_reconstruct(self, tiny):
        cfg, params = tiny
        X = SeededRng(3).normal((1, 8, cfg.D))
        E, _ = _embed_fwd(X, params.arrays, cfg)
        Hs = _encoder_fwd(E, params.arrays, cfg)
        assert Hs.shape == (1, 9, cfg.H)
        recon = _head_fwd(Hs, params.arrays)
        assert recon.shape == (1, 8, cfg.D)

    def test_sequence_too_long_rejected(self, tiny):
        cfg, params = tiny
        X = SeededRng(4).normal((1, cfg.M_max, cfg.D))  # M_max rows + CLS overflows
        with pytest.raises(DimensionError):
            _embed_fwd(X, params.arrays, cfg)

    def test_encode_batch_matches_single(self, tiny):
        cfg, params = tiny
        X = SeededRng(5).normal((4, 8, cfg.D))
        batched = encode_batch(X, params, cfg)
        for b in range(4):
            np.testing.assert_allclose(batched[b], encode_batch(X[b:b + 1], params, cfg)[0],
                                       atol=1e-12)

    def test_eval_mode_deterministic(self, tiny):
        cfg, params = tiny
        X = SeededRng(6).normal((1, 8, cfg.D))
        np.testing.assert_array_equal(encode_batch(X, params, cfg),
                                      encode_batch(X, params, cfg))

    @pytest.mark.parametrize("L", [1, 2])
    @pytest.mark.parametrize("B", [1, 32])
    def test_encode_batch_matches_full_forward_row0(self, L, B):
        # encode_batch runs the last layer on the summary row alone; the
        # weights are scaled up from the init so that attention is far from
        # uniform and a query taken from the wrong row shows
        cfg = ModelConfig(D=3, H=16, L=L, A=2, FF=32, M_max=17, dropout_rate=0.1, K=2)
        init = init_params(cfg, SeededRng(21, ("init",))).arrays
        params = ModelParams(cfg, {k: v + 0.3 * SeededRng(22, (k,)).normal(v.shape)
                                   for k, v in init.items()})
        X = SeededRng(23).normal((B, 16, cfg.D))
        E, _ = _embed_fwd(X, params.arrays, cfg)
        full = _encoder_fwd(E, params.arrays, cfg)[:, 0, :]
        summary = encode_batch(X, params, cfg)
        assert summary.shape == (B, cfg.H)
        np.testing.assert_allclose(summary, full, rtol=1e-12, atol=0)


class TestMsmLoss:
    def test_matches_naive_double_loop(self, tiny):
        cfg, params = tiny
        Xc, X, mask = random_instance(cfg, 7)
        loss = msm_forward(params, cfg, Xc, X, mask)[0]
        E, _ = _embed_fwd(Xc, params.arrays, cfg)
        Hs = _encoder_fwd(E, params.arrays, cfg)
        recon = _head_fwd(Hs, params.arrays)[0]
        total, count = 0.0, 0
        M, D = mask.shape[1:]
        for t in range(M):
            for d in range(D):
                if mask[0, t, d]:
                    total += (recon[t, d] - X[0, t, d]) ** 2
                    count += 1
        assert abs(loss - total / count) < 1e-12

    def test_unmasked_cells_do_not_contribute(self, tiny):
        cfg, params = tiny
        Xc, X, mask = random_instance(cfg, 8)
        base = msm_forward(params, cfg, Xc, X, mask)[0]
        X2 = X + 100.0 * (1 - mask)  # perturb targets only where unmasked
        assert msm_forward(params, cfg, Xc, X2, mask)[0] == base

    def test_forward_without_cache_gives_the_same_loss(self, tiny):
        cfg, params = tiny
        Xc, X, mask = random_instance(cfg, 16, B=2)
        loss = msm_forward(params, cfg, Xc, X, mask)[0]
        assert msm_forward(params, cfg, Xc, X, mask, keep_cache=False) == (loss, None)

    def test_empty_mask_rejected(self, tiny):
        cfg, params = tiny
        Xc, X, mask = random_instance(cfg, 9)
        with pytest.raises(ValueError):
            msm_forward(params, cfg, Xc, X, np.zeros_like(mask))

    def test_batch_loss_pools_masked_cells(self, tiny):
        # batch loss = total masked SE / total masked count, not a mean of means
        cfg, params = tiny
        Xc, X, mask = random_instance(cfg, 10, B=3)
        batch_loss, _ = msm_forward(params, cfg, Xc, X, mask)
        se = 0.0
        for b in range(3):
            lb = msm_forward(params, cfg, Xc[b:b + 1], X[b:b + 1], mask[b:b + 1])[0]
            se += lb * mask[b].sum()
        assert abs(batch_loss - se / mask.sum()) < 1e-12


def full_row_loss(params, Xc, X, mask):
    """The masked loss with the last layer and the head run on every row."""
    a, cfg = params.arrays, params.cfg
    diff = _head_fwd(_encoder_fwd(_embed_fwd(Xc, a, cfg)[0], a, cfg), a) - X
    return float((mask * diff * diff).sum() / mask.sum())


class TestMaskedRows:
    """The last layer and the head run only on the data rows that hold a masked cell."""

    def three_snippets(self, cfg):
        # 5, 2 and 1 hit rows: the second and third snippet are padded, and
        # the third holds one masked cell
        rng = SeededRng(31)
        X = rng.spawn("x").normal((3, cfg.M_max - 1, cfg.D))
        mask = np.zeros_like(X)
        mask[0, [0, 2, 3, 5, 7], 1] = 1.0
        mask[0, 3] = 1.0
        mask[1, [1, 6]] = 1.0
        mask[2, 4, 2] = 1.0
        return X * (1 - mask), X, mask

    def test_padded_pass_loss_equals_the_full_row_loss(self, tiny):
        cfg, params = tiny
        Xc, X, mask = self.three_snippets(cfg)
        assert mask.any(axis=2).sum(axis=1).tolist() == [5, 2, 1]
        loss = msm_forward(params, cfg, Xc, X, mask)[0]
        assert loss == pytest.approx(full_row_loss(params, Xc, X, mask), rel=1e-12, abs=0)

    def test_padded_pass_gradients_sum_the_single_snippet_passes(self, tiny):
        cfg, params = tiny
        Xc, X, mask = self.three_snippets(cfg)
        grads = msm_backward(msm_forward(params, cfg, Xc, X, mask)[1], params, cfg)
        expected = {name: np.zeros_like(g) for name, g in grads.items()}
        for b in range(3):
            one = slice(b, b + 1)
            cache = msm_forward(params, cfg, Xc[one], X[one], mask[one])[1]
            part = msm_backward(cache, params, cfg)
            for name, g in part.items():
                expected[name] += g * (mask[b].sum() / mask.sum())
        norm = np.sqrt(sum(float((g * g).sum()) for g in expected.values()))
        worst = max(float(np.abs(grads[name] - g).max()) for name, g in expected.items())
        assert worst <= 1e-12 * norm, f"{worst} against a global norm of {norm}"

    def test_gate_passes_on_a_one_cell_mask(self, tiny):
        # every last-layer row but one is skipped by the analytic pass, and
        # the finite differences run every row
        cfg, params = tiny
        Xc, X, _ = random_instance(cfg, 32)
        mask = np.zeros_like(X)
        mask[0, 5, 1] = 1.0
        report = model.msm_grad_check(params, X[0] * (1 - mask[0]), X[0], mask[0])
        assert report.max_rel_error <= model.GRAD_CHECK_TOL, report.failed

    def test_no_layer_reads_the_masked_embedding_rows(self):
        # with L = 0 the head reads the embedding rows that hold a masked cell
        cfg = ModelConfig(D=3, H=8, L=0, A=2, FF=8, M_max=17, K=0)
        params = init_params(cfg, SeededRng(33, ("init",)))
        Xc, X, mask = random_instance(cfg, 34, B=2)
        loss = msm_forward(params, cfg, Xc, X, mask)[0]
        E, _ = _embed_fwd(Xc, params.arrays, cfg)
        recon = _head_fwd(_encoder_fwd(E, params.arrays, cfg), params.arrays)
        total = sum((recon[b, t, d] - X[b, t, d]) ** 2 for b, t, d in zip(*np.nonzero(mask)))
        assert abs(loss - total / mask.sum()) < 1e-12
        report = model.msm_grad_check(params, Xc[0], X[0], mask[0])
        assert report.ok, report.failed


class TestBackward:
    def test_grads_cover_all_params_and_are_finite(self, tiny):
        cfg, params = tiny
        Xc, X, mask = random_instance(cfg, 11, B=2)
        _, cache = msm_forward(params, cfg, Xc, X, mask)
        grads = msm_backward(cache, params, cfg)
        assert set(grads) == set(param_shapes(cfg))
        for name, g in grads.items():
            assert g.shape == params.arrays[name].shape
            assert np.isfinite(g).all(), name

    def test_a_consumed_cache_is_refused(self, tiny):
        # the backward takes the layer caches off the forward's cache as it
        # reads them, so the cache serves one backward pass
        cfg, params = tiny
        Xc, X, mask = random_instance(cfg, 11, B=2)
        _, cache = msm_forward(params, cfg, Xc, X, mask)
        msm_backward(cache, params, cfg)
        assert cache[1] == []
        with pytest.raises(ValueError, match="an earlier msm_backward consumed"):
            msm_backward(cache, params, cfg)

    def test_bk_gradient_vanishes(self, tiny):
        # softmax is shift-invariant, so the key biases (bqkv's middle block) get
        # zero gradient up to float cancellation residue
        cfg, params = tiny
        Xc, X, mask = random_instance(cfg, 12)
        _, cache = msm_forward(params, cfg, Xc, X, mask)
        grads = msm_backward(cache, params, cfg)
        for i in range(cfg.L):
            np.testing.assert_allclose(grads[f"layer{i}.bqkv"][cfg.H:2 * cfg.H], 0.0, atol=1e-18)

    def test_gradient_check_tiny_config(self, tiny):
        cfg, params = tiny
        Xc, X, mask = random_instance(cfg, 13)
        report = model.msm_grad_check(params, Xc[0], X[0], mask[0])
        assert report.ok, report.failed

    def test_gradient_check_rejects_a_batch(self, tiny):
        # the gate perturbs one snippet, so a batch would compare its
        # one-snippet differences against the batch gradient
        cfg, params = tiny
        Xc, X, mask = random_instance(cfg, 13, B=2)
        with pytest.raises(ValueError, match=r"one \(M, D\) snippet"):
            model.msm_grad_check(params, Xc, X, mask)


# the gradient check stacks variants of one array; a representative spread
# over every stage, vectors and matrices, the positional table and the head
STACKED = ["embed.pos", "embed.cls", "embed.W_e", "embed.ln_g", "layer0.Wqkv",
           "layer0.bqkv", "layer1.ln1_b", "layer1.W2", "head.W", "head.b"]


class TestStackedForward:
    @pytest.mark.parametrize("name", STACKED)
    def test_stacked_losses_match_per_variant_forward(self, tiny, name):
        cfg, params = tiny
        Xc, X, mask = random_instance(cfg, 14)
        base = params.arrays[name]
        P = 3
        # a vector's variants are (P, 1, n), as the gradient check stacks them
        stacked = base + 1e-2 * SeededRng(15, (name,)).normal((P,) + (1,) * (base.ndim == 1) + base.shape)
        a = dict(params.arrays, **{name: stacked})
        E, _ = _embed_fwd(Xc, a, cfg)
        Hs = _encoder_fwd(E, a, cfg)
        diff = _head_fwd(Hs, a) - X[0]
        losses = (mask[0] * diff * diff).sum(axis=(1, 2)) / mask[0].sum()
        assert losses.shape == (P,)
        for p in range(P):
            variant = ModelParams(cfg, dict(params.arrays, **{name: stacked[p].reshape(base.shape)}))
            expected = msm_forward(variant, cfg, Xc, X, mask)[0]
            assert losses[p] == pytest.approx(expected, rel=1e-12, abs=0)

    def test_gate_catches_a_wrong_gradient(self, tiny, monkeypatch):
        cfg, params = tiny
        Xc, X, mask = random_instance(cfg, 13)
        backward = model.msm_backward

        def scaled(cache, params, cfg):
            grads = backward(cache, params, cfg)
            grads["layer1.W2"] = grads["layer1.W2"] * 1.01
            return grads

        monkeypatch.setattr(model, "msm_backward", scaled)
        report = model.msm_grad_check(params, Xc[0], X[0], mask[0])
        assert report.failed == ["layer1.W2"]

    # one entry off: the largest of a large-gradient array by 0.1%, and the
    # median-sized entry (rank 24 of 48 by magnitude) of a bias by 1%
    @pytest.mark.parametrize("name, rank, factor", [("layer1.W2", -1, 1.001),
                                                    ("layer0.bqkv", 24, 1.01)])
    def test_gate_catches_one_wrong_entry(self, tiny, monkeypatch, name, rank, factor):
        cfg, params = tiny
        Xc, X, mask = random_instance(cfg, 13)
        backward = model.msm_backward

        def one_entry_off(cache, params, cfg):
            grads = backward(cache, params, cfg)
            flat = grads[name].reshape(-1)
            flat[np.argsort(np.abs(flat))[rank]] *= factor
            return grads

        monkeypatch.setattr(model, "msm_backward", one_entry_off)
        report = model.msm_grad_check(params, Xc[0], X[0], mask[0])
        assert report.failed == [name]


SWEEP = ModelConfig(D=3, H=16, L=1, A=2, FF=16, M_max=9)


def test_gate_passes_the_true_gradient_over_40_seeds():
    # the criterion-1 set-up at a small width: rounding noise in the finite
    # differences of tiny gradient entries must not read as a failure
    failures = {}
    for seed in range(2000, 2040):
        params = init_params(SWEEP, SeededRng(seed, ("gradcheck",)))
        rng = SeededRng(seed + 1, ("gradcheck-data",))
        X = rng.spawn("x").normal((8, SWEEP.D))
        mask = sample_mask(8, SWEEP.D, 0.25, rng.spawn("mask"))
        report = model.msm_grad_check(params, corrupt(X, mask), X, mask)
        if not report.ok:
            failures[seed] = {name: report.rel_error[name] for name in report.failed}
    assert not failures


class TestParamCount:
    def test_desk_count_matches_shapes(self, tiny):
        cfg, params = tiny
        expected = sum(int(np.prod(s)) for s in param_shapes(cfg).values())
        assert sum(a.size for a in params.arrays.values()) == expected

    @pytest.mark.parametrize("cfg", [ModelConfig.desk_default(), ModelConfig.full_scale(),
                                     ModelConfig(D=2, H=8, L=0, A=2, FF=8, M_max=5, K=0)])
    def test_closed_form_count_matches_shapes(self, cfg):
        assert cfg.n_params == sum(int(np.prod(s)) for s in param_shapes(cfg).values())
        assert cfg.n_arrays == len(param_shapes(cfg))
