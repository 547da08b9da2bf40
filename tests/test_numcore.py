import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from battfault.model import ModelConfig, _embed_fwd, embed_dropout, init_params
from battfault.numcore import (
    GELU_CUBIC,
    SQRT_2_OVER_PI,
    SeededRng,
    dropout_mask,
    gelu_from_tanh,
    gelu_fwd,
    gelu_grad,
    layer_norm_bwd,
    layer_norm_fwd,
    softmax_bwd,
    softmax_rows,
)

finite_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=6),
    elements=st.floats(-50, 50),
)


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(3).normal((4, 5))
        b = SeededRng(3).normal((4, 5))
        np.testing.assert_array_equal(a, b)

    def test_spawn_names_give_distinct_streams(self):
        root = SeededRng(3)
        a = root.spawn("alpha").normal(1000)
        b = root.spawn("beta").normal(1000)
        assert not np.array_equal(a, b)

    def test_spawn_is_order_independent(self):
        r1 = SeededRng(3)
        first = r1.spawn("x").normal(8)
        r2 = SeededRng(3)
        r2.spawn("unrelated").normal(8)
        again = r2.spawn("x").normal(8)
        np.testing.assert_array_equal(first, again)

    def test_multilevel_spawn(self):
        a = SeededRng(3).spawn("a").spawn("b", 2).uniform(16)
        b = SeededRng(3).spawn("a").spawn("b", 2).uniform(16)
        np.testing.assert_array_equal(a, b)


class TestLayerNorm:
    def test_unit_stats(self):
        x = SeededRng(0).normal((5, 16)) * 3 + 2
        y, _ = layer_norm_fwd(x, np.ones(16), np.zeros(16))
        np.testing.assert_allclose(y.mean(axis=-1), 0, atol=1e-12)
        np.testing.assert_allclose(y.std(axis=-1), 1, atol=1e-6)

    @given(finite_arrays)
    @settings(max_examples=30, deadline=None)
    def test_shift_invariant(self, x):
        H = x.shape[-1]
        g, b = np.ones(H), np.zeros(H)
        shifted, _ = layer_norm_fwd(x + 17.0, g, b)
        np.testing.assert_allclose(shifted, layer_norm_fwd(x, g, b)[0], atol=1e-6)

    def test_backward_matches_finite_differences(self):
        rng = SeededRng(1)
        x = rng.spawn("x").normal((3, 8))
        g = rng.spawn("g").normal(8) + 1.0
        b = rng.spawn("b").normal(8)
        dy = rng.spawn("dy").normal((3, 8))

        y, cache = layer_norm_fwd(x, g, b)
        dx, dg, db = layer_norm_bwd(dy, cache)

        h = 1e-6
        for arr, grad in ((x, dx), (g, dg), (b, db)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                orig = arr[i]
                arr[i] = orig + h
                up = float((layer_norm_fwd(x, g, b)[0] * dy).sum())
                arr[i] = orig - h
                dn = float((layer_norm_fwd(x, g, b)[0] * dy).sum())
                arr[i] = orig
                np.testing.assert_allclose(grad[i], (up - dn) / (2 * h), atol=1e-4)


class TestSoftmax:
    @given(finite_arrays)
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one(self, x):
        p = softmax_rows(x)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert (p >= 0).all()

    def test_shift_invariance(self):
        x = SeededRng(2).normal((4, 6))
        np.testing.assert_allclose(softmax_rows(x), softmax_rows(x + 100.0), atol=1e-12)

    def test_input_left_unchanged(self):
        # exp and the divide run in place, in a buffer of softmax_rows' own
        x = SeededRng(2).normal((2, 3, 4, 5))
        before = x.copy()
        p = softmax_rows(x)
        np.testing.assert_array_equal(x, before)
        assert not np.shares_memory(p, x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_out_x_reuses_the_input_buffer(self, dtype):
        x = (SeededRng(3).normal((2, 3, 4, 5)) * 4.0).astype(dtype)
        want = softmax_rows(x)
        got = softmax_rows(x, out=x)
        assert got is x
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_out_dprobs_reuses_the_gradient_buffer(self, dtype):
        rng = SeededRng(3)
        p = softmax_rows(rng.spawn("x").normal((2, 3, 4, 5)).astype(dtype))
        dp = rng.spawn("dp").normal((2, 3, 4, 5)).astype(dtype)
        p_before = p.copy()
        want = softmax_bwd(dp, p)
        got = softmax_bwd(dp, p, out=dp)
        assert got is dp
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(p, p_before)

    def test_backward_out_takes_a_buffer_of_the_callers(self):
        rng = SeededRng(5)
        p = softmax_rows(rng.spawn("x").normal((3, 6)))
        dp = rng.spawn("dp").normal((3, 6))
        dp_before, buf = dp.copy(), np.empty_like(dp)
        got = softmax_bwd(dp, p, out=buf)
        assert got is buf
        np.testing.assert_array_equal(got, softmax_bwd(dp, p))
        np.testing.assert_array_equal(dp, dp_before)

    def test_backward_matches_finite_differences(self):
        rng = SeededRng(4)
        x = rng.spawn("x").normal((2, 5))
        dp = rng.spawn("dp").normal((2, 5))
        p = softmax_rows(x)
        dx = softmax_bwd(dp, p)
        h = 1e-6
        num = np.empty_like(x)
        for i in np.ndindex(x.shape):
            orig = x[i]
            x[i] = orig + h
            up = float((softmax_rows(x) * dp).sum())
            x[i] = orig - h
            dn = float((softmax_rows(x) * dp).sum())
            x[i] = orig
            num[i] = (up - dn) / (2 * h)
        np.testing.assert_allclose(dx, num, atol=1e-6)


class TestGelu:
    def test_known_values(self):
        np.testing.assert_allclose(gelu_fwd(np.array(0.0))[0], 0.0, atol=1e-15)
        # tanh-form GELU at x=1 (BERT convention)
        np.testing.assert_allclose(gelu_fwd(np.array(1.0))[0], 0.841192, atol=1e-5)

    def test_fwd_returns_reusable_tanh_term(self):
        x = SeededRng(5).normal(64)
        y, t = gelu_fwd(x)
        np.testing.assert_array_equal(y, 0.5 * x * (1.0 + t))
        # the value a backward pass rebuilds from x and t
        np.testing.assert_array_equal(gelu_from_tanh(x, t), y)
        np.testing.assert_allclose(t, np.tanh(SQRT_2_OVER_PI * (x + GELU_CUBIC * x * x * x)),
                                   rtol=1e-15, atol=0)

    def test_grad_matches_finite_differences(self):
        x = np.linspace(-4, 4, 101)
        h = 1e-6
        num = (gelu_fwd(x + h)[0] - gelu_fwd(x - h)[0]) / (2 * h)
        np.testing.assert_allclose(gelu_grad(x, gelu_fwd(x)[1]), num, atol=1e-8)

    @pytest.mark.parametrize("x", [
        np.array(1.0),
        np.array(-3.7),
        np.linspace(-10.0, 10.0, 200_001),
        SeededRng(8).normal((4, 9, 16)) * 3.0,
    ], ids=["0-d", "0-d-negative", "ramp", "3-d"])
    def test_matches_pow_cube_formula(self, x):
        # the cube is x * x * x rather than x ** 3 (libm pow); both round
        # differently in the last ulp only
        u = SQRT_2_OVER_PI * (x + GELU_CUBIC * x ** 3)
        t_ref = np.tanh(u)
        y, t = gelu_fwd(x)
        assert np.shape(y) == np.shape(t) == x.shape
        np.testing.assert_allclose(t, t_ref, rtol=1e-15, atol=0)
        # where tanh nears -1, 1 + t is a multiple of 2**-53, so y is only
        # close to 1e-15 relative away from zero; the absolute floor covers
        # that tail (|x| <= 10)
        np.testing.assert_allclose(y, 0.5 * x * (1.0 + t_ref), rtol=1e-15, atol=1e-15)


class TestDropout:
    def test_eval_mode_is_identity(self):
        # dropout runs only when a dropout multiplier is given: an embedding
        # without one equals one with the rate set to zero
        cfg = ModelConfig(D=3, H=8, L=1, A=2, FF=8, M_max=5, dropout_rate=0.5)
        a = init_params(cfg, SeededRng(6, ("init",))).arrays
        X = SeededRng(6).normal((2, 4, 3))
        out, (_, _, mask) = _embed_fwd(X, a, cfg)
        off_cfg = dataclasses.replace(cfg, dropout_rate=0.0)
        off, _ = _embed_fwd(X, a, off_cfg, dropout=embed_dropout(X, off_cfg, SeededRng(0)))
        assert mask is None
        np.testing.assert_array_equal(out, off)

    def test_inverted_scaling_preserves_mean(self):
        y = dropout_mask((200, 200), 0.3, SeededRng(7), np.float64)
        kept = y[y != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, atol=1e-12)
        np.testing.assert_allclose(y.mean(), 1.0, atol=0.01)

    def test_bad_rate_rejected(self):
        # the rate reaches dropout_mask only through a validated ModelConfig
        for rate in (1.0, -0.1):
            with pytest.raises(ValueError, match="dropout_rate"):
                ModelConfig(dropout_rate=rate)


class TestDtypeFollowsInput:
    """Every block returns its input's float dtype.

    A float32 training step stays float32 only if no constant upcasts it: under
    NEP 50 an np.float64 scalar turns a float32 array into float64, which
    would silently run the step at float64 cost.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_input_keeps_its_dtype(self, dtype):
        rng = SeededRng(11)
        x = rng.spawn("x").normal((2, 3, 8)).astype(dtype)
        dy = rng.spawn("dy").normal((2, 3, 8)).astype(dtype)
        g, b = np.ones(8, dtype=dtype), np.zeros(8, dtype=dtype)

        y, t = gelu_fwd(x)
        outputs = {"gelu_fwd": y, "gelu_fwd tanh": t, "gelu_grad": gelu_grad(x, t)}
        p = softmax_rows(x)
        outputs.update(softmax_rows=p, softmax_bwd=softmax_bwd(dy, p))
        normed, cache = layer_norm_fwd(x, g, b)
        dx, dg, db = layer_norm_bwd(dy, cache)
        outputs.update(layer_norm_fwd=normed, layer_norm_bwd=dx, dgamma=dg, dbeta=db)
        outputs["dropout_mask"] = dropout_mask(x.shape, 0.3, rng.spawn("drop"), dtype)
        for name, out in outputs.items():
            assert out.dtype == dtype, name


class TestBuffersOfTheirOwn:
    """The backward kernels and layer norm write in place only into arrays they allocate."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_left_unchanged(self, dtype):
        rng = SeededRng(12)
        x, dy, g, b = (rng.spawn(n).normal(s).astype(dtype)
                       for n, s in (("x", (2, 3, 8)), ("dy", (2, 3, 8)), ("g", 8), ("b", 8)))
        p = softmax_rows(x)
        _, t = gelu_fwd(x)
        _, cache = layer_norm_fwd(x, g, b)
        cache_before = [c.copy() for c in cache]
        inputs = [x, dy, g, b, p, t]
        before = [a.copy() for a in inputs]
        outputs = {
            "softmax_bwd": [softmax_bwd(dy, p)],
            "gelu_grad": [gelu_grad(x, t)],
            "layer_norm_fwd": [layer_norm_fwd(x, g, b)[0], *layer_norm_fwd(x, g, b)[1][:2]],
            "layer_norm_bwd": list(layer_norm_bwd(dy, cache)),
        }
        for arr, old in zip(inputs + list(cache), before + cache_before):
            np.testing.assert_array_equal(arr, old)
        for name, outs in outputs.items():
            for out in outs:
                assert out.dtype == dtype, name
                assert not any(np.shares_memory(out, a) for a in inputs + list(cache)), name

    def test_match_the_textbook_formulas(self):
        # the buffered kernels reorder the arithmetic, so float64 results
        # agree with the direct expressions to rounding, not bit for bit
        rng = SeededRng(14)
        x, dy = rng.spawn("x").normal((2, 5, 8)) * 2.0, rng.spawn("dy").normal((2, 5, 8))
        g, b = rng.spawn("g").normal(8) + 1.0, rng.spawn("b").normal(8)
        close = dict(rtol=1e-12, atol=1e-12)

        p = softmax_rows(x)
        np.testing.assert_allclose(softmax_bwd(dy, p), p * (dy - (dy * p).sum(-1, keepdims=True)),
                                   **close)
        _, t = gelu_fwd(x)
        du = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_CUBIC * x ** 2)
        np.testing.assert_allclose(gelu_grad(x, t), 0.5 * (1 + t) + 0.5 * x * (1 - t ** 2) * du,
                                   **close)
        mu = x.mean(-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(((x - mu) ** 2).mean(-1, keepdims=True) + 1e-12)
        xhat = (x - mu) * inv_std
        y, cache = layer_norm_fwd(x, g, b)
        np.testing.assert_allclose(y, g * xhat + b, **close)
        dxhat = dy * g
        dx = inv_std * (dxhat - dxhat.mean(-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(-1, keepdims=True))
        for got, want in zip(layer_norm_bwd(dy, cache), (dx, (dy * xhat).sum((0, 1)), dy.sum((0, 1)))):
            np.testing.assert_allclose(got, want, **close)

    def test_stacked_affine_parameters_broadcast(self):
        # a P-stacked gamma or beta (the gradient check's layout) makes the
        # output P rows deep; only a vector beta may be added in place
        rng = SeededRng(13)
        x = rng.spawn("x").normal((1, 3, 8))
        g, b = rng.spawn("g").normal(8) + 1.0, rng.spawn("b").normal(8)
        g_stack, b_stack = g + rng.spawn("gs").normal((4, 1, 8)), b + rng.spawn("bs").normal((4, 1, 8))
        xhat = layer_norm_fwd(x, np.ones(8), np.zeros(8))[0]
        for gamma, beta in ((g_stack, b), (g, b_stack), (g_stack, b_stack)):
            y, _ = layer_norm_fwd(x, gamma, beta)
            assert y.shape == (4, 3, 8)
            np.testing.assert_allclose(y, gamma * xhat + beta, rtol=1e-12, atol=1e-12)

