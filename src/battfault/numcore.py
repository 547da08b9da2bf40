"""Dense numerical core: float tensors, seeded randomness, encoder building blocks.

Tensors are plain ``numpy.ndarray`` and are treated as immutable values by
every public operation. A block computes in its input's float dtype (float64
or float32) and returns that dtype; every constant is a Python float, which
numpy casts to the array's dtype instead of upcasting the array. All
randomness flows through :class:`SeededRng`, a counter-based (Philox)
generator keyed by an explicit seed plus named substreams, so any computation
is reproducible from its seed.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
GELU_CUBIC = 0.044715
LN_EPS = 1e-12  # layer-norm variance floor


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


class NonFiniteError(FloatingPointError):
    """Raised when an operation produces or receives NaN/Inf values."""


# ---------------------------------------------------------------------------
# RNG
# ---------------------------------------------------------------------------


def _stream_key(name) -> int:
    if isinstance(name, str):
        return zlib.crc32(name.encode("utf-8"))
    return int(name) & 0xFFFFFFFF


class SeededRng:
    """Counter-based RNG: identical (seed, stream path) gives an identical draw stream."""

    def __init__(self, seed: int, stream: tuple = ()):
        self.seed = int(seed)
        self.stream = tuple(_stream_key(s) for s in stream)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def spawn(self, *names) -> "SeededRng":
        """Derive an independent substream; names may be strings or ints."""
        return SeededRng(self.seed, self.stream + tuple(names))

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, std, size=shape)

    def uniform(self, shape) -> np.ndarray:
        return self._gen.uniform(0.0, 1.0, size=shape)

    def integers(self, low, high):
        return self._gen.integers(low, high)

    def choice(self, n: int, size: int) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=False)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


def layer_norm_fwd(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Normalize the last axis to zero mean / unit population variance, then affine.

    Also returns the cache needed for the backward pass.
    """
    # one buffer: x centred, then scaled to xhat in place; the row dot
    # products (np.vecdot) read their operands once and write no temporary
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(np.vecdot(xhat, xhat)[..., None] / xhat.shape[-1] + LN_EPS)
    xhat *= inv_std
    y = gamma * xhat
    # a P-stacked beta broadcasts y to P rows, so only a vector adds in place
    if np.ndim(beta) == 1:
        y += beta
    else:
        y = y + beta
    return y, (xhat, inv_std, gamma)


def layer_norm_bwd(dy: np.ndarray, cache):
    """Gradients of layer_norm_fwd: returns (dx, dgamma, dbeta)."""
    xhat, inv_std, gamma = cache
    axes = tuple(range(dy.ndim - 1))
    dbeta = dy.sum(axis=axes)
    H = dy.shape[-1]
    # dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = dy * gamma,
    # in one buffer that holds dy * xhat, then dxhat, then dx; the row means
    # are dot products with gamma (np.vecdot), which write no temporary
    buf = dy * xhat
    dgamma = buf.sum(axis=axes)
    m2 = np.vecdot(buf, gamma)[..., None] / H
    np.multiply(dy, gamma, out=buf)
    buf -= np.vecdot(dy, gamma)[..., None] / H
    buf -= xhat * m2
    buf *= inv_std
    return buf, dgamma, dbeta


def softmax_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Stable softmax along the last axis (max-subtraction).

    As with a numpy ufunc, ``out`` receives the result; by default it is a
    new array and ``x`` is left unchanged. ``out=x`` reuses x's own buffer.
    """
    # the shift writes one buffer (out, or a new array); exp and the divide run in it
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_bwd(dprobs: np.ndarray, probs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Backward of softmax_rows given output probs and upstream gradient.

    As with a numpy ufunc, ``out`` receives the result; by default it is a
    new array and ``dprobs`` is left unchanged. ``out=dprobs`` reuses
    dprobs's own buffer.
    """
    # the row dot products (np.vecdot) write no temporary and are taken
    # before out is written; g is the one buffer
    g = np.subtract(dprobs, np.vecdot(dprobs, probs)[..., None], out=out)
    g *= probs
    return g


def gelu_fwd(x: np.ndarray):
    """GELU activation, tanh approximation; returns (value, tanh term).

    The tanh term is the expensive part of the derivative, so callers that
    will run a backward pass should keep it and hand it to gelu_grad.
    """
    # tanh(sqrt(2/pi) * (x + c*x^3)), built up in one buffer. The cube is
    # x * x * x: numpy sends x ** 3 through libm pow, several times slower.
    # An explicit out= keeps a 0-d input an array, so the in-place steps hold.
    t = np.multiply(x, x, out=np.empty_like(x))
    t *= x
    t *= GELU_CUBIC
    t += x
    t *= SQRT_2_OVER_PI
    np.tanh(t, out=t)
    return gelu_from_tanh(x, t), t


def gelu_from_tanh(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """GELU's value 0.5 * x * (1 + t) from its input and gelu_fwd's tanh term.

    gelu_fwd returns through this, so a backward pass that keeps only x and
    t rebuilds the value bit for bit.
    """
    y = t + 1.0
    y *= x
    y *= 0.5
    return y


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Elementwise derivative of the tanh-form GELU; ``t`` is gelu_fwd's tanh term."""
    # 0.5 * (1 + t) + 0.5 * x * du * (1 - t^2), du = sqrt(2/pi) * (1 + 3c * x^2),
    # as 0.5 * (1 + t) * (1 + x * du * (1 - t)) in g, with s holding 1 - t, then 1 + t
    g = np.multiply(x, x, out=np.empty_like(x))
    g *= 3.0 * GELU_CUBIC
    g += 1.0
    g *= x
    g *= SQRT_2_OVER_PI
    s = np.subtract(1.0, t, out=np.empty_like(g))
    g *= s
    g += 1.0
    np.add(t, 1.0, out=s)
    g *= s
    g *= 0.5
    return g


def dropout_mask(shape, rate: float, rng: SeededRng, dtype) -> np.ndarray:
    """Inverted-dropout multiplier of the given dtype: entries are 0 or 1/(1-rate)."""
    keep = (rng.uniform(shape) >= rate).astype(dtype)
    return np.divide(keep, 1.0 - rate, out=keep)
