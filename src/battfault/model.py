"""Encoder network: time-series embedding, transformer stack, reconstruction head.

Layout: an input snippet is an (M, D) channel matrix. A learned summary vector
is prepended at position 0, data rows occupy positions 1..M. The stack is
post-norm (residual, then layer norm), feed-forward uses tanh-GELU, positions
are learned absolute embeddings. Backward passes are hand-written per block;
the architecture is static so no general autodiff tape is needed.

The forward and backward passes are batched over a leading axis. Any one
parameter array may also carry a leading P axis of variants (a vector's are
(P, 1, n), which broadcast as they are); the forward then broadcasts to P
outputs from the first stage that reads that array on, and the stages before
it run once. This is how the gradient check runs P perturbed copies of the
network through the encoder forward that training uses, on every row.

A forward pass keeps the per-layer caches a backward pass reads only for a
caller that will run one, and applies dropout only when handed a dropout
multiplier (``embed_dropout``): a training step's ``msm_forward`` does both.
Eval encoding, the validation loss and the gradient check's perturbed losses
keep no cache and draw no dropout, so they hold one layer's activations at a
time. The backward pass consumes the caches, each one once it has read it, so
it holds little more than the forward left (the memory sharing of Chen et al.
2016, arXiv:1604.06174). The feed-forward cache keeps the GELU input and tanh
term but not the GELU output, which the backward pass rebuilds bit for bit
with ``gelu_from_tanh`` (the selective recomputation of Korthikanti et al.
2022, arXiv:2205.05198). A weight gradient sums its per-sample products in
sample order, so its rounding does not depend on how BLAS splits a product
across threads.

A pass runs its last layer and the head only on the rows that something
reads, the ``rows`` of ``_encoder_fwd``: eval encoding reads the summary row,
and the masked loss the data rows that hold a masked cell. That layer takes
its queries from those rows and its keys and values from every row; its
backward scatters the query and residual gradients back to those rows.

No encoder pass runs on more than ``MICRO_BATCH`` snippets: the (B, A, T, T)
attention tensors make a pass's activations grow with its batch, so a
training step accumulates gradients over micro-batches, which run on a
thread pool (see ``pretrain.run_pretrain``), and feature
extraction encodes MICRO_BATCH snippets per ``encode_batch`` call.

Every pass computes in the dtype of its input and weights: float64 for the
gradient check, float32 for a training step (see ``pretrain.run_pretrain``)
and for feature extraction (see ``downstream.extract_features``), each on a
working copy from ``float32_copy``. A pass's gradients are of that dtype too,
and its loss is summed in float64.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .numcore import (
    SeededRng,
    DimensionError,
    dropout_mask,
    gelu_fwd,
    gelu_from_tanh,
    gelu_grad,
    layer_norm_bwd,
    layer_norm_fwd,
    softmax_bwd,
    softmax_rows,
)

INIT_STD = 0.02
GRAD_CHECK_STEP = 5e-4
# the gate's bound on each entry's relative error (criterion 1), and the entries
# it perturbs per stacked forward: of 8-192, the fastest on criterion 1's snippet
GRAD_CHECK_TOL = 1e-4
GRAD_CHECK_CHUNK = 32
# What a training step holds per parameter: the float64 master weights,
# gradients and two Adam moments, and the float32 working copy.
TRAIN_BYTES_PER_PARAM = 4 * 8 + 4
# What it holds per array beyond the data: the numpy headers and the shape-map
# and dict entries of every copy (tracemalloc reads about 1.1 KB), doubled.
ARRAY_OVERHEAD_BYTES = 2048
# the most snippets that one encoder pass, training or eval, runs on
MICRO_BATCH = 4


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters. H must divide evenly into A heads."""

    D: int = 3           # input channel count
    H: int = 64          # hidden dimension
    L: int = 2           # encoder layers
    A: int = 4           # attention heads
    FF: int = 256        # feed-forward inner dimension
    M_max: int = 129     # maximum sequence length including the summary row
    dropout_rate: float = 0.1
    K: int = 2           # static metadata dimension

    def __post_init__(self):
        if min(self.D, self.H, self.A) < 1 or self.L < 0 or self.K < 0:
            raise ValueError("invalid dimension in config")
        if self.H % self.A != 0:
            raise ValueError(f"H={self.H} not divisible by A={self.A}")
        if self.FF < self.H:
            raise ValueError(f"FF={self.FF} must be >= H={self.H}")
        if self.M_max < 2:
            raise ValueError("M_max must be >= 2")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0,1)")
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        need = TRAIN_BYTES_PER_PARAM * self.n_params + ARRAY_OVERHEAD_BYTES * self.n_arrays
        if need > memory:
            raise ValueError(f"training {self.n_params} parameters in {self.n_arrays} arrays takes "
                             f"{need} bytes, more than the {memory} bytes of physical memory")

    @property
    def n_params(self) -> int:
        """Learnable parameter count: the sizes of param_shapes(self), one layer's times L."""
        embed, layer, head = _shape_parts(self)
        size = lambda shapes: sum(map(math.prod, shapes.values()))
        return size(embed) + self.L * size(layer) + size(head)

    @property
    def n_arrays(self) -> int:
        """Learnable array count, len(param_shapes(self))."""
        embed, layer, head = _shape_parts(self)
        return len(embed) + self.L * len(layer) + len(head)

    @property
    def head_dim(self) -> int:
        return self.H // self.A

    @classmethod
    def desk_default(cls) -> "ModelConfig":
        return cls()

    @classmethod
    def full_scale(cls) -> "ModelConfig":
        # 12x768 stack; the 32768-row positional table stands in for the
        # vocabulary table a text model would carry, bringing the total
        # parameter count to ~110M at the advertised capacity.
        return cls(D=3, H=768, L=12, A=12, FF=3072, M_max=32768, dropout_rate=0.1, K=2)


def _shape_parts(cfg: ModelConfig):
    """Name -> shape maps of the embedding, of one encoder layer (unprefixed) and of the head."""
    H, D, FF = cfg.H, cfg.D, cfg.FF
    embed = {"embed.W_e": (D, H), "embed.b_e": (H,), "embed.pos": (cfg.M_max, H),
             "embed.cls": (H,), "embed.ln_g": (H,), "embed.ln_b": (H,)}
    layer = {"Wqkv": (H, 3 * H), "bqkv": (3 * H,), "Wo": (H, H), "bo": (H,), "ln1_g": (H,), "ln1_b": (H,),
             "W1": (H, FF), "b1": (FF,), "W2": (FF, H), "b2": (H,), "ln2_g": (H,), "ln2_b": (H,)}
    return embed, layer, {"head.W": (H, D), "head.b": (D,)}


def param_shapes(cfg: ModelConfig) -> dict:
    """Ordered name -> shape map of every learnable array."""
    embed, layer, head = _shape_parts(cfg)
    return {**embed, **{f"layer{i}.{name}": shape for i in range(cfg.L)
                        for name, shape in layer.items()}, **head}


@dataclass
class ModelParams:
    """All learnable arrays, keyed by name; shapes fixed by the config."""

    cfg: ModelConfig
    arrays: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = param_shapes(self.cfg)
        if set(self.arrays) != set(expected):
            missing = set(expected) - set(self.arrays)
            extra = set(self.arrays) - set(expected)
            raise ValueError(f"parameter set mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for name, shape in expected.items():
            if self.arrays[name].shape != shape:
                raise DimensionError(f"{name}: shape {self.arrays[name].shape} != expected {shape}")


def float32_copy(params: ModelParams) -> ModelParams:
    """The float32 working copy of the weights that a float32 pass runs on."""
    return ModelParams(params.cfg, {k: v.astype(np.float32) for k, v in params.arrays.items()})


def init_params(cfg: ModelConfig, rng: SeededRng) -> ModelParams:
    """Random init: Normal(0, 0.02^2) weights, zero biases, unit layer-norm gains."""
    arrays = {}
    for name, shape in param_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[1]
        if leaf.endswith("_g"):
            arrays[name] = np.ones(shape)
        elif leaf.endswith("_b") or leaf.startswith("b"):
            arrays[name] = np.zeros(shape)
        else:
            arrays[name] = rng.spawn(name).normal(shape, std=INIT_STD)
    return ModelParams(cfg, arrays)


# ---------------------------------------------------------------------------
# Forward passes (batched, with caches for backward on request)
# ---------------------------------------------------------------------------


def _dense(X: np.ndarray, W: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """X @ W + b over the last axis, in a new array.

    numpy runs a (B, T, K) @ (K, N) product as B GEMMs; a 2-D W takes the
    flattened (B*T, K) rows in one. A P-stacked W keeps the broadcasting
    product. A vector b adds in place; a (P, 1, N) stacked one broadcasts.
    """
    if W.ndim == 2:
        Y = (X.reshape(-1, X.shape[-1]) @ W).reshape(X.shape[:-1] + W.shape[1:])
    else:
        Y = X @ W
    if b is None:
        return Y
    return np.add(Y, b, out=Y if b.ndim == 1 else None)


def embed_dropout(X: np.ndarray, cfg: ModelConfig, rng: SeededRng) -> np.ndarray | None:
    """The embedding-dropout multiplier of a training pass over X, drawn from ``rng`` itself.

    (B, M+1, H) in X's dtype, or None at dropout rate 0. Philox draws
    concatenate, so the rows of one batch-wide draw equal the draws that its
    consecutive slices would make from the same RNG in turn.
    """
    if cfg.dropout_rate == 0.0:
        return None
    B, M, _ = X.shape
    return dropout_mask((B, M + 1, cfg.H), cfg.dropout_rate, rng, X.dtype)


def _embed_fwd(X: np.ndarray, a: dict, cfg: ModelConfig, dropout: np.ndarray | None = None):
    """(B, M, D) -> (B, M+1, H) with cache. Row 0 is the summary position.

    ``dropout`` is the (B, M+1, H) multiplier from ``embed_dropout``.
    """
    _, M, D = X.shape
    if D != cfg.D:
        raise DimensionError(f"input has D={D}, config has D={cfg.D}")
    if M + 1 > cfg.M_max:
        raise DimensionError(f"sequence length {M}+1 exceeds M_max={cfg.M_max}")
    pos = a["embed.pos"]
    data = _dense(X, a["embed.W_e"], a["embed.b_e"]) + pos[..., 1:M + 1, :]
    row0 = a["embed.cls"] + pos[..., :1, :]
    # B rows, or P when the summary row alone is P-stacked
    pre = np.empty(np.broadcast_shapes(data.shape[:1], row0.shape[:-2]) + (M + 1, cfg.H),
                   dtype=data.dtype)
    pre[:, :1, :] = row0
    pre[:, 1:, :] = data
    normed, ln_cache = layer_norm_fwd(pre, a["embed.ln_g"], a["embed.ln_b"])
    if dropout is not None:
        normed = normed * dropout
    return normed, (X, ln_cache, dropout)


def _outer_sum(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """sum over (batch, position) of outer products: (B,T,I),(B,T,J) -> (I,J).

    One (I, T) @ (T, J) product per sample, then a sum over samples in index
    order. A single (I, B*T) @ (B*T, J) GEMM would be one call, but BLAS
    may split its long inner axis across threads, so its rounding, and every
    checkpoint byte after it, would depend on the thread count.
    """
    return np.matmul(X.swapaxes(1, 2), Y).sum(axis=0)


def _at(rows: np.ndarray):
    """Index of the (B, R) ``rows`` of a (B, T, ...) array, row rows[b, r] of sample b."""
    return np.arange(len(rows))[:, None], rows


def _attention_fwd(X: np.ndarray, a: dict, prefix: str, cfg: ModelConfig, rows: np.ndarray | None):
    """Multi-head self-attention over (B, T, H); queries from ``rows`` alone when given."""
    H, A, dh = cfg.H, cfg.A, cfg.head_dim
    # a Python float: an np.float64 scalar would upcast float32 queries
    scale = 1.0 / math.sqrt(dh)

    def heads(Z):
        B, T, _ = Z.shape
        return Z.reshape(B, T, A, dh).transpose(0, 2, 1, 3)

    # one projection; Q, K and V are column views of it
    QKV = _dense(X, a[prefix + "Wqkv"], a[prefix + "bqkv"])
    Q = QKV[..., :H] if rows is None else QKV[..., :H][_at(rows)]
    # the scale goes into Q, so the (B, A, T, T) scores never take a pass for it
    Q *= scale
    Q, K, V = heads(Q), heads(QKV[..., H:2 * H]), heads(QKV[..., 2 * H:])
    # the fresh scores buffer becomes the probabilities, with no copy
    scores = Q @ K.transpose(0, 1, 3, 2)
    probs = softmax_rows(scores, out=scores)
    context = (probs @ V).transpose(0, 2, 1, 3).reshape(-1, Q.shape[2], H)
    out = _dense(context, a[prefix + "Wo"], a[prefix + "bo"])
    return out, (X, rows, Q, K, V, probs, context, scale)


def _attention_bwd(dR1: np.ndarray, cache, a: dict, prefix: str, cfg: ModelConfig, grads: dict):
    """dX over every row of X from ``dR1``, the gradient of R1 = X + Attn(X) on the query rows."""
    X, rows, Q, K, V, probs, context, scale = cache
    B, T, H = X.shape
    A, dh = cfg.A, cfg.head_dim

    grads[prefix + "Wo"] += _outer_sum(context, dR1)
    grads[prefix + "bo"] += dR1.sum(axis=(0, 1))
    dcontext = _dense(dR1, a[prefix + "Wo"].T).reshape(B, -1, A, dh).transpose(0, 2, 1, 3)

    # dQ, dK and dV are written as heads into one (B, T, 3H) buffer laid out
    # like Wqkv's columns: one weight-gradient sum, one bias sum, one dX GEMM
    dQKV = np.empty((B, T, 3, A, dh), dtype=dR1.dtype)
    dQ, dK, dV = (dQKV[:, :, j].transpose(0, 2, 1, 3) for j in range(3))
    np.matmul(probs.transpose(0, 1, 3, 2), dcontext, out=dV)
    # the fresh (B, A, R, T) product becomes the score gradient, with no copy
    dprobs = dcontext @ V.transpose(0, 1, 3, 2)
    dscores = softmax_bwd(dprobs, probs, out=dprobs)
    dQ_rows = np.matmul(dscores, K, out=dQ if rows is None else None)
    dQ_rows *= scale  # Q carries the scale, so dK has it already
    if rows is not None:
        # a row that asks no query gets no query gradient
        dQ[...] = 0
        dQKV[_at(rows) + (0,)] = dQ_rows.transpose(0, 2, 1, 3)
    np.matmul(dscores.transpose(0, 1, 3, 2), Q, out=dK)

    dQKV = dQKV.reshape(B, T, 3 * H)
    grads[prefix + "Wqkv"] += _outer_sum(X, dQKV)
    grads[prefix + "bqkv"] += dQKV.sum(axis=(0, 1))
    dX = _dense(dQKV, a[prefix + "Wqkv"].T)
    if rows is None:
        dX += dR1
    else:
        dX[_at(rows)] += dR1
    return dX


def _layer_fwd(X: np.ndarray, a: dict, p: str, cfg: ModelConfig, caches: list | None,
               rows: np.ndarray | None) -> np.ndarray:
    """One post-norm layer, (B, T, H) -> (B, T, H), or (B, R, H) on the (B, R) ``rows``.

    Appends the layer's attention cache, then its feed-forward cache, to
    ``caches`` when given a list. Otherwise the attention probabilities go
    before the feed-forward block allocates, and the rest of the activations
    when the layer returns.
    """
    # the residual adds run in place, in the new attention and FFN outputs
    R1, attn_cache = _attention_fwd(X, a, p, cfg, rows)
    if caches is None:
        attn_cache = None
    R1 += X if rows is None else X[_at(rows)]
    X1, ln1_cache = layer_norm_fwd(R1, a[p + "ln1_g"], a[p + "ln1_b"])
    F1 = _dense(X1, a[p + "W1"], a[p + "b1"])
    G, tanh_term = gelu_fwd(F1)
    R2 = _dense(G, a[p + "W2"], a[p + "b2"])
    del G
    R2 += X1
    X2, ln2_cache = layer_norm_fwd(R2, a[p + "ln2_g"], a[p + "ln2_b"])
    if caches is not None:
        caches += [attn_cache, (ln1_cache, X1, F1, tanh_term, ln2_cache)]
    return X2


def _encoder_fwd(E: np.ndarray, a: dict, cfg: ModelConfig, caches: list | None = None,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """(B, T, H) -> (B, T, H) through L post-norm layers, or (B, R, H) with ``rows``.

    A caller that will run a backward pass hands in an empty list
    ``caches``, which receives each layer's attention and feed-forward
    caches in forward order; ``_encoder_bwd`` takes them off its end as it
    reads them. Without one the pass keeps no cache and holds one layer's
    activations at a time.

    ``rows`` is a (B, R) array of row indices, distinct within a sample, and
    the output holds those rows alone. The last layer computes them alone:
    its queries come from those rows, its keys and values from every row,
    and its residual, FFN and layer norms run on those rows. Eval encoding
    reads row 0, and the masked loss the rows that hold a masked cell. With
    no layer (L = 0) the output is those rows of E.
    """
    X = E
    for i in range(cfg.L):
        X = _layer_fwd(X, a, f"layer{i}.", cfg, caches, rows if i == cfg.L - 1 else None)
    return X if rows is None or cfg.L else X[_at(rows)]


def _ffn_bwd(dX: np.ndarray, cache, a: dict, p: str, grads: dict) -> np.ndarray:
    """dR1 from dX through a layer's feed-forward block and both its layer norms."""
    ln1_cache, X1, F1, tanh_term, ln2_cache = cache
    dR2, dg, db = layer_norm_bwd(dX, ln2_cache)
    grads[p + "ln2_g"] += dg
    grads[p + "ln2_b"] += db
    # R2 = X1 + FFN(X1); dR2 is also the gradient of the FFN output
    grads[p + "W2"] += _outer_sum(gelu_from_tanh(F1, tanh_term), dR2)
    grads[p + "b2"] += dR2.sum(axis=(0, 1))
    dF1 = gelu_grad(F1, tanh_term)
    dF1 *= _dense(dR2, a[p + "W2"].T)
    grads[p + "W1"] += _outer_sum(X1, dF1)
    grads[p + "b1"] += dF1.sum(axis=(0, 1))
    dX1 = _dense(dF1, a[p + "W1"].T)
    dX1 += dR2

    dR1, dg, db = layer_norm_bwd(dX1, ln1_cache)
    grads[p + "ln1_g"] += dg
    grads[p + "ln1_b"] += db
    return dR1


def _encoder_bwd(dX: np.ndarray, caches: list, a: dict, cfg: ModelConfig, grads: dict):
    """dE over every row from dX, the gradient of the rows that the forward returned.

    Takes each cache off the end of ``caches`` as it reads it, and holds it
    only in the call that reads it: a layer's feed-forward activations go
    before its attention backward allocates, and a layer's attention
    activations before the layer below it runs.
    """
    for i in reversed(range(cfg.L)):
        p = f"layer{i}."
        dR1 = _ffn_bwd(dX, caches.pop(), a, p, grads)
        dX = _attention_bwd(dR1, caches.pop(), a, p, cfg, grads)
    return dX


def _head_fwd(Hs: np.ndarray, a: dict):
    """Reconstruct data positions: (B, M+1, H) -> (B, M, D). Row 0 excluded."""
    return _dense(Hs[:, 1:, :], a["head.W"], a["head.b"])


def encode_batch(X: np.ndarray, params: ModelParams, cfg: ModelConfig) -> np.ndarray:
    """Eval-mode summary vectors for a batch: (B, M, D) -> (B, H)."""
    E = _embed_fwd(X, params.arrays, cfg)[0]
    return _encoder_fwd(E, params.arrays, cfg, rows=np.zeros((len(X), 1), dtype=np.intp))[:, 0, :]


# ---------------------------------------------------------------------------
# Masked-reconstruction loss with full backward
# ---------------------------------------------------------------------------


def msm_forward(params: ModelParams, cfg: ModelConfig, X_corrupt: np.ndarray,
                X_target: np.ndarray, masks: np.ndarray,
                dropout: np.ndarray | None = None, *, keep_cache: bool = True):
    """Masked-MSE forward over a batch; returns (loss, cache).

    X_corrupt / X_target / masks are (B, M, D); loss is total masked squared
    error over the batch divided by the total masked cell count. A training
    step hands in ``dropout``, the batch's (B, M+1, H) multiplier from
    ``embed_dropout``, and dropout runs only then. A caller
    that runs no backward pass sets ``keep_cache=False``: the pass then
    builds no layer caches and returns (loss, None).

    The last layer and the head run on each snippet's data rows that hold a
    masked cell (BERT's masked-position output, arXiv:1810.04805), padded to
    the pass's longest list with rows that hold none, whose mask is 0.
    """
    # Python floats, so that neither upcasts a float32 pass
    total_masked = float(masks.sum(dtype=np.float64))
    if total_masked < 1:
        raise ValueError("mask selects no cells")
    a = params.arrays
    E, embed_cache = _embed_fwd(X_corrupt, a, cfg, dropout)
    hit = masks.any(axis=2)
    # per snippet, its hit rows in order, then the rest; no row repeats
    order = np.argsort(~hit, axis=1, kind="stable")[:, :int(hit.sum(axis=1).max())]
    rows = order + 1
    enc_caches = [] if keep_cache else None
    Hs = _encoder_fwd(E, a, cfg, enc_caches, rows)
    recon = _dense(Hs, a["head.W"], a["head.b"])
    masks = masks[_at(order)]
    diff = recon - X_target[_at(order)]
    loss = float((masks * diff * diff).sum(dtype=np.float64) / total_masked)
    if not keep_cache:
        return loss, None
    return loss, (embed_cache, enc_caches, Hs, diff, masks, total_masked, rows)


def msm_backward(cache, params: ModelParams, cfg: ModelConfig) -> dict:
    """Gradients of the masked-MSE loss w.r.t. every parameter array, in the pass's dtype.

    Consumes ``cache``: the backward takes each layer's caches off it as it
    reads them, so a layer's activations go once its backward is done, and
    a second call on the same cache raises ValueError. (With no layer, L = 0,
    there is nothing to consume.)
    """
    embed_cache, enc_caches, Hs, diff, masks, total_masked, rows = cache
    if len(enc_caches) != 2 * cfg.L:
        raise ValueError("msm_backward was handed a cache that an earlier msm_backward consumed; "
                         "run msm_forward again for another backward pass")
    a = params.arrays
    grads = {name: np.zeros(shape, dtype=Hs.dtype) for name, shape in param_shapes(cfg).items()}

    drecon = 2.0 * masks * diff / total_masked
    grads["head.W"] += _outer_sum(Hs, drecon)
    grads["head.b"] += drecon.sum(axis=(0, 1))
    dHs = _dense(drecon, a["head.W"].T)

    X, ln_cache, drop_mask = embed_cache
    if cfg.L:
        dE = _encoder_bwd(dHs, enc_caches, a, cfg, grads)
    else:
        dE = np.zeros((len(X), X.shape[1] + 1, cfg.H), dtype=dHs.dtype)
        dE[_at(rows)] = dHs
    if drop_mask is not None:
        dE = dE * drop_mask
    dpre, dg, db = layer_norm_bwd(dE, ln_cache)
    grads["embed.ln_g"] += dg
    grads["embed.ln_b"] += db
    d_row0 = dpre[:, 0, :].sum(axis=0)  # the summary row is cls + pos[0]
    grads["embed.cls"] += d_row0
    grads["embed.pos"][0] += d_row0
    grads["embed.pos"][1:X.shape[1] + 1] += dpre[:, 1:, :].sum(axis=0)
    grads["embed.W_e"] += _outer_sum(X, dpre[:, 1:, :])
    grads["embed.b_e"] += dpre[:, 1:, :].sum(axis=(0, 1))
    return grads


# ---------------------------------------------------------------------------
# Full-model gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    """Per-parameter relative errors from a central-difference gradient check."""

    rel_error: dict = field(default_factory=dict)

    @property
    def failed(self) -> list:
        return [name for name, err in self.rel_error.items() if err > GRAD_CHECK_TOL]

    @property
    def max_rel_error(self) -> float:
        return max(self.rel_error.values()) if self.rel_error else 0.0

    @property
    def ok(self) -> bool:
        return not self.failed


def msm_grad_check(params: ModelParams, X_corrupt: np.ndarray, X_target: np.ndarray, mask: np.ndarray):
    """Check analytic gradients of the masked loss on one (M, D) snippet.

    Uses the 4th-order central stencil (-f(2h) + 8f(h) - 8f(-h) + f(-2h)) / 12h
    so one step size h = GRAD_CHECK_STEP covers both high-curvature entries
    (truncation ~ h^4) and exactly-zero gradients (rounding noise ~ 1/h).
    Relative error per entry is |a - n| / max(|a|, |n|, floor), with the
    floor from the stencil's rounding bound (Nocedal & Wright, Numerical
    Optimization, 2nd ed., 8.1): each loss is off by about eps*|loss0| and
    the weights sum to 1.5/h in absolute value, so rounding alone moves n by
    up to kappa*eps*|loss0|/h (kappa = 8 also covers the forward's own
    rounding), and floor = kappa*eps*|loss0| / (h*tol) scores any such error
    under tol = GRAD_CHECK_TOL. Evaluating the loss once per perturbed scalar
    is Python-overhead bound, so 4 copies of each of GRAD_CHECK_CHUNK entries
    of one array are stacked and run through the encoder forward at once, on
    every row, so the numbers do not share the analytic pass's row selection.
    """
    if not X_corrupt.ndim == X_target.ndim == mask.ndim == 2:
        raise ValueError(f"gradient check takes one (M, D) snippet, got input of shape {X_corrupt.shape}")
    cfg = params.cfg
    X_in = X_corrupt[None]
    loss0, cache = msm_forward(params, cfg, X_in, X_target[None], mask[None])
    analytic = msm_backward(cache, params, cfg)
    floor = 8.0 * np.finfo(np.float64).eps * abs(loss0) / (GRAD_CHECK_STEP * GRAD_CHECK_TOL)

    stencil = np.array([2.0, 1.0, -1.0, -2.0]) * GRAD_CHECK_STEP
    weights = np.array([-1.0, 8.0, -8.0, 1.0]) / (12.0 * GRAD_CHECK_STEP)
    report = GradCheckReport()
    base_arrays = params.arrays

    for name, base in base_arrays.items():
        grad_flat = analytic[name].reshape(-1)
        n = base.size
        worst = 0.0
        for start in range(0, n, GRAD_CHECK_CHUNK):
            idx = np.arange(start, min(start + GRAD_CHECK_CHUNK, n))
            m = idx.size
            P = 4 * m
            stacked = np.broadcast_to(base, (P,) + (1,) * (base.ndim == 1) + base.shape).copy()
            stacked.reshape(P, -1)[np.arange(P), np.repeat(idx, 4)] += np.tile(stencil, m)
            arrays = dict(base_arrays)
            arrays[name] = stacked
            E = _embed_fwd(X_in, arrays, cfg)[0]
            diff = _head_fwd(_encoder_fwd(E, arrays, cfg), arrays) - X_target
            losses = (mask * diff * diff).sum(axis=(1, 2)) / mask.sum()
            if not np.all(np.isfinite(losses)):
                raise ValueError(f"non-finite loss while perturbing parameter {name!r}")
            numeric = (losses.reshape(m, 4) * weights).sum(axis=1)
            a_vals = grad_flat[idx]
            denom = np.maximum(np.maximum(np.abs(a_vals), np.abs(numeric)), floor)
            worst = max(worst, float((np.abs(a_vals - numeric) / denom).max()))
        report.rel_error[name] = worst
    return report
