"""Point-level masked signal modeling: mask sampling, objective, training loop.

Masking selects individual (timestamp, channel) cells: exactly
round(rate * M * D) of them, uniformly without replacement. Corruption zeroes
the selected cells; the loss is mean squared error over masked cells only.

A checkpoint is one canonical JSON document (format version 3): the model
config, the provenance, and per tensor its shape and ``data``, the base64 text
of its little-endian float64 bytes. Those bytes are the values themselves, so
a checkpoint loads bit for bit and round-trips byte-identically, and encoding
or decoding it is one bulk copy per tensor rather than one decimal per value.
"""

from __future__ import annotations

import base64
import functools
import os
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from . import ONE_BLAS_THREAD
from .dataio import FleetDataset, json_text, read_document, read_value, write_text
from .model import (MICRO_BATCH, ModelConfig, ModelParams, embed_dropout, float32_copy, init_params,
                    msm_backward, msm_forward, param_shapes)
from .numcore import NonFiniteError, SeededRng

# The most snippets that the encoder passes in flight hold at once: the one
# 8-snippet pass of a step whose passes ran one at a time.
SNIPPETS_IN_FLIGHT = 8
# The encoder passes that run at once, one per usable CPU up to that budget
# (2 of MICRO_BATCH snippets). Where importing battfault could not set
# OpenBLAS to one thread, its threads would contend with the pool's, and the
# passes run one at a time, inline.
WORKERS = (min(len(os.sched_getaffinity(0)), SNIPPETS_IN_FLIGHT // MICRO_BATCH)
           if ONE_BLAS_THREAD else 1)
CHECKPOINT_VERSION = 3
# the byte order and width of a checkpoint tensor's data, on every platform
TENSOR_DTYPE = np.dtype("<f8")


@dataclass(frozen=True)
class PretrainConfig:
    mask_rate: float = 0.15
    epochs: int = 20
    batch_size: int = 16
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.mask_rate < 1.0:
            raise ValueError(f"mask_rate must be in (0,1), got {self.mask_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate < 0 or self.clip_norm <= 0:
            raise ValueError("invalid learning_rate or clip_norm")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0,1), got {getattr(self, name)}")
        if not self.adam_eps > 0:
            raise ValueError(f"adam_eps must be positive, got {self.adam_eps}")


# ---------------------------------------------------------------------------
# Masking and objective
# ---------------------------------------------------------------------------


def sample_mask(M: int, D: int, rate: float, rng: SeededRng) -> np.ndarray:
    """Binary (M, D) mask with exactly round(rate*M*D) ones, drawn uniformly."""
    if not 0.0 < rate < 1.0:
        raise ValueError(f"mask rate must be in (0,1), got {rate}")
    n_ones = int(round(rate * M * D))
    if n_ones < 1:
        raise ValueError(f"rate {rate} masks zero cells for shape ({M},{D})")
    flat = rng.choice(M * D, size=n_ones)
    mask = np.zeros(M * D, dtype=np.float64)
    mask[flat] = 1.0
    return mask.reshape(M, D)


def corrupt(S: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero out masked cells; unmasked entries pass through bit-identically."""
    if S.shape != mask.shape:
        raise ValueError(f"shape mismatch: signal {S.shape}, mask {mask.shape}")
    return S * (1.0 - mask)


def msm_loss(S_hat: np.ndarray, S: np.ndarray, mask: np.ndarray) -> float:
    """Squared reconstruction error over masked cells, divided by their count."""
    if S_hat.shape != S.shape or S.shape != mask.shape:
        raise ValueError(f"shape mismatch: {S_hat.shape}, {S.shape}, {mask.shape}")
    n = mask.sum()
    if n < 1:
        raise ValueError("mask selects no cells")
    diff = mask * (S_hat - S)
    return float((diff * diff).sum() / n)


def _validation_mask_rng(snippet_id: str, seed: int) -> SeededRng:
    # fixed per snippet so validation loss is comparable across epochs
    return SeededRng(seed, ("val_mask", zlib.crc32(snippet_id.encode("utf-8"))))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adaptive-moment optimizer with global-norm gradient clipping."""

    def __init__(self, params: ModelParams, pcfg: PretrainConfig):
        self.pcfg = pcfg
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.arrays.items()}

    def step(self, params: ModelParams, grads: dict):
        p = self.pcfg
        norm_sq = sum(float((g * g).sum()) for g in grads.values())
        norm = np.sqrt(norm_sq)
        scale = p.clip_norm / norm if norm > p.clip_norm else 1.0
        self.t += 1
        bc1 = 1.0 - p.beta1 ** self.t
        bc2 = 1.0 - p.beta2 ** self.t
        for name, g in grads.items():
            g = g * scale
            self.m[name] = p.beta1 * self.m[name] + (1 - p.beta1) * g
            self.v[name] = p.beta2 * self.v[name] + (1 - p.beta2) * g * g
            mhat = self.m[name] / bc1
            vhat = self.v[name] / bc2
            params.arrays[name] -= p.learning_rate * mhat / (np.sqrt(vhat) + p.adam_eps)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def checkpoint_document(params: ModelParams, provenance: dict) -> str:
    """Serialize to the canonical JSON text form, each tensor's bytes in base64."""
    return json_text({
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(params.cfg),
        "provenance": provenance,
        "tensors": {
            name: {"shape": list(arr.shape),
                   "data": base64.b64encode(arr.astype(TENSOR_DTYPE).tobytes()).decode("ascii")}
            for name, arr in params.arrays.items()
        },
    })


def save_checkpoint(params: ModelParams, path, provenance: dict):
    write_text(path, checkpoint_document(params, provenance))


def _read_checkpoint(doc: dict):
    cfg = read_value(doc["config"], ModelConfig, "config")
    if not isinstance(doc["tensors"], dict):
        raise ValueError("'tensors' must be an object")
    arrays = {}
    for name, spec in doc["tensors"].items():
        data = spec["data"]
        if not isinstance(data, str):
            raise ValueError(f"tensor {name}: data must be a base64 string")
        # a character outside the base64 alphabet is a binascii.Error, a ValueError
        raw = base64.b64decode(data, validate=True)
        if len(raw) % TENSOR_DTYPE.itemsize:
            raise ValueError(f"tensor {name}: {len(raw)} bytes are not whole float64 values")
        values = np.frombuffer(raw, dtype=TENSOR_DTYPE)
        arr = arrays[name] = values.astype(np.float64).reshape(spec["shape"])
        if list(arr.shape) != spec["shape"]:
            raise ValueError(f"tensor {name}: shape {spec['shape']!r} does not fit {values.size} values")
        if not np.isfinite(arr).all():
            raise ValueError(f"tensor {name}: non-finite values")
    # ModelParams checks every tensor's name and shape against the config
    return ModelParams(cfg, arrays), dict(doc.get("provenance", {}))


def load_checkpoint(path):
    """Read a checkpoint as (ModelParams, provenance); a malformed one is a ParseError naming path."""
    return read_document(path, "checkpoint", _read_checkpoint, CHECKPOINT_VERSION)


@dataclass
class TransferReport:
    copied: list
    fresh: list


def transfer_init(source: ModelParams, target_cfg: ModelConfig, rng: SeededRng):
    """Warm-start: copy every source array whose name and shape match the target.

    Everything else is freshly random-initialized. Returns (params, report).
    """
    params = init_params(target_cfg, rng)
    copied, fresh = [], []
    for name, shape in param_shapes(target_cfg).items():
        src = source.arrays.get(name)
        if src is not None and src.shape == shape:
            params.arrays[name] = src.copy()
            copied.append(name)
        else:
            fresh.append(name)
    return params, TransferReport(copied, fresh)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@functools.cache
def _pool():
    # imported on first use: concurrent.futures pulls in logging, which
    # would add to the start-up of every command, synth included
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(WORKERS, thread_name_prefix="battfault-pass")


def _in_pass_order(run_pass, n_items: int):
    """Yield run_pass(c) for each MICRO_BATCH-item pass c over n_items, in pass order.

    Passes run on the thread pool, at most WORKERS at once, and Executor.map
    yields their results in submission order; when a pass raises or the
    caller stops early, the passes not yet started are cancelled. Each pass
    runs on the one OpenBLAS thread that importing battfault set: two passes
    on a two-thread OpenBLAS ran a step loop slower than one pass at a time.
    With one worker every pass runs inline.
    """
    passes = range(-(-n_items // MICRO_BATCH))
    if min(WORKERS, len(passes)) == 1:
        for c in passes:
            yield run_pass(c)
        return
    yield from _pool().map(run_pass, passes)


def _step_gradients(work: ModelParams, batch: np.ndarray, masks: np.ndarray, dropout_rng: SeededRng):
    """(masked squared error, masked-MSE gradients) of one optimizer step over a float32 batch.

    Forward and backward run MICRO_BATCH snippets per pass, and the backward
    frees each of the pass's caches once it has read it. A pass's float32
    gradients are widened to float64 as they are weighted by its share of the
    step's masked cells, and summed in pass order, whichever thread ran it,
    so a step of one pass is one whole-batch pass bit for bit.
    The step's dropout multiplier is drawn once from ``dropout_rng``, and
    each pass gets its rows.
    """
    cfg, cells = work.cfg, masks.sum()
    masks32 = masks.astype(np.float32)
    dropout = embed_dropout(batch, cfg, dropout_rng)

    def run_pass(c):
        part = slice(c * MICRO_BATCH, (c + 1) * MICRO_BATCH)
        X, m = batch[part], masks32[part]
        loss, cache = msm_forward(work, cfg, corrupt(X, m), X, m,
                                  None if dropout is None else dropout[part])
        part_cells = masks[part].sum()
        share = part_cells / cells
        # msm_backward adds one float32 term to each entry, so an entry is
        # that term exactly, and widening it while scaling gives the bits of
        # a float64 gradient array scaled in place
        grads = {name: g.astype(np.float64) * share
                 for name, g in msm_backward(cache, work, cfg).items()}
        return loss * part_cells, grads

    squared_error, grads = 0.0, None
    for part_error, part_grads in _in_pass_order(run_pass, len(batch)):
        squared_error += part_error
        if grads is not None:
            for name, g in part_grads.items():
                g += grads[name]
        grads = part_grads
    return squared_error, grads


def _validation_loss(work: ModelParams, X_val: np.ndarray, val_masks: np.ndarray) -> float:
    """Masked MSE over the validation set, MICRO_BATCH snippets per cacheless forward."""
    cells = val_masks.sum(dtype=np.float64)

    def run_pass(c):
        part = slice(c * MICRO_BATCH, (c + 1) * MICRO_BATCH)
        X, m = X_val[part], val_masks[part]
        loss, _ = msm_forward(work, work.cfg, corrupt(X, m), X, m, keep_cache=False)
        return loss * (m.sum(dtype=np.float64) / cells)

    val_loss = 0.0
    for part_loss in _in_pass_order(run_pass, len(X_val)):
        val_loss += part_loss
    return float(val_loss)


def run_pretrain(train: FleetDataset, val: FleetDataset, params: ModelParams,
                 pcfg: PretrainConfig, *, seed: int, log=None):
    """Train params in place with masked signal modeling; returns (provenance, history).

    Per epoch: seeded shuffle, fresh masks per snippet per batch, forward on
    zero-corrupted input, backward, global-norm clip, Adam step. Validation
    uses a fixed, snippet-keyed mask set and eval-mode forward so the val loss
    is comparable across epochs. History rows are (epoch, train_loss, val_loss).

    Each forward and backward runs in float32 on a copy of the weights cast
    once per step (the master-weight scheme of Micikevicius et al. 2018,
    arXiv:1710.03740, one precision level up), and a pass's gradients are
    float32. The step's weighted gradient sum, the master weights, the Adam
    moments and the losses are float64.

    A step of ``pcfg.batch_size`` snippets accumulates its gradient over
    passes of at most MICRO_BATCH snippets (the gradient accumulation of
    BERT pretraining, Devlin et al. 2019, arXiv:1810.04805); the validation
    forward runs in such passes too and builds no caches. The passes run on
    WORKERS threads, one per usable CPU up to SNIPPETS_IN_FLIGHT //
    MICRO_BATCH, each pass on the one OpenBLAS thread that importing
    battfault set, and their results are summed in pass order, so the loop
    holds at most SNIPPETS_IN_FLIGHT snippets' activations at a time and its
    bytes do not depend on the CPU count.
    """
    if not len(val):
        raise ValueError("run_pretrain needs at least one validation snippet")
    X_train, X_val = train.channels.astype(np.float32), val.channels.astype(np.float32)
    n, M, D = X_train.shape
    rng = SeededRng(seed, ("pretrain",))
    opt = Adam(params, pcfg)

    val_masks = np.stack(
        [sample_mask(M, D, pcfg.mask_rate, _validation_mask_rng(sid, seed))
         for sid in val.snippet_ids], axis=0).astype(np.float32)

    history = []
    for epoch in range(1, pcfg.epochs + 1):
        ep_rng = rng.spawn("epoch", epoch)
        order = ep_rng.spawn("shuffle").permutation(n)
        total_se = 0.0
        total_cells = 0.0
        for b_start in range(0, n, pcfg.batch_size):
            idx = order[b_start:b_start + pcfg.batch_size]
            batch = X_train[idx]
            b_rng = ep_rng.spawn("batch", b_start)
            masks = np.stack([sample_mask(M, D, pcfg.mask_rate, b_rng.spawn("mask", int(i)))
                              for i in idx], axis=0)
            squared_error, grads = _step_gradients(float32_copy(params), batch, masks,
                                                   b_rng.spawn("dropout", "embed_dropout"))
            if not np.isfinite(squared_error):
                raise NonFiniteError(f"non-finite loss at epoch {epoch}, batch {b_start}")
            opt.step(params, grads)
            # the step's gradients go before the next step's passes allocate
            del grads
            total_se += squared_error
            total_cells += masks.sum()
        train_loss = total_se / total_cells

        val_loss = _validation_loss(float32_copy(params), X_val, val_masks)
        history.append((epoch, float(train_loss), float(val_loss)))
        if log is not None:
            log(f"epoch {epoch}: train_loss={train_loss:.6f} val_loss={val_loss:.6f}")

    provenance = {
        "epochs": pcfg.epochs,
        "final_train_loss": history[-1][1],
        "final_val_loss": history[-1][2],
        "seed": seed,
        "mask_rate": pcfg.mask_rate,
        "train_snippets": n,
    }
    return provenance, history
