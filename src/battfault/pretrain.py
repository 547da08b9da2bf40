"""Point-level masked signal modeling: mask sampling, objective, training loop.

Masking selects individual (timestamp, channel) cells: exactly
round(rate * M * D) of them, uniformly without replacement. Corruption zeroes
the selected cells; the loss is mean squared error over masked cells only.
Checkpoints are JSON text documents that round-trip byte-identically.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, asdict

import numpy as np

from .dataio import FleetDataset, json_text, read_value, write_text
from .model import ModelConfig, ModelParams, init_params, msm_backward, msm_forward, param_shapes
from .numcore import NonFiniteError, SeededRng

CHECKPOINT_VERSION = 1


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
    flat = rng.choice(M * D, size=n_ones, replace=False)
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


class CheckpointError(ValueError):
    """Malformed or unsupported checkpoint document."""


@dataclass
class Checkpoint:
    config: ModelConfig
    tensors: dict                 # name -> float64 ndarray
    provenance: dict = field(default_factory=dict)
    format_version: int = CHECKPOINT_VERSION

    def to_params(self) -> ModelParams:
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})

    @classmethod
    def from_params(cls, params: ModelParams, provenance: dict | None = None) -> "Checkpoint":
        return cls(params.cfg, {k: v.copy() for k, v in params.arrays.items()},
                   dict(provenance or {}))


def checkpoint_document(ckpt: Checkpoint) -> str:
    """Serialize to the canonical JSON text form (shortest round-trip decimals)."""
    return json_text({
        "format_version": ckpt.format_version,
        "config": asdict(ckpt.config),
        "provenance": ckpt.provenance,
        "tensors": {
            name: {"shape": list(arr.shape), "data": [float(x) for x in arr.reshape(-1)]}
            for name, arr in ckpt.tensors.items()
        },
    })


def save_checkpoint(ckpt: Checkpoint, path):
    write_text(path, checkpoint_document(ckpt))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any malformed document raises CheckpointError naming path."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"malformed checkpoint {path}: {exc}") from None
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise CheckpointError(f"malformed checkpoint {path}: missing format_version")
    if doc["format_version"] != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc['format_version']} "
                              f"in {path} (expected {CHECKPOINT_VERSION})")
    try:
        cfg = read_value(doc.get("config"), ModelConfig, "config")
        if not isinstance(doc.get("tensors"), dict):
            raise ValueError("'tensors' must be an object")
        shapes = param_shapes(cfg)
        if set(doc["tensors"]) != set(shapes):
            raise ValueError(f"missing tensors {sorted(set(shapes) - set(doc['tensors']))}, "
                             f"unexpected tensors {sorted(set(doc['tensors']) - set(shapes))}")
        tensors = {}
        for name, spec in doc["tensors"].items():
            shape = tuple(spec["shape"])
            if not isinstance(spec["data"], list) or not set(map(type, spec["data"])) <= {int, float}:
                raise ValueError(f"tensor {name}: data must be a list of numbers")
            data = np.array(spec["data"], dtype=np.float64)
            if shape != shapes[name] or data.shape != (int(np.prod(shape)),):
                raise ValueError(f"tensor {name}: {data.size} values for shape {shape}, "
                                 f"expected shape {shapes[name]}")
            if not np.all(np.isfinite(data)):
                raise ValueError(f"tensor {name}: non-finite values")
            tensors[name] = data.reshape(shape)
        provenance = dict(doc.get("provenance", {}))
    # OverflowError: an integer past the float range in tensor data
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from None
    return Checkpoint(cfg, tensors, provenance, doc["format_version"])


@dataclass
class TransferReport:
    copied: list
    fresh: list


def transfer_init(source: Checkpoint, target_cfg: ModelConfig, rng: SeededRng):
    """Warm-start: copy every source array whose name and shape match the target.

    Everything else is freshly random-initialized. Returns (params, report).
    """
    params = init_params(target_cfg, rng)
    copied, fresh = [], []
    for name, shape in param_shapes(target_cfg).items():
        src = source.tensors.get(name)
        if src is not None and src.shape == shape:
            params.arrays[name] = src.copy()
            copied.append(name)
        else:
            fresh.append(name)
    return params, TransferReport(copied, fresh)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def run_pretrain(train: FleetDataset, val: FleetDataset, params: ModelParams,
                 cfg: ModelConfig, pcfg: PretrainConfig, *, seed: int, log=None):
    """Train in place with masked signal modeling; returns (Checkpoint, history).

    Per epoch: seeded shuffle, fresh masks per snippet per batch, forward on
    zero-corrupted input, backward, global-norm clip, Adam step. Validation
    uses a fixed, snippet-keyed mask set and eval-mode forward so the val loss
    is comparable across epochs. History rows are (epoch, train_loss, val_loss).
    """
    X_train, X_val = train.channels, val.channels
    n, M, D = X_train.shape
    rng = SeededRng(seed, ("pretrain",))
    opt = Adam(params, pcfg)

    val_masks = np.stack(
        [sample_mask(M, D, pcfg.mask_rate, _validation_mask_rng(sid, seed))
         for sid in val.snippet_ids], axis=0) if len(val) else None

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
            loss, cache = msm_forward(params, cfg, corrupt(batch, masks), batch, masks,
                                      train_mode=True, rng=b_rng.spawn("dropout"))
            if not np.isfinite(loss):
                raise NonFiniteError(f"non-finite loss at epoch {epoch}, batch {b_start}")
            grads = msm_backward(cache, params, cfg)
            opt.step(params, grads)
            total_se += loss * masks.sum()
            total_cells += masks.sum()
        train_loss = total_se / total_cells

        if val_masks is not None:
            val_loss, _ = msm_forward(params, cfg, corrupt(X_val, val_masks), X_val,
                                      val_masks, train_mode=False)
        else:
            val_loss = float("nan")
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
    return Checkpoint.from_params(params, provenance), history
