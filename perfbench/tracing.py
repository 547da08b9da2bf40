"""Spans around battfault's public functions, recorded from outside the package.

Every module imports its helpers by name (``from .numcore import gelu_fwd``),
so a function is wrapped at the name its caller looks up: ``model.gelu_fwd``
rather than ``numcore.gelu_fwd``, ``pretrain.msm_forward`` as well as
``model.msm_forward``. Spans ``(name, start, end, parent)`` are kept in memory
and written out by the caller once the run ends.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import os
import time

# (module whose namespace the caller reads, attribute, span name)
TARGETS = [
    *[("model", f, "numcore." + f) for f in (
        "gelu_fwd", "gelu_grad", "softmax_rows", "softmax_bwd",
        "layer_norm_fwd", "layer_norm_bwd", "dropout_mask")],
    ("pretrain", "msm_forward", "model.msm_forward"),
    ("pretrain", "msm_backward", "model.msm_backward"),
    ("model", "msm_forward", "model.msm_forward"),
    ("model", "msm_backward", "model.msm_backward"),
    ("downstream", "encode_batch", "model.encode_batch"),
    ("pretrain", "run_pretrain", "pretrain.run_pretrain"),
    ("pretrain", "sample_mask", "pretrain.sample_mask"),
    ("pretrain.Adam", "step", "pretrain.Adam.step"),
    ("pretrain", "save_checkpoint", "pretrain.save_checkpoint"),
    ("pretrain", "load_checkpoint", "pretrain.load_checkpoint"),
    ("downstream", "extract_features", "downstream.extract_features"),
    ("downstream", "train_gbdt", "downstream.train_gbdt"),
    ("downstream", "predict_proba_batch", "downstream.predict_proba_batch"),
    ("downstream", "save_gbdt", "downstream.save_gbdt"),
    *[("dataio", f, "dataio." + f) for f in (
        "load_csv", "fit_norm", "apply_norm", "vehicle_split", "synth_fleet", "write_csv")],
    *[("evalkit", f, "evalkit." + f) for f in (
        "tsne", "conditional_affinities", "mixing_score", "auroc", "roc_points",
        "min_expected_cost", "vehicle_scores", "emit_report", "write_tsne_outputs")],
    *[("cli", f, "cli." + f) for f in ("cmd_pretrain", "cmd_detect", "cmd_tsne", "load_config")],
]

# Per-layer metrics are named "<span name>.<statistic>" in BENCHMARK.json.
# "calls", "s" (total time) and "self_s" (time not covered by child spans)
# come from the spans; every other statistic is a counter filled in by a hook.

SETUP_SPANS = ("dataio.synth_fleet", "dataio.write_csv")


# ---------------------------------------------------------------------------
# Counters computed from a wrapped call's arguments and result
# ---------------------------------------------------------------------------


def _forward_flop(cfg, B, M):
    """Multiply-add FLOP of msm_forward's matrix products (elementwise work excluded)."""
    T, H, FF, D = M + 1, cfg.H, cfg.FF, cfg.D
    layer = 2 * B * T * (4 * H * H + 2 * T * H + 2 * H * FF)
    return 2 * B * M * D * H + cfg.L * layer + 2 * B * M * H * D


def _backward_flop(cfg, B, M):
    """FLOP of msm_backward's matrix products: two products per forward product,
    except that the embedding projection needs no gradient for its input."""
    T, H, FF, D = M + 1, cfg.H, cfg.FF, cfg.D
    layer = 2 * B * T * (8 * H * H + 4 * T * H + 4 * H * FF)
    return 2 * B * M * D * H + cfg.L * layer + 4 * B * M * H * D


def _split_nodes(node):
    if node.is_leaf:
        return 0
    return 1 + _split_nodes(node.left) + _split_nodes(node.right)


def _hook_forward(counters, args, result):
    _, cfg, X = args[:3]
    counters["model.msm_forward.computed_flop"] += _forward_flop(cfg, X.shape[0], X.shape[1])


def _hook_backward(counters, args, result):
    cache, _, cfg = args[:3]
    X = cache[0][0]
    counters["model.msm_backward.computed_flop"] += _backward_flop(cfg, X.shape[0], X.shape[1])


def _file_bytes(name, *positions):
    def hook(counters, args, result):
        counters[name + ".bytes"] += sum(os.path.getsize(args[i]) for i in positions)
    return hook


def _hook_gbdt(counters, args, result):
    counters["downstream.train_gbdt.trees"] += len(result.trees)
    counters["downstream.train_gbdt.split_nodes"] += sum(_split_nodes(t) for t in result.trees)


def _hook_tsne(counters, args, result):
    counters["evalkit.tsne.iterations"] += len(result[1])


HOOKS = {
    "model.msm_forward": _hook_forward,
    "model.msm_backward": _hook_backward,
    "downstream.train_gbdt": _hook_gbdt,
    "evalkit.tsne": _hook_tsne,
    "pretrain.save_checkpoint": _file_bytes("pretrain.save_checkpoint", 1),
    "pretrain.load_checkpoint": _file_bytes("pretrain.load_checkpoint", 0),
    "downstream.save_gbdt": _file_bytes("downstream.save_gbdt", 1),
    "dataio.load_csv": _file_bytes("dataio.load_csv", 0, 1),
}


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counters = collections.Counter()
        self._stack = []

    def span(self, name, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = [start, end]
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, only=None):
        """Wrap every target (or the span names in ``only``) for the duration."""
        saved = []
        try:
            for module_path, attr, name in TARGETS:
                if only is not None and name not in only:
                    continue
                owner = _resolve(module_path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.span(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self):
        """Per-span calls / total / self time plus hook counters, keyed by metric name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + (end - start - covered)
        out.update(self.counters)
        return out

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


def _resolve(path):
    """'pretrain.Adam' -> the Adam class of battfault.pretrain."""
    module, _, cls = path.partition(".")
    obj = importlib.import_module("battfault." + module)
    return getattr(obj, cls) if cls else obj
