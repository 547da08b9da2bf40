"""Frozen-encoder feature extraction and a gradient-boosted tree classifier.

extract_features turns a FleetDataset into one (N, H+K) float64 matrix: row i
is the encoder's summary vector of the dataset's row i, encoded in float32,
followed by its z-scored static metadata. train_gbdt(X, labels, cfg) fits on
such a matrix and the dataset's labels; detect_scores runs both stages on a
split and scores its validation side. The classifier is boosted
depth-limited regression trees on logistic loss: exact greedy split search
over midpoints of sorted distinct feature values, second-order leaf weights
with L2 regularization.
Each `train_gbdt` call sorts every feature column once (the pre-sorted column
blocks of XGBoost's exact greedy algorithm, Chen & Guestrin 2016); a node
filters its rows out of those blocks and scores every (feature, cut) pair in
one array expression. Deterministic throughout; ties break on lowest feature
index, then lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import FleetDataset, json_text, write_text
from .evalkit import SingleClassError
from .model import MICRO_BATCH, ModelParams, encode_batch, float32_copy
from .numcore import NonFiniteError

GBDT_FORMAT_VERSION = 1


def extract_features(params: ModelParams, ds: FleetDataset) -> np.ndarray:
    """(N, H+K) float64 matrix: each snippet's eval-mode summary vector, then its metadata.

    The dataset must already be normalized with statistics fit on the
    training split. The encoder runs in float32, MICRO_BATCH snippets per
    encode_batch call, on a copy of the weights cast once per call and on
    each call's channels cast as it goes; the features then differ from a
    float64 encoding by float32 rounding (under 1e-6 at desk scale). The
    batch size moves a feature only by that rounding, up to about 5e-7 when
    a last batch of one snippet takes BLAS's one-row path.
    """
    cfg = params.cfg
    if ds.meta.shape[1] != cfg.K:
        raise ValueError(f"metadata length {ds.meta.shape[1]} != cfg.K {cfg.K}")
    work = float32_copy(params)
    X = np.empty((len(ds), cfg.H + cfg.K))
    X[:, cfg.H:] = ds.meta
    for start in range(0, len(ds), MICRO_BATCH):
        X[start:start + MICRO_BATCH, :cfg.H] = encode_batch(
            ds.channels[start:start + MICRO_BATCH].astype(np.float32), work, cfg)
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite feature for snippet {ds.snippet_ids[np.argmin(finite)]}")
    return X


# ---------------------------------------------------------------------------
# Gradient-boosted trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GbdtConfig:
    rounds: int = 200
    max_depth: int = 3
    shrinkage: float = 0.1
    reg_lambda: float = 1.0
    min_child_weight: float = 1e-6

    def __post_init__(self):
        if self.rounds < 1 or self.max_depth < 1:
            raise ValueError("rounds and max_depth must be positive")
        if not 0.0 < self.shrinkage <= 1.0:
            raise ValueError("shrinkage must be in (0,1]")
        if self.reg_lambda < 0.0:
            raise ValueError(f"reg_lambda must be >= 0, got {self.reg_lambda}")
        if self.min_child_weight <= 0.0:
            raise ValueError(f"min_child_weight must be > 0, got {self.min_child_weight}")


@dataclass
class TreeNode:
    """Axis-aligned split or leaf. Leaves carry the boosting weight."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode" = None
    right: "TreeNode" = None
    weight: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class GbdtModel:
    base_score: float           # prior log-odds
    trees: list                 # list of TreeNode roots
    shrinkage: float
    max_depth: int
    n_features: int


def _sigmoid(z):
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))


def _leaf_weight(g_sum, h_sum, lam):
    return -g_sum / (h_sum + lam)


def _split_gain(gl, hl, g_tot, h_tot, lam, parent):
    """Second-order gain of cutting a node after a prefix with sums (gl, hl)."""
    gr = g_tot - gl
    return gl * gl / (hl + lam) + gr * gr / (h_tot - hl + lam) - parent


def _best_split(sorted_rows, sorted_values, g, h, idx, lam, min_child_weight):
    """Exhaustive search over all features and midpoint thresholds.

    ``sorted_rows``/``sorted_values`` hold every feature column of the
    training matrix sorted once, as (F, N) blocks; ties keep row order, so
    the node's rows filtered out of them come out exactly as a stable argsort
    of the node's own values would. Every (feature, cut) pair is scored at
    once. Returns (feature, threshold) of the best split, or None.
    Deterministic tie-break: lowest feature, then lowest threshold.
    """
    g_tot, h_tot = g[idx].sum(), h[idx].sum()
    parent = g_tot * g_tot / (h_tot + lam)
    member = np.zeros(g.size, dtype=bool)
    member[idx] = True
    in_node = member[sorted_rows]
    shape = (sorted_rows.shape[0], idx.size)
    order = sorted_rows[in_node].reshape(shape)
    xs = sorted_values[in_node].reshape(shape)
    gl = np.cumsum(g[order], axis=1)[:, :-1]
    hl = np.cumsum(h[order], axis=1)[:, :-1]
    gain = _split_gain(gl, hl, g_tot, h_tot, lam, parent)
    # candidate cuts sit between distinct consecutive values
    valid = (xs[:, 1:] > xs[:, :-1]) & (hl >= min_child_weight) & (h_tot - hl >= min_child_weight)
    gain[~valid] = -np.inf
    best = int(np.argmax(gain))
    if gain.flat[best] <= 1e-12:
        return None
    f, c = np.unravel_index(best, gain.shape)
    return int(f), 0.5 * (xs[f, c] + xs[f, c + 1])


def _grow_tree(X, sorted_cols, g, h, idx, depth, cfg: GbdtConfig) -> TreeNode:
    split = _best_split(*sorted_cols, g, h, idx, cfg.reg_lambda, cfg.min_child_weight) \
        if depth < cfg.max_depth and idx.size > 1 else None
    if split is None:
        return TreeNode(weight=_leaf_weight(g[idx].sum(), h[idx].sum(), cfg.reg_lambda))
    f, thr = split
    go_left = X[idx, f] <= thr
    node = TreeNode(feature=f, threshold=thr)
    node.left = _grow_tree(X, sorted_cols, g, h, idx[go_left], depth + 1, cfg)
    node.right = _grow_tree(X, sorted_cols, g, h, idx[~go_left], depth + 1, cfg)
    return node


def _tree_apply(node: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0])
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        n, idx = stack.pop()
        if n.is_leaf:
            out[idx] = n.weight
        else:
            go_left = X[idx, n.feature] <= n.threshold
            stack.append((n.left, idx[go_left]))
            stack.append((n.right, idx[~go_left]))
    return out


def _logloss(y, p):
    eps = 1e-15
    p = np.clip(p, eps, 1 - eps)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())


def train_gbdt(X: np.ndarray, labels, cfg: GbdtConfig = GbdtConfig()) -> GbdtModel:
    """Boost regression trees on logistic loss over the rows of a feature matrix.

    ``labels`` holds each row's 0/1 label. Training log-loss must not increase
    round over round; NonFiniteError otherwise.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2 or y.shape != (len(X),):
        raise ValueError(f"feature matrix {X.shape} does not match {y.shape} labels")
    if not len(X):
        raise ValueError("no training features")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite values in training features")
    pos_rate = y.mean()
    if pos_rate == 0.0 or pos_rate == 1.0:
        raise SingleClassError(f"single-class training set (positive rate {pos_rate}); need both classes")

    base_score = float(np.log(pos_rate / (1.0 - pos_rate)))
    score = np.full(y.shape, base_score)
    all_idx = np.arange(y.size)
    sorted_rows = np.argsort(X, axis=0, kind="stable").T.copy()
    sorted_cols = (sorted_rows, np.take_along_axis(X.T, sorted_rows, axis=1))
    trees = []
    prev_loss = _logloss(y, _sigmoid(score))
    for r in range(cfg.rounds):
        p = _sigmoid(score)
        g = p - y
        h = p * (1.0 - p)
        root = _grow_tree(X, sorted_cols, g, h, all_idx, 0, cfg)
        trees.append(root)
        score = score + cfg.shrinkage * _tree_apply(root, X)
        loss = _logloss(y, _sigmoid(score))
        if not loss <= prev_loss + 1e-12:
            raise NonFiniteError(f"GBDT round {r}: training log-loss increased "
                                 f"from {prev_loss!r} to {loss!r}")
        prev_loss = loss
    return GbdtModel(base_score, trees, cfg.shrinkage, cfg.max_depth, X.shape[1])


def predict_proba_batch(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    """Fault probability for each row of a fused feature matrix."""
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"feature matrix {X.shape} incompatible with {model.n_features} features")
    score = np.full(X.shape[0], model.base_score, dtype=np.float64)
    for tree in model.trees:
        score += model.shrinkage * _tree_apply(tree, X)
    return _sigmoid(score)


def detect_scores(params: ModelParams, train: FleetDataset, val: FleetDataset, cfg: GbdtConfig):
    """(classifier fit on train's frozen features, fault probability of each val snippet)."""
    model = train_gbdt(extract_features(params, train), train.labels, cfg)
    return model, predict_proba_batch(model, extract_features(params, val))


# ---------------------------------------------------------------------------
# Serialization (same text container convention as checkpoints)
# ---------------------------------------------------------------------------


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"weight": node.weight}
    return {"feature": node.feature, "threshold": node.threshold,
            "left": _node_to_dict(node.left), "right": _node_to_dict(node.right)}


def save_gbdt(model: GbdtModel, path):
    """Write model as canonical JSON: detect's record of its classifier, like report.json."""
    write_text(path, json_text({
        "format_version": GBDT_FORMAT_VERSION,
        "base_score": model.base_score,
        "config": {"shrinkage": model.shrinkage, "max_depth": model.max_depth,
                   "rounds": len(model.trees), "n_features": model.n_features},
        "trees": [_node_to_dict(t) for t in model.trees],
    }))

