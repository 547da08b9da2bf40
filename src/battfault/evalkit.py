"""Evaluation suite: AUROC, ROC/cost analysis, exact t-SNE, mixing diagnostics.

AUROC uses the rank (Mann-Whitney) form with half credit for ties; roc_points
provides the threshold sweep, as (thresholds, q_tp, q_fp) arrays, whose
trapezoidal area must agree with it. Both refuse NaN and infinite scores. The
expected direct cost combines missed-fault and inspection costs at an
operating point; defaults follow the fleet statistics the cost model was
published with (fault rate 0.038%, 5M CNY per missed fault, 8k CNY per
inspection).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, asdict

import numpy as np

from .dataio import csv_text, json_text, write_text
from .numcore import SeededRng


class SingleClassError(ValueError):
    """Metric undefined because only one label class is present."""


@dataclass(frozen=True)
class CostParams:
    p: float = 0.00038          # fleet fault rate
    c_f: float = 5_000_000.0    # direct cost of a missed fault (CNY/vehicle)
    c_r: float = 8_000.0        # inspection cost (CNY/vehicle)

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"fault rate must be in [0,1], got {self.p}")
        if self.c_f < 0 or self.c_r < 0:
            raise ValueError("costs must be nonnegative")


# ---------------------------------------------------------------------------
# AUROC and ROC sweep
# ---------------------------------------------------------------------------


def _check_two_classes(labels: np.ndarray):
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError(f"need both classes, got {n_pos} positives / {n_neg} negatives")
    return n_pos, n_neg


def _finite_scores(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():  # no tie group or rank can hold a NaN
        raise ValueError("scores must be finite, without NaN or infinity")
    return scores


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, a tie group sharing the mean of its ranks (Sun & Xu's midranks)."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def auroc(scores, labels) -> float:
    """Mann-Whitney AUROC: P(random positive outranks random negative), ties half."""
    scores = _finite_scores(scores)
    labels = np.asarray(labels)
    n_pos, n_neg = _check_two_classes(labels)
    rank_sum_pos = _midranks(scores)[labels == 1].sum()
    return float((rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def roc_points(scores, labels):
    """Threshold sweep as (thresholds, q_tp, q_fp) arrays: one point per distinct score plus
    (0,0) at threshold +inf. Predicting positive means score >= threshold; the points run
    down to (1,1) at the minimum score."""
    scores = _finite_scores(scores)
    labels = np.asarray(labels)
    n_pos, n_neg = _check_two_classes(labels)
    order = np.argsort(-scores, kind="stable")
    s, positive = scores[order], labels[order] == 1
    first = np.r_[True, s[1:] != s[:-1]]       # first row of each tie group
    last = np.r_[first[1:], True]
    thresholds = np.r_[np.inf, s[first]]
    q_tp = np.r_[0.0, np.cumsum(positive)[last] / n_pos]
    q_fp = np.r_[0.0, np.cumsum(~positive)[last] / n_neg]
    return thresholds, q_tp, q_fp


def trapezoid_auroc(sweep) -> float:
    """Area under a roc_points sweep; the independent check against auroc()."""
    _, q_tp, q_fp = sweep
    area = 0.0
    for i in range(1, len(q_tp)):
        area += (q_fp[i] - q_fp[i - 1]) * (q_tp[i - 1] + q_tp[i]) / 2.0
    return float(area)


# ---------------------------------------------------------------------------
# Expected direct cost
# ---------------------------------------------------------------------------


def expected_cost(params: CostParams, q_tp, q_fp):
    """Per-vehicle expected direct cost (CNY) at one operating point, or at arrays of them."""
    if not np.all((0.0 <= q_tp) & (q_tp <= 1.0) & (0.0 <= q_fp) & (q_fp <= 1.0)):
        raise ValueError(f"rates must be in [0,1], got q_tp={q_tp}, q_fp={q_fp}")
    p = params.p
    return p * (1.0 - q_tp) * params.c_f + (p * q_tp + (1.0 - p) * q_fp) * params.c_r


def min_expected_cost(sweep, params: CostParams):
    """Expected cost at every point of a roc_points sweep, and its minimum.

    Returns (cost, index, costs), costs[i] being the cost at point i and
    index that of the minimum; cost ties break toward lower q_fp, then toward
    the earlier point. Note this is a sweep minimum: any other operating-point
    convention can be read off the emitted cost curve.
    """
    _, q_tp, q_fp = sweep
    costs = expected_cost(params, q_tp, q_fp)
    best = int(np.lexsort((q_fp, costs))[0])
    return float(costs[best]), best, costs


AGGREGATORS = {"mean": np.mean, "max": np.max}


def vehicle_scores(scores, labels, vehicle_ids, aggregator: str):
    """Aggregate snippet scores (mean or max) and labels to one per vehicle.

    Returns (ids, scores, labels): the vehicle ids sorted, and arrays of each
    vehicle's score and label in that order. A vehicle is labelled faulty
    when any of its snippets is (in a loaded fleet, all of them are). The
    aggregator runs once per vehicle on its snippet scores in row order:
    np.mean sums pairwise, so a grouped running sum would round differently.
    """
    if aggregator not in AGGREGATORS:
        raise ValueError(f"unknown aggregator {aggregator!r}")
    scores = _finite_scores(scores)
    ids, inverse, counts = np.unique(np.asarray(vehicle_ids), return_inverse=True,
                                     return_counts=True)
    order = np.argsort(inverse, kind="stable")
    ends = np.cumsum(counts)
    groups = np.split(scores[order], ends)[:-1]   # the piece after the last end is empty
    veh_scores = np.array(list(map(AGGREGATORS[aggregator], groups)), dtype=np.float64)
    veh_labels = np.maximum.reduceat(np.asarray(labels, dtype=np.int64)[order], ends - counts)
    return ids, veh_scores, veh_labels


# ---------------------------------------------------------------------------
# Exact t-SNE
# ---------------------------------------------------------------------------

DIST_FLOOR = 1e-12
TSNE_MAX_POINTS = 2000
EXAGGERATION = 12.0
EXAG_ITERS = 250
MOMENTUM_EARLY = 0.5
MOMENTUM_LATE = 0.8
TSNE_ETA = 100.0
PERPLEXITY_TOL = 1e-5
PERPLEXITY_MAX_ITER = 200


def _pairwise_sq_dists(X: np.ndarray, out: np.ndarray | None = None,
                       gram: np.ndarray | None = None) -> np.ndarray:
    """(n, n) squared distances floored at DIST_FLOOR, the diagonal too.

    ``out`` and ``gram`` are optional (n, n) buffers for the result and for
    X @ X.T; gram is left holding 2 X @ X.T.
    """
    sq = (X * X).sum(axis=1)
    d = np.add(sq[:, None], sq[None, :], out=out)
    G = np.matmul(X, X.T, out=gram)
    G *= 2.0
    d -= G
    d.flat[::len(X) + 1] = 0.0
    return np.maximum(d, DIST_FLOOR, out=d)


def conditional_affinities(X: np.ndarray, perplexity: float) -> np.ndarray:
    """Row-wise Gaussian affinities with precisions binary-searched to the target perplexity.

    All rows bisect at once; a row stops at the first step whose entropy is
    within PERPLEXITY_TOL of log(perplexity) and keeps that step's affinities.
    """
    n = X.shape[0]
    if n < 3 * perplexity:
        raise ValueError(f"perplexity {perplexity} infeasible for {n} points (need N >= 3*perplexity)")
    off_diagonal = ~np.eye(n, dtype=bool)
    # row i holds the distances from point i to every other point, in index order
    dists = _pairwise_sq_dists(X)[off_diagonal].reshape(n, n - 1)
    target_h = np.log(perplexity)
    beta, lo, hi = np.ones(n), np.zeros(n), np.full(n, np.inf)
    cond = np.empty((n, n - 1))
    rows = np.arange(n)
    for _ in range(PERPLEXITY_MAX_ITER):
        p = np.exp(-dists[rows] * beta[rows, None])
        s = p.sum(axis=1, keepdims=True)
        np.divide(p, s, out=p, where=s > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -np.where(p > 0, p * np.log(p), 0.0).sum(axis=1)
        cond[rows] = p
        diff = h - target_h
        searching = ~(np.abs(diff) < PERPLEXITY_TOL)
        rows, up = rows[searching], diff[searching] > 0   # entropy too high -> sharpen
        if not rows.size:
            break
        b = beta[rows]
        lo[rows] = np.where(up, b, lo[rows])
        hi[rows] = np.where(up, hi[rows], b)
        grow = np.where(hi[rows] == np.inf, b * 2.0, 0.5 * (b + hi[rows]))
        beta[rows] = np.where(up, grow, 0.5 * (b + lo[rows]))
    P = np.zeros((n, n))
    P[off_diagonal] = cond.ravel()
    return P


def tsne(X: np.ndarray, perplexity: float, iterations: int, seed: int):
    """Exact O(N^2) t-SNE to 2D. Returns (coords (N,2), kl_history).

    Each iteration builds its (n, n) matrices in three buffers reused across
    iterations, and KL(P || Q) is sum(P log P), taken once, minus P . log Q.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n > TSNE_MAX_POINTS:
        raise ValueError(f"{n} points exceeds the exact-method bound of {TSNE_MAX_POINTS}")
    cond = conditional_affinities(X, perplexity)
    P = (cond + cond.T) / (2.0 * n)
    P = np.maximum(P, 1e-12)
    P_exaggerated = EXAGGERATION * P
    p_log_p = float((P * np.log(P)).sum())

    rng = SeededRng(seed, ("tsne",))
    Y = rng.normal((n, 2), std=1e-4)
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    kl_history = []
    num, gram, Q = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))

    for it in range(iterations):
        early = it < EXAG_ITERS
        momentum = MOMENTUM_EARLY if early else MOMENTUM_LATE

        # num = 1 / (1 + d), zero on the diagonal
        _pairwise_sq_dists(Y, out=num, gram=gram)
        num += 1.0
        np.divide(1.0, num, out=num)
        num.flat[::n + 1] = 0.0
        np.divide(num, num.sum(), out=Q)
        np.maximum(Q, 1e-12, out=Q)

        # the gradient's Laplacian diag(PQ 1) - PQ, built in the Gram buffer
        PQ = np.subtract(P_exaggerated if early else P, Q, out=gram)
        PQ *= num
        row_sums = PQ.sum(axis=1)
        np.negative(PQ, out=PQ)
        PQ.flat[::n + 1] = row_sums
        grad = 4.0 * (PQ @ Y)

        kl_history.append(p_log_p - float(np.vecdot(P.ravel(), np.log(Q, out=Q).ravel())))

        flips = np.sign(grad) != np.sign(velocity)
        gains = np.clip(np.where(flips, gains + 0.2, gains * 0.8), 0.01, None)
        velocity = momentum * velocity - TSNE_ETA * gains * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)

    return Y, kl_history


# ---------------------------------------------------------------------------
# Mixing diagnostics
# ---------------------------------------------------------------------------


def mixing_score(embeddings: np.ndarray, group_ids) -> float:
    """Group indistinguishability under leave-one-out 1-NN, rescaled to [0,1].

    1 means the groups are statistically indistinguishable to a nearest
    neighbor classifier, 0 means perfectly separable.
    """
    X = np.asarray(embeddings, dtype=np.float64)
    groups = np.asarray(group_ids)
    uniq, counts = np.unique(groups, return_counts=True)
    if uniq.size < 2:
        raise ValueError("need at least 2 groups")
    if counts.min() < 2:
        raise ValueError("every group needs at least 2 members")
    d = _pairwise_sq_dists(X)
    np.fill_diagonal(d, np.inf)
    nn = d.argmin(axis=1)
    acc = float((groups[nn] == groups).mean())
    chance = float(counts.max() / counts.sum())
    return float(np.clip((1.0 - acc) / (1.0 - chance), 0.0, 1.0))


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

FIGURE_SIZE = 480
PALETTE = np.array(["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                    "#8c564b", "#e377c2", "#7f7f7f"])


def _svg_document(body) -> str:
    n = FIGURE_SIZE
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{n}" height="{n}" viewBox="0 0 {n} {n}">'
            f'\n<rect width="{n}" height="{n}" fill="white"/>\n' + body + "</svg>\n")


def roc_svg(sweep) -> str:
    """Minimal ROC curve figure of a roc_points sweep (deterministic bytes)."""
    n, pad = FIGURE_SIZE, 40
    sx = lambda v: pad + v * (n - 2 * pad)
    sy = lambda v: n - pad - v * (n - 2 * pad)
    _, q_tp, q_fp = sweep
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(sx(q_fp).tolist(), sy(q_tp).tolist()))
    body = (f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(1):.2f}" y2="{sy(1):.2f}" '
            'stroke="#bbbbbb" stroke-dasharray="4 4"/>\n'
            f'<polyline points="{coords}" fill="none" stroke="#1f77b4" stroke-width="2"/>\n'
            f'<text x="{n/2:.0f}" y="{n - 8}" text-anchor="middle" '
            'font-size="12">false positive rate</text>\n'
            f'<text x="12" y="{n/2:.0f}" font-size="12" '
            f'transform="rotate(-90 12 {n/2:.0f})" text-anchor="middle">true positive rate</text>\n')
    return _svg_document(body)


def scatter_svg(coords: np.ndarray, groups, labels) -> str:
    """Minimal 2D scatter of coords (n, 2): the k-th group to appear in ``groups`` takes
    PALETTE[k % len(PALETTE)], and a point whose label is nonzero is outlined in black."""
    n, pad = FIGURE_SIZE, 30
    xs, ys = coords[:, 0], coords[:, 1]
    span_x = max(xs.max() - xs.min(), 1e-12)
    span_y = max(ys.max() - ys.min(), 1e-12)
    px = pad + (xs - xs.min()) / span_x * (n - 2 * pad)
    py = n - pad - (ys - ys.min()) / span_y * (n - 2 * pad)
    _, first, inverse = np.unique(np.asarray(groups), return_index=True, return_inverse=True)
    appearance = np.argsort(np.argsort(first))   # group k is the appearance[k]-th to appear
    colors = PALETTE[appearance[inverse] % len(PALETTE)]
    outline = np.where(np.asarray(labels) != 0, 'stroke="black" stroke-width="0.8"', "")
    return _svg_document("".join(
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}" {shape}/>\n'
        for x, y, color, shape in zip(px.tolist(), py.tolist(), colors, outline)))


def write_tsne_outputs(coords: np.ndarray, vehicle_ids, labels, out_dir, stem: str):
    """Write <stem>.csv and the scatter <stem>.svg of coords (n, 2), each row's id and label."""
    write_text(os.path.join(out_dir, f"{stem}.csv"), csv_text(
        ("x", "y", "vehicle_id", "label"), *coords.T, vehicle_ids, labels))
    write_text(os.path.join(out_dir, f"{stem}.svg"), scatter_svg(coords, vehicle_ids, labels))


def emit_report(scores, labels: np.ndarray, vehicle_ids, aggregator: str,
                cost_params: CostParams, echo: dict, out_dir) -> dict:
    """Evaluate snippet scores; write roc.csv (+ cost column), roc.svg and report.json.

    The ROC sweep and the expected cost are taken over vehicle scores
    aggregated from the snippet scores. If the cheapest point flags no vehicle,
    its threshold (+inf) is null in report.json and inf in roc.csv. ``echo``
    adds its keys to the report as given. Returns the report.
    """
    _, veh_scores, veh_labels = vehicle_scores(scores, labels, vehicle_ids, aggregator)
    sweep = thresholds, q_tp, q_fp = roc_points(veh_scores, veh_labels)
    cost, best, costs = min_expected_cost(sweep, cost_params)
    threshold = float(thresholds[best]) if best else None
    report = {
        "snippet_auroc": auroc(scores, labels),
        "vehicle_auroc": auroc(veh_scores, veh_labels),
        "min_expected_cost": cost,
        "min_cost_threshold": threshold,
        "min_cost_point": {"threshold": threshold, "q_tp": float(q_tp[best]),
                           "q_fp": float(q_fp[best])},
        "min_cost_convention": "minimum of the expected cost over all ROC operating points",
        "n_pos_vehicles": int(veh_labels.sum()),
        "n_neg_vehicles": int((veh_labels == 0).sum()),
        "n_pos_snippets": int(labels.sum()),
        "n_neg_snippets": int((labels == 0).sum()),
        "cost_params": asdict(cost_params),
        **echo,
    }
    os.makedirs(out_dir, exist_ok=True)
    write_text(os.path.join(out_dir, "roc.csv"), csv_text(
        ("threshold", "q_tp", "q_fp", "expected_cost_cny"), *sweep, costs))
    write_text(os.path.join(out_dir, "roc.svg"), roc_svg(sweep))
    write_text(os.path.join(out_dir, "report.json"), json_text(report))
    return report
