import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from battfault import evalkit
from battfault.evalkit import (
    CostParams,
    SingleClassError,
    auroc,
    conditional_affinities,
    expected_cost,
    min_expected_cost,
    mixing_score,
    roc_points,
    roc_svg,
    scatter_svg,
    trapezoid_auroc,
    tsne,
    vehicle_scores,
    write_tsne_outputs,
)
from battfault.numcore import SeededRng


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_reversed_scores(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_ties_get_half_credit(self):
        assert auroc([0.5, 0.5], [0, 1]) == 0.5

    def test_hand_value(self):
        # pairs: (0.3>0.1)+(0.3<0.4 -> 0)+(0.7>0.1)+(0.7>0.4) = 3 of 4
        assert auroc([0.1, 0.3, 0.4, 0.7], [0, 1, 0, 1]) == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            auroc([0.1, 0.2], [1, 1])

    @given(st.lists(st.tuples(st.floats(-5, 5), st.integers(0, 1)), min_size=4, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_monotone_transform(self, rows):
        # round to a coarse grid so float rounding cannot merge scores that
        # the exact transform keeps distinct (ties must map to ties)
        scores = np.round(np.array([r[0] for r in rows]), 3)
        labels = np.array([r[1] for r in rows])
        if labels.min() == labels.max():
            return
        base = auroc(scores, labels)
        assert auroc(np.exp(scores / 3.0), labels) == pytest.approx(base, abs=1e-12)
        assert auroc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)

    def test_negation_flips_when_no_ties(self):
        rng = SeededRng(1)
        scores = rng.spawn("s").normal(30)
        labels = (rng.spawn("l").uniform(30) > 0.5).astype(int)
        assert auroc(-scores, labels) == pytest.approx(1.0 - auroc(scores, labels), abs=1e-12)


class TestRocPoints:
    def test_endpoints(self):
        thresholds, q_tp, q_fp = roc_points([0.2, 0.6, 0.8], [0, 1, 1])
        assert (q_tp[0], q_fp[0]) == (0.0, 0.0)
        assert thresholds[0] == math.inf
        assert (q_tp[-1], q_fp[-1]) == (1.0, 1.0)

    def test_monotone_rates(self):
        rng = SeededRng(2)
        scores = rng.spawn("s").normal(50)
        labels = (rng.spawn("l").uniform(50) > 0.6).astype(int)
        thresholds, q_tp, q_fp = roc_points(scores, labels)
        assert (np.diff(q_tp) >= 0).all() and (np.diff(q_fp) >= 0).all()
        assert (np.diff(thresholds) < 0).all()

    def test_trapezoid_equals_mann_whitney(self):
        rng = SeededRng(3)
        scores = np.round(rng.spawn("s").normal(40), 1)  # force ties
        labels = (rng.spawn("l").uniform(40) > 0.5).astype(int)
        assert trapezoid_auroc(roc_points(scores, labels)) == pytest.approx(
            auroc(scores, labels), abs=1e-12)


class TestExpectedCost:
    def test_affine_in_rates(self):
        cp = CostParams()
        for q_fp in (0.0, 0.3, 1.0):
            a = expected_cost(cp, 0.0, q_fp)
            b = expected_cost(cp, 0.5, q_fp)
            c = expected_cost(cp, 1.0, q_fp)
            assert b == pytest.approx((a + c) / 2, abs=1e-9)
        for q_tp in (0.0, 0.3, 1.0):
            a = expected_cost(cp, q_tp, 0.0)
            b = expected_cost(cp, q_tp, 0.5)
            c = expected_cost(cp, q_tp, 1.0)
            assert b == pytest.approx((a + c) / 2, abs=1e-9)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            expected_cost(CostParams(), 1.5, 0.0)

    def test_min_cost_bounded_by_endpoints(self):
        rng = SeededRng(4)
        scores = rng.spawn("s").normal(30)
        labels = (rng.spawn("l").uniform(30) > 0.5).astype(int)
        cp = CostParams()
        thresholds, q_tp, q_fp = sweep = roc_points(scores, labels)
        cost, best, _ = min_expected_cost(sweep, cp)
        assert cost <= expected_cost(cp, 0.0, 0.0) + 1e-12
        assert cost <= expected_cost(cp, 1.0, 1.0) + 1e-12
        assert cost == pytest.approx(expected_cost(cp, q_tp[best], q_fp[best]), abs=1e-12)


class TestVehicleScores:
    def test_mean_aggregation(self):
        ids, out, labels = vehicle_scores([0.2, 0.4, 1.0], [0, 0, 1], ["a", "a", "b"], "mean")
        assert dict(zip(ids, out)) == {"a": pytest.approx(0.3), "b": 1.0}
        assert labels.tolist() == [0, 1]

    def test_max_aggregation(self):
        ids, out, _ = vehicle_scores([0.2, 0.4, 1.0], [0, 0, 1], ["a", "a", "b"], "max")
        assert dict(zip(ids, out)) == {"a": 0.4, "b": 1.0}

    def test_unknown_aggregator(self):
        with pytest.raises(ValueError):
            vehicle_scores([0.1], [0], ["a"], "median-of-means")


def _row_by_row_affinities(X, perplexity):
    """conditional_affinities as one binary search per row: the oracle for the batched search."""
    sq = (X * X).sum(axis=1)
    dists = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(dists, 0.0)
    dists = np.maximum(dists, evalkit.DIST_FLOOR)
    n, target_h = len(X), np.log(perplexity)
    P = np.zeros((n, n))
    for i in range(n):
        row = np.delete(dists[i], i)
        beta, lo, hi = 1.0, 0.0, np.inf
        for _ in range(evalkit.PERPLEXITY_MAX_ITER):
            p = np.exp(-row * beta)
            s = p.sum()
            p = p / s if s > 0 else p
            h = -(p[p > 0] * np.log(p[p > 0])).sum()
            diff = h - target_h
            if abs(diff) < evalkit.PERPLEXITY_TOL:
                break
            if diff > 0:
                lo = beta
                beta = beta * 2.0 if hi == np.inf else 0.5 * (beta + hi)
            else:
                hi = beta
                beta = 0.5 * (beta + lo)
        P[i, np.arange(n) != i] = p
    return P


def _reference_tsne(X, perplexity, iterations, seed):
    """tsne's iteration with fresh arrays and no precomputed terms: the oracle for its buffers."""
    n = len(X)
    cond = _row_by_row_affinities(X, perplexity)
    P = np.maximum((cond + cond.T) / (2.0 * n), 1e-12)
    Y = SeededRng(seed, ("tsne",)).normal((n, 2), std=1e-4)
    velocity, gains, kl = np.zeros_like(Y), np.ones_like(Y), []
    for it in range(iterations):
        early = it < evalkit.EXAG_ITERS
        sq = (Y * Y).sum(axis=1)
        d = sq[:, None] + sq[None, :] - 2.0 * (Y @ Y.T)
        np.fill_diagonal(d, 0.0)
        num = 1.0 / (1.0 + np.maximum(d, evalkit.DIST_FLOOR))
        np.fill_diagonal(num, 0.0)
        Q = np.maximum(num / num.sum(), 1e-12)
        kl.append(float((P * np.log(P / Q)).sum()))
        PQ = ((evalkit.EXAGGERATION if early else 1.0) * P - Q) * num
        grad = 4.0 * ((np.diag(PQ.sum(axis=1)) - PQ) @ Y)
        flips = np.sign(grad) != np.sign(velocity)
        gains = np.clip(np.where(flips, gains + 0.2, gains * 0.8), 0.01, None)
        velocity = (evalkit.MOMENTUM_EARLY if early else evalkit.MOMENTUM_LATE) * velocity \
            - evalkit.TSNE_ETA * gains * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
    return Y, kl


def _tsne_inputs():
    rng = SeededRng(12)
    gauss = rng.spawn("gauss").normal((120, 8))
    return {
        "gaussian": gauss,
        # the affinities between clusters underflow to zero
        "far_clusters": np.vstack([rng.spawn("cluster", k).normal((40, 6)) + 60.0 * k
                                   for k in range(4)]),
        "duplicated_points": np.vstack([gauss[:45], gauss[:45], gauss[45:75]]),
        "tiny_scale": gauss * 1e-6,
        "large_scale": gauss * 1e3,
    }


TSNE_CASES = [pytest.param(name, perplexity, id=f"{name}-{perplexity:g}")
              for name in _tsne_inputs() for perplexity in (5.0, 12.0, 30.0)]


class TestTsne:
    @pytest.mark.parametrize("name,perplexity", TSNE_CASES)
    def test_affinities_and_coordinates_equal_the_loop_oracles(self, name, perplexity):
        X = _tsne_inputs()[name]
        P = conditional_affinities(X, perplexity)
        np.testing.assert_array_equal(P, _row_by_row_affinities(X, perplexity))
        if name == "far_clusters":
            assert (P == 0).sum() > len(X)
        # through the exaggerated phase and into the plain one
        iterations = evalkit.EXAG_ITERS + 10
        Y, kl = tsne(X, perplexity, iterations, seed=3)
        Y_ref, kl_ref = _reference_tsne(X, perplexity, iterations, 3)
        np.testing.assert_array_equal(Y, Y_ref)
        # KL is sum(P log P) - P . log Q, which rounds differently
        np.testing.assert_allclose(kl, kl_ref, rtol=1e-12, atol=0)

    def test_perplexity_binary_search_hits_target(self):
        X = SeededRng(5).normal((40, 6))
        P = conditional_affinities(X, perplexity=8.0)
        for i in range(40):
            row = P[i][P[i] > 0]
            entropy = -(row * np.log2(row)).sum()
            assert 2.0 ** entropy == pytest.approx(8.0, abs=1e-3)

    def test_output_shape_and_determinism(self):
        X = SeededRng(6).normal((30, 5))
        Y1, kl1 = tsne(X, perplexity=5.0, iterations=120, seed=3)
        Y2, kl2 = tsne(X, perplexity=5.0, iterations=120, seed=3)
        assert Y1.shape == (30, 2)
        np.testing.assert_array_equal(Y1, Y2)
        assert kl1 == kl2
        assert len(kl1) == 120

    def test_kl_improves_after_exaggeration_phase(self):
        # the first 250 iterations optimize an exaggerated objective, so
        # compare within the plain-KL phase
        X = SeededRng(7).normal((40, 8))
        _, kl = tsne(X, perplexity=10.0, iterations=500, seed=1)
        assert kl[-1] < kl[250]
        assert all(np.isfinite(kl))

    def test_separated_clusters_stay_separated(self):
        rng = SeededRng(8)
        A = rng.spawn("a").normal((15, 4))
        B = rng.spawn("b").normal((15, 4)) + 25.0
        Y, _ = tsne(np.vstack([A, B]), perplexity=5.0, iterations=500, seed=2)
        within = max(np.linalg.norm(Y[:15] - Y[:15].mean(0), axis=1).max(),
                     np.linalg.norm(Y[15:] - Y[15:].mean(0), axis=1).max())
        between = np.linalg.norm(Y[:15].mean(0) - Y[15:].mean(0))
        assert between > within

    def test_size_cap(self):
        with pytest.raises(ValueError):
            tsne(np.zeros((2001, 2)), perplexity=30.0, iterations=1, seed=0)


class TestMixingScore:
    def test_separable_groups_score_zero(self):
        rng = SeededRng(9)
        X = np.vstack([rng.spawn("a").normal((10, 3)),
                       rng.spawn("b").normal((10, 3)) + 50.0])
        groups = ["a"] * 10 + ["b"] * 10
        assert mixing_score(X, groups) == 0.0

    def test_identical_distributions_score_high(self):
        X = SeededRng(10).normal((300, 3))
        groups = ["a", "b"] * 150
        assert mixing_score(X, groups) > 0.8

    def test_range_and_validation(self):
        X = SeededRng(11).normal((20, 2))
        assert 0.0 <= mixing_score(X, ["a", "b"] * 10) <= 1.0
        with pytest.raises(ValueError):
            mixing_score(X, ["a"] * 20)


class TestSvgAndFiles:
    def test_roc_svg_deterministic(self):
        pts = roc_points([0.1, 0.5, 0.9], [0, 1, 1])
        assert roc_svg(pts) == roc_svg(pts)
        assert roc_svg(pts).startswith("<svg")

    def test_scatter_svg_deterministic(self):
        coords, groups, labels = np.array([[0.0, 1.0], [2.0, -1.0]]), ("v1", "v2"), [0, 1]
        assert scatter_svg(coords, groups, labels) == scatter_svg(coords, groups, labels)

    def test_scatter_colours_follow_first_appearance(self):
        groups = ["v9", "v1", "v9", "v5"] + [f"w{k}" for k in range(8)]
        svg = scatter_svg(SeededRng(15).normal((12, 2)), groups, [0] * 12)
        palette = evalkit.PALETTE.tolist()
        assert re.findall(r'fill="(#[0-9a-f]{6})"', svg) == \
            [palette[0], palette[1], palette[0], palette[2]] + palette[3:] + palette[:3]

    def test_write_tsne_outputs(self, tmp_path):
        write_tsne_outputs(np.array([[0.25, -1.5], [2.0, 3.5]]), ("v1", "v2"), [0, 1], tmp_path,
                           "tsne")
        csv_text = (tmp_path / "tsne.csv").read_text()
        assert csv_text.splitlines()[0] == "x,y,vehicle_id,label"
        assert len(csv_text.splitlines()) == 3
        assert (tmp_path / "tsne.svg").exists()


# ---------------------------------------------------------------------------
# The per-point loops the array code replaced, kept as its oracles
# ---------------------------------------------------------------------------


def _loop_midranks(scores):
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # average 1-based rank for ties
        i = j + 1
    return ranks


def _loop_auroc(scores, labels):
    n_pos, n_neg = int((labels == 1).sum()), int((labels == 0).sum())
    rank_sum_pos = _loop_midranks(scores)[labels == 1].sum()
    return float((rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _loop_sweep(scores, labels):
    """(threshold, q_tp, q_fp) per point, one walk down the scores per threshold."""
    n_pos, n_neg = int((labels == 1).sum()), int((labels == 0).sum())
    order = np.argsort(-scores, kind="stable")
    points = [(float("inf"), 0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < scores.size:
        thr = scores[order[i]]
        while i < scores.size and scores[order[i]] == thr:
            if labels[order[i]] == 1:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append((float(thr), tp / n_pos, fp / n_neg))
    return points


def _loop_min_cost(points, params):
    costs = [expected_cost(params, q_tp, q_fp) for _, q_tp, q_fp in points]
    best = min(range(len(points)), key=lambda i: (costs[i], points[i][2]))
    return costs[best], best, costs


def _dict_vehicle_scores(scores, labels, vehicle_ids, aggregator):
    groups, label_of = {}, {}
    for s, y, v in zip(scores, labels, vehicle_ids):
        groups.setdefault(v, []).append(float(s))
        label_of[v] = max(label_of.get(v, 0), int(y))
    ids = sorted(groups)
    agg = evalkit.AGGREGATORS[aggregator]
    return ids, [float(agg(groups[v])) for v in ids], [label_of[v] for v in ids]


def _score_sets():
    rng = SeededRng(13)
    normal = rng.spawn("s").normal(60)
    labels = (rng.spawn("l").uniform(60) > 0.6).astype(int)
    one_positive = np.zeros(60, dtype=int)
    one_positive[17] = 1
    return {
        "untied": (normal, labels),
        "tied": (np.round(normal, 1), labels),
        "all_tied": (np.full(60, 0.25), labels),
        "single_positive": (np.round(normal, 1), one_positive),
        "signed_zeros": (np.array([0.0, -0.0, 0.5, -0.0, 0.0, -0.5]), np.array([1, 0, 1, 1, 0, 0])),
    }


SCORE_SETS = sorted(_score_sets())


class TestArrayCodeEqualsTheLoops:
    @pytest.mark.parametrize("name", SCORE_SETS)
    def test_midranks_and_auroc(self, name):
        scores, labels = _score_sets()[name]
        assert (evalkit._midranks(scores) == _loop_midranks(scores)).all()
        assert auroc(scores, labels) == _loop_auroc(scores, labels)

    @pytest.mark.parametrize("name", SCORE_SETS)
    def test_sweep_and_min_cost(self, name):
        scores, labels = _score_sets()[name]
        points = _loop_sweep(scores, labels)
        sweep = roc_points(scores, labels)
        # repr tells -0.0 from 0.0, as the files that print thresholds do
        assert [list(map(repr, p)) for p in zip(*(a.tolist() for a in sweep))] == \
            [list(map(repr, p)) for p in points]
        cost, best, costs = min_expected_cost(sweep, CostParams())
        assert (cost, best, costs.tolist()) == _loop_min_cost(points, CostParams())

    def test_a_cost_tie_breaks_toward_lower_q_fp(self):
        # p = 1/2, c_f = 4, c_r = 2: cost = 2 - q_tp + q_fp, exact for these rates
        params = CostParams(p=0.5, c_f=4.0, c_r=2.0)
        sweep = (np.array([0.9, 0.8, 0.7]), np.array([0.5, 1.0, 0.5]), np.array([0.5, 0.5, 0.0]))
        cost, best, costs = min_expected_cost(sweep, params)
        assert costs.tolist() == [2.0, 1.5, 1.5]
        assert (cost, best) == (1.5, 2)
        assert (cost, best, costs.tolist()) == _loop_min_cost(list(zip(*sweep)), params)

    @pytest.mark.parametrize("per_vehicle", [8, 129])
    @pytest.mark.parametrize("aggregator", sorted(evalkit.AGGREGATORS))
    def test_vehicle_scores(self, per_vehicle, aggregator):
        rng = SeededRng(14, (per_vehicle,))
        n = 9 * per_vehicle
        # the rows of nine vehicles, interleaved in a random order
        vehicle_ids = [f"v{k}" for k in (rng.spawn("order").permutation(n) % 9).tolist()]
        scores = rng.spawn("s").uniform(n)
        labels = [int(v in ("v2", "v5")) for v in vehicle_ids]
        ids, veh_scores, veh_labels = vehicle_scores(scores, labels, vehicle_ids, aggregator)
        ids_ref, scores_ref, labels_ref = _dict_vehicle_scores(scores, labels, vehicle_ids,
                                                               aggregator)
        assert ids.tolist() == ids_ref
        assert veh_scores.tolist() == scores_ref
        assert veh_labels.tolist() == labels_ref


NON_FINITE = [math.nan, math.inf, -math.inf]
SRC = Path(__file__).resolve().parent.parent / "src"


class TestNonFiniteScores:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_auroc_refuses(self, bad):
        with pytest.raises(ValueError, match="finite"):
            auroc([0.1, bad, 0.3, 0.2], [0, 1, 1, 0])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_vehicle_scores_refuses(self, bad):
        with pytest.raises(ValueError, match="finite"):
            vehicle_scores([0.1, bad, 0.3], [0, 1, 1], ["a", "b", "b"], "mean")

    def test_roc_points_refuses_without_hanging(self):
        # a NaN threshold never equals itself, so a sweep that walks each tie
        # group with == stops moving and appends points without end: run it
        # where a timeout and a 512 MiB address-space cap can end it
        code = ("import resource\n"
                "from battfault.evalkit import roc_points\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
                "for bad in (float('nan'), float('inf'), float('-inf')):\n"
                "    try:\n"
                "        roc_points([0.1, bad, bad, 0.2], [0, 1, 1, 0])\n"
                "    except ValueError as exc:\n"
                "        assert 'finite' in str(exc), exc\n"
                "    else:\n"
                "        raise SystemExit(f'roc_points accepted {bad}')\n")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=30)
        assert result.returncode == 0, result.stderr


class TestReport:
    def test_flagging_no_vehicle_writes_a_null_threshold(self, tmp_path):
        # at the default costs flagging none costs 1900 CNY, and every point
        # that catches the faulty vehicle, ranked third of eight, costs more
        scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2]
        labels = np.array([0, 0, 1, 0, 0, 0, 0, 0])
        report = evalkit.emit_report(scores, labels, [f"v{i}" for i in range(8)], "mean",
                                     CostParams(), {}, tmp_path)
        assert report["min_expected_cost"] == 1900.0
        assert report["min_cost_threshold"] is None
        assert report["min_cost_point"] == {"threshold": None, "q_tp": 0.0, "q_fp": 0.0}
        text = (tmp_path / "report.json").read_text()
        assert "Infinity" not in text and '"min_cost_threshold": null' in text
        assert (tmp_path / "roc.csv").read_text().splitlines()[1] == "inf,0.0,0.0,1900.0"
