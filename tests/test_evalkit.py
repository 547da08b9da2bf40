import math

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
        pts = roc_points([0.2, 0.6, 0.8], [0, 1, 1])
        assert (pts[0].q_tp, pts[0].q_fp) == (0.0, 0.0)
        assert pts[0].threshold == math.inf
        assert (pts[-1].q_tp, pts[-1].q_fp) == (1.0, 1.0)

    def test_monotone_rates(self):
        rng = SeededRng(2)
        scores = rng.spawn("s").normal(50)
        labels = (rng.spawn("l").uniform(50) > 0.6).astype(int)
        pts = roc_points(scores, labels)
        for a, b in zip(pts, pts[1:]):
            assert b.q_tp >= a.q_tp and b.q_fp >= a.q_fp
            assert b.threshold < a.threshold

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
        cost, thr, pt, _ = min_expected_cost(roc_points(scores, labels))
        cp = CostParams()
        assert cost <= expected_cost(cp, 0.0, 0.0) + 1e-12
        assert cost <= expected_cost(cp, 1.0, 1.0) + 1e-12
        assert cost == pytest.approx(expected_cost(cp, pt.q_tp, pt.q_fp), abs=1e-12)
        assert thr == pt.threshold


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
            tsne(np.zeros((2001, 2)))


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
        rows = [(0.0, 1.0, "v1", 0), (2.0, -1.0, "v2", 1)]
        assert scatter_svg(rows) == scatter_svg(rows)

    def test_write_tsne_outputs(self, tmp_path):
        rows = [(0.25, -1.5, "v1", 0), (2.0, 3.5, "v2", 1)]
        write_tsne_outputs(rows, tmp_path)
        csv_text = (tmp_path / "tsne.csv").read_text()
        assert csv_text.splitlines()[0] == "x,y,vehicle_id,label"
        assert len(csv_text.splitlines()) == 3
        assert (tmp_path / "tsne.svg").exists()
