import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from battfault import dataio, downstream, model
from battfault.downstream import (
    GbdtConfig,
    GbdtModel,
    TreeNode,
    extract_features,
    predict_proba_batch,
    save_gbdt,
    train_gbdt,
)
from battfault.evalkit import SingleClassError
from battfault.numcore import NonFiniteError, SeededRng


def blobs(n=60, seed=0):
    rng = SeededRng(seed)
    X0 = rng.spawn("neg").normal((n, 4)) - 1.5
    X1 = rng.spawn("pos").normal((n, 4)) + 1.5
    X = np.vstack([X0, X1])
    y = np.array([0] * n + [1] * n)
    return X, y


class TestTrainGbdt:
    def test_row_count_must_match_labels(self):
        X, y = blobs(n=10)
        for labels in (y[:-1], np.append(y, 0), y[:, None]):
            with pytest.raises(ValueError, match=r"feature matrix \(20, 4\) does not match"):
                train_gbdt(X, labels)
        with pytest.raises(ValueError, match="feature matrix"):
            train_gbdt(X[0], y[:1])

    def test_separates_blobs(self):
        X, y = blobs()
        mdl = train_gbdt(X, y, GbdtConfig(rounds=30))
        p = predict_proba_batch(mdl, X)
        assert ((p > 0.5) == (y == 1)).mean() > 0.95

    def test_train_logloss_non_increasing(self):
        import dataclasses
        X, y = blobs(seed=3)
        mdl = train_gbdt(X, y, GbdtConfig(rounds=50))
        losses = []
        for k in range(len(mdl.trees) + 1):
            partial = dataclasses.replace(mdl, trees=mdl.trees[:k])
            p = np.clip(predict_proba_batch(partial, X), 1e-12, 1 - 1e-12)
            losses.append(float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_single_class_rejected(self):
        X, _ = blobs(n=10)
        with pytest.raises(ValueError, match="single-class"):
            train_gbdt(X, np.ones(len(X)))

    def test_single_class_is_typed(self):
        X, _ = blobs(n=10)
        with pytest.raises(SingleClassError):
            train_gbdt(X, np.zeros(len(X)))

    def test_negative_reg_lambda_rejected(self):
        with pytest.raises(ValueError, match="reg_lambda"):
            GbdtConfig(reg_lambda=-0.5)
        GbdtConfig(reg_lambda=0.0)

    def test_non_positive_min_child_weight_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="min_child_weight"):
                GbdtConfig(min_child_weight=bad)

    def test_deterministic(self):
        X, y = blobs(seed=5)
        a = train_gbdt(X, y, GbdtConfig(rounds=20))
        b = train_gbdt(X, y, GbdtConfig(rounds=20))
        np.testing.assert_array_equal(predict_proba_batch(a, X),
                                      predict_proba_batch(b, X))

    def test_probabilities_in_unit_interval(self):
        X, y = blobs(seed=7)
        mdl = train_gbdt(X, y)
        p = predict_proba_batch(mdl, X * 10)
        assert ((p > 0) & (p < 1)).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GbdtConfig(rounds=0)
        with pytest.raises(ValueError):
            GbdtConfig(shrinkage=0.0)

    def test_loss_increase_raises(self, monkeypatch):
        # every tree pushes all scores up by 50, away from the prior optimum
        monkeypatch.setattr(downstream, "_tree_apply", lambda node, X: np.full(X.shape[0], 50.0))
        X, y = blobs(n=10)
        with pytest.raises(NonFiniteError,
                           match=r"round 0: training log-loss increased from 0\.693\d+ to 2\.50\d+"):
            train_gbdt(X, y, GbdtConfig(rounds=3))


# ---------------------------------------------------------------------------
# Reference trainer: the per-(feature, cut) split loop, the oracle that the
# column-block search in train_gbdt must match byte for byte
# ---------------------------------------------------------------------------


def reference_best_split(X, g, h, idx, lam, min_child_weight):
    g_tot, h_tot = g[idx].sum(), h[idx].sum()
    parent = g_tot * g_tot / (h_tot + lam)
    best = None
    for f in range(X.shape[1]):
        order = idx[np.argsort(X[idx, f], kind="stable")]
        xs = X[order, f]
        gl = np.cumsum(g[order])
        hl = np.cumsum(h[order])
        cuts = np.nonzero(xs[1:] > xs[:-1])[0]
        for c in cuts:
            h_left, h_right = hl[c], h_tot - hl[c]
            if h_left < min_child_weight or h_right < min_child_weight:
                continue
            g_left = gl[c]
            gain = (g_left * g_left / (h_left + lam)
                    + (g_tot - g_left) * (g_tot - g_left) / (h_tot - hl[c] + lam)
                    - parent)
            thr = 0.5 * (xs[c] + xs[c + 1])
            cand = (-gain, f, thr)
            if best is None or cand < best:
                best = cand
    if best is None or -best[0] <= 1e-12:
        return None
    return (-best[0], best[1], best[2])


def reference_grow_tree(X, g, h, idx, depth, cfg):
    split = reference_best_split(X, g, h, idx, cfg.reg_lambda, cfg.min_child_weight) \
        if depth < cfg.max_depth and idx.size > 1 else None
    if split is None:
        return TreeNode(weight=downstream._leaf_weight(g[idx].sum(), h[idx].sum(), cfg.reg_lambda))
    _, f, thr = split
    go_left = X[idx, f] <= thr
    node = TreeNode(feature=f, threshold=thr)
    node.left = reference_grow_tree(X, g, h, idx[go_left], depth + 1, cfg)
    node.right = reference_grow_tree(X, g, h, idx[~go_left], depth + 1, cfg)
    return node


def reference_train_gbdt(X, y, cfg):
    pos_rate = y.mean()
    base_score = float(np.log(pos_rate / (1.0 - pos_rate)))
    score = np.full(y.shape, base_score)
    trees = []
    for _ in range(cfg.rounds):
        p = downstream._sigmoid(score)
        tree = reference_grow_tree(X, p - y, p * (1.0 - p), np.arange(y.size), 0, cfg)
        trees.append(tree)
        score = score + cfg.shrinkage * downstream._tree_apply(tree, X)
    return GbdtModel(base_score, trees, cfg.shrinkage, cfg.max_depth, X.shape[1])


@st.composite
def split_search_cases(draw):
    """Small training sets built to hit ties, constant and duplicated columns."""
    n = draw(st.integers(2, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["normal", "rounded", "constant", "duplicate"]))
        if kind == "duplicate" and cols:
            cols.append(cols[draw(st.integers(0, len(cols) - 1))].copy())
        elif kind == "constant":
            cols.append(np.full(n, draw(st.sampled_from([-1.5, 0.0, 3.0]))))
        elif kind == "rounded":
            cols.append(np.round(rng.normal(size=n), draw(st.integers(0, 1))))
        else:
            cols.append(rng.normal(size=n))
    y = (rng.random(n) < draw(st.floats(0.1, 0.9))).astype(np.float64)
    y[:2] = (0.0, 1.0)
    cfg = GbdtConfig(rounds=draw(st.integers(1, 6)), max_depth=draw(st.integers(1, 4)),
                     min_child_weight=draw(st.sampled_from([1e-6, 0.05, 0.5, 2.0])))
    return np.column_stack(cols), y, cfg


def _saved_bytes(mdl):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "classifier.json"
        save_gbdt(mdl, path)
        return path.read_bytes()


class TestSplitSearchOracle:
    @settings(max_examples=60, deadline=None)
    @given(split_search_cases())
    # no valid cut anywhere: only constant columns, or children lighter than
    # min_child_weight (each row's hessian is at most 0.25)
    @example((np.full((12, 3), 2.0), np.arange(12) % 2.0, GbdtConfig(rounds=3)))
    @example((np.arange(20.0).reshape(10, 2), np.arange(10) % 2.0,
              GbdtConfig(rounds=3, min_child_weight=2.0)))
    # a row set split off at the low end of one feature and the high end of
    # another: mirror-image cuts whose gains tie to within an ulp
    @example((np.column_stack([np.arange(6.0), -np.arange(6.0)]),
              np.array([0.0, 1, 1, 1, 1, 1]), GbdtConfig(rounds=20, max_depth=1)))
    def test_matches_reference_bytes(self, case):
        X, y, cfg = case
        assert _saved_bytes(train_gbdt(X, y, cfg)) == _saved_bytes(reference_train_gbdt(X, y, cfg))


def filtered_best_split(sorted_rows, sorted_values, g, h, idx, lam, min_child_weight):
    """train_gbdt's column-block search with no shortcut: every node, the root too, filters
    its rows out of the blocks, and a node whose rows share one (g, h) pair is searched too."""
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
    gain = downstream._split_gain(gl, hl, g_tot, h_tot, lam, parent)
    valid = (xs[:, 1:] > xs[:, :-1]) & (hl >= min_child_weight) & (h_tot - hl >= min_child_weight)
    gain[~valid] = -np.inf
    best = int(np.argmax(gain))
    if gain.flat[best] <= 1e-12:
        return None
    f, c = np.unravel_index(best, gain.shape)
    return int(f), 0.5 * (xs[f, c] + xs[f, c + 1])


def shortcut_case(name, request):
    """(X, labels, rounds): the desk fleet's frozen training features, whose trees are
    stumps, or a random 300 x 20 matrix, as drawn or rounded to one decimal."""
    if name == "desk":
        train = request.getfixturevalue("default_fleet")[0]
        return extract_features(request.getfixturevalue("pretrain_run")["params"], train), train.labels, 200
    rng = np.random.default_rng(30)
    X = rng.normal(size=(300, 20))
    if name == "random":
        return X, (rng.random(300) < 0.4).astype(np.float64), 40
    X = np.round(X, 1)
    return X, (X[:, 0] + X[:, 1] > 0.3).astype(np.float64), 40


class TestPureNodeShortcut:
    def test_pure_node_returns_before_it_reads_the_blocks(self):
        g, h, idx = np.full(10, 0.3), np.full(10, 0.21), np.arange(2, 9)
        assert downstream._best_split(None, None, g, h, idx, 1.0, 1e-6) is None
        with pytest.raises(AttributeError):  # at reg_lambda 0 the search runs, on no blocks
            downstream._best_split(None, None, g, h, idx, 0.0, 1e-6)

    @pytest.mark.parametrize("min_child_weight", [1e-6, 5.0])
    @pytest.mark.parametrize("reg_lambda", [0.0, 1.0])
    @pytest.mark.parametrize("name", ["desk", "random", "rounded"])
    def test_matches_the_unshortened_search_bytes(self, request, monkeypatch, name, reg_lambda,
                                                  min_child_weight):
        X, y, rounds = shortcut_case(name, request)
        cfg = GbdtConfig(rounds=rounds, reg_lambda=reg_lambda, min_child_weight=min_child_weight)
        grown = _saved_bytes(train_gbdt(X, y, cfg))
        monkeypatch.setattr(downstream, "_best_split", filtered_best_split)
        assert grown == _saved_bytes(train_gbdt(X, y, cfg))

    @pytest.mark.parametrize("name", ["desk", "rounded"])
    def test_pure_nodes_are_searched_for_nothing(self, request, monkeypatch, name):
        # the shortcut's cases: nodes whose rows share one (g, h) pair, where the search finds
        # no cut, and there are some of them in the matrices above
        X, y, rounds = shortcut_case(name, request)
        pure = []

        def spy(sorted_rows, sorted_values, g, h, idx, lam, min_child_weight):
            split = filtered_best_split(sorted_rows, sorted_values, g, h, idx, lam, min_child_weight)
            if len(set(zip(g[idx], h[idx]))) == 1:
                pure.append(split)
            return split

        monkeypatch.setattr(downstream, "_best_split", spy)
        train_gbdt(X, y, GbdtConfig(rounds=rounds))
        assert pure and not any(pure)


def _document_proba(doc, X):
    """Fault probability of each row of X by the trees of a saved classifier document.

    Each row walks each tree from the root, left where its feature value is
    at most the threshold, and adds the shrunk leaf weight to the base score.
    """
    shrinkage = doc["config"]["shrinkage"]
    scores = []
    for x in X:
        score = doc["base_score"]
        for node in doc["trees"]:
            while "weight" not in node:
                node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
            score += shrinkage * node["weight"]
        scores.append(score)
    z = np.array(scores)
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))


class TestSavedClassifier:
    def test_document_predicts_like_the_model(self, tmp_path):
        X, y = blobs(n=25, seed=11)
        mdl = train_gbdt(X, y, GbdtConfig(rounds=15))
        path = tmp_path / "gbdt.json"
        save_gbdt(mdl, path)
        doc = json.loads(path.read_text())
        assert len(doc["trees"]) == doc["config"]["rounds"] == 15
        np.testing.assert_array_equal(_document_proba(doc, X), predict_proba_batch(mdl, X))


@pytest.fixture(scope="module")
def setup():
    cfg = model.ModelConfig(D=3, H=16, L=1, A=2, FF=32, M_max=17, K=2)
    params = model.init_params(cfg, SeededRng(1, ("init",)))
    fleet = dataio.synth_fleet(
        dataio.FleetConfig(n_vehicles=4, snippets_per_vehicle=2), 13, 16)
    stats = dataio.fit_norm(fleet)
    return cfg, params, dataio.apply_norm(fleet, stats)


class TestExtractFeatures:

    def test_shapes_and_metadata_fusion(self, setup):
        cfg, params, ds = setup
        feats = extract_features(params, ds)
        assert feats.shape == (len(ds), cfg.H + cfg.K)
        np.testing.assert_array_equal(feats[:, cfg.H:], ds.meta)
        assert feats.dtype == np.float64

    def test_float32_encoding_matches_the_float64_oracle(self, setup):
        # the features are encode_batch on float32 copies of the weights and
        # channels, bit for bit, and float32 rounding away from float64
        cfg, params, ds = setup
        feats = extract_features(params, ds)[:, :cfg.H]
        work = model.float32_copy(params)
        assert {a.dtype for a in work.arrays.values()} == {np.dtype(np.float32)}
        np.testing.assert_array_equal(
            feats, model.encode_batch(ds.channels.astype(np.float32), work, cfg))
        np.testing.assert_allclose(feats, model.encode_batch(ds.channels, params, cfg),
                                   rtol=0, atol=1e-5)

    def test_pretrained_desk_features_stay_near_float64(self, pretrain_run, default_fleet):
        params, val = pretrain_run["params"], default_fleet[1]
        feats = extract_features(params, val)[:, :params.cfg.H]
        np.testing.assert_allclose(feats, model.encode_batch(val.channels, params, params.cfg),
                                   rtol=0, atol=1e-5)

    def test_batch_size_does_not_change_values(self, setup, monkeypatch):
        _, params, ds = setup
        monkeypatch.setattr(downstream, "MICRO_BATCH", 3)
        a = extract_features(params, ds)
        monkeypatch.setattr(downstream, "MICRO_BATCH", 64)
        np.testing.assert_allclose(a, extract_features(params, ds), atol=1e-12)

    def test_meta_dimension_checked(self, setup):
        cfg, params, ds = setup
        import dataclasses
        bad_params = model.ModelParams(dataclasses.replace(cfg, K=5), params.arrays)
        with pytest.raises(ValueError, match="metadata"):
            extract_features(bad_params, ds)
