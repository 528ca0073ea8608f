import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rumourlens import classify
from rumourlens.classify import (
    CLASSES,
    ForestConfig,
    RandomForestModel,
    Tree,
    _best_splits,
    _gini,
    build_matrix,
    compute_medians,
    cross_validate,
    evaluate,
    fit_forest,
    metrics_from_confusion,
    model_from_json,
    model_to_json,
    oversample,
    split_train_test,
    stratified_folds,
)
from rumourlens.errors import FeatureMismatch, SingleClass, TooFewSamples

RUMOUR, NON_RUMOUR = CLASSES.index("rumour"), CLASSES.index("non-rumour")


def labelled(*runs):
    """Class vector from (class, count) runs."""
    return np.array([cls for cls, n in runs for _ in range(n)], dtype=np.int64)


def column(values):
    """One-feature matrix from a list of values (None = absent)."""
    return np.array(values, dtype=np.float64).reshape(-1, 1)


def blob_data(n_per_class=100, distance=6.0, seed=0, d=2):
    """Two unit-variance blobs `distance` apart along every axis."""
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(cls * distance, 1.0, size=(n_per_class, d)) for cls in range(2)])
    y = np.repeat(np.arange(2), n_per_class)
    return X, y, [f"f{j}" for j in range(d)]


class TestSplit:
    def test_stratified_80_20(self):
        y = labelled((RUMOUR, 50), (NON_RUMOUR, 50))
        train, test = split_train_test(y, ratio=0.8, seed=1)
        assert len(train) == 80 and len(test) == 20
        assert np.count_nonzero(y[test] == RUMOUR) == 10
        assert np.count_nonzero(y[train] == RUMOUR) == 40

    def test_deterministic(self):
        _, y, _ = blob_data(20)
        a = split_train_test(y, seed=7)
        b = split_train_test(y, seed=7)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_heavy_imbalance_keeps_both_classes_in_test(self):
        # 4 non-rumour vs 229 rumour sources
        y = labelled((RUMOUR, 229), (NON_RUMOUR, 4))
        train, test = split_train_test(y, ratio=0.8, seed=3)
        assert set(y[test].tolist()) == {RUMOUR, NON_RUMOUR}
        assert len(train) + len(test) == 233

    def test_disjoint(self):
        _, y, _ = blob_data(25)
        train, test = split_train_test(y, seed=2)
        assert not set(train.tolist()) & set(test.tolist())

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            split_train_test(labelled((RUMOUR, 1), (NON_RUMOUR, 1)))


class TestOversample:
    def test_40_10_becomes_40_40(self):
        y = labelled((RUMOUR, 40), (NON_RUMOUR, 10))
        balanced = oversample(y, seed=5)
        assert np.bincount(y[balanced]).tolist() == [40, 40]
        # every row once, in order, then duplicates of existing minority rows
        assert balanced[:50].tolist() == list(range(50))
        assert (y[balanced[50:]] == NON_RUMOUR).all()

    def test_balanced_unchanged(self):
        y = labelled((RUMOUR, 5), (NON_RUMOUR, 5))
        assert oversample(y, seed=1).tolist() == list(range(10))

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            oversample(labelled((RUMOUR, 1)))


class TestForest:
    def test_perfectly_separable_training_accuracy(self):
        X = column([-1.0 - i for i in range(10)] + [1.0 + i for i in range(10)])
        y = labelled((NON_RUMOUR, 10), (RUMOUR, 10))
        model = fit_forest(X, y, ["x"], ForestConfig(n_trees=20), seed=0)
        metrics = evaluate(model, X, y)
        assert metrics.accuracy == 1.0

    def test_blob_holdout_accuracy(self):
        # pinned experiment: this seed yields perfect held-out accuracy
        X, y, names = blob_data(100, distance=6.0, seed=12345)
        train, test = split_train_test(y, ratio=0.8, seed=12345)
        balanced = train[oversample(y[train], seed=12345)]
        model = fit_forest(X[balanced], y[balanced], names, seed=12345)
        metrics = evaluate(model, X[test], y[test])
        assert metrics.accuracy >= 0.95
        assert metrics.accuracy == pytest.approx(1.0)

    def test_determinism_same_seed_identical_json(self):
        X, y, names = blob_data(30, seed=9)
        a = model_to_json(fit_forest(X, y, names, seed=4))
        b = model_to_json(fit_forest(X, y, names, seed=4))
        assert a == b

    def test_different_seed_different_model(self):
        X, y, names = blob_data(30, seed=9)
        assert model_to_json(fit_forest(X, y, names, seed=4)) != model_to_json(
            fit_forest(X, y, names, seed=5)
        )

    def test_single_tree_forest_matches_tree(self):
        X, y, names = blob_data(30, seed=2)
        model = fit_forest(X, y, names, ForestConfig(n_trees=1), seed=1)
        assert np.array_equal(model.predict_proba(X), model.trees[0].predict_prob(X))

    def test_degenerate_identical_rows_mixed_labels(self):
        X = column([1.0] * 8)
        y = np.arange(8) % 2
        with pytest.warns(UserWarning, match="unsplittable"):
            model = fit_forest(X, y, ["x"], ForestConfig(n_trees=3), seed=0)
        assert set(model.predict(X).tolist()) <= {0, 1}

    def test_feature_mismatch(self):
        X, y, names = blob_data(10, seed=3)
        model = fit_forest(X, y, names, ForestConfig(n_trees=2), seed=0)
        with pytest.raises(FeatureMismatch):
            model.predict_proba(np.zeros((2, 5)))
        with pytest.raises(FeatureMismatch):
            evaluate(model, np.zeros((2, 5)), np.zeros(2, dtype=np.int64))

    def test_serialization_round_trip(self):
        X, y, names = blob_data(20, seed=6)
        model = fit_forest(X, y, names, ForestConfig(n_trees=5), seed=8)
        reloaded = model_from_json(model_to_json(model))
        assert np.array_equal(model.predict_proba(X), reloaded.predict_proba(X))
        assert model_to_json(reloaded) == model_to_json(model)
        assert json.loads(model_to_json(model))["medians"] == model.medians

    def test_tree_structural_invariants(self):
        # every node reachable exactly once, finite thresholds at splits,
        # positive class counts at leaves
        X, y, names = blob_data(40, seed=14, d=3)
        model = fit_forest(X, y, names, ForestConfig(n_trees=10), seed=2)
        for tree in model.trees:
            n = len(tree.feature)
            seen = set()
            stack = [0]
            while stack:
                node = stack.pop()
                assert node not in seen
                seen.add(node)
                if tree.feature[node] == -1:
                    assert tree.counts[node].sum() > 0
                else:
                    assert np.isfinite(tree.threshold[node])
                    stack.extend((int(tree.left[node]), int(tree.right[node])))
            assert seen == set(range(n))


# ---------------------------------------------------------------------------
# oracles: the scalar split search and per-row tree walk that the array
# versions in `classify` replaced


def scalar_cuts(X, y, idx, feature_ids):
    """(decrease, feature, threshold) of every cut, features in the given
    order and each feature's cuts ascending, one cut at a time."""
    y_node = y[idx]
    parent_impurity = _gini(np.bincount(y_node, minlength=2))
    n = len(idx)
    for f in feature_ids:
        col = X[idx, f]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        sorted_y = y_node[order]
        distinct = np.nonzero(sorted_col[1:] > sorted_col[:-1])[0]
        if distinct.size == 0:
            continue
        ones = np.cumsum(sorted_y)
        total_ones = ones[-1]
        for cut in distinct:
            n_left = cut + 1
            n_right = n - n_left
            left_ones = ones[cut]
            left_counts = np.array([n_left - left_ones, left_ones], dtype=np.float64)
            right_counts = np.array(
                [n_right - (total_ones - left_ones), total_ones - left_ones],
                dtype=np.float64,
            )
            decrease = parent_impurity - (
                n_left * _gini(left_counts) + n_right * _gini(right_counts)
            ) / n
            thr = (sorted_col[cut] + sorted_col[cut + 1]) / 2.0
            yield decrease, int(f), float(thr)


def scalar_best_split(X, y, idx, feature_ids):
    best = (0.0, -1, 0.0)
    for cut in scalar_cuts(X, y, idx, feature_ids):
        if cut[0] > best[0] + 1e-15:
            best = cut
    return best


def scalar_predict_prob(tree, X):
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        node = 0
        while tree.feature[node] != -1:
            if row[tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        c = tree.counts[node]
        out[i] = float(c[1] / c.sum())
    return out


def random_node(seed):
    """(X, y, idx, feature_ids) of one node: 2-200 rows with normal,
    few-valued (ties), constant, duplicated and mirrored columns,
    sometimes duplicated rows, a bootstrap or subset row index and a
    sorted feature subset."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 201)), int(rng.integers(1, 10))
    cols = []
    for j in range(d):
        kind = rng.integers(0, 5) if j else rng.integers(0, 3)
        if kind == 0:
            cols.append(rng.normal(size=n))
        elif kind == 1:
            cols.append(rng.integers(0, 4, size=n).astype(float))
        elif kind == 2:
            cols.append(np.full(n, 2.5))
        elif kind == 3:
            cols.append(cols[rng.integers(0, j)].copy())
        else:
            cols.append(-cols[rng.integers(0, j)])
    X = np.column_stack(cols)
    if rng.random() < 0.3:
        X = X[rng.integers(0, max(1, n // 3), size=n)]
    y = (rng.random(n) < rng.random()).astype(np.int64)
    if rng.random() < 0.5:
        idx = rng.integers(0, n, size=n)
    else:
        idx = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
    feature_ids = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
    return X, y, idx, feature_ids


def padded(X, y):
    """`X` and `y` with the padding row (+inf, class 0) the batched search
    expects at index len(X)."""
    return np.vstack([X, np.full(X.shape[1], np.inf)]), np.append(y, 0)


def array_best_split(X, y, idx, feature_ids):
    """The batched search on a batch of one node."""
    Xp, yp = padded(X, y)
    parent = [_gini(np.bincount(y[idx], minlength=2))]
    decrease, feature, threshold = _best_splits(
        Xp, yp, idx[None, :], np.array([len(idx)]), np.asarray(feature_ids)[None, :], np.array(parent)
    )
    return float(decrease[0]), int(feature[0]), float(threshold[0])


def scalar_best_splits(X, y, rows, n, feature_ids, parent_impurity):
    """`_best_splits` one node at a time through the scalar oracle."""
    found = [scalar_best_split(X, y, rows[k, : n[k]], feature_ids[k]) for k in range(len(rows))]
    decrease, feature, threshold = (np.array(column) for column in zip(*found))
    return decrease, feature, threshold


# np.dot(p, p) may round p0*p0 + p1*p1 once (a fused multiply-add) where
# the array form rounds twice, so decreases may differ in the last bits of
# that sum, which lies in [0.5, 1]: 4 ulp there is 4 * 2**-53
DECREASE_TOL = 4 * np.spacing(0.5)


class TestSplitSearchOracle:
    def test_random_nodes_match_scalar_search(self):
        splits = 0
        for seed in range(1000):
            X, y, idx, feature_ids = random_node(seed)
            want = scalar_best_split(X, y, idx, feature_ids)
            got = array_best_split(X, y, idx, feature_ids)
            assert got[1:] == want[1:], seed
            assert abs(got[0] - want[0]) <= DECREASE_TOL, seed
            splits += want[1] != -1
        assert 500 < splits < 1000  # both outcomes are exercised

    def test_ragged_batch_matches_scalar_search(self):
        # 200 nodes of 2-200 rows in one call: each node's rows sit in a
        # block of its own in one stacked matrix, its columns cycled to a
        # common width of 9, and every node scans 4 of them; the shorter
        # nodes are padded out to the longest
        rng = np.random.default_rng(11)
        blocks, labels, rows, feature_ids = [], [], [], []
        offset = 0
        for seed in range(200):
            X, y, idx, _ = random_node(seed)
            blocks.append(X[:, np.arange(9) % X.shape[1]])
            labels.append(y)
            rows.append(idx + offset)
            feature_ids.append(np.sort(rng.choice(9, size=4, replace=False)))
            offset += len(X)
        X, y = np.vstack(blocks), np.concatenate(labels)
        Xp, yp = padded(X, y)
        n = np.array([len(idx) for idx in rows])
        block = np.full((len(rows), n.max()), len(X))
        for k, idx in enumerate(rows):
            block[k, : n[k]] = idx
        parent = np.array([_gini(np.bincount(y[idx], minlength=2)) for idx in rows])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # padded cells raise no floating-point warning
            got = _best_splits(Xp, yp, block, n, np.array(feature_ids), parent)
        assert (n < n.max()).sum() > 190  # most nodes are padded
        outcomes = set()
        for k, idx in enumerate(rows):
            want = scalar_best_split(X, y, idx, feature_ids[k])
            assert (int(got[1][k]), float(got[2][k])) == want[1:], k
            assert abs(got[0][k] - want[0]) <= DECREASE_TOL, k
            # a padded cell never wins: every threshold lies inside the
            # node's own values
            if want[1] != -1:
                assert X[idx, want[1]].min() <= got[2][k] <= X[idx, want[1]].max(), k
            outcomes.add(want[1] != -1)
        assert outcomes == {True, False}

    def test_record_chain_is_not_argmax(self):
        # found by a seeded search over random_node: a later cut (feature 5)
        # beats the first record (feature 0) by 4 ulp, under the 1e-15
        # margin, so argmax would take it and the record chain does not
        X, y, idx, feature_ids = random_node(4842)
        cuts = list(scalar_cuts(X, y, idx, feature_ids))
        want = scalar_best_split(X, y, idx, feature_ids)
        argmax = max(cuts, key=lambda cut: cut[0])
        assert argmax[1:] != want[1:] and 0.0 < argmax[0] - want[0] < 1e-15
        assert array_best_split(X, y, idx, feature_ids)[1:] == want[1:]

    def test_forests_match_scalar_oracle(self, monkeypatch):
        # the last dataset has 6 of 9 columns constant, so a node's 3
        # sampled features often admit no cut and the full-scan fallback runs
        fallbacks = []

        def oracle_splits(X, y, rows, n, feature_ids, parent_impurity):
            fallbacks.append(feature_ids.shape[1] == 6)
            return scalar_best_splits(X, y, rows, n, feature_ids, parent_impurity)

        datasets = [random_node(seed)[:2] for seed in range(100, 104)]
        rng = np.random.default_rng(7)
        X = np.hstack([rng.normal(size=(60, 3)), np.ones((60, 6))])
        datasets.append((X, (X[:, 0] + 0.5 * rng.normal(size=60) > 0).astype(np.int64)))
        fitted = {}
        for variant in ("array", "scalar"):
            if variant == "scalar":
                monkeypatch.setattr(classify, "_best_splits", oracle_splits)
            fitted[variant] = []
            for seed, (X, y) in enumerate(datasets):
                y = y.copy()
                y[:2] = (0, 1)
                names = [f"f{j}" for j in range(X.shape[1])]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # identical rows, mixed labels
                    model = fit_forest(X, y, names, ForestConfig(n_trees=8), seed=seed)
                fitted[variant].append((model, X))
        assert any(fallbacks)
        for (got, X), (want, _) in zip(fitted["array"], fitted["scalar"]):
            assert model_to_json(got) == model_to_json(want)
            for tree in got.trees:
                # rows on both sides of every threshold, and on it
                rows = np.vstack([X, np.repeat(tree.threshold[:, None], X.shape[1], axis=1)])
                assert tree.predict_prob(rows).tobytes() == scalar_predict_prob(tree, rows).tobytes()


# ---------------------------------------------------------------------------
# oracle: the recursive one-tree-at-a-time builder that lockstep growth
# replaced, kept whole


class OracleTreeBuilder:
    def __init__(self, X, y, config, rng):
        self.XT = np.ascontiguousarray(X.T)
        self.y = y
        self.config = config
        self.rng = rng
        self.feature, self.threshold, self.left, self.right, self.counts = [], [], [], [], []
        self.warned_degenerate = False

    def build(self):
        self._grow(np.arange(self.XT.shape[1]), depth=0)
        return Tree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            counts=np.array(self.counts, dtype=np.float64),
        )

    def _new_node(self, idx):
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.counts.append(np.bincount(self.y[idx], minlength=2).astype(np.float64))
        return node

    def _best_split(self, idx, feature_ids):
        y_node = self.y[idx]
        parent_impurity = _gini(np.bincount(y_node, minlength=2))
        n = len(idx)
        block = self.XT[feature_ids[:, None], idx]
        order = np.argsort(block, axis=1, kind="stable")
        sorted_x = np.take_along_axis(block, order, axis=1)
        ones = np.cumsum(y_node[order], axis=1)
        left_ones = ones[:, :-1]
        right_ones = ones[:, -1:] - left_ones
        n_left = np.arange(1.0, n)
        n_right = n - n_left
        p0, p1 = (n_left - left_ones) / n_left, left_ones / n_left
        gini_left = 1.0 - (p0 * p0 + p1 * p1)
        p0, p1 = (n_right - right_ones) / n_right, right_ones / n_right
        gini_right = 1.0 - (p0 * p0 + p1 * p1)
        decrease = parent_impurity - (n_left * gini_left + n_right * gini_right) / n
        decrease[~(sorted_x[:, 1:] > sorted_x[:, :-1])] = -np.inf
        flat = decrease.ravel()
        best, at, start = 0.0, -1, 0
        while start < flat.size:
            above = flat[start:] > best + 1e-15
            first = int(above.argmax())
            if not above[first]:
                break
            at = start + first
            best, start = float(flat[at]), at + 1
        if at == -1:
            return (0.0, -1, 0.0)
        row, cut = divmod(at, n - 1)
        thr = (sorted_x[row, cut] + sorted_x[row, cut + 1]) / 2.0
        return (best, int(feature_ids[row]), float(thr))

    def _grow(self, idx, depth):
        node = self._new_node(idx)
        y_node = self.y[idx]
        if (
            len(idx) < self.config.min_samples_split
            or (self.config.max_depth is not None and depth >= self.config.max_depth)
            or np.all(y_node == y_node[0])
        ):
            return node
        d = self.XT.shape[0]
        m = self.config.features_per_split(d)
        sampled = np.sort(self.rng.choice(d, size=m, replace=False))
        decrease, f, thr = self._best_split(idx, sampled)
        if f == -1 and m < d:
            rest = np.setdiff1d(np.arange(d), sampled)
            decrease, f, thr = self._best_split(idx, rest)
        if f == -1:
            if not self.warned_degenerate:
                warnings.warn(
                    "unsplittable node with mixed labels (identical rows); majority leaf used",
                    stacklevel=2,
                )
                self.warned_degenerate = True
            return node
        mask = self.XT[f, idx] <= thr
        self.feature[node] = int(f)
        self.threshold[node] = float(thr)
        self.left[node] = self._grow(idx[mask], depth + 1)
        self.right[node] = self._grow(idx[~mask], depth + 1)
        return node


def oracle_fit_forest(X, y, feature_names, config, seed):
    medians = compute_medians(X)
    X = build_matrix(X, medians)
    trees = []
    for tree_idx in range(config.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tree_idx,)))
        boot = rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(OracleTreeBuilder(X[boot], y[boot], config, rng).build())
    return RandomForestModel(
        trees=trees,
        config=config,
        seed=seed,
        feature_names=tuple(feature_names),
        medians={name: float(m) for name, m in zip(feature_names, medians)},
    )


def fit_recording_warnings(fit, X, y, config, seed):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit(X, y, [f"f{j}" for j in range(X.shape[1])], config, seed)
    return model_to_json(model), [str(w.message) for w in caught]


def oracle_datasets():
    """(name, X, y): random nodes of 2-200 rows with ties, constant and
    duplicated columns (and NaN cells to impute), blobs whose trees grow
    to very different depths, and identical rows with mixed labels."""
    for seed in range(200, 212):
        X, y = random_node(seed)[:2]
        X = X.copy()
        X[np.random.default_rng(seed).random(X.shape) < 0.05] = np.nan
        y = y.copy()
        y[:2] = (0, 1)
        yield f"node{seed}", X, y
    rng = np.random.default_rng(3)
    # one clean axis and noise: trees of a few nodes beside trees of dozens
    X = np.hstack([rng.normal(size=(90, 2)), rng.integers(0, 3, size=(90, 4)).astype(float)])
    y = ((X[:, 0] > 0) ^ (rng.random(90) < 0.25)).astype(np.int64)
    yield "noisy", X, y
    # one clean axis with two rows on the wrong side: a tree is a stump
    # when its bootstrap misses both and grows deeper to isolate either
    X = np.hstack([np.r_[-1 - rng.random(20), 1 + rng.random(20)][:, None], rng.normal(size=(40, 3))])
    y = np.repeat(np.arange(2), 20)
    y[[0, 25]] = (1, 0)
    yield "mislabelled", X, y
    yield "identical", np.ones((10, 3)), np.arange(10) % 2
    yield "no features", np.zeros((6, 0)), np.arange(6) % 2
    X = np.vstack([np.ones((6, 4)), rng.normal(size=(14, 4))])
    y = np.r_[np.arange(6) % 2, rng.integers(0, 2, size=14)]
    y[6:8] = (0, 1)
    yield "some identical", X, y


ORACLE_CONFIGS = [
    ForestConfig(n_trees=37, max_features=max_features, min_samples_split=mss, max_depth=depth)
    for max_features in ("sqrt", "all")
    for mss, depth in ((2, None), (3, 1), (2, 2), (5, 3), (4, None))
] + [ForestConfig(n_trees=1), ForestConfig(n_trees=1, max_features="all", max_depth=2)]


class TestLockstepGrowth:
    @pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=str)
    def test_models_match_recursive_builder(self, config):
        unsplittable = 0
        for seed, (name, X, y) in enumerate(oracle_datasets()):
            want, want_warnings = fit_recording_warnings(oracle_fit_forest, X, y, config, seed)
            got, got_warnings = fit_recording_warnings(
                lambda *a: fit_forest(*a[:3], config=a[3], seed=a[4]), X, y, config, seed
            )
            assert got == want, name
            # one warning per tree that met an unsplittable node
            assert got_warnings == want_warnings, name
            unsplittable += len(got_warnings)
        assert unsplittable > 0

    def test_tree_depths_differ(self):
        # lockstep steps go on while the deepest tree still splits
        X, y = next((X, y) for name, X, y in oracle_datasets() if name == "mislabelled")
        model = fit_forest(X, y, list("abcd"), ForestConfig(n_trees=37), seed=5)
        depths = []
        for tree in model.trees:
            depth = np.zeros(len(tree.feature), dtype=np.int64)
            for node in np.flatnonzero(tree.feature != -1):  # parents precede children
                depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
            depths.append(int(depth.max()))
        assert min(depths) == 1 and max(depths) >= 5

    @pytest.mark.parametrize("cells", [1, 300])
    def test_block_cap_does_not_change_models(self, monkeypatch, cells):
        # a cap below one node's block searches every node alone; 300
        # cells packs a few nodes per call
        X, y, names = blob_data(40, distance=1.0, seed=4, d=9)
        want = model_to_json(fit_forest(X, y, names, ForestConfig(n_trees=20), seed=2))
        monkeypatch.setattr(classify, "SPLIT_BLOCK_CELLS", cells)
        assert model_to_json(fit_forest(X, y, names, ForestConfig(n_trees=20), seed=2)) == want


class TestTreeValue:
    def test_internal_nodes_without_counts(self):
        # hand-built trees record counts at leaves only
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = Tree(
                feature=np.array([0, -1, -1]),
                threshold=np.array([0.5, 0.0, 0.0]),
                left=np.array([1, -1, -1]),
                right=np.array([2, -1, -1]),
                counts=np.array([[0, 0], [3, 1], [0, 2]], dtype=np.float64),
            )
            assert tree.value.tolist() == [0.0, 0.25, 1.0]
            assert tree.predict_prob(column([0.5, 0.6, np.nan])).tolist() == [0.25, 1.0, 1.0]
            assert tree.predict_prob(np.zeros((0, 1))).shape == (0,)


def dict_medians(rows: list[dict], feature_names) -> dict[str, float]:
    """Reference: the per-row dict formula the columnar code replaced."""
    medians = {}
    for name in feature_names:
        defined = sorted(r[name] for r in rows if r.get(name) is not None)
        if not defined:
            medians[name] = 0.0
        else:
            mid = len(defined) // 2
            medians[name] = (
                defined[mid] if len(defined) % 2 else (defined[mid - 1] + defined[mid]) / 2.0
            )
    return medians


def dict_matrix(rows: list[dict], feature_names, medians: dict[str, float]) -> np.ndarray:
    """Reference: the per-cell imputation loop the columnar code replaced."""
    X = np.empty((len(rows), len(feature_names)))
    for i, row in enumerate(rows):
        for j, name in enumerate(feature_names):
            v = row.get(name)
            X[i, j] = medians[name] if v is None else v
    return X


class TestImputation:
    def test_median_from_defined_values_only(self):
        X = np.array([[1.0, np.nan], [3.0, 10.0], [np.nan, 20.0]])
        assert compute_medians(X).tolist() == [2.0, 15.0]

    def test_all_absent_defaults_to_zero(self):
        assert compute_medians(column([None])).tolist() == [0.0]

    def test_imputed_matrix(self):
        X = build_matrix(column([None, 1.5]), [7.5])
        assert X[:, 0].tolist() == [7.5, 1.5]

    @pytest.mark.parametrize("seed", range(20))
    def test_bitwise_equal_to_dict_formulas(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(0, 40)), int(rng.integers(1, 6))
        # few distinct values (ties, signed zeros) and long-mantissa values
        pool = [0.0, -0.0, 1.0, 2.5, -3.25, 1e-300, 7.0 / 3.0]
        X = np.where(
            rng.random((n, d)) < 0.5,
            rng.choice(pool, size=(n, d)),
            rng.normal(0.0, 1e3, size=(n, d)),
        )
        X[rng.random((n, d)) < rng.random()] = np.nan
        names = [f"f{j}" for j in range(d)]
        rows = [
            {name: (None if math.isnan(v) else v) for name, v in zip(names, row)}
            for row in X.tolist()
        ]
        expected = dict_medians(rows, names)
        medians = compute_medians(X)
        # hex() tells signed zeros apart
        assert [m.hex() for m in medians.tolist()] == [expected[n].hex() for n in names]
        got = build_matrix(X, medians)
        assert got.tobytes() == dict_matrix(rows, names, expected).tobytes()


class TestCrossValidate:
    def test_fold_shapes(self):
        _, y, _ = blob_data(50, seed=1)
        folds = stratified_folds(y, k=10, seed=0)
        assert len(folds) == 10
        assert sorted(i for f in folds for i in f.tolist()) == list(range(100))
        assert all(len(f) == 10 for f in folds)

    def test_fold_determinism(self):
        _, y, _ = blob_data(30, seed=1)
        a, b = stratified_folds(y, 10, seed=3), stratified_folds(y, 10, seed=3)
        assert [f.tolist() for f in a] == [f.tolist() for f in b]

    def test_k_reduced_with_warning(self):
        y = labelled((RUMOUR, 3), (NON_RUMOUR, 20))
        with pytest.warns(UserWarning, match="reducing folds"):
            folds = stratified_folds(y, k=10, seed=0)
        assert len(folds) == 3

    def test_no_leakage_even_as_duplicate(self):
        # oversampling happens inside the fold's training side only, so
        # no test-fold row may appear in it, not even as a copy
        _, y, _ = blob_data(15, seed=4)
        folds = stratified_folds(y, k=5, seed=2)
        for fold_idx, test_idx in enumerate(folds):
            fold_train = np.setdiff1d(np.arange(len(y)), test_idx)
            balanced = fold_train[oversample(y[fold_train], seed=fold_idx)]
            assert not set(test_idx.tolist()) & set(balanced.tolist())

    def test_cv_runs_and_reports(self):
        X, y, names = blob_data(20, seed=5)
        results = cross_validate(X, y, names, k=4, config=ForestConfig(n_trees=10), seed=1)
        assert len(results) == 4
        assert all(0.0 <= m.accuracy <= 1.0 for m in results)


class TestMetrics:
    def test_perfect(self):
        m = metrics_from_confusion([[10, 0], [0, 10]])
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_hand_computed_confusion(self):
        # [[8,2],[1,9]]: P0=8/9, R0=8/10, P1=9/11, R1=9/10, equal support
        m = metrics_from_confusion([[8, 2], [1, 9]], averaging="weighted")
        assert m.accuracy == pytest.approx(0.85)
        expect_p = (Fraction(8, 9) + Fraction(9, 11)) / 2
        expect_r = Fraction(85, 100)
        expect_f = (Fraction(16, 19) + Fraction(6, 7)) / 2
        assert m.precision == pytest.approx(float(expect_p), abs=1e-12)  # 0.8535...
        assert m.recall == pytest.approx(float(expect_r), abs=1e-12)  # 0.85
        assert m.f1 == pytest.approx(float(expect_f), abs=1e-12)  # 0.8496...

    def test_binary_and_macro_averaging(self):
        cm = [[8, 2], [1, 9]]
        binary = metrics_from_confusion(cm, averaging="binary")
        assert binary.precision == pytest.approx(9 / 11)
        assert binary.recall == pytest.approx(9 / 10)
        macro = metrics_from_confusion(cm, averaging="macro")
        assert macro.recall == pytest.approx((0.8 + 0.9) / 2)

    def test_zero_division_precision(self):
        m = metrics_from_confusion([[5, 0], [5, 0]])
        assert m.accuracy == 0.5
        assert 0.0 <= m.precision <= 1.0

    def test_bounds_and_trace(self):
        m = metrics_from_confusion([[3, 4], [2, 6]])
        assert m.accuracy == pytest.approx(9 / 15)
        for value in (m.accuracy, m.precision, m.recall, m.f1):
            assert 0.0 <= value <= 1.0
