import dataclasses
import itertools
import json
import linecache
import math
import pickle
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rumourlens import classify, pipeline, report
from rumourlens.config import RunConfig
from rumourlens.classify import (
    CLASSES,
    ForestConfig,
    RandomForestModel,
    Tree,
    _best_splits,
    _partition,
    _rank_codes,
    build_matrix,
    compute_medians,
    cross_validate,
    evaluate,
    fit_forest,
    metrics_from_confusion,
    model_from_json,
    model_to_json,
    oversample,
    pack_forest,
    split_train_test,
    stratified_folds,
)
from rumourlens.errors import FeatureMismatch, NonFiniteValue, ParseError, SingleClass, TooFewSamples
from rumourlens.shapley import TreeShapExplainer
from tests.forests import forest_of, trees_of

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
        assert np.array_equal(model.predict_proba(X), trees_of(model.trees)[0].predict_prob(X))

    def test_degenerate_identical_rows_mixed_labels(self):
        X = column([1.0] * 8)
        y = np.arange(8) % 2
        with pytest.warns(UserWarning, match="unsplittable"):
            model = fit_forest(X, y, ["x"], ForestConfig(n_trees=3), seed=0)
        assert set(model.predict(X).tolist()) <= {0, 1}

    def test_unsplittable_warning_names_the_caller_of_fit_balanced(self):
        X = column([1.0] * 8)
        y = np.arange(8) % 2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            classify.fit_balanced(X, y, np.arange(8), ["x"], ForestConfig(n_trees=3), 0, 1)
        assert len(caught) == 3  # one per tree
        assert all(w.filename == __file__ for w in caught)

    def test_unsplittable_warning_names_the_caller_of_fit_forest(self):
        X = column([1.0] * 8)
        y = np.arange(8) % 2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit_forest(X, y, ["x"], ForestConfig(n_trees=1), seed=0)
        assert len(caught) == 1
        assert caught[0].filename == __file__
        assert "fit_forest(X, y" in linecache.getline(__file__, caught[0].lineno)

    def test_feature_mismatch(self):
        X, y, names = blob_data(10, seed=3)
        model = fit_forest(X, y, names, ForestConfig(n_trees=2), seed=0)
        with pytest.raises(FeatureMismatch):
            model.predict_proba(np.zeros((2, 5)))
        with pytest.raises(FeatureMismatch):
            evaluate(model, np.zeros((2, 5)), np.zeros(2, dtype=np.int64))

    @pytest.mark.parametrize(
        "cell, medians",
        [(np.inf, None), (-np.inf, None), (np.nan, [np.inf, 0.0]), (np.nan, [-np.inf, 0.0])],
        ids=["inf", "-inf", "inf median", "-inf median"],
    )
    def test_non_finite_matrix_rejected(self, cell, medians):
        X, y, names = blob_data(10, seed=3)
        X[4, 0] = cell
        with pytest.raises(NonFiniteValue, match="training row 4, feature 'f0'"):
            fit_forest(X, y, names, ForestConfig(n_trees=2), seed=0, medians=medians)

    def test_serialization_round_trip(self):
        X, y, names = blob_data(20, seed=6)
        model = fit_forest(X, y, names, ForestConfig(n_trees=5), seed=8)
        reloaded = model_from_json(model_to_json(model))
        assert np.array_equal(model.predict_proba(X), reloaded.predict_proba(X))
        assert model_to_json(reloaded) == model_to_json(model)
        assert json.loads(model_to_json(model))["medians"] == dict(zip(names, model.medians.tolist()))

    def test_pickle_and_model_file_give_back_the_fitted_table(self):
        # a worker process hands a model back pickled, and explain reads it
        # from its model file: both give back the fit's arrays, bit for bit
        X, y, names = blob_data(20, seed=6, d=3)
        X[3, 1] = np.nan
        model = fit_forest(X, y, names, ForestConfig(n_trees=7), seed=8)
        rows = model.impute(X)

        def form(array):
            return array.dtype, array.shape, array.tobytes()

        for copy in (pickle.loads(pickle.dumps(model)), model_from_json(model_to_json(model))):
            for f in dataclasses.fields(classify.Forest):
                assert form(getattr(copy.trees, f.name)) == form(getattr(model.trees, f.name)), f.name
            assert form(copy.medians) == form(model.medians)
            assert copy.predict_proba(rows).tobytes() == model.predict_proba(rows).tobytes()

    def test_tree_structural_invariants(self):
        # every node reachable exactly once, finite thresholds at splits,
        # positive class counts at leaves
        X, y, names = blob_data(40, seed=14, d=3)
        model = fit_forest(X, y, names, ForestConfig(n_trees=10), seed=2)
        for tree in trees_of(model.trees):
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


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.dot(p, p))


def elementwise_gini(counts: np.ndarray) -> float:
    """The Gini impurity in the form the array search computes it."""
    p0, p1 = counts / counts.sum()
    return float(1.0 - (p0 * p0 + p1 * p1))


def scalar_cuts(X, y, idx, feature_ids, gini=_gini):
    """(decrease, feature, threshold) of every cut, features in the given
    order and each feature's cuts ascending, one cut at a time, with
    every impurity in the form of `gini`."""
    y_node = y[idx]
    parent_impurity = gini(np.bincount(y_node, minlength=2))
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
                n_left * gini(left_counts) + n_right * gini(right_counts)
            ) / n
            thr = (sorted_col[cut] + sorted_col[cut + 1]) / 2.0
            yield decrease, int(f), float(thr)


def scalar_best_split(X, y, idx, feature_ids, gini=_gini):
    best = (0.0, -1, 0.0)
    for cut in scalar_cuts(X, y, idx, feature_ids, gini):
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


def array_best_split(X, y, idx, feature_ids):
    """The count search on a batch of one node."""
    decrease, feature, threshold = _best_splits(
        _rank_codes(X, y), idx, np.array([len(idx)]), np.asarray(feature_ids)[None, :]
    )
    return float(decrease[0]), int(feature[0]), float(threshold[0])


def scalar_best_splits(codes, rows, n, feature_ids):
    """`_best_splits` one node at a time through the scalar oracle, on
    the matrix and classes that the rank codes hold."""
    codes, values, offset, _ = codes
    X = values[offset + codes // 2]
    y = codes[:, 0] % 2
    nodes = np.split(rows, np.cumsum(n)[:-1])
    found = [scalar_best_split(X, y, idx, feature_ids[k]) for k, idx in enumerate(nodes)]
    decrease, feature, threshold = (np.array(column) for column in zip(*found))
    return decrease, feature, threshold


def edge_nodes():
    """(name, X, y, idx, feature_ids) of nodes at the edges of the rank
    encoding."""
    # the median of [0, 0, 10, 10] is 5, which no row holds until the
    # absent cells take it, so the rank table must include it
    X = np.array([0.0, 0.0, 10.0, 10.0, np.nan, np.nan])[:, None]
    yield "median no row holds", build_matrix(X, compute_medians(X)), np.array([0, 0, 1, 1, 0, 0]), np.arange(6), [0]
    rng = np.random.default_rng(5)
    for seed in range(6):
        X, y = random_node(seed)[:2]
        yield f"two rows {seed}", X, y, rng.choice(len(X), size=2, replace=False), np.arange(X.shape[1])
    # column 0 takes five values, but only 2.0 in the node
    X = np.column_stack([np.arange(40) % 5, rng.normal(size=40)]).astype(float)
    y = (X[:, 1] > 0).astype(np.int64)
    yield "constant in the node", X, y, np.flatnonzero(X[:, 0] == 2.0), [0, 1]
    yield "constant in the node only", X, y, np.flatnonzero(X[:, 0] == 2.0), [0]
    # -0.0 and 0.0 are one value; cuts on either side of them
    X = np.array([-0.0, 0.0, -0.0, 0.0, 1.0, -1.0, 0.0, -0.0, 2.0, -2.0])[:, None]
    y = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 0])
    yield "signed zeros", X, y, np.arange(10), [0]
    yield "signed zeros, right of the cut", X, 1 - (X[:, 0] <= -1.0).astype(np.int64), np.arange(10), [0]
    yield "signed zeros, left of the cut", X, (X[:, 0] >= 1.0).astype(np.int64), np.arange(10), [0]


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
        # common width of 9, and every node scans 4 of them; the nodes'
        # rows are concatenated, each node as long as it is
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
        n = np.array([len(idx) for idx in rows])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cell raises a floating-point warning
            got = _best_splits(_rank_codes(X, y), np.concatenate(rows), n, np.array(feature_ids))
        assert (n < n.max()).sum() > 190  # most nodes are shorter than the longest
        outcomes = set()
        for k, idx in enumerate(rows):
            want = scalar_best_split(X, y, idx, feature_ids[k])
            assert (int(got[1][k]), float(got[2][k])) == want[1:], k
            assert abs(got[0][k] - want[0]) <= DECREASE_TOL, k
            # every threshold lies inside the node's own values, not
            # between values that only other nodes hold
            if want[1] != -1:
                assert X[idx, want[1]].min() <= got[2][k] <= X[idx, want[1]].max(), k
            outcomes.add(want[1] != -1)
        assert outcomes == {True, False}

    def test_decreases_are_the_elementwise_form_bit_for_bit(self):
        # the node's own impurity and its sides' are all elementwise, so
        # every decrease is parent - (n_l * g_l + n_r * g_r) / n to the bit.
        # `fused_gini` rounds p1*p1 + p0*p0 as one fused multiply-add, as
        # `np.dot` does where BLAS uses one (x86-64 OpenBLAS); for (2, 1)
        # and many other class-count pairs that moves the last bit
        def fused_gini(counts):
            p0, p1 = counts / counts.sum()
            return float(1.0 - float(Fraction(float(p1)) ** 2 + Fraction(float(p0 * p0))))

        nodes = [random_node(seed) for seed in range(300)]
        nodes.append((np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 0]), np.arange(3), np.array([0])))
        differ = 0
        for X, y, idx, feature_ids in nodes:
            counts = np.bincount(y[idx], minlength=2).astype(np.float64)
            differ += elementwise_gini(counts) != fused_gini(counts)
            want = scalar_best_split(X, y, idx, feature_ids, elementwise_gini)
            got = array_best_split(X, y, idx, feature_ids)
            assert got[1:] == want[1:]
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert elementwise_gini(np.array([2.0, 1.0])) != fused_gini(np.array([2.0, 1.0]))
        assert differ > 10

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

    @pytest.mark.parametrize("case", [case[0] for case in edge_nodes()])
    def test_edge_nodes_match_scalar_search(self, case):
        X, y, idx, feature_ids = next(rest for name, *rest in edge_nodes() if name == case)
        want = scalar_best_split(X, y, idx, feature_ids)
        got = array_best_split(X, y, idx, feature_ids)
        assert got[1] == want[1]
        assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()  # signed zeros too
        assert abs(got[0] - want[0]) <= DECREASE_TOL
        if case == "median no row holds":
            assert got[1:] == (0, 7.5)  # between the median 5 and 10

    def test_all_features_match_scalar_search(self):
        # max_features = "all": every node scans every column
        for seed in range(300):
            X, y, idx, _ = random_node(seed)
            feature_ids = np.arange(X.shape[1])
            want = scalar_best_split(X, y, idx, feature_ids)
            got = array_best_split(X, y, idx, feature_ids)
            assert got[1:] == want[1:], seed
            assert abs(got[0] - want[0]) <= DECREASE_TOL, seed

    def test_forests_match_scalar_oracle(self, monkeypatch):
        # the last dataset has 6 of 9 columns constant, so a node's 3
        # sampled features often admit no cut and the full-scan fallback runs
        fallbacks = []

        def oracle_splits(codes, rows, n, feature_ids):
            fallbacks.append(feature_ids.shape[1] == 6)
            return scalar_best_splits(codes, rows, n, feature_ids)

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
            for tree in trees_of(got.trees):
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
        trees=forest_of(trees),
        config=config,
        seed=seed,
        feature_names=tuple(feature_names),
        medians=medians,
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
        for tree in trees_of(model.trees):
            depth = np.zeros(len(tree.feature), dtype=np.int64)
            for node in np.flatnonzero(tree.feature != -1):  # parents precede children
                depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
            depths.append(int(depth.max()))
        assert min(depths) == 1 and max(depths) >= 5

    @pytest.mark.parametrize("cells", [1, 300])
    def test_block_cap_does_not_change_models(self, monkeypatch, cells):
        # a cap below one node's cells searches every node alone; 300
        # cells packs a few nodes per call
        X, y, names = blob_data(40, distance=1.0, seed=4, d=9)
        want = model_to_json(fit_forest(X, y, names, ForestConfig(n_trees=20), seed=2))
        monkeypatch.setattr(classify, "SPLIT_BLOCK_CELLS", cells)
        assert model_to_json(fit_forest(X, y, names, ForestConfig(n_trees=20), seed=2)) == want


WIDE_SEEDS = [classify.derive_seed("wide", 1), 2**128 + 5]  # two and five entropy words


class TestLockstepGrowthWideSeeds:
    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    @pytest.mark.parametrize("config", ORACLE_CONFIGS[:1] + ORACLE_CONFIGS[5:6], ids=str)
    def test_models_match_recursive_builder(self, seed, config):
        # the oracle draws through np.random.Generator; seeds of more than
        # one 32-bit word hash more entropy words before the spawn word
        assert seed >= 2**32
        for k, (name, X, y) in enumerate(oracle_datasets()):
            want = fit_recording_warnings(oracle_fit_forest, X, y, config, seed + k)
            got = fit_recording_warnings(lambda *a: fit_forest(*a[:3], config=a[3], seed=a[4]), X, y, config, seed + k)
            assert got == want, name

    def test_trees_do_not_depend_on_the_forest_size(self):
        # tree t of a forest is tree t of any larger forest of the same seed
        X, y, names = blob_data(40, distance=1.0, seed=4, d=9)
        small, large = (
            json.loads(model_to_json(fit_forest(X, y, names, ForestConfig(n_trees=k), seed=2**40 + 3)))["trees"]
            for k in (5, 37)
        )
        assert [json.dumps(t) for t in small] == [json.dumps(t) for t in large[:5]]

    @pytest.mark.parametrize("first, most, block", [(1, 1, 1 << 16), (1, 2, 1), (3, 5, 300)])
    def test_batch_sizes_do_not_change_models(self, monkeypatch, first, most, block):
        # a block of one word draws every tree's first batch alone; 300
        # words take a few trees at a time
        X, y, names = blob_data(40, distance=1.0, seed=4, d=9)
        want = model_to_json(fit_forest(X, y, names, ForestConfig(n_trees=20), seed=2))
        monkeypatch.setattr(classify, "FIRST_SUBSETS", first)
        monkeypatch.setattr(classify, "MAX_SUBSETS", most)
        monkeypatch.setattr(classify, "DRAW_BLOCK_WORDS", block)
        assert model_to_json(fit_forest(X, y, names, ForestConfig(n_trees=20), seed=2)) == want

    def test_fit_makes_no_generator(self, monkeypatch):
        X, y, names = blob_data(40, distance=1.0, seed=4, d=9)
        want = model_to_json(fit_forest(X, y, names, ForestConfig(n_trees=20), seed=2))

        def refuse(*args, **kwargs):
            raise AssertionError("a Generator was made")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "Generator", refuse)
        assert model_to_json(fit_forest(X, y, names, ForestConfig(n_trees=20), seed=2)) == want


def generator(seed, t):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))


def halves(words):
    """32-bit halves of 64-bit words, each word's low half first."""
    return np.stack([words & 0xFFFFFFFF, words >> 32], axis=-1).reshape(-1)


class TestRawDraws:
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**96, 2**128, 2**130 + 7])
    def test_seeding(self, seed):
        got = classify._pcg64_seeds(seed, 100)
        assert got == [np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(t,))).state["state"] for t in range(100)]

    @pytest.mark.parametrize(
        "d, m", [(37, 7), (5, 5), (2, 2), (1, 1), (0, 0), (3 * 10**9, 5), (10_001, 200), (60, 60)]
    )
    @pytest.mark.parametrize("seed", [0, 2**40 + 3, 2**130 + 7])
    def test_draws_match_generator(self, monkeypatch, seed, d, m):
        # a bootstrap, then 12 subsets across refills of 2 and 3 subsets
        monkeypatch.setattr(classify, "FIRST_SUBSETS", 2)
        monkeypatch.setattr(classify, "MAX_SUBSETS", 3)
        n = 23
        boots, subsets = classify._tree_draws(seed, 4, n, d, m)
        for t in range(4):
            rng = generator(seed, t)
            assert boots[t].tolist() == rng.integers(0, n, size=n).tolist()
            for _ in range(12):
                assert next(subsets[t]).tolist() == sorted(rng.choice(d, m, replace=False).tolist())

    def test_first_batch_is_each_trees_own(self):
        # the default batch sizes, and more rejections than the first
        # batch's spare words (a bound of 3e9 rejects about 30% of words)
        boots, subsets = classify._tree_draws(11, 3, 50, 3 * 10**9, 9)
        for t in range(3):
            rng = generator(11, t)
            assert boots[t].tolist() == rng.integers(0, 50, size=50).tolist()
            for _ in range(40):
                assert next(subsets[t]).tolist() == sorted(rng.choice(3 * 10**9, 9, replace=False).tolist())

    @pytest.mark.parametrize("bound", [3 * 10**9, 4 * 10**9, 2**31 + 1, 2**32 - 1, 1])
    def test_rejections(self, bound):
        # bootstrap draws at a bound far from a power of two reject words;
        # a rejected word is skipped and the same bound drawn again
        bitgen = np.random.PCG64(np.random.SeedSequence(entropy=5, spawn_key=(0,)))
        u = halves(bitgen.random_raw(200))
        values, used = classify._lemire(u[None], [bound] * 150)
        assert values[0].tolist() == generator(5, 0).integers(0, bound + 1, size=150).tolist()
        assert (used[0] > 150) == (bound not in (2**32 - 1, 1))
        # a row that runs out of words says so
        assert classify._lemire(u[None, :151], [3 * 10**9] * 150)[1].tolist() == [-1]

    @pytest.mark.parametrize("d, m", [(10_001, 201), (20_000, 401), (2**32 + 1, 1)])
    def test_outside_floyds_path_raises(self, d, m):
        with pytest.raises(ValueError):
            classify._tree_draws(0, 2, 5, d, m)


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
            assert pack_forest(forest_of([tree]))[5].tolist() == [0.0, 0.25, 1.0]
            assert tree.predict_prob(column([0.5, 0.6, np.nan])).tolist() == [0.25, 1.0, 1.0]
            assert tree.predict_prob(np.zeros((0, 1))).shape == (0,)

    def test_packed_values_are_each_nodes_class_1_share(self):
        model = fit_forest(*blob_data(30, distance=1.0, seed=5, d=3)[:2], list("abc"), ForestConfig(n_trees=7), seed=3)
        want = [c[1] / (c[0] + c[1]) for c in model.trees.counts.tolist()]
        assert pack_forest(model.trees)[5].tolist() == want
        assert 0.0 in want and 1.0 in want and len(set(want)) > 2


# ---------------------------------------------------------------------------
# the step partition and the packed forest route, against the per-node
# boolean split and the per-tree walk they replaced


class TestStepPartition:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_node_boolean_split(self, seed):
        # bootstrap row indices repeat, thresholds sit on row values, and
        # some nodes hold one row or send every row one way
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 5, size=(40, 3)).astype(float)
        y = rng.integers(0, 2, size=40)
        n = rng.integers(1, 30, size=12)
        rows = [rng.integers(0, 40, size=k) for k in n]
        feature = rng.integers(0, 3, size=12)
        threshold = rng.integers(-1, 6, size=12) + rng.choice([0.0, 0.5], size=12)
        left, right, n_left, left_ones = _partition(X, y, np.concatenate(rows), n, feature, threshold)
        want_left, want_right = [], []
        for k, idx in enumerate(rows):
            go_left = X[idx, feature[k]] <= threshold[k]
            want_left.append(idx[go_left])
            want_right.append(idx[~go_left])
            assert n_left[k] == np.count_nonzero(go_left)
            assert left_ones[k] == np.count_nonzero(y[idx[go_left]])
        assert left.tolist() == np.concatenate(want_left).tolist()
        assert right.tolist() == np.concatenate(want_right).tolist()


def in_order_sum(forest, X):
    """The forest output as the per-tree loop added it, tree by tree."""
    probs = np.zeros(X.shape[0])
    for tree in trees_of(forest):
        probs += scalar_predict_prob(tree, X)
    return probs / len(forest)


def leaf_tree(counts):
    return Tree(
        feature=np.array([-1]), threshold=np.array([0.0]), left=np.array([-1]),
        right=np.array([-1]), counts=np.array([counts], dtype=np.float64),
    )


def route_cases():
    """(model, rows): fitted forests on random nodes, one with single-leaf
    trees among its trees; rows on both sides of every threshold and on it."""
    for seed in range(300, 306):
        X, y = random_node(seed)[:2]
        y = y.copy()
        y[:2] = (0, 1)
        config = ForestConfig(n_trees=int(np.random.default_rng(seed).integers(1, 12)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # identical rows, mixed labels
            model = fit_forest(X, y, [f"f{j}" for j in range(X.shape[1])], config, seed=seed)
        if seed == 300:
            trees = trees_of(model.trees)
            model.trees = forest_of(trees[:1] + [leaf_tree([2, 1]), leaf_tree([0, 5])] + trees[1:])
        thresholds = model.trees.threshold[model.trees.feature != -1]
        on = np.repeat(thresholds[:, None], X.shape[1], axis=1)
        yield model, np.vstack([X, on])


class TestPackedRoute:
    def test_matches_in_order_per_tree_sum(self):
        for model, X in route_cases():
            for rows in (X, X[:1], X[:0]):
                assert model.predict_proba(rows).tobytes() == in_order_sum(model.trees, rows).tobytes()

    def test_single_leaf_forest(self):
        model = RandomForestModel(
            trees=forest_of([leaf_tree([1, 3]), leaf_tree([3, 0])]), config=ForestConfig(n_trees=2),
            seed=0, feature_names=("x",), medians=np.zeros(1),
        )
        assert model.predict_proba(column([0.0, 7.0])).tolist() == [0.375, 0.375]

    @pytest.mark.parametrize("cap", [1, 5, 64])
    def test_chunk_boundaries_do_not_change_outputs(self, monkeypatch, cap):
        # a cap of 1 routes one row per chunk; 5 and 64 pairs cut the rows
        # into chunks that do not divide them evenly
        cases = list(route_cases())
        want = [model.predict_proba(X).tobytes() for model, X in cases]
        monkeypatch.setattr(classify, "ROUTE_BLOCK_PAIRS", cap)
        for (model, X), expected in zip(cases, want):
            assert model.predict_proba(X).tobytes() == expected
            assert model.predict_proba(X).tobytes() == in_order_sum(model.trees, X).tobytes()

    def test_explainer_base_value_unchanged(self):
        # each tree's mean output over the background, then their mean
        for model, X in route_cases():
            explainer = TreeShapExplainer(model, X)
            want = float(np.mean([scalar_predict_prob(t, X).mean() for t in trees_of(model.trees)]))
            assert explainer.base_value == want


# ---------------------------------------------------------------------------
# model files that would not route every row to a leaf are rejected


def two_tree_payload():
    """A saved two-tree model on features (a, b) as a dict; tree 1 has 5
    nodes: a split on b, a leaf, a split on a and its two leaves."""
    model = RandomForestModel(
        trees=forest_of([
            leaf_tree([1, 1]),
            Tree(
                feature=np.array([1, -1, 0, -1, -1]),
                threshold=np.array([0.5, 0.0, 1.5, 0.0, 0.0]),
                left=np.array([1, -1, 3, -1, -1]),
                right=np.array([2, -1, 4, -1, -1]),
                counts=np.array([[0, 0], [2, 1], [0, 0], [1, 0], [0, 3]], dtype=np.float64),
            ),
        ]),
        config=ForestConfig(n_trees=2), seed=0, feature_names=("a", "b"), medians=np.zeros(2),
    )
    return json.loads(model_to_json(model))


def load_edited(edit):
    payload = two_tree_payload()
    edit(payload["trees"][1])
    return model_from_json(json.dumps(payload))


class TestModelFileChecks:
    def test_intact_model_loads(self):
        model = load_edited(lambda tree: None)
        assert model.predict_proba(np.array([[2.0, 1.0], [0.0, 0.0]])).tolist() == [0.75, (0.5 + 1 / 3) / 2]

    def test_child_pointing_back_to_an_ancestor(self):
        # a cycle: routing from node 0 would come back to node 0 forever
        with pytest.raises(ParseError, match=r"^tree 1: node 0: left child 0 not in \(0, 5\)$"):
            load_edited(lambda tree: tree["left"].__setitem__(0, 0))

    def test_child_past_the_last_node(self):
        with pytest.raises(ParseError, match=r"^tree 1: node 2: right child 5 not in \(2, 5\)$"):
            load_edited(lambda tree: tree["right"].__setitem__(2, 5))

    def test_leaf_with_a_child(self):
        with pytest.raises(ParseError, match=r"^tree 1: node 3: leaf has children 4, -1$"):
            load_edited(lambda tree: tree["left"].__setitem__(3, 4))

    @pytest.mark.parametrize("feature", [2, -2])
    def test_split_feature_outside_the_model(self, feature):
        with pytest.raises(ParseError, match=rf"^tree 1: node 2: feature {feature} outside \[0, 2\)$"):
            load_edited(lambda tree: tree["feature"].__setitem__(2, feature))

    def test_field_lengths_differ(self):
        with pytest.raises(ParseError, match=r"^tree 1: 4 threshold entries for 5 nodes$"):
            load_edited(lambda tree: tree["threshold"].pop())

    def test_counts_not_pairs(self):
        with pytest.raises(ParseError, match=r"^tree 1: counts entries are not \(non-rumour, rumour\) count pairs$"):
            load_edited(lambda tree: tree["counts"][4].append(1.0))

    @pytest.mark.parametrize(
        "edit, want",
        [
            (lambda p: [p], "the top level is not an object but list"),
            (lambda p: {**p, "trees": [p["trees"][0], 7]}, "trees is not a list of objects"),
            (lambda p: {**p, "medians": [0.0, 0.0]}, "medians is not an object but list"),
            (lambda p: {**p, "medians": {"a": 0.0}}, "medians: the median of feature 'b' is missing"),
            (
                lambda p: {**p, "trees": [p["trees"][0], {**p["trees"][1], "feature": 5}]},
                "tree 1: feature is not a list",
            ),
            (lambda p: {**p, "config": [1]}, "config is not an object but list"),
            (lambda p: {**p, "feature_names": 3}, "feature_names is not a list of strings"),
            (lambda p: {**p, "seed": "x"}, "seed is 'x', not an integer"),
            (lambda p: {**p, "fold_scores": "x"}, "fold_scores is not a list of numbers"),
            (lambda p: {**p, "config": {**p["config"], "n_trees": "x"}}, "config: n_trees is 'x', not an integer"),
        ],
        ids=[
            "top level", "trees", "medians", "missing median",
            "tree feature", "config", "feature names", "seed", "fold scores", "config n_trees",
        ],
    )
    def test_malformed_model_file(self, edit, want):
        with pytest.raises(ParseError, match=f"^{re.escape(want)}$"):
            model_from_json(json.dumps(edit(two_tree_payload())))

    @pytest.mark.parametrize(
        "value", ["0.5", None, True, math.nan, math.inf, 10**400], ids=["string", "null", "bool", "nan", "inf", "huge"]
    )
    def test_median_not_a_finite_number(self, value):
        payload = two_tree_payload()
        payload["medians"]["b"] = value
        want = f"medians: the median of feature 'b' is {value!r:.40}, not a finite number"
        with pytest.raises(ParseError, match=f"^{re.escape(want)}$"):
            model_from_json(json.dumps(payload))

    def test_tree_without_nodes(self):
        with pytest.raises(ParseError, match=r"^tree 1: no nodes$"):
            load_edited(lambda tree: [tree[key].clear() for key in tree])


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


def loop_medians(X: np.ndarray) -> np.ndarray:
    """Reference: the per-column loop that one sort of the matrix replaced."""
    medians = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        col = X[:, j]
        defined = np.sort(col[~np.isnan(col)], kind="stable")
        if defined.size:
            mid = defined.size // 2
            medians[j] = (
                defined[mid] if defined.size % 2 else (defined[mid - 1] + defined[mid]) / 2.0
            )
    return medians


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

    @pytest.mark.parametrize("seed", range(20))
    def test_bitwise_equal_to_column_loop(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, d = int(rng.integers(0, 60)), int(rng.integers(1, 8))
        pool = [0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf]
        X = np.where(rng.random((n, d)) < 0.6, rng.choice(pool, size=(n, d)), rng.normal(size=(n, d)))
        X[rng.random((n, d)) < rng.random()] = np.nan
        X[:, rng.random(d) < 0.3] = np.nan  # columns absent everywhere
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the median of -inf and inf
            want, got = loop_medians(X), compute_medians(X)
        assert got.tobytes() == want.tobytes()


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

    def test_fold_reduction_warning_names_the_caller_of_cross_validate(self):
        X, _, names = blob_data(5, seed=3)
        y = labelled((RUMOUR, 2), (NON_RUMOUR, 8))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cross_validate(X, y, names, k=5, config=ForestConfig(n_trees=2), seed=0)
        assert [str(w.message) for w in caught] == ["reducing folds from 5 to 2"]
        assert caught[0].filename == __file__
        assert "cross_validate(X, y" in linecache.getline(__file__, caught[0].lineno)

    def test_no_leakage_even_as_duplicate(self, monkeypatch, tmp_path, mini_pheme_dir):
        # every fit that cross_validate and the train stage make, seen by a
        # spy on fit_forest through a last column of row ids: no test row
        # reaches it, not even as an oversampled copy
        fits = []
        fit_forest = classify.fit_forest

        def spy(X, y, feature_names, config=None, seed=0, medians=None):
            fits.append((set(X[:, -1].tolist()), medians))
            return fit_forest(X, y, feature_names, config=config, seed=seed, medians=medians)

        monkeypatch.setattr(classify, "fit_forest", spy)
        X, y, names = blob_data(15, seed=4)
        X = np.column_stack([X, np.arange(len(y))])
        list(cross_validate(X, y, [*names, "id"], k=5, config=ForestConfig(n_trees=3), seed=2))
        folds = stratified_folds(y, k=5, seed=2)
        assert len(fits) == len(folds)
        for (ids, medians), test_idx in zip(fits, folds):
            fold_train = np.setdiff1d(np.arange(len(y)), test_idx)
            # every training row, and no other, at least once
            assert ids == set(fold_train.tolist())
            assert medians.tobytes() == compute_medians(X[fold_train]).tobytes()

        # the train stage on the fixture corpus, its feature table given a
        # last column of row ids
        read_features_csv = report.read_features_csv

        def with_ids(path):
            table = read_features_csv(path)
            return dataclasses.replace(
                table, names=[*table.names, "id"], X=np.column_stack([table.X, np.arange(len(table))])
            )

        monkeypatch.setattr(report, "read_features_csv", with_ids)
        cfg = RunConfig(dataset=str(mini_pheme_dir), n_trees=2, k_folds=3, out_dir=str(tmp_path), run_id="t")
        pipeline.stage_ingest(cfg)
        pipeline.stage_featurize(cfg)
        fits.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # fewer folds, unsplittable nodes
            pipeline.stage_train(cfg)
        table = with_ids(cfg.run_dir() / report.FEATURES_CSV)
        metrics = report.read_csv_rows(cfg.run_dir() / report.METRICS_CSV)
        test_ids = set()
        for row in metrics:
            rows, _, _, _, test = pipeline._model_split(cfg, table, row["event"], row["scope"])
            test_ids |= set(np.flatnonzero(rows)[test].tolist())
        # each model's folds and its final fit
        assert len(fits) == sum(int(row["cv_folds"]) + 1 for row in metrics) > len(metrics)
        assert all(ids and not ids & test_ids for ids, _ in fits)

    def test_cv_runs_and_reports(self):
        X, y, names = blob_data(20, seed=5)
        results = list(cross_validate(X, y, names, k=4, config=ForestConfig(n_trees=10), seed=1))
        assert len(results) == 4
        assert all(0.0 <= m.accuracy <= 1.0 for m in results)


def loop_metrics(confusion, averaging):
    """The per-class loop `metrics_from_confusion` once ran, kept as its
    oracle."""
    cm = np.asarray(confusion, dtype=np.float64)
    accuracy = float(np.trace(cm) / cm.sum())
    precisions, recalls, f1s, supports = [], [], [], []
    for cls in range(cm.shape[0]):
        tp = cm[cls, cls]
        predicted = cm[:, cls].sum()
        actual = cm[cls, :].sum()
        p = tp / predicted if predicted else 0.0
        r = tp / actual if actual else 0.0
        f = 2 * p * r / (p + r) if (p + r) else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
        supports.append(actual)
    if averaging == "binary":
        p, r, f = precisions[1], recalls[1], f1s[1]
    elif averaging == "macro":
        p, r, f = float(np.mean(precisions)), float(np.mean(recalls)), float(np.mean(f1s))
    else:
        w = np.array(supports) / sum(supports)
        p, r, f = float(np.dot(precisions, w)), float(np.dot(recalls, w)), float(np.dot(f1s, w))
    return accuracy, float(p), float(r), float(f)


class TestMetrics:
    @pytest.mark.parametrize("averaging", ["weighted", "macro", "binary"])
    def test_bitwise_equal_to_per_class_loop(self, averaging):
        # every 2x2 confusion matrix with entries 0..8 but the all-zero one
        matrices = [np.reshape(cells, (2, 2)) for cells in itertools.product(range(9), repeat=4) if any(cells)]
        assert len(matrices) == 6560
        for cm in matrices:
            got = dataclasses.astuple(metrics_from_confusion(cm, averaging=averaging))
            assert [float.hex(v) for v in got] == [float.hex(v) for v in loop_metrics(cm, averaging)], cm

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
