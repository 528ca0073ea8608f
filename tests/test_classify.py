import json
import math
from fractions import Fraction

import numpy as np
import pytest

from rumourlens.classify import (
    CLASSES,
    ForestConfig,
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

    def test_thread_count_does_not_change_model(self):
        X, y, names = blob_data(20, seed=10)
        a = model_to_json(fit_forest(X, y, names, seed=4, threads=1))
        b = model_to_json(fit_forest(X, y, names, seed=4, threads=4))
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
