import numpy as np
import pytest

from rumourlens.classify import ForestConfig, RandomForestModel, Tree, fit_forest
from rumourlens.errors import FeatureMismatch, TooManyFeatures
from rumourlens.shapley import (
    TreeShapExplainer,
    brute_shapley,
    shap_summary,
    tree_shap,
)


def leaf_tree(prob_counts):
    return Tree(
        feature=np.array([-1]),
        threshold=np.array([0.0]),
        left=np.array([-1]),
        right=np.array([-1]),
        counts=np.array([prob_counts], dtype=np.float64),
    )


def stump(feature, threshold, left_counts, right_counts):
    return Tree(
        feature=np.array([feature, -1, -1]),
        threshold=np.array([threshold, 0.0, 0.0]),
        left=np.array([1, -1, -1]),
        right=np.array([2, -1, -1]),
        counts=np.array([[0, 0], left_counts, right_counts], dtype=np.float64),
    )


def manual_model(trees, names):
    return RandomForestModel(
        trees=trees,
        config=ForestConfig(n_trees=len(trees)),
        seed=0,
        feature_names=tuple(names),
        medians={n: 0.0 for n in names},
    )


def rows(*values):
    return np.array(values, dtype=np.float64)


def random_rows(rng, n, d):
    """n rows of d standard-normal features and a fair-coin class each,
    drawn row by row (features, then class)."""
    X = np.empty((n, d))
    y = np.empty(n, dtype=np.int64)
    for i in range(n):
        X[i] = [float(rng.normal()) for _ in range(d)]
        y[i] = 1 if rng.random() < 0.5 else 0
    return X, y


class TestSingleTreeCases:
    def test_constant_model_all_phi_zero(self):
        model = manual_model([leaf_tree([1, 3])], ["a", "b"])
        explanation = tree_shap(model, rows(1.0, 2.0), rows([0.0, 0.0], [5.0, 5.0]))
        assert explanation.phi == {"a": 0.0, "b": 0.0}
        assert explanation.base_value == pytest.approx(0.75)
        assert explanation.model_output == pytest.approx(0.75)

    def test_depth_one_single_split(self):
        # split on feature a; instance goes right, background goes left
        model = manual_model([stump(0, 0.0, [4, 0], [0, 4])], ["a", "b"])
        explanation = tree_shap(model, rows(1.0, 9.0), rows([-1.0, -9.0]))
        assert explanation.phi["b"] == pytest.approx(0.0, abs=1e-12)
        assert explanation.phi["a"] == pytest.approx(
            explanation.model_output - explanation.base_value, abs=1e-12
        )

    def test_dummy_feature_gets_exact_zero(self):
        model = manual_model([stump(0, 0.0, [4, 0], [0, 4])], ["a", "unused"])
        rng = np.random.default_rng(0)
        background = np.array([[float(rng.normal()), float(rng.normal())] for _ in range(6)])
        explanation = tree_shap(model, rows(2.0, -3.0), background)
        assert explanation.phi["unused"] == 0.0
        brute = brute_shapley(model, rows(2.0, -3.0), background)
        assert brute["unused"] == pytest.approx(0.0, abs=1e-15)

    def test_absent_values_take_the_model_medians(self):
        model = manual_model([stump(0, 0.0, [4, 0], [0, 4])], ["a", "b"])
        model.medians["a"] = 1.0
        background = rows([-1.0, 0.0], [np.nan, 0.0])
        imputed = rows([-1.0, 0.0], [1.0, 0.0])
        fast = tree_shap(model, rows(np.nan, 5.0), background)
        assert fast == tree_shap(model, rows(1.0, 5.0), imputed)
        assert brute_shapley(model, rows(np.nan, 5.0), background) == brute_shapley(
            model, rows(1.0, 5.0), imputed
        )


class TestBruteForceOracle:
    def test_symmetry_axiom(self):
        # two exchangeable stumps, symmetric instance and background
        trees = [stump(0, 0.0, [4, 0], [0, 4]), stump(1, 0.0, [4, 0], [0, 4])]
        model = manual_model(trees, ["x1", "x2"])
        phi = brute_shapley(model, rows(1.0, 1.0), rows([-1.0, -1.0], [1.0, 1.0]))
        assert phi["x1"] == pytest.approx(phi["x2"], abs=1e-9)

    def test_efficiency_inside_oracle(self):
        rng = np.random.default_rng(21)
        names = ["a", "b", "c"]
        X, y = random_rows(rng, 30, 3)
        model = fit_forest(X, y, names, ForestConfig(n_trees=5), seed=3)
        background, _ = random_rows(rng, 8, 3)
        for i in range(5):
            instance = random_rows(rng, 1, 3)[0][0]
            phi = brute_shapley(model, instance, background)
            expected = float(model.predict_proba(instance.reshape(1, -1))[0]) - float(
                model.predict_proba(background).mean()
            )
            assert sum(phi.values()) == pytest.approx(expected, abs=1e-9)

    def test_too_many_features(self):
        names = [f"f{i}" for i in range(13)]
        model = manual_model([leaf_tree([1, 1])], names)
        row = np.zeros(13)
        with pytest.raises(TooManyFeatures):
            brute_shapley(model, row, row.reshape(1, -1))


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_small_forests(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        names = [f"f{j}" for j in range(d)]
        X, y = random_rows(rng, int(rng.integers(8, 30)), d)
        if len(set(y.tolist())) < 2:
            y[0], y[1] = 1, 0
        model = fit_forest(X, y, names, ForestConfig(n_trees=int(rng.integers(1, 6))), seed=seed)
        background, _ = random_rows(rng, int(rng.integers(1, 21)), d)
        for _ in range(3):
            instance = random_rows(rng, 1, d)[0][0]
            fast = tree_shap(model, instance, background)
            brute = brute_shapley(model, instance, background)
            for name in names:
                assert fast.phi[name] == pytest.approx(brute[name], abs=1e-9)
            assert fast.additivity_gap() < 1e-9

    def test_repeated_feature_on_path(self):
        # deep tree re-splitting the same feature
        tree = Tree(
            feature=np.array([0, 0, -1, -1, -1]),
            threshold=np.array([0.0, -1.0, 0.0, 0.0, 0.0]),
            left=np.array([1, 3, -1, -1, -1]),
            right=np.array([2, 4, -1, -1, -1]),
            counts=np.array([[0, 0], [0, 0], [1, 9], [9, 1], [5, 5]], dtype=np.float64),
        )
        model = manual_model([tree], ["a", "b"])
        background = rows([-2.0, 0.0], [-0.5, 1.0], [3.0, -1.0])
        instance = rows(-0.7, 0.3)
        fast = tree_shap(model, instance, background)
        brute = brute_shapley(model, instance, background)
        for name in ("a", "b"):
            assert fast.phi[name] == pytest.approx(brute[name], abs=1e-12)


class TestValidation:
    def test_instance_schema_mismatch(self):
        model = manual_model([leaf_tree([1, 1])], ["a", "b"])
        with pytest.raises(FeatureMismatch):
            tree_shap(model, rows(1.0), rows([0.0, 0.0]))

    def test_background_shape_mismatch(self):
        model = manual_model([leaf_tree([1, 1])], ["a", "b"])
        with pytest.raises(FeatureMismatch):
            TreeShapExplainer(model, np.zeros((3, 5)))


class TestSummary:
    def build(self, seed=2):
        rng = np.random.default_rng(seed)
        X, y = random_rows(rng, 40, 3)
        model = fit_forest(X, y, ["a", "b", "c"], ForestConfig(n_trees=10), seed=1)
        return model, X, [f"r{i}" for i in range(len(X))]

    def test_single_instance_ranking_is_abs_phi(self):
        model, X, ids = self.build()
        summary = shap_summary(model, X[:1], ids[:1], background=X[:10])
        explanation = tree_shap(model, X[0], X[:10])
        expect = sorted(
            ((n, abs(v)) for n, v in explanation.phi.items()),
            key=lambda item: (-item[1], item[0]),
        )
        assert [n for n, _ in summary.ranking] == [n for n, _ in expect]
        for (n1, v1), (n2, v2) in zip(summary.ranking, expect):
            assert v1 == pytest.approx(v2, abs=1e-12)

    def test_every_instance_appears_once_per_feature(self):
        model, X, ids = self.build()
        summary = shap_summary(model, X[:7], ids[:7], background=X)
        seen = {(p.instance_id, p.feature) for p in summary.points}
        assert len(seen) == len(summary.points) == 7 * 3

    def test_local_accuracy_on_every_explanation(self):
        model, X, _ = self.build()
        explainer = TreeShapExplainer(model, model.impute(X))
        for row in model.impute(X):
            assert explainer.explain_row(row).additivity_gap() < 1e-9

    def test_background_subsampling_deterministic(self):
        model, X, ids = self.build()
        a = shap_summary(model, X[:3], ids[:3], background=X, background_limit=5, seed=11)
        b = shap_summary(model, X[:3], ids[:3], background=X, background_limit=5, seed=11)
        assert a.ranking == b.ranking
        assert [(p.instance_id, p.phi) for p in a.points] == [
            (p.instance_id, p.phi) for p in b.points
        ]
