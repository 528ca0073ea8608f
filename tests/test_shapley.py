"""The Shapley explainer against the subset-sum oracle and against the
per-row paths it replaced.

`oracle_explain_rows` below is the earlier per-row TreeSHAP path, kept
whole: per-leaf path conditions with background satisfaction as
(background x conditions), one leaf and one instance at a time. It adds
in another order than the walk, so `TreeShapExplainer.explain_rows` must
agree with it within 1e-14. `oracle_walk_rows` is the walk itself, one
row, tree and background group at a time with Python sets, adding in
the order the explainer promises: the explainer must give its phi bit
for bit.
"""

from dataclasses import replace
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from rumourlens import parallel, report, shapley
from rumourlens.classify import (
    ForestConfig,
    RandomForestModel,
    Tree,
    fit_forest,
    model_from_json,
    model_to_json,
    pack_forest,
)
from rumourlens.errors import EmptySample, FeatureMismatch, NonFiniteValue
from rumourlens.shapley import TreeShapExplainer, _weight_table, shap_summary
from tests.forests import forest_of, trees_of
from tests.shapley_oracle import TooManyFeatures, brute_shapley


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
        trees=forest_of(trees),
        config=ForestConfig(n_trees=len(trees)),
        seed=0,
        feature_names=tuple(names),
        medians=np.zeros(len(names)),
    )


def rows(*values):
    return np.array(values, dtype=np.float64)


def explain(model, instance, background):
    """(phi, base value, model output) of one raw instance: the explainer
    and the model both see the rows imputed with the model's medians."""
    x = model.impute(instance)
    explainer = TreeShapExplainer(model, model.impute(background))
    output = float(model.predict_proba(x.reshape(1, -1))[0])
    return explainer.explain_row(x), explainer.base_value, output


def additivity_gap(phi, base, output):
    return abs(base + float(phi.sum()) - output)


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
        phi, base, output = explain(model, rows(1.0, 2.0), rows([0.0, 0.0], [5.0, 5.0]))
        assert phi.tolist() == [0.0, 0.0]
        assert base == pytest.approx(0.75)
        assert output == pytest.approx(0.75)

    def test_depth_one_single_split(self):
        # split on feature a; instance goes right, background goes left
        model = manual_model([stump(0, 0.0, [4, 0], [0, 4])], ["a", "b"])
        phi, base, output = explain(model, rows(1.0, 9.0), rows([-1.0, -9.0]))
        assert phi[1] == pytest.approx(0.0, abs=1e-12)
        assert phi[0] == pytest.approx(output - base, abs=1e-12)

    def test_dummy_feature_gets_exact_zero(self):
        model = manual_model([stump(0, 0.0, [4, 0], [0, 4])], ["a", "unused"])
        rng = np.random.default_rng(0)
        background = np.array([[float(rng.normal()), float(rng.normal())] for _ in range(6)])
        phi, _base, _output = explain(model, rows(2.0, -3.0), background)
        assert phi[1] == 0.0
        brute = brute_shapley(model, rows(2.0, -3.0), background)
        assert brute["unused"] == pytest.approx(0.0, abs=1e-15)

    def test_absent_values_take_the_model_medians(self):
        model = manual_model([stump(0, 0.0, [4, 0], [0, 4])], ["a", "b"])
        model.medians[0] = 1.0  # a's
        background = rows([-1.0, 0.0], [np.nan, 0.0])
        imputed = rows([-1.0, 0.0], [1.0, 0.0])
        fast = explain(model, rows(np.nan, 5.0), background)
        again = explain(model, rows(1.0, 5.0), imputed)
        assert fast[0].tolist() == again[0].tolist() and fast[1:] == again[1:]
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
            phi, base, output = explain(model, instance, background)
            brute = brute_shapley(model, instance, background)
            for j, name in enumerate(names):
                assert phi[j] == pytest.approx(brute[name], abs=1e-9)
            assert additivity_gap(phi, base, output) < 1e-9

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
        phi, _base, _output = explain(model, instance, background)
        brute = brute_shapley(model, instance, background)
        for j, name in enumerate(("a", "b")):
            assert phi[j] == pytest.approx(brute[name], abs=1e-12)


class TestValidation:
    def test_instance_schema_mismatch(self):
        model = manual_model([leaf_tree([1, 1])], ["a", "b"])
        with pytest.raises(FeatureMismatch):
            explain(model, rows(1.0), rows([0.0, 0.0]))

    def test_background_shape_mismatch(self):
        model = manual_model([leaf_tree([1, 1])], ["a", "b"])
        with pytest.raises(FeatureMismatch):
            TreeShapExplainer(model, np.zeros((3, 5)))


class TestSummary:
    def build(self, seed=2):
        rng = np.random.default_rng(seed)
        X, y = random_rows(rng, 40, 3)
        model = fit_forest(X, y, ["a", "b", "c"], ForestConfig(n_trees=10), seed=1)
        return model, X

    def test_single_instance_ranking_is_abs_phi(self):
        model, X = self.build(seed=3)
        summary = shap_summary(model, X[:1], background=X[:10])
        phi, _base, _output = explain(model, X[0], X[:10])
        ranked = report.ranking_entries(zip(model.feature_names, summary.mean_abs))
        expect = report.ranking_entries(zip(model.feature_names, np.abs(phi)))
        assert [e["feature"] for e in ranked] == [e["feature"] for e in expect] == ["b", "c", "a"]
        for got, want in zip(ranked, expect):
            assert got["mean_abs_phi"] == pytest.approx(want["mean_abs_phi"], abs=1e-12)

    def test_ranking_is_the_mean_abs_phi(self):
        model, X = self.build()
        summary = shap_summary(model, X[:9], background=X)
        mean_abs = np.abs(summary.phi).sum(axis=0) / 9
        assert summary.mean_abs.tolist() == mean_abs.tolist()

    def test_every_instance_appears_once_per_feature(self):
        model, X = self.build()
        summary = shap_summary(model, X[:7], background=X)
        assert summary.phi.shape == summary.values.shape == (7, 3)
        explainer = TreeShapExplainer(model, model.impute(X))
        for i, row in enumerate(model.impute(X[:7])):
            assert summary.values[i].tolist() == row.tolist()
            assert summary.phi[i].tolist() == explainer.explain_row(row).tolist()

    def test_local_accuracy_on_every_explanation(self):
        model, X = self.build()
        explainer = TreeShapExplainer(model, model.impute(X))
        outputs = model.predict_proba(model.impute(X))
        for row, output in zip(model.impute(X), outputs):
            phi = explainer.explain_row(row)
            assert additivity_gap(phi, explainer.base_value, output) < 1e-9

    def test_background_subsampling_deterministic(self):
        model, X = self.build()
        a = shap_summary(model, X[:3], background=X, background_limit=5, seed=11)
        b = shap_summary(model, X[:3], background=X, background_limit=5, seed=11)
        assert a.mean_abs.tolist() == b.mean_abs.tolist()
        assert a.phi.tolist() == b.phi.tolist()

    def test_block_plan(self):
        # three models' walks, the last one well above half the total cost:
        # at one worker each is one job; at two the large one is walked in
        # contiguous blocks, in row order, in worker processes, and every
        # summary is bit for bit the in-process one
        model, X = self.build()
        small, _ = self.build(seed=5)
        background = shapley.sample_background(model, X, 16, seed=3)
        requests = [(small, np.arange(2), background), (model, np.arange(3), background)]
        requests.append((model, np.arange(len(X)), background))
        costs = [shapley.walk_cost(m, len(rows), len(bg)) for m, rows, bg in requests]
        assert costs[2] > sum(costs) / 2
        assert shapley.block_counts(costs, 1) == [1, 1, 1]
        assert shapley.block_counts(costs, 2) == [1, 1, 2]
        in_process = list(shapley.shap_summaries(X, requests))
        jobs = []

        def recording(fn, *iterables):
            jobs.extend(zip(*iterables))
            return run(fn, *zip(*jobs))

        with parallel.jobs(2, "explain") as run:
            pooled = list(shapley.shap_summaries(X, requests, recording, 2))
        blocks = [block for _model, _bg, block in jobs]
        assert [len(block) for block in blocks] == [2, 3, 20, 20]
        assert np.concatenate(blocks[2:]).tolist() == X.tolist()
        for got, want in zip(pooled, in_process):
            assert got.phi.tolist() == want.phi.tolist()
            assert got.mean_abs.tolist() == want.mean_abs.tolist()
            assert got.base_value == want.base_value


# ---------------------------------------------------------------------------
# oracle: the per-row explain path


def oracle_enumerate_leaves(tree):
    stack = [(0, [])]
    while stack:
        node, conds = stack.pop()
        if tree.feature[node] == -1:
            yield node, conds
            continue
        f, t = int(tree.feature[node]), float(tree.threshold[node])
        stack.append((int(tree.right[node]), conds + [(f, t, False)]))
        stack.append((int(tree.left[node]), conds + [(f, t, True)]))


def oracle_prepare_tree(tree, background):
    """Per leaf: (value, features, thresholds, directions, background
    satisfaction (rows x conditions), distinct features, inverse)."""
    leaves = []
    value = pack_forest(forest_of([tree]))[5]
    for node, conds in oracle_enumerate_leaves(tree):
        feats = np.array([c[0] for c in conds], dtype=np.int64)
        thrs = np.array([c[1] for c in conds])
        dirs = np.array([c[2] for c in conds])
        sat = (background[:, feats] <= thrs) == dirs if conds else np.ones((background.shape[0], 0), bool)
        uniq, inverse = np.unique(feats, return_inverse=True)
        leaves.append((float(value[node]), feats, thrs, dirs, sat, uniq, inverse))
    return leaves


def oracle_tree_phi(leaves, x, d, b):
    phi = np.zeros(d)
    A = _weight_table(d)
    for value, feats, thrs, dirs, sat_r, uniq, inverse in leaves:
        if feats.size == 0:
            continue
        sat_x = (x[feats] <= thrs) == dirs
        alive = ~(~sat_x & ~sat_r).any(axis=1)
        if not alive.any():
            continue
        pos_cond = sat_x & ~sat_r
        neg_cond = ~sat_x & sat_r
        pos = np.zeros((b, uniq.size), dtype=bool)
        neg = np.zeros((b, uniq.size), dtype=bool)
        for c, u in enumerate(inverse):
            pos[:, u] |= pos_cond[:, c]
            neg[:, u] |= neg_cond[:, c]
        alive &= ~(pos & neg).any(axis=1)
        if not alive.any():
            continue
        p = pos.sum(axis=1)
        q = neg.sum(axis=1)
        a_pos = A[np.maximum(p - 1, 0), q] * alive
        a_neg = A[p, np.maximum(q - 1, 0)] * alive
        for u_idx, feature in enumerate(uniq):
            phi[feature] += value * (a_pos * pos[:, u_idx]).sum()
            phi[feature] -= value * (a_neg * neg[:, u_idx]).sum()
    return phi / b


def oracle_explain_rows(model, background, X):
    """phi of each imputed row of X, one row at a time."""
    d, b = len(model.feature_names), background.shape[0]
    trees = [oracle_prepare_tree(t, background) for t in trees_of(model.trees)]
    out = np.empty(X.shape)
    for i, x in enumerate(X):
        phi = np.zeros(d)
        for leaves in trees:
            phi += oracle_tree_phi(leaves, x, d, b)
        phi /= len(trees)
        out[i] = phi
    return out


def oracle_walk_rows(model, background, X):
    """phi of each imputed row of X by the interventional walk, one row at
    a time, in the order the explainer adds in.

    Going down, an entry is (tree, node, P, N, background rows, parent,
    credit), the rows one group of at most 64, and a level lists first
    the entries that follow the row, then those sent their own way with
    the feature in N, then those sent the row's way with it in P, each
    kind in its parents' order. The credit is the (feature, side) an
    entry put in P (0) or N (1). Going back up from the deepest level,
    an entry's (P, N) sums are its leaf terms or its children's sums
    added in level order to 0.0; then each entry with a credit adds
    that side's sum to its feature, in level order."""
    d, b = len(model.feature_names), len(background)
    A = _weight_table(d)
    groups = [range(lo, min(lo + 64, b)) for lo in range(0, b, 64)]
    trees = trees_of(model.trees)
    value = {id(tree): pack_forest(forest_of([tree]))[5] for tree in trees}
    out = np.empty(X.shape)
    for i, x in enumerate(X):
        empty = frozenset()
        levels = [[(tree, 0, empty, empty, list(rows), None, None) for tree in trees for rows in groups]]
        while levels[-1]:
            follow, own, required = [], [], []
            for at, (tree, node, P, N, rows, _parent, _credit) in enumerate(levels[-1]):
                f = int(tree.feature[node])
                if f == -1:
                    continue
                t = tree.threshold[node]
                x_left = x[f] <= t
                x_child, own_child = (tree.left, tree.right) if x_left else (tree.right, tree.left)
                agree = [r for r in rows if (background[r, f] <= t) == x_left]
                differ = [r for r in rows if (background[r, f] <= t) != x_left]
                if f in P or agree:
                    follow.append((tree, x_child[node], P, N, rows if f in P else agree, at, None))
                if f not in P and differ:
                    own.append((tree, own_child[node], P, N | {f}, differ, at, None if f in N else (f, 1)))
                    if f not in N:
                        required.append((tree, x_child[node], P | {f}, N, differ, at, (f, 0)))
            levels.append(follow + own + required)
        phi = np.zeros(d)
        below, below_sums = [], []
        for level in reversed(levels):
            sums = []
            for tree, node, P, N, rows, _parent, _credit in level:
                if tree.feature[node] == -1:
                    reach = float(value[id(tree)][node]) * len(rows)
                    p, q = len(P), len(N)
                    sums.append([reach * A[max(p - 1, 0), q], reach * -A[p, max(q - 1, 0)]])
                else:
                    sums.append([0.0, 0.0])
            for (*_entry, parent, _credit), (pos, neg) in zip(below, below_sums):
                sums[parent][0] += pos
                sums[parent][1] += neg
            for (*_entry, _parent, credit), entry_sums in zip(level, sums):
                if credit is not None:
                    phi[credit[0]] += entry_sums[credit[1]]
            below, below_sums = level, sums
        out[i] = phi / (b * len(model.trees))
    return out


def assert_matches_oracle(model, background, X):
    explainer = TreeShapExplainer(model, background)
    got = explainer.explain_rows(X)
    np.testing.assert_allclose(got, oracle_explain_rows(model, background, X), rtol=0, atol=1e-14)
    return explainer, got


def random_forest_case(seed):
    """A seeded forest of 1-8 trees on 1-5 features, a background of 1-30
    rows and 1-12 rows to explain, all imputed."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    names = [f"f{j}" for j in range(d)]
    X, y = random_rows(rng, int(rng.integers(10, 60)), d)
    y[0], y[1] = 1, 0
    model = fit_forest(X, y, names, ForestConfig(n_trees=int(rng.integers(1, 9))), seed=seed)
    background, _ = random_rows(rng, int(rng.integers(1, 31)), d)
    rows_, _ = random_rows(rng, int(rng.integers(1, 13)), d)
    return model, model.impute(background), model.impute(rows_)


def oracle_weight_table(d):
    """A[p, q] as the defining sum over coalition sizes, in exact
    fractions, then cast to float."""
    w = [Fraction(factorial(s) * factorial(d - 1 - s), factorial(d)) for s in range(d)]
    table = np.zeros((d + 1, d + 1))
    for p in range(d):
        for q in range(d - p):
            m = d - 1 - p - q
            table[p, q] = float(sum(comb(m, k) * w[p + k] for k in range(m + 1)))
    return table


@pytest.mark.parametrize("d", range(1, 41))
def test_weight_table_is_the_subset_sum(d):
    assert _weight_table(d).view(np.uint64).tolist() == oracle_weight_table(d).view(np.uint64).tolist()


class TestBatchedExplainer:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_forests_bitwise_equal_to_oracle(self, seed):
        model, background, X = random_forest_case(seed)
        _explainer, phi = assert_matches_oracle(model, background, X)
        assert phi.view(np.uint64).tolist() == oracle_walk_rows(model, background, X).view(np.uint64).tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_forests_match_brute_force(self, seed):
        model, background, X = random_forest_case(100 + seed)
        phi = TreeShapExplainer(model, background).explain_rows(X)
        for x, row_phi in zip(X, phi):
            brute = brute_shapley(model, x, background)
            for j, name in enumerate(model.feature_names):
                assert row_phi[j] == pytest.approx(brute[name], abs=1e-9)

    def test_single_leaf_tree(self):
        rng = np.random.default_rng(5)
        X, y = random_rows(rng, 30, 3)
        forest = fit_forest(X, y, ["a", "b", "c"], ForestConfig(n_trees=3), seed=2)
        model = manual_model([leaf_tree([2, 5])] + trees_of(forest.trees), ["a", "b", "c"])
        assert_matches_oracle(model, X[:9], X[9:20])
        alone = manual_model([leaf_tree([2, 5])], ["a", "b", "c"])
        assert not assert_matches_oracle(alone, X[:9], X[9:12])[1].any()

    def test_repeated_feature_on_a_path(self):
        # feature a is split at the root and again below it
        tree = Tree(
            feature=np.array([0, 1, -1, 0, -1, -1, -1]),
            threshold=np.array([0.0, 0.5, 0.0, -1.0, 0.0, 0.0, 0.0]),
            left=np.array([1, 3, -1, 5, -1, -1, -1]),
            right=np.array([2, 4, -1, 6, -1, -1, -1]),
            counts=np.array([[0, 0], [0, 0], [3, 1], [0, 0], [2, 6], [1, 9], [8, 2]], dtype=np.float64),
        )
        model = manual_model([tree, stump(1, 0.0, [3, 1], [1, 3])], ["a", "b"])
        background = rows([-2.0, 0.0], [-0.5, 1.0], [3.0, -1.0], [-1.5, 0.2])
        X = rows([-0.7, 0.3], [-3.0, 0.9], [0.4, -0.4], [-1.2, 0.6])
        _explainer, phi = assert_matches_oracle(model, background, X)
        assert phi.view(np.uint64).tolist() == oracle_walk_rows(model, background, X).view(np.uint64).tolist()
        for x, row_phi in zip(X, phi):
            brute = brute_shapley(model, x, background)
            assert row_phi.tolist() == pytest.approx([brute["a"], brute["b"]], abs=1e-12)

    @pytest.mark.parametrize("bg_a", [[-2.0, -1.5], [-2.0, 2.0]])
    def test_leaf_no_pair_reaches(self, bg_a):
        # the leaf under a <= 0 and then a > 1 is empty: with every a <= 0
        # each pair fails a > 1 on both sides; with a background row at
        # a = 2 the pair needs a from both sides at once
        tree = Tree(
            feature=np.array([0, 0, -1, -1, -1]),
            threshold=np.array([0.0, 1.0, 0.0, 0.0, 0.0]),
            left=np.array([1, 3, -1, -1, -1]),
            right=np.array([2, 4, -1, -1, -1]),
            counts=np.array([[0, 0], [0, 0], [1, 9], [9, 1], [5, 5]], dtype=np.float64),
        )
        model = manual_model([tree], ["a", "b"])
        background = rows(*([a, 0.5] for a in bg_a))
        X = rows([-1.0, 0.0], [-0.5, 3.0])
        assert_matches_oracle(model, background, X)

    def test_one_row(self):
        model, background, X = random_forest_case(3)
        explainer, phi = assert_matches_oracle(model, background, X[:1])
        assert phi.shape == (1, len(model.feature_names))
        assert explainer.explain_row(X[0]).tolist() == phi[0].tolist()

    def test_rows_cross_the_chunk_boundary(self, monkeypatch):
        rng = np.random.default_rng(8)
        X, y = random_rows(rng, 50, 4)
        model = fit_forest(X, y, ["a", "b", "c", "d"], ForestConfig(n_trees=4), seed=8)
        background, instances = X[:10], X[10:27]
        whole = TreeShapExplainer(model, background).explain_rows(instances)
        chunks = []
        walk = TreeShapExplainer._walk
        monkeypatch.setattr(TreeShapExplainer, "_walk", lambda self, X, phi: chunks.append(len(X)) or walk(self, X, phi))
        monkeypatch.setattr(shapley, "FRONTIER_ENTRIES", 400)
        _explainer, phi = assert_matches_oracle(model, background, instances)
        # the first chunk is sized from the leaves, later ones from the
        # widest level before them
        assert len(set(chunks)) > 1 and sum(chunks) == len(instances)
        assert phi.view(np.uint64).tolist() == whole.view(np.uint64).tolist()

    def test_row_shape_mismatch(self):
        model = manual_model([leaf_tree([1, 1])], ["a", "b"])
        explainer = TreeShapExplainer(model, np.zeros((3, 2)))
        with pytest.raises(FeatureMismatch):
            explainer.explain_rows(np.zeros((2, 3)))

    @pytest.mark.parametrize("budget", [None, 1, 300], ids=["default", "1", "300"])
    def test_frontier_budget_gives_the_same_phi(self, monkeypatch, budget):
        # 150 background rows go in three groups, the last of 22 rows;
        # each row's phi is its one-row call's, bit for bit
        rng = np.random.default_rng(17)
        X, y = random_rows(rng, 200, 4)
        model = fit_forest(X, y, ["a", "b", "c", "d"], ForestConfig(n_trees=3), seed=17)
        background, instances = X[:150], X[150:166]
        default = TreeShapExplainer(model, background).explain_rows(instances)
        if budget is not None:
            monkeypatch.setattr(shapley, "FRONTIER_ENTRIES", budget)
        explainer, phi = assert_matches_oracle(model, background, instances)
        assert phi.view(np.uint64).tolist() == default.view(np.uint64).tolist()
        for x, row_phi in zip(instances, phi):
            assert explainer.explain_row(x).view(np.uint64).tolist() == row_phi.view(np.uint64).tolist()
        assert phi.view(np.uint64).tolist() == oracle_walk_rows(model, background, instances).view(np.uint64).tolist()

    def test_large_deep_forest(self):
        # 60 fitted trees on 20 features, deep enough that paths split a
        # feature more than once, with single-leaf trees among them
        rng = np.random.default_rng(31)
        names = [f"f{j}" for j in range(20)]
        X, y = random_rows(rng, 160, 20)
        forest = fit_forest(X, y, names, ForestConfig(n_trees=57), seed=31)
        fitted = trees_of(forest.trees)
        trees = fitted[:20] + [leaf_tree([3, 1])] + fitted[20:40] + [leaf_tree([0, 2])]
        model = manual_model(trees + fitted[40:] + [leaf_tree([1, 1])], names)
        assert_matches_oracle(model, X[:24], X[130:136])
        assert max(_depth(t) for t in fitted) >= 10

    def test_more_than_64_features_and_full_background_groups(self):
        # P and N take two 64-bit words per entry; 128 background rows
        # fill two masks
        rng = np.random.default_rng(23)
        names = [f"f{j}" for j in range(70)]
        X, y = random_rows(rng, 260, 70)
        model = fit_forest(X, y, names, ForestConfig(n_trees=4), seed=23)
        background, instances = X[:128], X[250:256]
        assert set(model.trees.feature.tolist()) & set(range(64, 70))
        _explainer, phi = assert_matches_oracle(model, background, instances)
        assert phi.view(np.uint64).tolist() == oracle_walk_rows(model, background, instances).view(np.uint64).tolist()

    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_breadth_first_numbering_gives_the_same_phi(self, seed):
        model, background, X = random_forest_case(seed)
        renumbered = replace(model, trees=forest_of([_breadth_first(t) for t in trees_of(model.trees)]))
        renumbered = model_from_json(model_to_json(renumbered))
        assert model.trees.left.tolist() != renumbered.trees.left.tolist()
        assert renumbered.predict_proba(X).tolist() == model.predict_proba(X).tolist()
        want = TreeShapExplainer(model, background).explain_rows(X)
        got = TreeShapExplainer(renumbered, background).explain_rows(X)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_nan_threshold_sends_every_row_right(self):
        tree = Tree(
            feature=np.array([0, 1, -1, -1, 0, -1, -1]),
            threshold=np.array([0.5, np.nan, 0.0, 0.0, np.nan, 0.0, 0.0]),
            left=np.array([1, 2, -1, -1, 5, -1, -1]),
            right=np.array([4, 3, -1, -1, 6, -1, -1]),
            counts=np.array([[0, 0], [0, 0], [3, 1], [1, 2], [0, 0], [2, 6], [1, 9]], dtype=np.float64),
        )
        model = manual_model([tree], ["a", "b"])
        background = rows([-2.0, 0.0], [-0.5, 1.0], [3.0, -1.0], [1.5, 0.2])
        assert_matches_oracle(model, background, rows([-0.7, 0.3], [2.0, 0.9], [0.4, -0.4]))

    def test_empty_background(self):
        model, background, _X = random_forest_case(2)
        with pytest.raises(EmptySample, match="background"):
            TreeShapExplainer(model, background[:0])

    def test_no_rows_to_summarize(self):
        model, background, X = random_forest_case(2)
        with pytest.raises(EmptySample, match="no rows to explain"):
            shap_summary(model, X[:0], background=background)

    def test_non_finite_values_are_refused(self):
        # a NaN would route right at every split, unlike the imputed value
        # brute_shapley explains
        rng = np.random.default_rng(4)
        X, y = random_rows(rng, 30, 3)
        model = fit_forest(X, y, ["a", "b", "c"], ForestConfig(n_trees=5), seed=4)
        explainer = TreeShapExplainer(model, X[:10])
        with pytest.raises(NonFiniteValue, match="row 1 .*impute"):
            explainer.explain_rows(rows([0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]))
        with pytest.raises(NonFiniteValue, match="background row 2"):
            TreeShapExplainer(model, rows([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [np.inf, 0.0, 0.0]))


def _depth(tree):
    depth = np.zeros(len(tree.feature), dtype=np.int64)
    for i in np.flatnonzero(tree.feature != -1):
        depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
    return int(depth.max())


def _breadth_first(tree):
    """The tree with its nodes numbered level by level from the root."""
    order, at = [0], 0
    while at < len(order):
        node = order[at]
        if tree.feature[node] != -1:
            order += [int(tree.left[node]), int(tree.right[node])]
        at += 1
    new_id = np.append(np.empty(len(order), dtype=np.int64), -1)  # a leaf's -1 stays -1
    new_id[order] = np.arange(len(order))
    return Tree(
        feature=tree.feature[order], threshold=tree.threshold[order],
        left=new_id[tree.left[order]], right=new_id[tree.right[order]], counts=tree.counts[order],
    )
