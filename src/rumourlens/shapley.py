"""Shapley attributions for the forest's rumour-class probability.

The game is interventional: for a coalition S, the payoff v(S) is the
mean model output over the background set with the features in S taken
from the instance and the rest from the background row. Per tree the
attributions are computed exactly by leaf/path enumeration:

For one background row, a leaf is reached by the hybrid input iff every
split on its path is satisfied by the side that supplies the feature.
Splits satisfied by both sides constrain nothing; splits satisfied only
by the instance require the feature in S; splits satisfied only by the
background row forbid it; splits satisfied by neither kill the leaf.
Collapsing repeated path features leaves a required set P and a
forbidden set N, and the leaf's value enters phi_j weighted by a closed
form over coalition sizes:

    A(p, q) = sum_k C(d-1-p-q, k) * w(p+k),   w(s) = s!(d-1-s)!/d!

    j in P:  phi_j += leaf_value * A(p-1, q)
    j in N:  phi_j -= leaf_value * A(p, q-1)

Averaging over background rows and trees gives the forest attribution;
additivity (base + sum(phi) = output) holds to float accumulation error.
``brute_shapley`` evaluates the defining subset sum directly and is the
test oracle for the fast path.

Instances and background sets are raw feature rows in the model's column
order, NaN marking an absent value (the `<name>__absent` flag in
features.csv); both are imputed with the model's frozen training medians
before they are explained.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

import numpy as np

from .classify import RandomForestModel, Tree
from .errors import FeatureMismatch, TooManyFeatures

BRUTE_FORCE_MAX_FEATURES = 12

DEFAULT_BACKGROUND_LIMIT = 256


@dataclass(frozen=True)
class ShapExplanation:
    base_value: float
    phi: dict[str, float]
    model_output: float

    def additivity_gap(self) -> float:
        return abs(self.base_value + sum(self.phi.values()) - self.model_output)


@lru_cache(maxsize=32)
def _weight_table(d: int) -> np.ndarray:
    """A[p, q] for p + q <= d - 1, computed exactly then cast to float."""
    w = [Fraction(factorial(s) * factorial(d - 1 - s), factorial(d)) for s in range(d)]
    table = np.zeros((d + 1, d + 1))
    for p in range(d):
        for q in range(d - p):
            m = d - 1 - p - q
            table[p, q] = float(sum(comb(m, k) * w[p + k] for k in range(m + 1)))
    return table


@dataclass
class _LeafPaths:
    """Per-leaf path conditions of one tree, plus the background
    satisfaction matrix (rows x conditions) precomputed once."""

    values: list[float]
    cond_features: list[np.ndarray]
    cond_thresholds: list[np.ndarray]
    cond_dirs: list[np.ndarray]  # True: path goes left (x <= thr)
    sat_bg: list[np.ndarray]
    bg_leaf_prob: np.ndarray  # plain tree output per background row


def _enumerate_leaves(tree: Tree):
    stack = [(0, [])]
    while stack:
        node, conds = stack.pop()
        if tree.feature[node] == -1:
            yield node, conds
            continue
        f, t = int(tree.feature[node]), float(tree.threshold[node])
        stack.append((int(tree.right[node]), conds + [(f, t, False)]))
        stack.append((int(tree.left[node]), conds + [(f, t, True)]))


def _prepare_tree(tree: Tree, background: np.ndarray) -> _LeafPaths:
    paths = _LeafPaths([], [], [], [], [], tree.predict_prob(background))
    for node, conds in _enumerate_leaves(tree):
        feats = np.array([c[0] for c in conds], dtype=np.int64)
        thrs = np.array([c[1] for c in conds])
        dirs = np.array([c[2] for c in conds])
        sat = (background[:, feats] <= thrs) == dirs if conds else np.ones((background.shape[0], 0), bool)
        paths.values.append(tree.leaf_prob(node))
        paths.cond_features.append(feats)
        paths.cond_thresholds.append(thrs)
        paths.cond_dirs.append(dirs)
        paths.sat_bg.append(sat)
    return paths


class TreeShapExplainer:
    """Explains instances against a fixed model and background set."""

    def __init__(self, model: RandomForestModel, background: np.ndarray):
        if background.ndim != 2 or background.shape[1] != len(model.feature_names):
            raise FeatureMismatch("background shape does not match the model's features")
        self.model = model
        self.background = background
        self.d = len(model.feature_names)
        self._A = _weight_table(self.d)
        self._trees = [_prepare_tree(t, background) for t in model.trees]
        self.base_value = float(
            np.mean([tp.bg_leaf_prob.mean() for tp in self._trees])
        )

    def explain_row(self, x: np.ndarray) -> ShapExplanation:
        phi = np.zeros(self.d)
        for paths in self._trees:
            phi += self._tree_phi(paths, x)
        phi /= len(self._trees)
        output = float(self.model.predict_proba(x.reshape(1, -1))[0])
        return ShapExplanation(
            base_value=self.base_value,
            phi={name: float(phi[j]) for j, name in enumerate(self.model.feature_names)},
            model_output=output,
        )

    def _tree_phi(self, paths: _LeafPaths, x: np.ndarray) -> np.ndarray:
        phi = np.zeros(self.d)
        b = self.background.shape[0]
        A = self._A
        for leaf in range(len(paths.values)):
            feats = paths.cond_features[leaf]
            if feats.size == 0:
                continue  # single-leaf tree: no feature influence
            value = paths.values[leaf]
            sat_x = (x[feats] <= paths.cond_thresholds[leaf]) == paths.cond_dirs[leaf]
            sat_r = paths.sat_bg[leaf]
            # rows where any condition fails on both sides never reach the leaf
            alive = ~(~sat_x & ~sat_r).any(axis=1)
            if not alive.any():
                continue
            pos_cond = sat_x & ~sat_r
            neg_cond = ~sat_x & sat_r
            uniq, inverse = np.unique(feats, return_inverse=True)
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


def tree_shap(
    model: RandomForestModel,
    instance: np.ndarray,
    background: np.ndarray,
) -> ShapExplanation:
    explainer = TreeShapExplainer(model, model.impute(background))
    return explainer.explain_row(model.impute(instance))


def brute_shapley(
    model: RandomForestModel,
    instance: np.ndarray,
    background: np.ndarray,
) -> dict[str, float]:
    """Exact Shapley values by full subset enumeration (oracle path)."""
    d = len(model.feature_names)
    if d > BRUTE_FORCE_MAX_FEATURES:
        raise TooManyFeatures(f"{d} features exceeds the 2^d enumeration limit")
    x = model.impute(instance)
    bg = model.impute(background)

    def payoff(subset: tuple[int, ...]) -> float:
        Z = bg.copy()
        if subset:
            Z[:, list(subset)] = x[list(subset)]
        return float(model.predict_proba(Z).mean())

    v = {}
    for size in range(d + 1):
        for subset in combinations(range(d), size):
            v[subset] = payoff(subset)

    weights = {
        s: Fraction(factorial(s) * factorial(d - s - 1), factorial(d)) for s in range(d)
    }
    phi = {}
    for j in range(d):
        others = [f for f in range(d) if f != j]
        total = 0.0
        for size in range(d):
            w = float(weights[size])
            for subset in combinations(others, size):
                with_j = tuple(sorted(subset + (j,)))
                total += w * (v[with_j] - v[subset])
        phi[model.feature_names[j]] = total
    return phi


# ---------------------------------------------------------------------------
# dataset-level summaries


@dataclass(frozen=True)
class ShapPoint:
    instance_id: str
    feature: str
    value: float
    phi: float
    above_median: bool


@dataclass(frozen=True)
class ShapSummary:
    ranking: list[tuple[str, float]]  # (feature, mean |phi|), descending
    points: list[ShapPoint]
    base_value: float


def shap_summary(
    model: RandomForestModel,
    X: np.ndarray,
    ids: list[str],
    background: np.ndarray | None = None,
    background_limit: int = DEFAULT_BACKGROUND_LIMIT,
    seed: int = 0,
) -> ShapSummary:
    """Explain every row of `X` (row i is tweet `ids[i]`); rank features
    by mean |phi|.

    The background defaults to `X` itself and is subsampled (seeded)
    beyond `background_limit` rows for tractability.
    """
    if background is None:
        background = X
    bg = model.impute(background)
    if bg.shape[0] > background_limit:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(bg.shape[0], size=background_limit, replace=False))
        bg = bg[keep]
    explainer = TreeShapExplainer(model, bg)

    X = model.impute(X)
    medians = np.median(X, axis=0)
    abs_sums = np.zeros(len(model.feature_names))
    points = []
    for i, tweet_id in enumerate(ids):
        explanation = explainer.explain_row(X[i])
        for j, name in enumerate(model.feature_names):
            phi_j = explanation.phi[name]
            abs_sums[j] += abs(phi_j)
            points.append(
                ShapPoint(
                    instance_id=tweet_id,
                    feature=name,
                    value=float(X[i, j]),
                    phi=phi_j,
                    above_median=bool(X[i, j] > medians[j]),
                )
            )
    mean_abs = abs_sums / len(X)
    ranking = sorted(
        zip(model.feature_names, mean_abs), key=lambda item: (-item[1], item[0])
    )
    return ShapSummary(
        ranking=[(name, float(v)) for name, v in ranking],
        points=points,
        base_value=explainer.base_value,
    )
