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
additivity (base + sum(phi) = output) holds to float accumulation error,
and ``pipeline.stage_explain`` checks it for every explained row.
``brute_shapley`` evaluates the defining subset sum directly and is the
test oracle for the fast path.

``_prepare_tree`` computes what does not depend on the instance once per
tree: each leaf's path conditions, the background rows' satisfaction of
them and the leaf's distinct path features. The base value takes every
tree's output on the background from one route of the whole forest
(``classify.leaf_values``). ``explain_rows`` returns the phi of many
rows at once, in the model's column order; ``explain_row`` is its
one-row call. Per leaf, a chunk of instances meets the whole
background in one pass over boolean blocks shaped (instances x path
conditions x background rows). A chunk holds at most ``BLOCK_CELLS``
cells: the rows per chunk are ``BLOCK_CELLS // (b * longest path)`` for
each tree, at least one.

The batching keeps the one-row summation order, so each phi is the same
float, bit for bit, whatever the chunk size: per leaf, in leaf order, a
feature's share is a sum over the contiguous background axis, scaled by
the leaf value and added to phi (then the forbidden share subtracted);
each tree's phi is divided by the background size, and the trees are
added in order before dividing by their count. The ranking's mean |phi|
is a plain column sum: ``shap_rankings.json`` keeps 10 significant
digits of it, so the order of that sum can move a written value only
where it lies on a rounding boundary at the 10th digit.

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

from .classify import RandomForestModel, Tree, leaf_values
from .errors import FeatureMismatch, TooManyFeatures

BRUTE_FORCE_MAX_FEATURES = 12

DEFAULT_BACKGROUND_LIMIT = 256

# cap on instances x path conditions x background rows in one boolean block
BLOCK_CELLS = 1 << 18


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
    """One tree's leaves with their path conditions, precomputed once.

    A condition is a column of the tree's side table: for each node n of
    the tree, column n holds `x[feature[n]] <= threshold[n]` (the path
    goes left) and column n + nodes its negation. Leaves without
    conditions (a single-leaf tree) are left out: they move no phi."""

    tree: Tree
    values: list[float]
    cond_cols: list[np.ndarray]  # side-table column per path condition
    sat_bg: list[np.ndarray]  # conditions x background rows
    uniq_features: list[np.ndarray]  # distinct path features
    # the condition that opens each distinct feature, and (condition,
    # feature position) of each later one; None where no feature repeats
    uniq_first: list[np.ndarray | None]
    repeats: list[list[tuple[int, int]]]
    chunk_rows: int  # instances per (instances x conditions x background) block


def _enumerate_leaves(tree: Tree):
    """(leaf, [(node, goes left), ...] from the root), leaves depth first
    and left before right."""
    stack = [(0, [])]
    while stack:
        node, conds = stack.pop()
        if tree.feature[node] == -1:
            yield node, conds
            continue
        stack.append((int(tree.right[node]), conds + [(node, False)]))
        stack.append((int(tree.left[node]), conds + [(node, True)]))


def _side_table(tree: Tree, X: np.ndarray) -> np.ndarray:
    """rows x (2 * nodes): whether each row goes left at each node, then
    whether it goes right (a leaf's columns mean nothing)."""
    goes_left = X[:, tree.feature] <= tree.threshold
    return np.concatenate([goes_left, ~goes_left], axis=1)


def _prepare_tree(tree: Tree, background: np.ndarray) -> _LeafPaths:
    nodes = len(tree.feature)
    bg_sides = _side_table(tree, background).T.copy()
    paths = _LeafPaths(
        tree=tree, values=[], cond_cols=[], sat_bg=[], uniq_features=[], uniq_first=[],
        repeats=[], chunk_rows=0,
    )
    longest = 1
    for leaf, conds in _enumerate_leaves(tree):
        if not conds:
            continue
        cols = np.array([node if left else node + nodes for node, left in conds])
        feats = [int(tree.feature[node]) for node, _ in conds]
        first, position, repeats = [], {}, []
        for c, f in enumerate(feats):
            if f in position:
                repeats.append((c, position[f]))
            else:
                position[f] = len(first)
                first.append(c)
        paths.values.append(float(tree.value[leaf]))
        paths.cond_cols.append(cols)
        paths.sat_bg.append(bg_sides[cols])
        paths.uniq_features.append(np.array(feats)[first])
        paths.uniq_first.append(np.array(first) if repeats else None)
        paths.repeats.append(repeats)
        longest = max(longest, len(conds))
    paths.chunk_rows = max(1, BLOCK_CELLS // (background.shape[0] * longest))
    return paths


class TreeShapExplainer:
    """Explains instances against a fixed model and background set."""

    def __init__(self, model: RandomForestModel, background: np.ndarray):
        if background.ndim != 2 or background.shape[1] != len(model.feature_names):
            raise FeatureMismatch("background shape does not match the model's features")
        self.model = model
        self.background = background
        self.d = len(model.feature_names)
        # A[p, q] as A_pos[p * (d + 1) + q] = A[p - 1, q] and A_neg[...] =
        # A[p, q - 1], plus a last 0.0 for pairs that never reach the leaf
        A = _weight_table(self.d)
        self._A_pos = np.append(np.vstack([A[:1], A[:-1]]), 0.0)
        self._A_neg = np.append(np.hstack([A[:, :1], A[:, :-1]]), 0.0)
        self._trees = [_prepare_tree(t, background) for t in model.trees]
        # each tree's mean output over the background, then their mean
        self.base_value = float(
            np.mean([values.mean() for values in leaf_values(model.trees, background)])
        )

    def explain_row(self, x: np.ndarray) -> np.ndarray:
        """phi of one imputed row, in the model's column order."""
        return self.explain_rows(x.reshape(1, -1))[0]

    def explain_rows(self, X: np.ndarray) -> np.ndarray:
        """phi of each imputed row of `X` (rows x model features). A row's
        phi does not depend on the other rows or on the chunk size, bit
        for bit: trees are added in order, each divided by the background
        size first."""
        if X.ndim != 2 or X.shape[1] != self.d:
            raise FeatureMismatch("instance shape does not match the model's features")
        phi = np.zeros(X.shape)
        for paths in self._trees:
            step = paths.chunk_rows
            for start in range(0, X.shape[0], step):
                phi[start : start + step] += self._tree_phi(paths, X[start : start + step])
        phi /= len(self._trees)
        return phi

    def _tree_phi(self, paths: _LeafPaths, X: np.ndarray) -> np.ndarray:
        """One tree's phi for a chunk of rows.

        Per leaf, blocks run (instances, conditions, background), so each
        phi entry is a sum over one contiguous background row: the order a
        one-row sum adds in. Rows with no background row to reach a leaf
        with would add exact zeros there and are left out of it."""
        phi = np.zeros(X.shape)
        b = self.background.shape[0]
        x_sides = _side_table(paths.tree, X)
        zero = self._A_pos.size - 1
        for leaf, value in enumerate(paths.values):
            sat_x = x_sides[:, paths.cond_cols[leaf], None]
            sat_r = paths.sat_bg[leaf]
            not_x, not_r = ~sat_x, ~sat_r
            # pairs where a condition fails on both sides never reach the leaf
            alive = ~(not_x & not_r).any(axis=1)
            live = alive.any(axis=1)
            rows = slice(None)
            if not live.all():
                if not live.any():
                    continue
                rows = np.flatnonzero(live)
                sat_x, not_x, alive = sat_x[rows], not_x[rows], alive[rows]
                rows = rows[:, None]
            pos = sat_x & not_r
            neg = not_x & sat_r
            first = paths.uniq_first[leaf]
            if first is not None:
                # a feature split more than once: one side must satisfy all
                # of its conditions, or the pair never reaches the leaf
                pos_cond, neg_cond = pos, neg
                pos, neg = pos_cond[:, first], neg_cond[:, first]
                for c, u in paths.repeats[leaf]:
                    pos[:, u] |= pos_cond[:, c]
                    neg[:, u] |= neg_cond[:, c]
                alive &= ~(pos & neg).any(axis=1)
                if not alive.any():
                    continue
            # p required and q forbidden features pick each pair's weights
            at = pos.sum(axis=1) * (self.d + 1) + neg.sum(axis=1)
            at[~alive] = zero
            a_pos = self._A_pos.take(at)
            a_neg = self._A_neg.take(at)
            uniq = paths.uniq_features[leaf]
            phi[rows, uniq] = (
                phi[rows, uniq]
                + value * (a_pos[:, None, :] * pos).sum(axis=2)
                - value * (a_neg[:, None, :] * neg).sum(axis=2)
            )
        return phi / b


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
class ShapSummary:
    ranking: list[tuple[str, float]]  # (feature, mean |phi|), descending
    values: np.ndarray  # imputed rows explained (rows x model features)
    phi: np.ndarray  # their attributions, same shape
    base_value: float


def shap_summary(
    model: RandomForestModel,
    X: np.ndarray,
    background: np.ndarray,
    background_limit: int = DEFAULT_BACKGROUND_LIMIT,
    seed: int = 0,
) -> ShapSummary:
    """Explain every row of `X`; rank features by mean |phi|.

    The background is subsampled (seeded) beyond `background_limit` rows
    for tractability.
    """
    bg = model.impute(background)
    if bg.shape[0] > background_limit:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(bg.shape[0], size=background_limit, replace=False))
        bg = bg[keep]
    explainer = TreeShapExplainer(model, bg)

    X = model.impute(X)
    phi = explainer.explain_rows(X)
    mean_abs = np.abs(phi).sum(axis=0) / len(X)
    ranking = sorted(
        zip(model.feature_names, mean_abs), key=lambda item: (-item[1], item[0])
    )
    return ShapSummary(
        ranking=[(name, float(v)) for name, v in ranking],
        values=X,
        phi=phi,
        base_value=explainer.base_value,
    )
