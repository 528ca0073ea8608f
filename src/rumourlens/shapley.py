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
forbidden set N, and the leaf's value enters phi_j weighted by
A(p, q) = sum_k C(d-1-p-q, k) * s!(d-1-s)!/d! at s = p + k, in closed
form p! q! / (p+q+1)! (the share of the orders of j and p + q other
features that put p given ones before j and the q others after it):

    j in P:  phi_j += leaf_value * A(p-1, q)
    j in N:  phi_j -= leaf_value * A(p, q-1)

Averaging over background rows and trees gives the forest attribution;
additivity (base + sum(phi) = output) holds to float accumulation error,
and ``pipeline.stage_explain`` checks it for every explained row.
``brute_shapley`` evaluates the defining subset sum directly and is the
test oracle for the fast path.

The explainer packs the forest once (``_leaf_table``). It descends all
trees together, one level per step, over the node table that
``classify.pack_forest`` builds for prediction too, and lists every leaf
with its tree, its value and one slot per distinct feature its path
splits: the bounds lo < x <= hi that the path's conditions on that
feature set. A row meets a slot iff it meets each of those conditions,
and a pair (row, background row) reaches the leaf iff one of the two
meets each slot, so a feature split twice on a path needs no case of
its own: it is required where only the row meets its slot and forbidden
where only the background row does. The leaves are listed by tree and,
within a tree, depth first and left before right, an order taken from
the paths' turns and not from node ids. Which background rows meet
which slot is computed once; the base value takes every tree's output
on the background from one route of the whole forest
(``classify.leaf_values``).

``explain_rows`` returns the phi of many rows at once, in the model's
column order; ``explain_row`` is its one-row call. Rows go in chunks of
``BLOCK_CELLS // max(b * most slots on a path, trees * d)``, at least
one: one leaf fits a block of ``BLOCK_CELLS`` (rows x leaves x slots x
background rows) booleans, and the chunk's (rows x trees x features)
accumulator ``BLOCK_CELLS`` floats. The leaves go in windows of their
share columns; within a window the leaves with the same number of slots
u share blocks, each scored in one pass; a block of several leaves, and
a window's share table, keep to ``BLOCK_CELLS`` bytes of floats. In a
pair that reaches the leaf, each slot the row does not meet is
forbidden, with the same share for all of them, and a slot the row
meets has no forbidden share: only one share per slot is computed.

Each phi is the float the one-row, one-leaf path gives, bit for bit,
whatever the chunk, window and block sizes: a share is a sum over the
contiguous background axis, as there; it is scaled by the leaf value;
the shares reach a tree's phi in the accumulator by an unbuffered add
(``np.add.at``) in the tree's leaf order (the share left out of a slot
is an exact zero, which adds nothing), so no window carries a tree to
the next; each tree's phi is divided by the background size; and the
trees are added in order by a running sum before dividing by their
count. The ranking's mean |phi| is a plain column sum:
``shap_rankings.json`` keeps 10 significant digits of it, so the order
of that sum can move a written value only where it lies on a rounding
boundary at the 10th digit.

Instances and background sets are raw feature rows in the model's column
order, NaN marking an absent value (the `<name>__absent` flag in
features.csv); both are imputed with the model's frozen training medians
before they are explained, and the explainer refuses a non-finite value
(NonFiniteValue): a NaN would go right at every split.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

import numpy as np

from .classify import RandomForestModel, Tree, leaf_values, pack_forest
from .errors import EmptySample, FeatureMismatch, NonFiniteValue, TooManyFeatures

BRUTE_FORCE_MAX_FEATURES = 12

DEFAULT_BACKGROUND_LIMIT = 256

# cap on the cells of one block, rows x leaves x slots x background rows;
# a block of several leaves, and a window's tables, keep to this many bytes
# of floats
BLOCK_CELLS = 1 << 18


@lru_cache(maxsize=32)
def _weight_table(d: int) -> np.ndarray:
    """A[p, q] = p! q! / (p + q + 1)! for p + q <= d - 1, rounded once."""
    table = np.zeros((d + 1, d + 1))
    for p in range(d):
        for q in range(d - p):
            table[p, q] = factorial(p) * factorial(q) / factorial(p + q + 1)
    return table


@dataclass
class _LeafGroup:
    """The leaves whose paths split on u distinct features.

    Slot s of a leaf stands for every condition on its path on one
    feature, features ascending: a row meets them all iff
    lo < x[feature] <= hi."""

    leaves: np.ndarray  # positions in the table's leaf order, ascending
    feature: np.ndarray  # leaves x u
    lo: np.ndarray  # leaves x u
    hi: np.ndarray  # leaves x u
    sat_bg: np.ndarray  # leaves x u x background rows: the row meets the slot


@dataclass
class _LeafTable:
    """Every leaf of a forest that has a path (a single-leaf tree moves no
    phi), by tree and, within a tree, depth first and left before right.
    Leaf l owns share columns col0[l] to col0[l + 1], one per slot."""

    tree: np.ndarray  # per leaf
    value: np.ndarray  # per leaf
    col0: np.ndarray  # per leaf, then the column count
    col_cell: np.ndarray  # per share column: tree * features + feature
    groups: list[_LeafGroup]
    widest: int  # most slots on one path


def _leaf_table(trees: list[Tree], background: np.ndarray) -> _LeafTable:
    start, feature, threshold, left, right, value = pack_forest(trees)
    nodes = len(feature)
    # descend every tree from its root, one level per step, carrying each
    # node's path: the nodes from the root, + nodes where it turns right
    node, tree = start, np.arange(len(trees))
    path = np.empty((len(trees), 0), dtype=np.int64)
    found = []  # per depth: the leaves there, their trees and paths
    while node.size:
        leaf = feature[node] == -1
        found.append((node[leaf], tree[leaf], path[leaf]))
        node, tree, path = node[~leaf], tree[~leaf], path[~leaf]
        path = np.hstack([np.vstack([path, path]), np.concatenate([node, node + nodes])[:, None]])
        node = np.concatenate([left[node], right[node]])
        tree = np.concatenate([tree, tree])
    node = np.concatenate([n for n, _, _ in found])
    tree = np.concatenate([t for _, t, _ in found])
    steps = np.full((node.size, len(found)), -1)
    filled = 0
    for depth, (_, _, path) in enumerate(found):
        steps[filled : filled + len(path), :depth] = path
        filled += len(path)
    # depth first and left before right is the order of the turns from the
    # root; no path is a prefix of another, so padding cannot tie
    order = np.lexsort([*(steps >= nodes).T[::-1], tree])
    order = order[steps[order, 0] >= 0]  # a single-leaf tree moves no phi
    node, tree, steps = node[order], tree[order], steps[order]

    # one slot per feature a leaf's path splits, features ascending: the
    # bounds lo < x <= hi its conditions on that feature set (a NaN
    # threshold sends every row right, as a split on it does)
    on_path = steps >= 0
    leaf, step = np.nonzero(on_path)[0], steps[on_path]
    split = step % nodes
    by_slot = np.lexsort([feature[split], leaf])
    leaf, split, right = leaf[by_slot], split[by_slot], step[by_slot] >= nodes
    opens = np.ones(leaf.size, dtype=bool)
    opens[1:] = (leaf[1:] != leaf[:-1]) | (feature[split[1:]] != feature[split[:-1]])
    first = np.flatnonzero(opens)
    slot_lo = np.fmax.reduceat(np.where(right, threshold[split], -np.inf), first)
    slot_hi = np.minimum.reduceat(np.where(right, np.inf, threshold[split]), first)
    col_feature = feature[split[first]]
    slots = np.bincount(leaf[first], minlength=node.size)
    col0 = np.concatenate([[0], np.cumsum(slots)])
    groups = []
    for u in np.unique(slots):
        leaves = np.flatnonzero(slots == u)
        cols = col0[leaves, None] + np.arange(u)
        lo, hi = slot_lo[cols], slot_hi[cols]
        sat_bg = _meets(background.T[col_feature[cols]], lo[..., None], hi[..., None])
        groups.append(_LeafGroup(leaves, col_feature[cols], lo, hi, sat_bg))
    return _LeafTable(
        tree=tree,
        value=value[node],
        col0=col0,
        col_cell=np.repeat(tree, slots) * background.shape[1] + col_feature,
        groups=groups,
        widest=int(slots.max(initial=0)),
    )


def _meets(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether x goes the path's way at every condition of a slot: left
    (x <= threshold) at each up to hi, right (not x <= threshold) at each
    up to lo."""
    return (x <= hi) & ~(x <= lo)


class TreeShapExplainer:
    """Explains instances against a fixed model and background set."""

    def __init__(self, model: RandomForestModel, background: np.ndarray):
        if background.ndim != 2 or background.shape[1] != len(model.feature_names):
            raise FeatureMismatch("background shape does not match the model's features")
        if not background.shape[0]:
            raise EmptySample("the background set has no rows")
        _require_finite(background, "background row")
        self.model = model
        self.background = background
        self.d = len(model.feature_names)
        # row 0 holds A[p - 1, q] at p * (d + 1) + q and row 1 A[p, q - 1],
        # plus a last 0.0 for pairs that never reach the leaf
        A = _weight_table(self.d)
        self._A = np.stack([
            np.append(np.vstack([A[:1], A[:-1]]), 0.0),
            np.append(np.hstack([A[:, :1], A[:, :-1]]), 0.0),
        ])
        self._leaves = _leaf_table(model.trees, background)
        # rows per chunk, so that one leaf with the most slots fits a block
        # and the chunk's accumulator keeps to BLOCK_CELLS floats
        cells = max(background.shape[0] * self._leaves.widest, len(model.trees) * self.d)
        self._chunk_rows = max(1, BLOCK_CELLS // cells)
        # each tree's mean output over the background, then their mean
        self.base_value = float(leaf_values(model.trees, background).mean(axis=1).mean())

    def explain_row(self, x: np.ndarray) -> np.ndarray:
        """phi of one imputed row, in the model's column order."""
        return self.explain_rows(x.reshape(1, -1))[0]

    def explain_rows(self, X: np.ndarray) -> np.ndarray:
        """phi of each imputed row of `X` (rows x model features). A row's
        phi does not depend on the other rows or on the block sizes, bit
        for bit: trees are added in order, each divided by the background
        size first."""
        if X.ndim != 2 or X.shape[1] != self.d:
            raise FeatureMismatch("instance shape does not match the model's features")
        _require_finite(X, "row")
        phi = np.zeros(X.shape)
        step = self._chunk_rows
        for start in range(0, X.shape[0], step):
            phi[start : start + step] = self._chunk_phi(X[start : start + step])
        phi /= len(self.model.trees)
        return phi

    def _chunk_phi(self, X: np.ndarray) -> np.ndarray:
        """The sum of the trees' phi for a chunk of rows, added in tree
        order.

        The leaves go in windows of their share columns, whose (rows x
        columns) share table keeps to about BLOCK_CELLS bytes; each block
        of a window's leaves writes its shares there. One unbuffered add
        carries them, in column order (each tree's leaf order), into the
        chunk's (rows x trees x features) accumulator, so no window
        leaves state for the next. Then each tree's phi is divided by the
        background size and a running sum adds the trees in order."""
        table, rows = self._leaves, X.shape[0]
        acc = np.zeros((rows, len(self.model.trees), self.d))
        floats = BLOCK_CELLS // np.dtype(float).itemsize
        cuts = np.flatnonzero(np.diff(table.col0[:-1] // max(1, floats // rows))) + 1
        for l0, l1 in zip([0, *cuts], [*cuts, table.value.size]):
            c0, c1 = table.col0[l0], table.col0[l1]
            shares = np.zeros((rows, c1 - c0))
            for group in table.groups:
                lo, hi = np.searchsorted(group.leaves, [l0, l1])
                per = max(1, floats // (rows * group.sat_bg[0].size))
                for at in range(lo, hi, per):
                    self._score_block(group, slice(at, min(at + per, hi)), X, shares, c0)
            np.add.at(acc.reshape(-1), np.arange(0, acc.size, acc[0].size)[:, None] + table.col_cell[c0:c1], shares)
        acc /= self.background.shape[0]
        return np.cumsum(acc, axis=1, out=acc)[:, -1]

    def _score_block(self, group: _LeafGroup, block: slice, X: np.ndarray, shares, c0: int) -> None:
        """Write the shares of a block of a group's leaves for every row
        of `X` into `shares`, whose column 0 is share column c0.

        Where a background row reaches the leaf with the row, each slot
        the row does not meet the background row meets: the slot's
        feature is forbidden, and its share is the same sum for all such
        slots of the pair. A slot the row meets is required where the
        background row does not meet it. Each share is a sum over one
        contiguous background row: the order a one-row sum adds in.
        Pairs with no background row to reach the leaf with would write
        zeros and are left out."""
        u = group.feature.shape[1]
        sat_x = _meets(X[:, group.feature[block]], group.lo[block], group.hi[block])
        sat_r = group.sat_bg[block]
        leaves, b = sat_r.shape[0], sat_r.shape[2]
        # pairs where a slot fails on both sides never reach the leaf
        alive = (sat_x[..., None] | sat_r).all(axis=2)
        pair = np.flatnonzero(alive.any(axis=2))
        if not pair.size:
            return
        row, leaf = np.divmod(pair, leaves)
        x_meets = sat_x.reshape(-1, u)[pair]
        required = x_meets[..., None] & ~sat_r[leaf]
        # p required and q forbidden features pick each pair's weights
        at = np.multiply(required.view(np.uint8).sum(axis=1, dtype=np.min_scalar_type(u)), self.d + 1, dtype=np.intp)
        at += u - x_meets.sum(axis=1, keepdims=True)
        at[~alive.reshape(-1, b)[pair]] = self._A.shape[1] - 1
        a_pos, a_neg = self._A.take(at, axis=1)
        position = group.leaves[block][leaf]
        value = self._leaves.value[position, None]
        share = np.where(x_meets, 0.0, -(value * a_neg.sum(axis=1, keepdims=True)))
        # required shares, where some background row does not meet the slot
        some = np.flatnonzero(x_meets & ~sat_r.all(axis=2)[leaf])
        weights = a_pos[some // u]
        weights *= required.reshape(-1, b)[some]
        share.reshape(-1)[some] = value[some // u, 0] * weights.sum(axis=1)
        cols = (row * shares.shape[1] - c0)[:, None] + self._leaves.col0[position, None] + np.arange(u)
        shares.reshape(-1)[cols] = share


def _require_finite(X: np.ndarray, what: str) -> None:
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise NonFiniteValue(
            f"{what} {int(bad.argmax())} holds a non-finite value; impute with the model's medians first"
        )


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
    if not len(X):
        raise EmptySample("no rows to explain")
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
