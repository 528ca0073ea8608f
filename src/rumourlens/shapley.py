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
The tests check the walk against ``brute_shapley`` (in
``tests/shapley_oracle.py``), which evaluates the defining subset sum
directly.

The explainer walks the forest once per chunk of rows, over the node
table ``classify.pack_forest`` builds for prediction too: every (row,
tree) pair of the chunk descends together, one level per step. A
frontier entry is a row, a node, the required set P and the forbidden
set N (bit sets, with their sizes p and q kept as counters) and a mask
of up to 64 background rows (one group; a larger background has
several). At a split on feature f the background rows that go the
row's way follow it; those that go the other way branch into two
entries, the row's child with f added to P and their own child with f
added to N. A feature already in P sends every background row the
row's way, and one in N each its own way. At a leaf, value *
popcount(mask) * A(p-1, q) is due to each feature in P and -value *
popcount(mask) * A(p, q-1) to each in N: the sum over the pairs the
leaf formula above counts. Which way each background row goes at each
node is computed once, one bit per row.

Each feature in an entry's P or N was added by exactly one entry on its
way down. So instead of spreading each leaf's terms over its features,
the walk keeps each level's parent links and leaf terms, then sums them
back up: every entry gets the sums of the P terms and of the N terms of
the leaves below it, and the entry that added f to P (or N) adds its P
(or N) sum to phi_f. That costs a few operations per entry walked,
whatever p and q are.

``explain_rows`` returns the phi of many rows at once, in the model's
column order; ``explain_row`` is its one-row call. A chunk of rows walks
about ``FRONTIER_ENTRIES`` entries, all levels together: the first
chunk holds that many rows per 8 x leaves x background groups of the
forest, each later one as many as the entries per row of the chunk
before it allow, at least one. A level lists the entries that follow
the row, then those sent their own way, then those sent the row's way,
each in its parents' order. So each row's entries, their sums (a
parent adds its children in level order) and the adds into phi
(``np.add.at``, deepest level first, each in level order) come in an
order set by that row alone, and the sum is divided by the background
size times the trees: each phi is the same float, bit for bit, whatever
the other rows and the chunk sizes. It differs from adding the formula
above leaf by leaf only in the last bits. ``shap_summary``'s mean |phi|
is a plain column sum, in column order and unsorted:
``shap_rankings.json`` keeps 10 significant digits of it, and
``shap_<event>.csv`` writes |phi| below ``report.PHI_FLOOR`` as 0.

Instances and background sets are raw feature rows in the model's column
order, NaN marking an absent value (the `<name>__absent` flag in
features.csv); both are imputed with the model's frozen training medians
before they are explained, and the explainer refuses a non-finite value
(NonFiniteValue): a NaN would go right at every split.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .classify import RandomForestModel, leaf_values, pack_forest
from .errors import EmptySample, FeatureMismatch, NonFiniteValue

DEFAULT_BACKGROUND_LIMIT = 256

# entries a chunk of rows walks, over all its levels, about: the first
# chunk is sized from the forest's leaves, later ones from what the walk
# measured
FRONTIER_ENTRIES = 1 << 17


@lru_cache(maxsize=32)
def _weight_table(d: int) -> np.ndarray:
    """A[p, q] = p! q! / (p + q + 1)! for p + q <= d - 1, rounded once."""
    table = np.zeros((d + 1, d + 1))
    for p in range(d):
        for q in range(d - p):
            table[p, q] = factorial(p) * factorial(q) / factorial(p + q + 1)
    return table


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
        # A[p - 1, q] and -A[p, q - 1] at p * (d + 1) + q: the weights of a
        # leaf's required and forbidden features
        A = _weight_table(self.d)
        self._weights = np.stack([np.vstack([A[:1], A[:-1]]).ravel(), -np.hstack([A[:, :1], A[:, :-1]]).ravel()])
        self._forest = pack_forest(model.trees)
        feature, threshold = self._forest[1:3]
        # bit r % 64 of [r // 64, node]: background row r goes left there
        groups = -(-background.shape[0] // 64)
        self._goes_left = np.zeros((groups, feature.size), dtype=np.uint64)
        for r, row in enumerate(background):
            self._goes_left[r // 64] |= (row[feature] <= threshold).astype(np.uint64) << np.uint64(r % 64)
        # a row walks a few entries per leaf and background group
        self._first_rows = max(1, FRONTIER_ENTRIES // (8 * int((feature == -1).sum()) * groups))
        # each tree's mean output over the background, then their mean
        self.base_value = float(leaf_values(model.trees, background).mean(axis=1).mean())

    def explain_row(self, x: np.ndarray) -> np.ndarray:
        """phi of one imputed row, in the model's column order."""
        return self.explain_rows(x.reshape(1, -1))[0]

    def explain_rows(self, X: np.ndarray) -> np.ndarray:
        """phi of each imputed row of `X` (rows x model features). A row's
        phi does not depend on the other rows or on the chunk sizes, bit
        for bit."""
        if X.ndim != 2 or X.shape[1] != self.d:
            raise FeatureMismatch("instance shape does not match the model's features")
        _require_finite(X, "row")
        phi = np.zeros(X.shape)
        at, rows = 0, self._first_rows
        while at < X.shape[0]:
            walked = self._walk(X[at : at + rows], phi[at : at + rows])
            at += rows
            rows = max(1, FRONTIER_ENTRIES * rows // walked)
        phi /= self.background.shape[0] * len(self.model.trees)
        return phi

    def _walk(self, X: np.ndarray, phi: np.ndarray) -> int:
        """Add the phi terms of the rows of `X` to `phi`; return the number
        of entries walked.

        Going down, each level keeps its leaves' terms and, per entry of
        the next level, its parent and its credit: 2 x the phi cell (row x
        features + f) of the feature f it put in P, or that plus 1 for N,
        or -1. Going back up, each entry's sums of its leaves' P and N
        terms reach its credit cell and then its parent."""
        start, groups = self._forest[0], self._goes_left.shape[0]
        # one entry per (row, tree, background group), with all its rows
        row = np.repeat(np.arange(X.shape[0]), start.size * groups)
        group = np.tile(np.arange(groups), X.shape[0] * start.size)
        last = self.background.shape[0] - 64 * (groups - 1)
        frontier = (
            row,
            np.tile(np.repeat(start, groups), X.shape[0]),
            group,
            np.where(group == groups - 1, np.uint64(2**last - 1), np.uint64(2**64 - 1)),
            np.zeros((row.size, 2 * -(-self.d // 64)), dtype=np.uint64),
            np.zeros(row.size, dtype=np.intp),
        )
        levels, walked = [], 0
        while frontier[0].size:
            walked += frontier[0].size
            level, frontier = self._level(X, *frontier)
            levels.append(level)
        sums = np.zeros((2, 0))  # per entry of the level below: P, N
        for size, leaf, terms, parent, credit in reversed(levels):
            got = np.flatnonzero(credit >= 0)
            np.add.at(phi.reshape(-1), credit[got] >> 1, sums.reshape(-1)[(credit[got] & 1) * sums.shape[1] + got])
            up = np.zeros((2, size))
            up[:, leaf] = terms
            up[0] += np.bincount(parent, sums[0], minlength=size)
            up[1] += np.bincount(parent, sums[1], minlength=size)
            sums = up
        return walked

    def _level(self, X, row, node, group, mask, sets, pq):
        """One step down: the level's record for the way back up, and the
        next level's entries.

        An entry's P and N are bit sets, a word per 64 features (P's
        words, then N's), and p and q one code, p * (d + 1) + q."""
        _start, feature, threshold, left, right, value = self._forest
        d, w = self.d, sets.shape[1] // 2
        f = feature[node]
        leaf = np.flatnonzero(f == -1)
        terms = self._weights[:, pq[leaf]] * (value[node[leaf]] * _popcount(mask[leaf]))
        # a leaf's f is -1: what it reads below is never used
        cell = row * d + f
        x_left = X.reshape(-1)[cell] <= threshold[node]
        go_left = self._goes_left.reshape(-1)[group * feature.size + node]
        agree = mask & np.where(x_left, go_left, ~go_left)
        differ = mask ^ agree
        lo, hi = left[node], right[node]
        x_child, own_child = np.where(x_left, lo, hi), np.where(x_left, hi, lo)
        word, bit = f >> 6, np.left_shift(np.uint64(1), (f & 63).astype(np.uint64))
        at = np.arange(row.size) * (2 * w) + word
        in_p = sets.reshape(-1)[at] & bit != 0
        in_n = sets.reshape(-1)[at + w] & bit != 0
        # the background rows that go the row's way follow it (all of them
        # where f is in P); the others go their own way with f in N and,
        # unless f is in N already, the row's way with f in P; a leaf
        # sends nothing on
        follow_mask = np.where(in_p, mask, agree)
        follow_mask[leaf] = differ[leaf] = 0
        follow = np.flatnonzero(follow_mask)
        forbid = np.flatnonzero(~in_p & (differ != 0))
        new = ~in_n[forbid]
        require = forbid[new]
        take = np.concatenate([follow, forbid, require])
        credit = np.concatenate([np.full(follow.size, -1), np.where(new, 2 * cell[forbid] + 1, -1), 2 * cell[require]])
        sets, pq = np.take(sets, take, axis=0), pq[take]
        at = follow.size + np.flatnonzero(new)
        sets[at, w + word[require]] |= bit[require]
        pq[at] += 1
        at = follow.size + forbid.size + np.arange(require.size)
        sets[at, word[require]] |= bit[require]
        pq[at] += d + 1
        return (row.size, leaf, terms, take, credit), (
            row[take],
            np.concatenate([x_child[follow], own_child[forbid], x_child[require]]),
            group[take],
            np.concatenate([follow_mask[follow], differ[forbid], differ[require]]),
            sets,
            pq,
        )


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 (numpy 1.24 has no bitwise_count)."""
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.intp)


def _require_finite(X: np.ndarray, what: str) -> None:
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise NonFiniteValue(
            f"{what} {int(bad.argmax())} holds a non-finite value; impute with the model's medians first"
        )


# ---------------------------------------------------------------------------
# dataset-level summaries


@dataclass(frozen=True)
class ShapSummary:
    mean_abs: np.ndarray  # each feature's mean |phi|, in the model's column order
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
    """Explain every row of `X`, and average each feature's |phi| over
    them. Nothing is sorted here: `report.ranking_entries` ranks.

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
    return ShapSummary(
        mean_abs=np.abs(phi).sum(axis=0) / len(X),
        values=X,
        phi=phi,
        base_value=explainer.base_value,
    )
