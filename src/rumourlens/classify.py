"""Rumour/non-rumour classification under the evaluated protocol:
stratified 80/20 split, stratified k-fold cross-validation on the train
side, and a bagged forest of Gini decision trees. Every model, each
fold's and each final one, comes from one function, `fit_balanced`: it
takes the imputation medians from the training rows alone, oversamples
the minority class among them, and fits, so no test row reaches a fit.

Determinism: everything derives from one integer seed. Tree t draws its
bootstrap and per-node feature subsets from its own stream,
`default_rng(SeedSequence(entropy=seed, spawn_key=(t,)))`, so no tree
depends on the order the trees are built in; they are read from raw PCG64
words in batches, bit for bit what `Generator.integers` and `choice` give
within Floyd's domain (ValueError outside). Missing feature values (NaN
in the feature matrix; the `<name>__absent` flag in features.csv) are
imputed with the training-set median per feature, computed on training
data only. The protocol steps take the feature matrix `X` and the class
vector `y`, and select rows by index arrays.

At each node a random subset of ceil(sqrt(d)) features is considered; if
none of the sampled features admits an impurity-reducing split, the full
feature set is scanned before the node is closed as a leaf. Class 0 is
non-rumour, class 1 is rumour.

Trees grow in lockstep. Each tree keeps a depth-first stack of the nodes
it has yet to create. At each step every tree that still has work pops
nodes from its own stack, closing as leaves those that stop (too few
rows, the depth limit, one class), up to its next node to split, and
takes that node's feature subset, its stream's next. So each tree makes
its draws, and numbers its nodes, in the pre-order of a recursive build:
the models do not depend on how many trees share a step. One search
then scores the candidate cuts of all the popped nodes; the nodes
whose sampled features admit no cut get one more search over their
remaining features. One stable two-way pass then splits the
rows of every node that found a cut: each node's rows are one segment of
a concatenated array, running counts of the rows that go left give each
row its place (O(rows), no sort), and every child gets its rows in parent
order and its class-1 count. What stays per node is taking its subset
and pushing the two children on the tree's stack;
the trees of a forest are cut out of one node array at the end.

The search counts cuts on rank-encoded columns, after SLIQ (Mehta,
Agrawal & Rissanen, EDBT 1996). Each fit encodes its imputed matrix
once: every value becomes its rank among its column's distinct values,
kept in one flat table. Every (node, candidate feature, row) cell
becomes one int64 key of (segment = node and feature, rank, class), and
one sort orders the keys. The cuts are the places where the rank
changes within a segment; cumulative class counts give each cut its
sides' elementwise Gini impurity `1 - (p0*p0 + p1*p1)`, and the node's
own in the same form from the class-1 count of its segments; a cut's
threshold is the midpoint of the node's two distinct values around it.
A search holds at most `SPLIT_BLOCK_CELLS` cells, unpadded (a larger
node is searched alone); a step's nodes are taken in order.

Per node, a cut wins when it beats the best so far by more than 1e-15,
scanning features in order and each feature's cuts ascending; unlike an
argmax, this keeps an earlier cut over a later one that is better only
by rounding. The search replays that record chain for all nodes at
once, over each node's running maxima only: a record beats every
earlier cut of its node. The oracle tests in tests/test_classify.py
compare the search with a scalar one on random nodes and forests, and
whole models with a recursive one-tree-at-a-time builder kept there as
the reference.

Prediction routes a whole forest at once (`leaf_values`): the trees are
packed into one flat node table (`pack_forest`, which the explainer
shares), each tree's child indices offset by its first node, and every
(tree, row) pair descends one level per step until all stand on leaves.
Rows go in chunks of at most `ROUTE_BLOCK_PAIRS` pairs. `predict_proba`
adds the per-tree leaf values with a running sum down the tree axis,
which adds them in tree order, as a loop over the trees would, so the
probabilities do not depend on the chunk size, bit for bit.
`Tree.predict_prob` is the one-tree case of the same route.
`model_from_json` checks a model file's trees once, on the packed
arrays, so that every route ends on a leaf.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from itertools import chain

import numpy as np

from .errors import FeatureMismatch, NonFiniteValue, ParseError, SingleClass, TooFewSamples, warn

CLASSES = ("non-rumour", "rumour")

MODEL_FORMAT_VERSION = 1


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from an arbitrary tag tuple."""
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_features: str = "sqrt"  # "sqrt" or "all"
    min_samples_split: int = 2
    max_depth: int | None = None

    def features_per_split(self, d: int) -> int:
        if self.max_features == "all":
            return d
        return min(d, math.ceil(math.sqrt(d)))


@dataclass
class Tree:
    """Flattened binary tree, the five fields of its model file.
    feature[i] == -1 marks a leaf; counts[i] holds per-class training
    counts at node i (populated at leaves)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray

    def predict_prob(self, X: np.ndarray) -> np.ndarray:
        """P(class 1) per row: the one-tree case of `leaf_values`, the
        route `RandomForestModel.predict_proba` takes for all trees."""
        return leaf_values([self], X)[0]


def _rumour_share(counts: np.ndarray) -> np.ndarray:
    """P(class 1) per node from its (non-rumour, rumour) counts; 0.0 where
    a node holds none."""
    total = counts[:, 0] + counts[:, 1]
    return np.divide(counts[:, 1], total, out=np.zeros(len(total)), where=total > 0)


def _cut_trees(stop: list[int], feature, threshold, left, right, counts) -> list[Tree]:
    """The trees of a forest whose node arrays hold tree t's nodes at
    [stop[t - 1], stop[t]), each array a view."""
    return [
        Tree(feature[a:b], threshold[a:b], left[a:b], right[a:b], counts[a:b]) for a, b in zip([0, *stop[:-1]], stop)
    ]


# (tree, row) pairs routed at once by `leaf_values`; larger inputs are
# routed in chunks of rows
ROUTE_BLOCK_PAIRS = 1 << 13


def pack_forest(trees: list[Tree]):
    """The trees as one flat node table: (each tree's root, then feature,
    threshold, left, right and value per node), tree t's nodes after tree
    t - 1's and child indices offset by each tree's first node. A node's
    value is its class-1 share of its counts, 0.0 where it holds none."""
    sizes = [len(t.feature) for t in trees]
    start = np.cumsum(sizes) - sizes
    offset = np.repeat(start, sizes)
    return (
        start,
        np.concatenate([t.feature for t in trees]),
        np.concatenate([t.threshold for t in trees]),
        np.concatenate([t.left for t in trees]) + offset,
        np.concatenate([t.right for t in trees]) + offset,
        _rumour_share(np.concatenate([t.counts for t in trees])),
    )


def leaf_values(trees: list[Tree], X: np.ndarray) -> np.ndarray:
    """(trees x rows) array: the value of the leaf each row of `X` reaches
    in each tree. The trees are packed into one node table
    (`pack_forest`) and every (tree, row) pair descends together, one
    tree level per step."""
    start, feature, threshold, left, right, value = pack_forest(trees)
    out = np.empty((len(trees), X.shape[0]))
    step = max(1, ROUTE_BLOCK_PAIRS // len(trees))
    for lo in range(0, X.shape[0], step):
        rows = X[lo : lo + step]
        # pair p is (tree p // r, row p % r) of the chunk's r rows
        r = rows.shape[0]
        node = np.repeat(start, r)
        row = np.tile(np.arange(r), len(trees))
        active = np.flatnonzero(feature[node] != -1)
        while active.size:
            at = node[active]
            go_left = rows[row[active], feature[at]] <= threshold[at]
            node[active] = np.where(go_left, left[at], right[at])
            active = active[feature[node[active]] != -1]
        out[:, lo : lo + r] = value[node].reshape(len(trees), r)
    return out


@dataclass
class RandomForestModel:
    trees: list[Tree]
    config: ForestConfig
    seed: int
    feature_names: tuple[str, ...]
    medians: dict[str, float]
    fold_scores: list[float] = field(default_factory=list)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(class 1) per imputed row: the mean of the trees' leaf values,
        routed in one pass over the packed forest and added in tree
        order."""
        if X.shape[1] != len(self.feature_names):
            raise FeatureMismatch(
                f"model expects {len(self.feature_names)} features, got {X.shape[1]}"
            )
        # a running sum down the tree axis adds the trees in order, as a
        # loop of `probs += tree.predict_prob(X)` would
        values = leaf_values(self.trees, X)
        return np.cumsum(values, axis=0, out=values)[-1] / len(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        # ties go to class 0
        return (self.predict_proba(X) > 0.5).astype(np.int64)

    def impute(self, X: np.ndarray) -> np.ndarray:
        """Raw feature rows (NaN = absent) with the frozen medians filled in."""
        if X.shape[-1] != len(self.feature_names):
            raise FeatureMismatch(
                f"model expects {len(self.feature_names)} features, got {X.shape[-1]}"
            )
        return build_matrix(X, [self.medians[name] for name in self.feature_names])


# ---------------------------------------------------------------------------
# matrix assembly and imputation


def compute_medians(X: np.ndarray) -> np.ndarray:
    """Per-column median over the defined (non-NaN) values; 0.0 when a
    column is absent everywhere (nothing to estimate from)."""
    sorted_x = np.sort(X, axis=0, kind="stable")  # absent (NaN) cells sort last
    defined = np.count_nonzero(~np.isnan(X), axis=0)
    medians = np.zeros(X.shape[1])
    odd, even = (np.flatnonzero((defined > 0) & (defined % 2 == r)) for r in (1, 0))
    medians[odd] = sorted_x[defined[odd] // 2, odd]
    medians[even] = (sorted_x[defined[even] // 2 - 1, even] + sorted_x[defined[even] // 2, even]) / 2.0
    return medians


def build_matrix(X: np.ndarray, medians) -> np.ndarray:
    """`X` with every absent (NaN) cell replaced by its column's median."""
    return np.where(np.isnan(X), medians, X)


def _rows_by_class(y: np.ndarray) -> dict[int, np.ndarray]:
    y = np.asarray(y)
    return {int(cls): np.flatnonzero(y == cls) for cls in np.unique(y)}


# ---------------------------------------------------------------------------
# protocol steps


def split_train_test(
    y: np.ndarray, ratio: float = 0.8, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified split into sorted (train, test) row indices; every class
    keeps at least one test row."""
    by_class = _rows_by_class(y)
    if len(by_class) < 2 or any(len(idx) < 2 for idx in by_class.values()):
        raise TooFewSamples("need at least 2 samples of each class to split")
    rng = np.random.default_rng(derive_seed(seed, "split"))
    train_idx, test_idx = [], []
    for cls in sorted(by_class):
        idx = by_class[cls]
        rng.shuffle(idx)
        n_test = max(1, round(len(idx) * (1.0 - ratio)))
        test_idx.append(idx[:n_test])
        train_idx.append(idx[n_test:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


def oversample(y: np.ndarray, seed: int = 0) -> np.ndarray:
    """Row indices that duplicate minority rows (sampled with replacement)
    until the class counts match: every row once, in order, then the
    duplicates. Never applied to test data."""
    by_class = _rows_by_class(y)
    if len(by_class) < 2:
        raise SingleClass("oversampling needs two classes")
    target = max(len(idx) for idx in by_class.values())
    rng = np.random.default_rng(derive_seed(seed, "oversample"))
    out = [np.arange(len(y))]
    for cls in sorted(by_class):
        deficit = target - len(by_class[cls])
        if deficit > 0:
            picks = rng.integers(0, len(by_class[cls]), size=deficit)
            out.append(by_class[cls][picks])
    return np.concatenate(out)


def _rank_codes(X: np.ndarray, y: np.ndarray):
    """The imputed matrix rank-encoded once per fit for the cut search:
    (codes, values, offset, width). `codes[i, j]` is `2 * rank + y[i]`,
    where rank is that of `X[i, j]` among column j's sorted distinct
    values; `values[offset[j] + r]` is column j's value of rank r; no
    column holds more than `width` distinct values."""
    order = np.argsort(X, axis=0, kind="stable")
    sorted_x = np.take_along_axis(X, order, axis=0)
    new = np.ones(X.shape, dtype=bool)
    new[1:] = sorted_x[1:] > sorted_x[:-1]
    codes = np.empty(X.shape, dtype=np.int64)
    np.put_along_axis(codes, order, 2 * (np.cumsum(new, axis=0) - 1) + y[order], axis=0)
    distinct = new.sum(axis=0)
    return codes, sorted_x.T[new.T], np.cumsum(distinct) - distinct, int(distinct.max(initial=1))


# (node, candidate feature, row) cells of one cut search; a step's nodes
# are taken in order into as many searches as that needs, a larger node
# alone. A few arrays of this length live at once; the busiest step of
# perfbench's reactions-model (100 root nodes) holds 12,000 cells, so
# every step there is one search
SPLIT_BLOCK_CELLS = 1 << 16


def _best_splits(codes, rows, n, feature_ids):
    """Best cut of each of K nodes: (impurity decrease, feature, threshold)
    arrays, from the first record above `best + 1e-15` over the cuts of
    the node's `feature_ids` row in order, each feature's cuts ascending;
    (0.0, -1, 0.0) where no cut decreases the impurity.

    `codes` is `_rank_codes` of the imputed matrix; `rows` holds node k's
    `n[k]` row indices as its k-th segment. All cuts of all nodes are
    counted in one sort of one integer key per (node, feature, row) cell,
    and every Gini impurity, a node's and its sides', is the elementwise
    `1 - (p0*p0 + p1*p1)`."""
    codes, values, offset, width = codes
    k_nodes, m = feature_ids.shape
    # key (segment, rank, class) of each cell; segment k * m + i holds the
    # cells of node k's i-th feature, so the sorted keys run node after
    # node, feature after feature, each feature's ranks ascending
    keys = codes.ravel().take(rows[:, None] * codes.shape[1] + np.repeat(feature_ids, n, axis=0))
    keys += np.repeat(np.arange(k_nodes * m).reshape(k_nodes, m) * (2 * width), n, axis=0)
    keys = np.sort(keys, axis=None)
    cells = np.repeat(n, m)
    end = np.cumsum(cells)  # one past each segment's last cell
    start = end - cells
    # class-1 counts up to each cell; a cut after cell c lies between two
    # ranks of one segment
    ones = np.concatenate([[0], np.cumsum(keys & 1)])
    keys >>= 1
    at = keys[1:] != keys[:-1]
    at[end[:-1] - 1] = False
    cut = np.flatnonzero(at)
    segment = keys[cut] // width
    k = segment // m
    first = start[segment]
    # each segment holds all its node's rows, so its class-1 count is the
    # node's, and gives the node's impurity
    total = ones[end] - ones[start]
    impurity = 1.0 - (((cells - total) / cells) ** 2 + (total / cells) ** 2)
    left = (ones[cut + 1] - ones[first]).astype(np.float64)
    right = total[segment] - left
    n_left = (cut + 1 - first).astype(np.float64)
    size = n[k].astype(np.float64)
    n_right = size - n_left
    # each side's Gini weighted by its row count
    decrease = impurity[segment] - (
        n_left * (1.0 - (((n_left - left) / n_left) ** 2 + (left / n_left) ** 2))
        + n_right * (1.0 - (((n_right - right) / n_right) ** 2 + (right / n_right) ** 2))
    ) / size
    # the record chain of every node at once. A record beats 1e-15 (the
    # first record's bar) and every earlier cut of its node. Lifted by its
    # node's index, each node's decreases lie in [k, k + 1), so one running
    # maximum serves all nodes; it rounds, so it keeps each node's strict
    # running maxima and the cuts that tie them after rounding, and drops
    # only cuts below an earlier cut, which are never records
    live = np.flatnonzero(decrease > 1e-15)
    lifted = k[live] + decrease[live]
    live = live[lifted == np.maximum.accumulate(lifted)]
    best = np.zeros(k_nodes)
    record = np.full(k_nodes, -1)
    while live.size:
        # a node's first live cut is its next record, and so is each next
        # one while it beats the one before by more than 1e-15; the live
        # cuts past the run's last record must beat that one so
        owner, v = k[live], decrease[live]
        head = np.ones(live.size, dtype=bool)
        head[1:] = owner[1:] != owner[:-1]
        stop = np.append(head, True)
        stop[1:-1] |= ~(v[1:] > v[:-1] + 1e-15)
        at = np.flatnonzero(stop)
        last = at[1:][head[at[:-1]]] - 1
        record[owner[last]] = live[last]
        best[owner[last]] = v[last]
        live = live[v > best[owner] + 1e-15]
    split = np.flatnonzero(record >= 0)
    c, segment = cut[record[split]], segment[record[split]]
    feature = np.full(k_nodes, -1)
    feature[split] = feature_ids[split, segment % m]
    # the midpoint of the node's two adjacent distinct values around the cut
    base = offset[feature[split]] - segment * width
    threshold = np.zeros(k_nodes)
    threshold[split] = (values[base + keys[c]] + values[base + keys[c + 1]]) / 2.0
    return best, feature, threshold


def _search_nodes(codes, rows, n, feature_ids):
    """(feature, threshold) of `_best_splits` over any number of nodes,
    taken in order into searches of at most `SPLIT_BLOCK_CELLS` cells (a
    larger node alone). `rows` holds node k's `n[k]` rows as its k-th
    segment."""
    feature = np.full(len(n), -1)
    threshold = np.zeros(len(n))
    row_end = np.cumsum(n)
    cell_end = row_end * feature_ids.shape[1]
    start = 0
    while start < len(n):
        done = cell_end[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(cell_end, done + SPLIT_BLOCK_CELLS, side="right")))
        chunk = slice(start, stop)
        _, feature[chunk], threshold[chunk] = _best_splits(
            codes, rows[row_end[start] - n[start] : row_end[stop - 1]], n[chunk], feature_ids[chunk]
        )
        start = stop
    return feature, threshold


_M32, _PCG_MULT = 0xFFFFFFFF, 0x2360ED051FC65DA44385DF649FCCF645
# feature subsets each tree draws with its bootstrap; a tree that splits
# more nodes then draws twice its last batch at a time, up to MAX_SUBSETS,
# as every growing tree holds its batch (uncapped, a 100-tree fit of 13k
# rows peaked 7% higher under tracemalloc)
FIRST_SUBSETS = 8
MAX_SUBSETS = 256
# 32-bit words of the first batch drawn at once: the trees are taken in
# groups of at most this many (one tree with a larger bootstrap alone), as
# whole-forest temporaries raised the peak RSS of a 100-tree fit of 13k rows
# by 5% (x86-64, numpy 2.4)
DRAW_BLOCK_WORDS = 1 << 16


def _pcg64_seeds(seed: int, n_trees: int) -> list[dict]:
    """`PCG64(SeedSequence(entropy=seed, spawn_key=(t,))).state["state"]`
    for every tree t, the spawn word hashed over a vector of every t."""
    # SeedSequence hashes entropy shorter than its 4-word pool as zero
    # words, with a spawn key or without, so up to the spawn word, hashed
    # last, the pool is SeedSequence(seed)'s; by then the hash constant
    # has moved on 4 times per entropy word, and at least 16 times
    const = 0x43B0D7E5 * pow(0x931E8875, 4 * max(4, -(-seed.bit_length() // 32)), 2**32) % 2**32

    def hashmix(v, mult=0x931E8875):
        nonlocal const
        v = (v ^ const) * (const := const * mult & _M32) & _M32
        return v ^ v >> 16

    t = np.arange(n_trees, dtype=np.uint64)
    pool = [(0xCA01F9DD * p - 0x4973F715 * hashmix(t)) & _M32 for p in np.random.SeedSequence(seed).pool.tolist()]
    # generate_state(4, np.uint64), then PCG64's set-seq seeding
    const = 0x8B51F9DD
    half = np.array([hashmix(pool[i % 4] ^ pool[i % 4] >> 16, 0x58F38DED) for i in range(8)])
    s = (half[0::2] | half[1::2] << 32).tolist()
    incs = [((c << 64 | d) << 1 | 1) % 2**128 for c, d in zip(s[2], s[3])]
    return [{"state": (((a << 64 | b) + i) * _PCG_MULT + i) % 2**128, "inc": i} for a, b, i in zip(s[0], s[1], incs)]


def _lemire(u: np.ndarray, bounds) -> tuple[np.ndarray, np.ndarray]:
    """(values, words used, -1 where a row ran out) of draws in [0, b] per
    bound b from each row of 32-bit words `u`, as `Generator` draws them."""
    # word w gives (w * (b + 1)) >> 32, unless the low 32 bits of that lie
    # below (2**32 - b - 1) % (b + 1): then the next word is tried. A bound
    # of 0 gives 0 and reads no word
    bounds = np.asarray(bounds, np.uint64)
    live = np.flatnonzero(bounds)
    values = np.zeros((len(u), len(bounds)), np.int64)
    if u.shape[1] < len(live):
        return values, np.full(len(u), -1)
    excl = bounds[live] + 1
    prod = u[:, : len(live)] * excl
    values[:, live] = prod >> 32
    used = np.full(len(u), len(live))
    reject = (prod & _M32) < (2**32 - excl) % excl
    for r in np.flatnonzero(reject.any(axis=1)).tolist():
        i = int(reject[r].argmax())
        (values[r, live[i:]],), (rest,) = _lemire(u[r : r + 1, i + 1 :], excl[i:] - 1)
        used[r] = i + 1 + rest if rest >= 0 else -1
    return values, used


def _tree_draws(seed: int, n_trees: int, n: int, d: int, m: int):
    """Each tree's bootstrap (n_trees x n) and an iterator over its sorted
    feature subsets, bit for bit `integers(0, n, size=n)`, then one
    `choice(d, m, replace=False)` per split node, of
    `default_rng(SeedSequence(entropy=seed, spawn_key=(t,)))`."""
    # Lemire draws on the 32-bit halves of PCG64's raw words, low half
    # first; a choice is Floyd's m draws, then the shuffle's m - 1, whose
    # values go unused as every subset is sorted. Where `choice` would not
    # take Floyd's path, or a bound needs more than 32 bits, ValueError
    if max(n, d) > 2**32 or (d > 10_000 and m > d // 50):
        raise ValueError(f"draws of {n} rows and {m} of {d} features leave Floyd's 32-bit path")
    bitgen, seeds = np.random.PCG64(), _pcg64_seeds(seed, n_trees)
    per_subset = [*range(d - m, d), *range(m - 1, 0, -1)]

    def take(trees, pos, bounds, slack=8):
        # (values, halves used) of the draws from halves pos on of each tree
        words = []
        for t in trees:
            bitgen.state = {"bit_generator": "PCG64", "state": seeds[t], "has_uint32": 0, "uinteger": 0}
            bitgen.advance(pos // 2)
            words.append(bitgen.random_raw((pos % 2 + len(bounds) + slack + 1) // 2))
        w = np.array(words)
        values, used = _lemire(np.stack([w & _M32, w >> 32], axis=-1).reshape(len(w), -1)[:, pos % 2 :], bounds)
        for r in np.flatnonzero(used < 0).tolist():  # more rejections than slack
            (values[r],), (used[r],) = take([trees[r]], pos, bounds, 2 * slack + len(bounds))
        return values, used

    def floyd(v):  # the sorted subsets of Floyd's draws v[:, i] in [0, d - m + i]
        for i in range(1, m):
            v[:, i] = np.where((v[:, :i] == v[:, i, None]).any(axis=1), d - m + i, v[:, i])
        return np.sort(v, axis=1)

    def subsets(t, batch, pos):
        while True:
            yield from batch
            k = min(2 * len(batch), MAX_SUBSETS)
            (values,), (used,) = take([t], pos, per_subset * k)
            batch, pos = floyd(values.reshape(k, len(per_subset))[:, :m]), pos + int(used)

    bounds = [n - 1] * n + per_subset * FIRST_SUBSETS
    step = max(1, DRAW_BLOCK_WORDS // len(bounds))
    parts = [take(range(n_trees)[lo : lo + step], 0, bounds) for lo in range(0, n_trees, step)]
    values, used = (np.concatenate(part) for part in zip(*parts))
    first = floyd(values[:, n:].reshape(n_trees * FIRST_SUBSETS, len(per_subset))[:, :m])
    return values[:, :n], list(map(subsets, range(n_trees), first.reshape(n_trees, FIRST_SUBSETS, m), used.tolist()))


class _TreeGrowth:
    """One tree of a forest grown in lockstep: its feature subsets, its
    nodes in pre-order and a depth-first stack of the nodes still to create,
    each as (rows, class-1 count, depth, parent, parent's child slot)."""

    def __init__(self, subsets, rows: np.ndarray, ones: int):
        self.subsets = subsets
        # six fields per node: feature, threshold, left, right, class counts
        self.nodes: list = []
        self.stack = [(rows, ones, 0, -1, 0)]
        self.warned_degenerate = False

    def next_split(self, config: ForestConfig):
        """Create the stacked nodes in pre-order, closing each that stops
        as a leaf, up to the first one to split: (node, rows, class-1
        count, depth, drawn features), or None when the tree is done. The
        drawn features, sorted, are the tree's next subset, as in a
        recursive depth-first build."""
        while self.stack:
            rows, ones, depth, parent, slot = self.stack.pop()
            node = len(self.nodes) // 6
            if parent >= 0:
                self.nodes[6 * parent + slot] = node
            n = len(rows)
            self.nodes += (-1, 0.0, -1, -1, n - ones, ones)
            if (
                n < config.min_samples_split
                or (config.max_depth is not None and depth >= config.max_depth)
                or ones in (0, n)
            ):
                continue
            return node, rows, ones, depth, next(self.subsets)
        return None


def _partition(X, y, rows, n, feature, threshold):
    """Split K nodes at once, in one stable two-way pass (no sort). `rows`
    holds node k's `n[k]` row indices as its k-th segment (every node
    holds rows); the node splits at (`feature[k]`, `threshold[k]`).
    Returns (the rows that go left, node after node, each node's in
    parent order; likewise the rows that go right; each node's left row
    count; each node's class-1 count on the left)."""
    go_left = X.ravel().take(rows * X.shape[1] + feature.repeat(n)) <= threshold.repeat(n)
    start = n.cumsum() - n
    n_left = np.add.reduceat(go_left, start, dtype=np.int64)
    left_ones = np.add.reduceat(y.take(rows) * go_left, start)
    # compress: as rows[go_left], several times faster
    return rows.compress(go_left), rows.compress(~go_left), n_left, left_ones


def _grow_forest(X: np.ndarray, y: np.ndarray, config: ForestConfig, seed: int) -> list[Tree]:
    """Grow all trees in lockstep on the rank codes of `X`. Each step,
    every tree that still has work creates its next node to split
    (closing leaves on the way), one cut search scores all those nodes
    (the nodes with no cut on their sampled features get one search over
    the rest), and one partition splits the rows of every node that found
    a cut."""
    n, d = X.shape
    m = config.features_per_split(d)
    codes = _rank_codes(X, y)
    boots, subsets = _tree_draws(seed, config.n_trees, n, d, m)
    growths = list(map(_TreeGrowth, subsets, boots, y[boots].sum(axis=1).tolist()))
    del boots  # each root's rows go with its first split
    while True:
        jobs = [(g, *job) for g in growths if (job := g.next_split(config)) is not None]
        if not jobs:
            break
        _, _, rows, _, _, sampled = zip(*jobs)
        sizes = np.array([len(idx) for idx in rows])
        sampled = np.array(sampled)
        step_rows = np.concatenate(rows)
        feature, threshold = _search_nodes(codes, step_rows, sizes, sampled)
        retry = np.flatnonzero(feature == -1)
        if retry.size and m < d:
            # the complement of each node's draw, ascending
            rest = np.ones((retry.size, d), dtype=bool)
            rest[np.arange(retry.size)[:, None], sampled[retry]] = False
            rest = np.nonzero(rest)[1].reshape(retry.size, d - m)
            feature[retry], threshold[retry] = _search_nodes(
                codes, step_rows[np.repeat(feature == -1, sizes)], sizes[retry], rest
            )
        split = np.flatnonzero(feature != -1)
        if split.size < len(jobs):
            for k in np.flatnonzero(feature == -1).tolist():
                g = jobs[k][0]
                if not g.warned_degenerate:
                    warn("unsplittable node with mixed labels (identical rows); majority leaf used")
                    g.warned_degenerate = True
            jobs = [jobs[k] for k in split.tolist()]
            step_rows = step_rows[np.repeat(feature != -1, sizes)]
            sizes, feature, threshold = sizes[split], feature[split], threshold[split]
        if not jobs:
            continue
        left_rows, right_rows, n_left, left_ones = _partition(X, y, step_rows, sizes, feature, threshold)
        # each node's children: the next run of left rows, and of right rows
        la = ra = 0
        for (g, node, idx, ones, depth, _), f, thr, nl, ol in zip(
            jobs, feature.tolist(), threshold.tolist(), n_left.tolist(), left_ones.tolist()
        ):
            lb, rb = la + nl, ra + len(idx) - nl
            g.nodes[6 * node : 6 * node + 2] = f, thr
            # the right child waits on the stack while the left subtree
            # grows: a copy, so it does not hold this step's whole array
            g.stack.append((right_rows[ra:rb].copy(), ones - ol, depth + 1, node, 3))
            g.stack.append((left_rows[la:lb], ol, depth + 1, node, 2))
            la, ra = lb, rb
    # every tree's nodes in one array, cut back into trees
    stop = np.cumsum([len(g.nodes) // 6 for g in growths]).tolist()
    nodes = np.fromiter(chain.from_iterable(g.nodes for g in growths), np.float64, 6 * stop[-1]).reshape(-1, 6)
    feature, left, right = nodes[:, [0, 2, 3]].T.astype(np.int64)
    return _cut_trees(stop, feature, nodes[:, 1].copy(), left, right, nodes[:, 4:].copy())


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    feature_names,
    config: ForestConfig | None = None,
    seed: int = 0,
    medians: np.ndarray | None = None,
) -> RandomForestModel:
    """Fit a bagged forest on an (already oversampled) training set.

    `medians` are the per-column imputation medians to freeze into the
    model; they default to the medians of `X` itself.
    """
    config = config or ForestConfig()
    if medians is None:
        medians = compute_medians(X)
    X = build_matrix(X, medians)
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise NonFiniteValue(f"training row {row}, feature {feature_names[col]!r}: {X[row, col]} after imputation")
    if len(np.unique(y)) < 2:
        raise SingleClass("training data holds a single class")
    return RandomForestModel(
        trees=_grow_forest(X, y, config, seed),
        config=config,
        seed=seed,
        feature_names=tuple(feature_names),
        medians={name: float(m) for name, m in zip(feature_names, medians)},
    )


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float


def metrics_from_confusion(confusion, averaging: str = "weighted") -> Metrics:
    """Accuracy, and precision, recall and F1 averaged over the classes as
    `averaging` says (weighted by support, macro, or class 1's alone), of a
    confusion matrix whose rows are the true and columns the predicted
    classes. A class's score is 0.0 where its denominator is 0."""
    cm = np.asarray(confusion, dtype=np.float64)
    tp, predicted, actual = np.diag(cm), cm.sum(axis=0), cm.sum(axis=1)
    p = np.divide(tp, predicted, out=np.zeros_like(tp), where=predicted != 0)
    r = np.divide(tp, actual, out=np.zeros_like(tp), where=actual != 0)
    f = np.divide(2 * p * r, p + r, out=np.zeros_like(tp), where=p + r != 0)
    if averaging == "binary":
        scores = (p[1], r[1], f[1])
    elif averaging == "macro":
        scores = (np.mean(p), np.mean(r), np.mean(f))
    elif averaging == "weighted":
        w = actual / actual.sum()
        scores = (np.dot(p, w), np.dot(r, w), np.dot(f, w))
    else:
        raise ValueError(f"unknown averaging {averaging!r}")
    return Metrics(float(np.trace(cm) / cm.sum()), *map(float, scores))


def evaluate(
    model: RandomForestModel, X: np.ndarray, y: np.ndarray, averaging: str = "weighted"
) -> Metrics:
    pred = model.predict(model.impute(X))
    cm = np.zeros((2, 2), dtype=np.int64)
    np.add.at(cm, (y, pred), 1)
    return metrics_from_confusion(cm, averaging=averaging)


def stratified_folds(y: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified fold assignment (sorted row indices per
    fold); k is reduced (with a warning) when the minority class cannot
    cover k folds."""
    by_class = _rows_by_class(y)
    min_class = min(len(v) for v in by_class.values())
    if min_class < 2:
        raise TooFewSamples("cross-validation needs at least 2 samples per class")
    if k > min_class:
        warn(f"reducing folds from {k} to {min_class}")
        k = min_class
    rng = np.random.default_rng(derive_seed(seed, "folds"))
    for cls in sorted(by_class):
        rng.shuffle(by_class[cls])
    # the shuffled rows of each class are dealt round-robin over the folds
    return [
        np.sort(np.concatenate([by_class[cls][f::k] for cls in sorted(by_class)]))
        for f in range(k)
    ]


def fit_balanced(X, y, rows, feature_names, config, seed, oversample_seed) -> RandomForestModel:
    """The training protocol, the one path to a model that `cross_validate`
    (per fold) and the train stage (per final model) take: the imputation
    medians of `X[rows]`, then the minority rows among `rows` oversampled
    (with `oversample_seed`) and the forest fitted on them (with `seed`).
    No row outside `rows` reaches the fit, not even as a duplicate."""
    balanced = rows[oversample(y[rows], seed=oversample_seed)]
    return fit_forest(
        X[balanced], y[balanced], feature_names, config=config, seed=seed, medians=compute_medians(X[rows])
    )


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    feature_names,
    k: int = 10,
    config: ForestConfig | None = None,
    seed: int = 0,
    averaging: str = "weighted",
) -> list[Metrics]:
    """Stratified k-fold CV; each fold's model comes from `fit_balanced`
    on the fold's training portion."""
    results = []
    for fold_no, test_idx in enumerate(stratified_folds(y, k, seed)):
        fold_train = np.setdiff1d(np.arange(len(y)), test_idx)
        fit_seed, oversample_seed = derive_seed(seed, "cv-fit", fold_no), derive_seed(seed, "cv-os", fold_no)
        model = fit_balanced(X, y, fold_train, feature_names, config, fit_seed, oversample_seed)
        results.append(evaluate(model, X[test_idx], y[test_idx], averaging=averaging))
    return results


# ---------------------------------------------------------------------------
# serialization


def model_to_json(model: RandomForestModel) -> str:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(model.config),
        "seed": model.seed,
        "classes": list(CLASSES),
        "feature_names": list(model.feature_names),
        "medians": {k: model.medians[k] for k in sorted(model.medians)},
        "fold_scores": model.fold_scores,
        "trees": [
            {
                "feature": t.feature.tolist(),
                "threshold": t.threshold.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "counts": t.counts.tolist(),
            }
            for t in model.trees
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def model_from_json(text: str) -> RandomForestModel:
    """The model `model_to_json` wrote. ParseError for text that is not
    JSON, another format version or a missing key, and, naming the tree,
    for trees that would not route every row to a leaf."""
    try:
        payload = json.loads(text)
        if payload["format_version"] != MODEL_FORMAT_VERSION:
            raise ParseError(f"unsupported model format {payload['format_version']!r}")
        return RandomForestModel(
            config=ForestConfig(**{f.name: payload["config"][f.name] for f in fields(ForestConfig)}),
            trees=_trees_from_lists(payload["trees"], len(payload["feature_names"])),
            seed=payload["seed"],
            feature_names=tuple(payload["feature_names"]),
            medians=payload["medians"],
            fold_scores=payload.get("fold_scores", []),
        )
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except KeyError as exc:
        raise ParseError(f"missing key {exc}") from exc


def _trees_from_lists(raw: list[dict], d: int) -> list[Tree]:
    """The trees of a model file, parsed into one array per field for the
    whole forest and checked there once, so that every row descends to a
    leaf: each tree has nodes, and as many entries in every field; counts
    are one pair per node; a split node's feature lies in [0, d) and its
    children after it in its own tree; a leaf has no children. Raises
    ParseError naming the tree and the cause."""
    if not raw:
        raise ParseError("the model holds no trees")
    sizes = [len(t["feature"]) for t in raw]
    for i, (t, n) in enumerate(zip(raw, sizes)):
        if n == 0:
            raise ParseError(f"tree {i}: no nodes")
        for key in ("threshold", "left", "right", "counts"):
            if len(t[key]) != n:
                raise ParseError(f"tree {i}: {len(t[key])} {key} entries for {n} nodes")

    def column(key, dtype, shape=()):
        try:
            values = np.array(list(chain.from_iterable(t[key] for t in raw)), dtype=dtype)
            if values.shape[1:] == shape:
                return values
        except (TypeError, ValueError):
            pass
        for i, t in enumerate(raw):  # the first tree at fault
            try:
                fits = np.array(t[key], dtype=dtype).shape[1:] == shape
            except (TypeError, ValueError):
                fits = False
            if not fits:
                what = "(non-rumour, rumour) count pairs" if shape else "numbers"
                raise ParseError(f"tree {i}: {key} entries are not {what}")

    feature, threshold = column("feature", np.int64), column("threshold", np.float64)
    left, right = column("left", np.int64), column("right", np.int64)
    counts = column("counts", np.float64, (2,))
    stop = np.cumsum(sizes)
    node = np.arange(len(feature)) - np.repeat(stop - sizes, sizes)  # index within its tree
    n = np.repeat(sizes, sizes)
    leaf = feature == -1
    for bad, cause in (
        (~leaf & ((feature < 0) | (feature >= d)), lambda k: f"feature {feature[k]} outside [0, {d})"),
        (leaf & ((left != -1) | (right != -1)), lambda k: f"leaf has children {left[k]}, {right[k]}"),
        (~leaf & ((left <= node) | (left >= n)), lambda k: f"left child {left[k]} not in ({node[k]}, {n[k]})"),
        (~leaf & ((right <= node) | (right >= n)), lambda k: f"right child {right[k]} not in ({node[k]}, {n[k]})"),
    ):
        if bad.any():
            k = int(bad.argmax())
            raise ParseError(f"tree {int(np.searchsorted(stop, k, side='right'))}: node {node[k]}: {cause(k)}")
    return _cut_trees(stop.tolist(), feature, threshold, left, right, counts)
