"""Rumour/non-rumour classification under the evaluated protocol:
stratified 80/20 split, stratified k-fold cross-validation on the train
side, minority oversampling inside training folds only, and a bagged
forest of Gini decision trees.

Determinism: everything derives from one integer seed. Each tree draws
its bootstrap sample and per-node feature subsets from its own RNG
stream derived from (seed, tree index), so no tree depends on the order
in which the trees are built. Missing feature values (NaN in the
feature matrix; the `<name>__absent` flag in features.csv) are imputed
with the training-set median per feature, computed on training data
only. The protocol steps take the feature matrix `X` and the class
vector `y`, and select rows by index arrays.

At each node a random subset of ceil(sqrt(d)) features is considered; if
none of the sampled features admits an impurity-reducing split, the full
feature set is scanned before the node is closed as a leaf. Class 0 is
non-rumour, class 1 is rumour.

Trees grow in lockstep. Each tree keeps a depth-first stack of the nodes
it has yet to create. At each step every tree that still has work pops
nodes from its own stack, closing as leaves those that stop (too few
rows, the depth limit, one class), up to its next node to split, and
draws that node's feature subset from its own RNG. So each tree makes
its draws, and numbers its nodes, in the pre-order of a recursive build:
the models do not depend on how many trees share a step. One batched
search then scores the candidate cuts of all the popped nodes; the
nodes whose sampled features admit no cut get one more batched search
over their remaining features. What stays per node is the RNG draw, the
class counts and the row partition.

The batched search gathers a (nodes x candidate features x rows) block
from the imputed matrix through each node's rows, padding every node to
the longest with a row of +inf in class 0. It sorts each row of the
block, accumulates the class counts along it, and scores every cut with
each side's elementwise Gini impurity `1 - (p0*p0 + p1*p1)`. Cuts
between ties are void, and so is every cut whose right side holds
padding. A block holds at most `SPLIT_BLOCK_CELLS` cells (a larger node
is searched alone); a step's nodes are taken by size into as many
searches as that needs.

Per node, a cut wins when it beats the best so far by more than 1e-15,
scanning features in order and each feature's cuts ascending; unlike an
argmax, this keeps an earlier cut over a later one that is better only
by rounding. The batched search replays that record chain for all nodes
at once. The decreases are not bit-identical to `1 - np.dot(p, p)`, the
form `_gini` keeps for the parent impurity: `np.dot` may round
`p0*p0 + p1*p1` once, as a fused multiply-add, where the array form
rounds twice, and on x86-64 with numpy 2.4 that moves the last bit for
about one class-count pair in six. The 1e-15 margin is about nine units
in the last place of that sum (which lies in [0.5, 1]), so the two forms
pick different cuts only when two decreases differ by the margin to
within a few units; the oracle tests in tests/test_classify.py compare
them on random nodes and forests, and compare whole models with a
recursive one-tree-at-a-time builder kept there as the reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FeatureMismatch, SingleClass, TooFewSamples

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
    """Flattened binary tree. feature[i] == -1 marks a leaf; counts[i]
    holds per-class training counts at node i (populated at leaves);
    value[i] is P(class 1) at node i, derived from counts once (0.0
    where a node holds no counts)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray
    value: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        total = self.counts[:, 0] + self.counts[:, 1]
        self.value = np.divide(
            self.counts[:, 1], total, out=np.zeros(len(total)), where=total > 0
        )

    def predict_prob(self, X: np.ndarray) -> np.ndarray:
        """P(class 1) per row. All rows descend together, one tree level
        per step."""
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = np.flatnonzero(self.feature[node] != -1)
        while active.size:
            at = node[active]
            go_left = X[active, self.feature[at]] <= self.threshold[at]
            node[active] = np.where(go_left, self.left[at], self.right[at])
            active = active[self.feature[node[active]] != -1]
        return self.value[node]


@dataclass
class RandomForestModel:
    trees: list[Tree]
    config: ForestConfig
    seed: int
    feature_names: tuple[str, ...]
    medians: dict[str, float]
    fold_scores: list[float] = field(default_factory=list)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if X.shape[1] != len(self.feature_names):
            raise FeatureMismatch(
                f"model expects {len(self.feature_names)} features, got {X.shape[1]}"
            )
        probs = np.zeros(X.shape[0])
        for tree in self.trees:
            probs += tree.predict_prob(X)
        return probs / len(self.trees)

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


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.dot(p, p))


# cells (nodes x candidate features x rows) of one batched cut search; a
# node larger than this is searched alone
SPLIT_BLOCK_CELLS = 1 << 12


def _best_splits(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    n: np.ndarray,
    feature_ids: np.ndarray,
    parent_impurity: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best cut of each of K nodes: (impurity decrease, feature, threshold)
    arrays, from the first record above `best + 1e-15` over the cuts of
    the node's `feature_ids` row in order, each feature's cuts ascending;
    (0.0, -1, 0.0) where no cut decreases the impurity.

    `X` and `y` end in a padding row (+inf, class 0). Row k of `rows`
    holds node k's `n[k]` row indices, then the padding row's index up to
    the block width N; `parent_impurity[k]` is `_gini` of node k's class
    counts. All cuts of all nodes are scored in one pass."""
    k_nodes = len(rows)
    width = rows.shape[1]
    # at most three (nodes x features x rows) arrays live at once
    block = X[rows[:, None, :], feature_ids[:, :, None]]
    order = np.argsort(block, axis=2, kind="stable")
    sorted_x = np.take_along_axis(block, order, axis=2)
    del block
    # cut c puts the c + 1 lowest rows left; cuts between ties and cuts
    # at c >= n - 1, whose right side is padding, are void
    void = ~(sorted_x[:, :, 1:] > sorted_x[:, :, :-1])
    del sorted_x
    void |= (np.arange(width - 1) >= (n - 1)[:, None])[:, None, :]
    # class-1 counts left of each cut, from the labels in sorted order
    order += (np.arange(k_nodes) * width)[:, None, None]
    ones = y[rows].ravel()[order]
    del order
    np.cumsum(ones, axis=2, out=ones)
    ones = ones.astype(np.float64)
    left = ones[:, :, :-1]
    n_left = np.arange(1.0, width)
    size = n.astype(np.float64)[:, None, None]
    n_right = size - n_left
    n_right[n_right < 1.0] = 1.0  # a void cut's empty right side divides by 1, not 0
    # each side's elementwise Gini, 1 - (p0*p0 + p1*p1), weighted by its
    # row count, one operation at a time in place
    decrease = n_left - left
    decrease /= n_left
    p = left / n_left
    decrease *= decrease
    p *= p
    decrease += p
    np.subtract(1.0, decrease, out=decrease)
    decrease *= n_left
    right = np.subtract(ones[:, :, -1:], left, out=left)
    np.subtract(n_right, right, out=p)
    p /= n_right
    right /= n_right
    p *= p
    right *= right
    p += right
    del ones, left, right
    np.subtract(1.0, p, out=p)
    p *= n_right
    decrease += p
    del p
    decrease /= size
    np.subtract(parent_impurity[:, None, None], decrease, out=decrease)
    decrease[void] = -np.inf
    del void
    # the record chain of every node at once: each round takes, per node
    # still searching, the first cell past its last record that beats
    # that record by more than 1e-15
    flat = decrease.reshape(k_nodes, -1)
    cells = np.arange(flat.shape[1])
    best = np.zeros(k_nodes)
    at = np.full(k_nodes, -1)
    live = np.arange(k_nodes)
    while live.size and cells.size:  # a node may have no candidate feature
        above = flat[live] > (best[live] + 1e-15)[:, None]
        above &= cells > at[live][:, None]
        first = above.argmax(axis=1)
        found = above[np.arange(live.size), first]
        live, first = live[found], first[found]
        at[live] = first
        best[live] = flat[live, first]
    split = np.flatnonzero(at >= 0)
    row, cut = np.divmod(at[split], width - 1)
    feature = np.full(k_nodes, -1)
    feature[split] = feature_ids[split, row]
    # the threshold lies between the cut's two sorted values, sorted
    # again from the split nodes' chosen columns alone
    column = X[rows[split], feature[split, None]]
    column = np.take_along_axis(column, np.argsort(column, axis=1, kind="stable"), axis=1)
    pick = np.arange(split.size)
    threshold = np.zeros(k_nodes)
    threshold[split] = (column[pick, cut] + column[pick, cut + 1]) / 2.0
    return best, feature, threshold


def _search_nodes(X, y, rows, n, feature_ids, parent_impurity):
    """(feature, threshold) of `_best_splits` over any number of nodes, in
    chunks of at most `SPLIT_BLOCK_CELLS` cells: the nodes are taken by
    size, so each chunk pads its rows to a near size."""
    feature = np.full(len(rows), -1)
    threshold = np.zeros(len(rows))
    by_size = np.argsort(n, kind="stable")
    start = 0
    while start < len(by_size):
        stop = start + 1
        while (
            stop < len(by_size)
            and (stop + 1 - start) * feature_ids.shape[1] * n[by_size[stop]] <= SPLIT_BLOCK_CELLS
        ):
            stop += 1
        chunk = by_size[start:stop]
        # each node's rows, then the padding row's index
        padded = np.full((len(chunk), n[chunk[-1]]), len(X) - 1)
        padded[np.arange(padded.shape[1]) < n[chunk, None]] = np.concatenate([rows[k] for k in chunk])
        _, feature[chunk], threshold[chunk] = _best_splits(
            X, y, padded, n[chunk], feature_ids[chunk], parent_impurity[chunk]
        )
        start = stop
    return feature, threshold


class _TreeGrowth:
    """One tree of a forest grown in lockstep: its RNG stream, its nodes
    in pre-order and a depth-first stack of the nodes still to create,
    each as (rows, class-1 count, depth, parent, parent's child slot)."""

    def __init__(self, rng, rows: np.ndarray, ones: int):
        self.rng = rng
        # six fields per node: feature, threshold, left, right, class counts
        self.nodes: list = []
        self.stack = [(rows, ones, 0, -1, 0)]
        self.warned_degenerate = False

    def next_split(self, config: ForestConfig, d: int, m: int):
        """Create the stacked nodes in pre-order, closing each that stops
        as a leaf, up to the first one to split: (node, rows, class-1
        count, depth, drawn features), or None when the tree is done. The
        drawn features, unsorted, are this node's draw from the tree's
        RNG, as in a recursive depth-first build."""
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
            return node, rows, ones, depth, self.rng.choice(d, size=m, replace=False)
        return None

    def tree(self) -> Tree:
        nodes = np.array(self.nodes, dtype=np.float64).reshape(-1, 6)
        return Tree(
            feature=nodes[:, 0].astype(np.int64),
            threshold=nodes[:, 1].copy(),
            left=nodes[:, 2].astype(np.int64),
            right=nodes[:, 3].astype(np.int64),
            counts=nodes[:, 4:].copy(),
        )


def _grow_forest(X: np.ndarray, y: np.ndarray, config: ForestConfig, seed: int) -> list[Tree]:
    """Grow all trees in lockstep. Each step, every tree that still has
    work creates its next node to split (closing leaves on the way), and
    one batched cut search scores all those nodes; the nodes with no cut
    on their sampled features get one batched search over the rest."""
    n, d = X.shape
    m = config.features_per_split(d)
    # one padding row (+inf, class 0) at index n fills every node's block
    X = np.vstack([X, np.full(d, np.inf)])
    y = np.append(y, 0)
    impurity: dict[tuple[int, int], float] = {}  # `_gini` per class-count pair
    growths = []
    for tree_idx in range(config.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tree_idx,)))
        boot = rng.integers(0, n, size=n)
        growths.append(_TreeGrowth(rng, boot, int(y[boot].sum())))
    while True:
        jobs = [(g, *job) for g in growths if (job := g.next_split(config, d, m)) is not None]
        if not jobs:
            break
        _, _, rows, class_ones, _, sampled = zip(*jobs)
        sizes = np.array([len(idx) for idx in rows])
        sampled = np.sort(sampled, axis=1)
        parent = np.empty(len(jobs))
        for k, (size, ones) in enumerate(zip(sizes.tolist(), class_ones)):
            if (size, ones) not in impurity:
                impurity[size, ones] = _gini(np.array([size - ones, ones]))
            parent[k] = impurity[size, ones]
        feature, threshold = _search_nodes(X, y, rows, sizes, sampled, parent)
        retry = np.flatnonzero(feature == -1)
        if retry.size and m < d:
            # the complement of each node's draw, ascending
            rest = np.ones((retry.size, d), dtype=bool)
            rest[np.arange(retry.size)[:, None], sampled[retry]] = False
            rest = np.nonzero(rest)[1].reshape(retry.size, d - m)
            feature[retry], threshold[retry] = _search_nodes(
                X, y, [rows[k] for k in retry], sizes[retry], rest, parent[retry]
            )
        for (g, node, idx, ones, depth, _), f, thr in zip(jobs, feature.tolist(), threshold.tolist()):
            if f == -1:
                if not g.warned_degenerate:
                    warnings.warn(
                        "unsplittable node with mixed labels (identical rows); majority leaf used",
                        stacklevel=3,
                    )
                    g.warned_degenerate = True
                continue
            g.nodes[6 * node : 6 * node + 2] = f, thr
            go_left = X[idx, f] <= thr
            left = idx[go_left]
            left_ones = int(np.count_nonzero(y[left]))
            g.stack.append((idx[~go_left], ones - left_ones, depth + 1, node, 3))
            g.stack.append((left, left_ones, depth + 1, node, 2))
    return [g.tree() for g in growths]


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
    cm = np.asarray(confusion, dtype=np.float64)
    total = cm.sum()
    accuracy = float(np.trace(cm) / total)
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
        p = float(np.mean(precisions))
        r = float(np.mean(recalls))
        f = float(np.mean(f1s))
    elif averaging == "weighted":
        w = np.array(supports) / sum(supports)
        p = float(np.dot(precisions, w))
        r = float(np.dot(recalls, w))
        f = float(np.dot(f1s, w))
    else:
        raise ValueError(f"unknown averaging {averaging!r}")
    return Metrics(
        accuracy=accuracy,
        precision=float(p),
        recall=float(r),
        f1=float(f),
    )


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
        warnings.warn(f"reducing folds from {k} to {min_class}", stacklevel=2)
        k = min_class
    rng = np.random.default_rng(derive_seed(seed, "folds"))
    for cls in sorted(by_class):
        rng.shuffle(by_class[cls])
    # the shuffled rows of each class are dealt round-robin over the folds
    return [
        np.sort(np.concatenate([by_class[cls][f::k] for cls in sorted(by_class)]))
        for f in range(k)
    ]


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    feature_names,
    k: int = 10,
    config: ForestConfig | None = None,
    seed: int = 0,
    averaging: str = "weighted",
) -> list[Metrics]:
    """Stratified k-fold CV; oversampling and imputation happen inside
    each fold's training portion only."""
    folds = stratified_folds(y, k, seed)
    results = []
    for fold_no, test_idx in enumerate(folds):
        fold_train = np.setdiff1d(np.arange(len(y)), test_idx)
        balanced = fold_train[oversample(y[fold_train], seed=derive_seed(seed, "cv-os", fold_no))]
        model = fit_forest(
            X[balanced],
            y[balanced],
            feature_names,
            config=config,
            seed=derive_seed(seed, "cv-fit", fold_no),
            medians=compute_medians(X[fold_train]),
        )
        results.append(evaluate(model, X[test_idx], y[test_idx], averaging=averaging))
    return results


# ---------------------------------------------------------------------------
# serialization


def model_to_json(model: RandomForestModel) -> str:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": {
            "n_trees": model.config.n_trees,
            "max_features": model.config.max_features,
            "min_samples_split": model.config.min_samples_split,
            "max_depth": model.config.max_depth,
        },
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
    payload = json.loads(text)
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format {payload.get('format_version')!r}")
    cfg = payload["config"]
    trees = [
        Tree(
            feature=np.array(t["feature"], dtype=np.int64),
            threshold=np.array(t["threshold"], dtype=np.float64),
            left=np.array(t["left"], dtype=np.int64),
            right=np.array(t["right"], dtype=np.int64),
            counts=np.array(t["counts"], dtype=np.float64),
        )
        for t in payload["trees"]
    ]
    return RandomForestModel(
        trees=trees,
        config=ForestConfig(
            n_trees=cfg["n_trees"],
            max_features=cfg["max_features"],
            min_samples_split=cfg["min_samples_split"],
            max_depth=cfg["max_depth"],
        ),
        seed=payload["seed"],
        feature_names=tuple(payload["feature_names"]),
        medians=payload["medians"],
        fold_scores=payload.get("fold_scores", []),
    )
