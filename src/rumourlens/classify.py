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

Split search scores every cut of every candidate feature of a node in one
array pass: the (features x rows) block is sorted per feature, class
counts accumulate along the rows, and each side's Gini impurity is the
elementwise `1 - (p0*p0 + p1*p1)`. A cut wins when it beats the best so
far by more than 1e-15, scanning features in order and each feature's
cuts ascending; unlike an argmax, this keeps an earlier cut over a later
one that is better only by rounding. The decreases are not bit-identical
to `1 - np.dot(p, p)`, the form `_gini` keeps for the parent impurity:
`np.dot` may round `p0*p0 + p1*p1` once, as a fused multiply-add, where
the array form rounds twice, and on x86-64 with numpy 2.4 that moves the
last bit for about one class-count pair in six. The 1e-15 margin is about
nine units in the last place of that sum (which lies in [0.5, 1]), so the
two forms pick different cuts only when two decreases differ by the
margin to within a few units; the oracle tests in tests/test_classify.py
compare them on random nodes and forests.
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


class _TreeBuilder:
    def __init__(self, X: np.ndarray, y: np.ndarray, config: ForestConfig, rng):
        self.XT = np.ascontiguousarray(X.T)  # one contiguous row per feature
        self.y = y
        self.config = config
        self.rng = rng
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.counts: list[np.ndarray] = []
        self.warned_degenerate = False

    def build(self) -> Tree:
        self._grow(np.arange(self.XT.shape[1]), depth=0)
        return Tree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            counts=np.array(self.counts, dtype=np.float64),
        )

    def _new_node(self, idx: np.ndarray) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.counts.append(np.bincount(self.y[idx], minlength=2).astype(np.float64))
        return node

    def _best_split(self, idx: np.ndarray, feature_ids) -> tuple[float, int, float]:
        """(impurity decrease, feature, threshold) of the first record
        above `best + 1e-15` over the cuts of `feature_ids` in order, each
        feature's cuts ascending; (0.0, -1, 0.0) when no cut decreases
        the impurity. All cuts of all features are scored in one pass."""
        y_node = self.y[idx]
        parent_impurity = _gini(np.bincount(y_node, minlength=2))
        n = len(idx)
        block = self.XT[feature_ids[:, None], idx]  # (features, rows)
        order = np.argsort(block, axis=1, kind="stable")
        sorted_x = np.take_along_axis(block, order, axis=1)
        # cut c puts the c + 1 lowest rows left; cuts between ties are void
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

    def _grow(self, idx: np.ndarray, depth: int) -> int:
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


def _fit_tree(X: np.ndarray, y: np.ndarray, config: ForestConfig, seed: int, tree_idx: int) -> Tree:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tree_idx,)))
    boot = rng.integers(0, X.shape[0], size=X.shape[0])
    return _TreeBuilder(X[boot], y[boot], config, rng).build()


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
        trees=[_fit_tree(X, y, config, seed, i) for i in range(config.n_trees)],
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
