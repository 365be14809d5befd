"""Self-contained random forest: bagged CART trees with Gini splits.

Split candidates are midpoints between consecutive distinct sorted
feature values; the split minimizing the weighted Gini impurity wins,
scanning features in ascending index order and thresholds in ascending
order with strict improvement, so the choice is deterministic and
invariant under duplicating every training sample. Each node scores all
of its candidates at once: one stable sort of the sampled columns, one
prefix count of the one-hot labels (the CART criterion scan of Breiman
2001), and the weighted Gini of every cut as whole-array expressions.
Prediction is a majority vote over trees (ties resolve to the lowest
class index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError
from ..runutil import derived_rng


MIN_LEAF = 2  # a split leaves at least this many training rows on each side


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 8

    def __post_init__(self):
        if self.n_trees < 1 or self.max_depth < 1:
            raise ConfigError("n_trees and max_depth must both be >= 1")


@dataclass
class _Node:
    prediction: int
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class ForestModel:
    trees: list
    n_classes: int
    config: ForestConfig


def _gini(class_counts: np.ndarray) -> float:
    total = class_counts.sum()
    if total == 0:
        return 0.0
    p = class_counts / total
    return 1.0 - float((p * p).sum())


def _best_split(x: np.ndarray, y: np.ndarray, feature_ids: np.ndarray, n_classes: int):
    """Scan candidate midpoints; returns (impurity, feature, threshold) or None.

    The columns `feature_ids` are sorted together, and a prefix sum of the
    one-hot labels gives the left class counts after every sorted position,
    shape (n-1, k, C). Every candidate's weighted Gini is computed with the
    same expression, in the same order, as `_gini` on one count vector, so
    each impurity is the exact float a per-threshold loop would produce;
    positions between equal values are not cuts and score +inf.

    The winner is the first candidate, features ascending then thresholds
    ascending, that is strictly below the current best minus 1e-15, walked
    as a chain of first-below-bound searches. An argmin would instead take
    the global minimum, which can be a later candidate only a few ULPs
    below an earlier one that this rule keeps, and so grow a different tree.
    """
    n = y.size
    cols = x[:, feature_ids]
    order = np.argsort(cols, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(cols, order, axis=0)
    prefix = np.cumsum(np.eye(n_classes, dtype=np.int64)[y[order]], axis=0)
    left = prefix[:-1]
    right = prefix[-1] - left
    n_left = np.arange(1, n, dtype=np.int64)[:, None]
    n_right = n - n_left

    def gini(counts, n_side):
        p = counts / n_side[..., None]
        return 1.0 - (p * p).sum(axis=-1)

    impurity = (n_left * gini(left, n_left) + n_right * gini(right, n_right)) / n
    impurity[sorted_vals[:-1] == sorted_vals[1:]] = np.inf
    flat = impurity.T.ravel()  # feature-major, thresholds ascending within a feature

    pos, bound = -1, np.inf
    while pos + 1 < flat.size:
        below = flat[pos + 1 :] < bound
        step = int(below.argmax())
        if not below[step]:
            break
        pos += 1 + step
        bound = flat[pos] - 1e-15
    if pos < 0:
        return None
    column, i = divmod(pos, n - 1)
    threshold = 0.5 * (sorted_vals[i, column] + sorted_vals[i + 1, column])
    return flat[pos], int(feature_ids[column]), float(threshold)


def _grow(x, y, n_classes, max_depth: int, rng, depth: int) -> _Node:
    """One CART tree; each node scans a fresh draw of floor(sqrt(d)) features."""
    counts = np.bincount(y, minlength=n_classes)
    node = _Node(prediction=int(np.argmax(counts)))  # argmax takes the lowest index on ties
    if depth >= max_depth or y.size < 2 * MIN_LEAF or _gini(counts) == 0.0:
        return node
    n_features = x.shape[1]
    k = max(1, int(np.sqrt(n_features)))
    best = _best_split(x, y, np.sort(rng.choice(n_features, size=k, replace=False)), n_classes)
    if best is None:
        return node
    _, feature, threshold = best
    mask = x[:, feature] < threshold
    if mask.sum() < MIN_LEAF or (~mask).sum() < MIN_LEAF:
        return node
    node.feature = feature
    node.threshold = threshold
    node.left = _grow(x[mask], y[mask], n_classes, max_depth, rng, depth + 1)
    node.right = _grow(x[~mask], y[~mask], n_classes, max_depth, rng, depth + 1)
    return node


def forest_train(features: np.ndarray, labels: np.ndarray, config: ForestConfig, seed: int) -> ForestModel:
    x = np.asarray(features, dtype=np.float64)
    raw = np.asarray(labels)
    y = raw.astype(np.int64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError(f"features must be a non-empty (n, d) matrix, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise DataError(f"labels shape {y.shape} inconsistent with {x.shape[0]} samples")
    if not np.isfinite(x).all():
        raise DataError("features must all be finite")
    if not np.array_equal(y, raw):
        raise DataError("labels must be integer class indices")
    if y.min() < 0:
        raise DataError(f"labels must be >= 0, got {y.min()}")
    n_classes = int(y.max()) + 1
    trees = []
    n = x.shape[0]
    for tree_index in range(config.n_trees):
        rng = derived_rng(seed, "tree", tree_index)
        idx = rng.integers(0, n, size=n)  # the tree's bootstrap sample
        trees.append(_grow(x[idx], y[idx], n_classes, config.max_depth, rng, 0))
    return ForestModel(trees=trees, n_classes=n_classes, config=config)


def _predict_tree(node: _Node, row: np.ndarray) -> int:
    while not node.is_leaf:
        node = node.left if row[node.feature] < node.threshold else node.right
    return node.prediction


def forest_predict_batch(model: ForestModel, features: np.ndarray) -> np.ndarray:
    """Majority class of each row; a tied vote goes to the lowest class index."""
    rows = np.asarray(features, dtype=np.float64)
    votes = np.zeros((len(rows), model.n_classes), dtype=np.int64)
    for tree in model.trees:
        votes[np.arange(len(rows)), [_predict_tree(tree, row) for row in rows]] += 1
    return votes.argmax(axis=1)
