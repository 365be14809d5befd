"""Self-contained random forest: bagged CART trees with Gini splits.

Split candidates are midpoints between consecutive distinct sorted
feature values; the split minimizing the weighted Gini impurity wins,
scanning features in ascending index order and thresholds in ascending
order with strict improvement, so the choice is deterministic and
invariant under duplicating every training sample. Prediction is a
majority vote over trees (ties resolve to the lowest class index).

All trees of a forest grow together, in rounds. Each tree owns a PCG64
stream, which first draws the tree's bootstrap sample, and a stack of
its nodes that may still split (below the depth limit, at least
2 * MIN_LEAF rows, not pure); a split pushes its right child before its
left one, so the stack pops in preorder. In a round, every tree with a
non-empty stack pops one node and draws that node's floor(sqrt(d))
features from its own stream. A recursive, depth-first grower draws
for exactly these nodes (a node that cannot split draws nothing), in the
same preorder, and no tree's draws depend on another tree's, so each tree
is the one that grower makes, bit for bit.

The grower calls numpy's `integers(0, n, size=n)` and
`np.sort(choice(d, k, replace=False))`; `_Draws` instead reads each tree's
PCG64 stream in blocks with `bit_generator.random_raw` and decodes the same
draws for all trees at once. numpy's 32-bit draws take each 64-bit output
low half first, and draw below a bound b by Lemire's multiply-shift (Lemire
2019): (word * b) >> 32, redrawn while the product's low 32 bits fall below
2**32 % b, which happens to at most b / 2**32 of the words; from a rejected
word on, a tree decodes word by word. A bound of 1 draws nothing. `choice`
picks by Floyd's algorithm over the bounds d-k+1 ... d, a pick already taken
becoming its bound - 1, then shuffles the picks with draws of bounds k ... 2,
which use words but cannot change the sorted set. Node sets are decoded
_NODE_BLOCK per tree at a time; a tree that scans more nodes decodes the
next block from the same stream.

`_best_splits` then scores the round's nodes (the CART criterion scan
of Breiman 2001), in chunks of at most _CHUNK_CELLS cells (nodes x width
x k x classes), largest nodes first, each chunk padded to its largest
node: padded values are +inf, which a stable sort puts last, and padded
labels match no class. The chunks bound the memory of a round of many
large nodes; a node is scored on its own, so chunking changes no bit.
One sort, one prefix count per class and one whole-array Gini expression
give every cut of every node. A cut past a node's last row or between
equal values scores +inf, and every real cut keeps the expression and
operands of a per-threshold loop, so its impurity is the float that loop
would produce.

That expression is `1.0 - (p * p).sum()` over the class shares. numpy's
add.reduce adds fewer than 8 terms in sequence, `((a0 + a1) + a2) + ...`,
and labels are class indices below MAX_CLASSES = 7, so `_gini` makes the
same adds elementwise over whole class planes and pays no reduction loop
per row.

A node's winner is the first candidate, features ascending then
thresholds ascending, strictly below the best so far minus 1e-15. Each
candidate this rule accepts lies below every earlier candidate: those
since the last acceptance sat at or above the bound, the bound is at or
below the last accepted value, and by induction that value lies below all
candidates before it. So the rule accepts only strict prefix-minimum
records, which one `np.minimum.accumulate` finds, and the walk visits
only those. An argmin would instead take the global minimum, which can be
a later candidate only a few ULPs below an earlier one that this rule
keeps, and so grow a different tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError
from ..runutil import derive_seed


MIN_LEAF = 2  # a split leaves at least this many training rows on each side
# labels are class indices below this: numpy's add.reduce adds fewer than 8 terms in sequence, as `_gini` does
MAX_CLASSES = 7
# cells (nodes x width x k x classes) per split scan: each int64 or float64 temporary takes up to 512 KB
_CHUNK_CELLS = 2**16
# node feature draws decoded per tree at once; a tree that scans more nodes decodes the next block
_NODE_BLOCK = 16


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
    n_features: int  # the width of the matrix the forest was trained on
    config: ForestConfig


def _gini(class_counts: np.ndarray) -> np.ndarray:
    """Gini impurity of each non-empty count vector along the first axis, of at most MAX_CLASSES classes.

    Bit for bit `1.0 - (p * p).sum()` of each vector's class shares `p`: the totals are exact integers, and the
    squares of whole class planes add in sequence, as add.reduce does below 8 terms.
    """
    shares = class_counts / sum(class_counts[1:], class_counts[0])
    squares = shares * shares
    return 1.0 - sum(squares[1:], squares[0])


class _Draws:
    """Every draw of one fit, decoded from each tree's PCG64 stream in bulk.

    Tree t reads `np.random.PCG64(seeds[t])`. For an (n, d) matrix, `bootstraps()` gives what that generator's
    `integers(0, n, size=n)` would, and each `node_features` call what its next
    `np.sort(choice(d, k, replace=False))` would.
    """

    def __init__(self, seeds, shape: tuple):
        self._n, n_features = shape
        self._bit_generators = [np.random.PCG64(seed) for seed in seeds]
        self.k = max(1, int(np.sqrt(n_features)))
        # Floyd's draws, bounds d-k+1 ... d, then the shuffle's, bounds k ... 2; a bound of 1 (d = 1) draws nothing
        self._floyd = np.arange(n_features - self.k + 1, n_features + 1)
        bounds = np.concatenate([self._floyd, np.arange(self.k, 1, -1)])
        self._drawn = bounds > 1
        self._block_bounds = np.tile(bounds[self._drawn], _NODE_BLOCK).astype(np.uint64)
        self._sets = np.empty((len(seeds), _NODE_BLOCK, self.k), dtype=np.int64)  # each tree's decoded block
        self._used = np.full(len(seeds), _NODE_BLOCK)  # sets used of it: none is decoded yet

        # each tree's row of words holds a bootstrap, a node block and a word more, so every `_take` count is
        # below the row width
        outputs = (self._n + self._block_bounds.size) // 2 + 1
        self._words = self._halves([bits.random_raw(outputs) for bits in self._bit_generators])
        self._pos = np.zeros(len(seeds), dtype=np.int64)
        self._end = np.full(len(seeds), self._words.shape[1])

    @staticmethod
    def _halves(raw) -> np.ndarray:
        """64-bit outputs as 32-bit words, each split low half first, the order of numpy's 32-bit draws."""
        return np.asarray(raw).astype("<u8", copy=False).view("<u4")

    def _take(self, trees: np.ndarray, count: int) -> np.ndarray:
        """(trees, count): each listed tree's next words, refilling a row that holds too few.

        A refill keeps the fewer than `count` words left and tops the row up with whole outputs, which has room
        because a `count` is at most the row width minus one.
        """
        for tree in trees[self._pos[trees] + count > self._end[trees]].tolist():
            rest = self._words[tree, self._pos[tree] : self._end[tree]]
            outputs = self._bit_generators[tree].random_raw((self._words.shape[1] - rest.size) // 2)
            words = np.concatenate([rest, self._halves(outputs)])
            self._words[tree, : words.size] = words
            self._pos[tree], self._end[tree] = 0, words.size
        pos = self._pos[trees]
        self._pos[trees] += count
        return self._words[trees[:, None], pos[:, None] + np.arange(count)]

    def _draw(self, tree: int, bound: int) -> int:
        """numpy's draw below `bound` (> 1), word by word: Lemire's multiply-shift with its rejection."""
        while True:
            product = int(self._take(np.array([tree]), 1)[0, 0]) * bound
            if product & 0xFFFFFFFF >= 2**32 % bound:
                return product >> 32

    def _bounded(self, trees: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """(trees, bounds) int64 draws below each of the uint64 `bounds` (all > 1), as `_draw` makes them."""
        products = self._take(trees, bounds.size).astype(np.uint64) * bounds
        values = products >> 32
        # a word whose low half falls below 2**32 % bound is redrawn; from the first such word the tree goes one by one
        rejected = (products & 0xFFFFFFFF) < 2**32 % bounds
        for i in np.flatnonzero(rejected.any(axis=1)).tolist():
            tree, first = int(trees[i]), int(rejected[i].argmax())
            self._pos[tree] -= bounds.size - first
            values[i, first:] = [self._draw(tree, bound) for bound in bounds[first:].tolist()]
        return values.astype(np.int64)

    def bootstraps(self) -> np.ndarray:
        """(trees, n) bootstrap rows, each tree's first draw."""
        if self._n == 1:  # a bound of 1 draws nothing
            return np.zeros((len(self._bit_generators), 1), dtype=np.int64)
        return self._bounded(np.arange(len(self._bit_generators)), np.full(self._n, self._n, dtype=np.uint64))

    def node_features(self, trees: list) -> np.ndarray:
        """(trees, k): the next sorted node feature set of each listed tree."""
        trees = np.array(trees)
        spent = trees[self._used[trees] == _NODE_BLOCK]
        if spent.size:
            self._sets[spent] = self._node_block(spent)
            self._used[spent] = 0
        ids = self._sets[trees, self._used[trees]]
        self._used[trees] += 1
        return ids

    def _node_block(self, trees: np.ndarray) -> np.ndarray:
        """(trees, _NODE_BLOCK, k) sorted sets: `choice`'s Floyd picks, whose shuffle cannot change a sorted set."""
        draws = np.zeros((len(trees), _NODE_BLOCK, self._drawn.size), dtype=np.int64)
        draws[..., self._drawn] = self._bounded(trees, self._block_bounds).reshape(len(trees), _NODE_BLOCK, -1)
        picks = draws[..., : self.k]
        for i in range(1, self.k):  # Floyd: a pick already taken is replaced by its bound - 1, never taken before
            taken = (picks[..., :i] == picks[..., i : i + 1]).any(axis=-1)
            picks[..., i] = np.where(taken, self._floyd[i] - 1, picks[..., i])
        return np.sort(picks, axis=-1)


def _class_counts(labels, groups, n_groups: int, n_classes: int) -> np.ndarray:
    """(n_groups, n_classes) counts: row g counts the labels whose group is g (the two broadcast together)."""
    cells = (groups * n_classes + labels).ravel()
    return np.bincount(cells, minlength=n_groups * n_classes).reshape(n_groups, n_classes)


def _best_splits(x, y, rows, sizes, feature_ids, n_classes) -> list:
    """Scan each node's candidate midpoints; one (impurity, feature, threshold) or None per node.

    Node b holds the rows rows[b, :sizes[b]] of (x, y) and scans the columns
    feature_ids[b]; every node scans the same number of columns, and the rest
    of its row of `rows` is padding. The padded columns are sorted together,
    and per class a prefix sum of label matches gives the left class counts
    after every sorted position, shape (C, nodes, k, width - 1).
    """
    n_nodes, width = rows.shape
    real = np.arange(width) < sizes[:, None]
    cols = np.where(real[:, None, :], x[rows[:, None, :], feature_ids[:, :, None]], np.inf)  # (nodes, k, width)
    order = np.argsort(cols, axis=2, kind="stable")
    sorted_vals = np.take_along_axis(cols, order, axis=2)
    labels = np.where(real, y[rows], -1)  # padding matches no class
    sorted_labels = labels[np.arange(n_nodes)[:, None, None], order]
    prefix = np.cumsum(sorted_labels == np.arange(n_classes)[:, None, None, None], axis=-1)
    left = prefix[..., :-1]
    right = prefix[..., -1:] - left
    n_left = np.arange(1, width)
    n = sizes[:, None, None]
    n_right = n - n_left
    with np.errstate(divide="ignore", invalid="ignore"):  # an empty right side is no cut
        impurity = (n_left * _gini(left) + n_right * _gini(right)) / n
    impurity[(sorted_vals[..., :-1] == sorted_vals[..., 1:]) | (n_right < 1)] = np.inf
    flat = impurity.reshape(n_nodes, -1)  # per node: feature-major, thresholds ascending

    # the strict-improvement walk, over each node's strict prefix-minimum records only
    running = np.minimum.accumulate(flat, axis=1)
    record = flat < np.hstack([np.full((n_nodes, 1), np.inf), running[:, :-1]])
    winner, bound = [-1] * n_nodes, [np.inf] * n_nodes
    record_node, record_pos = np.nonzero(record)
    for b, pos, value in zip(record_node.tolist(), record_pos.tolist(), flat[record_node, record_pos].tolist()):
        if value < bound[b]:
            winner[b], bound[b] = pos, value - 1e-15

    splits = []
    for b, pos in enumerate(winner):
        if pos < 0:
            splits.append(None)
            continue
        column, i = divmod(pos, width - 1)
        threshold = 0.5 * (sorted_vals[b, column, i] + sorted_vals[b, column, i + 1])
        splits.append((flat[b, pos], int(feature_ids[b, column]), float(threshold)))
    return splits


def _grow_trees(x, y, samples, draws: _Draws, n_classes: int, max_depth: int) -> list:
    """One CART tree per bootstrap row sample, grown in lockstep rounds.

    Each node scans the next floor(sqrt(d)) features its tree draws from `draws`.
    """
    def new_nodes(counts, sizes, depths):
        # one node per class-count row, and whether it may still split
        nodes = [_Node(prediction=p) for p in counts.argmax(axis=1).tolist()]  # argmax takes the lowest index on ties
        may_split = (depths < max_depth) & (sizes >= 2 * MIN_LEAF) & (_gini(counts.T) != 0.0)
        return nodes, may_split.tolist()

    samples = np.asarray(samples)
    n_trees, n = samples.shape
    root_counts = _class_counts(y[samples], np.arange(n_trees)[:, None], n_trees, n_classes)
    roots, may_split = new_nodes(root_counts, np.full(n_trees, n), 0)
    stacks = [[(root, rows, 0)] if ok else [] for root, rows, ok in zip(roots, samples, may_split)]
    while True:
        batch = [(tree, *stack.pop()) for tree, stack in enumerate(stacks) if stack]  # (tree, node, rows, depth)
        if not batch:
            return roots
        feature_ids = draws.node_features([tree for tree, *_ in batch])
        sizes = np.array([node_rows.size for _, _, node_rows, _ in batch])
        rows = np.zeros((len(batch), sizes.max()), dtype=np.int64)
        for b, (_, _, node_rows, _) in enumerate(batch):
            rows[b, : node_rows.size] = node_rows

        # scan in chunks of at most _CHUNK_CELLS cells (or one node), largest nodes first, each padded to its largest
        splits = [None] * len(batch)
        by_size = np.argsort(-sizes, kind="stable")
        step = max(1, _CHUNK_CELLS // (rows.shape[1] * draws.k * n_classes))
        for start in range(0, len(batch), step):
            chunk = by_size[start : start + step]
            width = sizes[chunk[0]]
            chunk_splits = _best_splits(x, y, rows[chunk, :width], sizes[chunk], feature_ids[chunk], n_classes)
            for b, split in zip(chunk.tolist(), chunk_splits):
                splits[b] = split

        # a node splits only if its cut leaves MIN_LEAF rows on each side
        found = [b for b, split in enumerate(splits) if split is not None]
        features = np.array([splits[b][1] for b in found], dtype=np.int64)
        thresholds = np.array([splits[b][2] for b in found])
        real = np.arange(rows.shape[1]) < sizes[found, None]
        goes_left = (x[rows[found], features[:, None]] < thresholds[:, None]) & real
        n_left = goes_left.sum(axis=1)
        n_right = sizes[found] - n_left
        kept = (n_left >= MIN_LEAF) & (n_right >= MIN_LEAF)
        split = [b for b, keep in zip(found, kept.tolist()) if keep]
        goes_left, real = goes_left[kept], real[kept]
        n_split = len(split)
        child = np.where(goes_left, 0, n_split) + np.arange(n_split)[:, None]  # left children first, then right ones
        depths = np.array([batch[b][3] + 1 for b in split] * 2)
        children, may_split = new_nodes(
            _class_counts(y[rows[split]][real], child[real], 2 * n_split, n_classes),
            np.concatenate([n_left[kept], n_right[kept]]),
            depths,
        )
        for i, b in enumerate(split):
            tree, node, node_rows, depth = batch[b]
            _, node.feature, node.threshold = splits[b]
            node.left, node.right = children[i], children[n_split + i]
            mask = goes_left[i, : node_rows.size]
            if may_split[n_split + i]:  # the right child is pushed first, so the left one pops first
                stacks[tree].append((node.right, node_rows[~mask], depth + 1))
            if may_split[i]:
                stacks[tree].append((node.left, node_rows[mask], depth + 1))


def forest_train(features: np.ndarray, labels: np.ndarray, config: ForestConfig, seed: int) -> ForestModel:
    """`config.n_trees` bagged CART trees fitted to an (n, d) feature matrix and its n labels.

    Labels are integer class indices 0 ... MAX_CLASSES - 1 (6); whole floats and bools pass. Tree t draws its
    bootstrap and its node features from `np.random.PCG64(derive_seed(seed, "tree", t))`. A `DataError` refuses,
    before any tree grows, a matrix that is empty or not 2-D, a non-finite feature, a label count other than n,
    and a label that is not numeric, not whole, negative, or MAX_CLASSES or more.
    """
    x = np.asarray(features, dtype=np.float64)
    raw = np.asarray(labels)
    if raw.dtype.kind not in "biuf":  # strings, None and other objects have no integer value to check
        raise DataError(f"labels must be integer class indices, got dtype {raw.dtype}")
    y = raw.astype(np.int64)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
        raise DataError(f"features must be a non-empty (n, d) matrix, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise DataError(f"labels shape {y.shape} inconsistent with {x.shape[0]} samples")
    if not np.isfinite(x).all():
        raise DataError("features must all be finite")
    if not np.array_equal(y, raw):
        raise DataError("labels must be integer class indices")
    if y.min() < 0 or y.max() >= MAX_CLASSES:
        raise DataError(f"labels must be >= 0 and below {MAX_CLASSES}, got {y.min()} to {y.max()}")
    n_classes = int(y.max()) + 1
    draws = _Draws([derive_seed(seed, "tree", tree_index) for tree_index in range(config.n_trees)], x.shape)
    trees = _grow_trees(x, y, draws.bootstraps(), draws, n_classes, config.max_depth)
    return ForestModel(trees=trees, n_classes=n_classes, n_features=x.shape[1], config=config)


def _predict_tree(node: _Node, row: np.ndarray) -> int:
    while not node.is_leaf:
        node = node.left if row[node.feature] < node.threshold else node.right
    return node.prediction


def forest_predict_batch(model: ForestModel, features: np.ndarray) -> np.ndarray:
    """Majority class of each row; a tied vote goes to the lowest class index."""
    rows = np.asarray(features, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.n_features:
        raise DataError(f"features must be an (n, {model.n_features}) matrix, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise DataError("features must all be finite")
    predictions = [[_predict_tree(tree, row) for tree in model.trees] for row in rows]  # (row, tree)
    predictions = np.array(predictions, dtype=np.int64).reshape(len(rows), len(model.trees))  # also for no rows
    votes = _class_counts(predictions, np.arange(len(rows))[:, None], len(rows), model.n_classes)
    return votes.argmax(axis=1)  # argmax takes the lowest index on ties
