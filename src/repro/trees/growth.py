"""Tree growth: every tree of a fit grown in lockstep.

One engine grows a whole batch of trees on the same training arrays —
a forest's tree slots, or a single :class:`~repro.trees.DecisionTreeClassifier`
as a batch of one.  On each step every tree that still grows hands
over the nodes it needs searched next, and one batched
:func:`~repro.trees.splitter.find_best_split` call scores them all:

- a **depth-first** tree (no leaf cap) hands over its next stack pop;
- a **best-first** tree (``max_leaf_nodes`` set, the paper's ``Adjust``
  caps) hands over both children of its expansion, then expands the
  frontier leaf with the largest weighted impurity decrease, as sklearn
  does.

A tree that cannot proceed until a search comes back simply waits for
the next step, so each tree keeps its own search order and its own
order of per-split feature draws: the trees are the ones growing each
tree alone would give, bit for bit.  A node whose sampled features
found no split retries once with the whole subspace on the following
step (no draw is involved).

A node's lanes are its rows sorted per subspace feature: the root's
come from the dataset's global sort cache, and the lanes of every
split node of a step are *partitioned* into its children's in one
batched stable compress — no node ever re-sorts, and no per-node work
depends on the full dataset size.  The roots of a grow call share one
``index`` object, so a search that holds several of them scores each
distinct feature once (see :func:`~repro.trees.splitter.find_best_split`).
Leaves are labelled once, at the end, from one class-count pass per
tree, which also yields the tree's answer on its training rows (see
:func:`grow_trees`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .node import InternalNode, Leaf, TreeNode
from .presort import SortedDataset, partition_orderings, root_ordering
from .splitter import _BATCH_ELEMENTS, NodeSearch, Split, find_best_split

__all__ = ["GrowthParams", "grow_trees"]

# Cap on the root lane elements (subspace size x rows, summed over the
# trees) grown in lockstep at once.  A growing tree holds about its
# root's lanes, so without a cap a forest's growth memory would scale
# with the forest rather than the tree; every dispute workload forest
# (64 trees x 8 lanes x 490 rows) fits in one group.
_LOCKSTEP_ELEMENTS = 1 << 21


@dataclass
class GrowthParams:
    """Hyper-parameters controlling tree induction.

    ``max_features`` is the number of features sampled (without
    replacement) at *each split*; the feature subspace each tree may
    split on is passed to :func:`grow_trees` alongside (the forest
    assigns one per tree, which is how the paper's "each tree is
    trained on a subset of the features" is realised).
    """

    criterion: object
    max_depth: int | None = None
    max_leaf_nodes: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    min_impurity_decrease: float = 0.0
    max_features: int | None = None


class _Node:
    """A node whose fate is still open: searched, split or leaf."""

    __slots__ = ("index", "depth", "parent", "side", "rows", "features", "positions", "split")

    def __init__(self, index, depth, parent, side):
        self.index = index
        self.depth = depth
        self.parent = parent  # InternalNode, or None for the root
        self.side = side  # "left" / "right" slot of the parent
        self.rows = None  # lanes, filled in before the node is searched
        self.features = None  # candidate feature ids of its next search
        self.positions = None  # their lane positions (None = every lane)
        self.split = None  # a best-first node's split, once searched


class _Tree:
    """One tree's growth state: its subspace, its RNG and its frontier.

    ``pending`` holds the nodes the tree waits on, in the order it drew
    their features; :meth:`receive` takes their splits and moves the
    tree on until it waits again (or is done).  Split nodes whose
    children may be searched are queued on ``partitions`` for the
    engine, which fills in the children's lanes before the next search.
    """

    def __init__(self, root: _Node, subspace: np.ndarray, rng, params: GrowthParams):
        self.root: TreeNode | None = None
        self.subspace = subspace
        self.rng = rng
        self.params = params
        self.pending: list[_Node] = []
        self.leaves: list[_Node] = []
        self.best_first = params.max_leaf_nodes is not None
        # Depth-first frontier: a stack.  Best-first frontier: a heap of
        # searched nodes keyed by gain, plus the children of the latest
        # expansion until both searches are back.
        self.stack: list[_Node] = []
        self.heap: list[tuple[float, int, _Node]] = []
        self.expanding: list[_Node] = []
        self.pushed = 0
        self.n_leaves = 1
        if self.best_first:
            self._queue(root, search=True)
            self.expanding = list(self.pending)
        else:
            self.stack.append(root)

    def _can_split(self, node: _Node) -> bool:
        params = self.params
        if params.max_depth is not None and node.depth >= params.max_depth:
            return False
        k = node.index.shape[0]
        return k >= params.min_samples_split and k >= 2 * params.min_samples_leaf

    def _queue(self, node: _Node, search: bool) -> None:
        """Draw ``node``'s candidate features and queue its search, or
        make it a leaf.  ``search=False`` (a child of a best-first tree's
        last expansion, which is never expanded) still draws, so the
        tree's RNG stream ends where searching the child would leave it."""
        if not self._can_split(node):
            self._leaf(node)
            return
        subspace, max_features = self.subspace, self.params.max_features
        if max_features is None or max_features >= subspace.shape[0]:
            node.features, node.positions = subspace, None
        else:
            chosen = self.rng.choice(subspace.shape[0], size=max_features, replace=False)
            node.positions = np.sort(chosen)
            node.features = subspace[node.positions]
        if search:
            self.pending.append(node)
        else:
            self._leaf(node)

    def _leaf(self, node: _Node) -> None:
        node.rows = node.split = None  # a leaf keeps only its row ids
        self.leaves.append(node)

    def _attach(self, node: _Node, tree_node: TreeNode) -> None:
        if node.parent is None:
            self.root = tree_node
        else:
            setattr(node.parent, node.side, tree_node)

    def _split(self, node: _Node, split: Split, partitions: list, search: bool):
        """Turn ``node`` into an internal node; returns its two children.

        Their lanes are queued for partitioning if either may be
        searched (a child the depth cap or the size floors make a leaf
        never needs them).
        """
        internal = InternalNode(
            feature=split.feature, threshold=split.threshold,
            left=None, right=None,  # type: ignore[arg-type]
        )
        self._attach(node, internal)
        depth = node.depth + 1
        left = _Node(split.left_index, depth, internal, "left")
        right = _Node(split.right_index, depth, internal, "right")
        if search and (self._can_split(left) or self._can_split(right)):
            partitions.append((node.rows, split, left, right))
        node.rows = node.split = None  # the children own the lanes now
        return left, right

    def receive(self, splits: list[Split | None], partitions: list) -> None:
        """Take the splits of the pending nodes and move on."""
        retry = []
        for node, split in zip(self.pending, splits):
            if split is None and node.positions is not None:
                # The sampled features were uninformative; retry once
                # with the whole subspace so trees can still isolate
                # heavily-weighted trigger samples.
                node.features, node.positions = self.subspace, None
                retry.append(node)
            elif self.best_first:
                node.split = split  # waits for its sibling
            elif split is None:
                self._leaf(node)
            else:
                self.stack.extend(self._split(node, split, partitions, True))
        self.pending = retry
        if not retry:
            self.advance(partitions)

    def advance(self, partitions: list) -> None:
        """Move on until the tree waits on a search or is finished."""
        if self.pending:
            return
        if not self.best_first:
            while not self.pending and self.stack:
                self._queue(self.stack.pop(), search=True)
            return
        # Children enter the heap once both are back, left first: the
        # push counter breaks gain ties in that order.
        for node in self.expanding:
            if node.split is None:
                self._leaf(node)
            else:
                heapq.heappush(self.heap, (-node.split.gain, self.pushed, node))
                self.pushed += 1
        max_leaves = self.params.max_leaf_nodes
        while not self.pending and self.heap and self.n_leaves < max_leaves:
            _, _, node = heapq.heappop(self.heap)
            self.n_leaves += 1  # one leaf became two
            # After the last expansion the children stay leaves: their
            # features are still drawn, but never searched.
            search = self.n_leaves < max_leaves
            left, right = self._split(node, node.split, partitions, search)
            self._queue(left, search)
            self._queue(right, search)
        self.expanding = list(self.pending)
        if not self.pending:
            # Frontier nodes never expanded stay leaves.
            for _, _, node in self.heap:
                self._leaf(node)
            self.heap = []

    def finish(
        self, codes: np.ndarray, weights: np.ndarray, classes: np.ndarray
    ) -> tuple[TreeNode, np.ndarray]:
        """Label every leaf from one class-count pass.

        Returns the root and the tree's answer on its training rows: the
        class code of the leaf each row reached, ``-1`` for the rows of
        zero weight, which never entered the tree.
        """
        n_classes = classes.shape[0]
        n_leaves = len(self.leaves)
        flat = np.concatenate([node.index for node in self.leaves])
        leaf_of = np.repeat(np.arange(n_leaves), [node.index.shape[0] for node in self.leaves])
        # Each (leaf, class) bin sums its weights in row order, as a
        # per-leaf bincount would.
        counts = np.bincount(
            leaf_of * n_classes + codes[flat],
            weights=weights[flat],
            minlength=n_leaves * n_classes,
        ).reshape(n_leaves, n_classes)
        leaf_codes = np.argmax(counts, axis=1)
        answer = np.full(codes.shape[0], -1, dtype=np.min_scalar_type(-n_classes))
        answer[flat] = leaf_codes[leaf_of]
        labels = classes.tolist()
        predictions = classes[leaf_codes].tolist()
        for node, prediction, row in zip(self.leaves, predictions, counts.tolist()):
            leaf = Leaf(
                prediction=prediction,
                class_weights={labels[c]: row[c] for c in range(n_classes) if row[c] > 0},
            )
            self._attach(node, leaf)
        assert self.root is not None
        return self.root, answer


def _partition(presort: SortedDataset, partitions: list) -> None:
    """Fill in the lanes of every child queued this step.

    Parents are partitioned in batches of at most ``_BATCH_ELEMENTS``
    lane elements (a lone larger parent makes its own batch), so the
    batch's temporaries stay as small as a search block's.
    """
    start = 0
    while start < len(partitions):
        stop, elements = start, 0
        while stop < len(partitions) and (
            stop == start or elements + partitions[stop][0].size <= _BATCH_ELEMENTS
        ):
            elements += partitions[stop][0].size
            stop += 1
        batch = partitions[start:stop]
        # Drop the queue's hold on these parents' lanes: they are freed
        # as soon as their children's exist.
        partitions[start:stop] = [None] * (stop - start)
        children = partition_orderings(
            presort,
            [
                (rows, split.feature, split.threshold, split.left_index.shape[0])
                for rows, split, _, _ in batch
            ],
        )
        for (_, _, left, right), (left_rows, right_rows) in zip(batch, children):
            left.rows, right.rows = left_rows, right_rows
        del batch, children
        start = stop


def _grow_lockstep(codes, weights, classes, params, presort, index, slots):
    """Grow the trees of ``slots`` together, one batched search per step."""
    trees = []
    for subspace, rng in slots:
        root = _Node(index, 0, None, "left")
        root.rows = root_ordering(presort, index, subspace)
        trees.append(_Tree(root, subspace, rng, params))
    partitions: list = []
    for tree in trees:
        tree.advance(partitions)
    while True:
        _partition(presort, partitions)
        partitions = []
        growing = [tree for tree in trees if tree.pending]
        if not growing:
            break
        splits = find_best_split(
            presort,
            codes,
            weights,
            [
                NodeSearch(node.index, node.rows, node.features, node.positions)
                for tree in growing
                for node in tree.pending
            ],
            classes.shape[0],
            params.criterion,
            params.min_samples_leaf,
            params.min_impurity_decrease,
        )
        at = 0
        for tree in growing:
            n = len(tree.pending)
            tree.receive(splits[at : at + n], partitions)
            at += n
    return [tree.finish(codes, weights, classes) for tree in trees]


def grow_trees(
    codes: np.ndarray,
    weights: np.ndarray,
    classes: np.ndarray,
    params: GrowthParams,
    presort: SortedDataset,
    slots: list[tuple[np.ndarray, np.random.Generator]],
) -> list[tuple[TreeNode, np.ndarray]]:
    """Grow one tree per ``(subspace, rng)`` slot over the full training set.

    ``presort`` is the training matrix's
    :class:`~repro.trees.presort.SortedDataset` (see
    :func:`~repro.trees.presort.presorted_dataset`); ``codes`` and
    ``weights`` are its class codes and sample weights.  Rows of zero
    weight never enter a tree.  Slots grow in lockstep, in consecutive
    groups of at most ``_LOCKSTEP_ELEMENTS`` root lane elements (a lone
    larger tree makes its own group).  Each tree is the one growing it
    alone would give — the batch only decides how many nodes share a
    search.

    Returns, per slot, the tree's root and its answer on the training
    rows: the class code of the leaf each row reached, ``-1`` where a
    row of zero weight never entered the tree.  A split sends a row
    left on ``X[row, feature] <= threshold``, the test descent makes,
    so that leaf is the one prediction reaches.
    """
    index = np.flatnonzero(weights > 0)
    grown: list[tuple[TreeNode, np.ndarray]] = []
    group: list[tuple[np.ndarray, np.random.Generator]] = []
    elements = 0
    for subspace, rng in slots:
        size = subspace.shape[0] * index.shape[0]
        if group and elements + size > _LOCKSTEP_ELEMENTS:
            grown += _grow_lockstep(codes, weights, classes, params, presort, index, group)
            group, elements = [], 0
        group.append((subspace, rng))
        elements += size
    grown += _grow_lockstep(codes, weights, classes, params, presort, index, group)
    return grown
