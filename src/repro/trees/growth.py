"""Tree growth strategies: depth-first and best-first (leaf-capped).

Two builders are provided because the paper's ``Adjust`` heuristic caps
*both* the depth and the number of leaves of the trained trees.  A cap
on ``max_leaf_nodes`` only makes sense with best-first growth (always
expand the frontier leaf with the largest impurity decrease, as sklearn
does); without a leaf cap, classic depth-first growth is used.

Both builders maintain a :class:`~repro.trees.presort.NodeOrdering`
per frame: the root's feature-sorted lanes come from the dataset's
global sort cache, and every split *partitions* the parent's lanes into
the children's with one stable boolean compress per lane — no node ever
re-sorts, and no per-node work depends on the full dataset size.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .criteria import weighted_class_counts
from .node import InternalNode, Leaf, TreeNode
from .presort import NodeOrdering, partition_ordering, root_ordering
from .splitter import Split, find_best_split

__all__ = ["GrowthParams", "grow_tree"]


@dataclass
class GrowthParams:
    """Hyper-parameters controlling tree induction.

    ``max_features`` is the number of features sampled (without
    replacement) at *each split*; ``feature_subset`` restricts the whole
    tree to a fixed subspace (the forest assigns one per tree, which is
    how the paper's "each tree is trained on a subset of the features"
    is realised).
    """

    criterion: object
    max_depth: int | None = None
    max_leaf_nodes: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    min_impurity_decrease: float = 0.0
    max_features: int | None = None


def _make_leaf(
    index: np.ndarray,
    codes: np.ndarray,
    weights: np.ndarray,
    classes: np.ndarray,
) -> Leaf:
    """Build a leaf predicting the weighted-majority class of ``index``."""
    counts = weighted_class_counts(codes[index], weights[index], classes.shape[0])
    prediction = int(classes[int(np.argmax(counts))])
    class_weights = {
        int(classes[c]): float(counts[c]) for c in range(classes.shape[0]) if counts[c] > 0
    }
    return Leaf(prediction=prediction, class_weights=class_weights)


def _candidate_features(
    subspace: np.ndarray, params: GrowthParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray | None]:
    """Sample the features considered by one split.

    Returns ``(features, positions)`` where ``positions`` locates the
    sample within the subspace (``None`` when every subspace feature is
    considered) — the positions index the node ordering's lanes.
    """
    if params.max_features is None or params.max_features >= subspace.shape[0]:
        return subspace, None
    chosen = rng.choice(subspace.shape[0], size=params.max_features, replace=False)
    positions = np.sort(chosen)
    return subspace[positions], positions


def _child_can_split(k: int, depth: int, params: GrowthParams) -> bool:
    """Whether a child of size ``k`` at ``depth`` can possibly split.

    Mirrors the early-out checks of :func:`_search_split`; children that
    fail them become leaves, so partitioning an ordering for them would
    be wasted work.
    """
    if params.max_depth is not None and depth >= params.max_depth:
        return False
    return k >= params.min_samples_split and k >= 2 * params.min_samples_leaf


def _child_orderings(
    presort,
    ordering: NodeOrdering,
    split: Split,
    child_depth: int,
    params: GrowthParams,
) -> tuple[NodeOrdering | None, NodeOrdering | None]:
    """Partition a split node's ordering for the children that need one."""
    want_left = _child_can_split(split.left_index.shape[0], child_depth, params)
    want_right = _child_can_split(split.right_index.shape[0], child_depth, params)
    if not (want_left or want_right):
        return None, None
    return partition_ordering(
        presort, ordering, split.left_index, split.right_index, want_left, want_right
    )


def _search_split(
    X: np.ndarray,
    codes: np.ndarray,
    weights: np.ndarray,
    index: np.ndarray,
    depth: int,
    subspace: np.ndarray,
    n_classes: int,
    params: GrowthParams,
    rng: np.random.Generator,
    ordering: NodeOrdering | None,
) -> Split | None:
    """Find a split for a node, honouring all stopping criteria.

    ``ordering`` is ``None`` exactly for nodes the early-outs below turn
    into leaves (see :func:`_child_can_split`).
    """
    if params.max_depth is not None and depth >= params.max_depth:
        return None
    if index.shape[0] < params.min_samples_split:
        return None
    if index.shape[0] < 2 * params.min_samples_leaf:
        return None
    features, positions = _candidate_features(subspace, params, rng)
    split = find_best_split(
        X,
        codes,
        weights,
        index,
        features,
        n_classes,
        params.criterion,
        params.min_samples_leaf,
        params.min_impurity_decrease,
        ordering,
        positions,
    )
    if split is None and positions is not None:
        # The sampled feature subset may have been uninformative even
        # though the node is impure; retry once with the full subspace so
        # trees can still isolate heavily-weighted trigger samples.
        # (``positions is None`` means the first search already covered
        # the whole subspace — a retry would repeat it verbatim.)
        split = find_best_split(
            X,
            codes,
            weights,
            index,
            subspace,
            n_classes,
            params.criterion,
            params.min_samples_leaf,
            params.min_impurity_decrease,
            ordering,
        )
    return split


def _grow_depth_first(
    X: np.ndarray,
    codes: np.ndarray,
    weights: np.ndarray,
    index: np.ndarray,
    subspace: np.ndarray,
    classes: np.ndarray,
    params: GrowthParams,
    rng: np.random.Generator,
    presort,
) -> TreeNode:
    """Classic recursive growth (explicit stack, no recursion limits)."""
    n_classes = classes.shape[0]
    ordering = root_ordering(presort, index, subspace, codes, weights)
    # Each frame is (index, depth, parent, side, ordering); parent None
    # means root.
    root_holder: list[TreeNode] = []
    stack: list[tuple[np.ndarray, int, InternalNode | None, str, NodeOrdering | None]] = [
        (index, 0, None, "left", ordering)
    ]
    while stack:
        node_index, depth, parent, side, node_ordering = stack.pop()
        split = _search_split(
            X, codes, weights, node_index, depth, subspace, n_classes, params, rng,
            node_ordering,
        )
        node: TreeNode
        if split is None:
            node = _make_leaf(node_index, codes, weights, classes)
        else:
            node = InternalNode(
                feature=split.feature,
                threshold=split.threshold,
                left=None,  # type: ignore[arg-type]
                right=None,  # type: ignore[arg-type]
            )
            left_ordering, right_ordering = _child_orderings(
                presort, node_ordering, split, depth + 1, params
            )
            stack.append((split.left_index, depth + 1, node, "left", left_ordering))
            stack.append((split.right_index, depth + 1, node, "right", right_ordering))
        if parent is None:
            root_holder.append(node)
        elif side == "left":
            parent.left = node
        else:
            parent.right = node
    return root_holder[0]


def _grow_best_first(
    X: np.ndarray,
    codes: np.ndarray,
    weights: np.ndarray,
    index: np.ndarray,
    subspace: np.ndarray,
    classes: np.ndarray,
    params: GrowthParams,
    rng: np.random.Generator,
    presort,
) -> TreeNode:
    """Best-first growth: repeatedly expand the frontier leaf with the
    largest weighted impurity decrease until ``max_leaf_nodes`` is hit."""
    n_classes = classes.shape[0]
    max_leaves = params.max_leaf_nodes
    assert max_leaves is not None and max_leaves >= 2

    counter = itertools.count()  # heap tie-breaker for determinism

    @dataclass
    class _Frontier:
        index: np.ndarray
        depth: int
        parent: InternalNode | None
        side: str
        split: Split | None
        ordering: NodeOrdering | None

    def _attach(parent: InternalNode | None, side: str, node: TreeNode) -> None:
        nonlocal root
        if parent is None:
            root = node
        elif side == "left":
            parent.left = node
        else:
            parent.right = node

    root: TreeNode = _make_leaf(index, codes, weights, classes)
    heap: list[tuple[float, int, _Frontier]] = []

    def _push(entry: _Frontier) -> None:
        entry.split = _search_split(
            X, codes, weights, entry.index, entry.depth, subspace, n_classes, params,
            rng, entry.ordering,
        )
        if entry.split is None:
            entry.ordering = None  # nothing left to partition; free the lanes
            _attach(entry.parent, entry.side, _make_leaf(entry.index, codes, weights, classes))
        else:
            heapq.heappush(heap, (-entry.split.gain, next(counter), entry))

    ordering = root_ordering(presort, index, subspace, codes, weights)
    _push(
        _Frontier(
            index=index, depth=0, parent=None, side="left", split=None,
            ordering=ordering,
        )
    )
    n_leaves = 1
    while heap and n_leaves < max_leaves:
        _, _, entry = heapq.heappop(heap)
        split = entry.split
        assert split is not None
        node = InternalNode(
            feature=split.feature,
            threshold=split.threshold,
            left=_make_leaf(split.left_index, codes, weights, classes),
            right=_make_leaf(split.right_index, codes, weights, classes),
        )
        _attach(entry.parent, entry.side, node)
        n_leaves += 1  # one leaf became two
        left_ordering, right_ordering = _child_orderings(
            presort, entry.ordering, split, entry.depth + 1, params
        )
        entry.ordering = None
        _push(
            _Frontier(
                split.left_index, entry.depth + 1, node, "left", None, left_ordering
            )
        )
        _push(
            _Frontier(
                split.right_index, entry.depth + 1, node, "right", None, right_ordering
            )
        )
    # Frontier nodes never expanded stay as the provisional leaves they
    # already are (attached when their parents were created).
    return root


def grow_tree(
    X: np.ndarray,
    codes: np.ndarray,
    weights: np.ndarray,
    subspace: np.ndarray,
    classes: np.ndarray,
    params: GrowthParams,
    rng: np.random.Generator,
    presort,
) -> TreeNode:
    """Grow a decision tree over the full training set.

    Chooses best-first growth when ``max_leaf_nodes`` is set (so the cap
    binds on the most useful expansions first, like sklearn) and
    depth-first growth otherwise.  ``presort`` is the dataset's
    :class:`~repro.trees.presort.SortedDataset` (see
    :func:`~repro.trees.presort.presorted_dataset`).
    """
    index = np.arange(X.shape[0])
    positive_weight = weights[index] > 0
    if not positive_weight.all():
        index = index[positive_weight]
    if params.max_leaf_nodes is not None:
        return _grow_best_first(
            X, codes, weights, index, subspace, classes, params, rng, presort
        )
    return _grow_depth_first(
        X, codes, weights, index, subspace, classes, params, rng, presort
    )
