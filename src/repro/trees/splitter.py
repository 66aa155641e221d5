"""Exact best-split search over (optionally weighted) training data.

The splitter evaluates, for each candidate feature, every distinct
threshold between consecutive sorted feature values, using vectorised
prefix sums of weighted class counts.  This reproduces the behaviour the
paper relies on from sklearn: sample weights steer the chosen splits, so
heavily re-weighted trigger instances dominate impurity and force the
tree to carve them out correctly (Algorithm 1, ``TrainWithTrigger``).

The search is **presorted and batched across nodes**: each node's
feature-sorted lanes (row ids, one lane per feature) come from the
per-dataset :class:`~repro.trees.presort.SortedDataset` cache, which
tree growth filters once at the root and partitions down the tree, and
one :func:`find_best_split` call scores every node it is
handed — typically the pending nodes of every tree a forest grows in
lockstep — in one pass.  Lanes of similar length are stacked into
padded ``(lanes, columns)`` blocks (nodes taken by size, a new block
where the padding would cost more than the block, at most
``_BATCH_ELEMENTS`` padded elements each), and values, class codes and
weights are gathered through the row ids per block, so the work is a
few dozen NumPy calls per block instead of per node.  This is SLIQ's
idea (Mehta, Agrawal & Rissanen, EDBT 1996) of scoring many nodes in
one scan of presorted lists.  Nodes handed over with one ``index``
object — the roots of a grow call — share their lanes, so each distinct
feature among them is scored once and its gain and threshold scattered
back to every node that asked for it, as PLANET (Panda et al., VLDB
2009) shares one pass over the data among many nodes' searches.

The batching changes no bit of any split:

- ``np.cumsum`` along a lane adds in sequence, so every prefix at a
  real position is the one a per-node search computes, and a padded
  lane's last prefix (its total plus zero-weight padding) is its total
  exactly;
- padded and out-of-window positions score ``-inf``;
- the cross-lane tie-break is explicit — the maximal gain wins and exact
  ties go to the lowest feature id — so it does not depend on how lanes
  are stacked.

A stable global sort order filtered to an ascending-index subset *is*
the stable argsort of that subset, so the lanes are exactly what a
node-local sort would give; the equal-gain tie-break and the
midpoint-collapse guard are part of the contract.
``tests/trees/test_splitter.py`` checks the search node by node against
a node-local reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .criteria import entropy_impurity, gini_impurity
from .presort import SortedDataset

__all__ = ["NodeSearch", "Split", "find_best_split"]

# Two adjacent feature values closer than this are treated as equal and
# never separated by a threshold, matching the float32-ish granularity
# real tree learners use and keeping midpoint thresholds representable.
_MIN_VALUE_GAP = 1e-12

# Cap on the padded elements (lanes x columns x classes) one block
# evaluates at once, and on the lane elements tree growth partitions at
# once.  Each of a block's dozen float temporaries then stays within
# 128 KiB however many nodes a call is handed: the roots of a 64-tree
# forest alone would otherwise pad to megabytes apiece.
_BATCH_ELEMENTS = 1 << 14

# What one more block costs, in padded elements: its few dozen NumPy
# calls take about as long as scoring this many elements.  Widening a
# block by less padding than this beats opening a new one.
_BLOCK_OVERHEAD = 2048


@dataclass
class Split:
    """Result of a best-split search at one node.

    ``gain`` is the *absolute weighted impurity decrease*
    ``w_node * imp(node) - (w_left * imp(left) + w_right * imp(right))``,
    a quantity comparable across nodes, which is what best-first growth
    orders its expansion heap by.
    """

    feature: int
    threshold: float
    gain: float
    left_index: np.ndarray
    right_index: np.ndarray


class NodeSearch(NamedTuple):
    """One node handed to :func:`find_best_split`.

    ``index`` holds the node's row ids (ascending); ``rows`` its lanes,
    ``(n_lanes, k)`` row ids with lane ``j`` sorted by its feature (see
    :func:`~repro.trees.presort.root_ordering`); ``features`` the
    candidate feature ids and ``lanes`` their lane positions within
    ``rows`` (``None`` = every lane, in order, in which case
    ``features`` names the lanes' features).
    """

    index: np.ndarray
    rows: np.ndarray
    features: np.ndarray
    lanes: np.ndarray | None = None


def _binary_child_weighted(c0, c1, fused, lo, hi, guarded):
    """Fused ``w_l·crit(left) + w_r·crit(right)`` for the two-class case.

    ``c0`` / ``c1`` come in as the lanes' class-0 / class-1 weights
    (one-hot weights: per row exactly one is non-zero) and are turned
    into their prefix sums in place.  The result has shape
    ``(R, hi-lo)``, one row per lane, covering the split positions
    ``lo+1 .. hi``.  Every arithmetic step mirrors the generic
    one-hot/criterion pipeline operation for operation — ``x·x`` for
    ``np.square``, a single add for the two-element class-axis sums —
    so the result is bitwise-identical while touching a third of the
    memory.
    """
    np.cumsum(c0, axis=1, out=c0)
    np.cumsum(c1, axis=1, out=c1)
    l0 = c0[:, lo:hi]
    l1 = c1[:, lo:hi]
    r0 = c0[:, -1:] - l0
    r1 = c1[:, -1:] - l1
    left = fused(l0, l1, l0 + l1, guarded)
    right = fused(r0, r1, r0 + r1, guarded)
    left += right
    return left


def _binary_gini(count0, count1, total, guarded):
    """Two-class Gini times the child weight ``total``, op-for-op equal
    to ``total * gini_impurity(counts)``."""
    p0 = count0 / total
    p1 = count1 / total
    p0 *= p0
    p1 *= p1
    p0 += p1
    impurity = np.subtract(1.0, p0, out=p0)
    if guarded:
        impurity = np.where(total > 0, impurity, 0.0)
    impurity *= total
    return impurity


def _binary_entropy(count0, count1, total, guarded):
    """Two-class entropy times the child weight ``total``, op-for-op
    equal to ``total * entropy_impurity(counts)``."""
    p0 = count0 / total
    p1 = count1 / total
    log0 = np.where(p0 > 0, np.log2(np.maximum(p0, 1e-300)), 0.0)
    log1 = np.where(p1 > 0, np.log2(np.maximum(p1, 1e-300)), 0.0)
    impurity = -(p0 * log0 + p1 * log1)
    if guarded:
        impurity = np.where(total > 0, impurity, 0.0)
    impurity *= total
    return impurity


_FUSED = {gini_impurity: _binary_gini, entropy_impurity: _binary_entropy}


def _generic_child_weighted(codes, weights, n_classes, criterion, lo, hi):
    """Generic ``w_l·crit(left) + w_r·crit(right)``: any C, any criterion."""
    n_rows, width = codes.shape
    one_hot = np.zeros((n_rows, width, n_classes), dtype=np.float64)
    one_hot[np.arange(n_rows)[:, None], np.arange(width)[None, :], codes] = weights
    prefix = np.cumsum(one_hot, axis=1)
    left_counts = prefix[:, lo:hi, :]  # position i+1 sends sorted rows 0..i left
    right_counts = prefix[:, -1:, :] - left_counts
    left_weight = left_counts.sum(axis=2)
    right_weight = right_counts.sum(axis=2)
    return left_weight * criterion(left_counts) + right_weight * criterion(
        right_counts
    )


def _parent_weighted_impurity(counts: np.ndarray, criterion) -> np.ndarray:
    """``w_node · crit(node)`` per row of an ``(N, C)`` class-count table."""
    if counts.shape[1] == 2 and criterion is gini_impurity:
        # The fused two-class Gini: the same IEEE add / divide /
        # multiply sequence as the generic criterion, fewer temporaries.
        total = counts[:, 0] + counts[:, 1]
        return _binary_gini(counts[:, 0], counts[:, 1], total, True)
    return counts.sum(axis=1) * criterion(counts)


class _Kernel(NamedTuple):
    """What every block of one :func:`find_best_split` call shares.

    ``tables`` are two per-row arrays the lanes gather through their row
    ids — class-0 and class-1 weights for a fused two-class criterion
    (``fused`` set), class codes and weights otherwise.  Each carries
    one extra entry, the padding row ``n``, of zero weight.
    """

    presort: SortedDataset
    tables: tuple[np.ndarray, np.ndarray]
    fused: object
    guarded: bool
    n_classes: int
    criterion: object
    min_samples_leaf: int


def _score_block(kernel: _Kernel, parts, nodes, sizes, parent, features):
    """Best position of every lane in one padded block.

    ``parts`` lists ``(node, first lane, stop lane)`` triples, sorted by
    node size, so the block is as wide as its last node; ``features``
    holds the block's lane features.  Returns ``(gains, thresholds)``,
    one entry per lane (``-inf`` where a lane has no admissible
    position).  Every step at a real position is the element-wise image
    of a per-node search, so the floats there — and hence every
    selected split — are the ones a node-local search would compute.
    """
    n = kernel.presort.n_samples
    width = int(sizes[parts[-1][0]])
    part_nodes = [i for i, _, _ in parts]
    part_lanes = [stop - first for _, first, stop in parts]
    n_rows = sum(part_lanes)
    # Padding points at row n: zero weight, so it is inert in the prefix
    # sums, and its positions are masked below.
    rows = np.full((n_rows, width), n, dtype=np.intp)
    row = 0
    for i, first, stop in parts:
        node = nodes[i]
        lanes = slice(first, stop) if node.lanes is None else node.lanes[first:stop]
        end = row + stop - first
        rows[row:end, : sizes[i]] = node.rows[lanes]
        row = end
    row_size = np.repeat(sizes[part_nodes], part_lanes)
    row_parent = np.repeat(parent[part_nodes], part_lanes)
    first_table, second_table = kernel.tables
    # Feature-major values, gathered flat; padding reads a neighbouring
    # (or clipped) value, which the mask below never admits.
    values = np.take(kernel.presort.XT, features[:, None] * n + rows, mode="clip")

    # Admissible positions form the window
    # ``min_samples_leaf <= position <= k - min_samples_leaf``; in the
    # gains-column space (column c ↔ position c+1) that is [lo, hi).
    # Positions are never below 1 or above k-1, so the window clamps to
    # that range, which also keeps a ``min_samples_leaf=0`` call
    # (only reachable by calling the search directly) well defined.
    min_samples_leaf = kernel.min_samples_leaf
    lo = max(0, min_samples_leaf - 1)
    row_hi = np.minimum(row_size - min_samples_leaf, row_size - 1)
    hi = min(width - min_samples_leaf, width - 1)
    if lo >= hi:
        return np.full(n_rows, -np.inf), np.zeros(n_rows)

    # Unguarded criteria divide by zero-weight children only at padded
    # positions, whose NaNs the mask below replaces.
    with np.errstate(divide="ignore", invalid="ignore"):
        if kernel.fused is not None:
            child_weighted = _binary_child_weighted(
                first_table[rows], second_table[rows], kernel.fused, lo, hi,
                kernel.guarded,
            )
        else:
            child_weighted = _generic_child_weighted(
                first_table[rows], second_table[rows], kernel.n_classes,
                kernel.criterion, lo, hi,
            )
    gains = row_parent[:, None] - child_weighted  # (R, hi-lo)
    admissible = (values[:, lo + 1 : hi + 1] - values[:, lo:hi] > _MIN_VALUE_GAP) & (
        np.arange(lo, hi)[None, :] < row_hi[:, None]
    )
    masked = np.where(admissible, gains, -np.inf)
    columns = np.argmax(masked, axis=1)  # first maximum per lane
    lane = np.arange(n_rows)
    best = masked[lane, columns]
    position = columns + (lo + 1)
    below = values[lane, position - 1]
    threshold = 0.5 * (below + values[lane, position])
    threshold = np.where(threshold <= below, below, threshold)
    return best, threshold


def _blocks(sizes, n_lanes, n_classes):
    """Group lanes into padded blocks of similar width.

    ``sizes`` and ``n_lanes`` describe the searched nodes by ascending
    size, so each node widens the block it joins to its own size.  A
    node opens a new block when the padding it would add to the lanes
    already there outweighs the fixed cost of a block
    (``_BLOCK_OVERHEAD``), or when the block is full: it
    never exceeds ``_BATCH_ELEMENTS`` padded elements, and a node too
    wide for that alone is split across blocks lane by lane.
    """
    blocks: list[list[tuple[int, int, int]]] = []
    current: list[tuple[int, int, int]] = []
    current_rows = current_width = 0
    for i in range(len(sizes)):
        k = int(sizes[i])
        rows_fit = max(1, _BATCH_ELEMENTS // (k * n_classes))
        first = 0
        lanes = int(n_lanes[i])
        while first < lanes:
            if current and (
                current_rows >= rows_fit
                or current_rows * (k - current_width) * n_classes > _BLOCK_OVERHEAD
            ):
                blocks.append(current)
                current, current_rows = [], 0
            current_width = k
            stop = min(lanes, first + rows_fit - current_rows)
            current.append((i, first, stop))
            current_rows += stop - first
            first = stop
    if current:
        blocks.append(current)
    return blocks


def _lane_plan(nodes, order):
    """The lanes one call scores, each ``(index, feature)`` lane once.

    Nodes handed over with the same ``index`` object — the roots of one
    grow call, which all hold every training row of positive weight —
    share their lanes feature by feature: sorting a node's rows by a
    feature gives one lane whichever tree asks.  Each distinct feature
    of such a group is scored once, on the lane of the first node in
    ``order`` that holds it.

    Returns ``(searched, owners, lane_of)``: the nodes to score (a
    shared group's nodes narrowed to the features they contribute),
    the node each one belongs to, and for every lane of the nodes of
    ``order`` (concatenated) the searched lane holding its scores —
    ``None`` when no node shares its index, and every node is searched
    as handed over.
    """
    if len({id(nodes[i].index) for i in order}) == len(order):
        return [nodes[i] for i in order], order, None
    groups: dict[int, list[int]] = {}
    for i in order:
        groups.setdefault(id(nodes[i].index), []).append(i)
    searched: list[NodeSearch] = []
    owners: list[int] = []
    node_map: dict[int, np.ndarray] = {}
    base = 0  # searched lanes so far
    for members in groups.values():
        if len(members) == 1:
            [i] = members
            searched.append(nodes[i])
            owners.append(i)
            node_map[i] = np.arange(base, base + nodes[i].features.shape[0])
            base += nodes[i].features.shape[0]
            continue
        features = np.concatenate([nodes[i].features for i in members])
        _, first, inverse = np.unique(features, return_index=True, return_inverse=True)
        taken = np.sort(first)
        # A distinct feature's scores sit at its first occurrence's rank
        # among the lanes taken, in member order.
        rank = np.empty(first.shape[0], dtype=np.intp)
        rank[np.argsort(first)] = np.arange(first.shape[0])
        lane = base + rank[inverse]
        base += first.shape[0]
        start = 0
        for i in members:
            node = nodes[i]
            stop = start + node.features.shape[0]
            node_map[i] = lane[start:stop]
            own = taken[(taken >= start) & (taken < stop)] - start
            if own.size:
                positions = own if node.lanes is None else node.lanes[own]
                searched.append(NodeSearch(node.index, node.rows, node.features[own], positions))
                owners.append(i)
            start = stop
    return searched, owners, np.concatenate([node_map[i] for i in order])


def find_best_split(
    presort: SortedDataset,
    codes: np.ndarray,
    weights: np.ndarray,
    nodes: Sequence[NodeSearch],
    n_classes: int,
    criterion,
    min_samples_leaf: int,
    min_impurity_decrease: float,
) -> list[Split | None]:
    """Search the best split of every node in ``nodes`` in one pass.

    Parameters
    ----------
    presort:
        The training matrix's :class:`~repro.trees.presort.SortedDataset`;
        lane values are gathered from its feature-major copy.
    codes, weights:
        Full training arrays; ``codes`` are class codes in ``[0, n_classes)``.
    nodes:
        The nodes to search (see :class:`NodeSearch`), from any number
        of trees grown on these arrays.  Nodes passing the same
        ``index`` object must hold the same rows per feature (their
        stable sort by it); their shared features are scored once.
    criterion:
        Vectorised impurity function from :mod:`repro.trees.criteria`.
    min_samples_leaf:
        Minimum number of samples (unweighted) in each child.
    min_impurity_decrease:
        Minimum absolute weighted impurity decrease to accept a split.

    Returns
    -------
    list[Split | None]
        Per node, the best admissible split, or ``None`` if the node
        must stay a leaf.  Each answer is the one a search of that node
        alone gives, bit for bit.
    """
    n_nodes = len(nodes)
    results: list[Split | None] = [None] * n_nodes
    if n_nodes == 0:
        return results
    sizes = np.array([node.index.shape[0] for node in nodes], dtype=np.intp)
    flat_index = np.concatenate([node.index for node in nodes])
    # One bincount for every node: each (node, class) bin accumulates
    # its weights in row order, as a per-node bincount would.
    counts = np.bincount(
        np.repeat(np.arange(n_nodes) * n_classes, sizes) + codes[flat_index],
        weights=weights[flat_index],
        minlength=n_nodes * n_classes,
    ).reshape(n_nodes, n_classes)
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = _parent_weighted_impurity(counts, criterion)
    # A pure node (or one of fewer than two rows) stays a leaf.
    live = np.flatnonzero((parent > 0.0) & (sizes >= 2))
    if live.size == 0:
        return results

    fused = _FUSED.get(criterion) if n_classes == 2 else None
    n = codes.shape[0]
    if fused is not None:
        # One-hot weights: class-1 weight is w - w0 — exact, because per
        # row exactly one of the two terms is zero.
        first_table = np.zeros(n + 1)
        first_table[:n] = np.where(codes == 0, weights, 0.0)
        second_table = np.zeros(n + 1)
        second_table[:n] = weights - first_table[:n]
    else:
        first_table = np.append(codes, 0)
        second_table = np.append(weights, 0.0)
    kernel = _Kernel(
        presort=presort,
        tables=(first_table, second_table),
        fused=fused,
        # Children of positive weight make the criteria's ``total > 0``
        # guard the identity; tree growth keeps zero-weight rows out of
        # every node, so only direct calls pay for it.
        guarded=not weights[flat_index].min() > 0.0,
        n_classes=n_classes,
        criterion=criterion,
        min_samples_leaf=min_samples_leaf,
    )

    order = live[np.argsort(sizes[live], kind="stable")].tolist()
    searched, owners, lane_of = _lane_plan(nodes, order)
    searched_sizes = sizes[owners]
    searched_parent = parent[owners]
    n_lanes = np.array([node.features.shape[0] for node in searched], dtype=np.intp)
    features = np.concatenate([node.features for node in searched])
    gains = np.empty(features.shape[0])
    thresholds = np.empty(features.shape[0])
    row = 0
    for parts in _blocks(searched_sizes, n_lanes, n_classes):
        end = row + sum(stop - first for _, first, stop in parts)
        gains[row:end], thresholds[row:end] = _score_block(
            kernel, parts, searched, searched_sizes, searched_parent, features[row:end]
        )
        row = end
    if lane_of is not None:
        # Scatter the shared lanes' scores back to every node's lanes.
        gains, thresholds = gains[lane_of], thresholds[lane_of]
        features = np.concatenate([nodes[i].features for i in order])
        node_lanes = np.array([nodes[i].features.shape[0] for i in order], dtype=np.intp)
    else:
        node_lanes = n_lanes

    # Per node: the maximal gain wins, exact ties go to the lowest
    # feature id (and, should a feature repeat, to its first lane).
    starts = np.concatenate(([0], np.cumsum(node_lanes)[:-1]))
    row_node = np.repeat(np.arange(len(order)), node_lanes)
    top = np.maximum.reduceat(gains, starts)
    tied = gains == top[row_node]
    lowest = np.minimum.reduceat(
        np.where(tied, features, np.iinfo(np.int64).max), starts
    )
    chosen = np.minimum.reduceat(
        np.where(tied & (features == lowest[row_node]), np.arange(gains.size), gains.size),
        starts,
    )
    best_gain = gains[chosen]
    accepted = np.flatnonzero(~(best_gain < min_impurity_decrease) & (best_gain > 1e-15))
    if accepted.size == 0:
        return results
    split_nodes = [order[j] for j in accepted.tolist()]
    best_feature = features[chosen[accepted]]
    best_threshold = thresholds[chosen[accepted]]
    # Every split node's rows in one gather and one comparison; the
    # stable compresses keep each node's rows in index order.
    split_sizes = sizes[split_nodes]
    split_index = np.concatenate([nodes[i].index for i in split_nodes])
    go_left = presort.XT.take(
        np.repeat(best_feature * n, split_sizes) + split_index
    ) <= np.repeat(best_threshold, split_sizes)
    n_left = np.add.reduceat(go_left, np.cumsum(split_sizes) - split_sizes, dtype=np.intp)
    lefts, rights = split_index[go_left], split_index[~go_left]
    left_ends = np.cumsum(n_left).tolist()
    right_ends = np.cumsum(split_sizes - n_left).tolist()
    left_start = right_start = 0
    for i, feature, threshold, gain, left_end, right_end in zip(
        split_nodes,
        best_feature.tolist(),
        best_threshold.tolist(),
        best_gain[accepted].tolist(),
        left_ends,
        right_ends,
    ):
        results[i] = Split(
            feature=feature,
            threshold=threshold,
            gain=gain,
            left_index=lefts[left_start:left_end],
            right_index=rights[right_start:right_end],
        )
        left_start, right_start = left_end, right_end
    return results
