"""Node-local reference implementations of split search, for tests.

The library searches splits over presorted lanes (see
:mod:`repro.trees.splitter` and :mod:`repro.trees.presort`).  The
straightforward implementation sorts each candidate feature's values at
every node and scans them one feature at a time.  It is slow, but
simple enough to check by eye, so the differential tests compare the
library against it: the same thresholds, tie-breaks and gains, bit for
bit.

- :func:`local_best_split` searches one node: the training arrays, the
  node's rows and its candidate features, without any lanes.
- :func:`local_find_best_split` has the batched signature of
  :func:`repro.trees.splitter.find_best_split` and loops
  :func:`local_best_split` over the nodes it is handed.
- :func:`node_local_growth` swaps it in for the library's search while
  a tree, forest or regression tree is fitted, which yields the tree
  node-local search would grow.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.trees import growth, regression
from repro.trees.criteria import weighted_class_counts
from repro.trees.splitter import Split

MIN_VALUE_GAP = 1e-12


def _best_position_for_feature(
    values, codes, weights, n_classes, criterion, min_samples_leaf, parent
):
    """Best split of one feature: ``(gain, threshold)`` or ``None``."""
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    if sorted_values[-1] - sorted_values[0] <= MIN_VALUE_GAP:
        return None
    one_hot = np.zeros((values.shape[0], n_classes), dtype=np.float64)
    one_hot[np.arange(values.shape[0]), codes[order]] = weights[order]
    prefix = np.cumsum(one_hot, axis=0)
    total = prefix[-1]
    n = values.shape[0]

    # Candidate positions i mean "first i sorted samples go left".
    positions = np.arange(1, n)
    distinct = sorted_values[1:] - sorted_values[:-1] > MIN_VALUE_GAP
    big_enough = (positions >= min_samples_leaf) & (n - positions >= min_samples_leaf)
    positions = positions[distinct & big_enough]
    if positions.size == 0:
        return None

    left_counts = prefix[positions - 1]
    right_counts = total[None, :] - left_counts
    child = left_counts.sum(axis=1) * criterion(left_counts) + right_counts.sum(
        axis=1
    ) * criterion(right_counts)
    gains = parent - child

    best = int(np.argmax(gains))
    position = int(positions[best])
    threshold = 0.5 * (sorted_values[position - 1] + sorted_values[position])
    if threshold <= sorted_values[position - 1]:
        threshold = sorted_values[position - 1]
    return float(gains[best]), float(threshold)


def local_best_split(
    X,
    codes,
    weights,
    index,
    candidate_features,
    n_classes,
    criterion,
    min_samples_leaf,
    min_impurity_decrease,
) -> Split | None:
    """Best split of the node ``index``, one feature at a time."""
    node_counts = weighted_class_counts(codes[index], weights[index], n_classes)
    parent = float(node_counts.sum() * criterion(node_counts[None, :])[0])
    if parent <= 0.0 or index.shape[0] < 2:
        return None
    best = None  # (gain, threshold, feature)
    for feature in np.asarray(candidate_features):
        result = _best_position_for_feature(
            X[index, feature], codes[index], weights[index], n_classes,
            criterion, min_samples_leaf, parent,
        )
        if result is None:
            continue
        gain, threshold = result
        # Deterministic tie-break: the lowest feature id wins.
        if best is None or (gain, -int(feature)) > (best[0], -best[2]):
            best = (gain, threshold, int(feature))
    if best is None:
        return None
    gain, threshold, feature = best
    if gain < min_impurity_decrease or gain <= 1e-15:
        return None
    go_left = X[index, feature] <= threshold
    return Split(feature, threshold, gain, index[go_left], index[~go_left])


def local_find_best_split(
    presort, codes, weights, nodes, n_classes, criterion, min_samples_leaf,
    min_impurity_decrease,
):
    """The batched search's contract, one node at a time."""
    X = presort.XT.T
    return [
        local_best_split(
            X, codes, weights, node.index, node.features, n_classes, criterion,
            min_samples_leaf, min_impurity_decrease,
        )
        for node in nodes
    ]


class _LocalSort:
    """Stands in for a ``SortedDataset``: sorts every node from scratch."""

    def __init__(self, X):
        self.X = X

    def node_sorted(self, index, features):
        rows = np.stack(
            [index[np.argsort(self.X[index, f], kind="stable")] for f in features]
        )
        return rows, np.take_along_axis(self.X.T[features], rows, axis=1)


@contextmanager
def node_local_growth(monkeypatch):
    """Fit trees with node-local split search inside the block.

    Classification trees call :func:`local_find_best_split` instead of
    the presorted search, and regression trees sort every node's values
    instead of filtering the dataset's sort cache.  Only in-process
    fits are affected (``n_jobs`` must stay serial).
    """
    with monkeypatch.context() as patch:
        patch.setattr(growth, "find_best_split", local_find_best_split)
        patch.setattr(regression, "presorted_dataset", _LocalSort)
        yield
