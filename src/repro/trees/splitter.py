"""Exact best-split search over (optionally weighted) training data.

The splitter evaluates, for each candidate feature, every distinct
threshold between consecutive sorted feature values, using vectorised
prefix sums of weighted class counts.  This reproduces the behaviour the
paper relies on from sklearn: sample weights steer the chosen splits, so
heavily re-weighted trigger instances dominate impurity and force the
tree to carve them out correctly (Algorithm 1, ``TrainWithTrigger``).

The search is **presorted**: a node's feature-sorted lanes come from
a :class:`~repro.trees.presort.NodeOrdering` that tree growth derives
from the per-dataset :class:`~repro.trees.presort.SortedDataset` cache
and partitions down the tree, and all candidate features of a node are
scored in one batched prefix-sum / criterion evaluation — no per-node
sorting, no per-feature Python loop.  A stable global sort order
filtered to an ascending-index subset *is* the stable argsort of that
subset, so the lanes are exactly what a node-local sort would give; the
equal-gain tie-break (lowest feature id) and the midpoint-collapse guard
are part of the contract.  ``tests/trees/test_splitter.py`` checks the
search node by node against a node-local reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import entropy_impurity, gini_impurity, weighted_class_counts

__all__ = ["Split", "find_best_split"]

# Two adjacent feature values closer than this are treated as equal and
# never separated by a threshold, matching the float32-ish granularity
# real tree learners use and keeping midpoint thresholds representable.
_MIN_VALUE_GAP = 1e-12

# Feature-block size cap for the batched evaluation: blocks are sized so
# the (k, F, n_classes) prefix tensors stay within a few dozen MB even
# at the root of a large dataset.
_BLOCK_ELEMENTS = 1 << 21


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


def _binary_child_weighted(
    sorted_codes: np.ndarray,
    sorted_weights: np.ndarray,
    criterion,
    lo: int,
    hi: int,
) -> np.ndarray | None:
    """Fused ``w_l·crit(left) + w_r·crit(right)`` for the two-class case.

    Shape ``(F, hi-lo)``, one row per feature lane, covering the
    admissible split positions ``lo+1 .. hi`` (the ``min_samples_leaf``
    window — positions outside it are masked out downstream anyway, so
    the division chain never runs there).  Every arithmetic step mirrors
    the generic one-hot/criterion pipeline operation for operation —
    ``x·x`` for ``np.square``, a single add for the two-element
    class-axis sums — so the result is bitwise-identical while touching
    a third of the memory.  Returns ``None`` for criteria without a
    fused kernel (callers fall back to the generic path).
    """
    if criterion is gini_impurity:
        fused = _binary_gini
    elif criterion is entropy_impurity:
        fused = _binary_entropy
    else:
        return None
    # One-hot weights: class-1 weight is w - w0 — exact, because per
    # element exactly one of the two terms is zero.
    w0 = np.where(sorted_codes == 0, sorted_weights, 0.0)
    w1 = sorted_weights - w0
    c0 = np.cumsum(w0, axis=1)
    c1 = np.cumsum(w1, axis=1)
    l0 = c0[:, lo:hi]
    l1 = c1[:, lo:hi]
    r0 = c0[:, -1:] - l0
    r1 = c1[:, -1:] - l1
    left_weight = l0 + l1
    right_weight = r0 + r1
    # Strictly positive sample weights make every cumulative child
    # weight positive, so the criterion's ``where(total > 0, ...)``
    # guard is the identity and can be skipped; tree growth guarantees
    # positivity (zero-weight rows never enter the root index), other
    # callers get the guarded evaluation.
    guarded = not sorted_weights[0].min() > 0.0
    if guarded:
        with np.errstate(divide="ignore", invalid="ignore"):
            left = left_weight * fused(l0, l1, left_weight, guarded)
            right = right_weight * fused(r0, r1, right_weight, guarded)
    else:
        # Positive child weights: no division can misfire, so the
        # errstate context (a measurable per-node cost) is skipped too.
        left = left_weight * fused(l0, l1, left_weight, guarded)
        right = right_weight * fused(r0, r1, right_weight, guarded)
    return left + right


def _binary_gini(count0, count1, total, guarded):
    """Two-class Gini, op-for-op equal to :func:`gini_impurity`."""
    p0 = count0 / total
    p1 = count1 / total
    impurity = 1.0 - (p0 * p0 + p1 * p1)
    if not guarded:
        return impurity
    return np.where(total > 0, impurity, 0.0)


def _binary_entropy(count0, count1, total, guarded):
    """Two-class entropy, op-for-op equal to :func:`entropy_impurity`."""
    p0 = count0 / total
    p1 = count1 / total
    log0 = np.where(p0 > 0, np.log2(np.maximum(p0, 1e-300)), 0.0)
    log1 = np.where(p1 > 0, np.log2(np.maximum(p1, 1e-300)), 0.0)
    impurity = -(p0 * log0 + p1 * log1)
    if not guarded:
        return impurity
    return np.where(total > 0, impurity, 0.0)


def _generic_child_weighted(
    sorted_codes: np.ndarray,
    sorted_weights: np.ndarray,
    n_classes: int,
    criterion,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Generic ``w_l·crit(left) + w_r·crit(right)``: any C, any criterion."""
    n_features, k = sorted_codes.shape
    one_hot = np.zeros((n_features, k, n_classes), dtype=np.float64)
    one_hot[
        np.arange(n_features)[:, None], np.arange(k)[None, :], sorted_codes
    ] = sorted_weights
    prefix = np.cumsum(one_hot, axis=1)
    left_counts = prefix[:, lo:hi, :]  # position i+1 sends sorted rows 0..i left
    right_counts = prefix[:, -1:, :] - left_counts
    left_weight = left_counts.sum(axis=2)
    right_weight = right_counts.sum(axis=2)
    return left_weight * criterion(left_counts) + right_weight * criterion(
        right_counts
    )


def _evaluate_feature_block(
    sorted_codes: np.ndarray,
    sorted_weights: np.ndarray,
    sorted_values: np.ndarray,
    features: np.ndarray,
    n_classes: int,
    criterion,
    min_samples_leaf: int,
    parent_weighted_impurity: float,
) -> tuple[float, float, int] | None:
    """Batched best split over one block of presorted features.

    Lane ``j`` of each input holds the node's class codes, sample
    weights and feature values sorted by ``features[j]`` (feature-major,
    contiguous lanes).  Every step is the element-wise image of a
    per-feature prefix-sum search over that lane, so the floats at valid
    positions — and hence the selected split — are the ones a node-local
    search would compute; the lanes merely share one prefix-sum and one
    criterion evaluation.
    """
    n_features, k = sorted_codes.shape
    # Admissible positions form the contiguous window
    # ``min_samples_leaf <= position <= k - min_samples_leaf``; in the
    # gains-column space (column c ↔ position c+1) that is [lo, hi).
    # Positions are never below 1 or above k-1, so the window clamps to
    # that range, which also keeps a ``min_samples_leaf=0`` call
    # (only reachable by calling the search directly) well defined.
    lo = max(0, min_samples_leaf - 1)
    hi = min(k - min_samples_leaf, k - 1)
    if lo >= hi:
        return None

    child_weighted = (
        _binary_child_weighted(sorted_codes, sorted_weights, criterion, lo, hi)
        if n_classes == 2
        else None
    )
    if child_weighted is None:
        child_weighted = _generic_child_weighted(
            sorted_codes, sorted_weights, n_classes, criterion, lo, hi
        )
    gains = parent_weighted_impurity - child_weighted  # (F, hi-lo)

    distinct = (
        sorted_values[:, lo + 1 : hi + 1] - sorted_values[:, lo:hi] > _MIN_VALUE_GAP
    )
    if not distinct.any():
        return None

    masked = np.where(distinct, gains, -np.inf)
    best_columns = np.argmax(masked, axis=1)  # first maximum per feature lane
    best_gains = masked[np.arange(n_features), best_columns]
    admissible = np.flatnonzero(best_gains > -np.inf)
    if admissible.size == 0:
        return None

    # Cross-feature tie-break key (gain, -feature id): the maximal gain
    # wins, exact ties resolve toward the lowest feature id.
    top_gain = best_gains[admissible].max()
    tied = admissible[best_gains[admissible] == top_gain]
    j = int(tied[np.argmin(features[tied])])

    position = int(best_columns[j]) + lo + 1
    lane = sorted_values[j]
    threshold = 0.5 * (lane[position - 1] + lane[position])
    if threshold <= lane[position - 1]:
        threshold = lane[position - 1]
    return float(best_gains[j]), float(threshold), int(features[j])


def _blocked_best(
    sorted_codes: np.ndarray,
    sorted_weights: np.ndarray,
    sorted_values: np.ndarray,
    candidate_features: np.ndarray,
    n_classes: int,
    criterion,
    min_samples_leaf: int,
    parent_weighted_impurity: float,
) -> tuple[float, float, int] | None:
    """Chunk the feature lanes so prefix tensors stay memory-bounded."""
    k = sorted_codes.shape[1]
    block = max(1, _BLOCK_ELEMENTS // max(1, k * n_classes))
    best: tuple[float, float, int] | None = None
    for start in range(0, candidate_features.shape[0], block):
        stop = start + block
        result = _evaluate_feature_block(
            sorted_codes[start:stop],
            sorted_weights[start:stop],
            sorted_values[start:stop],
            candidate_features[start:stop],
            n_classes,
            criterion,
            min_samples_leaf,
            parent_weighted_impurity,
        )
        if result is None:
            continue
        if best is None or (result[0], -result[2]) > (best[0], -best[2]):
            best = result
    return best


def find_best_split(
    X: np.ndarray,
    codes: np.ndarray,
    weights: np.ndarray,
    index: np.ndarray,
    candidate_features: np.ndarray,
    n_classes: int,
    criterion,
    min_samples_leaf: int,
    min_impurity_decrease: float,
    ordering,
    lane_positions: np.ndarray | None = None,
) -> Split | None:
    """Search for the best split of the node holding samples ``index``.

    Parameters
    ----------
    X, codes, weights:
        Full training arrays; ``codes`` are class codes in ``[0, n_classes)``.
    index:
        Row indices of the samples sitting at this node.
    candidate_features:
        Feature ids to consider (already restricted to the tree's feature
        subspace and to the per-split ``max_features`` sample).
    criterion:
        Vectorised impurity function from :mod:`repro.trees.criteria`.
    min_samples_leaf:
        Minimum number of samples (unweighted) in each child.
    min_impurity_decrease:
        Minimum absolute weighted impurity decrease to accept a split.
    ordering:
        The :class:`~repro.trees.presort.NodeOrdering` carrying the
        node's sorted lanes (tree growth maintains these).
        ``lane_positions`` selects the candidate lanes within it
        (``None`` = all lanes, in order).

    Returns
    -------
    Split | None
        The best admissible split, or ``None`` if the node must stay a leaf.
    """
    node_counts = weighted_class_counts(codes[index], weights[index], n_classes)
    if n_classes == 2 and criterion is gini_impurity:
        # Scalar fast path for the dominant case: the same IEEE add /
        # divide / multiply sequence as the vectorised criterion, minus
        # ~10 numpy calls per node.  (Entropy stays on the array path —
        # its log2 must come from the same libm to stay bit-identical.)
        total = node_counts[0] + node_counts[1]
        if total > 0:
            p0 = node_counts[0] / total
            p1 = node_counts[1] / total
            impurity = 1.0 - (p0 * p0 + p1 * p1)
        else:
            impurity = 0.0
        parent_weighted_impurity = float(total * impurity)
    else:
        parent_weighted_impurity = float(
            node_counts.sum() * criterion(node_counts[None, :])[0]
        )
    if parent_weighted_impurity <= 0.0:
        return None  # already pure
    if ordering.codes.shape[1] < 2:
        return None

    lanes = slice(None) if lane_positions is None else lane_positions
    best = _blocked_best(
        ordering.codes[lanes],
        ordering.weights[lanes],
        ordering.values[lanes],
        np.asarray(candidate_features),
        n_classes,
        criterion,
        min_samples_leaf,
        parent_weighted_impurity,
    )
    if best is None:
        return None
    gain, threshold, feature = best
    if gain < min_impurity_decrease or gain <= 1e-15:
        return None

    node_values = X[index, feature]
    go_left = node_values <= threshold
    return Split(
        feature=feature,
        threshold=threshold,
        gain=gain,
        left_index=index[go_left],
        right_index=index[~go_left],
    )
