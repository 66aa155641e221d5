"""Weighted regression trees (variance-reduction CART).

These are the base learners of gradient boosting
(:mod:`repro.ensemble.boosting`), the ensemble family the paper names as
the target for generalising its watermarking scheme.  Leaves carry real
values instead of class labels, so the inductive node types of
:mod:`repro.trees.node` are not reused; the regression tree keeps its
own minimal array-based structure tuned for fast residual fitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_sample_weight, check_X, check_X_y
from ..exceptions import NotFittedError, ValidationError
from .presort import presorted_dataset

__all__ = ["RegressionTree"]

_MIN_VALUE_GAP = 1e-12


@dataclass
class _RegLeaf:
    value: float

    @property
    def is_leaf(self) -> bool:
        return True


@dataclass
class _RegNode:
    feature: int
    threshold: float
    left: object
    right: object

    @property
    def is_leaf(self) -> bool:
        return False


def _best_split_sse(
    targets: np.ndarray,
    weights: np.ndarray,
    min_samples_leaf: int,
    order: np.ndarray,
    sorted_values: np.ndarray,
) -> tuple[float, float] | None:
    """Best threshold of one feature by weighted SSE reduction.

    Returns ``(sse_after, threshold)`` or ``None``.  ``order`` holds the
    node's global row ids sorted by the feature (from the dataset
    presort cache — a presorted order *is* the stable argsort) and
    ``sorted_values`` the matching feature values.
    """
    if sorted_values[-1] - sorted_values[0] <= _MIN_VALUE_GAP:
        return None
    w = weights[order]
    wy = w * targets[order]
    wyy = wy * targets[order]

    prefix_w = np.cumsum(w)
    prefix_wy = np.cumsum(wy)
    prefix_wyy = np.cumsum(wyy)
    total_w, total_wy, total_wyy = prefix_w[-1], prefix_wy[-1], prefix_wyy[-1]

    n = sorted_values.shape[0]
    positions = np.arange(1, n)
    distinct = sorted_values[1:] - sorted_values[:-1] > _MIN_VALUE_GAP
    big_enough = (positions >= min_samples_leaf) & (n - positions >= min_samples_leaf)
    valid = distinct & big_enough
    if not valid.any():
        return None
    positions = positions[valid]

    lw = prefix_w[positions - 1]
    lwy = prefix_wy[positions - 1]
    lwyy = prefix_wyy[positions - 1]
    rw = total_w - lw
    rwy = total_wy - lwy
    rwyy = total_wyy - lwyy
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = (lwyy - lwy * lwy / lw) + (rwyy - rwy * rwy / rw)
    sse = np.where((lw > 0) & (rw > 0), sse, np.inf)

    best = int(np.argmin(sse))
    position = int(positions[best])
    threshold = 0.5 * (sorted_values[position - 1] + sorted_values[position])
    if threshold <= sorted_values[position - 1]:
        threshold = sorted_values[position - 1]
    return float(sse[best]), float(threshold)


class RegressionTree:
    """A least-squares regression tree with sample weights.

    Parameters mirror the classification tree where meaningful.  The
    ``leaf_value_fn`` hook lets gradient boosting replace plain weighted
    means with Newton-step leaf values: it receives the index array of
    the samples in the leaf and returns the leaf's value.

    Split search reuses the dataset's cached per-feature sort orders —
    gradient boosting refits a tree per stage on the *same* ``X`` with
    new residual targets, so the presort pays for itself across all
    stages.
    """

    def __init__(
        self,
        max_depth: int | None = 3,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        random_state=None,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state
        self.root_ = None
        self.n_features_in_: int | None = None

    def fit(self, X, y, sample_weight=None, leaf_value_fn=None) -> "RegressionTree":
        """Fit the tree to real-valued targets ``y``."""
        X = check_X(X)
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (X.shape[0],):
            raise ValidationError(
                f"y must have shape ({X.shape[0]},), got {y.shape}"
            )
        weights = check_sample_weight(sample_weight, X.shape[0])
        # Checked here rather than in __init__: loading a boosted
        # artefact builds its stage trees without fitting them.
        if self.min_samples_split < 2:
            raise ValidationError(
                f"min_samples_split must be >= 2, got {self.min_samples_split}"
            )
        if self.min_samples_leaf < 1:
            raise ValidationError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}"
            )

        if leaf_value_fn is None:

            def leaf_value_fn(index: np.ndarray) -> float:
                return float(np.average(y[index], weights=weights[index]))

        presort = presorted_dataset(X)
        all_features = np.arange(X.shape[1])

        def build(index: np.ndarray, depth: int):
            can_split = (
                (self.max_depth is None or depth < self.max_depth)
                and index.shape[0] >= self.min_samples_split
                and index.shape[0] >= 2 * self.min_samples_leaf
            )
            split = None
            if can_split:
                # One membership filter yields every feature's node
                # ordering; the global rows double as gather indices
                # into the full y / weights arrays.
                rows, row_values = presort.node_sorted(index, all_features)
                best_sse = np.inf
                for feature in range(X.shape[1]):
                    result = _best_split_sse(
                        y,
                        weights,
                        self.min_samples_leaf,
                        rows[feature],
                        row_values[feature],
                    )
                    if result is not None and result[0] < best_sse - 1e-15:
                        best_sse = result[0]
                        split = (feature, result[1])
            if split is None:
                return _RegLeaf(value=leaf_value_fn(index))
            feature, threshold = split
            go_left = X[index, feature] <= threshold
            return _RegNode(
                feature=feature,
                threshold=threshold,
                left=build(index[go_left], depth + 1),
                right=build(index[~go_left], depth + 1),
            )

        self.root_ = build(np.arange(X.shape[0]), 0)
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        """Predict real values for ``X``."""
        if self.root_ is None:
            raise NotFittedError("this RegressionTree is not fitted yet")
        X = check_X(X)
        if X.shape[1] != self.n_features_in_:
            raise ValidationError(
                f"X has {X.shape[1]} features but the tree was fitted with "
                f"{self.n_features_in_}"
            )
        out = np.empty(X.shape[0], dtype=np.float64)
        stack = [(self.root_, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                out[idx] = node.value
                continue
            go_left = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
        return out
