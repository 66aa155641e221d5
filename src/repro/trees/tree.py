"""Weighted CART decision-tree classifier.

This is the substrate the watermarking scheme trains: a classic
classification tree with exact splits, sample weights, depth and
leaf-count caps, and optional per-split / per-tree feature sampling.
The public surface intentionally mirrors the sklearn estimator idiom
(``fit`` / ``predict`` / ``predict_proba``) so the rest of the library —
and readers familiar with the paper's sklearn implementation — can treat
it as a drop-in stand-in.
"""

from __future__ import annotations

import numbers
from typing import Sequence

import numpy as np

from .._validation import (
    check_count,
    check_random_state,
    check_sample_weight,
    check_X,
    check_X_y,
)
from ..exceptions import NotFittedError, ValidationError
from .compiled import ensure_compiled
from .criteria import get_criterion
from .growth import GrowthParams, grow_trees
from .node import TreeNode, iter_leaves
from .presort import presorted_dataset

__all__ = ["DecisionTreeClassifier", "fit_trees", "resolve_max_features"]


def resolve_max_features(max_features, n_features: int) -> int | None:
    """Resolve a ``max_features`` specification to a concrete count.

    Accepts ``None`` (all features), a positive int, a float fraction in
    (0, 1], or the strings ``"sqrt"`` / ``"log2"``.
    """
    if max_features is None:
        return None
    if isinstance(max_features, (bool, np.bool_)):
        # bool is a subclass of int, so this must be rejected explicitly:
        # silently treating True as "1 feature per split" cripples trees.
        raise ValidationError(
            f"max_features must be None, int, float or str, got bool "
            f"({max_features!r})"
        )
    if isinstance(max_features, str):
        if max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if max_features == "log2":
            return max(1, int(np.log2(n_features)))
        raise ValidationError(
            f"max_features string must be 'sqrt' or 'log2', got {max_features!r}"
        )
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValidationError(
                f"max_features fraction must be in (0, 1], got {max_features}"
            )
        return max(1, int(round(max_features * n_features)))
    if isinstance(max_features, (int, np.integer)):
        if max_features < 1:
            raise ValidationError(f"max_features must be >= 1, got {max_features}")
        return min(int(max_features), n_features)
    raise ValidationError(
        f"max_features must be None, int, float or str, got {type(max_features).__name__}"
    )


class DecisionTreeClassifier:
    """A CART-style classification tree with sample-weight support.

    Parameters
    ----------
    criterion:
        ``"gini"`` or ``"entropy"``.
    max_depth:
        Maximum tree depth (root has depth 0); ``None`` means unbounded.
    max_leaf_nodes:
        Cap on the number of leaves; triggers best-first growth.
    min_samples_split:
        Minimum number of samples required to consider splitting a node.
    min_samples_leaf:
        Minimum number of samples in each child of a split.
    min_impurity_decrease:
        Minimum absolute weighted impurity decrease to accept a split.
    max_features:
        Features sampled per split: ``None``, int, float fraction,
        ``"sqrt"`` or ``"log2"``.
    feature_subset:
        Optional fixed subspace of feature ids this tree may ever split
        on (assigned by the forest, one subspace per tree).
    random_state:
        Seed or generator for per-split feature sampling.
    """

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: int | None = None,
        max_leaf_nodes: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_impurity_decrease: float = 0.0,
        max_features=None,
        feature_subset=None,
        random_state=None,
    ) -> None:
        self.criterion = criterion
        self.max_depth = max_depth
        self.max_leaf_nodes = max_leaf_nodes
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self.feature_subset = feature_subset
        self.random_state = random_state
        self.root_: TreeNode | None = None
        self.classes_: np.ndarray | None = None
        self.n_features_in_: int | None = None
        self._compiled_ = None
        self._compiled_sources_: tuple | None = None
        # ``(root, answer)`` from growth: the class code of the leaf each
        # training row reached (see ``grow_trees``).  Valid while
        # ``root_`` is that root; never persisted.
        self._grown_: tuple | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def _validate_params(self, n_features: int) -> GrowthParams:
        if self.max_depth is not None:
            check_count(self.max_depth, "max_depth")
        if self.max_leaf_nodes is not None:
            check_count(self.max_leaf_nodes, "max_leaf_nodes")
            if self.max_leaf_nodes < 2:
                raise ValidationError(
                    f"max_leaf_nodes must be >= 2, got {self.max_leaf_nodes}"
                )
        check_count(self.min_samples_split, "min_samples_split")
        if self.min_samples_split < 2:
            raise ValidationError(
                f"min_samples_split must be >= 2, got {self.min_samples_split}"
            )
        check_count(self.min_samples_leaf, "min_samples_leaf")
        decrease = self.min_impurity_decrease
        if (
            isinstance(decrease, (bool, np.bool_))
            or not isinstance(decrease, numbers.Real)
            or not np.isfinite(decrease)
            or decrease < 0
        ):
            raise ValidationError(
                f"min_impurity_decrease must be a finite number >= 0, got {decrease!r}"
            )
        return GrowthParams(
            criterion=get_criterion(self.criterion),
            max_depth=self.max_depth,
            max_leaf_nodes=self.max_leaf_nodes,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            min_impurity_decrease=self.min_impurity_decrease,
            max_features=resolve_max_features(self.max_features, n_features),
        )

    def _subspace(self, n_features: int) -> np.ndarray:
        """The feature ids this tree may split on, ascending."""
        if self.feature_subset is None:
            return np.arange(n_features)
        subspace = np.asarray(self.feature_subset, dtype=np.int64)
        if subspace.ndim != 1 or subspace.size == 0:
            raise ValidationError("feature_subset must be a non-empty 1-D index array")
        if subspace.min() < 0 or subspace.max() >= n_features:
            raise ValidationError("feature_subset contains out-of-range feature ids")
        return np.unique(subspace)

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeClassifier":
        """Learn the tree from ``(X, y)`` with optional sample weights."""
        fit_trees([self], X, y, sample_weight)
        return self

    # ------------------------------------------------------------------
    # Prediction and structure
    # ------------------------------------------------------------------

    def _check_fitted(self) -> TreeNode:
        if self.root_ is None:
            raise NotFittedError("this DecisionTreeClassifier is not fitted yet")
        return self.root_

    def _check_predict_input(self, X) -> np.ndarray:
        X = check_X(X)
        if X.shape[1] != self.n_features_in_:
            raise ValidationError(
                f"X has {X.shape[1]} features but the tree was fitted with "
                f"{self.n_features_in_}"
            )
        return X

    def _grown_predict(self, rows: np.ndarray) -> np.ndarray:
        """Predicted labels of training rows ``rows``, read from growth.

        Equal to ``predict(X[rows])`` on the matrix the tree was last
        fitted on, without compiling anything.  Raises
        :class:`ValidationError` when the root was replaced since, or a
        row had zero weight and never entered the tree.
        """
        grown = self._grown_
        if grown is None or grown[0] is not self._check_fitted():
            raise ValidationError("this tree's root was not grown by its last fit")
        answer = grown[1][rows]
        if (answer < 0).any():
            raise ValidationError("a row of zero weight never entered the tree")
        assert self.classes_ is not None
        return self.classes_[answer]

    def compile(self):
        """Flatten the fitted tree into a one-tree ``CompiledEnsemble``.

        The result is cached and answers every ``predict`` /
        ``predict_proba`` call, whatever the batch size, until ``root_``
        is replaced (refit, pruning, modification attacks).  See
        :mod:`repro.ensemble.compiled` for the engine.
        """
        # Function-level import: repro.ensemble imports this module.
        from ..ensemble.compiled import compile_trees

        root = self._check_fitted()
        return ensure_compiled(
            self, (root,), lambda: compile_trees([root], classes=self.classes_)
        )

    def predict(self, X) -> np.ndarray:
        """Predict class labels for ``X``."""
        self._check_fitted()
        X = self._check_predict_input(X)
        return self.compile().predict_all(X)[0]

    def predict_proba(self, X) -> np.ndarray:
        """Predict class-membership probabilities from leaf class masses.

        Columns follow the order of :attr:`classes_`.  Hand-built leaves
        without recorded class weights predict probability 1 for their
        label.
        """
        self._check_fitted()
        X = self._check_predict_input(X)
        return self.compile().predict_proba(X)

    @property
    def depth_(self) -> int:
        """Depth of the fitted tree (a lone leaf has depth 0)."""
        return self._check_fitted().depth()

    @property
    def n_leaves_(self) -> int:
        """Number of leaves of the fitted tree."""
        return self._check_fitted().n_leaves()

    def used_features_(self) -> set[int]:
        """Feature ids actually used by some internal node."""
        from .node import iter_nodes

        return {
            node.feature
            for node in iter_nodes(self._check_fitted())
            if not node.is_leaf
        }

    def leaves(self):
        """Iterate over the leaves of the fitted tree, left-to-right."""
        return iter_leaves(self._check_fitted())

    def score(self, X, y, sample_weight=None) -> float:
        """Weighted accuracy on ``(X, y)``."""
        X, y = check_X_y(X, y)
        weights = check_sample_weight(sample_weight, X.shape[0])
        correct = (self.predict(X) == np.asarray(y)).astype(np.float64)
        return float(np.average(correct, weights=weights))


def fit_trees(
    trees: Sequence[DecisionTreeClassifier], X, y, sample_weight=None
) -> None:
    """Fit several trees on the same ``(X, y, sample_weight)`` in lockstep.

    The trees must share their hyper-parameters; each brings its own
    ``feature_subset`` and ``random_state`` (a forest's tree slots).
    All of them grow in one :func:`~repro.trees.growth.grow_trees`
    engine, so one batched split search serves every tree on each step,
    and each tree ends up exactly as fitting it alone would leave it.
    Trees must not share a ``Generator``: their per-split feature draws
    would interleave.  Each tree keeps growth's answer on the training
    rows, which ``_grown_predict`` reads.
    """
    X, y = check_X_y(X, y)
    weights = check_sample_weight(sample_weight, X.shape[0])
    try:
        y_int = np.asarray(y, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise ValidationError("labels must be integers") from exc
    if not np.array_equal(y_int, np.asarray(y)):
        raise ValidationError("labels must be integers")
    classes, codes = np.unique(y_int, return_inverse=True)

    params = trees[0]._validate_params(X.shape[1])
    slots = []
    for tree in trees:
        if tree._validate_params(X.shape[1]) != params:
            raise ValidationError("trees fitted together must share hyper-parameters")
        slots.append((tree._subspace(X.shape[1]), check_random_state(tree.random_state)))
    if len({id(rng) for _, rng in slots}) != len(slots):
        raise ValidationError("trees fitted together must not share a random Generator")

    grown = grow_trees(codes, weights, classes, params, presorted_dataset(X), slots)
    for tree, (root, answer) in zip(trees, grown):
        tree.root_ = root
        tree.classes_ = classes
        tree.n_features_in_ = X.shape[1]
        tree._compiled_ = None
        tree._compiled_sources_ = None
        tree._grown_ = (root, answer)
