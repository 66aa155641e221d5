"""Compiled flat-array inference: the one engine behind every estimator.

Packs every tree of a forest or boosted ensemble — or the single tree
of a ``DecisionTreeClassifier`` — into **one contiguous node table**
(the layout of :mod:`repro.trees.compiled`, with a ``roots[]`` array
locating each tree) so that batch prediction is a single vectorised
descent over a ``(n_trees, n_samples)`` state matrix: one
gather-compare-select step per tree level, regardless of how many
thousands of nodes the ensemble holds.  This is the only route behind
``predict_all`` — the per-tree query interface the watermark
verification protocol and the attack suite hammer — as well as tree
and ensemble ``predict`` / ``predict_proba`` and the boosted
``stage_contributions``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import NotFittedError, ValidationError
from ..trees.compiled import (
    _COLUMN_CHUNK,
    _descend,
    classification_leaf_builder,
    flatten_tree,
    table_to_node,
    validate_node_tables,
)
from .voting import majority_vote

__all__ = [
    "CompiledEnsemble",
    "compile_trees",
    "compile_forest",
    "compile_boosted",
]

#: Section names of the canonical tables dict, in on-disk order.  The
#: binary exporter writes exactly these (present) arrays as its payload
#: sections; ``roots`` first so a reader can size the rest.
TABLE_KEYS = (
    "roots",
    "feature",
    "threshold",
    "left",
    "right",
    "leaf_value",
    "classes",
    "leaf_proba",
    "leaf_weight",
)


@dataclass
class CompiledEnsemble:
    """All trees of an ensemble in one struct-of-arrays node table.

    ``roots[t]`` is the node index of tree ``t``'s root; ``left`` /
    ``right`` hold *global* indices into the shared table, so the same
    descent kernel serves every tree simultaneously.  ``leaf_value`` is
    int64 (class labels) for classification ensembles and float64 for
    boosted regression stages; ``classes`` / ``leaf_proba`` exist only
    for classification.
    """

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_value: np.ndarray
    depth: int
    classes: np.ndarray | None = None
    leaf_proba: np.ndarray | None = None
    #: Optional raw per-leaf class masses (``(n_nodes, n_classes)``),
    #: collected on request so the exact ``class_weights`` dicts can be
    #: rebuilt from the table (persistence bijection); not used by the
    #: descent kernels.
    leaf_weight: np.ndarray | None = None

    def __post_init__(self) -> None:
        # Leaves keep feature = -1 in the public array; the descent
        # gathers column 0 for them (the +inf threshold routes the row
        # back onto the leaf regardless of the value read).
        self._gather_feature = np.where(self.feature >= 0, self.feature, 0)
        # Sibling adjacency enables the one-gather child step; tables
        # built by flatten_tree always satisfy it, hand-made ones may not.
        self._adjacent = bool(
            np.all((self.feature < 0) | (self.right == self.left + 1))
        )
        # The flat gather reads ``row * width + feature``: a narrower X
        # would silently read the next row, so apply_all refuses it.
        self._min_width = int(self.feature.max(initial=-1)) + 1

    @property
    def n_trees(self) -> int:
        return int(self.roots.shape[0])

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    # ------------------------------------------------------------------

    def apply_all(self, X: np.ndarray) -> np.ndarray:
        """Leaf index reached in every tree by every row.

        Returns an ``(n_trees, n_samples)`` int64 matrix.  The descent
        advances all trees and all samples one level per iteration;
        entries that reached a leaf self-loop (leaf ``left``/``right``
        point at the leaf itself), so no masking is required.  Samples
        are processed in column chunks to keep the per-level temporaries
        cache-resident (see :mod:`repro.trees.compiled`).  Raises
        :class:`~repro.exceptions.ValidationError` when ``X`` is
        narrower than the highest feature index the table splits on.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        n = X.shape[0]
        if X.shape[1] < self._min_width:
            raise ValidationError(
                f"X has {X.shape[1]} features but the node table splits on "
                f"feature {self._min_width - 1}"
            )
        if self.depth == 0 or n == 0:
            return np.repeat(self.roots[:, None], n, axis=1)
        out = np.empty((self.n_trees, n), dtype=np.int64)
        for start in range(0, n, _COLUMN_CHUNK):
            stop = min(start + _COLUMN_CHUNK, n)
            idx = np.repeat(self.roots[:, None], stop - start, axis=1)
            out[:, start:stop] = _descend(self, X[start:stop], idx)
        return out

    def predict_all(self, X: np.ndarray) -> np.ndarray:
        """Per-tree leaf payloads, shape ``(n_trees, n_samples)``.

        For a forest this is exactly ``RandomForestClassifier.predict_all``
        (per-tree labels); for a boosted ensemble it is the per-stage
        raw tree values (multiply by the learning rate for
        contributions).
        """
        return self.leaf_value[self.apply_all(X)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority-vote ensemble prediction (classification only)."""
        if self.classes is None:
            raise ValidationError(
                "this CompiledEnsemble was compiled without classes; "
                "majority voting is undefined"
            )
        return majority_vote(self.predict_all(X), self.classes)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Average per-tree class distributions, columns as ``classes``."""
        if self.leaf_proba is None:
            raise ValidationError(
                "this CompiledEnsemble was compiled without classes; "
                "recompile from a classifier ensemble to enable predict_proba"
            )
        return self.leaf_proba[self.apply_all(X)].sum(axis=0) / self.n_trees

    # ------------------------------------------------------------------
    # The canonical tables contract (persistence / interop boundary)
    # ------------------------------------------------------------------

    def to_tables(self) -> dict:
        """The whole ensemble as a plain dict of arrays plus ``depth``.

        Keys follow :data:`TABLE_KEYS` (absent optionals map to
        ``None``); the dict round-trips through :meth:`from_tables`.
        The arrays are the engine's own (no copies) — treat them as
        read-only.
        """
        return {
            "roots": self.roots,
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left,
            "right": self.right,
            "leaf_value": self.leaf_value,
            "depth": int(self.depth),
            "classes": self.classes,
            "leaf_proba": self.leaf_proba,
            "leaf_weight": self.leaf_weight,
        }

    @classmethod
    def from_tables(cls, tables: dict) -> "CompiledEnsemble":
        """Build a validated engine from a tables dict.

        This is the one entry point for node tables from *outside the
        process* — deserialised JSON, memory-mapped binary sections,
        hand-written arrays.  Integer/float sections are coerced to the
        canonical dtypes without copying when already conformant (a
        memory-mapped section stays a view into the file); the table is
        structurally validated (lengths, index bounds, recorded depth,
        dtypes, row shapes) before an engine is returned, so a malformed
        file raises :class:`~repro.exceptions.SerializationError` here
        rather than mispredicting later.
        """
        feature = np.asarray(tables["feature"], dtype=np.int64)
        threshold = np.asarray(tables["threshold"], dtype=np.float64)
        left = np.asarray(tables["left"], dtype=np.int64)
        right = np.asarray(tables["right"], dtype=np.int64)
        roots = np.asarray(tables["roots"], dtype=np.int64)
        leaf_value = np.asarray(tables["leaf_value"])
        classes = tables.get("classes")
        if classes is not None:
            classes = np.asarray(classes, dtype=np.int64)
        leaf_proba = tables.get("leaf_proba")
        if leaf_proba is not None:
            leaf_proba = np.asarray(leaf_proba, dtype=np.float64)
        leaf_weight = tables.get("leaf_weight")
        if leaf_weight is not None:
            leaf_weight = np.asarray(leaf_weight, dtype=np.float64)
        depth = int(tables["depth"])
        validate_node_tables(
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
            leaf_value=leaf_value,
            roots=roots,
            depth=depth,
            classes=classes,
            leaf_proba=leaf_proba,
            leaf_weight=leaf_weight,
        )
        return cls(
            roots=roots,
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
            leaf_value=leaf_value,
            depth=depth,
            classes=classes,
            leaf_proba=leaf_proba,
            leaf_weight=leaf_weight,
        )

    def to_roots(self, make_leaf_factory=None) -> list:
        """Rebuild one object-graph root per tree (inverse of compiling).

        For classification tables (int64 ``leaf_value`` with a
        ``classes`` array) leaves come back as
        :class:`~repro.trees.node.Leaf`, with their exact
        ``class_weights`` when the table carries a ``leaf_weight``
        section; for regression/boosted tables (float64 ``leaf_value``)
        leaves are the regression tree's value nodes.  Together with
        :func:`compile_trees` this is the tables ↔ object-tree bijection
        the binary persistence format is built on.
        """
        if make_leaf_factory is not None:
            make_leaf = make_leaf_factory(self)
            make_internal = None
        elif self.leaf_value.dtype == np.int64 and self.classes is not None:
            make_leaf = classification_leaf_builder(
                self.leaf_value, self.classes, self.leaf_weight
            )
            make_internal = None
        else:
            from ..trees.regression import _RegLeaf, _RegNode

            leaf_value = self.leaf_value

            def make_leaf(index: int):
                return _RegLeaf(value=float(leaf_value[index]))

            feature, threshold = self.feature, self.threshold

            def make_internal(index, left_child, right_child):
                return _RegNode(
                    feature=int(feature[index]),
                    threshold=float(threshold[index]),
                    left=left_child,
                    right=right_child,
                )

        return [
            table_to_node(
                self.feature,
                self.threshold,
                self.left,
                self.right,
                int(root),
                make_leaf,
                make_internal,
            )
            for root in self.roots
        ]


def compile_trees(
    tree_roots, classes=None, value_dtype=np.int64, collect_leaf_weight=False
) -> CompiledEnsemble:
    """Pack a list of tree roots into one :class:`CompiledEnsemble`.

    Parameters
    ----------
    tree_roots:
        The trees to compile (classification or regression node
        family); all nodes are appended to the same table.  A single
        tree is ``[root]`` and lands at ``roots == [0]``.
    classes:
        Optional sorted label array; when given, per-leaf probability
        rows aligned to it are built so ``predict_proba`` works.
    value_dtype:
        dtype of ``leaf_value`` — ``int64`` for classification labels
        (the default, matching the object-graph ``predict_batch``),
        ``float64`` for regression leaf values.
    collect_leaf_weight:
        Also record the raw per-leaf class masses (exporter support;
        the prediction hot path never pays for it).
    """
    tree_roots = list(tree_roots)
    if not tree_roots:
        raise ValidationError("an ensemble must contain at least one tree")
    feature: list = []
    threshold: list = []
    left: list = []
    right: list = []
    leaf_value: list = []
    class_position = None
    proba_rows: list | None = None
    weight_rows: list | None = None
    if classes is not None:
        classes = np.asarray(classes)
        class_position = {int(c): i for i, c in enumerate(classes)}
        proba_rows = []
        if collect_leaf_weight:
            weight_rows = []

    roots = []
    depth = 0
    for root in tree_roots:
        root_index, tree_depth = flatten_tree(
            root,
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
            leaf_value=leaf_value,
            leaf_proba=proba_rows,
            leaf_weight=weight_rows,
            class_position=class_position,
        )
        roots.append(root_index)
        depth = max(depth, tree_depth)

    return CompiledEnsemble(
        roots=np.asarray(roots, dtype=np.int64),
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        leaf_value=np.asarray(leaf_value, dtype=value_dtype),
        depth=depth,
        classes=classes,
        leaf_proba=np.asarray(proba_rows, dtype=np.float64)
        if proba_rows is not None
        else None,
        leaf_weight=np.asarray(weight_rows, dtype=np.float64)
        if weight_rows is not None
        else None,
    )


def compile_forest(forest, collect_leaf_weight=False) -> CompiledEnsemble:
    """Compile a fitted :class:`~repro.ensemble.RandomForestClassifier`."""
    if forest.trees_ is None:
        raise NotFittedError("cannot compile an unfitted forest")
    return compile_trees(
        [tree.root_ for tree in forest.trees_],
        classes=forest.classes_,
        value_dtype=np.int64,
        collect_leaf_weight=collect_leaf_weight,
    )


def compile_boosted(model) -> CompiledEnsemble:
    """Compile a fitted :class:`~repro.ensemble.GradientBoostingClassifier`.

    The packed ``leaf_value`` holds the raw regression-tree outputs;
    ``stage_contributions`` scales them by the learning rate.
    """
    if model.trees_ is None:
        raise NotFittedError("cannot compile an unfitted boosted ensemble")
    return compile_trees(
        [tree.root_ for tree in model.trees_],
        classes=None,
        value_dtype=np.float64,
    )
