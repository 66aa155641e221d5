"""Compiled flat-array inference for decision trees.

The object-graph traversal in :mod:`repro.trees.node` spends one numpy
operation per *visited node*: prediction cost grows with tree size and
Python overhead, which dominates wall-clock in every benchmark and
attack sweep.  This module flattens a fitted :data:`TreeNode` graph into
a struct-of-arrays table — ``feature[]``, ``threshold[]``, ``left[]``,
``right[]``, ``leaf_value[]`` — over which prediction is a fully
vectorised, iterative descent: one gather-compare-select step per tree
*level*, independent of node count.

Layout conventions (shared with :mod:`repro.ensemble.compiled`, which
packs many trees into one table):

- nodes are stored in **breadth-first order with sibling pairs
  adjacent**: an internal node's right child always sits at
  ``left + 1``.  A single tree's root is index 0.  The adjacency lets
  the descent kernel compute the next node as ``left + (x[f] > v)`` —
  one gather and a boolean add instead of two gathers and a select,
  which is a large fraction of the kernel's memory traffic;
- a leaf stores ``feature = -1``, ``threshold = +inf`` and points
  ``left = right = <its own index>``; during descent a row that has
  reached a leaf compares its value against ``+inf``, goes "left" and
  stays put, so no masking is needed and the loop runs exactly
  ``depth`` iterations;
- ``leaf_value`` carries the leaf payload (class label for
  classification trees, real value for regression trees) and 0 on
  internal nodes;
- ``leaf_proba`` (optional) carries per-leaf class distributions
  aligned to a caller-supplied ``classes`` array, reproducing
  ``predict_proba`` semantics (leaves without recorded class weights
  are one-hot on their label).

The engines accept any consistent ``left``/``right`` table (e.g. a
hand-written serialized artefact): when the sibling-adjacency invariant
does not hold they transparently fall back to a two-gather select
kernel.

The engine is wired behind the sklearn-style estimators with a
lazy-compile-on-first-predict path: batches of at least
:data:`MIN_COMPILE_ROWS` rows compile the model once and descend the
table, smaller batches on a never-compiled model walk the object graph.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..exceptions import SerializationError, ValidationError
from .node import InternalNode, Leaf, TreeNode

__all__ = [
    "CompiledTree",
    "compile_tree",
    "flatten_tree",
    "leaf_payload",
    "leaf_proba_row",
    "leaf_weight_row",
    "table_depth",
    "validate_node_tables",
    "table_to_node",
    "classification_leaf_builder",
    "cached_engine",
    "lazy_compiled",
    "ensure_compiled",
    "adopt_compiled",
    "model_lock",
    "MIN_COMPILE_ROWS",
]

#: Batches smaller than this do not trigger lazy compilation: the
#: object-graph path is already cheap there (e.g. the k-instance trigger
#: sets queried inside the embedding re-weighting loop), and compiling a
#: freshly retrained forest per round would cost more than it saves.  An
#: already-compiled model is used whatever the batch size.
MIN_COMPILE_ROWS = 32


# ----------------------------------------------------------------------
# Engine caching shared by the estimators
# ----------------------------------------------------------------------
#
# Every estimator stores its engine in ``_compiled_`` and the exact
# root objects it was compiled from in ``_compiled_sources_``.  The
# freshness check is *identity* of those roots: attacks, pruning and
# refits replace root objects rather than mutating nodes in place, so
# replaced roots are detected, and holding strong references means a
# recycled ``id()`` can never alias a dead root.
#
# Compilation and cache adoption are serialized per model: the serving
# daemon (and any caller using threads) can land several first-touch
# predictions on one freshly-loaded model at once, and without a lock
# each would compile its own engine and race on the ``_compiled_`` /
# ``_compiled_sources_`` pair.  The locks live in a module-level weak
# mapping rather than on the instances because estimators are pickled
# into worker processes (``__getstate__`` ships ``__dict__``) and lock
# objects cannot cross that boundary.

_MODEL_LOCKS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_MODEL_LOCKS_GUARD = threading.Lock()


def model_lock(model) -> threading.RLock:
    """The per-model lock serializing compile/materialize for ``model``.

    Reentrant because compiling can re-enter through the same model: a
    lazy-restored forest's ``builder()`` touches ``trees_``, which
    triggers ``_materialize_trees`` under the same lock.
    """
    lock = _MODEL_LOCKS.get(model)
    if lock is None:
        with _MODEL_LOCKS_GUARD:
            lock = _MODEL_LOCKS.get(model)
            if lock is None:
                lock = threading.RLock()
                _MODEL_LOCKS[model] = lock
    return lock


def cached_engine(model, sources: tuple):
    """The model's cached engine if compiled from exactly ``sources``."""
    engine = model._compiled_
    held = model._compiled_sources_
    if (
        engine is not None
        and held is not None
        and len(held) == len(sources)
        and all(a is b for a, b in zip(held, sources))
    ):
        return engine
    return None


def adopt_compiled(model, sources: tuple, engine):
    """Install ``engine`` as the model's cache, pinned to ``sources``."""
    model._compiled_ = engine
    model._compiled_sources_ = tuple(sources)
    return engine


def ensure_compiled(model, sources: tuple, builder):
    """The cached engine, compiling via ``builder()`` if stale/absent.

    Thread-safe: concurrent callers double-check under the per-model
    lock, so exactly one thread runs ``builder()`` and the losers adopt
    the winner's engine.
    """
    engine = cached_engine(model, sources)
    if engine is None:
        with model_lock(model):
            engine = cached_engine(model, sources)
            if engine is None:
                engine = adopt_compiled(model, sources, builder())
    return engine


def lazy_compiled(model, sources: tuple, n_rows: int, builder):
    """The engine a prediction call should use, or ``None`` for object mode.

    Lazily compiles on the first batch of at least
    :data:`MIN_COMPILE_ROWS` rows; smaller batches fall back to the
    object-graph traversal unless an engine is already cached.
    Compilation is serialized per model, like :func:`ensure_compiled`.
    """
    engine = cached_engine(model, sources)
    if engine is not None:
        return engine
    if n_rows < MIN_COMPILE_ROWS:
        return None
    with model_lock(model):
        engine = cached_engine(model, sources)
        if engine is None:
            engine = adopt_compiled(model, sources, builder())
    return engine


# ----------------------------------------------------------------------
# Flattening
# ----------------------------------------------------------------------


def leaf_payload(node) -> float:
    """The scalar a leaf emits: its class label or regression value."""
    prediction = getattr(node, "prediction", None)
    if prediction is not None:
        return float(prediction)
    return float(node.value)


def leaf_proba_row(node, class_position: dict[int, int]) -> np.ndarray:
    """Per-leaf class distribution aligned to ``class_position``.

    Mirrors ``DecisionTreeClassifier.predict_proba``: the recorded class
    masses normalised by their total, or a one-hot row on the leaf label
    when no masses were recorded (hand-built trees).
    """
    row = np.zeros(len(class_position), dtype=np.float64)
    weights = getattr(node, "class_weights", None) or {}
    total = float(sum(weights.values()))
    try:
        if total > 0:
            for label, mass in weights.items():
                row[class_position[int(label)]] = mass / total
        else:
            row[class_position[int(node.prediction)]] = 1.0
    except KeyError as exc:
        raise ValidationError(
            f"leaf label {exc.args[0]!r} is not in the classes array"
        ) from exc
    return row


def leaf_weight_row(node, class_position: dict[int, int]) -> np.ndarray:
    """Per-leaf *raw* class masses aligned to ``class_position``.

    Unlike :func:`leaf_proba_row` this keeps the unnormalised training
    masses, so the leaf's ``class_weights`` dict can be rebuilt exactly
    from the table (the bijection the binary persistence format relies
    on).  Leaves without recorded masses yield an all-zero row.
    """
    row = np.zeros(len(class_position), dtype=np.float64)
    weights = getattr(node, "class_weights", None) or {}
    try:
        for label, mass in weights.items():
            row[class_position[int(label)]] = mass
    except KeyError as exc:
        raise ValidationError(
            f"leaf label {exc.args[0]!r} is not in the classes array"
        ) from exc
    return row


def flatten_tree(
    root,
    *,
    feature: list,
    threshold: list,
    left: list,
    right: list,
    leaf_value: list,
    leaf_proba: list | None = None,
    leaf_weight: list | None = None,
    class_position: dict[int, int] | None = None,
) -> tuple[int, int]:
    """Append the subtree at ``root`` to the array-builder lists.

    Works for both node families (classification ``Leaf`` /
    ``InternalNode`` and the regression tree's private nodes) via their
    shared ``is_leaf`` protocol.  Nodes are laid out breadth-first with
    each sibling pair allocated adjacently (``right == left + 1``), the
    invariant the fast descent kernel relies on; the traversal is
    iterative and safe for arbitrarily deep trees.

    Returns ``(root_index, depth)`` of the appended subtree.
    """

    def allocate() -> int:
        index = len(feature)
        feature.append(-1)
        threshold.append(np.inf)
        left.append(index)
        right.append(index)
        leaf_value.append(0.0)
        if leaf_proba is not None:
            leaf_proba.append(None)
        if leaf_weight is not None:
            leaf_weight.append(None)
        return index

    def zeros_row() -> np.ndarray:
        return np.zeros(len(class_position), dtype=np.float64)

    root_index = allocate()
    max_depth = 0
    # (node, preallocated slot, depth); FIFO order keeps levels together.
    queue = deque([(root, root_index, 0)])
    while queue:
        node, slot, depth = queue.popleft()
        if depth > max_depth:
            max_depth = depth
        if node.is_leaf:
            leaf_value[slot] = leaf_payload(node)
            if leaf_proba is not None:
                leaf_proba[slot] = leaf_proba_row(node, class_position)
            if leaf_weight is not None:
                leaf_weight[slot] = leaf_weight_row(node, class_position)
        else:
            left_slot = allocate()
            right_slot = allocate()
            feature[slot] = int(node.feature)
            threshold[slot] = float(node.threshold)
            left[slot] = left_slot
            right[slot] = right_slot
            if leaf_proba is not None:
                leaf_proba[slot] = zeros_row()
            if leaf_weight is not None:
                leaf_weight[slot] = zeros_row()
            queue.append((node.left, left_slot, depth + 1))
            queue.append((node.right, right_slot, depth + 1))
    for rows in (leaf_proba, leaf_weight):
        if rows is not None:
            for index in range(root_index, len(rows)):
                if rows[index] is None:  # pragma: no cover - defensive
                    rows[index] = zeros_row()
    return root_index, max_depth


# ----------------------------------------------------------------------
# The canonical node-table contract
# ----------------------------------------------------------------------
#
# A *node table* is the struct-of-arrays form every engine, exporter and
# solver bridge agrees on: ``feature``/``threshold``/``left``/``right``/
# ``leaf_value`` (plus optional ``classes``/``leaf_proba``/``leaf_weight``)
# and a ``roots`` array locating each tree.  ``validate_node_tables``
# is the single gatekeeper for tables arriving from outside the process
# (deserialised JSON, binary files, hand-built arrays); ``table_to_node``
# is the inverse of :func:`flatten_tree`, rebuilding the auditable
# object graph from table rows.


def table_depth(feature, left, right, roots) -> int:
    """Depth of the deepest internal node reachable from ``roots``.

    Level-synchronous frontier walk over the node arrays; bounded by
    the table size so a (malformed) cyclic table raises instead of
    looping forever.
    """
    n_nodes = np.asarray(feature).shape[0]
    visited = np.zeros(n_nodes, dtype=bool)
    frontier = np.unique(np.asarray(roots, dtype=np.int64))
    visited[frontier] = True
    for depth in range(n_nodes + 1):
        internal = frontier[feature[frontier] >= 0]
        if internal.size == 0:
            return depth
        children = np.concatenate([left[internal], right[internal]])
        if visited[children].any():
            raise SerializationError("compiled node table contains a cycle")
        level = np.zeros(n_nodes, dtype=bool)
        level[children] = True
        visited |= level
        frontier = np.flatnonzero(level)
    raise SerializationError("compiled node table contains a cycle")


def validate_node_tables(
    *,
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    leaf_value: np.ndarray,
    roots: np.ndarray,
    depth: int,
    classes: np.ndarray | None = None,
    leaf_proba: np.ndarray | None = None,
    leaf_weight: np.ndarray | None = None,
) -> None:
    """Structural validation of a node table from an untrusted source.

    Checks array-length agreement, index bounds, leaf-value dtype, the
    recorded depth against an actual frontier walk (which also rejects
    cyclic tables) and the probability/weight row shapes.  Raises
    :class:`~repro.exceptions.SerializationError` on the first problem;
    messages are stable — the persistence tests pin them.
    """
    n_nodes = feature.shape[0]
    arrays_consistent = (
        threshold.shape[0] == n_nodes
        and left.shape[0] == n_nodes
        and right.shape[0] == n_nodes
        and leaf_value.shape[0] == n_nodes
    )
    if not arrays_consistent:
        raise SerializationError("compiled node arrays disagree on length")
    for name, indices in (("roots", roots), ("left", left), ("right", right)):
        if n_nodes == 0 or indices.min() < 0 or indices.max() >= n_nodes:
            raise SerializationError(
                f"compiled {name} indices fall outside the node table"
            )
    actual_depth = table_depth(feature, left, right, roots)
    if int(depth) != actual_depth:
        raise SerializationError(
            f"compiled depth {int(depth)} disagrees with the node table "
            f"(actual {actual_depth})"
        )
    if leaf_value.dtype not in (np.dtype(np.int64), np.dtype(np.float64)):
        raise SerializationError(
            f"compiled leaf_value_dtype must be 'int64' or 'float64', "
            f"got {leaf_value.dtype.name!r}"
        )
    if classes is not None:
        classes = np.asarray(classes)
    for name, rows in (("leaf_proba", leaf_proba), ("leaf_weight", leaf_weight)):
        if rows is None:
            continue
        rows = np.asarray(rows)
        if classes is None:
            raise SerializationError(
                f"compiled {name} requires a classes array"
            )
        if rows.shape != (n_nodes, classes.shape[0]):
            raise SerializationError(
                f"compiled {name} must have shape "
                f"({n_nodes}, {classes.shape[0]}), got {rows.shape}"
            )


def table_to_node(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    root_index: int,
    make_leaf,
    make_internal=None,
):
    """Rebuild the object tree rooted at table row ``root_index``.

    The inverse of :func:`flatten_tree`: every internal row becomes an
    :class:`~repro.trees.node.InternalNode` (or whatever
    ``make_internal(index, left_child, right_child)`` builds) and every
    leaf row becomes ``make_leaf(index)``.  The traversal is iterative —
    children are constructed before their parents by walking the
    pre-order node list in reverse — so arbitrarily deep trees rebuild
    without touching the recursion limit.  A row visited twice (a cyclic
    or node-sharing table) raises :class:`SerializationError`.
    """
    if make_internal is None:
        def make_internal(index, left_child, right_child):
            return InternalNode(
                feature=int(feature[index]),
                threshold=float(threshold[index]),
                left=left_child,
                right=right_child,
            )

    n_nodes = feature.shape[0]
    order: list[int] = []
    stack = [int(root_index)]
    while stack:
        index = stack.pop()
        order.append(index)
        if len(order) > n_nodes:
            raise SerializationError(
                "compiled node table revisits a node during reconstruction "
                "(cycle or shared subtree)"
            )
        if feature[index] >= 0:
            stack.append(int(right[index]))
            stack.append(int(left[index]))
    built: dict[int, object] = {}
    for index in reversed(order):
        if feature[index] < 0:
            built[index] = make_leaf(index)
        else:
            built[index] = make_internal(
                index, built[int(left[index])], built[int(right[index])]
            )
    return built[int(root_index)]


def classification_leaf_builder(leaf_value, classes, leaf_weight=None):
    """A ``make_leaf`` for :func:`table_to_node` producing :class:`Leaf`.

    With a ``leaf_weight`` section the leaf's ``class_weights`` dict is
    rebuilt exactly (labels in ``classes`` order, zero-mass labels
    omitted — the same shape :func:`repro.trees.growth` emits); without
    it leaves come back with empty ``class_weights``, like hand-built
    trees.
    """
    labels = [int(c) for c in classes] if classes is not None else []

    def make_leaf(index: int) -> Leaf:
        weights: dict[int, float] = {}
        if leaf_weight is not None:
            row = leaf_weight[index]
            weights = {
                labels[c]: float(row[c])
                for c in range(len(labels))
                if row[c] > 0
            }
        return Leaf(prediction=int(leaf_value[index]), class_weights=weights)

    return make_leaf


# ----------------------------------------------------------------------
# The descent kernel
# ----------------------------------------------------------------------

#: Samples are processed in column chunks of this size so the per-level
#: temporaries stay cache-resident; measured ~15-25% faster than a
#: single full-width pass at 10k-row batches.
_COLUMN_CHUNK = 4096


def _descend(table, X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Advance every state in ``idx`` to its leaf (in place per level).

    ``table`` is a :class:`CompiledTree` or a compiled ensemble (any
    object with ``depth`` / ``threshold`` / ``left`` / ``right`` plus
    the derived ``_gather_feature`` / ``_adjacent`` attributes); ``X``
    must be a C-contiguous float64 chunk and ``idx`` an int64 state
    array of shape ``(n,)`` or ``(n_trees, n)`` holding current node
    indices.

    The kernel is written for numpy's fast paths: flat ``take`` gathers
    with int64 indices, buffers reused via ``out=``, and — on
    sibling-adjacent tables — the next node computed as
    ``left + (x[f] > v)``, avoiding a second child gather and a select.
    """
    n, d = X.shape
    X_flat = X.ravel()
    row_offset = np.arange(n, dtype=np.int64) * d
    if idx.ndim == 2:
        row_offset = row_offset[None, :]
    gather_feature = table._gather_feature
    threshold = table.threshold
    left = table.left
    if table._adjacent:
        for _ in range(table.depth):
            feat = gather_feature.take(idx)
            np.add(feat, row_offset, out=feat)
            chosen = X_flat.take(feat)
            go_right = np.greater(chosen, threshold.take(idx))
            nxt = left.take(idx)
            np.add(nxt, go_right, out=nxt)
            idx = nxt
    else:
        right = table.right
        for _ in range(table.depth):
            feat = gather_feature.take(idx)
            np.add(feat, row_offset, out=feat)
            chosen = X_flat.take(feat)
            go_left = np.less_equal(chosen, threshold.take(idx))
            idx = np.where(go_left, left.take(idx), right.take(idx))
    return idx


# ----------------------------------------------------------------------
# The compiled single-tree engine
# ----------------------------------------------------------------------


@dataclass
class CompiledTree:
    """Struct-of-arrays representation of one decision tree.

    Produced by :func:`compile_tree`; see the module docstring for the
    layout conventions.  ``classes`` / ``leaf_proba`` are present only
    when the tree was compiled with a classes array.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_value: np.ndarray
    depth: int
    classes: np.ndarray | None = None
    leaf_proba: np.ndarray | None = None

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

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index reached by every row of ``X`` (vectorised descent)."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        n = X.shape[0]
        if self.depth == 0 or n == 0:
            return np.zeros(n, dtype=np.int64)
        out = np.empty(n, dtype=np.int64)
        for start in range(0, n, _COLUMN_CHUNK):
            stop = min(start + _COLUMN_CHUNK, n)
            out[start:stop] = _descend(
                self, X[start:stop], np.zeros(stop - start, dtype=np.int64)
            )
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf payloads for ``X`` — labels (int64) or values (float64)."""
        return self.leaf_value[self.apply(X)]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-row class distributions, columns ordered as ``classes``."""
        if self.leaf_proba is None:
            raise ValidationError(
                "this CompiledTree was compiled without a classes array; "
                "recompile with classes to enable predict_proba"
            )
        return self.leaf_proba[self.apply(X)]

    # -- the canonical tables contract ---------------------------------

    def to_tables(self) -> dict:
        """The node table as a plain dict of arrays (plus scalars).

        The keys mirror the dataclass fields with an implicit
        single-tree ``roots = [0]``; the dict round-trips through
        :meth:`from_tables`.
        """
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left,
            "right": self.right,
            "leaf_value": self.leaf_value,
            "depth": int(self.depth),
            "classes": self.classes,
            "leaf_proba": self.leaf_proba,
        }

    @classmethod
    def from_tables(cls, tables: dict) -> "CompiledTree":
        """Build (and validate) a tree engine from a tables dict."""
        feature = np.asarray(tables["feature"], dtype=np.int64)
        validate_node_tables(
            feature=feature,
            threshold=np.asarray(tables["threshold"], dtype=np.float64),
            left=np.asarray(tables["left"], dtype=np.int64),
            right=np.asarray(tables["right"], dtype=np.int64),
            leaf_value=np.asarray(tables["leaf_value"]),
            roots=np.zeros(1, dtype=np.int64),
            depth=int(tables["depth"]),
            classes=tables.get("classes"),
            leaf_proba=tables.get("leaf_proba"),
        )
        return cls(
            feature=feature,
            threshold=np.asarray(tables["threshold"], dtype=np.float64),
            left=np.asarray(tables["left"], dtype=np.int64),
            right=np.asarray(tables["right"], dtype=np.int64),
            leaf_value=np.asarray(tables["leaf_value"]),
            depth=int(tables["depth"]),
            classes=tables.get("classes"),
            leaf_proba=tables.get("leaf_proba"),
        )

    def to_node(self, leaf_weight=None) -> TreeNode:
        """Rebuild the classification object tree this table encodes."""
        return table_to_node(
            self.feature,
            self.threshold,
            self.left,
            self.right,
            0,
            classification_leaf_builder(self.leaf_value, self.classes, leaf_weight),
        )


def compile_tree(
    root: TreeNode, classes=None, value_dtype=np.int64
) -> CompiledTree:
    """Flatten a ``TreeNode`` graph into a :class:`CompiledTree`.

    Parameters
    ----------
    root:
        The tree to compile (classification or regression node family).
    classes:
        Optional sorted label array; when given, per-leaf probability
        rows aligned to it are built so ``predict_proba`` works.
    value_dtype:
        dtype of ``leaf_value`` — ``int64`` for classification labels
        (the default, matching the object-graph ``predict_batch``),
        ``float64`` for regression leaf values.
    """
    feature: list = []
    threshold: list = []
    left: list = []
    right: list = []
    leaf_value: list = []
    class_position = None
    proba_rows: list | None = None
    if classes is not None:
        classes = np.asarray(classes)
        class_position = {int(c): i for i, c in enumerate(classes)}
        proba_rows = []

    _, depth = flatten_tree(
        root,
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        leaf_value=leaf_value,
        leaf_proba=proba_rows,
        class_position=class_position,
    )
    return CompiledTree(
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
    )
