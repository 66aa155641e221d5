"""Flat-array node tables: the layout, flattener and descent kernel.

The object-graph traversal in :mod:`repro.trees.node` spends one numpy
operation per *visited node*: prediction cost grows with tree size and
Python overhead, which dominates wall-clock in every benchmark and
attack sweep.  This module flattens fitted :data:`TreeNode` graphs into
a struct-of-arrays table — ``feature[]``, ``threshold[]``, ``left[]``,
``right[]``, ``leaf_value[]`` — over which prediction is a fully
vectorised, iterative descent: one gather-compare-select step per tree
*level*, independent of node count.  The engine that owns such a table
is :class:`repro.ensemble.compiled.CompiledEnsemble`; a single tree is
a one-tree table with ``roots == [0]``.

Layout conventions:

- nodes are stored in **breadth-first order with sibling pairs
  adjacent**: an internal node's right child always sits at
  ``left + 1``.  The adjacency lets the descent kernel compute the next
  node as ``left + (x[f] > v)`` — one gather and a boolean add instead
  of two gathers and a select, which is a large fraction of the
  kernel's memory traffic;
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

The kernel accepts any consistent ``left``/``right`` table (e.g. a
hand-written serialized artefact): when the sibling-adjacency invariant
does not hold it transparently falls back to a two-gather select.

Every estimator predicts through its one cached table: the first call
compiles it (:func:`ensure_compiled`), later calls reuse it until a
root is replaced.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque

import numpy as np

from ..exceptions import SerializationError, ValidationError
from .node import InternalNode, Leaf

__all__ = [
    "flatten_tree",
    "leaf_payload",
    "leaf_proba_row",
    "leaf_weight_row",
    "table_depth",
    "validate_node_tables",
    "table_to_node",
    "classification_leaf_builder",
    "cached_engine",
    "ensure_compiled",
    "adopt_compiled",
    "model_lock",
]

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

    Checks array-length agreement, a non-empty 1-D ``roots``, NaN-free
    thresholds, index bounds, leaf-value dtype, the recorded depth
    against an actual frontier walk (which also rejects cyclic tables),
    a 1-D ``classes`` and the probability/weight row shapes.  Raises
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
    if roots.ndim != 1 or roots.shape[0] == 0:
        raise SerializationError(
            f"compiled roots must be a non-empty 1-D array, got shape {roots.shape}"
        )
    # A NaN threshold routes differently in the two descent kernels
    # (``x > nan`` and ``x <= nan`` are both false).
    if np.isnan(threshold).any():
        raise SerializationError("compiled threshold contains NaN")
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
        if classes.ndim != 1:
            raise SerializationError(
                f"compiled classes must be a 1-D array, got shape {classes.shape}"
            )
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

    ``table`` is a :class:`~repro.ensemble.compiled.CompiledEnsemble`
    (any object with ``depth`` / ``threshold`` / ``left`` / ``right``
    plus the derived ``_gather_feature`` / ``_adjacent`` attributes); ``X``
    must be a C-contiguous float64 chunk and ``idx`` an int64 state
    matrix of shape ``(n_trees, n)`` holding current node indices.

    The kernel is written for numpy's fast paths: flat ``take`` gathers
    with int64 indices, buffers reused via ``out=``, and — on
    sibling-adjacent tables — the next node computed as
    ``left + (x[f] > v)``, avoiding a second child gather and a select.
    """
    n, d = X.shape
    X_flat = X.ravel()
    row_offset = (np.arange(n, dtype=np.int64) * d)[None, :]
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
