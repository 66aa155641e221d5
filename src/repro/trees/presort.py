"""Per-dataset presorted feature orders — the training-side sort cache.

Exact split search spends almost all of its time ordering feature
columns: a node-local search would re-run ``np.argsort`` for every
candidate feature at every node.  But Algorithm 1 (``TrainWithTrigger``)
retrains forests again and again on the *same* ``X`` with only the
sample weights changed — escalation rounds, selective ``refit_trees``,
the ``Adjust`` probe, every grid-search candidate.  Sort orders depend
on ``X`` alone, so all of that work is amortisable: compute each feature
column's stable sort order (and its sorted values) **once per dataset**,
then derive every node's ordering from it.

:class:`SortedDataset` holds those global orders in feature-major
``(n_features, n_samples)`` layout so every per-feature lane is
contiguous.  A node's ordering is obtained either by *filtering* the
global order with a membership mask (a stable global order restricted to
a subset is bitwise-identical to a stable argsort of that subset,
provided the subset index is ascending — which tree growth guarantees)
or, for small nodes where an O(n) filter pass would cost more than an
O(k log k) sort, by a node-local stable argsort.  Both produce the exact
same permutation, so trees grown on top of this cache are **bit-for-bit
identical** to what a node-local sort at every node would grow.

The module-level cache is keyed by *array identity* (``X is cached.X``)
rather than by content hash: the training pipelines thread one validated
array object through every round (``check_X`` returns its input
unchanged when already canonical), so identity is both exact and free.
Entries hold their training matrix through a weak reference, so a
matrix the caller drops evaporates from the cache (tables and all)
instead of pinning gigabytes until process exit.  Fork-based process
pools inherit the warmed cache copy-on-write; :func:`adopt_presort`
re-binds an inherited :class:`SortedDataset` to the worker's own
(pickled, bitwise-equal) copy of ``X`` after verifying equality.

The cache assumes training matrices are never mutated in place while
cached — true everywhere in this library, where re-weighting changes
``sample_weight`` and never ``X``.
"""

from __future__ import annotations

import threading
import weakref
from typing import Sequence

import numpy as np

__all__ = [
    "SortedDataset",
    "root_ordering",
    "partition_orderings",
    "presorted_dataset",
    "adopt_presort",
    "clear_presort_cache",
    "presort_cache_stats",
]

#: Maximum number of datasets kept presorted at once (LRU).  Large
#: enough for a whole watermarking pipeline — the full training matrix,
#: a ``StratifiedKFold(n_splits=10)`` grid search's fold matrices, and a
#: boosting run — without thrashing; weak references keep dead entries
#: from pinning memory regardless of the cap.
_MAX_CACHED = 12


class SortedDataset:
    """Stable per-feature sort orders (and sorted values) of one matrix.

    ``orders[f]`` lists the row ids of ``X`` in stable ascending order
    of feature ``f``; ``sorted_values[f]`` carries the matching values
    (``X[orders[f], f]``) so node filtering never has to gather from the
    row-major training matrix with a random row order.  Built once per
    dataset (O(F · n log n)) and reused by every node of every tree
    fitted on ``X``.
    """

    __slots__ = (
        "_x_ref",
        "XT",
        "orders",
        "sorted_values",
        "n_samples",
        "n_features",
    )

    def __init__(self, X: np.ndarray) -> None:
        source = X  # the caller's object is the cache identity
        X = np.asarray(X, dtype=np.float64)
        self._x_ref = _make_ref(source)
        self.n_samples, self.n_features = X.shape
        # Feature-major copy: every column becomes a contiguous lane, so
        # node-local gathers stream instead of striding across rows.
        self.XT = np.ascontiguousarray(X.T)
        orders = np.empty((self.n_features, self.n_samples), dtype=np.intp)
        sorted_values = np.empty((self.n_features, self.n_samples), dtype=np.float64)
        for feature in range(self.n_features):
            column = self.XT[feature]
            order = np.argsort(column, kind="stable")
            orders[feature] = order
            sorted_values[feature] = column[order]
        self.orders = orders
        self.sorted_values = sorted_values

    @property
    def X(self):
        """The presorted training matrix, or ``None`` once collected."""
        return self._x_ref()

    @classmethod
    def _from_tables(cls, X: np.ndarray, donor: "SortedDataset") -> "SortedDataset":
        """Re-bind a donor's tables to an equal array (fork adoption)."""
        new = cls.__new__(cls)
        new._x_ref = _make_ref(X)
        new.XT = donor.XT
        new.orders = donor.orders
        new.sorted_values = donor.sorted_values
        new.n_samples, new.n_features = X.shape
        return new

    def matches(self, X: np.ndarray) -> bool:
        """True when ``X`` is bitwise-equal to the presorted matrix.

        Compared against the engine's own feature-major copy, so the
        check works even after the original matrix was collected.
        """
        if X is not None and X is self.X:
            return True
        return (
            isinstance(X, np.ndarray)
            and X.shape == (self.n_samples, self.n_features)
            and X.dtype == np.float64
            and bool(np.array_equal(X, self.XT.T))
        )

    def node_sorted(
        self, index: np.ndarray, features: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Feature-sorted view of one node: ``(rows, values)``, ``(F, k)``.

        ``rows[j]`` equals ``index[argsort(X[index, features[j]],
        kind="stable")]`` exactly, and ``values[j]`` the correspondingly
        sorted feature values.  The implementation picks, per node,
        whichever of the two equivalent routes is cheaper:

        - **filter**: gate the global order through a membership mask —
          O(n) per feature, independent of node size, exact for
          ascending ``index`` (ties keep global row order, which *is*
          subset order when the subset index ascends);
        - **local sort**: batched stable argsort of the node's values —
          O(k log k) per feature, exact for any ``index`` order.
        """
        features = np.asarray(features)
        k = index.shape[0]
        n_feat = features.shape[0]
        if k == 0:
            empty = np.empty((n_feat, 0))
            return empty.astype(np.intp), empty
        all_features = (
            n_feat == self.n_features
            and int(features[0]) == 0
            and bool((np.diff(features) == 1).all())
        )
        ascending = k == 1 or bool((index[1:] > index[:-1]).all())
        # Filter passes cost ~4n element-ops per feature vs ~k log k
        # (heavier constant) for a sort; the crossover sits near
        # k (1 + log2 k) ≈ n/2.  Either branch yields the same bits.
        local_cheaper = k * (1.0 + np.log2(max(k, 2))) * 2.0 < self.n_samples
        if not ascending or local_cheaper:
            subset = (
                self.XT[:, index] if all_features else self.XT[np.ix_(features, index)]
            )  # (F, k), gathered from contiguous lanes
            perm = np.argsort(subset, axis=1, kind="stable")
            return index[perm], np.take_along_axis(subset, perm, axis=1)
        if k == self.n_samples:
            # Ascending full-length index is necessarily arange(n).
            if all_features:
                return self.orders, self.sorted_values
            return self.orders[features], self.sorted_values[features]
        selected = self.orders if all_features else self.orders[features]
        sorted_values = (
            self.sorted_values if all_features else self.sorted_values[features]
        )
        # A fresh mask per call: costs a microsecond-scale memset and
        # keeps concurrent threaded fits on one cached dataset safe (a
        # shared scratch buffer would race once numpy releases the GIL).
        mask = np.zeros(self.n_samples, dtype=bool)
        mask[index] = True
        member = mask[selected]
        # Each lane holds exactly k members, so the row-major compress
        # concatenates per-feature blocks of length k.
        rows = selected[member].reshape(n_feat, k)
        values = sorted_values[member].reshape(n_feat, k)
        return rows, values


def root_ordering(
    presort: SortedDataset, index: np.ndarray, features: np.ndarray
) -> np.ndarray:
    """The root node's lanes: ``(len(features), k)`` row ids.

    Lane ``j`` lists the node's rows in stable ascending order of
    ``features[j]``.  Derived from the dataset presort (one membership
    filter — or a direct view when the root holds every sample); every
    deeper node's lanes then come from :func:`partition_orderings`
    without touching the global tables again.  The split search gathers
    values, class codes and weights through the row ids, so a node
    carries nothing else — as 32-bit ids where they fit, since a forest
    grown in lockstep holds every tree's frontier lanes at once.
    """
    rows, _values = presort.node_sorted(index, features)
    return rows.astype(np.int32) if presort.n_samples < 2**31 else rows


def partition_orderings(
    presort: SortedDataset,
    parents: Sequence[tuple[np.ndarray, int, float, int]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split every parent's lanes into its children's, in one pass.

    Each parent is ``(rows, feature, threshold, n_left)``: its lanes,
    its split and the size of its left child.  A row goes left when
    ``X[row, feature] <= threshold``, exactly the test that made the
    split's ``left_index``.  A stable order filtered by membership is
    the subset's stable order, so compressing each lane yields exactly
    what re-sorting (or re-filtering the global order) would — bit for
    bit — at O(k) per lane, and the parents of every tree grown in
    lockstep share one gather, one comparison and two compresses.
    """
    if not parents:
        return []
    flat = np.concatenate([rows.ravel() for rows, _, _, _ in parents])
    sizes = [rows.size for rows, _, _, _ in parents]
    where = np.repeat([f * presort.n_samples for _, f, _, _ in parents], sizes)
    where += flat
    member = presort.XT.take(where) <= np.repeat([t for _, _, t, _ in parents], sizes)
    left, right = flat[member], flat[~member]
    out = []
    at_left = at_right = 0
    for rows, _, _, n_left in parents:
        n_lanes, k = rows.shape
        n_right = k - n_left
        # Copies, so a long-lived child pins its own lanes, not the batch.
        out.append((
            left[at_left : at_left + n_lanes * n_left].reshape(n_lanes, n_left).copy(),
            right[at_right : at_right + n_lanes * n_right].reshape(n_lanes, n_right).copy(),
        ))
        at_left += n_lanes * n_left
        at_right += n_lanes * n_right
    return out


_CACHE: list[SortedDataset] = []
_STATS = {"hits": 0, "misses": 0, "adopted": 0}

#: Serializes every cache lookup/insert: concurrent fits (the serving
#: daemon's executor threads, user thread pools) must not race on the
#: LRU list, and a miss holds the lock through the sort so the same
#: matrix is presorted exactly once.  Reentrant because eviction runs
#: from ``weakref.finalize`` callbacks, which a garbage-collection pass
#: can trigger while the owning thread already holds the lock.
_CACHE_LOCK = threading.RLock()


def _make_ref(obj):
    """A callable resolving to ``obj`` — weakly when the type allows it.

    Arrays (the only inputs the library itself produces) are held
    weakly so the cache never outlives the training data; exotic inputs
    that refuse weak references fall back to a strong closure.
    """
    try:
        return weakref.ref(obj)
    except TypeError:
        return lambda: obj


def _prune_dead() -> None:
    with _CACHE_LOCK:
        _CACHE[:] = [entry for entry in _CACHE if entry.X is not None]


def presorted_dataset(X: np.ndarray) -> SortedDataset:
    """The (cached) :class:`SortedDataset` of ``X``, keyed by identity.

    A hit requires the *same object* the presort was built from — cheap,
    exact, and the natural key for the repo's pipelines, which validate
    once and pass one array object through every retraining round.
    Entries whose training matrix has been garbage-collected are pruned.
    Thread-safe: a miss keeps the cache lock through the sort, so eight
    threads first-touching the same matrix build one presort, not eight.
    """
    with _CACHE_LOCK:
        _prune_dead()
        for position, entry in enumerate(_CACHE):
            if entry.X is X:
                if position:
                    _CACHE.insert(0, _CACHE.pop(position))
                _STATS["hits"] += 1
                return entry
        entry = SortedDataset(X)
        _insert(entry, X)
        _STATS["misses"] += 1
        return entry


def _insert(entry: SortedDataset, source) -> None:
    with _CACHE_LOCK:
        _CACHE.insert(0, entry)
        del _CACHE[_MAX_CACHED:]
    try:
        # Evict eagerly when the training matrix dies, not just on the
        # next lookup — a fit-and-forget caller should leak nothing.
        weakref.finalize(source, _prune_dead)
    except TypeError:
        pass


def adopt_presort(shared: object, X: np.ndarray) -> SortedDataset | None:
    """Bind a fork-inherited :class:`SortedDataset` to this process's ``X``.

    Pool workers receive ``X`` by pickling, so the parent's cache —
    inherited copy-on-write under ``fork`` — misses on identity.  When
    ``shared`` (the parent's presort, delivered via
    :func:`repro.parallel.shared_payload`) is bitwise-equal to ``X``,
    its order tables are re-bound to the worker's array and cached,
    making every subsequent :func:`presorted_dataset` lookup in the
    worker a hit.  Returns ``None`` (and leaves the cache alone) when
    ``shared`` is not a matching presort — callers must treat adoption
    as an optimisation, never a requirement.
    """
    if not isinstance(shared, SortedDataset):
        return None
    with _CACHE_LOCK:
        for entry in _CACHE:
            if entry.X is X:
                return entry
        if not shared.matches(X):
            return None
        adopted = SortedDataset._from_tables(X, shared)
        _insert(adopted, X)
        _STATS["adopted"] += 1
        return adopted


def clear_presort_cache() -> None:
    """Drop every cached presort (tests and cold-cache benchmarking)."""
    with _CACHE_LOCK:
        _CACHE.clear()


def presort_cache_stats() -> dict[str, int]:
    """Counters (``hits`` / ``misses`` / ``adopted``) since import."""
    with _CACHE_LOCK:
        return dict(_STATS)
