"""Random forest **without bootstrap**, with per-tree feature subspaces.

This is the exact model class the paper watermarks:

- no bootstrap: every tree sees the whole training set, so the sample
  re-weighting of Algorithm 1 acts on *every* tree;
- "each tree is a classifier trained on a subset of the features of the
  entire training set": each tree draws a random feature subspace;
- the ensemble can expose *per-tree* predictions (``predict_all``, the
  analogue of R's ``predict.all`` that the verification protocol needs).
"""

from __future__ import annotations

import numbers
from copy import copy

import numpy as np

from .._validation import (
    check_count,
    check_sample_weight,
    check_X,
    check_X_y,
    spawn_seed_sequences,
)
from ..exceptions import NotFittedError, ValidationError
from ..parallel import partition, resolve_n_jobs, run_batches, shared_payload
from ..trees.compiled import adopt_compiled, ensure_compiled, model_lock
from ..trees.presort import adopt_presort, presorted_dataset
from ..trees.export import ensemble_structure
from ..trees.tree import DecisionTreeClassifier, fit_trees
from .compiled import CompiledEnsemble, compile_forest
from .voting import majority_vote

__all__ = ["RandomForestClassifier"]


def _fit_tree_slots(
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    tree_params: dict,
    subspace_size: int,
    seeds: list[np.random.SeedSequence],
) -> list[tuple[DecisionTreeClassifier, np.ndarray]]:
    """Fit one tree per seed sequence; the process-pool work unit.

    Each slot's subspace draw and per-split sampling both come from the
    slot's private stream, so the result depends only on
    ``(X, y, weights, tree_params, seed)`` — not on which worker fits it
    or which other slots are being (re)fitted alongside.  The slots grow
    in lockstep (:func:`~repro.trees.tree.fit_trees`): one batched split
    search per step serves the pending nodes of every tree in the call,
    and each tree is still the one fitting it alone would give.

    The parent warms the dataset's presort cache and ships it as the
    pool's shared payload; fork workers inherit it copy-on-write and
    re-bind it to their pickled copy of ``X`` here, so no worker re-sorts
    what the parent already sorted.  Adoption is best-effort — without
    it (spawn platforms, no payload) each worker presorts once itself.
    """
    adopt_presort(shared_payload(), X)
    trees, subsets = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        subset = np.sort(rng.choice(X.shape[1], size=subspace_size, replace=False))
        trees.append(
            DecisionTreeClassifier(feature_subset=subset, random_state=rng, **tree_params)
        )
        subsets.append(subset)
    fit_trees(trees, X, y, sample_weight=weights)
    return list(zip(trees, subsets))


class RandomForestClassifier:
    """Feature-subspace random forest without bootstrap.

    Parameters
    ----------
    n_estimators:
        Number of trees ``m`` in the ensemble.
    criterion, max_depth, max_leaf_nodes, min_samples_split,
    min_samples_leaf, min_impurity_decrease, max_features:
        Passed to each :class:`~repro.trees.DecisionTreeClassifier`.
    tree_feature_fraction:
        Fraction of the features assigned to each tree's private
        subspace (sampled without replacement per tree).  ``1.0`` gives
        every tree the full feature set.
    random_state:
        Seed/generator controlling subspace assignment and per-split
        feature sampling.  Internally expanded into one
        :class:`numpy.random.SeedSequence` child per tree slot, so trees
        are deterministic and independent of fitting order.
    n_jobs:
        Trees fitted concurrently: ``None``/``1`` serial (default),
        ``-1`` one process per core, ``k`` at most ``k`` worker
        processes.  Results are bitwise-identical across all settings.

    Notes
    -----
    Bootstrap resampling is deliberately not implemented: the paper's
    scheme requires all trees to be trained on the full (re-weighted)
    training set so that trigger behaviour can be forced in every tree.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        criterion: str = "gini",
        max_depth: int | None = None,
        max_leaf_nodes: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_impurity_decrease: float = 0.0,
        max_features=None,
        tree_feature_fraction: float = 0.7,
        random_state=None,
        n_jobs: int | None = None,
    ) -> None:
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.max_leaf_nodes = max_leaf_nodes
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self.tree_feature_fraction = tree_feature_fraction
        self.random_state = random_state
        self.n_jobs = n_jobs
        self._trees_: list[DecisionTreeClassifier] | None = None
        self.feature_subsets_: list[np.ndarray] | None = None
        self._tree_seeds_: list[np.random.SeedSequence] | None = None
        self.classes_: np.ndarray | None = None
        self.n_features_in_: int | None = None
        self._compiled_: CompiledEnsemble | None = None
        self._compiled_sources_: tuple | None = None
        # Lazy-restore state (persistence load path): while ``_lazy_key_``
        # is set the object trees have not been rebuilt yet and the
        # compiled engine answers everything; ``_mmap_source_`` remembers
        # ``(path, format, mmap_mode)`` so pickling ships a file handle
        # instead of the node tables.
        self._lazy_key_: object | None = None
        self._mmap_source_: tuple | None = None

    # ------------------------------------------------------------------

    @property
    def trees_(self) -> list[DecisionTreeClassifier] | None:
        """The fitted trees, rebuilding them from the engine if lazy.

        A forest restored from the binary format starts *lazy*: only the
        compiled node table is resident and predictions run through it.
        First access to ``trees_`` (audits, serialisation, refitting)
        reconstructs the ``InternalNode``/``Leaf`` object graph from the
        table and probe-checks it against the engine.
        """
        if self._trees_ is None and self._lazy_key_ is not None:
            self._materialize_trees()
        return self._trees_

    @trees_.setter
    def trees_(self, value: list[DecisionTreeClassifier] | None) -> None:
        # Assigning trees makes the object graph authoritative again.
        self._trees_ = value
        self._lazy_key_ = None
        self._mmap_source_ = None

    # ------------------------------------------------------------------

    def get_params(self) -> dict:
        """Constructor parameters as a dict (grid-search support)."""
        return {
            "n_estimators": self.n_estimators,
            "criterion": self.criterion,
            "max_depth": self.max_depth,
            "max_leaf_nodes": self.max_leaf_nodes,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "min_impurity_decrease": self.min_impurity_decrease,
            "max_features": self.max_features,
            "tree_feature_fraction": self.tree_feature_fraction,
            "random_state": self.random_state,
            "n_jobs": self.n_jobs,
        }

    def clone_with(self, **overrides) -> "RandomForestClassifier":
        """A fresh unfitted copy with some parameters replaced."""
        params = self.get_params()
        unknown = set(overrides) - set(params)
        if unknown:
            raise ValidationError(f"unknown parameters: {sorted(unknown)}")
        params.update(overrides)
        return RandomForestClassifier(**params)

    # ------------------------------------------------------------------

    def _subspace_size(self, n_features: int) -> int:
        fraction = self.tree_feature_fraction
        if (
            isinstance(fraction, (bool, np.bool_))
            or not isinstance(fraction, numbers.Real)
            or not 0.0 < fraction <= 1.0
        ):
            raise ValidationError(
                f"tree_feature_fraction must be in (0, 1], got "
                f"{self.tree_feature_fraction}"
            )
        return max(1, int(round(self.tree_feature_fraction * n_features)))

    def _tree_params(self) -> dict:
        """Constructor kwargs shared by every tree slot."""
        return {
            "criterion": self.criterion,
            "max_depth": self.max_depth,
            "max_leaf_nodes": self.max_leaf_nodes,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "min_impurity_decrease": self.min_impurity_decrease,
            "max_features": self.max_features,
        }

    def _fit_slots(
        self,
        X: np.ndarray,
        y: np.ndarray,
        weights: np.ndarray,
        seeds: list[np.random.SeedSequence],
    ) -> list[tuple[DecisionTreeClassifier, np.ndarray]]:
        """Fit one tree per seed, serially or in a process pool.

        Work is batched one task per worker (not per tree) so the
        training matrix is pickled at most ``n_jobs`` times; batch
        results are flattened back into seed order, keeping the output
        independent of the execution plan.

        The parent computes (or re-uses) the dataset's sort orders
        *before* dispatch and hands them to the pool as the
        fork-inherited shared payload — one presort serves every tree of
        every round, in every worker.
        """
        jobs = resolve_n_jobs(self.n_jobs, n_tasks=len(seeds))
        subspace_size = self._subspace_size(X.shape[1])
        # Validate the shared tree hyper-parameters here, not in a worker.
        DecisionTreeClassifier(**self._tree_params())._validate_params(X.shape[1])
        presort = presorted_dataset(X)
        batches = [
            (X, y, weights, self._tree_params(), subspace_size, chunk)
            for chunk in partition(seeds, jobs)
        ]
        results = run_batches(_fit_tree_slots, batches, jobs, shared=presort)
        return [slot for batch in results for slot in batch]

    def fit(self, X, y, sample_weight=None) -> "RandomForestClassifier":
        """Fit ``n_estimators`` trees on the full (weighted) training set."""
        check_count(self.n_estimators, "n_estimators")
        X, y = check_X_y(X, y)
        weights = check_sample_weight(sample_weight, X.shape[0])
        seeds = spawn_seed_sequences(self.random_state, self.n_estimators)

        fitted = self._fit_slots(X, y, weights, seeds)
        self.trees_ = [tree for tree, _ in fitted]
        self.feature_subsets_ = [subset for _, subset in fitted]
        self._tree_seeds_ = seeds
        self.classes_ = np.unique(np.asarray(y))
        self.n_features_in_ = X.shape[1]
        self._compiled_ = None
        self._compiled_sources_ = None
        return self

    def refit_trees(self, indices, X, y, sample_weight=None) -> "RandomForestClassifier":
        """Refit only the tree slots in ``indices`` on ``(X, y, weights)``.

        Each refitted slot redraws its feature subspace and tree from
        the next child of its private seed stream — exactly what a full
        retrain would give that slot, without touching the others.  This
        is the primitive behind incremental watermark embedding: trees
        already compliant with the trigger constraint are kept, only the
        stubborn ones retrain against the re-weighted data.

        The slot streams make the result deterministic: it depends only
        on the forest's seed and on *how many times each slot has been
        refitted*, not on which other slots retrain in the same call.
        """
        trees = self._check_fitted()
        X, y = check_X_y(X, y)
        X = self._check_n_features(X)
        weights = check_sample_weight(sample_weight, X.shape[0])
        indices = np.asarray(indices)
        if indices.size == 0:
            return self
        if not np.issubdtype(indices.dtype, np.integer):
            raise ValidationError(f"tree indices must be integers, got {indices.dtype}")
        indices = np.unique(indices.astype(np.int64))
        if indices.min() < 0 or indices.max() >= len(trees):
            raise ValidationError(
                f"tree indices must be in [0, {len(trees)}), got "
                f"[{indices.min()}, {indices.max()}]"
            )
        # repro: allow[RPR006] refit_trees mutates trees_/feature_subsets_ wholesale — concurrent refit is outside the threading contract, so this one-shot fallback needs no lock
        if self._tree_seeds_ is None:
            # Restored/hand-assembled forest with no recorded streams:
            # fall back to fresh entropy (still correct, not replayable).
            self._tree_seeds_ = spawn_seed_sequences(None, len(trees))

        seeds = [self._tree_seeds_[i].spawn(1)[0] for i in indices]
        fitted = self._fit_slots(X, y, weights, seeds)
        assert self.feature_subsets_ is not None
        for slot, (tree, subset) in zip(indices, fitted):
            self.trees_[int(slot)] = tree
            self.feature_subsets_[int(slot)] = subset
        self._compiled_ = None
        self._compiled_sources_ = None
        return self

    def with_roots(self, new_roots) -> "RandomForestClassifier":
        """A fitted clone of this forest with every tree root replaced.

        This is the single cloning path for model-surgery call sites
        (the truncate, flip and prune edits of the attack registry): the
        clone shares training metadata (``classes_``, ``n_features_in_``,
        feature subspaces) but carries fresh shallow-copied trees whose
        compiled-engine caches are explicitly reset — a copied tree must
        never serve predictions from the donor's node table, nor pin the
        donor's root graph in memory through a stale cache entry.
        """
        trees = self._check_fitted()
        new_roots = list(new_roots)
        if len(new_roots) != len(trees):
            raise ValidationError(
                f"expected {len(trees)} roots, got {len(new_roots)}"
            )
        clone = self.clone_with()
        clone.classes_ = self.classes_
        clone.n_features_in_ = self.n_features_in_
        clone.feature_subsets_ = list(self.feature_subsets_)
        replaced = []
        for tree, root in zip(trees, new_roots):
            new_tree = copy(tree)
            new_tree.root_ = root
            new_tree._compiled_ = None
            new_tree._compiled_sources_ = None
            new_tree._grown_ = None
            replaced.append(new_tree)
        clone.trees_ = replaced
        return clone

    # ------------------------------------------------------------------

    def _ensure_fitted(self) -> None:
        """Raise :class:`NotFittedError` if unfitted — without forcing a
        lazy forest to materialise its object trees."""
        if self._trees_ is None and self._lazy_key_ is None:
            raise NotFittedError("this RandomForestClassifier is not fitted yet")

    def _check_fitted(self) -> list[DecisionTreeClassifier]:
        self._ensure_fitted()
        return self.trees_  # materialises if lazy

    def _roots_key(self) -> tuple:
        """The fitted roots, the cache-freshness key for the engine.

        Attacks and pruning replace ``root_`` objects wholesale rather
        than mutating nodes in place, so root identity is a sound
        staleness signal for the compiled node table.  A lazy forest has
        no roots yet; its sentinel key pins the adopted engine until the
        object graph is rebuilt.
        """
        self._ensure_fitted()
        if self._trees_ is None:
            return (self._lazy_key_,)
        return tuple(tree.root_ for tree in self._trees_)

    def _adopt_lazy(self, engine: CompiledEnsemble, mmap_source: tuple | None = None) -> None:
        """Install an engine-only restore (every persistence load path).

        The forest is immediately servable through ``engine``; the
        auditable object trees are rebuilt on first ``trees_`` access.
        ``mmap_source`` is the ``(path, format, mmap_mode)`` triple to
        reopen on unpickle so worker processes share the page cache
        instead of each holding a private copy of the node tables.
        """
        self._trees_ = None
        self._lazy_key_ = object()
        self._mmap_source_ = mmap_source
        self._compiled_ = engine
        self._compiled_sources_ = (self._lazy_key_,)

    def _trees_from_engine(self, engine: CompiledEnsemble) -> list[DecisionTreeClassifier]:
        """Rebuild per-tree object graphs from the compiled node table.

        The rebuilt trees are probe-checked against the engine before
        being returned.  Every persistence format restores through
        :meth:`_adopt_lazy` with a validated table; the probe catches a
        reconstruction that disagrees with it.
        """
        from ..exceptions import SerializationError
        from ..trees.node import predict_batch

        if self.feature_subsets_ is None or len(self.feature_subsets_) != engine.n_trees:
            raise SerializationError(
                "feature subsets disagree with the compiled table tree count"
            )
        roots = engine.to_roots()
        trees = []
        for root, subset in zip(roots, self.feature_subsets_):
            tree = DecisionTreeClassifier(feature_subset=subset, **self._tree_params())
            tree.root_ = root
            tree.classes_ = self.classes_
            tree.n_features_in_ = self.n_features_in_
            trees.append(tree)
        probe = np.random.default_rng(0).standard_normal((8, self.n_features_in_))
        expected = np.stack([predict_batch(tree.root_, probe) for tree in trees])
        if not np.array_equal(engine.predict_all(probe), expected):
            raise SerializationError(
                "compiled node table disagrees with its reconstructed object "
                "graph on a probe batch; refusing to materialise it"
            )
        return trees

    def _materialize_trees(self) -> None:
        with model_lock(self):
            if self._trees_ is not None:  # another thread won the race
                return
            engine = self._compiled_
            assert engine is not None  # _adopt_lazy always installs one
            trees = self._trees_from_engine(engine)
            self._trees_ = trees
            self._lazy_key_ = None
            # Re-pin the engine cache to the real roots so it stays fresh
            # across the materialisation boundary.
            adopt_compiled(self, tuple(tree.root_ for tree in trees), engine)

    def compile(self) -> CompiledEnsemble:
        """Pack all trees into one compiled node table (cached).

        Every prediction method answers through this table, compiling it
        on first use whatever the batch size; call explicitly to pay the
        flattening cost up front (e.g. before serving).  The cache
        refreshes itself when tree roots are replaced.
        """
        return ensure_compiled(self, self._roots_key(), lambda: compile_forest(self))

    def _check_n_features(self, X: np.ndarray) -> np.ndarray:
        if X.shape[1] != self.n_features_in_:
            raise ValidationError(
                f"X has {X.shape[1]} features but the forest was fitted with "
                f"{self.n_features_in_}"
            )
        return X

    def _grown_predict_all(self, rows: np.ndarray) -> np.ndarray:
        """Per-tree predicted labels of training rows ``rows``, shape
        ``(n_trees, len(rows))``, read from growth.

        Equal to ``predict_all(X[rows])`` on the matrix every tree was
        last fitted (or refitted) on, without compiling the forest; see
        :meth:`DecisionTreeClassifier._grown_predict`.
        """
        return np.stack([tree._grown_predict(rows) for tree in self._check_fitted()])

    def predict_all(self, X) -> np.ndarray:
        """Per-tree predictions, shape ``(n_trees, n_samples)``.

        This is the query interface the paper assumes the deployed model
        exposes (R's ``predict.all``); black-box watermark verification
        is built entirely on it.
        """
        self._ensure_fitted()
        X = self._check_n_features(check_X(X))
        return self.compile().predict_all(X)

    def predict(self, X) -> np.ndarray:
        """Majority-vote ensemble prediction."""
        all_predictions = self.predict_all(X)  # raises NotFittedError first
        assert self.classes_ is not None
        return majority_vote(all_predictions, self.classes_)

    def predict_proba(self, X) -> np.ndarray:
        """Average of the trees' leaf-frequency probabilities.

        A table adopted from an artefact without the optional
        ``leaf_proba`` section answers through each tree's own engine.
        """
        self._ensure_fitted()
        X = self._check_n_features(check_X(X))
        assert self.classes_ is not None
        engine = self.compile()
        if engine.leaf_proba is not None:
            return engine.predict_proba(X)
        trees = self._check_fitted()
        class_position = {int(c): i for i, c in enumerate(self.classes_)}
        total = np.zeros((X.shape[0], self.classes_.shape[0]), dtype=np.float64)
        for tree in trees:
            proba = tree.predict_proba(X)
            assert tree.classes_ is not None
            for local, label in enumerate(tree.classes_):
                total[:, class_position[int(label)]] += proba[:, local]
        return total / len(trees)

    def score(self, X, y, sample_weight=None) -> float:
        """Weighted accuracy of the majority vote on ``(X, y)``."""
        X, y = check_X_y(X, y)
        weights = check_sample_weight(sample_weight, X.shape[0])
        correct = (self.predict(X) == np.asarray(y)).astype(np.float64)
        return float(np.average(correct, weights=weights))

    # ------------------------------------------------------------------

    @property
    def n_trees_(self) -> int:
        """Number of fitted trees."""
        self._ensure_fitted()
        if self._trees_ is None:
            assert self._compiled_ is not None
            return int(self._compiled_.n_trees)
        return len(self._trees_)

    def roots(self) -> list:
        """Root nodes of the fitted trees (for solvers and analysis)."""
        return [tree.root_ for tree in self._check_fitted()]

    def structure(self) -> dict[str, np.ndarray]:
        """Per-tree ``depth`` and ``n_leaves`` arrays (detection attack input)."""
        return ensemble_structure(self.roots())

    def total_leaves(self) -> int:
        """Total number of leaves across the ensemble.

        The paper uses this to explain forgery hardness: the ijcnn1
        ensemble has more than twice the leaves of the others, making
        its satisfiability instances much harder.
        """
        return int(self.structure()["n_leaves"].sum())

    # ------------------------------------------------------------------
    # Pickling — worker processes share the artefact, not a copy
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        if self._mmap_source_ is not None and self._trees_ is None:
            # Lazy mmap-backed forest: ship the reopen handle.  The
            # receiver maps the same file, so N workers share one
            # physical page-cache copy of the node tables.
            return {"__load_from__": self._mmap_source_}
        state = dict(self.__dict__)
        if self._mmap_source_ is not None:
            # Materialised object graph travels by value, but mmap-backed
            # engine arrays must not be pickled (that would copy them
            # into every receiver); the receiver recompiles on demand.
            state["_compiled_"] = None
            state["_compiled_sources_"] = None
            state["_mmap_source_"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        if "__load_from__" in state:
            from ..persistence import load

            path, fmt, mmap_mode = state["__load_from__"]
            loaded = load(path, format=fmt, mmap_mode=mmap_mode)
            # A watermarked artefact reloads as a WatermarkedModel;
            # unwrap to the ensemble this pickle actually carried.
            forest = getattr(loaded, "ensemble", loaded)
            self.__dict__.update(forest.__dict__)
            return
        self.__dict__.update(state)
