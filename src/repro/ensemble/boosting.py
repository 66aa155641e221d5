"""Gradient-boosted decision trees for binary classification.

The paper leaves "more advanced decision tree ensembles, such as those
trained using gradient boosting" as future work; this module provides
the substrate (classic logistic-loss GBDT with Newton leaf values) and
exposes the *per-tree contribution signs* that the boosted-watermark
extension (:mod:`repro.core.boosted`) embeds signatures into.
"""

from __future__ import annotations

import numpy as np

from .._validation import (
    check_binary_labels,
    check_random_state,
    check_sample_weight,
    check_X,
    check_X_y,
)
from ..exceptions import NotFittedError, ValidationError
from ..trees.compiled import ensure_compiled, model_lock
from ..trees.regression import RegressionTree
from .compiled import CompiledEnsemble, compile_boosted

__all__ = ["GradientBoostingClassifier"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Clipped for numerical stability at extreme margins.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


class GradientBoostingClassifier:
    """Binary GBDT with logistic loss and Newton-step leaf values.

    Labels must be in ``{-1, +1}`` (the paper's convention).  Internally
    they are mapped to ``{0, 1}`` for the logistic loss.

    Parameters
    ----------
    n_estimators:
        Number of boosting stages (one regression tree each).
    learning_rate:
        Shrinkage applied to every stage's contribution.
    max_depth, min_samples_leaf:
        Base-learner regularisation.
    random_state:
        Unused by the deterministic base learner but kept for interface
        symmetry with the forest (subsampling hooks may use it later).
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        random_state=None,
    ) -> None:
        if learning_rate <= 0:
            raise ValidationError(f"learning_rate must be > 0, got {learning_rate}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state
        self._trees_: list[RegressionTree] | None = None
        self.init_score_: float = 0.0
        self.n_features_in_: int | None = None
        self._compiled_: CompiledEnsemble | None = None
        self._compiled_sources_: tuple | None = None
        # Lazy-restore state, mirroring RandomForestClassifier: while
        # ``_lazy_key_`` is set only the compiled table is resident.
        self._lazy_key_: object | None = None
        self._mmap_source_: tuple | None = None

    # ------------------------------------------------------------------

    def get_params(self) -> dict:
        """Constructor parameters as a dict (persistence support)."""
        return {
            "n_estimators": self.n_estimators,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "random_state": self.random_state,
        }

    @property
    def trees_(self) -> list[RegressionTree] | None:
        """The fitted stage trees, rebuilt from the engine if lazy."""
        if self._trees_ is None and self._lazy_key_ is not None:
            self._materialize_trees()
        return self._trees_

    @trees_.setter
    def trees_(self, value: list[RegressionTree] | None) -> None:
        self._trees_ = value
        self._lazy_key_ = None
        self._mmap_source_ = None

    def _adopt_lazy(self, engine: CompiledEnsemble, mmap_source: tuple | None = None) -> None:
        """Install an engine-only restore (every persistence load path)."""
        self._trees_ = None
        self._lazy_key_ = object()
        self._mmap_source_ = mmap_source
        self._compiled_ = engine
        self._compiled_sources_ = (self._lazy_key_,)

    def _materialize_trees(self) -> None:
        from ..exceptions import SerializationError

        with model_lock(self):
            if self._trees_ is not None:  # another thread won the race
                return
            engine = self._compiled_
            assert engine is not None  # _adopt_lazy always installs one
            roots = engine.to_roots()
            trees = []
            for root in roots:
                tree = RegressionTree(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                )
                tree.root_ = root
                tree.n_features_in_ = self.n_features_in_
                trees.append(tree)
            probe = np.random.default_rng(0).standard_normal((8, self.n_features_in_))
            expected = np.stack([tree.predict(probe) for tree in trees])
            if not np.array_equal(engine.predict_all(probe), expected):
                raise SerializationError(
                    "compiled node table disagrees with its reconstructed object "
                    "graph on a probe batch; refusing to materialise it"
                )
            self._trees_ = trees
            self._lazy_key_ = None
            self._compiled_sources_ = tuple(tree.root_ for tree in trees)

    def __getstate__(self) -> dict:
        if self._mmap_source_ is not None and self._trees_ is None:
            return {"__load_from__": self._mmap_source_}
        state = dict(self.__dict__)
        if self._mmap_source_ is not None:
            state["_compiled_"] = None
            state["_compiled_sources_"] = None
            state["_mmap_source_"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        if "__load_from__" in state:
            from ..persistence import load

            path, fmt, mmap_mode = state["__load_from__"]
            loaded = load(path, format=fmt, mmap_mode=mmap_mode)
            model = getattr(loaded, "ensemble", loaded)
            self.__dict__.update(model.__dict__)
            return
        self.__dict__.update(state)

    # ------------------------------------------------------------------

    def fit(
        self, X, y, sample_weight=None, stage_label_overrides=None
    ) -> "GradientBoostingClassifier":
        """Fit the boosted ensemble.

        Parameters
        ----------
        stage_label_overrides:
            Optional hook used by the watermark extension: a callable
            ``(stage_index, y) -> y_stage`` returning the (possibly
            modified) ±1 labels used to compute this stage's gradients.
            ``None`` trains a standard GBDT.
        """
        if self.n_estimators < 1:
            raise ValidationError(f"n_estimators must be >= 1, got {self.n_estimators}")
        X, y_raw = check_X_y(X, y)
        y_pm = check_binary_labels(y_raw)
        weights = check_sample_weight(sample_weight, X.shape[0])
        check_random_state(self.random_state)  # validate even if unused

        y01 = (y_pm > 0).astype(np.float64)
        prior = float(np.clip(np.average(y01, weights=weights), 1e-6, 1 - 1e-6))
        self.init_score_ = float(np.log(prior / (1.0 - prior)))

        margins = np.full(X.shape[0], self.init_score_, dtype=np.float64)
        trees: list[RegressionTree] = []
        for stage in range(self.n_estimators):
            if stage_label_overrides is not None:
                stage_pm = check_binary_labels(stage_label_overrides(stage, y_pm.copy()))
                stage01 = (stage_pm > 0).astype(np.float64)
            else:
                stage01 = y01
            prob = _sigmoid(margins)
            residual = stage01 - prob
            hessian = np.maximum(prob * (1.0 - prob), 1e-12)

            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
            )

            def newton_leaf(index: np.ndarray) -> float:
                num = float(np.sum(weights[index] * residual[index]))
                den = float(np.sum(weights[index] * hessian[index]))
                return num / den if den > 0 else 0.0

            tree.fit(X, residual, sample_weight=weights, leaf_value_fn=newton_leaf)
            margins += self.learning_rate * tree.predict(X)
            trees.append(tree)

        self.trees_ = trees
        self.n_features_in_ = X.shape[1]
        self._compiled_ = None
        self._compiled_sources_ = None
        return self

    # ------------------------------------------------------------------

    def _ensure_fitted(self) -> None:
        if self._trees_ is None and self._lazy_key_ is None:
            raise NotFittedError("this GradientBoostingClassifier is not fitted yet")

    def _check_fitted(self) -> list[RegressionTree]:
        self._ensure_fitted()
        return self.trees_  # materialises if lazy

    def _roots_key(self) -> tuple:
        """The fitted stage roots, the cache-freshness key for the engine."""
        self._ensure_fitted()
        if self._trees_ is None:
            return (self._lazy_key_,)
        return tuple(tree.root_ for tree in self._trees_)

    def compile(self) -> CompiledEnsemble:
        """Pack all stages into one compiled node table (cached).

        The compiled ``predict_all`` yields raw per-stage tree values;
        ``stage_contributions`` scales them by the learning rate.  The
        cache refreshes when stage roots are replaced.
        """
        return ensure_compiled(self, self._roots_key(), lambda: compile_boosted(self))

    def stage_contributions(self, X) -> np.ndarray:
        """Per-stage raw contributions, shape ``(n_stages, n_samples)``.

        Contribution of stage ``i`` is ``learning_rate * tree_i(x)``.
        The boosted-watermark extension reads the *signs* of these
        contributions the way the forest scheme reads per-tree labels.
        """
        self._ensure_fitted()
        X = check_X(X)
        if X.shape[1] != self.n_features_in_:
            raise ValidationError(
                f"X has {X.shape[1]} features but the ensemble was fitted with "
                f"{self.n_features_in_}"
            )
        return self.learning_rate * self.compile().predict_all(X)

    def decision_function(self, X) -> np.ndarray:
        """Additive margin ``init + sum_i lr * tree_i(x)``."""
        return self.init_score_ + self.stage_contributions(X).sum(axis=0)

    def predict(self, X) -> np.ndarray:
        """Predicted ±1 labels (0 margin resolves to +1)."""
        return np.where(self.decision_function(X) >= 0.0, 1, -1)

    def predict_proba(self, X) -> np.ndarray:
        """Probabilities ``[P(-1), P(+1)]`` per sample."""
        p_pos = _sigmoid(self.decision_function(X))
        return np.stack([1.0 - p_pos, p_pos], axis=1)

    def score(self, X, y) -> float:
        """Accuracy on ``(X, y)``."""
        X, y = check_X_y(X, y)
        return float(np.mean(self.predict(X) == np.asarray(y)))
