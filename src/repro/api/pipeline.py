"""The composable watermarking pipeline — the owner-side public API.

:class:`Watermarker` is the one way to embed a watermark.  The paper's
Algorithm 1 takes a dozen knobs; they live in three small frozen
configs, each owning one concern, composed by a ``Watermarker`` with an
sklearn-style ``fit``:

- :class:`TriggerPolicy` — how large the trigger set ``D_trigger`` is
  (absolute ``size`` or a ``fraction`` of the training set);
- :class:`EmbeddingSchedule` — the ``TrainWithTrigger`` re-weighting
  loop (increment, escalation, round cap); defined beside that loop in
  :mod:`repro.core.embedding` and re-exported here;
- :class:`TrainerConfig` — everything about the underlying forests
  (hyper-parameters or the grid to search them from, the ``Adjust``
  anti-detection heuristic, feature subspaces, worker processes).

::

    from repro.api import EmbeddingSchedule, TrainerConfig, TriggerPolicy, Watermarker

    wm = Watermarker(
        signature=random_signature(m=32, random_state=7),
        trigger=TriggerPolicy(fraction=0.02),
        schedule=EmbeddingSchedule(escalation_factor=2.0),
        trainer=TrainerConfig(base_params={"max_depth": 8}, n_jobs=-1),
        random_state=7,
    )
    model = wm.fit(X_train, y_train)      # -> WatermarkedModel

    model.save("model.rfbin")             # mmap-able binary artefact
    model.save("model.json")              # inspectable escape hatch
    again = WatermarkedModel.load("model.rfbin", mmap_mode="r")

The returned model persists through the pluggable exporter family
(:mod:`repro.persistence.exporters`): ``save(path, format=...)`` picks
the format by name or extension, and ``load(..., mmap_mode="r")`` maps
the binary format zero-copy for serving.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import check_binary_labels, check_count, check_random_state, check_X_y
from ..core.adjustment import AdjustedHyperParameters, adjust_hyperparameters
from ..core.embedding import (
    EmbeddingReport,
    EmbeddingSchedule,
    WatermarkedModel,
    train_with_trigger,
)
from ..core.signature import Signature
from ..core.trigger import sample_trigger_set
from ..ensemble.forest import RandomForestClassifier
from ..exceptions import ValidationError
from ..model_selection.grid_search import grid_search_forest

__all__ = [
    "TriggerPolicy",
    "EmbeddingSchedule",
    "TrainerConfig",
    "Watermarker",
]


@dataclass(frozen=True)
class TriggerPolicy:
    """How to size the trigger set ``D_trigger``.

    Exactly one of ``size`` (absolute ``k``) and ``fraction`` (of the
    training set, the way the experiment configs express it) must be
    set.  Either way the scheme's ``k ≪ |D_train|`` assumption is
    enforced at ``fit`` time.
    """

    size: int | None = None
    fraction: float | None = None

    def __post_init__(self) -> None:
        if (self.size is None) == (self.fraction is None):
            raise ValidationError(
                "exactly one of TriggerPolicy.size and TriggerPolicy.fraction "
                "must be set"
            )
        if self.size is not None:
            check_count(self.size, "trigger size")
        if self.fraction is not None and not 0.0 < self.fraction <= 0.5:
            raise ValidationError(
                f"trigger fraction must be in (0, 0.5], got {self.fraction}"
            )

    def resolve(self, n_train: int) -> int:
        """The trigger-set size ``k`` for a training set of ``n_train`` rows."""
        if self.size is not None:
            k = int(self.size)
        else:
            k = max(1, int(round(self.fraction * n_train)))
        if k > n_train // 2:
            raise ValidationError(
                f"trigger size {k} is not small relative to the training set "
                f"({n_train} samples); the scheme assumes k ≪ |D_train|"
            )
        return k


@dataclass(frozen=True)
class TrainerConfig:
    """Everything about the forests underneath the watermark.

    ``base_params=None`` runs the paper's grid search (line 12 of
    Algorithm 1) over ``param_grid``; a dict skips the search.
    ``adjust`` applies the ``Adjust`` anti-detection heuristic on top of
    whichever hyper-parameters result.  ``n_jobs`` fans tree fitting
    over worker processes wherever the pipeline trains a forest;
    results never depend on it.
    """

    base_params: dict | None = None
    param_grid: dict | None = None
    adjust: bool = True
    tree_feature_fraction: float = 0.7
    n_jobs: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.tree_feature_fraction <= 1.0:
            raise ValidationError(
                f"tree_feature_fraction must be in (0, 1], got "
                f"{self.tree_feature_fraction}"
            )


def _forest_params(base_params: dict, adjusted: AdjustedHyperParameters | None) -> dict:
    """Merge grid-searched params with the Adjust caps (caps win)."""
    params = dict(base_params)
    if adjusted is not None:
        params["max_depth"] = adjusted.max_depth
        params["max_leaf_nodes"] = adjusted.max_leaf_nodes
    return params


def _assemble(
    signature: Signature,
    forest_zero: RandomForestClassifier | None,
    forest_one: RandomForestClassifier | None,
    n_features: int,
    classes: np.ndarray,
    template: RandomForestClassifier,
) -> RandomForestClassifier:
    """Interleave trees of ``T0``/``T1`` by signature bit (lines 19–22)."""
    trees = []
    subsets = []
    it_zero = iter(zip(forest_zero.trees_, forest_zero.feature_subsets_)) if forest_zero else iter(())
    it_one = iter(zip(forest_one.trees_, forest_one.feature_subsets_)) if forest_one else iter(())
    for bit in signature:
        tree, subset = next(it_one) if bit == 1 else next(it_zero)
        trees.append(tree)
        subsets.append(subset)

    assembled = template.clone_with(n_estimators=len(signature))
    assembled.trees_ = trees
    assembled.feature_subsets_ = subsets
    assembled.classes_ = classes
    assembled.n_features_in_ = n_features
    return assembled


@dataclass(frozen=True)
class Watermarker:
    """Algorithm 1 as a composable, reusable pipeline object.

    ``fit(X, y)`` runs grid search (if configured), trigger sampling,
    the ``Adjust`` heuristic, the two trigger-constrained trainings
    ``T0``/``T1`` and the signature interleaving, returning a
    :class:`~repro.core.embedding.WatermarkedModel`.

    The object itself is an immutable config bundle: calling ``fit``
    twice with the same data and an *int* ``random_state`` produces
    identical models.  ``None`` draws fresh entropy per call, and a
    generator instance is consumed across calls — like everywhere else
    in the library.
    """

    signature: Signature
    trigger: TriggerPolicy
    schedule: EmbeddingSchedule = field(default_factory=EmbeddingSchedule)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    random_state: object = None

    def fit(self, X, y) -> WatermarkedModel:
        """Embed the signature into a freshly trained ensemble.

        Parameters
        ----------
        X, y:
            Training set with binary ±1 labels.

        Returns
        -------
        WatermarkedModel
            The watermarked ensemble together with the secret
            ``(signature, trigger set)`` and embedding diagnostics.

        Notes
        -----
        The pseudo-code calls ``Adjust`` inside ``TrainWithTrigger``;
        since the heuristic is a pure function of ``(D_train, H)`` we
        hoist it out and compute it once for both ensembles — same
        result, half the probe trainings.
        """
        X, y = check_X_y(X, y)
        y = check_binary_labels(y)
        rng = check_random_state(self.random_state)
        signature = self.signature
        trainer = self.trainer

        trigger_size = self.trigger.resolve(X.shape[0])

        # Line 12: grid search for H.
        base_params = trainer.base_params
        if base_params is None:
            search = grid_search_forest(
                X,
                y,
                n_estimators=len(signature),
                param_grid=trainer.param_grid,
                tree_feature_fraction=trainer.tree_feature_fraction,
                n_jobs=trainer.n_jobs,
                random_state=rng,
            )
            base_params = search.best_params

        # Line 13: sample the trigger set.
        trigger = sample_trigger_set(X, y, trigger_size, random_state=rng)

        # Adjust(H): hide the watermark structurally.
        adjusted = None
        if trainer.adjust:
            adjusted = adjust_hyperparameters(
                X,
                y,
                n_estimators=len(signature),
                base_params=base_params,
                tree_feature_fraction=trainer.tree_feature_fraction,
                n_jobs=trainer.n_jobs,
                random_state=rng,
            )
        params = _forest_params(base_params, adjusted)

        # Lines 14-15: T0 — trees classify the trigger set correctly.
        n_zero = signature.n_zeros
        forest_zero, rounds_t0, weight_t0 = (None, 0, 1.0)
        if n_zero > 0:
            forest_zero, rounds_t0, weight_t0 = train_with_trigger(
                X,
                y,
                trigger.indices,
                n_estimators=n_zero,
                params=params,
                schedule=self.schedule,
                tree_feature_fraction=trainer.tree_feature_fraction,
                n_jobs=trainer.n_jobs,
                random_state=rng,
            )

        # Lines 16-18: flip trigger labels and train T1 to misclassify.
        n_one = signature.n_ones
        forest_one, rounds_t1, weight_t1 = (None, 0, 1.0)
        if n_one > 0:
            y_flipped = y.copy()
            y_flipped[trigger.indices] = trigger.flipped_y
            forest_one, rounds_t1, weight_t1 = train_with_trigger(
                X,
                y_flipped,
                trigger.indices,
                n_estimators=n_one,
                params=params,
                schedule=self.schedule,
                tree_feature_fraction=trainer.tree_feature_fraction,
                n_jobs=trainer.n_jobs,
                random_state=rng,
            )

        # Lines 19-23: interleave trees by signature bit.
        template = RandomForestClassifier(
            tree_feature_fraction=trainer.tree_feature_fraction,
            n_jobs=trainer.n_jobs,
            **params,
        )
        ensemble = _assemble(
            signature,
            forest_zero,
            forest_one,
            n_features=X.shape[1],
            classes=np.unique(y),
            template=template,
        )
        report = EmbeddingReport(
            rounds_t0=rounds_t0,
            rounds_t1=rounds_t1,
            trigger_weight_t0=weight_t0,
            trigger_weight_t1=weight_t1,
            adjusted=adjusted,
            base_params=dict(base_params),
        )
        return WatermarkedModel(
            ensemble=ensemble, signature=signature, trigger=trigger, report=report
        )
