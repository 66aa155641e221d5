"""Watermark creation — Algorithm 1 of the paper.

``train_with_trigger`` forces a set of trees to exhibit prescribed
behaviour on the trigger set by iterative sample re-weighting.  The
full pipeline — grid search, trigger sampling, the ``Adjust``
heuristic, training the two ensembles ``T0`` (trigger classified
correctly) and ``T1`` (trigger misclassified, via label flipping), and
interleaving their trees according to the owner's signature — lives in
:class:`repro.api.Watermarker`; the ``watermark`` function here is the
legacy keyword-pile shim over it (bitwise-identical output).

Embedding is the repo's training hot path, and three engine-level levers
keep it fast without changing what Algorithm 1 computes:

- **incremental re-weighting rounds** — trees that already satisfy the
  trigger constraint are kept across rounds and only the stubborn ones
  refit (valid because the forest has no bootstrap and trees are
  independent given their feature subspaces);
- **parallel tree fitting** — ``n_jobs`` fans tree fits out over a
  process pool, bitwise-deterministically thanks to per-tree seed
  streams;
- **presorted split search** — every retraining round changes only the
  sample weights, never ``X``, so the per-feature sort orders behind
  split search (see :mod:`repro.trees.presort`) are computed once and
  reused by ``T0``, ``T1``, every escalation round, every
  ``refit_trees`` call and the ``Adjust`` probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_random_state
from ..ensemble.forest import RandomForestClassifier
from ..exceptions import ConvergenceError, ValidationError
from .adjustment import AdjustedHyperParameters
from .signature import Signature
from .trigger import TriggerSet

__all__ = [
    "EmbeddingReport",
    "WatermarkedModel",
    "train_with_trigger",
    "watermark",
    "train_standard_forest",
]


@dataclass
class EmbeddingReport:
    """Diagnostics of one watermark-embedding run.

    ``rounds_t0``/``rounds_t1`` count the re-weighting rounds needed to
    converge (0 means the first ensemble already fitted the triggers);
    ``trigger_weight_*`` is the final weight given to trigger samples.
    """

    rounds_t0: int
    rounds_t1: int
    trigger_weight_t0: float
    trigger_weight_t1: float
    adjusted: AdjustedHyperParameters | None
    base_params: dict


@dataclass
class WatermarkedModel:
    """The output pair ⟨T, D_trigger⟩ of Algorithm 1, plus provenance.

    ``ensemble`` is the watermarked forest; ``signature`` and
    ``trigger`` together form the owner's secret; ``report`` records how
    the embedding went.
    """

    ensemble: RandomForestClassifier
    signature: Signature
    trigger: TriggerSet
    report: EmbeddingReport

    def save(self, path, format: str | None = None, **kwargs) -> None:
        """Write this model via :func:`repro.persistence.save`.

        The format is ``format`` or inferred from the extension
        (``.rfbin`` binary, ``.json`` inspectable).  The artefact
        contains the owner's secret — store it accordingly.
        """
        from ..persistence import save as _save

        _save(self, path, format=format, **kwargs)

    @classmethod
    def load(
        cls, path, format: str | None = None, mmap_mode: str | None = None
    ) -> "WatermarkedModel":
        """Load a watermarked model saved with :meth:`save`.

        ``mmap_mode="r"`` maps a binary artefact zero-copy: the forest
        serves predictions straight from the file-backed node tables and
        only rebuilds its object trees when something inspects them.
        """
        from ..exceptions import SerializationError
        from ..persistence import load as _load

        model = _load(path, format=format, mmap_mode=mmap_mode)
        if not isinstance(model, cls):
            raise SerializationError(
                f"{path} holds a {type(model).__name__}, not a WatermarkedModel"
            )
        return model


def _misfit_mask(
    forest: RandomForestClassifier, trigger_X: np.ndarray, trigger_y: np.ndarray
) -> np.ndarray:
    """Boolean mask over trees: True where a tree misses any trigger label.

    Each re-weighting round queries a *freshly (re)trained* forest on
    the tiny trigger batch, so this deliberately rides the
    lazy-compilation threshold of ``predict_all``: the object-graph path
    answers k-row queries faster than flattening a forest whose trees
    are about to be replaced.
    """
    return (forest.predict_all(trigger_X) != trigger_y[None, :]).any(axis=1)


def train_with_trigger(
    X_train: np.ndarray,
    y_train: np.ndarray,
    trigger_indices: np.ndarray,
    n_estimators: int,
    params: dict,
    tree_feature_fraction: float = 0.7,
    weight_increment: float = 1.0,
    escalation_factor: float = 1.0,
    max_rounds: int = 60,
    incremental: bool = True,
    n_jobs: int | None = None,
    random_state=None,
) -> tuple[RandomForestClassifier, int, float]:
    """The paper's ``TrainWithTrigger``: re-weight until all trees comply.

    ``y_train`` must already carry the labels the trees are required to
    reproduce on the trigger rows (for ``T1`` the caller flips them
    beforehand, mirroring lines 16–17 of Algorithm 1).

    Parameters
    ----------
    trigger_indices:
        Row indices of the trigger instances within ``X_train``.
    weight_increment:
        Weight added to every trigger sample after a failed round
        (the paper uses ``+1``).
    escalation_factor:
        Multiplier applied to ``weight_increment`` after each failed
        round.  ``1.0`` (default) is the paper's additive schedule; a
        value like ``2.0`` converges in fewer retrainings on stubborn
        instances at the cost of larger final weights.
    max_rounds:
        Bound on retraining rounds; exceeded ⇒ :class:`ConvergenceError`
        (e.g. when the capped trees simply cannot isolate the triggers).
    incremental:
        When True (default), a failed round refits *only* the trees that
        still misfit the trigger set (via
        :meth:`~repro.ensemble.RandomForestClassifier.refit_trees`);
        compliant trees are kept as-is.  The forest has no bootstrap and
        its trees are independent given their feature subspaces, so a
        kept tree is exactly as valid as one retrained from scratch —
        each round costs ``O(#stubborn)`` tree fits instead of ``O(m)``.
        ``False`` restores the paper's literal full-retrain loop (used
        by the ablation benchmark).
    n_jobs:
        Parallel tree fitting within each round (see
        :class:`~repro.ensemble.RandomForestClassifier`).

    Returns
    -------
    (forest, rounds, final_trigger_weight)
    """
    if n_estimators < 1:
        raise ValidationError(f"n_estimators must be >= 1, got {n_estimators}")
    if weight_increment <= 0:
        raise ValidationError(f"weight_increment must be > 0, got {weight_increment}")
    if escalation_factor < 1.0:
        raise ValidationError(
            f"escalation_factor must be >= 1, got {escalation_factor}"
        )
    if max_rounds < 1:
        raise ValidationError(f"max_rounds must be >= 1, got {max_rounds}")
    rng = check_random_state(random_state)

    trigger_indices = np.asarray(trigger_indices, dtype=np.int64)
    trigger_X = X_train[trigger_indices]
    trigger_y = y_train[trigger_indices]

    weights = np.ones(X_train.shape[0], dtype=np.float64)
    increment = float(weight_increment)
    rounds = 0
    forest = RandomForestClassifier(
        n_estimators=n_estimators,
        tree_feature_fraction=tree_feature_fraction,
        random_state=int(rng.integers(2**31 - 1)),
        n_jobs=n_jobs,
        **params,
    )
    forest.fit(X_train, y_train, sample_weight=weights)
    while True:
        misfit = _misfit_mask(forest, trigger_X, trigger_y)
        if not misfit.any():
            return forest, rounds, float(weights[trigger_indices].max())
        rounds += 1
        if rounds >= max_rounds:
            raise ConvergenceError(
                f"TrainWithTrigger did not converge after {rounds} rounds: "
                f"{int(misfit.sum())}/{n_estimators} trees still misfit the "
                f"trigger set (trigger weight reached "
                f"{weights[trigger_indices].max():.1f}). Consider loosening "
                f"max_depth/max_leaf_nodes or raising escalation_factor.",
                rounds=rounds,
            )
        weights[trigger_indices] += increment
        increment *= escalation_factor
        if incremental:
            forest.refit_trees(
                np.flatnonzero(misfit), X_train, y_train, sample_weight=weights
            )
        else:
            forest = RandomForestClassifier(
                n_estimators=n_estimators,
                tree_feature_fraction=tree_feature_fraction,
                random_state=int(rng.integers(2**31 - 1)),
                n_jobs=n_jobs,
                **params,
            )
            forest.fit(X_train, y_train, sample_weight=weights)


def train_standard_forest(
    X_train,
    y_train,
    n_estimators: int,
    params: dict,
    tree_feature_fraction: float = 0.7,
    n_jobs: int | None = None,
    random_state=None,
) -> RandomForestClassifier:
    """Train the non-watermarked baseline forest used throughout §4."""
    forest = RandomForestClassifier(
        n_estimators=n_estimators,
        tree_feature_fraction=tree_feature_fraction,
        random_state=random_state,
        n_jobs=n_jobs,
        **params,
    )
    return forest.fit(X_train, y_train)


def watermark(
    X_train,
    y_train,
    signature: Signature,
    trigger_size: int,
    base_params: dict | None = None,
    param_grid: dict | None = None,
    adjust: bool = True,
    tree_feature_fraction: float = 0.7,
    weight_increment: float = 1.0,
    escalation_factor: float = 1.0,
    max_rounds: int = 60,
    incremental: bool = True,
    n_jobs: int | None = None,
    random_state=None,
) -> WatermarkedModel:
    """The paper's ``Watermark(D_train, m, σ, k)`` (Algorithm 1).

    Parameters
    ----------
    X_train, y_train:
        Training set with binary ±1 labels.
    signature:
        The owner's ``m``-bit signature; ``m`` is also the ensemble size.
    trigger_size:
        ``k``, the number of trigger instances (``k ≪ |D_train|``).
    base_params:
        Hyper-parameters ``H``.  ``None`` runs
        :func:`~repro.model_selection.grid_search_forest` first, exactly
        as line 12 of the algorithm does; passing a dict skips the
        search (useful when sweeping other variables).
    param_grid:
        Optional custom grid for the grid search.
    adjust:
        Apply the ``Adjust`` anti-detection heuristic (on by default;
        the ablation benchmark switches it off).
    weight_increment, escalation_factor, max_rounds, incremental:
        Re-weighting schedule and retraining strategy, see
        :func:`train_with_trigger`.
    n_jobs:
        Parallel tree fitting for the grid search and both trainings
        (see :class:`~repro.ensemble.RandomForestClassifier`).
    random_state:
        Seed/generator; drives grid search, trigger sampling, adjustment
        and both trainings.

    Returns
    -------
    WatermarkedModel
        The watermarked ensemble together with the secret
        ``(signature, trigger set)`` and embedding diagnostics.

    Notes
    -----
    This function is a thin compatibility shim: it bundles its keyword
    pile into the composable pipeline configs and delegates to
    :class:`repro.api.Watermarker`, which owns the one implementation
    of Algorithm 1's orchestration.  Both entry points produce
    bitwise-identical models for equal inputs (regression-tested).
    New code should construct a ``Watermarker`` directly.
    """
    # Imported lazily: repro.api.pipeline imports from this module.
    from ..api.pipeline import (
        EmbeddingSchedule,
        TrainerConfig,
        TriggerPolicy,
        Watermarker,
    )

    return Watermarker(
        signature=signature,
        trigger=TriggerPolicy(size=trigger_size),
        schedule=EmbeddingSchedule(
            weight_increment=weight_increment,
            escalation_factor=escalation_factor,
            max_rounds=max_rounds,
            incremental=incremental,
        ),
        trainer=TrainerConfig(
            base_params=base_params,
            param_grid=param_grid,
            adjust=adjust,
            tree_feature_fraction=tree_feature_fraction,
            n_jobs=n_jobs,
        ),
        random_state=random_state,
    ).fit(X_train, y_train)
