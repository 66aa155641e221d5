"""Watermark creation — Algorithm 1 of the paper.

``train_with_trigger`` forces a set of trees to exhibit prescribed
behaviour on the trigger set by iterative sample re-weighting, driven
by one :class:`EmbeddingSchedule`.  The full pipeline — grid search,
trigger sampling, the ``Adjust`` heuristic, training the two ensembles
``T0`` (trigger classified correctly) and ``T1`` (trigger
misclassified, via label flipping), and interleaving their trees
according to the owner's signature — lives in
:class:`repro.api.Watermarker`, the one way to embed a watermark.

Embedding is the repo's training hot path, and four engine-level levers
keep it fast without changing what Algorithm 1 computes:

- **incremental re-weighting rounds** — trees that already satisfy the
  trigger constraint are kept across rounds and only the stubborn ones
  refit (valid because the forest has no bootstrap and trees are
  independent given their feature subspaces; the paper's literal loop,
  which refits every tree each round, survives only as a test oracle);
- **parallel tree fitting** — ``n_jobs`` fans tree fits out over a
  process pool, bitwise-deterministically thanks to per-tree seed
  streams;
- **presorted split search** — every retraining round changes only the
  sample weights, never ``X``, so the per-feature sort orders behind
  split search (see :mod:`repro.trees.presort`) are computed once and
  reused by ``T0``, ``T1``, every escalation round, every
  ``refit_trees`` call and the ``Adjust`` probe;
- **compliance read from growth** — tree growth already places every
  trigger row (weight >= 1) in the leaf prediction would send it to,
  and each tree keeps that answer, so a round checks its trees without
  compiling the forest, and a kept tree's answer is still its own.  An
  embed compiles nothing; the forest compiles on its first prediction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .._validation import check_count, check_random_state, check_X_y
from ..ensemble.forest import RandomForestClassifier
from ..exceptions import ConvergenceError, ValidationError
from .adjustment import AdjustedHyperParameters
from .signature import Signature
from .trigger import TriggerSet

__all__ = [
    "EmbeddingReport",
    "EmbeddingSchedule",
    "WatermarkedModel",
    "train_with_trigger",
    "train_standard_forest",
]


def _finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class EmbeddingSchedule:
    """The ``TrainWithTrigger`` re-weighting schedule.

    ``weight_increment`` is added to every trigger sample's weight after
    a failed round (the paper uses ``+1``) and is itself multiplied by
    ``escalation_factor`` after each failed round: ``1.0`` (default) is
    the paper's additive schedule, while ``2.0`` converges in fewer
    rounds on stubborn instances at the cost of larger final weights.
    ``max_rounds`` bounds the loop; exceeding it raises
    :class:`~repro.exceptions.ConvergenceError`.
    """

    weight_increment: float = 1.0
    escalation_factor: float = 1.0
    max_rounds: int = 60

    def __post_init__(self) -> None:
        if not (_finite(self.weight_increment) and self.weight_increment > 0):
            raise ValidationError(
                f"weight_increment must be finite and > 0, got {self.weight_increment!r}"
            )
        if not (_finite(self.escalation_factor) and self.escalation_factor >= 1.0):
            raise ValidationError(
                f"escalation_factor must be finite and >= 1, got {self.escalation_factor!r}"
            )
        check_count(self.max_rounds, "max_rounds")


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

    def save(self, path, format: str | None = None) -> None:
        """Write this model via :func:`repro.persistence.save`.

        The format is ``format`` or inferred from the extension
        (``.rfbin`` binary, ``.json`` inspectable).  The artefact
        contains the owner's secret — store it accordingly.
        """
        from ..persistence import save as _save

        _save(self, path, format=format)

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


def _check_trigger_indices(trigger_indices, n_rows: int) -> np.ndarray:
    """Trigger rows as int64, rejecting anything but distinct in-range ints."""
    indices = np.asarray(trigger_indices)
    if indices.ndim != 1 or indices.size == 0:
        raise ValidationError(f"trigger_indices must be non-empty and 1-D, got {indices.shape}")
    if not np.issubdtype(indices.dtype, np.integer):
        raise ValidationError(f"trigger_indices must be integers, got {indices.dtype}")
    if indices.min() < 0 or indices.max() >= n_rows:
        raise ValidationError(f"trigger_indices must lie in [0, {n_rows})")
    if np.unique(indices).size != indices.size:
        raise ValidationError("trigger_indices must not repeat a row")
    return indices.astype(np.int64)


def train_with_trigger(
    X_train: np.ndarray,
    y_train: np.ndarray,
    trigger_indices: np.ndarray,
    n_estimators: int,
    params: dict,
    schedule: EmbeddingSchedule = EmbeddingSchedule(),
    tree_feature_fraction: float = 0.7,
    n_jobs: int | None = None,
    random_state=None,
) -> tuple[RandomForestClassifier, int, float]:
    """The paper's ``TrainWithTrigger``: re-weight until all trees comply.

    ``y_train`` must already carry the labels the trees are required to
    reproduce on the trigger rows (for ``T1`` the caller flips them
    beforehand, mirroring lines 16–17 of Algorithm 1).

    A failed round refits *only* the trees that still misfit the
    trigger set (via
    :meth:`~repro.ensemble.RandomForestClassifier.refit_trees`);
    compliant trees are kept as-is.  The forest has no bootstrap and its
    trees are independent given their feature subspaces, so a kept tree
    is exactly as valid as one retrained from scratch — each round costs
    ``O(#stubborn)`` tree fits instead of ``O(m)``.  Each round reads
    the trees' labels on the trigger rows from their growth, not from
    a compiled forest.

    Parameters
    ----------
    trigger_indices:
        Distinct row indices of the trigger instances within ``X_train``.
    schedule:
        The re-weighting schedule (see :class:`EmbeddingSchedule`).
    n_jobs:
        Parallel tree fitting within each round (see
        :class:`~repro.ensemble.RandomForestClassifier`).

    Returns
    -------
    (forest, rounds, final_trigger_weight)
    """
    check_count(n_estimators, "n_estimators")
    # Validated once: every round then fits on this one array, so the
    # presort cache hits from the second fit on.
    X_train, y_train = check_X_y(X_train, y_train)
    trigger_indices = _check_trigger_indices(trigger_indices, X_train.shape[0])
    rng = check_random_state(random_state)

    trigger_y = y_train[trigger_indices]

    weights = np.ones(X_train.shape[0], dtype=np.float64)
    increment = float(schedule.weight_increment)
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
        # Every trigger row has weight >= 1, so growth placed it in a
        # leaf of every tree; a kept tree's answer is still its own.
        misfit = (forest._grown_predict_all(trigger_indices) != trigger_y).any(axis=1)
        if not misfit.any():
            return forest, rounds, float(weights[trigger_indices].max())
        rounds += 1
        if rounds >= schedule.max_rounds:
            raise ConvergenceError(
                f"TrainWithTrigger did not converge after {rounds} rounds: "
                f"{int(misfit.sum())}/{n_estimators} trees still misfit the "
                f"trigger set (trigger weight reached "
                f"{weights[trigger_indices].max():.1f}). Consider loosening "
                f"max_depth/max_leaf_nodes or raising escalation_factor.",
                rounds=rounds,
            )
        weights[trigger_indices] += increment
        increment *= schedule.escalation_factor
        forest.refit_trees(
            np.flatnonzero(misfit), X_train, y_train, sample_weight=weights
        )


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

