"""The paper's literal ``TrainWithTrigger`` loop — a reference, for tests.

Algorithm 1 retrains the whole forest from scratch after every failed
re-weighting round.  The library's loop
(:func:`repro.core.embedding.train_with_trigger`) keeps the trees that
already fit the trigger set and refits only the stubborn ones, which is
valid because the forest has no bootstrap and its trees are
independent given their feature subspaces.  This module keeps the
literal loop so the embedding tests, a golden hash and the embedding
benchmark can compare the library against it.

- :func:`train_with_trigger_full` takes the arguments of
  ``train_with_trigger`` and returns the same ``(forest, rounds,
  final_trigger_weight)``;
- :func:`literal_loop` makes :meth:`repro.api.Watermarker.fit` use it
  for the duration of a ``with`` block;
- :func:`misfit_mask` is its trigger-compliance check, by compiled
  prediction.  The library reads compliance from growth instead, and
  the embedding tests hold the two equal.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro._validation import check_random_state
from repro.api import pipeline
from repro.core.embedding import EmbeddingSchedule
from repro.ensemble import RandomForestClassifier
from repro.exceptions import ConvergenceError

__all__ = ["train_with_trigger_full", "literal_loop", "misfit_mask"]


def misfit_mask(forest, trigger_X: np.ndarray, trigger_y: np.ndarray) -> np.ndarray:
    """Boolean mask over trees: True where a tree misses any trigger label,
    answered by the compiled forest's ``predict_all``."""
    return (forest.predict_all(trigger_X) != trigger_y[None, :]).any(axis=1)


def train_with_trigger_full(
    X_train,
    y_train,
    trigger_indices,
    n_estimators: int,
    params: dict,
    schedule: EmbeddingSchedule = EmbeddingSchedule(),
    tree_feature_fraction: float = 0.7,
    n_jobs: int | None = None,
    random_state=None,
):
    """Refit all ``n_estimators`` trees each round until every tree fits
    the trigger labels carried by ``y_train``."""
    rng = check_random_state(random_state)
    trigger_indices = np.asarray(trigger_indices, dtype=np.int64)
    trigger_X = X_train[trigger_indices]
    trigger_y = y_train[trigger_indices]
    weights = np.ones(X_train.shape[0], dtype=np.float64)
    increment = float(schedule.weight_increment)
    rounds = 0
    while True:
        forest = RandomForestClassifier(
            n_estimators=n_estimators,
            tree_feature_fraction=tree_feature_fraction,
            random_state=int(rng.integers(2**31 - 1)),
            n_jobs=n_jobs,
            **params,
        ).fit(X_train, y_train, sample_weight=weights)
        misfit = misfit_mask(forest, trigger_X, trigger_y)
        if not misfit.any():
            return forest, rounds, float(weights[trigger_indices].max())
        rounds += 1
        if rounds >= schedule.max_rounds:
            raise ConvergenceError(
                f"full retrain did not converge after {rounds} rounds", rounds=rounds
            )
        weights[trigger_indices] += increment
        increment *= schedule.escalation_factor


@contextlib.contextmanager
def literal_loop():
    """Run :meth:`repro.api.Watermarker.fit` with the literal loop."""
    library_loop = pipeline.train_with_trigger
    pipeline.train_with_trigger = train_with_trigger_full
    try:
        yield
    finally:
        pipeline.train_with_trigger = library_loop
