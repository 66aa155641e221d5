"""Accuracy experiments: Fig. 3a and Fig. 3b of the paper.

Fig. 3a sweeps the trigger-set size (fraction of the training set) with
a fixed 50%-ones signature; Fig. 3b sweeps the fraction of 1-bits with
a fixed 2% trigger set.  Both compare the watermarked forest's test
accuracy against a standard forest trained on the same data.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.embedding import train_standard_forest
from ..core.signature import random_signature
from ..datasets.registry import DATASET_NAMES
from ..model_selection.metrics import accuracy
from .config import ExperimentConfig, prepare_split

__all__ = [
    "AccuracyRow",
    "accuracy_vs_trigger_fraction",
    "accuracy_vs_ones_fraction",
]


@dataclass(frozen=True)
class AccuracyRow:
    """One point of an accuracy figure."""

    dataset: str
    x_value: float  # trigger fraction (3a) or %ones (3b)
    watermarked_accuracy: float
    standard_accuracy: float

    @property
    def accuracy_loss(self) -> float:
        """Standard minus watermarked accuracy (positive = cost)."""
        return self.standard_accuracy - self.watermarked_accuracy


def _one_point(
    config: ExperimentConfig,
    dataset: str,
    trigger_fraction: float,
    ones_fraction: float,
    seed_offset: int,
) -> AccuracyRow:
    """Train a watermarked + standard forest pair and score both."""
    X_train, X_test, y_train, y_test = prepare_split(config, dataset, seed_offset)
    seed = config.seed + seed_offset + 17

    signature = random_signature(
        config.n_estimators, ones_fraction=ones_fraction, random_state=seed
    )
    model = config.watermarker(signature, trigger_fraction, random_state=seed).fit(
        X_train, y_train
    )
    standard = train_standard_forest(
        X_train,
        y_train,
        n_estimators=config.n_estimators,
        params=config.base_params or model.report.base_params,
        tree_feature_fraction=config.tree_feature_fraction,
        n_jobs=config.n_jobs,
        random_state=seed + 1,
    )
    return AccuracyRow(
        dataset=dataset,
        x_value=trigger_fraction,
        watermarked_accuracy=accuracy(y_test, model.ensemble.predict(X_test)),
        standard_accuracy=accuracy(y_test, standard.predict(X_test)),
    )


def accuracy_vs_trigger_fraction(
    config: ExperimentConfig,
    fractions=(0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04),
    datasets=DATASET_NAMES,
) -> list[AccuracyRow]:
    """Fig. 3a: accuracy as the trigger set grows (signature 50% ones)."""
    rows = []
    for dataset in datasets:
        for index, fraction in enumerate(fractions):
            rows.append(
                _one_point(
                    config,
                    dataset,
                    trigger_fraction=fraction,
                    ones_fraction=config.ones_fraction,
                    seed_offset=100 * index,
                )
            )
    return rows


def accuracy_vs_ones_fraction(
    config: ExperimentConfig,
    percents=(10, 20, 30, 40, 50, 60),
    datasets=DATASET_NAMES,
) -> list[AccuracyRow]:
    """Fig. 3b: accuracy as the share of 1-bits grows (2% trigger set)."""
    rows = []
    for dataset in datasets:
        for index, percent in enumerate(percents):
            row = _one_point(
                config,
                dataset,
                trigger_fraction=config.trigger_fraction,
                ones_fraction=percent / 100.0,
                seed_offset=1000 + 100 * index,
            )
            rows.append(
                AccuracyRow(
                    dataset=row.dataset,
                    x_value=float(percent),
                    watermarked_accuracy=row.watermarked_accuracy,
                    standard_accuracy=row.standard_accuracy,
                )
            )
    return rows
