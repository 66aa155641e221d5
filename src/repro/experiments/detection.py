"""Detection experiment: Table 2 of the paper.

A watermarked model is built per dataset (50% ones, 2% trigger) and the
two structural detection strategies attack it; the table reports
``#correct / #wrong / #uncertain`` per (dataset, statistic) with the
statistic's mean and standard deviation in brackets.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.embedding import WatermarkedModel
from ..core.signature import random_signature
from ..datasets.registry import DATASET_NAMES
from .config import ExperimentConfig, prepare_split

__all__ = ["DetectionRow", "build_watermarked_model", "detection_table"]


@dataclass(frozen=True)
class DetectionRow:
    """One (dataset, statistic, strategy) cell group of Table 2."""

    dataset: str
    statistic: str
    strategy: str
    mean: float
    std: float
    n_correct: int
    n_wrong: int
    n_uncertain: int


def build_watermarked_model(
    config: ExperimentConfig, dataset: str, seed_offset: int = 0, adjust: bool = True
) -> tuple[WatermarkedModel, tuple]:
    """Watermark one model with the Table 2 setting (50% ones, 2% trigger).

    Returns the model and the ``(X_train, X_test, y_train, y_test)``
    split used, so callers can also evaluate accuracy or run other
    attacks on the very same artefact.
    """
    split = prepare_split(config, dataset, seed_offset)
    X_train, _X_test, y_train, _y_test = split
    signature = random_signature(
        config.n_estimators,
        ones_fraction=config.ones_fraction,
        random_state=config.seed + seed_offset + 3,
    )
    model = config.watermarker(
        signature,
        config.trigger_fraction,
        random_state=config.seed + seed_offset + 4,
        adjust=adjust,
    ).fit(X_train, y_train)
    return model, split


def detection_table(
    config: ExperimentConfig, datasets=DATASET_NAMES, adjust: bool = True
) -> list[DetectionRow]:
    """Regenerate Table 2 (optionally without the Adjust heuristic, for
    the ablation benchmark).

    A projection of the generic scenario matrix: the ``"detection"``
    registry attack runs every (statistic, strategy) combination and
    reports them under ``details["attempts"]``; this table flattens
    those attempts into the paper's row shape.
    """
    from .scenarios import run_scenario_matrix

    cells = run_scenario_matrix(
        config, attacks=("detection",), datasets=datasets, adjust=adjust
    )
    return [
        DetectionRow(
            dataset=cell.dataset,
            statistic=attempt["statistic"],
            strategy=attempt["strategy"],
            mean=attempt["mean"],
            std=attempt["std"],
            n_correct=attempt["n_correct"],
            n_wrong=attempt["n_wrong"],
            n_uncertain=attempt["n_uncertain"],
        )
        for cell in cells
        for attempt in cell.report.details["attempts"]
    ]
