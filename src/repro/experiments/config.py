"""Shared configuration for the reproduction experiments.

The paper's experiments run on the full datasets of Table 1; this
harness exposes the same experiments at configurable scale so the whole
evaluation regenerates on a laptop in minutes.  ``SMALL`` is what the
benchmark suite runs by default; ``MEDIUM`` gives tighter numbers;
``FULL`` matches the paper's dataset sizes (slow in pure Python).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from ..api.pipeline import EmbeddingSchedule, TrainerConfig, TriggerPolicy, Watermarker
from ..core.signature import Signature
from ..datasets.registry import load_dataset
from ..exceptions import ValidationError
from ..model_selection.splits import train_test_split

__all__ = ["ExperimentConfig", "SMALL", "MEDIUM", "FULL", "prepare_split"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment drivers.

    ``base_params`` short-circuits grid search with fixed
    hyper-parameters (the search itself is exercised separately); set it
    to ``None`` to run the full Algorithm 1 including line 12.
    ``escalation_factor > 1`` accelerates the re-weighting loop without
    changing what it converges to.  ``n_jobs`` fans work out over
    worker processes (``-1`` = all cores) wherever a driver trains a
    watermarked or standard forest (attacker-side surrogates in the
    extraction study stay serial) and wherever the forgery drivers
    sweep solver instances (:func:`repro.attacks.forge_trigger_set`);
    results do not depend on it.
    """

    name: str
    dataset_sizes: dict[str, int] = field(
        default_factory=lambda: {"mnist26": 500, "breast-cancer": 300, "ijcnn1": 800}
    )
    n_estimators: int = 16
    test_size: float = 0.3
    trigger_fraction: float = 0.02
    ones_fraction: float = 0.5
    tree_feature_fraction: float = 0.5
    base_params: dict | None = field(
        default_factory=lambda: {"max_depth": 10, "min_samples_leaf": 1}
    )
    weight_increment: float = 1.0
    escalation_factor: float = 2.0
    max_rounds: int = 25
    n_jobs: int | None = None
    seed: int = 20250612

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """A copy with selected fields replaced.

        Unknown field names raise a :class:`ValidationError` naming the
        offending key(s) and listing the valid fields, instead of
        leaking :func:`dataclasses.replace`'s raw :class:`TypeError`.
        """
        valid = {spec.name for spec in fields(self)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ValidationError(
                f"unknown ExperimentConfig field(s) {', '.join(map(repr, unknown))}; "
                f"valid fields: {', '.join(sorted(valid))}"
            )
        return replace(self, **overrides)

    def watermarker(
        self, signature: Signature, trigger_fraction: float, random_state, adjust: bool = True
    ) -> Watermarker:
        """The owner pipeline these knobs describe, embedding ``signature``
        with a trigger set of ``trigger_fraction`` of the training rows."""
        return Watermarker(
            signature=signature,
            trigger=TriggerPolicy(fraction=trigger_fraction),
            schedule=EmbeddingSchedule(
                self.weight_increment, self.escalation_factor, self.max_rounds
            ),
            trainer=TrainerConfig(
                base_params=self.base_params,
                adjust=adjust,
                tree_feature_fraction=self.tree_feature_fraction,
                n_jobs=self.n_jobs,
            ),
            random_state=random_state,
        )


SMALL = ExperimentConfig(
    name="small",
    dataset_sizes={"mnist26": 400, "breast-cancer": 300, "ijcnn1": 700},
    n_estimators=16,
)

MEDIUM = ExperimentConfig(
    name="medium",
    dataset_sizes={"mnist26": 2000, "breast-cancer": 569, "ijcnn1": 3000},
    n_estimators=40,
)

FULL = ExperimentConfig(
    name="full",
    dataset_sizes={"mnist26": 13866, "breast-cancer": 569, "ijcnn1": 10000},
    n_estimators=100,
    base_params=None,  # run the real grid search, as in the paper
)


def prepare_split(config: ExperimentConfig, dataset_name: str, seed_offset: int = 0):
    """Generate a dataset at the configured size and split it.

    Returns ``(X_train, X_test, y_train, y_test)``.
    """
    dataset = load_dataset(
        dataset_name,
        n_samples=config.dataset_sizes[dataset_name],
        random_state=config.seed + seed_offset,
    )
    return train_test_split(
        dataset.X,
        dataset.y,
        test_size=config.test_size,
        random_state=config.seed + seed_offset + 1,
    )
