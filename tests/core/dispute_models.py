"""The perfbench dispute owner recipe, and two models built with it.

Shared by the golden pins and the prescreen's differential tests: both
need the same watermarked forests, on tall narrow data (ijcnn1) and on
short wide data (mnist26 at 14x14), and build each once per session.
"""

from __future__ import annotations

import functools

from repro.api import EmbeddingSchedule, TrainerConfig, TriggerPolicy, Watermarker
from repro.core.signature import random_signature
from repro.datasets import ijcnn1_like, mnist26_like
from repro.model_selection import train_test_split


def dispute_model(dataset, seed: int, n_jobs=None):
    """The perfbench dispute owner recipe with a 16-bit signature:
    ``(model, X_test, y_test)``."""
    X_train, X_test, y_train, y_test = train_test_split(
        dataset.X, dataset.y, test_size=0.3, random_state=seed + 1
    )
    owner = Watermarker(
        signature=random_signature(16, 0.5, random_state=seed + 2),
        trigger=TriggerPolicy(fraction=0.02),
        schedule=EmbeddingSchedule(escalation_factor=2.0),
        trainer=TrainerConfig(
            base_params={"max_depth": 10, "min_samples_leaf": 1},
            adjust=True,
            tree_feature_fraction=0.35,
            n_jobs=n_jobs,
        ),
        random_state=seed + 3,
    )
    return owner.fit(X_train, y_train), X_test, y_test


@functools.lru_cache(maxsize=None)
def ijcnn1_dispute():
    return dispute_model(ijcnn1_like(700, random_state=101), 110)


@functools.lru_cache(maxsize=None)
def mnist26_dispute():
    return dispute_model(mnist26_like(300, random_state=201, image_size=14), 210)
