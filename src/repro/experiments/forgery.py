"""Forgery experiments: Fig. 4, Fig. 5 and the §4.2.2 text results.

The attacker generates random fake signatures and, for each, tries to
forge a trigger set by solving one satisfiability instance per test
point under an ``L∞`` distortion budget ``ε``.  Reported quantities:

- Fig. 4: forged-trigger-set size vs ``ε`` on the image dataset,
  compared to the original trigger-set size;
- §4.2.2: forged/original size ratios on the tabular datasets at small
  ``ε`` (where forgery should essentially fail);
- Fig. 5: distortion of the forged instances and the accuracy drop a
  standard ensemble suffers on them (the paper's 0.99 → 0.62).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attacks.forgery import forge_trigger_set, forgery_distortion
from ..core.embedding import train_standard_forest
from ..core.signature import random_signature
from ..model_selection.metrics import accuracy
from .config import ExperimentConfig
from .detection import build_watermarked_model

__all__ = [
    "ForgerySweepRow",
    "ForgedInstanceRow",
    "forgery_epsilon_sweep",
    "forgery_tabular_results",
    "forged_instance_study",
]


@dataclass(frozen=True)
class ForgerySweepRow:
    """One ε point of Fig. 4 (averaged over fake signatures).

    ``mean_seconds`` averages ``ForgeryAttackResult.elapsed_seconds``,
    which includes compiling only the encodings the forest does not
    hold yet: with up to four fake signatures the first ε point of a
    sweep carries all the compile time.
    """

    dataset: str
    epsilon: float
    original_trigger_size: int
    mean_forged_size: float
    max_forged_size: int
    n_signatures: int
    mean_seconds: float


@dataclass(frozen=True)
class ForgedInstanceRow:
    """One ε point of the Fig. 5 study."""

    dataset: str
    epsilon: float
    n_forged: int
    mean_linf: float
    mean_l2: float
    standard_accuracy_on_original: float
    standard_accuracy_on_forged: float


def _resolve_jobs(config: ExperimentConfig, n_jobs) -> int | None:
    """Driver ``n_jobs`` override, falling back to the config's value."""
    return config.n_jobs if n_jobs is None else n_jobs


def _sweep_one_dataset(
    config: ExperimentConfig,
    dataset: str,
    epsilons,
    n_signatures: int,
    max_instances: int | None,
    solver_budget: int,
    n_jobs: int | None,
) -> list[ForgerySweepRow]:
    model, (X_train, X_test, y_train, y_test) = build_watermarked_model(config, dataset)
    original_k = model.trigger.size
    rows: list[ForgerySweepRow] = []
    rng = np.random.default_rng(config.seed + 99)
    # The same fake signatures (and attempt orders) are reused across
    # the whole ε sweep, so the series is monotone in ε by construction
    # rather than confounded by signature luck.
    fakes = [
        random_signature(
            config.n_estimators,
            ones_fraction=0.5,
            random_state=int(rng.integers(2**31 - 1)),
        )
        for _ in range(n_signatures)
    ]
    attempt_seeds = [int(rng.integers(2**31 - 1)) for _ in range(n_signatures)]
    for epsilon in epsilons:
        sizes = []
        seconds = []
        for fake, attempt_seed in zip(fakes, attempt_seeds):
            result = forge_trigger_set(
                model.ensemble,
                fake,
                X_test,
                y_test,
                epsilon=epsilon,
                target_size=original_k,
                max_instances=max_instances,
                solver_budget=solver_budget,
                n_jobs=n_jobs,
                random_state=attempt_seed,
            )
            sizes.append(result.n_forged)
            seconds.append(result.elapsed_seconds)
        rows.append(
            ForgerySweepRow(
                dataset=dataset,
                epsilon=float(epsilon),
                original_trigger_size=original_k,
                mean_forged_size=float(np.mean(sizes)),
                max_forged_size=int(np.max(sizes)),
                n_signatures=n_signatures,
                mean_seconds=float(np.mean(seconds)),
            )
        )
    return rows


def forgery_epsilon_sweep(
    config: ExperimentConfig,
    dataset: str = "mnist26",
    epsilons=(0.1, 0.3, 0.5, 0.7, 0.9),
    n_signatures: int = 3,
    max_instances: int | None = 40,
    solver_budget: int = 50_000,
    n_jobs: int | None = None,
) -> list[ForgerySweepRow]:
    """Fig. 4: forged trigger-set size vs ε (image dataset).

    The paper uses 10 fake signatures and the full test set; the
    defaults here are scaled down for laptop runtimes — override
    ``n_signatures``/``max_instances`` to widen.  ``n_jobs`` fans the
    per-instance solver sweep over worker processes (``None`` defers to
    ``config.n_jobs``); results are identical across settings.
    """
    return _sweep_one_dataset(
        config, dataset, epsilons, n_signatures, max_instances,
        solver_budget, _resolve_jobs(config, n_jobs),
    )


def forgery_tabular_results(
    config: ExperimentConfig,
    datasets=("breast-cancer", "ijcnn1"),
    epsilons=(0.1, 0.3),
    n_signatures: int = 3,
    max_instances: int | None = 40,
    solver_budget: int = 50_000,
    n_jobs: int | None = None,
) -> list[ForgerySweepRow]:
    """§4.2.2 text results: forgery on the tabular datasets at small ε."""
    rows: list[ForgerySweepRow] = []
    for dataset in datasets:
        rows.extend(
            _sweep_one_dataset(
                config, dataset, epsilons, n_signatures, max_instances,
                solver_budget, _resolve_jobs(config, n_jobs),
            )
        )
    return rows


def forged_instance_study(
    config: ExperimentConfig,
    dataset: str = "mnist26",
    epsilons=(0.3, 0.5, 0.7),
    max_instances: int | None = 25,
    solver_budget: int = 50_000,
    n_jobs: int | None = None,
) -> list[ForgedInstanceRow]:
    """Fig. 5: distortion of forged instances and the accuracy a standard
    ensemble loses on them relative to the originals."""
    model, (X_train, X_test, y_train, y_test) = build_watermarked_model(config, dataset)
    standard = train_standard_forest(
        X_train,
        y_train,
        n_estimators=config.n_estimators,
        params=config.base_params or model.report.base_params,
        tree_feature_fraction=config.tree_feature_fraction,
        n_jobs=config.n_jobs,
        random_state=config.seed + 5,
    )
    rng = np.random.default_rng(config.seed + 77)
    rows: list[ForgedInstanceRow] = []
    for epsilon in epsilons:
        fake = random_signature(
            config.n_estimators, ones_fraction=0.5, random_state=int(rng.integers(2**31 - 1))
        )
        result = forge_trigger_set(
            model.ensemble,
            fake,
            X_test,
            y_test,
            epsilon=epsilon,
            max_instances=max_instances,
            solver_budget=solver_budget,
            n_jobs=_resolve_jobs(config, n_jobs),
            random_state=int(rng.integers(2**31 - 1)),
        )
        distortion = forgery_distortion(result, X_test)
        if result.n_forged > 0:
            originals = X_test[result.source_index]
            labels = y_test[result.source_index]
            acc_original = accuracy(labels, standard.predict(originals))
            acc_forged = accuracy(labels, standard.predict(result.forged_X))
        else:
            acc_original = acc_forged = float("nan")
        rows.append(
            ForgedInstanceRow(
                dataset=dataset,
                epsilon=float(epsilon),
                n_forged=result.n_forged,
                mean_linf=distortion["mean_linf"],
                mean_l2=distortion["mean_l2"],
                standard_accuracy_on_original=acc_original,
                standard_accuracy_on_forged=acc_forged,
            )
        )
    return rows
