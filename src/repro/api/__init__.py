"""repro.api — the coherent public surface of the library.

Three layers, one import::

    from repro import api

1. **Pipeline** (:mod:`repro.api.pipeline`) — compose a watermarking
   run from small frozen configs and fit it sklearn-style::

       model = api.Watermarker(
           signature=sigma,
           trigger=api.TriggerPolicy(fraction=0.02),
           schedule=api.EmbeddingSchedule(escalation_factor=2.0),
           trainer=api.TrainerConfig(base_params={"max_depth": 8}),
           random_state=7,
       ).fit(X_train, y_train)

2. **Attacks** (:mod:`repro.api.attacks`) — every attack behind one
   protocol (``name`` + ``run(target, rng) -> AttackReport``) and a
   registry::

       target = api.AttackTarget.from_split(model, split)
       report = api.make_attack("flip", probability=0.1).run(target, rng)
       report.to_dict()      # uniform JSON for every attack

3. **Scenarios** (:mod:`repro.experiments.scenarios`) — sweep attacks
   × strengths × datasets through one runner::

       cells = api.run_scenario_matrix(config, attacks=("truncate", "flip"),
                                       strengths={"flip": (0.05, 0.3)})

``Watermarker`` is the one way to embed a watermark; the per-module
attack functions remain the underlying implementations that the
protocol classes here wrap.
"""

from .attacks import (
    Attack,
    AttackReport,
    AttackTarget,
    ChainedAttack,
    DetectionAttack,
    ExtractionAttack,
    ForgeryAttack,
    LeafFlipAttack,
    ModelEditAttack,
    PruneAttack,
    SuppressionAttack,
    TruncateAttack,
    attack_params,
    available_attacks,
    make_attack,
    register_attack,
)
from .pipeline import EmbeddingSchedule, TrainerConfig, TriggerPolicy, Watermarker

__all__ = [
    "Attack",
    "AttackReport",
    "AttackTarget",
    "ChainedAttack",
    "DetectionAttack",
    "EmbeddingSchedule",
    "ExtractionAttack",
    "ForgeryAttack",
    "LeafFlipAttack",
    "ModelEditAttack",
    "PruneAttack",
    "ScenarioCell",
    "SuppressionAttack",
    "TrainerConfig",
    "TriggerPolicy",
    "TruncateAttack",
    "Watermarker",
    "attack_params",
    "available_attacks",
    "build_attack_target",
    "make_attack",
    "register_attack",
    "run_scenario_matrix",
]

#: Scenario-layer names re-exported lazily: ``experiments.scenarios``
#: imports this package for the attack registry, so a module-level
#: import here would be circular.
_SCENARIO_EXPORTS = ("ScenarioCell", "build_attack_target", "run_scenario_matrix")


def __getattr__(name: str):
    if name in _SCENARIO_EXPORTS:
        from ..experiments import scenarios

        return getattr(scenarios, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
