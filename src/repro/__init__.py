"""repro — reproduction of *Watermarking Decision Tree Ensembles*
(Calzavara, Cazzaro, Gera, Orlando; EDBT 2025, arXiv:2410.04570).

The library implements the paper's watermarking scheme for random
forests (creation, black-box verification, security analysis) together
with every substrate it depends on: a weighted CART/forest learner, a
grid-search/CV layer, SAT/SMT solvers for the forgery attack, the 3SAT
NP-hardness reduction, synthetic stand-ins for the evaluation datasets,
an attack suite and an experiment harness regenerating every table and
figure of the evaluation section.

Quick start (the composable pipeline API)::

    from repro import TriggerPolicy, Watermarker, random_signature

    sigma = random_signature(m=32, random_state=7)
    wm = Watermarker(signature=sigma, trigger=TriggerPolicy(size=16),
                     random_state=7).fit(X_train, y_train)
    wm.ensemble.predict(X_test)

:class:`~repro.api.Watermarker` is the one way to embed a watermark
(the keyword-pile ``watermark(...)`` function is gone; see the
migration note in ``docs/api.md``).  Attacks share one protocol and registry (:mod:`repro.api`),
and :func:`~repro.experiments.run_scenario_matrix` sweeps them across
strengths and datasets.  See ``examples/`` for complete scenarios and
``docs/api.md`` for the API reference.
"""

from . import (
    api,
    attacks,
    core,
    datasets,
    ensemble,
    experiments,
    hardness,
    model_selection,
    persistence,
    solver,
    traffic,
    trees,
)
from .api import (
    Attack,
    AttackReport,
    AttackTarget,
    EmbeddingSchedule,
    TrainerConfig,
    TriggerPolicy,
    Watermarker,
    available_attacks,
    make_attack,
)
from .core import (
    Judge,
    OwnershipClaim,
    Signature,
    WatermarkSecret,
    WatermarkedModel,
    random_signature,
    signature_from_identity,
    verify_ownership,
)
from .ensemble import GradientBoostingClassifier, RandomForestClassifier
from .exceptions import (
    ConvergenceError,
    NotFittedError,
    ReproError,
    ResourceLimitError,
    SerializationError,
    SolverError,
    ValidationError,
    VerificationError,
)
from .experiments import run_scenario_matrix
from .trees import DecisionTreeClassifier

__version__ = "1.1.0"

__all__ = [
    "Attack",
    "AttackReport",
    "AttackTarget",
    "ConvergenceError",
    "DecisionTreeClassifier",
    "EmbeddingSchedule",
    "GradientBoostingClassifier",
    "Judge",
    "NotFittedError",
    "OwnershipClaim",
    "RandomForestClassifier",
    "ReproError",
    "ResourceLimitError",
    "SerializationError",
    "Signature",
    "SolverError",
    "TrainerConfig",
    "TriggerPolicy",
    "ValidationError",
    "VerificationError",
    "WatermarkSecret",
    "WatermarkedModel",
    "Watermarker",
    "api",
    "attacks",
    "available_attacks",
    "core",
    "datasets",
    "ensemble",
    "experiments",
    "hardness",
    "make_attack",
    "model_selection",
    "persistence",
    "random_signature",
    "run_scenario_matrix",
    "signature_from_identity",
    "solver",
    "traffic",
    "trees",
    "verify_ownership",
]
