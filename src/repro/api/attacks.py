"""The uniform Attack protocol, report and registry.

The registry is the one way to run an attack: the model edits of
:mod:`repro.trees.pruning`, surrogate extraction and the analyses of
:mod:`repro.attacks` (forgery, suppression, detection) all run behind
one protocol, so scenario harnesses, the CLI and downstream tooling can
treat "an attack" as a value:

- :class:`AttackTarget` — the deployed watermarked model plus the data
  the attacker (and the evaluation) can see; its ``report`` builds
  every attack's report;
- :class:`Attack` — the protocol: a ``name`` and
  ``run(target, rng) -> AttackReport``;
- :class:`AttackReport` — the uniform outcome: accuracy before/after,
  watermark-survival verdict, cost/budget accounting and a
  JSON-serialisable ``to_dict()``;
- a **registry** (:func:`register_attack`, :func:`make_attack`,
  :func:`available_attacks`) so attacks are addressable by name from
  :func:`repro.experiments.run_scenario_matrix` and ``repro attack``.

Model-editing attacks (truncate / flip / prune) additionally expose
``edit(forest, rng) -> forest``; editing apart from evaluating is what
makes :class:`ChainedAttack` — truncate, then flip, then prune,
evaluated once at the end — expressible.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property
from typing import ClassVar, Protocol, runtime_checkable

import numpy as np

from .._jsonsafe import json_safe
from .._validation import check_random_state, check_X_y
from ..attacks.detection import detection_report
from ..attacks.forgery import forge_trigger_set, forgery_distortion
from ..attacks.suppression import suppression_analysis
from ..core.embedding import WatermarkedModel
from ..core.signature import random_signature
from ..core.verification import VerificationReport, verify_ownership
from ..ensemble.forest import RandomForestClassifier
from ..exceptions import ValidationError
from ..trees.pruning import flip_leaves, prune_cost_complexity, truncate_tree

__all__ = [
    "Attack",
    "AttackReport",
    "AttackTarget",
    "ChainedAttack",
    "DetectionAttack",
    "ExtractionAttack",
    "ForgeryAttack",
    "LeafFlipAttack",
    "ModelEditAttack",
    "PruneAttack",
    "SuppressionAttack",
    "TruncateAttack",
    "attack_params",
    "available_attacks",
    "make_attack",
    "register_attack",
]


@dataclass(frozen=True)
class AttackTarget:
    """The deployed watermarked model plus the attacker-visible data.

    ``X_train``/``y_train`` stand in for whatever data pool the
    attacker can draw on (extraction queries, suppression background);
    ``X_test``/``y_test`` score accuracy and anchor forged instances.
    """

    model: WatermarkedModel
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray

    @classmethod
    def from_split(cls, model: WatermarkedModel, split) -> "AttackTarget":
        """Build from a ``(X_train, X_test, y_train, y_test)`` split."""
        X_train, X_test, y_train, y_test = split
        X_train, y_train = check_X_y(X_train, y_train)
        X_test, y_test = check_X_y(X_test, y_test)
        return cls(
            model=model,
            X_train=X_train,
            y_train=y_train,
            X_test=X_test,
            y_test=y_test,
        )

    @cached_property
    def baseline_accuracy(self) -> float:
        """Test accuracy of the unattacked model (computed once, cached)."""
        return float(self.model.ensemble.score(self.X_test, self.y_test))

    def verify(self, suspect_model, mode: str = "strict") -> VerificationReport:
        """Verify the owner's watermark against any per-tree model."""
        return verify_ownership(
            suspect_model,
            self.model.signature,
            self.model.trigger.X,
            self.model.trigger.y,
            mode=mode,
        )

    def report(
        self,
        attack,
        deployed,
        succeeded: bool | None,
        started: float,
        cost: dict | None = None,
        details: dict | None = None,
    ) -> "AttackReport":
        """The uniform report of ``attack`` having deployed ``deployed``.

        Verifies the owner's watermark against ``deployed`` and scores
        it; when ``deployed`` is the stolen model itself, its accuracy
        is the baseline.  ``succeeded=None`` is the win condition of an
        attack that deploys a model of its own: the watermark no longer
        verifies.  ``started`` is the attack's ``time.perf_counter()``
        at entry; ``cost`` entries follow the elapsed time, and
        ``details`` default to the per-tree verification counts.
        """
        verification = self.verify(deployed)
        if deployed is self.model.ensemble:
            accuracy = self.baseline_accuracy
        else:
            accuracy = float(deployed.score(self.X_test, self.y_test))
        if details is None:
            details = {
                "n_matching_trees": verification.n_matching,
                "n_trees": verification.n_trees,
            }
        return AttackReport(
            attack=attack.name,
            params=attack_params(attack),
            baseline_accuracy=self.baseline_accuracy,
            attacked_accuracy=accuracy,
            watermark_accepted=verification.accepted,
            watermark_match_rate=verification.n_matching / verification.n_trees,
            succeeded=not verification.accepted if succeeded is None else succeeded,
            cost={"elapsed_seconds": time.perf_counter() - started, **(cost or {})},
            details=details,
        )


@dataclass(frozen=True)
class AttackReport:
    """Uniform outcome of one attack run.

    The same fields mean the same thing for every attack:
    ``attacked_accuracy`` is what the attacker would deploy (equal to
    ``baseline_accuracy`` for attacks that leave the model untouched,
    e.g. forgery); ``watermark_accepted``/``watermark_match_rate`` is
    the owner's strict verification against the attacked artefact;
    ``succeeded`` is the attack's own win condition; ``cost`` accounts
    budgets (time, queries, solver conflicts); attack-specific numbers
    live under ``details``.
    """

    attack: str
    params: dict
    baseline_accuracy: float
    attacked_accuracy: float
    watermark_accepted: bool
    watermark_match_rate: float
    succeeded: bool
    cost: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def accuracy_delta(self) -> float:
        """Attacked minus baseline accuracy (negative = the attack cost accuracy)."""
        return self.attacked_accuracy - self.baseline_accuracy

    def to_dict(self) -> dict:
        """Strictly JSON-safe view: numpy values converted, non-finite
        floats as ``None`` (see :func:`repro._jsonsafe.json_safe`)."""
        return json_safe(
            {
                "attack": self.attack,
                "params": self.params,
                "baseline_accuracy": self.baseline_accuracy,
                "attacked_accuracy": self.attacked_accuracy,
                "accuracy_delta": self.accuracy_delta,
                "watermark_accepted": self.watermark_accepted,
                "watermark_match_rate": self.watermark_match_rate,
                "succeeded": self.succeeded,
                "cost": self.cost,
                "details": self.details,
            }
        )

    def summary(self) -> str:
        """One-line human-readable verdict."""
        verdict = "SUCCEEDED" if self.succeeded else "FAILED"
        survival = "accepted" if self.watermark_accepted else "rejected"
        return (
            f"{self.attack}: attack {verdict}; watermark {survival} "
            f"({self.watermark_match_rate:.2f} match), accuracy "
            f"{self.baseline_accuracy:.3f} -> {self.attacked_accuracy:.3f}"
        )


@runtime_checkable
class Attack(Protocol):
    """What every attack exposes: a name and one uniform entry point."""

    name: str

    def run(self, target: AttackTarget, rng: np.random.Generator) -> AttackReport:
        """Attack ``target`` and report the uniform outcome."""
        ...


def attack_params(attack) -> dict:
    """The attack's configuration as a plain dict (for reports/JSON)."""
    if not is_dataclass(attack):
        return {}
    params = {}
    for spec in fields(attack):
        value = getattr(attack, spec.name)
        if spec.name == "stages":
            value = [{"name": stage.name, **attack_params(stage)} for stage in value]
        params[spec.name] = value
    return params


def _check_strength(value, name: str, integral: bool = False) -> None:
    """Reject a strength the attack would silently mis-read: a bool
    (``True`` reads as 1), a NaN (it passes every ``<`` bound check) and,
    for a depth or a query count, a fraction (``int()`` floors it).
    Integral floats such as the CLI's ``2.0`` are valid."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if math.isnan(value):
        raise ValidationError(f"{name} must not be NaN")
    if integral and not float(value).is_integer():
        raise ValidationError(f"{name} must be a whole number, got {value!r}")


# -- registry -----------------------------------------------------------

_REGISTRY: dict[str, type] = {}


def register_attack(cls):
    """Class decorator adding an attack to the global registry by ``name``."""
    name = cls.name
    if name in _REGISTRY:
        raise ValidationError(f"attack {name!r} is already registered")
    _REGISTRY[name] = cls
    return cls


def available_attacks() -> tuple[str, ...]:
    """Registered attack names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_attack(name: str, **params) -> Attack:
    """Instantiate a registered attack by name with config overrides."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown attack {name!r}; available: {', '.join(available_attacks())}"
        ) from None
    try:
        return cls(**params)
    except TypeError as exc:
        raise ValidationError(f"bad parameters for attack {name!r}: {exc}") from exc


# -- model-editing attacks ---------------------------------------------


class ModelEditAttack:
    """Base for attacks that edit the stolen forest and redeploy it.

    Subclasses implement ``edit(forest, rng) -> forest`` (a *copy*, the
    input forest is never mutated); ``run`` evaluates the edited model
    once: accuracy on the test set and strict verification of the
    owner's watermark.  Because editing and evaluation are separate,
    edits compose — see :class:`ChainedAttack`.
    """

    name: ClassVar[str]

    def edit(self, forest, rng: np.random.Generator):
        raise NotImplementedError

    def run(self, target: AttackTarget, rng: np.random.Generator) -> AttackReport:
        started = time.perf_counter()
        attacked = self.edit(target.model.ensemble, rng)
        return target.report(self, attacked, None, started)


@register_attack
@dataclass(frozen=True)
class TruncateAttack(ModelEditAttack):
    """Cut every tree at ``depth``, replacing subtrees by majority leaves."""

    name: ClassVar[str] = "truncate"
    strength_param: ClassVar[str] = "depth"

    depth: int = 4

    def __post_init__(self) -> None:
        _check_strength(self.depth, "depth", integral=True)
        if self.depth < 0:
            raise ValidationError(f"depth must be >= 0, got {self.depth}")

    def edit(self, forest, rng: np.random.Generator):
        depth = int(self.depth)
        return forest.with_roots([truncate_tree(root, depth) for root in forest.roots()])


@register_attack
@dataclass(frozen=True)
class LeafFlipAttack(ModelEditAttack):
    """Flip each leaf's ±1 label independently with ``probability``."""

    name: ClassVar[str] = "flip"
    strength_param: ClassVar[str] = "probability"

    probability: float = 0.1

    def __post_init__(self) -> None:
        _check_strength(self.probability, "probability")
        if not 0.0 <= self.probability <= 1.0:
            raise ValidationError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    def edit(self, forest, rng: np.random.Generator):
        probability = float(self.probability)
        return forest.with_roots(
            [flip_leaves(root, probability, rng) for root in forest.roots()]
        )


@register_attack
@dataclass(frozen=True)
class PruneAttack(ModelEditAttack):
    """Cost-complexity-prune every tree at complexity ``alpha``."""

    name: ClassVar[str] = "prune"
    strength_param: ClassVar[str] = "alpha"

    alpha: float = 1.0

    def __post_init__(self) -> None:
        _check_strength(self.alpha, "alpha")
        if self.alpha < 0.0:
            raise ValidationError(f"alpha must be >= 0, got {self.alpha}")

    def edit(self, forest, rng: np.random.Generator):
        return forest.with_roots(
            [prune_cost_complexity(root, float(self.alpha)) for root in forest.roots()]
        )


@register_attack
@dataclass(frozen=True)
class ChainedAttack(ModelEditAttack):
    """Compose model edits in sequence, evaluated once at the end.

    The default chain is the strongest cheap attacker no single edit
    expresses: truncate the trees, add behavioural noise, then prune —
    the watermark must survive the *combination*, not each step in
    isolation.
    """

    name: ClassVar[str] = "chain"
    strength_param: ClassVar[str | None] = None

    stages: tuple = (
        TruncateAttack(depth=6),
        LeafFlipAttack(probability=0.05),
        PruneAttack(alpha=0.5),
    )

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValidationError("a chained attack needs at least one stage")
        for stage in self.stages:
            if not isinstance(stage, ModelEditAttack):
                raise ValidationError(
                    f"chain stages must be model-editing attacks, got "
                    f"{type(stage).__name__} — only edits compose"
                )
        object.__setattr__(self, "stages", tuple(self.stages))

    def edit(self, forest, rng: np.random.Generator):
        for stage in self.stages:
            forest = stage.edit(forest, rng)
        return forest


# -- attacks that never touch the model --------------------------------


@register_attack
@dataclass(frozen=True)
class ExtractionAttack:
    """Distil the stolen model into a surrogate via black-box queries.

    A thief who fears verification can avoid serving the stolen model:
    query it on unlabelled data drawn from ``target.X_train`` (true
    labels are never read), train a surrogate forest on the answers and
    deploy that.  The watermark is not expected to transfer — the
    signature lives in the per-tree behaviour of the original ensemble,
    and the surrogate's trees have no alignment with it — so the attack
    succeeds when verification fails; ``details["agreement"]`` is the
    surrogate's fidelity to the stolen model on the test set.
    """

    name: ClassVar[str] = "extract"
    strength_param: ClassVar[str] = "query_budget"

    query_budget: int = 100
    surrogate_max_depth: int | None = 12

    def __post_init__(self) -> None:
        _check_strength(self.query_budget, "query_budget", integral=True)
        if self.query_budget < 1:
            raise ValidationError(
                f"query_budget must be >= 1, got {self.query_budget}"
            )

    def run(self, target: AttackTarget, rng: np.random.Generator) -> AttackReport:
        started = time.perf_counter()
        rng = check_random_state(rng)
        pool = target.X_train
        budget = int(self.query_budget)
        if budget > pool.shape[0]:
            raise ValidationError(
                f"query budget {budget} exceeds the attacker pool "
                f"({pool.shape[0]} instances)"
            )
        victim = target.model.ensemble
        queries = pool[rng.choice(pool.shape[0], size=budget, replace=False)]
        answers = victim.predict(queries)
        if np.unique(answers).shape[0] < 2:
            raise ValidationError(
                "the victim answered all queries with one class; the surrogate "
                "needs a more diverse query set"
            )
        surrogate = RandomForestClassifier(
            n_estimators=victim.n_trees_,
            max_depth=self.surrogate_max_depth,
            tree_feature_fraction=0.7,
            random_state=int(rng.integers(2**31 - 1)),
        ).fit(queries, answers)
        agreement = float(
            np.mean(surrogate.predict(target.X_test) == victim.predict(target.X_test))
        )
        return target.report(
            self, surrogate, None, started,
            cost={"queries": budget},
            details={"agreement": agreement},
        )


@register_attack
@dataclass(frozen=True)
class ForgeryAttack:
    """Forge a trigger set realising a fake signature on the stolen model.

    The model itself is served unmodified (so the owner's watermark
    trivially still verifies); the attack succeeds if the solver forges
    at least as many instances as the original trigger set holds —
    enough to press a counterfeit ownership claim of equal weight.
    """

    name: ClassVar[str] = "forgery"
    strength_param: ClassVar[str] = "epsilon"

    epsilon: float = 0.3
    max_instances: int | None = None
    solver_budget: int | None = 50_000
    n_jobs: int | None = None

    def run(self, target: AttackTarget, rng: np.random.Generator) -> AttackReport:
        started = time.perf_counter()
        rng = check_random_state(rng)
        model = target.model
        fake = random_signature(
            model.ensemble.n_trees_, ones_fraction=0.5, random_state=rng
        )
        result = forge_trigger_set(
            model.ensemble,
            fake,
            target.X_test,
            target.y_test,
            epsilon=self.epsilon,
            target_size=model.trigger.size,
            max_instances=self.max_instances,
            solver_budget=self.solver_budget,
            n_jobs=self.n_jobs,
            random_state=rng,
        )
        return target.report(
            self,
            model.ensemble,
            result.n_forged >= model.trigger.size,
            started,
            cost={
                "solver_seconds": result.elapsed_seconds,
                "solver_budget": self.solver_budget,
                "n_attempted": result.n_attempted,
            },
            details={
                "n_forged": result.n_forged,
                "original_trigger_size": model.trigger.size,
                "statuses": dict(result.statuses),
                "fake_signature": fake.to_string(),
                "distortion": forgery_distortion(result, target.X_test),
            },
        )


@register_attack
@dataclass(frozen=True)
class SuppressionAttack:
    """Try to tell trigger queries apart from ordinary test queries.

    Succeeds when the *input-side* distinguisher — the only one an
    attacker can apply before answering a query — separates triggers
    with AUC at or above ``auc_threshold``.  The model-behaviour
    (vote-disagreement) AUC is reported alongside in ``details``.
    """

    name: ClassVar[str] = "suppression"
    strength_param: ClassVar[str | None] = None

    auc_threshold: float = 0.9

    def __post_init__(self) -> None:
        if not 0.5 <= self.auc_threshold <= 1.0:
            raise ValidationError(
                f"auc_threshold must be in [0.5, 1], got {self.auc_threshold}"
            )

    def run(self, target: AttackTarget, rng: np.random.Generator) -> AttackReport:
        started = time.perf_counter()
        model = target.model
        analysis = suppression_analysis(
            model.ensemble,
            model.trigger.X,
            target.X_test,
            X_background=target.X_train,
        )
        return target.report(
            self,
            model.ensemble,
            analysis.input_auc >= self.auc_threshold,
            started,
            details={
                "input_auc": analysis.input_auc,
                "disagreement_auc": analysis.disagreement_auc,
            },
        )


@register_attack
@dataclass(frozen=True)
class DetectionAttack:
    """Recover signature bits from per-tree structure (Table 2).

    Runs both strategies on both structural statistics; succeeds when
    any strategy decides at least one bit and recovers decided bits at
    or above ``recovery_threshold`` (0.5 = coin flip, the level the
    ``Adjust`` heuristic defends down to).
    """

    name: ClassVar[str] = "detection"
    strength_param: ClassVar[str | None] = None

    recovery_threshold: float = 0.75

    def __post_init__(self) -> None:
        if not 0.5 <= self.recovery_threshold <= 1.0:
            raise ValidationError(
                f"recovery_threshold must be in [0.5, 1], got "
                f"{self.recovery_threshold}"
            )

    def run(self, target: AttackTarget, rng: np.random.Generator) -> AttackReport:
        started = time.perf_counter()
        results = detection_report(target.model)
        attempts = [
            {
                "statistic": result.statistic,
                "strategy": result.strategy,
                "mean": result.mean,
                "std": result.std,
                "n_correct": result.n_correct,
                "n_wrong": result.n_wrong,
                "n_uncertain": result.n_uncertain,
                "recovery_rate": result.recovery_rate,
            }
            for result in results
        ]
        decided = [
            attempt for attempt in attempts
            if attempt["n_correct"] + attempt["n_wrong"] > 0
        ]
        best_recovery = max(
            (attempt["recovery_rate"] for attempt in decided), default=0.0
        )
        return target.report(
            self,
            target.model.ensemble,
            best_recovery >= self.recovery_threshold,
            started,
            details={"best_recovery_rate": best_recovery, "attempts": attempts},
        )
