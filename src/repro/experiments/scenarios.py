"""The generic scenario-matrix runner.

One entry point sweeps any set of registry attacks, at any strengths,
over any datasets, against freshly watermarked models — every cell
carrying the same uniform :class:`~repro.api.attacks.AttackReport`.
The robustness and detection tables (`robustness.py`, `detection.py`)
are thin projections of this matrix, and the ``repro attack`` CLI
subcommand is a one-cell special case.

Determinism: each (dataset, attack) pair derives its RNG seed from the
config seed and stable CRC32 hashes of the names — never from Python's
salted ``hash`` — and every strength of a sweep restarts from that same
seed.  Same-seed restarts couple stochastic attacks across strengths
(the leaves flipped at ``p=0.05`` are a subset of those flipped at
``p=0.3``), which keeps damage curves monotone instead of noisy, and
make every cell of a sweep equal to a standalone run at its strength,
whatever the order of the sweep.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..api.attacks import Attack, AttackReport, AttackTarget, make_attack
from ..datasets.registry import DATASET_NAMES
from ..exceptions import ValidationError
from .config import ExperimentConfig
from .detection import build_watermarked_model

__all__ = ["ScenarioCell", "build_attack_target", "run_scenario_matrix"]


@dataclass(frozen=True)
class ScenarioCell:
    """One (dataset, attack, strength[, traffic]) cell of a scenario matrix.

    The traffic axis is optional: without it ``traffic`` and
    ``traffic_report`` stay ``None`` and a cell is exactly the pre-axis
    shape.  With it, each cell additionally carries the
    :class:`~repro.traffic.replay.TrafficReport` of replaying the named
    traffic scenario against the same deployed model the attack ran on.
    """

    dataset: str
    attack: str
    strength: float | None
    report: AttackReport
    traffic: str | None = None
    traffic_report: object | None = None

    def to_dict(self) -> dict:
        """JSON-serialisable view (the reports via their own ``to_dict``)."""
        return {
            "dataset": self.dataset,
            "attack": self.attack,
            "strength": self.strength,
            "report": self.report.to_dict(),
            "traffic": self.traffic,
            "traffic_report": (
                None if self.traffic_report is None else self.traffic_report.to_dict()
            ),
        }


def build_attack_target(
    config: ExperimentConfig,
    dataset: str,
    seed_offset: int = 0,
    adjust: bool = True,
) -> AttackTarget:
    """Watermark one model per the config and bundle it with its split."""
    model, split = build_watermarked_model(
        config, dataset, seed_offset=seed_offset, adjust=adjust
    )
    return AttackTarget.from_split(model, split)


def _cell_seed(config_seed: int, dataset: str, attack_name: str) -> int:
    """Stable per-(dataset, attack) RNG seed, shared across strengths."""
    label = f"{dataset}|{attack_name}".encode("utf-8")
    return (int(config_seed) + zlib.crc32(label)) % (2**63)


def _resolve_attacks(
    attacks: Iterable, strengths: Mapping[str, Sequence] | None
) -> list[tuple[Attack, float | None]]:
    """Expand attack specs × strengths into concrete attack instances.

    ``attacks`` mixes registry names and ready :class:`Attack`
    instances; ``strengths[name]`` sweeps that attack's declared
    ``strength_param``.  An attack without a strength entry runs once
    with its configured parameters.
    """
    resolved: list[tuple[Attack, float | None]] = []
    for spec in attacks:
        attack = make_attack(spec) if isinstance(spec, str) else spec
        if not isinstance(attack, Attack):
            raise ValidationError(
                f"attacks must be registry names or Attack instances, got "
                f"{type(spec).__name__}"
            )
        sweep = (strengths or {}).get(attack.name)
        if sweep is None:
            resolved.append((attack, None))
            continue
        strength_param = getattr(attack, "strength_param", None)
        if strength_param is None:
            raise ValidationError(
                f"attack {attack.name!r} declares no strength parameter; "
                f"pass configured instances instead of a strengths sweep"
            )
        for strength in sweep:
            resolved.append(
                (replace(attack, **{strength_param: strength}), float(strength))
            )
    if not resolved:
        raise ValidationError("run_scenario_matrix needs at least one attack")
    return resolved


def run_scenario_matrix(
    config: ExperimentConfig,
    attacks: Iterable,
    strengths: Mapping[str, Sequence] | None = None,
    datasets: Sequence[str] = DATASET_NAMES,
    adjust: bool = True,
    traffic: Sequence[str] | None = None,
    traffic_queries: int = 4096,
    traffic_batch_size: int = 512,
) -> list[ScenarioCell]:
    """Run every attack × strength against one watermarked model per dataset.

    Parameters
    ----------
    config:
        Experiment knobs; the watermarked target model per dataset is
        built exactly as for the paper's tables
        (:func:`~repro.experiments.detection.build_watermarked_model`).
    attacks:
        Registry names (``"truncate"``, ``"flip"``, ``"prune"``,
        ``"extract"``, ``"forgery"``, ``"suppression"``,
        ``"detection"``, ``"chain"``) and/or configured
        :class:`~repro.api.attacks.Attack` instances.
    strengths:
        Optional mapping ``attack name -> iterable of strengths`` swept
        over the attack's declared strength parameter (truncate: depth,
        flip: probability, prune: alpha, extract: query budget,
        forgery: epsilon).
    datasets:
        Dataset names from :data:`repro.datasets.DATASET_NAMES`.
    adjust:
        Build the target models with the ``Adjust`` anti-detection
        heuristic (off for the ablation study).
    traffic:
        Optional traffic axis: named scenarios from
        :func:`repro.traffic.traffic_scenarios`.  Each named stream is
        replayed once per dataset against the same deployed model the
        attacks target (seeded per (dataset, scenario), independent of
        the attack cells), and the matrix becomes the cross product —
        every cell carries its (attack report, traffic report) pair.
    traffic_queries, traffic_batch_size:
        Stream length and chunking of each traffic replay.

    Returns
    -------
    list[ScenarioCell]
        Cells in (dataset-major, attack, strength, traffic) order, each
        with a uniform :class:`~repro.api.attacks.AttackReport`.
    """
    matrix = _resolve_attacks(attacks, strengths)
    traffic_names = list(traffic) if traffic is not None else []
    cells: list[ScenarioCell] = []
    for dataset in datasets:
        target = build_attack_target(config, dataset, adjust=adjust)
        traffic_reports = {
            name: _replay_traffic(
                config, dataset, name, target, traffic_queries, traffic_batch_size
            )
            for name in traffic_names
        }
        for attack, strength in matrix:
            rng = np.random.default_rng(
                _cell_seed(config.seed, dataset, attack.name)
            )
            report = attack.run(target, rng)
            if not traffic_names:
                cells.append(
                    ScenarioCell(
                        dataset=dataset,
                        attack=attack.name,
                        strength=strength,
                        report=report,
                    )
                )
                continue
            cells.extend(
                ScenarioCell(
                    dataset=dataset,
                    attack=attack.name,
                    strength=strength,
                    report=report,
                    traffic=name,
                    traffic_report=traffic_reports[name],
                )
                for name in traffic_names
            )
    return cells


def _replay_traffic(
    config: ExperimentConfig,
    dataset: str,
    scenario: str,
    target: AttackTarget,
    n_queries: int,
    batch_size: int,
):
    """One seeded traffic replay against the dataset's deployed model."""
    from ..traffic import replay_scenario

    return replay_scenario(
        scenario,
        target.model,
        target.X_train,
        n_queries=n_queries,
        batch_size=batch_size,
        random_state=_cell_seed(config.seed, dataset, f"traffic:{scenario}"),
    )
