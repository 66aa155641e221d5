"""Tests for the uniform Attack protocol, registry and reports."""

import json

import numpy as np
import pytest

from repro.api import (
    Attack,
    AttackReport,
    AttackTarget,
    ChainedAttack,
    LeafFlipAttack,
    PruneAttack,
    TruncateAttack,
    available_attacks,
    make_attack,
)
from repro.exceptions import ValidationError

ALL_ATTACKS = (
    "chain",
    "detection",
    "extract",
    "flip",
    "forgery",
    "prune",
    "suppression",
    "truncate",
)

#: Cheap, test-sized parameters per registry attack.
FAST_PARAMS = {
    "extract": {"query_budget": 60},
    "forgery": {"epsilon": 0.5, "max_instances": 2, "solver_budget": 5_000},
}


@pytest.fixture(scope="module")
def target(wm_model, bc_data):
    return AttackTarget.from_split(wm_model, bc_data)


class TestRegistry:
    def test_all_five_modules_plus_composite_registered(self):
        assert available_attacks() == ALL_ATTACKS

    def test_unknown_name_rejected_with_listing(self):
        with pytest.raises(ValidationError, match="truncate"):
            make_attack("nope")

    def test_bad_params_rejected(self):
        with pytest.raises(ValidationError, match="flip"):
            make_attack("flip", probabiliy=0.1)  # typo'd kwarg

    def test_instances_satisfy_protocol(self):
        for name in available_attacks():
            assert isinstance(make_attack(name), Attack)


class TestUniformReports:
    @pytest.mark.parametrize("name", ALL_ATTACKS)
    def test_every_attack_reports_uniformly(self, name, target):
        attack = make_attack(name, **FAST_PARAMS.get(name, {}))
        report = attack.run(target, np.random.default_rng(7))
        assert isinstance(report, AttackReport)
        assert report.attack == name
        assert 0.0 <= report.baseline_accuracy <= 1.0
        assert 0.0 <= report.attacked_accuracy <= 1.0
        assert 0.0 <= report.watermark_match_rate <= 1.0
        assert isinstance(report.succeeded, bool)
        assert report.cost["elapsed_seconds"] >= 0.0
        assert report.accuracy_delta == pytest.approx(
            report.attacked_accuracy - report.baseline_accuracy
        )
        assert report.attack in report.summary()

    @pytest.mark.parametrize("name", ALL_ATTACKS)
    def test_to_dict_is_json_serialisable(self, name, target):
        attack = make_attack(name, **FAST_PARAMS.get(name, {}))
        report = attack.run(target, np.random.default_rng(7))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["attack"] == name
        assert set(payload) == {
            "attack", "params", "baseline_accuracy", "attacked_accuracy",
            "accuracy_delta", "watermark_accepted", "watermark_match_rate",
            "succeeded", "cost", "details",
        }

    def test_identity_edit_keeps_watermark(self, target):
        report = LeafFlipAttack(probability=0.0).run(
            target, np.random.default_rng(3)
        )
        assert report.watermark_accepted
        assert report.watermark_match_rate == 1.0
        assert not report.succeeded
        assert report.attacked_accuracy == pytest.approx(
            report.baseline_accuracy
        )

    def test_deterministic_given_rng_seed(self, target):
        first = LeafFlipAttack(probability=0.3).run(
            target, np.random.default_rng(11)
        )
        second = LeafFlipAttack(probability=0.3).run(
            target, np.random.default_rng(11)
        )
        assert first.to_dict()["details"] == second.to_dict()["details"]
        assert first.attacked_accuracy == second.attacked_accuracy
        assert first.watermark_match_rate == second.watermark_match_rate


class TestChainedAttack:
    def test_chain_equals_sequential_edits(self, target):
        rng = np.random.default_rng(5)
        chain = ChainedAttack(
            stages=(TruncateAttack(depth=5), LeafFlipAttack(probability=0.2),
                    PruneAttack(alpha=0.5))
        )
        chained = chain.edit(target.model.ensemble, np.random.default_rng(5))
        manual = target.model.ensemble
        for stage in chain.stages:
            manual = stage.edit(manual, rng)
        assert np.array_equal(
            chained.predict_all(target.X_test), manual.predict_all(target.X_test)
        )

    def test_chain_report_names_stages(self, target):
        report = make_attack("chain").run(target, np.random.default_rng(9))
        assert [s["name"] for s in report.params["stages"]] == [
            "truncate", "flip", "prune",
        ]

    def test_chain_damages_at_least_as_much_as_first_stage(self, target):
        rng_a = np.random.default_rng(13)
        rng_b = np.random.default_rng(13)
        truncate_only = TruncateAttack(depth=4).run(target, rng_a)
        chained = ChainedAttack(
            stages=(TruncateAttack(depth=4), PruneAttack(alpha=2.0))
        ).run(target, rng_b)
        assert (
            chained.watermark_match_rate
            <= truncate_only.watermark_match_rate + 1e-9
        )

    def test_rejects_empty_and_non_edit_stages(self):
        with pytest.raises(ValidationError, match="at least one"):
            ChainedAttack(stages=())
        with pytest.raises(ValidationError, match="compose"):
            ChainedAttack(stages=(make_attack("extract"),))


class TestAttackValidation:
    def test_strength_bounds_enforced(self):
        with pytest.raises(ValidationError):
            TruncateAttack(depth=-1)
        with pytest.raises(ValidationError):
            LeafFlipAttack(probability=1.5)
        with pytest.raises(ValidationError):
            PruneAttack(alpha=-0.1)
        with pytest.raises(ValidationError):
            make_attack("extract", query_budget=0)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("truncate", {"depth": 2.5}),
            ("truncate", {"depth": True}),
            ("flip", {"probability": True}),
            ("prune", {"alpha": float("nan")}),
            ("prune", {"alpha": False}),
            ("extract", {"query_budget": 2.5}),
            ("extract", {"query_budget": True}),
        ],
    )
    def test_misread_strengths_rejected(self, name, params):
        # Each of these used to be read silently as another value: a bool
        # as 0 or 1, a fractional depth or budget floored, a NaN alpha
        # past every bound check (it collapsed every tree into a leaf).
        with pytest.raises(ValidationError):
            make_attack(name, **params)

    def test_integral_float_strengths_accepted(self, target):
        # The CLI parses every --strength as a float.
        as_float = make_attack("truncate", depth=2.0).run(target, np.random.default_rng(0))
        as_int = make_attack("truncate", depth=2).run(target, np.random.default_rng(0))
        assert as_float.details == as_int.details
        assert as_float.attacked_accuracy == as_int.attacked_accuracy
        assert make_attack("extract", query_budget=60.0).query_budget == 60.0

    def test_extraction_budget_bounded_by_pool(self, target):
        attack = make_attack("extract", query_budget=10**6)
        with pytest.raises(ValidationError, match="pool"):
            attack.run(target, np.random.default_rng(1))
