"""Tests for the composable pipeline layer (`repro.api.pipeline`).

:class:`Watermarker` is the one way to embed a watermark; the
load-bearing contract is that a fit is a pure function of its configs,
its data and an integer ``random_state`` — serialised trees, trigger
sets and reports.
"""

import json
import math

import numpy as np
import pytest

from repro import api
from repro.api import EmbeddingSchedule, TrainerConfig, TriggerPolicy, Watermarker, pipeline
from repro.core import embedding, random_signature
from repro.exceptions import ValidationError
from repro.persistence import forest_to_dict

BASE_PARAMS = {"max_depth": 8, "min_samples_leaf": 1}


def _model_state(model) -> str:
    """Canonical serialised state: forest + signature + trigger set."""
    return json.dumps(
        {
            "forest": forest_to_dict(model.ensemble),
            "signature": model.signature.to_string(),
            "trigger_X": model.trigger.X.tolist(),
            "trigger_y": model.trigger.y.tolist(),
            "trigger_indices": model.trigger.indices.tolist(),
        },
        sort_keys=True,
    )


def _fit(X_train, y_train):
    return Watermarker(
        signature=random_signature(8, ones_fraction=0.5, random_state=41),
        trigger=TriggerPolicy(size=5),
        schedule=EmbeddingSchedule(escalation_factor=2.0),
        trainer=TrainerConfig(base_params=BASE_PARAMS, tree_feature_fraction=0.6),
        random_state=42,
    ).fit(X_train, y_train)


class TestWatermarkerRefit:
    def test_refit_is_deterministic(self, bc_data):
        X_train, X_test, y_train, _y_test = bc_data
        first, again = _fit(X_train, y_train), _fit(X_train, y_train)
        assert _model_state(again) == _model_state(first)
        assert again.report == first.report
        assert np.array_equal(
            again.ensemble.predict_all(X_test), first.ensemble.predict_all(X_test)
        )

    def test_schedule_is_one_class(self):
        assert api.EmbeddingSchedule is pipeline.EmbeddingSchedule
        assert pipeline.EmbeddingSchedule is embedding.EmbeddingSchedule


class TestTriggerPolicy:
    def test_requires_exactly_one_of_size_and_fraction(self):
        with pytest.raises(ValidationError, match="exactly one"):
            TriggerPolicy()
        with pytest.raises(ValidationError, match="exactly one"):
            TriggerPolicy(size=4, fraction=0.02)

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            TriggerPolicy(size=0)
        with pytest.raises(ValidationError):
            TriggerPolicy(fraction=0.0)
        for fraction in (0.7, math.nan, math.inf):
            with pytest.raises(ValidationError):
                TriggerPolicy(fraction=fraction)

    @pytest.mark.parametrize("size", [5.7, 5.0, True, "5"])
    def test_rejects_non_integral_size(self, size):
        with pytest.raises(ValidationError, match="integer"):
            TriggerPolicy(size=size)

    def test_numpy_integer_size_accepted(self):
        assert TriggerPolicy(size=np.int64(5)).resolve(100) == 5

    def test_resolve_fraction(self):
        assert TriggerPolicy(fraction=0.02).resolve(500) == 10
        assert TriggerPolicy(fraction=0.001).resolve(100) == 1  # floor of 1

    def test_resolve_enforces_small_k(self):
        with pytest.raises(ValidationError, match="small"):
            TriggerPolicy(size=80).resolve(100)

    def test_fraction_fit_matches_equivalent_size(self, bc_data):
        X_train, _X_test, y_train, _y_test = bc_data
        signature = random_signature(6, ones_fraction=0.5, random_state=51)
        k = TriggerPolicy(fraction=0.03).resolve(X_train.shape[0])
        by_fraction = Watermarker(
            signature=signature,
            trigger=TriggerPolicy(fraction=0.03),
            trainer=TrainerConfig(base_params=BASE_PARAMS),
            schedule=EmbeddingSchedule(escalation_factor=2.0),
            random_state=52,
        ).fit(X_train, y_train)
        by_size = Watermarker(
            signature=signature,
            trigger=TriggerPolicy(size=k),
            trainer=TrainerConfig(base_params=BASE_PARAMS),
            schedule=EmbeddingSchedule(escalation_factor=2.0),
            random_state=52,
        ).fit(X_train, y_train)
        assert by_fraction.trigger.size == k
        assert _model_state(by_fraction) == _model_state(by_size)


class TestConfigValidation:
    def test_embedding_schedule_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            EmbeddingSchedule(weight_increment=0.0)
        with pytest.raises(ValidationError):
            EmbeddingSchedule(escalation_factor=0.5)
        with pytest.raises(ValidationError):
            EmbeddingSchedule(max_rounds=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"weight_increment": math.nan},
            {"weight_increment": math.inf},
            {"escalation_factor": math.nan},
            {"escalation_factor": math.inf},
            {"weight_increment": True},
        ],
    )
    def test_embedding_schedule_rejects_non_finite(self, kwargs):
        with pytest.raises(ValidationError, match="finite"):
            EmbeddingSchedule(**kwargs)

    @pytest.mark.parametrize("max_rounds", [2.5, 3.0, True])
    def test_embedding_schedule_requires_integral_rounds(self, max_rounds):
        with pytest.raises(ValidationError, match="integer"):
            EmbeddingSchedule(max_rounds=max_rounds)

    def test_trainer_config_rejects_bad_fraction(self):
        with pytest.raises(ValidationError):
            TrainerConfig(tree_feature_fraction=0.0)

    def test_configs_are_frozen(self):
        policy = TriggerPolicy(size=4)
        with pytest.raises(AttributeError):
            policy.size = 8
