"""Tests for experiment configuration."""

import pytest

from repro.api import TriggerPolicy
from repro.core import random_signature
from repro.experiments import FULL, MEDIUM, SMALL, ExperimentConfig, prepare_split


class TestConfig:
    def test_presets_cover_all_datasets(self):
        for config in (SMALL, MEDIUM, FULL):
            assert set(config.dataset_sizes) == {"mnist26", "breast-cancer", "ijcnn1"}

    def test_full_matches_paper_sizes(self):
        assert FULL.dataset_sizes == {
            "mnist26": 13866,
            "breast-cancer": 569,
            "ijcnn1": 10000,
        }
        assert FULL.n_estimators == 100
        assert FULL.base_params is None  # real grid search

    def test_with_overrides(self):
        config = SMALL.with_overrides(n_estimators=4)
        assert config.n_estimators == 4
        assert config.dataset_sizes == SMALL.dataset_sizes
        assert SMALL.n_estimators != 4  # original untouched

    def test_with_overrides_names_unknown_fields(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError, match="'n_estimator'"):
            SMALL.with_overrides(n_estimator=4)  # typo'd field
        with pytest.raises(ValidationError, match="valid fields.*n_estimators"):
            SMALL.with_overrides(n_estimator=4)
        # Multiple offenders are all named.
        with pytest.raises(ValidationError, match="'bad_one'.*'bad_two'"):
            SMALL.with_overrides(bad_two=1, bad_one=2)

    def test_trigger_size(self):
        # The experiment drivers size D_trigger with the pipeline's one rule.
        config = SMALL.with_overrides(trigger_fraction=0.02)
        owner = config.watermarker(
            random_signature(4, random_state=0), config.trigger_fraction, random_state=1
        )
        assert owner.trigger == TriggerPolicy(fraction=0.02)
        assert owner.trigger.resolve(500) == 10
        assert owner.trigger.resolve(10) == 1  # floor of 1

    def test_prepare_split_shapes(self):
        config = SMALL.with_overrides(
            dataset_sizes={"mnist26": 80, "breast-cancer": 120, "ijcnn1": 150}
        )
        X_train, X_test, y_train, y_test = prepare_split(config, "breast-cancer")
        assert X_train.shape[0] + X_test.shape[0] == 120
        assert X_train.shape[1] == 30

    def test_prepare_split_deterministic(self):
        import numpy as np

        config = SMALL.with_overrides(dataset_sizes={"breast-cancer": 100, "mnist26": 80, "ijcnn1": 150})
        a = prepare_split(config, "breast-cancer")
        b = prepare_split(config, "breast-cancer")
        assert np.array_equal(a[0], b[0])
