"""End-to-end integration tests: the full ownership-dispute story.

Alice watermarks and deploys a model; Bob steals it; Charlie the judge
verifies Alice's claim and rejects Mallory's forgeries — using only the
public API, with persistence round-trips in the middle, as a real
deployment would.
"""

import numpy as np
import pytest

import repro
from repro import (
    EmbeddingSchedule,
    Judge,
    OwnershipClaim,
    TrainerConfig,
    TriggerPolicy,
    Watermarker,
    WatermarkSecret,
    random_signature,
)
from repro.attacks import forge_trigger_set
from repro.core import false_claim_log10_probability
from repro.datasets import breast_cancer_like
from repro.model_selection import train_test_split
from repro.persistence import (
    forest_from_dict,
    forest_to_dict,
    secret_from_dict,
    secret_to_dict,
)


@pytest.fixture(scope="module")
def dispute():
    """The full scenario state shared by the tests below."""
    ds = breast_cancer_like(320, random_state=100)
    X_train, X_test, y_train, y_test = train_test_split(
        ds.X, ds.y, test_size=0.3, random_state=101
    )
    signature = random_signature(12, ones_fraction=0.5, random_state=102)
    model = Watermarker(
        signature=signature,
        trigger=TriggerPolicy(size=7),
        schedule=EmbeddingSchedule(escalation_factor=2.0),
        trainer=TrainerConfig(base_params={"max_depth": 8}),
        random_state=103,
    ).fit(X_train, y_train)
    return {
        "model": model,
        "X_train": X_train,
        "X_test": X_test,
        "y_train": y_train,
        "y_test": y_test,
    }


class TestOwnershipDispute:
    def test_deployed_model_is_accurate(self, dispute):
        model = dispute["model"]
        assert model.ensemble.score(dispute["X_test"], dispute["y_test"]) > 0.85

    def test_alice_claim_accepted_after_persistence_roundtrip(self, dispute, tmp_path):
        model = dispute["model"]
        # Bob "steals" the model: simulate via serialisation round-trip
        # (exactly what exfiltrating a model file looks like).
        stolen = forest_from_dict(forest_to_dict(model.ensemble))

        # Alice's secret also survives storage.
        secret = secret_from_dict(
            secret_to_dict(
                WatermarkSecret(
                    signature=model.signature,
                    trigger_X=model.trigger.X,
                    trigger_y=model.trigger.y,
                )
            )
        )
        X_disclosed = np.vstack([dispute["X_test"], secret.trigger_X])
        y_disclosed = np.concatenate([dispute["y_test"], secret.trigger_y])
        claim = OwnershipClaim("alice", secret, X_disclosed, y_disclosed)
        report = Judge().verify_claim(stolen, claim)
        assert report.accepted
        assert report.n_matching == 12

    def test_false_claim_probability_is_negligible(self, dispute):
        model = dispute["model"]
        log_p = false_claim_log10_probability(
            test_accuracy=0.95,
            trigger_size=model.trigger.size,
            signature=model.signature,
        )
        assert log_p < -8  # far below any plausible coincidence

    def test_mallory_cannot_forge_cheaply(self, dispute):
        """Mallory invents a signature and tries to forge triggers with
        small distortion — the paper's §4.2.2 scenario."""
        model = dispute["model"]
        fake = random_signature(12, ones_fraction=0.5, random_state=999)
        result = forge_trigger_set(
            model.ensemble,
            fake,
            dispute["X_test"],
            dispute["y_test"],
            epsilon=0.05,
            max_instances=10,
            random_state=998,
        )
        assert result.n_forged <= max(1, result.n_attempted // 3)

    def test_mallory_random_triggers_rejected(self, dispute, rng):
        """Claiming with random data as a trigger set fails."""
        model = dispute["model"]
        fake_trigger_X = rng.uniform(size=(7, 30))
        fake_trigger_y = rng.choice([-1, 1], size=7)
        secret = WatermarkSecret(
            signature=model.signature,  # even knowing σ does not help
            trigger_X=fake_trigger_X,
            trigger_y=fake_trigger_y,
        )
        X_disclosed = np.vstack([dispute["X_test"], fake_trigger_X])
        y_disclosed = np.concatenate([dispute["y_test"], fake_trigger_y])
        claim = OwnershipClaim("mallory", secret, X_disclosed, y_disclosed)
        report = Judge().verify_claim(model.ensemble, claim)
        assert not report.accepted

    def test_unrelated_model_rejected(self, dispute):
        """Alice's secret must not match an independently trained model."""
        from repro.core import train_standard_forest

        model = dispute["model"]
        independent = train_standard_forest(
            dispute["X_train"],
            dispute["y_train"],
            n_estimators=12,
            params={"max_depth": 8},
            random_state=555,
        )
        secret = WatermarkSecret(
            signature=model.signature,
            trigger_X=model.trigger.X,
            trigger_y=model.trigger.y,
        )
        X_disclosed = np.vstack([dispute["X_test"], secret.trigger_X])
        y_disclosed = np.concatenate([dispute["y_test"], secret.trigger_y])
        claim = OwnershipClaim("alice", secret, X_disclosed, y_disclosed)
        report = Judge().verify_claim(independent, claim)
        assert not report.accepted


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.1.0"

    def test_top_level_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name
