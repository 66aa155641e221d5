"""Watermarking for decision-tree ensembles — the paper's contribution.

Typical owner-side flow::

    from repro.api import TriggerPolicy, Watermarker
    from repro.core import random_signature

    sigma = random_signature(m=64, ones_fraction=0.5, random_state=7)
    wm = Watermarker(signature=sigma, trigger=TriggerPolicy(size=32),
                     random_state=7).fit(X_train, y_train)
    wm.ensemble.predict(X_test)          # deploy like any forest
    secret = (wm.signature, wm.trigger)  # keep private

Judge-side flow (black-box, suppression-resistant)::

    from repro.core import Judge, OwnershipClaim, WatermarkSecret

    claim = OwnershipClaim("alice", WatermarkSecret(sigma, trig_X, trig_y),
                           X_test, y_test)
    report = Judge().verify_claim(suspect_model, claim)
    report.accepted
"""

from .adjustment import AdjustedHyperParameters, adjust_hyperparameters
from .commitment import SecretCommitment, commit_secret, verify_commitment
from .multiclass import (
    MulticlassWatermarkedModel,
    verify_multiclass_ownership,
    watermark_multiclass,
)
from .boosted import (
    BoostedWatermarkedModel,
    required_directions,
    verify_boosted_ownership,
    watermark_boosted,
)
from .embedding import (
    EmbeddingReport,
    WatermarkedModel,
    train_standard_forest,
    train_with_trigger,
)
from .protocol import Judge, OwnershipClaim, WatermarkSecret
from .signature import Signature, random_signature, signature_from_identity
from .trigger import TriggerSet, sample_trigger_set
from .verification import (
    VerificationReport,
    false_claim_log10_probability,
    match_signature,
    verify_ownership,
)

__all__ = [
    "AdjustedHyperParameters",
    "BoostedWatermarkedModel",
    "EmbeddingReport",
    "Judge",
    "MulticlassWatermarkedModel",
    "SecretCommitment",
    "OwnershipClaim",
    "Signature",
    "TriggerSet",
    "VerificationReport",
    "WatermarkSecret",
    "WatermarkedModel",
    "adjust_hyperparameters",
    "commit_secret",
    "false_claim_log10_probability",
    "match_signature",
    "random_signature",
    "required_directions",
    "sample_trigger_set",
    "signature_from_identity",
    "train_standard_forest",
    "train_with_trigger",
    "verify_boosted_ownership",
    "verify_commitment",
    "verify_multiclass_ownership",
    "verify_ownership",
    "watermark_boosted",
    "watermark_multiclass",
]
