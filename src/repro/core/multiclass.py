"""Watermarking multi-class ensembles via binary decomposition.

The paper notes that "multi-class classification can be supported by
encoding it in terms of multiple binary classification tasks".  This
module realises that sentence end-to-end: a
:class:`~repro.ensemble.OneVsRestForest` is built from one *watermarked*
binary forest per class, each carrying its own signature bit-string and
trigger set.  Verification checks every per-class watermark; the
effective signature length is ``n_classes * m``, making coincidental
matches even less plausible than in the binary case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_random_state, check_X_y
from ..ensemble.multiclass import OneVsRestForest
from ..exceptions import ValidationError
from .embedding import EmbeddingSchedule, WatermarkedModel
from .signature import Signature, random_signature
from .verification import VerificationReport, verify_ownership

__all__ = [
    "MulticlassWatermarkedModel",
    "watermark_multiclass",
    "verify_multiclass_ownership",
]


@dataclass
class MulticlassWatermarkedModel:
    """A watermarked one-vs-rest ensemble plus its per-class secrets."""

    ensemble: OneVsRestForest
    per_class: dict[int, WatermarkedModel]

    @property
    def classes(self) -> list[int]:
        return sorted(self.per_class)

    def signatures(self) -> dict[int, Signature]:
        """Per-class signatures (the multi-class owner secret)."""
        return {label: model.signature for label, model in self.per_class.items()}

    def total_signature_bits(self) -> int:
        """Effective signature length across all one-vs-rest forests."""
        return sum(len(model.signature) for model in self.per_class.values())


def watermark_multiclass(
    X_train,
    y_train,
    m: int,
    trigger_size: int,
    signatures: dict[int, Signature] | None = None,
    ones_fraction: float = 0.5,
    base_params: dict | None = None,
    tree_feature_fraction: float = 0.7,
    escalation_factor: float = 2.0,
    max_rounds: int = 60,
    random_state=None,
) -> MulticlassWatermarkedModel:
    """Watermark a multi-class problem class-by-class.

    Parameters
    ----------
    X_train, y_train:
        Training data with integer labels (two or more classes).
    m:
        Trees per one-vs-rest forest (= per-class signature length).
    trigger_size:
        Trigger instances per class forest.
    signatures:
        Optional mapping class → :class:`Signature` of length ``m``;
        missing classes get fresh random signatures.
    base_params:
        Forest hyper-parameters (``None`` runs a grid search per class,
        exactly as the binary pipeline does).

    Returns
    -------
    MulticlassWatermarkedModel
    """
    # Imported lazily: repro.api imports this package.
    from ..api.pipeline import TrainerConfig, TriggerPolicy, Watermarker

    X_train, y_train = check_X_y(X_train, y_train)
    classes = np.unique(np.asarray(y_train, dtype=np.int64))
    if classes.shape[0] < 2:
        raise ValidationError("y_train must contain at least two classes")
    rng = check_random_state(random_state)
    signatures = dict(signatures or {})
    trigger = TriggerPolicy(size=trigger_size)
    schedule = EmbeddingSchedule(escalation_factor=escalation_factor, max_rounds=max_rounds)
    trainer = TrainerConfig(
        base_params=base_params, tree_feature_fraction=tree_feature_fraction
    )

    per_class: dict[int, WatermarkedModel] = {}
    forests: dict[int, object] = {}
    for label in classes:
        signature = signatures.get(int(label))
        if signature is None:
            signature = random_signature(
                m, ones_fraction=ones_fraction, random_state=int(rng.integers(2**31 - 1))
            )
        elif len(signature) != m:
            raise ValidationError(
                f"signature for class {label} has {len(signature)} bits, expected {m}"
            )
        binary_y = np.where(np.asarray(y_train) == label, 1, -1)
        model = Watermarker(
            signature=signature,
            trigger=trigger,
            schedule=schedule,
            trainer=trainer,
            random_state=int(rng.integers(2**31 - 1)),
        ).fit(X_train, binary_y)
        per_class[int(label)] = model
        forests[int(label)] = model.ensemble

    ensemble = OneVsRestForest()
    ensemble.classes_ = classes
    ensemble.forests_ = forests  # type: ignore[assignment]
    return MulticlassWatermarkedModel(ensemble=ensemble, per_class=per_class)


def verify_multiclass_ownership(
    suspect: OneVsRestForest,
    owner_model: MulticlassWatermarkedModel,
    mode: str = "strict",
) -> dict[int, VerificationReport]:
    """Verify every per-class watermark against a suspect OvR ensemble.

    Returns one report per class; the overall claim is accepted iff all
    of them are (callers typically require unanimity, which multiplies
    the per-class false-match probabilities together).
    """
    if suspect.forests_ is None:
        raise ValidationError("suspect model is not fitted")
    reports: dict[int, VerificationReport] = {}
    for label, model in owner_model.per_class.items():
        if label not in suspect.forests_:
            raise ValidationError(f"suspect model has no forest for class {label}")
        reports[label] = verify_ownership(
            suspect.forests_[label],
            model.signature,
            model.trigger.X,
            model.trigger.y,
            mode=mode,
        )
    return reports
