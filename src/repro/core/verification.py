"""Black-box watermark verification.

The judge queries the suspect model only through its per-tree prediction
interface and checks the signature pattern on the trigger set: tree
``i`` must classify every trigger instance correctly iff ``σ_i = 0``.

Two match semantics are provided:

- ``"strict"`` — bit 1 trees must misclassify *all* trigger instances
  (what the embedding actually enforces, hence the default);
- ``"iff"`` — bit 1 trees must merely not be perfect on the trigger set
  (the literal condition in the paper's verification paragraph).

A strict match is also an iff match, so ``"strict"`` acceptance implies
``"iff"`` acceptance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ValidationError
from .signature import Signature

__all__ = [
    "VerificationReport",
    "match_signature",
    "verify_ownership",
    "false_claim_log10_probability",
]


@dataclass
class VerificationReport:
    """Outcome of checking one ownership claim.

    ``per_tree_accuracy[i]`` is tree ``i``'s accuracy over the trigger
    set; ``matches[i]`` says whether tree ``i`` behaved as bit ``σ_i``
    requires under the chosen ``mode``.  ``recovered_bits`` is the
    pattern actually observed (0 = perfect on triggers, 1 = all wrong,
    ``None`` = neither), useful for diagnosing partial matches.
    """

    accepted: bool
    mode: str
    per_tree_accuracy: np.ndarray
    matches: np.ndarray
    recovered_bits: list[int | None]
    n_matching: int
    n_trees: int

    def summary(self) -> str:
        """One-line human-readable verdict."""
        verdict = "ACCEPTED" if self.accepted else "REJECTED"
        return (
            f"{verdict} ({self.mode}): {self.n_matching}/{self.n_trees} trees "
            f"match the claimed signature"
        )


def match_signature(
    per_tree_predictions: np.ndarray,
    trigger_y: np.ndarray,
    signature: Signature,
    mode: str = "strict",
) -> VerificationReport:
    """Compare observed per-tree trigger behaviour against a signature.

    Parameters
    ----------
    per_tree_predictions:
        Array of shape ``(n_trees, k)``: the suspect model's per-tree
        predictions on the ``k`` trigger instances.
    trigger_y:
        True trigger labels (length ``k``).
    signature:
        The claimed signature (length must equal ``n_trees``).
    mode:
        ``"strict"`` or ``"iff"`` (see module docstring).
    """
    per_tree_predictions = np.asarray(per_tree_predictions)
    trigger_y = np.asarray(trigger_y)
    if per_tree_predictions.ndim != 2:
        raise ValidationError(
            f"per_tree_predictions must be 2-D, got shape {per_tree_predictions.shape}"
        )
    n_trees, k = per_tree_predictions.shape
    if k < 1:
        # With zero trigger instances the boolean reductions below are
        # vacuously true for every tree — any signature would "match".
        raise ValidationError("per_tree_predictions must cover at least one trigger instance")
    if trigger_y.shape != (k,):
        raise ValidationError(
            f"trigger_y must have shape ({k},), got {trigger_y.shape}"
        )
    if len(signature) != n_trees:
        raise ValidationError(
            f"signature length {len(signature)} != number of trees {n_trees}"
        )
    if mode not in ("strict", "iff"):
        raise ValidationError(f"mode must be 'strict' or 'iff', got {mode!r}")

    correct = per_tree_predictions == trigger_y[None, :]
    # Exact boolean reductions decide the match; ``per_tree_accuracy``
    # is kept for reporting only (a float-equality test on the mean
    # would make an acceptance decision hinge on rounding).
    per_tree_accuracy = correct.mean(axis=1)
    all_correct = correct.all(axis=1)
    all_wrong = ~correct.any(axis=1)

    bits = signature.as_array()
    if mode == "strict":
        matches = np.where(bits == 0, all_correct, all_wrong)
    else:
        matches = np.where(bits == 0, all_correct, ~all_correct)

    recovered: list[int | None] = [
        0 if all_correct[i] else 1 if all_wrong[i] else None for i in range(n_trees)
    ]
    return VerificationReport(
        accepted=bool(matches.all()),
        mode=mode,
        per_tree_accuracy=per_tree_accuracy,
        matches=matches,
        recovered_bits=recovered,
        n_matching=int(matches.sum()),
        n_trees=n_trees,
    )


def verify_ownership(model, signature: Signature, trigger_X, trigger_y, mode: str = "strict") -> VerificationReport:
    """Convenience wrapper: query ``model.predict_all`` and match.

    ``model`` is anything exposing ``predict_all(X) -> (n_trees, n)``;
    in a real dispute the judge calls this on the *suspect's* deployed
    model, not on an artefact supplied by the claimant.

    When the model is one of this library's ensembles, the query runs
    through its cached compiled flat-array engine (see
    :mod:`repro.ensemble.compiled`), compiled on first use.
    """
    predictions = model.predict_all(np.asarray(trigger_X, dtype=np.float64))
    return match_signature(predictions, trigger_y, signature, mode=mode)


def false_claim_log10_probability(
    test_accuracy: float, trigger_size: int, signature: Signature, mode: str = "strict"
) -> float:
    """Upper-bound estimate (log10) of a coincidental signature match.

    Model the suspect ensemble's trees as independent classifiers with
    accuracy ``a`` on instances drawn from the data distribution (the
    trigger set is such a draw).  A tree is then perfect on ``k``
    triggers with probability ``a^k`` and all-wrong with ``(1-a)^k``,
    so a *non-watermarked* model matches an ``m``-bit signature with
    probability::

        strict:  a^(k·m0) · (1-a)^(k·m1)
        iff:     a^(k·m0) · (1 - a^k)^m1

    Returns ``log10`` of that probability — the number of decimal orders
    of magnitude by which a coincidental match is implausible.
    """
    if not 0.0 < test_accuracy < 1.0:
        raise ValidationError(
            f"test_accuracy must be in (0, 1), got {test_accuracy}"
        )
    if trigger_size < 1:
        raise ValidationError(f"trigger_size must be >= 1, got {trigger_size}")
    if mode not in ("strict", "iff"):
        raise ValidationError(f"mode must be 'strict' or 'iff', got {mode!r}")

    k = trigger_size
    log_a = np.log10(test_accuracy)
    log_one_minus_a = np.log10(1.0 - test_accuracy)
    total = signature.n_zeros * k * log_a
    if mode == "strict":
        total += signature.n_ones * k * log_one_minus_a
    else:
        miss_probability = 1.0 - test_accuracy**k
        total += signature.n_ones * np.log10(max(miss_probability, 1e-300))
    return float(total)
