"""Attack suite against the watermarking scheme.

- :mod:`~repro.attacks.detection` — structural signature recovery
  (Table 2);
- :mod:`~repro.attacks.forgery` — solver-based trigger forgery
  (Fig. 4/5, §4.2.2);
- :mod:`~repro.attacks.suppression` — trigger-query distinguishers.

Model-modification attacks (their tree edits live in
:mod:`repro.trees.pruning`) and surrogate extraction have no module
here: the registry in :mod:`repro.api.attacks` runs them, and is the
one way to run any attack end to end.
"""

from .detection import (
    DetectionResult,
    behavioural_rates,
    detect_bits,
    detection_report,
)
from .forgery import ForgeryAttackResult, forge_trigger_set, forgery_distortion
from .suppression import (
    SuppressionAnalysis,
    auc_from_scores,
    disagreement_score,
    input_distance_score,
    suppression_analysis,
)

__all__ = [
    "DetectionResult",
    "ForgeryAttackResult",
    "SuppressionAnalysis",
    "auc_from_scores",
    "behavioural_rates",
    "detect_bits",
    "detection_report",
    "disagreement_score",
    "forge_trigger_set",
    "forgery_distortion",
    "input_distance_score",
    "suppression_analysis",
]
