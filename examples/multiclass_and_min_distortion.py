"""Two extensions in one scenario: multi-class watermarking and
minimum-distortion forgery analysis.

Run with::

    python examples/multiclass_and_min_distortion.py

Part 1 follows the paper's remark that multi-class tasks reduce to
binary ones: a three-class problem is watermarked class-by-class
(one signature per one-vs-rest forest) and verified per class.

Part 2 asks the forgery question quantitatively: for a fake signature,
*how much* L∞ distortion does the cheapest forged instance need?  The
library answers exactly via binary search over ε with the SMT solver
as the oracle.
"""

import numpy as np

from repro.api import TrainerConfig, TriggerPolicy, Watermarker
from repro.core import random_signature
from repro.core.multiclass import verify_multiclass_ownership, watermark_multiclass
from repro.datasets import breast_cancer_like
from repro.experiments import format_table
from repro.model_selection import train_test_split
from repro.solver import minimal_forgery_distortion, required_labels


def multiclass_part() -> None:
    print("=== Part 1: multi-class watermarking (one signature per class)")
    rng = np.random.default_rng(60)
    centers = np.array([[0.2, 0.2, 0.5], [0.8, 0.2, 0.5], [0.5, 0.8, 0.5]])
    labels = rng.integers(0, 3, size=360)
    X = np.clip(centers[labels] + rng.normal(scale=0.08, size=(360, 3)), 0, 1)
    y = labels.astype(np.int64)

    model = watermark_multiclass(
        X, y, m=8, trigger_size=5, base_params={"max_depth": 7}, random_state=61
    )
    print(f"classes            : {model.classes}")
    print(f"effective signature: {model.total_signature_bits()} bits "
          f"({len(model.classes)} forests x 8)")
    print(f"accuracy           : {model.ensemble.score(X, y):.3f}")
    reports = verify_multiclass_ownership(model.ensemble, model)
    for label, report in sorted(reports.items()):
        print(f"  class {label}: {report.summary()}")
    print()


def min_distortion_part() -> None:
    print("=== Part 2: minimum forgery distortion per test instance")
    dataset = breast_cancer_like(400, random_state=62)
    X_train, X_test, y_train, y_test = train_test_split(
        dataset.X, dataset.y, test_size=0.3, random_state=63
    )
    victim = Watermarker(
        signature=random_signature(m=12, ones_fraction=0.5, random_state=64),
        trigger=TriggerPolicy(size=6),
        trainer=TrainerConfig(base_params={"max_depth": 8}),
        random_state=65,
    ).fit(X_train, y_train)
    rows = []
    # Two fake signatures: many patterns are jointly unsatisfiable no
    # matter the distortion; satisfiable ones still need large eps.
    for name, seed in (("sig A", 69), ("sig B", 66)):
        fake = random_signature(m=12, ones_fraction=0.5, random_state=seed)
        for row in range(5):
            result = minimal_forgery_distortion(
                roots=victim.ensemble.roots(),
                required=required_labels(fake, int(y_test[row])),
                center=X_test[row],
                n_features=X_test.shape[1],
                tolerance=0.005,
            )
            rows.append(
                [
                    name,
                    row,
                    "yes" if result.feasible else "no (UNSAT anywhere)",
                    f"{result.epsilon:.3f}" if result.feasible else "-",
                    result.solver_calls,
                ]
            )
    print(format_table(
        ["fake signature", "test instance", "forgeable", "min eps", "solver calls"],
        rows,
    ))
    print(
        "\nReading: many fake patterns admit no instance at all; the rest\n"
        "need the listed L∞ distortion at minimum — evidence a judge can\n"
        "use to dismiss a forged trigger set."
    )


if __name__ == "__main__":
    multiclass_part()
    min_distortion_part()
