"""Model-extraction (surrogate-training) attack.

A thief who fears watermark verification can avoid serving the stolen
model directly: query it black-box on unlabelled data, train a
*surrogate* forest on the answers, and deploy the surrogate.  This is
the classic extraction attack from the neural-network watermarking
literature, applied to tree ensembles.

Two questions the experiment answers:

1. **Does the watermark transfer?**  It should not: the signature lives
   in the *per-tree* behaviour of the original ensemble, and a
   surrogate's trees have no alignment with it — so verification
   against the surrogate fails.  (This is an honest limitation of the
   scheme the paper inherits from its threat model, where the attacker
   serves the model unmodified.)
2. **What does extraction cost the thief?**  The surrogate's accuracy
   deficit relative to the stolen model, as a function of the query
   budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_random_state, check_X, check_X_y
from ..core.embedding import WatermarkedModel
from ..core.verification import verify_ownership
from ..ensemble.forest import RandomForestClassifier
from ..exceptions import ValidationError

__all__ = ["ExtractionOutcome", "extract_surrogate", "extraction_study"]


@dataclass
class ExtractionOutcome:
    """Result of one surrogate-training run.

    ``agreement`` is the fidelity of the surrogate to the stolen model
    on held-out data; ``watermark_match_rate`` measures how much of the
    signature pattern survives in the surrogate (expected: chance level).
    """

    query_budget: int
    surrogate: RandomForestClassifier
    agreement: float
    surrogate_accuracy: float
    victim_accuracy: float
    watermark_accepted: bool
    watermark_match_rate: float


def extract_surrogate(
    victim,
    X_queries,
    n_estimators: int | None = None,
    max_depth: int | None = 12,
    random_state=None,
) -> RandomForestClassifier:
    """Train a surrogate forest on the victim's majority-vote answers.

    The attacker never sees true labels — only what the stolen model
    answers on the query set.
    """
    X_queries = check_X(X_queries, name="X_queries")
    stolen_labels = victim.predict(X_queries)
    if np.unique(stolen_labels).shape[0] < 2:
        raise ValidationError(
            "the victim answered all queries with one class; the surrogate "
            "needs a more diverse query set"
        )
    surrogate = RandomForestClassifier(
        n_estimators=n_estimators or victim.n_trees_,
        max_depth=max_depth,
        tree_feature_fraction=0.7,
        random_state=random_state,
    )
    return surrogate.fit(X_queries, stolen_labels)


def extraction_study(
    model: WatermarkedModel,
    X_pool,
    X_test,
    y_test,
    query_budgets=(100, 300),
    random_state=None,
) -> list[ExtractionOutcome]:
    """Sweep query budgets and measure fidelity + watermark survival.

    Each budget cell draws from its own RNG, spawned from one root seed
    keyed by the budget *value* — so the 120-query cell of a
    ``(60, 120)`` sweep is bitwise identical to a standalone
    ``(120,)`` run, and reordering the sweep never changes any cell.
    (The previous implementation threaded one mutating generator
    through the loop, making every cell depend on which budgets ran
    before it.)
    """
    X_pool = check_X(X_pool, name="X_pool")
    X_test, y_test = check_X_y(X_test, y_test)
    rng = check_random_state(random_state)
    root = np.random.SeedSequence(int(rng.integers(2**63)))

    victim = model.ensemble
    victim_accuracy = victim.score(X_test, y_test)
    outcomes: list[ExtractionOutcome] = []
    for budget in query_budgets:
        if not 1 <= budget <= X_pool.shape[0]:
            raise ValidationError(
                f"query budget {budget} exceeds the attacker pool "
                f"({X_pool.shape[0]} instances)"
            )
        cell_rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=root.entropy, spawn_key=root.spawn_key + (int(budget),)
            )
        )
        chosen = cell_rng.choice(X_pool.shape[0], size=budget, replace=False)
        surrogate = extract_surrogate(
            victim, X_pool[chosen], random_state=int(cell_rng.integers(2**31 - 1))
        )
        agreement = float(
            np.mean(surrogate.predict(X_test) == victim.predict(X_test))
        )
        report = verify_ownership(
            surrogate, model.signature, model.trigger.X, model.trigger.y
        )
        outcomes.append(
            ExtractionOutcome(
                query_budget=int(budget),
                surrogate=surrogate,
                agreement=agreement,
                surrogate_accuracy=surrogate.score(X_test, y_test),
                victim_accuracy=victim_accuracy,
                watermark_accepted=report.accepted,
                watermark_match_rate=report.n_matching / report.n_trees,
            )
        )
    return outcomes
