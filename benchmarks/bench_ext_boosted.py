"""Extension — watermarking gradient-boosted ensembles.

The paper's closing future-work item.  Our construction embeds the
signature into per-stage contribution signs (see
``repro.core.boosted``); this bench measures, per dataset: the accuracy
cost against a standard GBDT, embedding effort, and that verification
accepts the true signature while rejecting a fake one.
"""

from conftest import BENCH, emit

from repro.api import TriggerPolicy
from repro.core import random_signature, verify_boosted_ownership, watermark_boosted
from repro.ensemble import GradientBoostingClassifier
from repro.experiments import format_table, prepare_split


def _run():
    rows = []
    for dataset in ("breast-cancer", "ijcnn1"):
        X_train, X_test, y_train, y_test = prepare_split(BENCH, dataset)
        signature = random_signature(12, ones_fraction=0.5, random_state=BENCH.seed)
        k = TriggerPolicy(fraction=BENCH.trigger_fraction).resolve(X_train.shape[0])
        model = watermark_boosted(
            X_train,
            y_train,
            signature,
            trigger_size=max(2, k // 2),
            max_depth=5,
            random_state=BENCH.seed + 1,
        )
        standard = GradientBoostingClassifier(
            n_estimators=12, learning_rate=0.3, max_depth=5
        ).fit(X_train, y_train)

        accepted, _ = verify_boosted_ownership(
            model.ensemble, model.signature, model.trigger.X, model.trigger.y
        )
        fake = random_signature(12, ones_fraction=0.5, random_state=BENCH.seed + 2)
        fake_accepted, fake_matches = verify_boosted_ownership(
            model.ensemble, fake, model.trigger.X, model.trigger.y
        )
        rows.append(
            [
                dataset,
                model.ensemble.score(X_test, y_test),
                standard.score(X_test, y_test),
                model.rounds,
                accepted,
                f"{int(fake_matches.sum())}/12" if not fake_accepted else "ACCEPTED?!",
            ]
        )
    return rows


def test_extension_boosted_watermark(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    headers = ["Dataset", "WM GBDT acc", "Standard GBDT acc", "rounds",
         "true sig accepted", "fake sig matches"]
    text = format_table(headers, rows)
    emit("ext_boosted_watermark", text, headers=headers, rows=rows)

    for row in rows:
        assert row[4] is True          # true signature verifies
        assert row[5] != "ACCEPTED?!"  # fake signature rejected
        assert row[1] >= row[2] - 0.1  # bounded accuracy cost
