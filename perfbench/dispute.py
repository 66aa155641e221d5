"""The ``dispute-*`` workloads: embed, judge and forge, offline.

One iteration is one ownership dispute.  The owner embeds a signature
(``Watermarker.fit``) and saves the model as ``.rfbin``; the judge maps
it back (``WatermarkedModel.load(mmap_mode="r")``) and runs
``Judge.verify_claim`` several times; the attacker runs a serial
forgery ε-sweep (``forge_trigger_set``) over held-out rows with a fake
signature.  A run repeats disputes on fresh seeded datasets until its
time is up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from common import WORK_DIR, Ledger, Pace, median, peak_rss_mb, percentile, tail
from catalog import self_time_metrics
from tracing import Tracer, self_s, total_s

from repro.api import EmbeddingSchedule, TrainerConfig, TriggerPolicy, Watermarker
from repro.attacks.forgery import forge_trigger_set
from repro.core.embedding import WatermarkedModel
from repro.core.protocol import Judge, OwnershipClaim, WatermarkSecret
from repro.core.signature import Signature, random_signature
from repro.datasets import ijcnn1_like, mnist26_like
from repro.model_selection.splits import train_test_split
from repro.solver import required_labels
from repro.solver.problem import check_pattern


@dataclass(frozen=True)
class DisputeSpec:
    dataset: Callable  # (n_samples, random_state) -> Dataset
    n_samples: int
    bits: int
    epsilons: tuple[float, ...]
    rows_per_epsilon: int
    verifies_per_model: int = 20
    solver_budget: int = 2000
    trigger_fraction: float = 0.02
    min_models: int = 3
    max_models: int = 48


SPECS = {
    # Tall and narrow (ijcnn1-like, 22 features).  Embedding is
    # dominated by the TrainWithTrigger refit loop (several rounds for
    # T1), so presort reuse and refit_trees carry it; the 64-tree
    # forgery sweep is almost all UNSAT proofs.  Models differ in how
    # fast they are to forge (per-model rates from 0.5x to 2x the
    # median), and with 1000 rows only about 15 disputes fit into a
    # run: 700 rows fit about 27, and the forgery rate's spread between
    # seeds fell from 14% to under 9%.
    "dispute-tabular": DisputeSpec(
        dataset=ijcnn1_like,
        n_samples=700,
        bits=64,
        epsilons=(0.1, 0.2, 0.3),
        rows_per_epsilon=100,
    ),
    # Short and wide (mnist26-like at 14x14 = 196 features).  Embedding
    # is dominated by split scoring across many features with few refit
    # rounds; about half the forgery attempts find SAT witnesses, so the
    # solver is used differently from dispute-tabular.  Models differ a
    # lot in how fast they are to forge (on full 28x28 images the
    # per-model attempt rate had a coefficient of variation of 0.8 over
    # ten seeds, at 14x14 0.4, while fake signatures for one model
    # differed by about 10%), so the run needs many small disputes to
    # average that out: about 60 fit into a run.
    "dispute-image": DisputeSpec(
        dataset=partial(mnist26_like, image_size=14),
        n_samples=300,
        bits=16,
        epsilons=(0.1, 0.2, 0.3),
        rows_per_epsilon=50,
        max_models=96,
    ),
}

#: Fixed owner recipe: base params (no grid search), Adjust on.
BASE_PARAMS = {"max_depth": 10, "min_samples_leaf": 1}
TREE_FEATURE_FRACTION = 0.35
ESCALATION_FACTOR = 2.0


def owner_recipe(signature: Signature, trigger_fraction: float, seed: int) -> Watermarker:
    return Watermarker(
        signature=signature,
        trigger=TriggerPolicy(fraction=trigger_fraction),
        schedule=EmbeddingSchedule(escalation_factor=ESCALATION_FACTOR),
        trainer=TrainerConfig(
            base_params=BASE_PARAMS, adjust=True,
            tree_feature_fraction=TREE_FEATURE_FRACTION,
        ),
        random_state=seed,
    )


@dataclass
class Dispute:
    """Every input of one dispute, generated before timing starts."""

    X_train: np.ndarray
    X_test: np.ndarray
    y_train: np.ndarray
    y_test: np.ndarray
    signature: Signature
    fake: Signature
    embed_seed: int
    forge_seed: int
    disclose_seed: int

    def copy(self) -> "Dispute":
        """Same values, fresh arrays (no presort-cache identity hits)."""
        return replace(
            self,
            X_train=self.X_train.copy(),
            X_test=self.X_test.copy(),
            y_train=self.y_train.copy(),
            y_test=self.y_test.copy(),
        )


def make_inputs(spec: DisputeSpec, seed: int) -> tuple[list[Dispute], list[float]]:
    """All disputes of a run, and the set-up time of each at the
    reference host speed (see ``Pace``)."""
    disputes, setup = [], []
    with Pace() as pace:
        for child in np.random.SeedSequence(seed).spawn(spec.max_models):
            data, split, sig, fake, embed, forge, disclose = (
                int(s.generate_state(1)[0]) for s in child.spawn(7)
            )
            start = time.perf_counter()
            ds = spec.dataset(n_samples=spec.n_samples, random_state=data)
            X_train, X_test, y_train, y_test = train_test_split(
                ds.X, ds.y, test_size=0.3, random_state=split
            )
            setup.append(time.perf_counter() - start)
            disputes.append(
                Dispute(
                    X_train, X_test, y_train, y_test,
                    random_signature(spec.bits, 0.5, random_state=sig),
                    random_signature(spec.bits, 0.5, random_state=fake),
                    embed, forge, disclose,
                )
            )
    return disputes, [s * pace.factor for s in setup]


def flip_bit(signature: Signature, index: int = 0) -> Signature:
    bits = list(signature.bits)
    bits[index] ^= 1
    return Signature.from_iterable(bits)


@dataclass
class Samples:
    """Timings of a pass.  ``embed_s``, ``verify_s`` and ``forge_s`` are
    at the reference host speed (see ``Pace``); ``paces`` holds the
    factors that scaled them."""

    embed_s: list = field(default_factory=list)
    verify_s: list = field(default_factory=list)
    accuracy: list = field(default_factory=list)
    statuses: dict = field(default_factory=dict)
    paces: list = field(default_factory=list)
    busy_s: float = 0.0  # wall time of every timed step
    forge_s: float = 0.0
    forge_attempts: int = 0
    rounds: int = 0
    models: int = 0


def run_dispute(
    spec: DisputeSpec,
    dispute: Dispute,
    index: int,
    ledger: Ledger,
    samples: Samples,
    tracer: Tracer | None = None,
    corrupt: str | None = None,
) -> None:
    """One ownership dispute; every output is checked."""

    def phase(name):
        if tracer is not None:
            tracer.phase = name

    owner = owner_recipe(dispute.signature, spec.trigger_fraction, dispute.embed_seed)
    ledger.ops()
    phase("embed")
    with Pace() as pace:
        start = time.perf_counter()
        model = owner.fit(dispute.X_train, dispute.y_train)
        elapsed = time.perf_counter() - start
    samples.busy_s += elapsed
    samples.embed_s.append(elapsed * pace.factor)
    samples.paces.append(pace.factor)
    phase(None)
    samples.models += 1
    samples.rounds += model.report.rounds_t0 + model.report.rounds_t1
    samples.accuracy.append(
        float(np.mean(model.ensemble.predict(dispute.X_test) == dispute.y_test))
    )
    path = WORK_DIR / f"dispute-{index}.rfbin"
    model.save(path)

    # The judge sees the triggers hidden among the held-out rows.
    trigger = model.trigger
    order = np.random.default_rng(dispute.disclose_seed).permutation(
        len(dispute.X_test) + trigger.size
    )
    X_disclosed = np.concatenate([dispute.X_test, trigger.X])[order]
    y_disclosed = np.concatenate([dispute.y_test, trigger.y])[order]

    def claim(signature):
        secret = WatermarkSecret(signature, trigger.X, trigger.y)
        return OwnershipClaim("owner", secret, X_disclosed, y_disclosed)

    true_claim = claim(
        flip_bit(dispute.signature) if corrupt == "signature" else dispute.signature
    )
    judge = Judge()
    phase("verify")
    verify_s = []
    with Pace() as pace:
        for _ in range(spec.verifies_per_model):
            ledger.ops()
            start = time.perf_counter()
            if tracer is None:
                loaded = WatermarkedModel.load(path, mmap_mode="r")
                report = judge.verify_claim(loaded.ensemble, true_claim)
            else:
                with tracer.span("verify.load"):
                    loaded = WatermarkedModel.load(path, mmap_mode="r")
                with tracer.span("verify.judge"):
                    report = judge.verify_claim(loaded.ensemble, true_claim)
            verify_s.append(time.perf_counter() - start)
            ledger.check(report.accepted, f"dispute #{index}: true claim rejected")
    samples.busy_s += sum(verify_s)
    samples.verify_s.extend(s * pace.factor for s in verify_s)
    samples.paces.append(pace.factor)
    phase(None)
    ledger.check(
        not judge.verify_claim(loaded.ensemble, claim(flip_bit(dispute.signature))).accepted,
        f"dispute #{index}: one-bit-flipped claim accepted",
    )
    del loaded
    path.unlink()

    roots = model.ensemble.roots()
    forge_s = 0.0
    with Pace() as pace:
        for epsilon in spec.epsilons:
            phase("forge")
            start = time.perf_counter()
            if tracer is None:
                result = _forge(spec, model, dispute, epsilon)
            else:
                with tracer.span("forge.campaign"):
                    result = _forge(spec, model, dispute, epsilon)
            forge_s += time.perf_counter() - start
            phase(None)
            samples.forge_attempts += result.n_attempted
            ledger.ops(result.n_attempted)
            for status, count in result.statuses.items():
                samples.statuses[status] = samples.statuses.get(status, 0) + count
            for x, source in zip(result.forged_X, result.source_index):
                center = dispute.X_test[source]
                required = required_labels(dispute.fake, int(dispute.y_test[source]))
                ledger.check(
                    check_pattern(roots, required, x, center, epsilon)
                    and float(np.abs(x - center).max()) <= epsilon + 1e-9,
                    f"dispute #{index}: forged row from {source} fails replay",
                )
    samples.busy_s += forge_s
    samples.forge_s += forge_s * pace.factor
    samples.paces.append(pace.factor)


def _forge(spec: DisputeSpec, model, dispute: Dispute, epsilon: float):
    return forge_trigger_set(
        model.ensemble,
        dispute.fake,
        dispute.X_test,
        dispute.y_test,
        epsilon,
        max_instances=spec.rows_per_epsilon,
        solver_budget=spec.solver_budget,
        random_state=dispute.forge_seed,
    )


def _warm_up(spec: DisputeSpec, dispute: Dispute) -> None:
    """One small dispute outside the timed region (imports, first calls)."""
    small = replace(
        spec, verifies_per_model=2, rows_per_epsilon=5, epsilons=spec.epsilons[:1]
    )
    n = min(300, len(dispute.X_train))
    warm = replace(
        dispute,
        X_train=dispute.X_train[:n].copy(),
        y_train=dispute.y_train[:n].copy(),
        signature=Signature.from_iterable((0, 1, 0, 1)),
        fake=Signature.from_iterable((1, 0, 0, 1)),
    )
    run_dispute(small, warm, -1, Ledger(), Samples())


def _timed_pass(spec, disputes, ledger, seconds, count=None, tracer=None, corrupt=None):
    """Disputes in order until ``seconds`` pass (or exactly ``count``)."""
    samples = Samples()
    deadline = time.perf_counter() + seconds
    for index, dispute in enumerate(disputes):
        if count is not None and index >= count:
            break
        if count is None and index >= spec.min_models and time.perf_counter() >= deadline:
            break
        run_dispute(spec, dispute, index, ledger, samples, tracer, corrupt)
    return samples


def end_to_end(samples: Samples, setup: list[float]) -> dict:
    return {
        "setup_s": (median(setup), "s"),
        "verify_ms": (median(samples.verify_s) * 1e3, "ms"),
        "latency_p50_ms": (median(samples.embed_s) * 1e3, "ms"),
        # Pooled over the run, not a median over models: models differ
        # by up to 4x in how fast they are to forge, and with a few dozen
        # models per run the pooled rate spread less between seeds.
        "throughput_per_s": (samples.forge_attempts / samples.forge_s, "1/s"),
        "wm_test_accuracy": (float(np.mean(samples.accuracy)), "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def notes(samples: Samples, setup: list[float]) -> dict:
    verify_pct, verify_tail = tail(samples.verify_s)
    return {
        "setup_samples": len(setup),
        "embed_samples": len(samples.embed_s),
        "embed_max_ms": max(samples.embed_s) * 1e3,
        "embed_mean_ms": float(np.mean(samples.embed_s)) * 1e3,
        "verify_p25_ms": percentile(samples.verify_s, 25) * 1e3,
        "verify_mean_ms": float(np.mean(samples.verify_s)) * 1e3,
        "verify_samples": len(samples.verify_s),
        f"verify_p{verify_pct:g}_ms": verify_tail * 1e3,
        "forge_attempts": samples.forge_attempts,
        "forge_statuses": samples.statuses,
        "trigger_rounds": samples.rounds,
        "pace_median": median(samples.paces),
        "pace_range": [min(samples.paces), max(samples.paces)],
    }


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every offline layer."""
    from repro.api import pipeline
    from repro.core import adjustment, embedding, verification
    from repro.ensemble import compiled
    from repro.ensemble.compiled import CompiledEnsemble
    from repro.ensemble.forest import RandomForestClassifier
    from repro.solver import compiled_encoding
    from repro.solver.sat import SATSolver
    from repro.trees import presort, splitter
    from repro.trees.tree import DecisionTreeClassifier

    tracer.patch(pipeline.Watermarker, "fit", "embed.fit")
    tracer.patch_function(adjustment.adjust_hyperparameters, "embed.adjust")
    tracer.patch_function(embedding.train_with_trigger, "embed.train_with_trigger")
    tracer.patch(RandomForestClassifier, "fit", "forest.fit")
    tracer.patch(RandomForestClassifier, "refit_trees", "forest.refit")
    tracer.patch(RandomForestClassifier, "predict_all", "forest.predict_all")
    tracer.patch(DecisionTreeClassifier, "fit", "tree.fit")
    tracer.patch_function(splitter.find_best_split, "trees.split")
    tracer.patch_function(presort.presorted_dataset, "trees.presort")
    tracer.patch(CompiledEnsemble, "from_tables", "verify.compile")
    tracer.patch_function(compiled.compile_forest, "verify.compile")
    tracer.patch(CompiledEnsemble, "predict_all", "engine.predict_all")
    tracer.patch_function(verification.match_signature, "verify.match")
    tracer.patch_function(compiled_encoding.compile_pattern_encoding, "forge.encode")
    tracer.patch(compiled_encoding.CompiledPatternEncoding, "warm", "forge.warm")
    tracer.patch(compiled_encoding.CompiledPatternEncoding, "solve", "forge.attempt")
    tracer.patch(SATSolver, "solve", "sat.solve", keep_result=True)


def per_layer(tracer: Tracer, samples: Samples, presort_delta: dict) -> dict:
    """Layer metrics of a traced pass; see ``catalog.PER_LAYER``.

    Embedding and tree figures are per embedded model, verification
    figures per verification, SAT counters per forgery attempt.
    """
    spans = tracer.by_name()
    models = max(1, samples.models)
    checks = max(1, len(samples.verify_s))
    attempts = max(1, samples.forge_attempts)

    def named(name, phase=None):
        return [s for s in spans.get(name, ()) if phase is None or s.phase == phase]

    tree_fits = named("tree.fit")
    misfit = [s for s in named("forest.predict_all") if s.parent == "embed.train_with_trigger"]
    solves = [s.ns / 1e6 for s in named("forge.attempt")]
    sat_runs = named("sat.solve", "forge")
    encodes = named("forge.encode", "forge")
    statuses = samples.statuses
    return {
        "embed.adjust_s": total_s(named("embed.adjust")) / models,
        "embed.trigger_rounds": samples.rounds / models,
        "embed.tree_fits": len(tree_fits) / models,
        "embed.tree_fit_ms": 1e3 * total_s(tree_fits) / max(1, len(tree_fits)),
        "embed.refit_s": total_s(named("forest.refit")) / models,
        "embed.misfit_check_ms": 1e3 * total_s(misfit) / models,
        "trees.split_calls": len(named("trees.split")) / models,
        "trees.split_s": total_s(named("trees.split")) / models,
        "trees.presort_s": total_s(named("trees.presort")) / models,
        "trees.presort_hits": presort_delta["hits"] / models,
        "trees.presort_misses": presort_delta["misses"] / models,
        "verify.load_ms": 1e3 * total_s(named("verify.load")) / checks,
        "verify.compile_ms": 1e3 * total_s(named("verify.compile", "verify")) / checks,
        "verify.descent_ms": 1e3 * total_s(named("engine.predict_all", "verify")) / checks,
        "verify.match_ms": 1e3 * total_s(named("verify.match", "verify")) / checks,
        "forge.encodings": len(encodes) / models,
        "forge.encode_ms": 1e3 * (total_s(encodes) + self_s(named("forge.warm", "forge")))
        / max(1, len(encodes)),
        "forge.solve_p50_ms": percentile(solves, 50),
        "forge.solve_p99_ms": percentile(solves, 99),
        "forge.sat": statuses.get("sat", 0),
        "forge.unsat": statuses.get("unsat", 0),
        "forge.unknown": statuses.get("unknown", 0),
        "forge.success_rate": statuses.get("sat", 0) / attempts,
        "forge.prescreen_share": 1.0 - len(sat_runs) / attempts,
        "sat.conflicts": sum(s.result.conflicts for s in sat_runs) / attempts,
        "sat.decisions": sum(s.result.decisions for s in sat_runs) / attempts,
        "sat.propagations": sum(s.result.propagations for s in sat_runs) / attempts,
        "sat.solve_ms": 1e3 * total_s(sat_runs) / max(1, len(sat_runs)),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, corrupt=None, spec=None):
    """One dispute workload run: ``(ledger, e2e, layers, notes)``.

    ``layers`` is None for an untraced run.  A traced run first makes
    an untraced pass for about half its time, then repeats exactly the
    same disputes (on fresh arrays, so no cache carries over) with every
    layer wrapped; the difference is the tracing overhead.
    """
    from repro.trees.presort import presort_cache_stats

    spec = spec or SPECS[workload]
    WORK_DIR.mkdir(exist_ok=True)
    disputes, setup = make_inputs(spec, seed)
    _warm_up(spec, disputes[0])
    ledger = Ledger()
    if not trace:
        samples = _timed_pass(spec, disputes, ledger, seconds, corrupt=corrupt)
        return ledger, end_to_end(samples, setup), None, notes(samples, setup)

    plain = _timed_pass(spec, disputes, ledger, seconds / 2, corrupt=corrupt)
    tracer = Tracer()
    install(tracer)
    before = presort_cache_stats()
    try:
        traced = _timed_pass(
            spec, [d.copy() for d in disputes], ledger, 0.0,
            count=plain.models, tracer=tracer, corrupt=corrupt,
        )
    finally:
        tracer.restore()
    after = presort_cache_stats()
    layers = per_layer(
        tracer, traced, {k: after.get(k, 0) - before.get(k, 0) for k in ("hits", "misses")}
    )

    layers["trace.overhead_pct"] = 100.0 * (traced.busy_s / plain.busy_s - 1.0)
    layers["trace.spans"] = len(tracer.spans)
    layers.update(self_time_metrics(
        {name: [s.self_ns for s in spans] for name, spans in tracer.by_name().items()}
    ))
    trace_path = WORK_DIR / f"trace-{workload}-{seed}.jsonl"
    tracer.dump(trace_path)
    return ledger, end_to_end(traced, setup), layers, {
        **notes(traced, setup), "trace_file": str(trace_path)
    }
