"""Resilience under seeded chaos: availability, retries, verdict integrity.

Hosts a watermarked forest behind the daemon with a seeded
:class:`repro.faults.FaultPlan` injecting engine errors, latency
spikes, connection resets and slow writes, then drives it with the
resilient :class:`repro.serve.ServeClient` (retries + idempotency keys).
Reports the request ledger (success / typed error / transport), attempt
amplification, and latency percentiles — and *asserts* the two chaos
invariants: the ledger balances, and the served ``/verify`` verdict is
bit-for-bit the offline ``detect_bits`` answer (retries never
double-count the suppression statistic).  Emits
``results/resilience.{txt,json}``.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import emit, is_quick

from repro.attacks.detection import behavioural_rates, detect_bits
from repro.api import EmbeddingSchedule, TrainerConfig, TriggerPolicy, Watermarker
from repro.core import random_signature
from repro.datasets import breast_cancer_like
from repro.experiments import format_table
from repro.faults import FaultPlan
from repro.serve import (
    BackgroundServer,
    ModelRegistry,
    RetryPolicy,
    ServeClientError,
    ServeConnectionError,
    ServeTimeout,
)

SEED = 20260808


def _build_model(m_bits: int):
    ds = breast_cancer_like(300, random_state=23)
    signature = random_signature(m_bits, ones_fraction=0.5, random_state=24)
    model = Watermarker(
        signature=signature,
        trigger=TriggerPolicy(size=6),
        schedule=EmbeddingSchedule(escalation_factor=2.0),
        trainer=TrainerConfig(
            base_params={"max_depth": 8, "min_samples_leaf": 1}, tree_feature_fraction=0.5
        ),
        random_state=25,
    ).fit(ds.X, ds.y)
    return model, ds.X


def _chaos_run(model, X, *, rate: float, n_requests: int, rows_per: int):
    injector = FaultPlan.chaos(SEED, rate=rate).compile()
    registry = ModelRegistry(fault_injector=injector, max_failures=10**6)
    registry.add("wm", model)
    retry = RetryPolicy(max_attempts=8, base_delay=0.005, max_delay=0.02)

    ledger = {"ok": 0, "typed_4xx": 0, "typed_5xx": 0, "transport": 0}
    latencies = []
    with BackgroundServer(
        registry, max_batch_rows=1, fault_injector=injector
    ) as server:
        with server.client(timeout=5.0, retry=retry, retry_seed=SEED) as client:
            for i in range(n_requests):
                start = (i * rows_per) % (len(X) - rows_per)
                rows = X[start : start + rows_per]
                t0 = time.perf_counter()
                try:
                    client.predict_all("wm", rows)
                except ServeClientError as exc:
                    ledger["typed_4xx" if exc.status < 500 else "typed_5xx"] += 1
                except (ServeTimeout, ServeConnectionError):
                    ledger["transport"] += 1
                else:
                    ledger["ok"] += 1
                latencies.append(time.perf_counter() - t0)
            verdict = client.verify(
                "wm", model.signature.to_string(), strategy="bands"
            )
            attempts, retries = client.n_attempts, client.n_retries
        n_queries = registry.get("wm").n_queries

    # -- invariants -----------------------------------------------------
    # Ledger balances: every request landed in exactly one bucket.
    assert sum(ledger.values()) == n_requests
    # Verdict integrity: rows served exactly once per successful logical
    # request, and the served verdict equals the offline detection over
    # those same queries.
    assert n_queries == ledger["ok"] * rows_per
    served_rows = [
        X[(i * rows_per) % (len(X) - rows_per) :][:rows_per]
        for i in range(n_requests)
    ]
    # Reconstruct which requests succeeded, in order, for the offline run.
    # The ledger does not record per-request outcomes, so recompute from
    # the observer: with every success counted once, comparing against
    # the all-success offline stream is only valid when nothing failed.
    traffic = verdict.get("traffic")
    if ledger["ok"] == n_requests:
        offline = detect_bits(
            behavioural_rates(
                model.ensemble.predict_all(np.concatenate(served_rows))
            ),
            model.signature.bits,
            "bands",
        )
        assert traffic["n_correct"] == offline.n_correct
        assert traffic["n_wrong"] == offline.n_wrong
        assert traffic["predicted"] == list(offline.predicted)

    lat = np.asarray(latencies)
    counts = injector.counts()
    return {
        "rate": rate,
        "n_requests": n_requests,
        "ok": ledger["ok"],
        "typed_4xx": ledger["typed_4xx"],
        "typed_5xx": ledger["typed_5xx"],
        "transport": ledger["transport"],
        "availability": ledger["ok"] / n_requests,
        "attempts": attempts,
        "retries": retries,
        "amplification": attempts / max(1, n_requests + 1),
        "p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "p99_ms": float(np.percentile(lat, 99)) * 1e3,
        "faults_fired": sum(c["fired"] for c in counts.values()),
    }


def test_resilience_under_chaos(benchmark, quick_mode):
    m_bits = 10 if quick_mode else 16
    n_requests = 60 if quick_mode else 400
    rows_per = 4
    rates = [0.0, 0.1, 0.3] if quick_mode else [0.0, 0.1, 0.2, 0.3]

    model, X = _build_model(m_bits)
    model.ensemble.predict_all(X[:8])  # compile outside the timed region

    def _run():
        return [
            _chaos_run(
                model, X, rate=rate, n_requests=n_requests, rows_per=rows_per
            )
            for rate in rates
        ]

    rows = benchmark.pedantic(_run, rounds=1, iterations=1)

    headers = [
        "Fault rate", "Requests", "OK", "5xx", "Transport",
        "Availability", "Attempts", "p50 (ms)", "p99 (ms)", "Faults fired",
    ]
    cells = [
        [
            f"{r['rate']:.0%}",
            r["n_requests"],
            r["ok"],
            r["typed_5xx"],
            r["transport"],
            f"{r['availability']:.1%}",
            r["attempts"],
            f"{r['p50_ms']:.2f}",
            f"{r['p99_ms']:.2f}",
            r["faults_fired"],
        ]
        for r in rows
    ]
    clean, worst = rows[0], rows[-1]
    text = format_table(headers, cells)
    text += (
        f"\n\n{m_bits}-bit watermark, {n_requests} logical requests of "
        f"{rows_per} rows, retry budget 8 attempts"
        f"\nledger balances at every rate; verdict checked bit-for-bit "
        f"against offline detect_bits on all-success runs"
        f"\navailability at {worst['rate']:.0%} faults: "
        f"{worst['availability']:.1%} "
        f"(attempt amplification {worst['attempts'] / clean['attempts']:.2f}x)"
    )
    emit(
        "resilience",
        text,
        headers=headers,
        rows=cells,
        metrics={
            "m_bits": m_bits,
            "n_requests": n_requests,
            "rates": [r["rate"] for r in rows],
            "availability": [r["availability"] for r in rows],
            "attempts": [r["attempts"] for r in rows],
            "p50_ms": [r["p50_ms"] for r in rows],
            "p99_ms": [r["p99_ms"] for r in rows],
            "faults_fired": [r["faults_fired"] for r in rows],
        },
    )

    # A clean run is fully available; retries keep availability high
    # even at the worst injected rate.
    assert clean["availability"] == 1.0
    assert clean["faults_fired"] == 0
    assert worst["faults_fired"] > 0
    assert worst["availability"] >= 0.5
