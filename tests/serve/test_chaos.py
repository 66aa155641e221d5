"""Chaos battery: seeded fault plans over the full serving stack.

The two invariants the resilience layer exists for:

1. **Ledger**: under injected faults every logical request ends in
   exactly one of {success with *correct* data, typed client error,
   honest 5xx / typed transport failure} — never a hang, never a wrong
   answer, never an untyped exception.
2. **Verdict integrity**: with retries and idempotency keys in play,
   the served ``/verify`` traffic verdict stays bit-for-bit equal to
   offline ``detect_bits(behavioural_rates(...))`` over the logical
   queries — a retried batch is never double-counted.

Everything is seeded (fault plan, retry jitter), so a chaos run is a
deterministic regression test, not a flake generator.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.attacks.detection import behavioural_rates, detect_bits
from repro.faults import FaultPlan, FaultSpec
from repro.persistence import save
from repro.serve import (
    BackgroundServer,
    ModelRegistry,
    RetryPolicy,
    ServeClientError,
    ServeConnectionError,
    ServeTimeout,
    ServingUnavailable,
)

CHAOS_SEED = 20260808
RETRY = RetryPolicy(max_attempts=8, base_delay=0.005, max_delay=0.02)


def _chaos_registry(wm_model, injector, **budget):
    budget.setdefault("max_failures", 10**6)  # quarantine tested separately
    registry = ModelRegistry(fault_injector=injector, **budget)
    registry.add("wm", wm_model)
    return registry


def _drive(server, X, n_requests, rows_per_request, *, seed):
    """Sequential chaos client; returns the outcome ledger."""
    outcomes = []
    with server.client(timeout=5.0, retry=RETRY, retry_seed=seed) as client:
        for i in range(n_requests):
            start = (i * rows_per_request) % (len(X) - rows_per_request)
            rows = X[start : start + rows_per_request]
            try:
                out = client.predict_all("wm", rows)
            except ServingUnavailable as exc:
                outcomes.append(("unavailable", exc.status))
            except ServeClientError as exc:
                kind = "client-error" if exc.status < 500 else "server-error"
                outcomes.append((kind, exc.status))
            except (ServeTimeout, ServeConnectionError):
                outcomes.append(("transport", None))
            else:
                outcomes.append(("ok", out["n_rows"]))
        retries = client.n_retries
    return outcomes, retries


class TestLedgerInvariant:
    def test_every_request_lands_in_exactly_one_bucket(
        self, wm_model, bc_data
    ):
        """10-30% faults: correct successes or typed failures, nothing else."""
        X = bc_data[0]
        direct = wm_model.ensemble.predict_all(X)
        injector = FaultPlan.chaos(CHAOS_SEED, rate=0.25).compile()
        registry = _chaos_registry(wm_model, injector)
        n_requests, rows_per = 40, 4

        with BackgroundServer(
            registry, max_batch_rows=1, fault_injector=injector
        ) as server:
            outcomes = []
            with server.client(
                timeout=5.0, retry=RETRY, retry_seed=CHAOS_SEED
            ) as client:
                for i in range(n_requests):
                    start = (i * rows_per) % (len(X) - rows_per)
                    rows = X[start : start + rows_per]
                    try:
                        out = client.predict_all("wm", rows)
                    except ServeClientError as exc:
                        # Typed, with an honest status: 4xx means "your
                        # request", 5xx means "the engine".
                        assert 400 <= exc.status < 600
                        outcomes.append("error")
                    except (ServeTimeout, ServeConnectionError):
                        outcomes.append("transport")
                    else:
                        # Success must mean *correct*: the response
                        # equals the offline engine answer exactly.
                        assert np.array_equal(
                            np.asarray(out["per_tree"]),
                            direct[:, start : start + rows_per],
                        )
                        outcomes.append("ok")

        assert len(outcomes) == n_requests
        # The plan really did hurt: faults fired at every covered site,
        # yet retries recovered most of the traffic.
        counts = injector.counts()
        assert counts["engine.call"]["fired"] > 0
        assert counts["conn.reset"]["fired"] > 0
        assert outcomes.count("ok") > n_requests // 2

    def test_same_seed_replays_the_same_run(self, wm_model, bc_data):
        """The whole chaos run is a pure function of its seeds."""
        X = bc_data[0]

        def one_run():
            injector = FaultPlan.chaos(CHAOS_SEED, rate=0.25).compile()
            registry = _chaos_registry(wm_model, injector)
            with BackgroundServer(
                registry, max_batch_rows=1, fault_injector=injector
            ) as server:
                outcomes, retries = _drive(
                    server, X, 30, 4, seed=CHAOS_SEED
                )
            return outcomes, retries, injector.counts()

        first = one_run()
        second = one_run()
        assert first == second


class TestVerdictUnderChaos:
    def test_served_verdict_equals_offline_despite_faults(
        self, wm_model, bc_data
    ):
        """Retries + idempotency keep the Table-2 statistic exact."""
        X = bc_data[0][:120]
        injector = FaultPlan.chaos(CHAOS_SEED, rate=0.2).compile()
        registry = _chaos_registry(wm_model, injector)

        with BackgroundServer(
            registry, max_batch_rows=1, fault_injector=injector
        ) as server:
            with server.client(
                timeout=5.0, retry=RETRY, retry_seed=CHAOS_SEED
            ) as client:
                for start in range(0, 120, 8):
                    client.predict_all("wm", X[start : start + 8])
                out = client.verify(
                    "wm", wm_model.signature.to_string(), strategy="bands"
                )
                retries = client.n_retries
            served = registry.get("wm")
            n_queries = served.n_queries

        # Every row was counted exactly once — retries and replayed
        # responses never inflate the stream.
        assert n_queries == 120
        assert out["observer"]["n_queries"] == 120
        # The run must actually have retried (otherwise this test
        # proves nothing about dedup).
        assert retries > 0
        offline = detect_bits(
            behavioural_rates(wm_model.ensemble.predict_all(X)),
            wm_model.signature.bits,
            "bands",
        )
        traffic = out["traffic"]
        assert traffic["n_correct"] == offline.n_correct
        assert traffic["n_wrong"] == offline.n_wrong
        assert traffic["n_uncertain"] == offline.n_uncertain
        assert traffic["predicted"] == list(offline.predicted)
        assert traffic["mean"] == pytest.approx(offline.mean)


class TestIdempotencyDedup:
    def test_same_key_served_once(self, wm_model, bc_data):
        X = bc_data[0][:4]
        registry = ModelRegistry()
        registry.add("wm", wm_model)
        with BackgroundServer(registry, max_batch_rows=1) as server:
            with server.client() as client:
                payload = {"rows": X.tolist()}
                headers = {"Idempotency-Key": "dedup-me"}
                s1, d1, _ = client.request(
                    "POST", "/v1/models/wm/predict_all", payload,
                    headers=headers,
                )
                s2, d2, _ = client.request(
                    "POST", "/v1/models/wm/predict_all", payload,
                    headers=headers,
                )
                # A different key is a different logical request.
                s3, _, _ = client.request(
                    "POST", "/v1/models/wm/predict_all", payload,
                    headers={"Idempotency-Key": "another"},
                )
            n_queries = registry.get("wm").n_queries
        assert s1 == s2 == s3 == 200
        assert d1 == d2  # replayed verbatim
        assert n_queries == 8  # 4 rows x 2 logical requests, not 3

    def test_key_is_scoped_by_route(self, wm_model, bc_data):
        X = bc_data[0][:2]
        registry = ModelRegistry()
        registry.add("wm", wm_model)
        with BackgroundServer(registry, max_batch_rows=1) as server:
            with server.client() as client:
                headers = {"Idempotency-Key": "shared"}
                s1, d1, _ = client.request(
                    "POST", "/v1/models/wm/predict_all",
                    {"rows": X.tolist()}, headers=headers,
                )
                s2, d2, _ = client.request(
                    "POST", "/v1/models/wm/predict",
                    {"rows": X.tolist()}, headers=headers,
                )
        assert s1 == s2 == 200
        assert "per_tree" in d1 and "predictions" in d2  # not a replay


class TestQuarantine:
    def test_failing_model_quarantined_then_recovers(self, wm_model, bc_data):
        X = bc_data[0][:2]
        # Every engine call fails until the injector is disarmed.
        plan = FaultPlan(
            [FaultSpec(site="engine.call", rate=1.0, kinds=("error",))],
            seed=1,
        )
        injector = plan.compile()
        registry = ModelRegistry(
            fault_injector=injector,
            max_failures=2,
            failure_window=30.0,
            quarantine_seconds=0.5,
        )
        served = registry.add("wm", wm_model)
        with BackgroundServer(registry, max_batch_rows=1) as server:
            with server.client() as client:
                # First failure: degraded, honest 503.
                with pytest.raises(ServeClientError) as excinfo:
                    client.predict_all("wm", X)
                assert excinfo.value.status == 503
                assert client.health()["status"] == "degraded"
                assert client.health()["model_health"]["wm"] == "degraded"

                # Second failure trips the budget: quarantined.
                with pytest.raises(ServeClientError):
                    client.predict_all("wm", X)
                assert client.health()["model_health"]["wm"] == "quarantined"

                # Fail-fast while quarantined: 503 without an engine call.
                engine_events = injector.counts()["engine.call"]["events"]
                status, data, headers = client.request(
                    "POST",
                    "/v1/models/wm/predict_all",
                    {"rows": X.tolist()},
                )
                assert status == 503
                assert "quarantined" in data["error"]
                assert int(headers["Retry-After"]) >= 1
                assert (
                    injector.counts()["engine.call"]["events"]
                    == engine_events
                )

                # Disarm the faults; after the cooldown traffic flows.
                served.fault_injector = None
                time.sleep(0.6)
                out = client.predict_all("wm", X)
                assert out["n_rows"] == 2
                assert client.health()["status"] == "ok"
                assert client.health()["model_health"]["wm"] == "healthy"


class TestHotReload:
    def test_reload_swaps_engine_and_resets_observer(
        self, wm_model, bc_forest, bc_data, tmp_path
    ):
        X = bc_data[0][:8]
        artefact = tmp_path / "fresh.rfbin"
        save(bc_forest, artefact)
        registry = ModelRegistry()
        registry.add("wm", wm_model)
        with BackgroundServer(registry, max_batch_rows=1) as server:
            with server.client() as client:
                client.predict_all("wm", X)  # some pre-reload traffic
                out = client.reload("wm", artefact)
                assert out["reloaded"] is True
                assert out["watermarked"] is False
                assert out["n_queries"] == 0  # fresh engine, fresh stream
                post = client.predict("wm", X)
            assert registry.get("wm").source == str(artefact)
        assert post["predictions"] == bc_forest.predict(X).tolist()

    def test_corrupt_artefact_rejected_old_engine_kept(
        self, wm_model, bc_forest, bc_data, tmp_path
    ):
        X = bc_data[0][:8]
        direct = wm_model.ensemble.predict_all(X)
        artefact = tmp_path / "fresh.rfbin"
        save(bc_forest, artefact)
        # Truncate: the loader must refuse it before any swap happens.
        blob = artefact.read_bytes()
        artefact.write_bytes(blob[: len(blob) // 2])
        registry = ModelRegistry()
        registry.add("wm", wm_model)
        with BackgroundServer(registry, max_batch_rows=1) as server:
            with server.client() as client:
                with pytest.raises(ServeClientError) as excinfo:
                    client.reload("wm", artefact)
                assert excinfo.value.status == 409
                assert "old engine kept" in excinfo.value.payload["error"]
                out = client.predict_all("wm", X)
        assert np.array_equal(np.asarray(out["per_tree"]), direct)

    def test_injected_corruption_rejected(
        self, wm_model, bc_forest, bc_data, tmp_path
    ):
        """The artefact.corrupt site: a bit flip must fail the CRC gate."""
        artefact = tmp_path / "fresh.rfbin"
        save(bc_forest, artefact)
        plan = FaultPlan(
            [FaultSpec(site="artefact.corrupt", rate=1.0)], seed=3
        )
        registry = ModelRegistry(fault_injector=plan.compile())
        registry.add("wm", wm_model)
        with BackgroundServer(registry, max_batch_rows=1) as server:
            with server.client() as client:
                with pytest.raises(ServeClientError) as excinfo:
                    client.reload("wm", artefact)
                assert excinfo.value.status == 409
                out = client.predict_all("wm", bc_data[0][:4])
        assert np.asarray(out["per_tree"]).shape == (10, 4)

    def test_reload_unknown_model_is_404(self, wm_model, tmp_path):
        registry = ModelRegistry()
        registry.add("wm", wm_model)
        with BackgroundServer(registry) as server:
            with server.client() as client:
                with pytest.raises(ServeClientError) as excinfo:
                    client.reload("ghost", tmp_path / "nope.rfbin")
                assert excinfo.value.status == 404

    def test_reload_missing_file_is_409(self, wm_model, tmp_path):
        registry = ModelRegistry()
        registry.add("wm", wm_model)
        with BackgroundServer(registry) as server:
            with server.client() as client:
                with pytest.raises(ServeClientError) as excinfo:
                    client.reload("wm", tmp_path / "missing.rfbin")
                assert excinfo.value.status == 409


class TestReadTimeout:
    def test_slow_loris_connection_is_cut(self, wm_model):
        registry = ModelRegistry()
        registry.add("wm", wm_model)
        with BackgroundServer(registry, read_timeout=0.3) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=5.0
            ) as sock:
                sock.sendall(b"POST /v1/models/wm/predict HTTP/1.1\r\n")
                sock.settimeout(5.0)
                start = time.monotonic()
                # The daemon must cut us off, not wait forever for the
                # rest of the head.
                assert sock.recv(1024) == b""
                assert time.monotonic() - start < 3.0

    def test_fast_requests_unaffected(self, wm_model, bc_data):
        registry = ModelRegistry()
        registry.add("wm", wm_model)
        with BackgroundServer(registry, read_timeout=0.5) as server:
            with server.client() as client:
                for _ in range(3):
                    out = client.predict_all("wm", bc_data[0][:2])
                    assert out["n_rows"] == 2


class TestCalibrateRace:
    def test_concurrent_calibrate_and_traffic(self, wm_model, bc_data):
        """Calibration racing served traffic: no errors, sane end state."""
        X = bc_data[0]
        direct = wm_model.ensemble.predict_all(X)
        registry = ModelRegistry()
        registry.add("wm", wm_model)
        errors: list = []
        with BackgroundServer(registry) as server:

            def traffic(slot: int) -> None:
                try:
                    with server.client() as client:
                        for i in range(slot, 96, 4):
                            out = client.predict_all(
                                "wm", X[i].reshape(1, -1)
                            )
                            assert np.array_equal(
                                np.asarray(out["per_tree"])[:, 0],
                                direct[:, i],
                            )
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            def calibrator() -> None:
                try:
                    with server.client() as client:
                        for _ in range(3):
                            client.calibrate("wm", X[:40])
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=traffic, args=(slot,))
                for slot in range(4)
            ]
            threads.append(threading.Thread(target=calibrator))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors, f"racy failure: {errors[0]!r}"
            with server.client() as client:
                out = client.verify("wm", wm_model.signature.to_string())
            assert out["observer"]["calibrated"] is True
