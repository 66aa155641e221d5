"""End-to-end daemon tests over real sockets (BackgroundServer)."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.attacks.detection import behavioural_rates, detect_bits
from repro.exceptions import ValidationError
from repro.serve import (
    BackgroundServer,
    ModelRegistry,
    ServeClientError,
    ServingDaemon,
    ServingUnavailable,
)

@pytest.fixture()
def registry(wm_model):
    registry = ModelRegistry()
    registry.add("wm", wm_model)
    return registry


@pytest.fixture()
def server(registry):
    with BackgroundServer(registry) as server:
        yield server


class TestEndpoints:
    def test_health_and_listing(self, server):
        with server.client() as client:
            health = client.health()
            assert health["status"] == "ok"
            assert health["models"] == ["wm"]
            (info,) = client.models()
            assert info["name"] == "wm"
            assert info["n_trees"] == 10
            assert info["observer"] == "suppression-distinguisher"
            assert info["batching"]["n_requests"] == 0

    def test_predict_matches_direct(self, server, wm_model, bc_data):
        X = bc_data[0][:16]
        with server.client() as client:
            out = client.predict("wm", X)
        assert out["predictions"] == wm_model.ensemble.predict(X).tolist()

    def test_predict_all_matches_direct(self, server, wm_model, bc_data):
        X = bc_data[0][:16]
        with server.client() as client:
            out = client.predict_all("wm", X)
        assert np.array_equal(
            np.asarray(out["per_tree"]), wm_model.ensemble.predict_all(X)
        )

    def test_microbatched_concurrent_clients_equal_direct(
        self, server, wm_model, bc_data
    ):
        """Many single-row clients; fused answers == direct predict_all."""
        X = bc_data[0][:24]
        direct = wm_model.ensemble.predict_all(X)
        results: dict[int, list] = {}
        errors: list = []
        barrier = threading.Barrier(8)

        def worker(slot: int) -> None:
            try:
                barrier.wait(timeout=30)
                with server.client() as client:
                    rows = [X[i] for i in range(slot, 24, 8)]
                    results[slot] = [
                        client.predict_all("wm", row.reshape(1, -1))["per_tree"]
                        for row in rows
                    ]
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, f"client failed: {errors[0]!r}"
        for slot, answers in results.items():
            for answer, column in zip(answers, range(slot, 24, 8)):
                assert np.array_equal(
                    np.asarray(answer)[:, 0], direct[:, column]
                )
        stats = server.daemon.batcher("wm").stats()
        assert stats["n_requests"] == 24
        assert stats["n_calls"] <= stats["n_requests"]

    def test_errors(self, server):
        with server.client() as client:
            status, data, _ = client.request("GET", "/nope")
            assert status == 404
            status, data, _ = client.request(
                "POST", "/v1/models/ghost/predict", {"rows": [[0.0]]}
            )
            assert status == 404 and "ghost" in data["error"]
            status, data, _ = client.request("POST", "/healthz", {})
            assert status == 405
            status, data, _ = client.request(
                "POST", "/v1/models/wm/predict", {"rows": [[1.0, 2.0]]}
            )
            assert status == 400 and "features" in data["error"]
            with pytest.raises(ServeClientError) as excinfo:
                client.predict("wm", "not-a-matrix")
            assert excinfo.value.status == 400


class TestVerifyEndpoint:
    def test_ownership_via_trigger_probe(self, server, wm_model):
        with server.client() as client:
            out = client.verify(
                "wm",
                wm_model.signature.to_string(),
                trigger_rows=wm_model.trigger.X,
                trigger_labels=wm_model.trigger.y,
            )
        ownership = out["ownership"]
        assert ownership["accepted"] is True
        assert ownership["n_matching"] == ownership["n_trees"] == 10
        # The judge's probe itself became served traffic.
        assert out["observer"]["n_queries"] == len(wm_model.trigger.X)

    def test_wrong_signature_rejected(self, server, wm_model):
        flipped = "".join(
            "1" if bit == 0 else "0" for bit in wm_model.signature.bits
        )
        with server.client() as client:
            out = client.verify(
                "wm",
                flipped,
                trigger_rows=wm_model.trigger.X,
                trigger_labels=wm_model.trigger.y,
            )
        assert out["ownership"]["accepted"] is False

    def test_traffic_verdict_equals_offline_detection(
        self, server, wm_model, bc_data
    ):
        """The /verify traffic verdict is detect_bits over served rows."""
        X = bc_data[0][:120]
        with server.client() as client:
            for start in range(0, 120, 40):
                client.predict_all("wm", X[start : start + 40])
            out = client.verify(
                "wm", wm_model.signature.to_string(), strategy="bands"
            )
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
        assert out["observer"]["n_queries"] == 120

    def test_verify_without_traffic_has_no_verdict(self, server, wm_model):
        with server.client() as client:
            out = client.verify("wm", wm_model.signature.to_string())
        assert "traffic" not in out
        assert "ownership" not in out
        assert out["observer"]["n_queries"] == 0

    def test_calibrated_alarm_reported(self, server, wm_model, bc_data):
        X = bc_data[0]
        with server.client() as client:
            client.calibrate("wm", X[:80])
            client.predict_all("wm", X[:100])
            out = client.verify("wm", wm_model.signature.to_string())
        assert out["observer"]["calibrated"] is True
        assert "alarm" in out["observer"]
        assert out["observer"]["alarm"]["fired"] in (False, True)

    def test_missing_signature_is_400(self, server):
        with server.client() as client:
            status, data, _ = client.request(
                "POST", "/v1/models/wm/verify", {"strategy": "bands"}
            )
        assert status == 400 and "signature" in data["error"]

    @pytest.mark.parametrize(
        "change, needle",
        [
            ({"signature": "0101"}, "signature has 4 bits"),
            ({"trigger_labels": "short"}, "one label per trigger row"),
            ({"trigger_labels": "fractional"}, "integers"),
            ({"trigger_labels": "zero-one"}, "among"),
            ({"trigger_labels": "nested"}, "one label per trigger row"),
            ({"mode": "loose"}, "mode"),
            ({"strategy": "median"}, "strategy"),
            ({"trigger_rows": "nan"}, "finite"),
        ],
    )
    def test_rejected_verify_leaves_the_verdict_untouched(
        self, server, wm_model, change, needle
    ):
        """A 400 from /verify serves nothing: n_queries does not move."""
        trigger_X, trigger_y = wm_model.trigger.X, wm_model.trigger.y
        labels = {
            "short": trigger_y[:-1].tolist(),
            "fractional": [1.7] + trigger_y[1:].tolist(),
            "zero-one": ((trigger_y + 1) // 2).tolist(),
            "nested": trigger_y.reshape(-1, 1).tolist(),
        }
        payload = {
            "signature": wm_model.signature.to_string(),
            "trigger_rows": trigger_X.tolist(),
            "trigger_labels": trigger_y.tolist(),
            **change,
        }
        if change.get("trigger_labels") in labels:
            payload["trigger_labels"] = labels[change["trigger_labels"]]
        with server.client() as client:
            client.predict_all("wm", trigger_X[:3])
            if change.get("trigger_rows") == "nan":
                payload["trigger_rows"] = trigger_X.tolist()
                body = _with_constant(payload, "trigger_rows", "NaN")
                status, data = _post_raw(client, "/v1/models/wm/verify", body)
            else:
                status, data, _ = client.request(
                    "POST", "/v1/models/wm/verify", payload
                )
            assert status == 400 and needle in data["error"], data
            out = client.verify("wm", wm_model.signature.to_string())
        assert out["observer"]["n_queries"] == 3


class TestNonFiniteRows:
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_row_is_400(self, server, wm_model, constant):
        width = wm_model.ensemble.n_features_in_
        body = _with_constant({"rows": [[0.0] * width]}, "rows", constant)
        with server.client() as client:
            status, data = _post_raw(client, "/v1/models/wm/predict_all", body)
            assert status == 400 and "finite" in data["error"]
            assert client.models()[0]["batching"]["n_requests"] == 0

    def test_non_finite_rows_spare_co_batched_requests_and_the_budget(
        self, wm_model, bc_data
    ):
        """NaN probes racing honest traffic on a slow engine.

        Requests that arrive during a call fuse into the next one, so
        the NaN probes would share batches with honest rows if they got
        that far.  They must answer 400 alone: every honest request
        succeeds, and the failure budget is never charged.
        """
        registry = ModelRegistry(max_failures=2)
        served = registry.add("wm", wm_model)
        real = served.serve_batch

        def slow_serve(X):
            time.sleep(0.01)
            return real(X)

        served.serve_batch = slow_serve
        X = bc_data[0][:32]
        direct = wm_model.ensemble.predict_all(X)
        nan_body = _with_constant({"rows": X[:1].tolist()}, "rows", "NaN")
        errors: list = []
        statuses: list = []

        def honest(slot: int) -> None:
            try:
                with server.client() as client:
                    for i in range(slot, 32, 4):
                        out = client.predict_all("wm", X[i].reshape(1, -1))
                        assert np.array_equal(
                            np.asarray(out["per_tree"])[:, 0], direct[:, i]
                        )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def poisoner() -> None:
            try:
                with server.client() as client:
                    for _ in range(8):
                        statuses.append(
                            _post_raw(client, "/v1/models/wm/predict_all",
                                      nan_body)[0]
                        )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        with BackgroundServer(registry) as server:
            threads = [threading.Thread(target=honest, args=(s,)) for s in range(4)]
            threads += [threading.Thread(target=poisoner) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            with server.client() as client:
                health = client.health()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, f"request failed: {errors[0]!r}"
        assert statuses == [400] * 16
        assert served.budget.n_failures == 0
        assert health["model_health"] == {"wm": "healthy"}
        assert served.n_queries == 32


class TestDaemonConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_rows": 0},
            {"max_queue_rows": -5},
            {"max_concurrent_batches": 0},
            {"max_batch_rows": 2.5},
            {"max_concurrent_batches": True},
        ],
    )
    def test_invalid_batcher_sizes_rejected(self, registry, kwargs):
        # The daemon builds its batchers at construction, so a bad size
        # fails here, before anything listens.
        with pytest.raises(ValidationError, match="must be"):
            ServingDaemon(registry, **kwargs)


class TestBackpressure:
    def test_backlog_full_gives_429_with_retry_after(self, wm_model):
        registry = ModelRegistry()
        served = registry.add("wm", wm_model)
        real = served.serve_batch

        def slow_serve(X):
            time.sleep(0.4)
            return real(X)

        served.serve_batch = slow_serve
        with BackgroundServer(
            registry,
            max_batch_rows=8,
            max_queue_rows=10,
            max_concurrent_batches=1,
        ) as server:
            X = np.zeros((8, wm_model.ensemble.n_features_in_))
            first_error: list = []

            def occupy() -> None:
                try:
                    with server.client() as client:
                        client.predict_all("wm", X)
                except BaseException as exc:  # noqa: BLE001
                    first_error.append(exc)

            thread = threading.Thread(target=occupy)
            thread.start()
            time.sleep(0.1)  # the first batch is now inside the engine
            with server.client() as client:
                with pytest.raises(ServingUnavailable) as excinfo:
                    client.predict_all("wm", X)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after >= 1
            thread.join(timeout=30)
            assert not first_error, f"first request failed: {first_error[0]!r}"

    def test_payload_too_large_is_413(self, wm_model):
        registry = ModelRegistry()
        registry.add("wm", wm_model)
        with BackgroundServer(registry, max_body_bytes=256) as server:
            with server.client() as client:
                status, data, _ = client.request(
                    "POST",
                    "/v1/models/wm/predict",
                    {"rows": [[0.0] * 30] * 10},
                )
        assert status == 413


class TestStrictJSON:
    def test_responses_are_strict_json(self, server, wm_model):
        """Raw bytes parse under a strict JSON parser (no NaN/Infinity)."""

        def reject_constants(value):  # json.loads hook for NaN/Infinity
            raise AssertionError(f"non-standard JSON constant {value!r}")

        with server.client() as client:
            for status, raw in _raw_responses(client, wm_model):
                json.loads(raw.decode("utf-8"), parse_constant=reject_constants)


def _with_constant(payload: dict, key: str, constant: str) -> str:
    """``payload`` as JSON with ``payload[key][0][0]`` set to ``constant``
    (``NaN``/``Infinity``: Python's parser accepts them, strict JSON not)."""
    sentinel = 918273.6455
    rows = [list(row) for row in payload[key]]
    rows[0][0] = sentinel
    body = json.dumps({**payload, key: rows})
    return body.replace(repr(sentinel), constant, 1)


def _post_raw(client, path, body: str):
    """POST a hand-written body (which may carry ``NaN``) → (status, json)."""
    conn = client._conn
    conn.request(
        "POST", path, body=body, headers={"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read().decode("utf-8"))


def _raw_responses(client, wm_model):
    """Drive a few endpoints, yielding raw (status, body) pairs."""
    conn = client._conn
    requests = [
        ("GET", "/healthz", None),
        ("GET", "/v1/models", None),
        (
            "POST",
            "/v1/models/wm/verify",
            {"signature": wm_model.signature.to_string()},
        ),
        ("POST", "/v1/models/wm/predict", {"rows": "bogus"}),
    ]
    for method, path, payload in requests:
        body = None if payload is None else json.dumps(payload)
        conn.request(
            method, path, body=body,
            headers={"Content-Type": "application/json"} if body else {},
        )
        response = conn.getresponse()
        yield response.status, response.read()
