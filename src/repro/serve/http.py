"""Asyncio HTTP/1.1 serving daemon — stdlib only, no framework.

The deployment surface the paper's threat model assumes: the owner
hosts watermarked forests behind a per-tree query interface, millions of
black-box queries stream through it, and the judge can run the Table-2
verification protocol over exactly that served traffic.

Endpoints (all JSON; strict RFC 8259 — never ``Infinity``/``NaN``):

``GET  /healthz``
    Liveness + drain state.
``GET  /v1/models``
    Registry listing with per-model batcher statistics.
``POST /v1/models/{name}/predict``
    ``{"rows": [[...], ...]}`` → majority-vote labels.
``POST /v1/models/{name}/predict_all``
    ``{"rows": [[...], ...]}`` → per-tree label matrix
    (``(n_trees, n_rows)``) — the ``predict.all`` interface.
``POST /v1/models/{name}/verify``
    Judge protocol: ``{"signature": "0101...", "strategy": "bands",
    "mode": "strict", "trigger_rows": [[...]], "trigger_labels":
    [...]}``.  Trigger probes are served through the same micro-batched
    path as any other traffic (they *are* traffic); the response carries
    the trigger-set ownership report and the Table-2 detection verdict
    over everything the model has served.  A rejected request (``400``)
    serves nothing, so it leaves the streamed verdict untouched.
``POST /v1/models/{name}/calibrate``
    ``{"rows": [[...]]}`` → calibrate the streaming observer's benign
    baseline so its sequential alarm becomes meaningful.

``POST /admin/reload``
    ``{"model": "name", "path": "new.rfbin"}`` → hot-swap the served
    engine.  The artefact is fully loaded and CRC-verified *before*
    the swap; a corrupt or missing file answers ``409`` and the old
    engine keeps serving.

Framing is hand-rolled over ``asyncio`` streams: request line, headers,
``Content-Length`` body, persistent connections.  Engine calls run on a
thread executor via the per-model :class:`~repro.serve.batching.MicroBatcher`
(an idle engine serves at once; requests arriving during a call fuse
into the next), which also provides row-based backpressure (full
backlog → ``429`` with ``Retry-After``); a ``NaN``/``Infinity`` row
answers ``400`` before it can join a fused batch.  :meth:`ServingDaemon.drain`
shuts down gracefully: stop accepting, flush every batcher, let
in-flight responses complete, then close lingering connections.

Failure modes are first-class (PR 9):

- ``read_timeout`` bounds how long a peer may dribble its request head
  or body (slow-loris defence); ``request_timeout`` bounds each engine
  call, answering an honest ``503`` when the executor hangs;
- engine failures are charged to the model's
  :class:`~repro.serve.resilience.FailureBudget` — a repeatedly-failing
  model is quarantined (``503`` + ``Retry-After`` for that model only;
  ``/healthz`` reports ``healthy``/``degraded``/``quarantined`` per
  model) instead of taking the daemon down;
- requests carrying an ``Idempotency-Key`` header are deduplicated via
  an :class:`~repro.serve.resilience.IdempotencyCache`: concurrent
  duplicates coalesce onto the original's outcome and retries replay
  the stored response, so a retried ``predict_all``/``verify`` is
  served exactly once and the streamed suppression statistic is never
  double-counted;
- a seeded :class:`repro.faults.FaultInjector` can be threaded through
  ``fault_injector=`` (daemon → batchers, registry → models) to make
  all of the above deterministically testable; the production default
  is ``None`` — no overhead.
"""

from __future__ import annotations

import asyncio
import json
import math

import numpy as np

from .._jsonsafe import dumps, finite_or_none, json_safe
from ..attacks.detection import STRATEGIES, DetectionResult
from ..core.signature import Signature
from ..core.verification import match_signature
from ..exceptions import ReproError, ValidationError
from .batching import Backpressure, MicroBatcher
from .registry import ModelRegistry, ServedModel
from .resilience import IdempotencyCache, RequestAbandoned

__all__ = ["HTTPError", "ServingDaemon"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_MAX_HEADERS = 100


class HTTPError(Exception):
    """A request failure with a definite status code."""

    def __init__(self, status: int, message: str, headers: tuple = ()) -> None:
        super().__init__(message)
        self.status = int(status)
        self.message = message
        self.headers = tuple(headers)


async def _read_request(reader: asyncio.StreamReader, *, max_body: int):
    """Parse one request; ``None`` when the peer closed the connection."""
    # One await for the whole request head: at thousands of requests
    # per second the per-await event-loop hop is a measurable cost, so
    # the request line and headers are read with a single ``readuntil``
    # (the reader's buffer limit bounds the head size → 431 beyond it).
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HTTPError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HTTPError(431, "request head too large") from None
    except ConnectionResetError:
        return None
    lines = head[:-4].split(b"\r\n")
    try:
        method, target, _version = lines[0].decode("latin-1").split()
    except ValueError:
        raise HTTPError(400, "malformed request line") from None
    if len(lines) - 1 > _MAX_HEADERS:
        raise HTTPError(431, "too many header fields")

    headers: dict[str, str] = {}
    for raw in lines[1:]:
        name, sep, value = raw.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()

    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise HTTPError(400, "bad Content-Length") from None
    if length < 0:
        raise HTTPError(400, "bad Content-Length")
    if length > max_body:
        raise HTTPError(413, f"body of {length} bytes exceeds limit {max_body}")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            return None
    return method.upper(), target, headers, body


def _encode_response(
    status: int, payload: dict, *, keep_alive: bool, extra: tuple = ()
) -> bytes:
    try:
        # Fast path: handlers build plain-typed payloads, and strict
        # ``dumps`` (allow_nan=False) rejects anything that is not —
        # the ``json_safe`` walk is only paid on the rare payload that
        # still carries numpy scalars or non-finite floats.
        body = dumps(payload).encode("utf-8")
    except (TypeError, ValueError):
        body = dumps(json_safe(payload)).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _parse_json(body: bytes) -> dict:
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HTTPError(400, f"request body is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise HTTPError(400, "request body must be a JSON object")
    return data


def _parse_rows(data: dict, served: ServedModel, key: str = "rows") -> np.ndarray:
    if key not in data:
        raise HTTPError(400, f"request needs a {key!r} array")
    try:
        X = np.asarray(data[key], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise HTTPError(400, f"{key!r} is not a numeric matrix: {exc}") from None
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[0] == 0:
        raise HTTPError(400, f"{key!r} must be a non-empty 2-D matrix")
    if not np.isfinite(X).all():  # in a fused batch it would fail every request
        raise HTTPError(400, f"{key!r} must hold finite numbers only")
    if served.n_features is not None and X.shape[1] != served.n_features:
        raise HTTPError(
            400,
            f"model {served.name!r} expects {served.n_features} features, "
            f"rows have {X.shape[1]}",
        )
    return X


def _detection_to_dict(result: DetectionResult) -> dict:
    return {
        "strategy": result.strategy,
        "statistic": result.statistic,
        "mean": finite_or_none(result.mean),
        "std": finite_or_none(result.std),
        "predicted": list(result.predicted),
        "n_correct": int(result.n_correct),
        "n_wrong": int(result.n_wrong),
        "n_uncertain": int(result.n_uncertain),
        "recovery_rate": finite_or_none(result.recovery_rate),
    }


class ServingDaemon:
    """Serve a :class:`~repro.serve.registry.ModelRegistry` over HTTP."""

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch_rows: int = 512,
        max_queue_rows: int = 8192,
        max_concurrent_batches: int = 2,
        max_body_bytes: int = 16 << 20,
        drain_grace: float = 5.0,
        request_timeout: float | None = 30.0,
        read_timeout: float | None = 30.0,
        fault_injector=None,
        idempotency_entries: int = 4096,
    ) -> None:
        if len(registry) == 0:
            raise ValidationError("the registry hosts no models")
        self.registry = registry
        self._host = host
        self._port = int(port)
        self._batchers = {
            served.name: MicroBatcher(
                served.serve_batch,
                max_batch_rows=max_batch_rows,
                max_queue_rows=max_queue_rows,
                max_concurrent=max_concurrent_batches,
                fault_injector=fault_injector,
            )
            for served in registry
        }
        self._max_body_bytes = int(max_body_bytes)
        self._drain_grace = float(drain_grace)
        self._request_timeout = (
            None if request_timeout is None else float(request_timeout)
        )
        self._read_timeout = (
            None if read_timeout is None else float(read_timeout)
        )
        self._fault_injector = fault_injector
        self._idempotency = IdempotencyCache(max_entries=idempotency_entries)

        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._busy: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()
        self._draining = False

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` ephemera."""
        assert self._server is not None, "daemon not started"
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    @property
    def draining(self) -> bool:
        return self._draining

    def batcher(self, name: str) -> MicroBatcher:
        return self._batchers[name]

    async def drain(self) -> None:
        """Graceful shutdown: refuse, flush, finish, close.

        Stops accepting connections, flushes every model's pending
        micro-batches, gives in-flight requests ``drain_grace`` seconds
        to write their responses, then closes whatever remains.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for batcher in self._batchers.values():
            await batcher.drain()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._drain_grace
        while True:
            # Idle keep-alive connections are parked in readline();
            # close them so only in-flight requests hold the drain.
            for writer in list(self._connections):
                if writer not in self._busy:
                    writer.close()
            if not self._busy or loop.time() >= deadline:
                break
            await asyncio.sleep(0.02)
        for writer in list(self._connections):
            writer.close()
        # Closed transports wake their parked handlers; wait for them so
        # the caller can stop the loop without destroying pending tasks.
        if self._handlers:
            await asyncio.wait(tuple(self._handlers), timeout=2.0)

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        self._connections.add(writer)
        try:
            while True:
                try:
                    # The read timeout bounds the whole request head +
                    # body: a slow-loris peer dribbling one header per
                    # minute (or an idle keep-alive connection) is cut
                    # off instead of holding a handler forever.
                    request = await asyncio.wait_for(
                        _read_request(reader, max_body=self._max_body_bytes),
                        timeout=self._read_timeout,
                    )
                except asyncio.TimeoutError:
                    break
                except HTTPError as exc:
                    writer.write(
                        _encode_response(
                            exc.status,
                            {"error": exc.message},
                            keep_alive=False,
                            extra=exc.headers,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                self._busy.add(writer)
                try:
                    keep_alive = (
                        not self._draining
                        and headers.get("connection", "keep-alive").lower()
                        != "close"
                    )
                    status, payload, extra = await self._respond(
                        method, target, body, headers
                    )
                    encoded = _encode_response(
                        status, payload, keep_alive=keep_alive, extra=extra
                    )
                    if await self._maybe_break_connection(writer, encoded):
                        break
                    writer.write(encoded)
                    await writer.drain()
                finally:
                    self._busy.discard(writer)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            self._busy.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _maybe_break_connection(self, writer, encoded: bytes) -> bool:
        """Connection-level fault injection (reset / slow peer).

        ``conn.reset`` writes half the response and aborts the
        transport — the client sees a reset mid-body, the canonical
        "did my request happen?" ambiguity idempotency keys resolve.
        ``conn.slow`` stalls before writing, exercising client read
        timeouts.  Returns True when the connection was torn down.
        """
        if self._fault_injector is None:
            return False
        decision = self._fault_injector.decide("conn.reset")
        if decision is not None:
            writer.write(encoded[: max(1, len(encoded) // 2)])
            transport = writer.transport
            if transport is not None:
                transport.abort()
            return True
        decision = self._fault_injector.decide("conn.slow")
        if decision is not None:
            await asyncio.sleep(decision.delay)
        return False

    async def _respond(
        self, method: str, target: str, body: bytes, headers: dict | None = None
    ):
        """Dispatch and translate failures into status codes.

        Requests carrying an ``Idempotency-Key`` go through the dedup
        cache: the first arrival executes, concurrent duplicates await
        its outcome, and later retries replay the stored response —
        the model's engine and traffic observer see each logical
        request at most once.
        """
        key = (headers or {}).get("idempotency-key")
        if not key:
            return await self._respond_once(method, target, body)
        # Scope the key by route so one client key cannot collide
        # across endpoints.
        scoped = f"{method} {target} {key}"
        while True:
            state, value = self._idempotency.claim(scoped)
            if state == "replay":
                return value
            if state == "await":
                try:
                    return await asyncio.shield(value)
                except RequestAbandoned:
                    continue  # the original died without a response; re-claim
            try:
                response = await self._respond_once(method, target, body)
            except BaseException:
                # _respond_once only raises on cancellation (it maps
                # ordinary failures to status tuples): release the key
                # so a retry can re-execute.
                self._idempotency.abandon(scoped)
                raise
            self._idempotency.complete(scoped, response)
            return response

    async def _respond_once(self, method: str, target: str, body: bytes):
        try:
            payload = await self._dispatch(method, target, body)
            return 200, payload, ()
        except HTTPError as exc:
            return exc.status, {"error": exc.message}, exc.headers
        except Backpressure as exc:
            payload = {"error": str(exc), "retry_after": exc.retry_after}
            return 429, payload, (("Retry-After", str(exc.retry_after_seconds)),)
        except ReproError as exc:
            return 400, {"error": str(exc)}, ()
        except Exception as exc:  # noqa: BLE001 - a 500 must not kill the loop
            return 500, {"error": f"internal error: {exc!r}"}, ()

    # -- routing --------------------------------------------------------

    async def _dispatch(self, method: str, target: str, body: bytes) -> dict:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._require(method, "GET")
            health = {
                served.name: served.health_state() for served in self.registry
            }
            if self._draining:
                status = "draining"
            elif all(state == "healthy" for state in health.values()):
                status = "ok"
            else:
                status = "degraded"
            return {
                "status": status,
                "models": self.registry.names(),
                "model_health": health,
            }
        if path == "/admin/reload":
            self._require(method, "POST")
            return await self._reload(body)
        if path == "/v1/models":
            self._require(method, "GET")
            return {
                "models": [
                    {**served.info(), "batching": self._batchers[served.name].stats()}
                    for served in self.registry
                ]
            }
        parts = path.strip("/").split("/")
        if len(parts) == 4 and parts[0] == "v1" and parts[1] == "models":
            name, action = parts[2], parts[3]
            try:
                served = self.registry.get(name)
            except ValidationError:
                raise HTTPError(
                    404,
                    f"no model named {name!r}; hosting: {self.registry.names()}",
                ) from None
            if action == "predict":
                self._require(method, "POST")
                return await self._predict(served, body, per_tree=False)
            if action == "predict_all":
                self._require(method, "POST")
                return await self._predict(served, body, per_tree=True)
            if action == "verify":
                self._require(method, "POST")
                return await self._verify(served, body)
            if action == "calibrate":
                self._require(method, "POST")
                return self._calibrate(served, body)
        raise HTTPError(404, f"no route for {path!r}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise HTTPError(405, f"method {method} not allowed; use {expected}")

    # -- handlers -------------------------------------------------------

    async def _serve_rows(self, served: ServedModel, X) -> np.ndarray:
        """One guarded engine call: quarantine gate, timeout, budget.

        Engine failures and timeouts answer an *honest* 5xx (the
        request definitively did not produce a served answer — the
        observer never saw it) and are charged to the model's failure
        budget; once the budget is spent the model is quarantined and
        requests fail fast with 503 + ``Retry-After`` until the
        cooldown lapses, leaving the daemon and its other models up.
        """
        if served.health_state() == "quarantined":
            retry_after = max(1, math.ceil(served.budget.retry_after()))
            raise HTTPError(
                503,
                f"model {served.name!r} is quarantined after repeated "
                "engine failures",
                headers=(("Retry-After", str(retry_after)),),
            )
        try:
            y_all = await asyncio.wait_for(
                self._batchers[served.name].submit(X),
                timeout=self._request_timeout,
            )
        except Backpressure:
            raise
        except asyncio.TimeoutError:
            served.budget.record_failure()
            raise HTTPError(
                504,
                f"engine call for model {served.name!r} exceeded the "
                f"{self._request_timeout}s request timeout",
                headers=(("Retry-After", "1"),),
            ) from None
        except Exception as exc:  # noqa: BLE001 - engine failure → honest 5xx
            served.budget.record_failure()
            raise HTTPError(
                503,
                f"engine call for model {served.name!r} failed: {exc}",
                headers=(("Retry-After", "1"),),
            ) from exc
        served.budget.record_success()
        return y_all

    async def _reload(self, body: bytes) -> dict:
        data = _parse_json(body)
        for field in ("model", "path"):
            if field not in data:
                raise HTTPError(400, f"reload needs a {field!r} field")
        name = str(data["model"])
        if name not in self.registry:
            raise HTTPError(
                404,
                f"no model named {name!r}; hosting: {self.registry.names()}",
            )
        loop = asyncio.get_running_loop()
        try:
            # Loading + CRC verification + compile is blocking disk and
            # CPU work — keep it off the event loop.  The swap happens
            # only after the artefact proved loadable, so any failure
            # here leaves the old engine serving.
            served = await loop.run_in_executor(
                None, self.registry.reload, name, str(data["path"])
            )
        except ReproError as exc:
            raise HTTPError(
                409, f"reload of {name!r} rejected, old engine kept: {exc}"
            ) from exc
        return {"reloaded": True, **served.info()}

    async def _predict(self, served: ServedModel, body: bytes, *, per_tree: bool):
        X = _parse_rows(_parse_json(body), served)
        y_all = await self._serve_rows(served, X)
        if per_tree:
            return {
                "model": served.name,
                "n_trees": int(y_all.shape[0]),
                "n_rows": int(y_all.shape[1]),
                "per_tree": y_all.tolist(),
            }
        labels = served.labels(y_all)
        return {
            "model": served.name,
            "n_rows": int(labels.shape[0]),
            "predictions": labels.tolist(),
        }

    async def _verify(self, served: ServedModel, body: bytes) -> dict:
        data = _parse_json(body)
        if "signature" not in data:
            raise HTTPError(400, "verify needs a 'signature' bit string")
        try:
            signature = Signature.from_string(str(data["signature"]))
        except ReproError as exc:
            raise HTTPError(400, f"bad signature: {exc}") from None
        strategy = str(data.get("strategy", "bands"))
        mode = str(data.get("mode", "strict"))
        # Everything is checked before the trigger probe is served: a
        # rejected request must not fold rows into the streamed verdict.
        if len(signature) != served.engine.n_trees:
            raise HTTPError(400, f"signature has {len(signature)} bits; the "
                            f"model has {served.engine.n_trees} trees")
        if strategy not in STRATEGIES or mode not in ("strict", "iff"):
            raise HTTPError(400, f"unknown strategy {strategy!r} or mode {mode!r}")

        response: dict = {
            "model": served.name,
            "signature_length": len(signature),
        }

        if "trigger_rows" in data or "trigger_labels" in data:
            if "trigger_rows" not in data or "trigger_labels" not in data:
                raise HTTPError(
                    400, "trigger_rows and trigger_labels must come together"
                )
            X = _parse_rows(data, served, key="trigger_rows")
            try:
                y = np.asarray(data["trigger_labels"], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise HTTPError(400, f"trigger_labels is not numeric: {exc}") from None
            if y.shape != (len(X),):
                raise HTTPError(400, "trigger_labels needs one label per trigger "
                                f"row ({len(X)}), got shape {y.shape}")
            classes = served.engine.classes
            integral = (y % 1 == 0).all()  # False for NaN and infinities too
            if not integral or (classes is not None and not np.isin(y, classes).all()):
                known = "" if classes is None else f" among {classes.tolist()}"
                raise HTTPError(400, f"trigger_labels must be integers{known}")
            # The judge's probe is traffic like any other: it goes
            # through the micro-batched serving path (guarded like any
            # other engine call) and is folded into the streaming
            # observer before the verdict below is taken.
            y_all = await self._serve_rows(served, X)
            report = match_signature(y_all, y.astype(np.int64), signature, mode=mode)
            response["ownership"] = {
                "accepted": bool(report.accepted),
                "mode": report.mode,
                "n_matching": int(report.n_matching),
                "n_trees": int(report.n_trees),
                "per_tree_accuracy": report.per_tree_accuracy.tolist(),
                "recovered_bits": list(report.recovered_bits),
            }

        if served.observer is not None and served.n_queries > 0:
            result = served.detection(signature.bits, strategy)
            response["traffic"] = _detection_to_dict(result)
        response["observer"] = served.traffic_summary()
        return response

    def _calibrate(self, served: ServedModel, body: bytes) -> dict:
        if served.observer is None:
            raise HTTPError(
                409,
                f"model {served.name!r} has no traffic observer to calibrate",
            )
        X = _parse_rows(_parse_json(body), served)
        served.calibrate(X)
        return {"model": served.name, "calibrated": True, "n_reference": len(X)}
