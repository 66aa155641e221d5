"""Serving-path throughput: request micro-batching vs naive dispatch.

Drives the :class:`repro.serve.ServingDaemon` with many concurrent
batch-1 clients — the paper's deployment picture, where per-tree
``predict.all`` queries arrive one instance at a time — and compares
the micro-batched daemon (continuous batching: a request runs at once
on an idle engine, and requests that arrive during a call fuse into
the next fused ``predict_all`` call) against the naive baseline
(``max_batch_rows=1``: one engine call per request) on the same forest
under the same client load.  Emits req/s plus p50/p99 latency
per variant to ``results/serving.{txt,json}``.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time

import numpy as np
from conftest import emit, is_quick

from repro.datasets import breast_cancer_like
from repro.ensemble import RandomForestClassifier
from repro.experiments import format_table
from repro.serve import BackgroundServer, ModelRegistry


def _build_registry(n_trees: int) -> ModelRegistry:
    ds = breast_cancer_like(400, random_state=23)
    forest = RandomForestClassifier(
        n_estimators=n_trees, max_depth=8, random_state=23
    ).fit(ds.X, ds.y)
    forest.predict_all(ds.X[:64])  # compile outside the timed region
    registry = ModelRegistry()
    registry.add("bench", forest)
    return registry, ds.X


def _requests_for(X: np.ndarray, per_connection: int) -> list[bytes]:
    """Pre-serialized keep-alive batch-1 POSTs (cycled per connection)."""
    payloads = []
    for i in range(8):
        body = json.dumps(
            {"rows": [X[i % len(X)].tolist()]}, allow_nan=False
        ).encode()
        payloads.append(
            b"POST /v1/models/bench/predict_all HTTP/1.1\r\n"
            b"Host: bench\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
    return [payloads[i % len(payloads)] for i in range(per_connection)]


async def _read_response(reader: asyncio.StreamReader) -> None:
    header = await reader.readuntil(b"\r\n\r\n")
    idx = header.find(b"Content-Length:")
    length = int(header[idx + 15 : header.index(b"\r", idx)]) if idx >= 0 else 0
    body = await reader.readexactly(length)
    if header[9:12] != b"200":
        raise RuntimeError(f"HTTP {header[9:12]!r}: {body[:200]!r}")


async def _connection_load(
    host: str, port: int, requests: list[bytes], latencies: list[float]
) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for request in requests:
            start = time.perf_counter()
            writer.write(request)
            await writer.drain()
            await _read_response(reader)
            latencies.append(time.perf_counter() - start)
    finally:
        writer.close()


async def _drive(
    host: str, port: int, X: np.ndarray, connections: int, per_connection: int
) -> dict:
    latencies: list[float] = []
    requests = _requests_for(X, per_connection)
    start = time.perf_counter()
    await asyncio.gather(
        *(
            _connection_load(host, port, requests, latencies)
            for _ in range(connections)
        )
    )
    elapsed = time.perf_counter() - start
    lat = np.asarray(latencies)
    return {
        "n_requests": len(latencies),
        "elapsed": elapsed,
        "req_per_s": len(latencies) / elapsed,
        "p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "p99_ms": float(np.percentile(lat, 99)) * 1e3,
    }


def _serve_and_drive(
    registry: ModelRegistry,
    X: np.ndarray,
    *,
    max_batch_rows: int,
    connections: int,
    per_connection: int,
) -> dict:
    with BackgroundServer(
        registry,
        max_batch_rows=max_batch_rows,
        max_queue_rows=1 << 16,
    ) as server:
        # Warm the executor + socket path outside the timed region.
        asyncio.run(_drive(server.host, server.port, X, 4, 25))
        warmup_calls = server.daemon.batcher("bench").n_calls
        result = asyncio.run(
            _drive(server.host, server.port, X, connections, per_connection)
        )
        result["engine_calls"] = (
            server.daemon.batcher("bench").n_calls - warmup_calls
        )
    return result


def test_serving_throughput(benchmark, quick_mode):
    n_trees = 16 if quick_mode else 100
    connections = 8 if quick_mode else 48
    per_connection = 50 if quick_mode else 700

    registry, X = _build_registry(n_trees)
    batched_label, naive_label = "micro-batched (continuous)", "naive (max_batch_rows=1)"
    variants = [(batched_label, max(connections, 64)), (naive_label, 1)]

    def _run():
        # Client loop and daemon loop share the interpreter: a finer GIL
        # slice keeps request turnaround from quantising to the default
        # 5ms switch interval on small machines.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(0.0005)
        try:
            rows = {}
            for label, max_batch_rows in variants:
                rows[label] = _serve_and_drive(
                    registry,
                    X,
                    max_batch_rows=max_batch_rows,
                    connections=connections,
                    per_connection=per_connection,
                )
            return rows
        finally:
            sys.setswitchinterval(switch_interval)

    rows = benchmark.pedantic(_run, rounds=1, iterations=1)

    headers = [
        "Variant", "Requests", "Engine calls", "req/s", "p50 (ms)", "p99 (ms)",
    ]
    cells = [
        [
            label,
            r["n_requests"],
            r["engine_calls"],
            f"{r['req_per_s']:,.0f}",
            f"{r['p50_ms']:.2f}",
            f"{r['p99_ms']:.2f}",
        ]
        for label, r in rows.items()
    ]
    batched = rows[batched_label]
    naive = rows[naive_label]
    text = format_table(headers, cells)
    text += (
        f"\n\n{n_trees}-tree forest, {connections} keep-alive connections, "
        f"batch-1 requests"
        f"\nmicro-batching fuses {batched['n_requests']} requests into "
        f"{batched['engine_calls']} engine calls "
        f"({batched['n_requests'] / batched['engine_calls']:.1f} rows/call)"
        f"\nthroughput vs naive: {batched['req_per_s'] / naive['req_per_s']:.2f}x"
    )
    emit(
        "serving",
        text,
        headers=headers,
        rows=cells,
        metrics={
            "n_trees": n_trees,
            "connections": connections,
            "batched_req_per_s": batched["req_per_s"],
            "naive_req_per_s": naive["req_per_s"],
            "batched_p50_ms": batched["p50_ms"],
            "batched_p99_ms": batched["p99_ms"],
            "naive_p50_ms": naive["p50_ms"],
            "naive_p99_ms": naive["p99_ms"],
            "speedup": batched["req_per_s"] / naive["req_per_s"],
        },
    )

    # Micro-batching must actually coalesce under concurrent batch-1 load.
    assert batched["engine_calls"] < batched["n_requests"]
    if not quick_mode:
        # Acceptance: ≥5k req/s through the daemon at batch-1 client load.
        assert batched["req_per_s"] >= 5000
