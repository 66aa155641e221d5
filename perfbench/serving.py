"""The ``serve-probe`` workload: ``repro serve`` under a closed-loop load.

The daemon runs in its own process: the production ``python -m repro
serve`` entry point, or for a traced pass ``daemon.py`` (the same CLI
with the serving layers wrapped).  It hosts one 64-tree watermarked
``.rfbin`` built with the dispute-tabular recipe.  Load comes from this
process: one asyncio loop over two keep-alive connections, each sending
its next request only after the previous reply (judges and
``ServeClient`` wait for each reply).  Every request body is
serialized before timing starts.  The run ends with repeated
``/verify`` calls.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from catalog import self_time_metrics
from common import ROOT, WORK_DIR, Ledger, Pace, median, peak_rss_mb, tail
from dispute import SPECS as DISPUTES
from dispute import flip_bit, owner_recipe

from repro.attacks.detection import behavioural_rates, detect_bits
from repro.core.embedding import WatermarkedModel
from repro.core.signature import random_signature
from repro.model_selection.splits import train_test_split
from repro.traffic import build_scenario

MODEL = "wm"

#: Keep-alive connections of the closed loop.
CONNECTIONS = 2


@dataclass(frozen=True)
class ServeSpec:
    n_samples: int = DISPUTES["dispute-tabular"].n_samples
    bits: int = 64
    probe_pool: int = 20000
    warmup_requests: int = 100
    verifies: int = 60
    spawns: int = 9


SPECS = {
    # Two connections of batch-1 predict_all probes (verification-probe
    # traffic: trigger probes hidden in benign rows).  Per-request
    # overhead and the 2 ms flush window dominate; the engine's share
    # is small.  A second serving workload, 256-row predicts beside the
    # probes, spread by 40% between runs of the same code on a shared
    # 2-vCPU host and is left out.
    "serve-probe": ServeSpec(),
}


def _post(path: str, payload: dict) -> bytes:
    body = json.dumps(payload, allow_nan=False).encode()
    return (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


@dataclass
class Inputs:
    path: object
    model: WatermarkedModel
    accuracy: float
    probe_rows: np.ndarray
    probe_requests: list
    verify_request: bytes
    signature_bits: tuple
    prepare_s: float


def make_inputs(spec: ServeSpec, workload: str, seed: int, corrupt=None) -> Inputs:
    """The hosted model, the traffic rows and every request body."""
    data, split, sig, embed, traffic = (
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(5)
    )
    ds = DISPUTES["dispute-tabular"].dataset(n_samples=spec.n_samples, random_state=data)
    X_train, X_test, y_train, y_test = train_test_split(
        ds.X, ds.y, test_size=0.3, random_state=split
    )
    signature = random_signature(spec.bits, 0.5, random_state=sig)
    model = owner_recipe(signature, 0.02, embed).fit(X_train, y_train)
    accuracy = float(np.mean(model.ensemble.predict(X_test) == y_test))
    path = WORK_DIR / f"{workload}-{os.getpid()}.rfbin"
    model.save(path)

    probes, _ = build_scenario("verification-probe", model, X_test, random_state=traffic)
    probe_rows = probes.take(spec.probe_pool).X

    start = time.perf_counter()
    probe_requests = [
        _post(f"/v1/models/{MODEL}/predict_all", {"rows": [row.tolist()]})
        for row in probe_rows
    ]
    claimed = flip_bit(signature) if corrupt == "signature" else signature
    verify_request = _post(
        f"/v1/models/{MODEL}/verify",
        {
            "signature": claimed.to_string(),
            "trigger_rows": model.trigger.X.tolist(),
            "trigger_labels": model.trigger.y.tolist(),
        },
    )
    prepare_s = time.perf_counter() - start
    return Inputs(
        path, model, accuracy, probe_rows, probe_requests, verify_request,
        signature.bits, prepare_s,
    )


# -- the daemon process ---------------------------------------------------


class Daemon:
    """One ``repro serve`` process, from spawn to a clean drain."""

    def __init__(self, path, spans_out=None) -> None:
        serve = ["serve", "--model", f"{MODEL}={path}", "--port", "0"]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "daemon.py"),
                   "--spans", str(spans_out), *serve]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, bufsize=0,
        )
        try:
            self.port = self._await_port(deadline=start + 120.0)
            self._await_healthy(deadline=start + 120.0)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_port(self, deadline: float) -> int:
        """Read raw stdout (no buffering that select cannot see) until
        the daemon announces its address."""
        seen = b""
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while time.perf_counter() < deadline:
                if not sel.select(timeout=max(0.0, deadline - time.perf_counter())):
                    break
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                seen += chunk
                for line in seen.decode(errors="replace").splitlines():
                    if line.startswith("listening on http://") and seen.endswith(b"\n"):
                        return int(line.rsplit(":", 1)[1])
        raise RuntimeError("repro serve did not start: " + seen.decode(errors="replace")[-2000:])

    def _await_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError("repro serve never answered /healthz with 200")

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> bool:
        """SIGTERM and wait; True when it drained cleanly with exit 0."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        return self.proc.returncode == 0 and b"drained cleanly" in out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


# -- the load generator ---------------------------------------------------


async def _exchange(reader, writer, request: bytes):
    writer.write(request)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    idx = head.find(b"Content-Length:")
    length = int(head[idx + 15: head.index(b"\r", idx)]) if idx >= 0 else 0
    return int(head[9:12]), await reader.readexactly(length)


@dataclass
class Record:
    kind: str  # "probe" | "verify"
    index: int
    start_ns: int
    end_ns: int
    status: int
    body: bytes

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


@dataclass
class Load:
    records: list = field(default_factory=list)
    cursor: dict = field(default_factory=lambda: {"probe": 0, "verify": 0})
    window_ns: tuple = (0, 0)
    timed: list = field(default_factory=list)  # records inside the window
    errors: list = field(default_factory=list)


async def _connection(port, kind, requests, load: Load, deadline=None, count=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        sent = 0
        while (count is None or sent < count) and (
            deadline is None or time.perf_counter() < deadline
        ):
            index = load.cursor[kind]
            load.cursor[kind] += 1
            start = time.perf_counter_ns()
            status, body = await _exchange(reader, writer, requests[index % len(requests)])
            load.records.append(
                Record(kind, index, start, time.perf_counter_ns(), status, body)
            )
            sent += 1
    except (OSError, asyncio.IncompleteReadError) as exc:
        load.errors.append(f"{kind} connection: {exc!r}")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


def drive(port: int, inputs: Inputs, spec: ServeSpec, seconds: float, load: Load) -> None:
    """Warm-up, the timed closed loop, then repeated ``/verify``."""
    probes = inputs.probe_requests

    async def main():
        await asyncio.gather(
            *(_connection(port, "probe", probes, load,
                          count=spec.warmup_requests // CONNECTIONS)
              for _ in range(CONNECTIONS))
        )
        warm = len(load.records)
        t0 = time.perf_counter_ns()
        deadline = time.perf_counter() + seconds
        await asyncio.gather(
            *(_connection(port, "probe", probes, load, deadline=deadline)
              for _ in range(CONNECTIONS))
        )
        load.window_ns = (t0, time.perf_counter_ns())
        load.timed = load.records[warm:]
        await _connection(port, "verify", [inputs.verify_request], load,
                          count=spec.verifies)

    asyncio.run(main())


# -- correctness gates ----------------------------------------------------


def _columns(inputs: Inputs, record: Record) -> np.ndarray:
    """Positions, in the request's row pool, of the rows it carried
    (request pools are cycled)."""
    if record.kind == "probe":
        return np.array([record.index % len(inputs.probe_rows)])
    return np.arange(inputs.model.trigger.size)


def check(load: Load, inputs: Inputs, ledger: Ledger, corrupt=None) -> None:
    """Every served answer against the offline model.

    Per-tree labels (``predict_all``) must equal offline ``predict_all``
    on the same rows; each ``/verify`` must accept the owner; the last
    ``/verify``'s traffic verdict must equal offline
    ``detect_bits(behavioural_rates(...))`` over exactly the rows the
    daemon answered.
    """
    for error in load.errors:
        ledger.fail(error)
    engine = WatermarkedModel.load(inputs.path, mmap_mode="r").ensemble
    # Offline per-tree labels of each row pool, once (labels are ±1).
    offline = {
        "probe": engine.predict_all(inputs.probe_rows).astype(np.int8),
        "verify": engine.predict_all(inputs.model.trigger.X).astype(np.int8),
    }
    served, last_verify, corrupted = [], None, False
    for record in load.records:
        ledger.ops()
        if record.status != 200:
            ledger.fail(f"{record.kind} #{record.index}: HTTP {record.status}")
            continue
        columns = _columns(inputs, record)
        served.append(offline[record.kind][:, columns])
        payload = json.loads(record.body)
        if record.kind == "verify":
            last_verify = payload
            ledger.check(
                payload.get("ownership", {}).get("accepted") is True,
                f"/verify #{record.index}: ownership rejected",
            )
            continue
        got, expected = np.asarray(payload["per_tree"]), served[-1]
        if corrupt == "label" and not corrupted:
            got, corrupted = -got, True
        ledger.check(
            got.shape == expected.shape and np.array_equal(got, expected),
            f"{record.kind} #{record.index}: served labels differ from offline",
        )
    if last_verify is None:
        ledger.check(False, "no /verify answered")
        return
    verdict = detect_bits(
        behavioural_rates(np.concatenate(served, axis=1)), inputs.signature_bits, "bands"
    )
    traffic = last_verify.get("traffic", {})
    ledger.check(
        traffic.get("predicted") == list(verdict.predicted)
        and traffic.get("n_correct") == verdict.n_correct
        and traffic.get("n_wrong") == verdict.n_wrong
        and traffic.get("n_uncertain") == verdict.n_uncertain
        and traffic.get("mean") == verdict.mean
        and traffic.get("std") == verdict.std,
        "served traffic verdict differs from offline detect_bits",
    )


# -- metrics --------------------------------------------------------------


def _probes(load: Load) -> list:
    return [r.ms for r in load.timed if r.status == 200]


def probe_rate(load: Load) -> float:
    """Closed-loop probe replies per second at the median round.

    With ``CONNECTIONS`` connections in a closed loop, the time from one
    reply to the ``CONNECTIONS``-th reply after it is one round; the
    rate is ``CONNECTIONS`` replies over the median round.  A count over
    the whole run moved by 15% between runs of the same code on a shared
    2-vCPU host, with the stalls the host scatters through a run; the
    median round moves with per-request cost alone, as the median
    latency does.
    """
    ends = sorted(r.end_ns for r in load.timed if r.status == 200)
    rounds = [b - a for a, b in zip(ends, ends[CONNECTIONS:])]
    return CONNECTIONS * 1e9 / median(rounds)


def end_to_end(inputs, load, setup, rss_mb) -> dict:
    verifies = [r.ms for r in load.records if r.kind == "verify" and r.status == 200]
    return {
        "setup_s": (median(setup), "s"),
        "verify_ms": (median(verifies), "ms"),
        "latency_p50_ms": (median(_probes(load)), "ms"),
        "throughput_per_s": (probe_rate(load), "1/s"),
        "wm_test_accuracy": (inputs.accuracy, "fraction"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def notes(load, stats, setup) -> dict:
    probes = _probes(load)
    pct, value = tail(probes)
    return {
        "setup_samples": len(setup),
        "batching": stats,
        "probe_samples": len(probes),
        "probe_p50_ms": median(probes),
        f"probe_p{pct:g}_ms": value,
        "verify_samples": sum(1 for r in load.records if r.kind == "verify"),
    }


def _serve_pass(spec, inputs, seconds, ledger, corrupt, spans_out=None):
    daemon = Daemon(inputs.path, spans_out)
    load = Load()
    try:
        drive(daemon.port, inputs, spec, seconds, load)
        stats = daemon.get("/v1/models")["models"][0]["batching"]
        rss = peak_rss_mb(daemon.proc.pid)
    finally:
        drained = daemon.stop()
    ledger.check(drained, "repro serve did not drain cleanly")
    check(load, inputs, ledger, corrupt)
    return load, stats, rss


def per_layer(path, inputs: Inputs, load: Load, stats: dict) -> dict:
    with open(path, encoding="utf-8") as handle:
        dumped = json.load(handle)
    spans: dict = {}
    for name, start, end, self_ns in dumped["spans"]:
        spans.setdefault(name, []).append((start, end, self_ns))
    lo, hi = load.window_ns

    def in_window(name):
        return [s for s in spans.get(name, ()) if lo <= s[0] <= hi]

    def mean_us(items):
        return sum(e - s for s, e, _ in items) / max(1, len(items)) / 1e3

    submits = [s for s in dumped["submits"] if lo <= s[0] <= hi and s[2] is not None]
    submit_us = sum(e - s for s, e, _, _ in submits) / max(1, len(submits)) / 1e3
    spans["serve.submit"] = [
        (s, e, (e - s) - (be - bs)) for s, e, bs, be in submits
    ]
    probes = _probes(load)
    loads = spans.get("serve.load", [])
    return {
        "serve.submit_us": submit_us,
        "serve.queue_wait_us": sum(bs - s for s, _, bs, _ in submits)
        / max(1, len(submits)) / 1e3,
        "serve.batch_us": mean_us(in_window("serve.batch")),
        "serve.engine_us": mean_us(in_window("serve.engine")),
        "serve.fold_us": mean_us(in_window("serve.fold")),
        "serve.rows_per_call": stats["rows_per_call"],
        "serve.engine_calls": stats["n_calls"],
        "serve.requests": stats["n_requests"],
        "serve.outside_submit_us": 1e3 * sum(probes) / max(1, len(probes)) - submit_us,
        "serve.rejected": stats["n_rejected"],
        "serve.load_ms": sum(e - s for s, e, _ in loads) / max(1, len(loads)) / 1e6,
        "client.prepare_s": inputs.prepare_s,
        "client.probe_tail_ms": tail(probes)[1] if probes else 0.0,
        **self_time_metrics(
            {name: [n for _, _, n in items] for name, items in spans.items()}
        ),
        "trace.spans": sum(len(items) for items in spans.values()),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, corrupt=None, spec=None):
    """One serving workload run: ``(ledger, e2e, layers, notes)``."""
    spec = spec or SPECS[workload]
    WORK_DIR.mkdir(exist_ok=True)
    # The client and the daemon (children inherit this) share one CPU:
    # on a VM, a hand-off to an idle second vCPU waits for the host to
    # wake it, a delay that varies with the host's load.  Pinned, the
    # throughput spread of five runs fell from 13% to 6%.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    inputs = make_inputs(spec, workload, seed, corrupt)
    ledger = Ledger()
    try:
        # Set-up: spawn to the first /healthz 200, several times, at the
        # reference host speed (the daemon runs on this process's CPU).
        setup = []
        for _ in range(spec.spawns):
            with Pace() as pace:
                daemon = Daemon(inputs.path)
            setup.append(daemon.setup_s * pace.factor)
            ledger.check(daemon.stop(), "repro serve did not drain cleanly")
        if not trace:
            load, stats, rss = _serve_pass(spec, inputs, seconds, ledger, corrupt)
            e2e = end_to_end(inputs, load, setup, rss)
            return ledger, e2e, None, notes(load, stats, setup)

        plain, _, _ = _serve_pass(spec, inputs, seconds / 2, ledger, corrupt)
        spans_out = WORK_DIR / f"trace-{workload}-{seed}.json"
        load, stats, rss = _serve_pass(spec, inputs, seconds / 2, ledger, corrupt, spans_out)
        layers = per_layer(spans_out, inputs, load, stats)
        untraced = end_to_end(inputs, plain, setup, rss)
        e2e = end_to_end(inputs, load, setup, rss)
        layers["trace.overhead_pct"] = 100.0 * (
            untraced["throughput_per_s"][0] / e2e["throughput_per_s"][0] - 1.0
        )
        return ledger, e2e, layers, {
            **notes(load, stats, setup), "trace_file": str(spans_out)
        }
    finally:
        inputs.path.unlink(missing_ok=True)
