"""Request micro-batching onto single compiled ``predict_all`` calls.

The compiled engine's descent cost is per *level*, not per row: one
fused call over 256 coalesced rows costs barely more than one call over
a single row.  The :class:`MicroBatcher` batches continuously (as in
Clipper and Orca): a request that finds the engine idle runs at once;
requests that arrive during a call run together as the next call, each
getting back its own column slice of the ``(n_trees, rows)`` result.
The invariant is *pending ⇒ a call is in flight*: the call that leaves
the engine idle flushes whatever is pending, so no request waits on a
timer or can be stranded.  ``max_batch_rows`` pending rows flush at once.

Backpressure is row-based: when the backlog (queued + executing rows)
exceeds ``max_queue_rows``, :meth:`submit` raises :class:`Backpressure`
immediately instead of letting latency grow without bound; the HTTP
layer translates that into ``429`` + ``Retry-After``.  ``max_concurrent``
bounds fused engine calls in flight so a single model cannot monopolise
the executor.

All coordination state lives on the event loop (submit/flush run only
there); the blocking engine call is pushed to a thread executor.
"""

from __future__ import annotations

import asyncio

import numpy as np

from .._validation import check_count

__all__ = ["Backpressure", "MicroBatcher"]


class Backpressure(Exception):
    """Raised by :meth:`MicroBatcher.submit` when the backlog is full."""

    #: Seconds a rejected client should wait, and the ``Retry-After``
    #: header value (whole seconds, at least 1).
    retry_after = 0.05
    retry_after_seconds = 1


class MicroBatcher:
    """Coalesce concurrent row blocks into fused runner calls.

    ``runner`` maps an ``(n, n_features)`` matrix to an ``(n_trees, n)``
    per-tree prediction matrix; it executes on ``executor`` (the loop's
    default thread pool when ``None``).  ``max_batch_rows=1`` disables
    coalescing: every request runs as its own call (the "naive" serving
    baseline the benchmark compares against).
    """

    def __init__(
        self,
        runner,
        *,
        max_batch_rows: int = 512,
        max_queue_rows: int = 8192,
        max_concurrent: int = 2,
        executor=None,
        fault_injector=None,
    ) -> None:
        self._runner = runner
        #: Optional :class:`repro.faults.FaultInjector`; ``None`` in
        #: production.  Fires at the fused-call boundary
        #: (``batcher.flush``), so an injected failure is observed by
        #: every request coalesced into the flush — the exact fan-out
        #: path a real engine crash takes.
        self._fault_injector = fault_injector
        check_count(max_batch_rows, "max_batch_rows")
        check_count(max_queue_rows, "max_queue_rows")
        check_count(max_concurrent, "max_concurrent")
        self._max_batch_rows = int(max_batch_rows)
        self._max_queue_rows = int(max_queue_rows)
        self._executor = executor
        self._semaphore = asyncio.Semaphore(int(max_concurrent))

        self._pending: list[tuple[np.ndarray, asyncio.Future]] = []
        self._pending_rows = 0
        self._inflight_rows = 0
        self._tasks: set[asyncio.Task] = set()

        # Telemetry for /v1/models and the benchmark table.
        self.n_requests = 0
        self.n_calls = 0
        self.n_rows = 0
        self.n_rejected = 0

    # -- introspection --------------------------------------------------

    @property
    def backlog_rows(self) -> int:
        """Rows queued or executing right now."""
        return self._pending_rows + self._inflight_rows

    def stats(self) -> dict:
        return {
            "n_requests": self.n_requests,
            "n_calls": self.n_calls,
            "n_rows": self.n_rows,
            "n_rejected": self.n_rejected,
            "backlog_rows": self.backlog_rows,
            "rows_per_call": self.n_rows / self.n_calls if self.n_calls else 0.0,
        }

    # -- the hot path ---------------------------------------------------

    async def submit(self, X: np.ndarray) -> np.ndarray:
        """Enqueue ``X`` and await its ``(n_trees, len(X))`` result slice.

        Raises :class:`Backpressure` without queueing when the backlog
        cannot absorb the block.
        """
        n = int(X.shape[0])
        if n == 0:
            raise ValueError("cannot submit an empty batch")
        if self.backlog_rows + n > self._max_queue_rows:
            self.n_rejected += 1
            raise Backpressure(
                f"backlog full ({self.backlog_rows} rows queued); "
                f"retry in {Backpressure.retry_after}s"
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending.append((X, future))
        self._pending_rows += n
        self.n_requests += 1

        # An idle engine serves at once; else the next call takes it.
        if self._inflight_rows == 0 or self._pending_rows >= self._max_batch_rows:
            self._flush_now()
        return await future

    def _flush_now(self) -> None:
        if not self._pending:
            return
        pending = self._pending
        rows = self._pending_rows
        self._pending = []
        self._pending_rows = 0
        self._inflight_rows += rows
        task = asyncio.ensure_future(self._run(pending, rows))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run(self, pending, rows: int) -> None:
        try:
            async with self._semaphore:
                loop = asyncio.get_running_loop()
                if len(pending) == 1:
                    X = pending[0][0]
                else:
                    X = np.concatenate([block for block, _ in pending], axis=0)
                try:
                    if self._fault_injector is not None:
                        self._fault_injector.fire("batcher.flush")
                    y_all = await loop.run_in_executor(
                        self._executor, self._runner, X
                    )
                except Exception as exc:  # noqa: BLE001 - forwarded per request
                    for _, future in pending:
                        if not future.done():
                            future.set_exception(exc)
                    return
                self.n_calls += 1
                self.n_rows += rows
                offset = 0
                for block, future in pending:
                    stop = offset + block.shape[0]
                    if not future.done():
                        future.set_result(y_all[:, offset:stop])
                    offset = stop
        finally:
            self._inflight_rows -= rows
            if self._inflight_rows == 0:
                self._flush_now()

    async def drain(self) -> None:
        """Flush the queue and wait for every in-flight call to finish."""
        self._flush_now()
        while self._tasks:
            await asyncio.gather(*tuple(self._tasks), return_exceptions=True)
