"""MicroBatcher semantics: coalescing, equivalence, backpressure."""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.serve.batching import Backpressure, MicroBatcher


def run(coro):
    return asyncio.run(coro)


def make_runner(calls):
    """A fake engine: per-"tree" rows are (row_sum, row_max)."""

    def runner(X):
        calls.append(X.shape[0])
        return np.stack([X.sum(axis=1), X.max(axis=1)], axis=0)

    return runner


def make_blocking_runner(calls, release):
    """A fake engine whose first call blocks until ``release`` is set."""
    plain = make_runner(calls)

    def runner(X):
        first = not calls
        out = plain(X)
        if first:
            release.wait(timeout=10)
        return out

    return runner


class TestCoalescing:
    def test_concurrent_submits_fuse_into_one_call(self):
        calls: list[int] = []
        rng = np.random.default_rng(0)
        blocks = [rng.standard_normal((n, 4)) for n in (1, 3, 2, 5, 1)]

        async def scenario():
            batcher = MicroBatcher(make_runner(calls), max_batch_rows=64)
            return await asyncio.gather(
                *(batcher.submit(block) for block in blocks)
            )

        results = run(scenario())
        # The first request finds the engine idle and runs alone; the
        # other four arrive while it is in flight and fuse into the
        # next call.
        assert calls == [1, 11]
        for block, result in zip(blocks, results):
            expected = np.stack(
                [block.sum(axis=1), block.max(axis=1)], axis=0
            )
            assert np.array_equal(result, expected)

    def test_fused_result_equals_direct_call(self):
        calls: list[int] = []
        rng = np.random.default_rng(1)
        X = rng.standard_normal((24, 6))
        blocks = [X[i : i + 4] for i in range(0, 24, 4)]
        runner = make_runner(calls)

        async def scenario():
            batcher = MicroBatcher(runner, max_batch_rows=64)
            return await asyncio.gather(
                *(batcher.submit(block) for block in blocks)
            )

        results = run(scenario())
        direct = runner(X)
        assert np.array_equal(np.concatenate(results, axis=1), direct)

    def test_max_batch_rows_forces_immediate_flush(self):
        calls: list[int] = []
        release = threading.Event()

        async def scenario():
            batcher = MicroBatcher(
                make_blocking_runner(calls, release), max_batch_rows=4
            )
            held = asyncio.ensure_future(batcher.submit(np.ones((1, 3))))
            await asyncio.sleep(0.05)  # call 1 now holds the engine
            # The engine is busy, but 4 rows reach the cap: they run as
            # a second call at once instead of waiting for call 1.
            X = np.ones((4, 3))
            out = await asyncio.wait_for(batcher.submit(X), timeout=5.0)
            assert calls == [1, 4] and out.shape == (2, 4)
            release.set()
            await held

        try:
            run(scenario())
        finally:
            release.set()

    def test_max_batch_rows_one_disables_coalescing(self):
        calls: list[int] = []

        async def scenario():
            batcher = MicroBatcher(make_runner(calls), max_batch_rows=1)
            await asyncio.gather(
                *(batcher.submit(np.ones((2, 3))) for _ in range(3))
            )

        run(scenario())
        assert calls == [2, 2, 2]

    def test_lone_submit_reaches_the_runner_without_a_timer(self):
        calls: list[int] = []

        async def scenario():
            loop = asyncio.get_running_loop()

            def no_timer(*args, **kwargs):
                raise AssertionError("a lone submit waited on a timer")

            loop.call_later = no_timer
            loop.call_at = no_timer
            batcher = MicroBatcher(make_runner(calls))
            return await batcher.submit(np.ones((3, 2)))

        result = run(scenario())
        assert calls == [3]
        assert result.shape == (2, 3)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_interleavings_resolve_and_match_direct_calls(self, seed):
        """Random arrivals against a runner of random speed.

        Every future resolves, every slice equals a direct call on its
        own block, and a request is only ever parked behind a call in
        flight (pending implies in flight).
        """
        rng = np.random.default_rng(seed)
        calls: list[int] = []
        plain = make_runner(calls)

        def runner(X):
            time.sleep(float(abs(X[0, 0]) % 1.0) * 0.002)
            return plain(X)

        blocks = [
            rng.standard_normal((int(rng.integers(1, 6)), 3))
            for _ in range(60)
        ]
        gaps = rng.choice([0.0, 0.0, 0.0002, 0.001], size=len(blocks))

        async def scenario():
            batcher = MicroBatcher(
                runner,
                max_batch_rows=int(rng.integers(1, 16)),
                max_concurrent=int(rng.integers(1, 4)),
            )
            futures = []
            for block, gap in zip(blocks, gaps):
                futures.append(asyncio.ensure_future(batcher.submit(block)))
                await asyncio.sleep(float(gap))
                assert not batcher._pending or batcher._inflight_rows > 0
            results = await asyncio.wait_for(asyncio.gather(*futures), 10.0)
            assert batcher.backlog_rows == 0
            return results, batcher.stats()

        results, stats = run(scenario())
        n_rows = sum(block.shape[0] for block in blocks)
        assert stats["n_requests"] == len(blocks)
        assert stats["n_rows"] == sum(calls) == n_rows
        assert stats["n_calls"] == len(calls)
        for block, result in zip(blocks, results):
            assert np.array_equal(result, plain(block))


class TestFailureAndBackpressure:
    def test_runner_exception_propagates_to_every_request(self):
        async def scenario():
            def boom(X):
                raise RuntimeError("engine exploded")

            batcher = MicroBatcher(boom)
            futures = [batcher.submit(np.ones((1, 2))) for _ in range(3)]
            return await asyncio.gather(*futures, return_exceptions=True)

        results = run(scenario())
        assert len(results) == 3
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_backlog_overflow_raises_backpressure(self):
        release = threading.Event()

        def slow_runner(X):
            release.wait(timeout=10)
            return np.zeros((1, X.shape[0]))

        async def scenario():
            batcher = MicroBatcher(
                slow_runner,
                max_batch_rows=4,
                max_queue_rows=6,
                max_concurrent=1,
            )
            first = asyncio.ensure_future(batcher.submit(np.ones((4, 2))))
            await asyncio.sleep(0.05)  # first batch now occupies the engine
            with pytest.raises(Backpressure) as excinfo:
                await batcher.submit(np.ones((4, 2)))
            assert excinfo.value.retry_after == 0.05
            assert excinfo.value.retry_after_seconds >= 1
            assert batcher.n_rejected == 1
            release.set()
            await first
            await batcher.drain()

        run(scenario())

    def test_empty_batch_rejected(self):
        async def scenario():
            batcher = MicroBatcher(make_runner([]))
            with pytest.raises(ValueError):
                await batcher.submit(np.empty((0, 3)))

        run(scenario())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_rows": 0},
            {"max_queue_rows": -5},
            {"max_concurrent": 0},
            {"max_batch_rows": 2.5},
            {"max_queue_rows": True},
            {"max_concurrent": "2"},
        ],
    )
    def test_invalid_sizes_rejected(self, kwargs):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            MicroBatcher(make_runner([]), **kwargs)

    def test_numpy_integer_sizes_accepted(self):
        calls: list[int] = []

        async def scenario():
            batcher = MicroBatcher(
                make_runner(calls),
                max_batch_rows=np.int64(4),
                max_queue_rows=np.int32(16),
                max_concurrent=np.int64(1),
            )
            return await batcher.submit(np.ones((2, 3)))

        assert run(scenario()).shape == (2, 2)
        assert calls == [2]


class TestDrain:
    def test_drain_flushes_pending_and_waits(self):
        calls: list[int] = []
        release = threading.Event()

        async def scenario():
            batcher = MicroBatcher(
                make_blocking_runner(calls, release), max_batch_rows=64
            )
            held = asyncio.ensure_future(batcher.submit(np.ones((1, 3))))
            await asyncio.sleep(0.05)
            parked = asyncio.ensure_future(batcher.submit(np.ones((2, 3))))
            await asyncio.sleep(0.05)
            assert calls == [1]  # parked behind the blocked call 1
            draining = asyncio.ensure_future(batcher.drain())
            result = await asyncio.wait_for(parked, timeout=5.0)
            assert result.shape == (2, 2)
            assert calls == [1, 2]  # drain flushed it without waiting
            assert not draining.done()  # ... but waits for call 1
            release.set()
            await asyncio.wait_for(draining, timeout=5.0)
            assert held.done() and batcher.backlog_rows == 0

        try:
            run(scenario())
        finally:
            release.set()

    def test_stats_track_coalescing(self):
        calls: list[int] = []

        async def scenario():
            batcher = MicroBatcher(make_runner(calls), max_batch_rows=64)
            await asyncio.gather(
                *(batcher.submit(np.ones((2, 3))) for _ in range(4))
            )
            return batcher.stats()

        stats = run(scenario())
        assert stats["n_requests"] == 4
        assert stats["n_rows"] == 8
        assert stats["n_calls"] < 4  # coalesced
        assert stats["rows_per_call"] > 1.0


class TestShutdownAndFaults:
    def test_drain_completes_when_runner_raises(self):
        """A runner that dies during shutdown must not hang the drain."""

        async def scenario():
            def boom(X):
                raise RuntimeError("engine died during shutdown")

            batcher = MicroBatcher(boom, max_batch_rows=64)
            pending = [
                asyncio.ensure_future(batcher.submit(np.ones((2, 3))))
                for _ in range(3)
            ]
            await asyncio.wait_for(batcher.drain(), timeout=5.0)
            results = await asyncio.gather(*pending, return_exceptions=True)
            assert all(isinstance(r, RuntimeError) for r in results)
            assert batcher.backlog_rows == 0

        run(scenario())

    def test_injected_flush_fault_fans_to_all_coalesced_requests(self):
        from repro.faults import FaultPlan, FaultSpec, InjectedFault

        # Seed 0 leaves flush 1 clean and fails flush 2: call 1 holds the
        # engine while three requests park, then all three share flush 2.
        plan = FaultPlan([FaultSpec(site="batcher.flush", rate=0.5)], seed=0)
        fired = [d is not None for d in plan.preview("batcher.flush", 2)]
        assert fired == [False, True]
        injector = plan.compile()
        calls: list[int] = []
        release = threading.Event()

        async def scenario():
            batcher = MicroBatcher(
                make_blocking_runner(calls, release),
                fault_injector=injector,
            )
            held = asyncio.ensure_future(batcher.submit(np.ones((1, 2))))
            await asyncio.sleep(0.05)  # call 1 now holds the engine
            parked = [
                asyncio.ensure_future(batcher.submit(np.ones((1, 2))))
                for _ in range(3)
            ]
            await asyncio.sleep(0)
            assert batcher.backlog_rows == 4
            release.set()
            results = await asyncio.wait_for(
                asyncio.gather(*parked, return_exceptions=True), timeout=5.0
            )
            return await held, results

        try:
            held, results = run(scenario())
        finally:
            release.set()
        assert held.shape == (2, 1)
        assert all(isinstance(r, InjectedFault) for r in results)
        assert calls == [1]  # the failed flush never reached the engine
        assert injector.counts()["batcher.flush"] == {"events": 2, "fired": 1}

    def test_no_injector_means_no_faults(self):
        calls: list[int] = []

        async def scenario():
            batcher = MicroBatcher(make_runner(calls))
            return await batcher.submit(np.ones((2, 3)))

        result = run(scenario())
        assert result.shape == (2, 2)
        assert calls == [2]
