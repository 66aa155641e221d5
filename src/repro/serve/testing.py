"""In-process daemon harness for tests and benchmarks.

:class:`BackgroundServer` runs a :class:`~repro.serve.ServingDaemon` on
a private event-loop thread and tears it down through the same graceful
drain the CLI uses on SIGTERM — so every test exercises the production
shutdown path, and benchmark clients can drive the daemon from plain
blocking code.
"""

from __future__ import annotations

import asyncio
import threading

from ..exceptions import ReproError
from .client import ServeClient
from .http import ServingDaemon
from .registry import ModelRegistry

__all__ = ["BackgroundServer"]


class BackgroundServer:
    """Context manager hosting a daemon on an ephemeral port.

    ::

        registry = ModelRegistry()
        registry.add("demo", model)
        with BackgroundServer(registry) as server:
            client = server.client()
            client.predict("demo", rows)
    """

    def __init__(self, registry: ModelRegistry, **daemon_kwargs) -> None:
        daemon_kwargs.setdefault("port", 0)
        self._registry = registry
        self._daemon_kwargs = daemon_kwargs
        self.daemon: ServingDaemon | None = None
        self.host: str | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    # -- lifecycle ------------------------------------------------------

    async def _main(self) -> None:
        try:
            self.daemon = ServingDaemon(self._registry, **self._daemon_kwargs)
            await self.daemon.start()
            self.host, self.port = self.daemon.address
            self._stop = asyncio.Event()
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            self._startup_error = exc
            self._started.set()
            raise
        self._started.set()
        await self._stop.wait()
        await self.daemon.drain()

    def __enter__(self) -> "BackgroundServer":
        self._loop = asyncio.new_event_loop()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self._main())
            finally:
                self._loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise ReproError("serving daemon did not start within 30s")
        if self._startup_error is not None:
            self._thread.join(timeout=5)
            raise self._startup_error
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)

    # -- conveniences ---------------------------------------------------

    def client(self, timeout: float = 30.0, **kwargs) -> ServeClient:
        """A connected client; kwargs reach :class:`ServeClient` (e.g.
        ``retry=``, ``retry_seed=``, ``breaker=`` for resilient runs)."""
        assert self.host is not None and self.port is not None
        return ServeClient(self.host, self.port, timeout=timeout, **kwargs)
