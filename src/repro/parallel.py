"""Process-pool execution helpers shared by the training hot paths.

CPython's GIL makes the pure-Python CART grower effectively serial in
threads, so parallel training uses *processes*.  The helpers here keep
that machinery in one place:

- :func:`resolve_n_jobs` normalises the sklearn-style ``n_jobs``
  convention (``None``/``1`` = serial, ``-1`` = all cores, ``k`` = at
  most ``k`` workers) to a concrete worker count;
- :func:`run_batches` executes one picklable callable per batch in a
  process pool and returns the results in submission order.

Workers receive their inputs by pickling, so callers batch their work
into one task per worker (rather than one per item) to amortise the
cost of shipping the training matrix.  The ``fork`` start method is
preferred when the platform offers it: it avoids re-importing the
library in every worker, which would otherwise dominate the short
tree-fitting tasks the embedding loop submits.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .exceptions import ValidationError

__all__ = [
    "resolve_n_jobs",
    "partition",
    "run_batches",
    "shared_payload",
    "fork_available",
]

T = TypeVar("T")

#: Copy-on-write payload for fork-based pools (see :func:`run_batches`).
_SHARED: object | None = None


def shared_payload() -> object | None:
    """The ``shared`` object of the enclosing :func:`run_batches` call.

    Under the ``fork`` start method workers inherit the parent's memory
    at pool creation, so a large read-mostly object (e.g. the forgery
    attack's compiled encodings, or the training engine's presorted
    dataset — see :func:`repro.trees.presort.adopt_presort`) can be
    handed to every worker without pickling: the parent passes it as
    ``run_batches(..., shared=obj)`` and workers retrieve it here.  Returns ``None`` outside a
    ``run_batches`` call or when the platform had to fall back to
    ``spawn`` (workers then rebuild whatever they need from their
    pickled batch arguments — callers must treat the payload as an
    optimisation, never the only source of an input).
    """
    return _SHARED


def resolve_n_jobs(n_jobs, n_tasks: int | None = None) -> int:
    """Resolve an ``n_jobs`` specification to a concrete worker count.

    ``None`` and ``1`` mean serial execution (return 1); ``-1`` means
    one worker per available core; a positive int is used as-is.  When
    ``n_tasks`` is given the result is additionally capped by it — a
    pool wider than the work to do only adds startup cost.
    """
    if n_jobs is None:
        jobs = 1
    elif isinstance(n_jobs, bool) or not isinstance(n_jobs, int):
        raise ValidationError(
            f"n_jobs must be None, -1 or a positive int, got {n_jobs!r}"
        )
    elif n_jobs == -1:
        jobs = os.cpu_count() or 1
    elif n_jobs >= 1:
        jobs = n_jobs
    else:
        raise ValidationError(
            f"n_jobs must be None, -1 or a positive int, got {n_jobs!r}"
        )
    if n_tasks is not None:
        jobs = max(1, min(jobs, n_tasks))
    return jobs


def partition(items: Sequence[T], n_chunks: int) -> list[list[T]]:
    """Split ``items`` into at most ``n_chunks`` contiguous, non-empty
    chunks of near-equal size, preserving order."""
    n_chunks = max(1, min(n_chunks, len(items)))
    bounds = [round(i * len(items) / n_chunks) for i in range(n_chunks + 1)]
    return [list(items[bounds[i] : bounds[i + 1]]) for i in range(n_chunks)]


def _pool_context():
    """The preferred multiprocessing context (``fork`` where available)."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def fork_available() -> bool:
    """True when pools fork — i.e. :func:`shared_payload` reaches workers."""
    return "fork" in multiprocessing.get_all_start_methods()


def run_batches(
    fn: Callable[..., T],
    batches: Iterable[tuple],
    n_workers: int,
    shared: object | None = None,
) -> list[T]:
    """Run ``fn(*batch)`` for every batch in a pool of ``n_workers``.

    Results come back in submission order.  With one worker (or one
    batch) the calls run inline — no pool, no pickling.  ``shared`` is
    made available to workers via :func:`shared_payload` for the
    duration of the call (fork-inherited, never pickled).
    """
    global _SHARED
    batches = list(batches)
    _SHARED = shared
    try:
        if n_workers <= 1 or len(batches) <= 1:
            return [fn(*batch) for batch in batches]
        with ProcessPoolExecutor(
            max_workers=min(n_workers, len(batches)), mp_context=_pool_context()
        ) as pool:
            futures = [pool.submit(fn, *batch) for batch in batches]
            return [future.result() for future in futures]
    finally:
        _SHARED = None
