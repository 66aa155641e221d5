"""The watermark forgery attack (§4.2.2 / Fig. 4 / Fig. 5).

The attacker invents a fake signature ``σ'`` and tries to build a
trigger set ``D'_trigger`` on which the *stolen, unmodified* model
exhibits the output pattern ``σ'`` requires.  Per the paper's
experiment, the attacker iterates over real test instances and asks a
solver for a satisfying instance within ``L∞`` distance ``ε`` of each —
the distance budget keeps forged triggers "reminiscent of real test
instances".

The paper decides each query with Z3; here the one engine is
:class:`repro.solver.CompiledPatternEncoding` (threshold atoms decided
by the library's CDCL solver).  Three speedups apply on top of the
paper's loop, none of which changes what is computed:

- **Encoding reuse**: the leaf boxes are compiled once per forest and
  required-label pattern (:class:`repro.solver.CompiledPatternEncoding`)
  from the forest's compiled node table (``forest.compile()``; a lazily
  loaded ``.rfbin`` forest keeps its object trees unbuilt); the
  threshold atoms, clause skeleton and persistent solver follow on the
  first attempt the prescreen below leaves open.  Each attempt is
  re-solved on that one solver, with only the ``L∞`` box supplied as
  assumptions.  A call resolves each label's encoding once.  The
  encoding does not depend on ``ε``, so it is kept across calls: an ε
  sweep (or several fake signatures) on one forest compiles each
  pattern once.  The cache is keyed weakly by the forest,
  pinned to the identity of its node table (``fit`` and ``refit_trees``
  replace the roots, so the table and the encodings are rebuilt) and
  bounded per forest (see ``repro.solver.compiled_encoding``).
- **Refutation by bound propagation**: before the solver runs, the
  ``L∞`` box is clipped to each tree's hull of the required-label leaf
  boxes it meets, round after round; an attempt is ``unsat`` once some
  tree keeps no box, so most UNSAT attempts never run the solver, and
  a pattern none of whose attempts survive never builds its skeleton
  or solver.  Survivors are solved against the original box, so
  witnesses are unchanged.  A call screens its attempts together: each
  label's attempts are one
  :meth:`~repro.solver.CompiledPatternEncoding.solve_many` stream,
  prescreened a chunk at a time by one batched propagation that first
  tries the trees with the fewest boxes.  The stream is pulled in
  attempt order, so the solver still meets the survivors one at a
  time, in the order of the serial loop.
- **Parallel fan-out** (``n_jobs``): instance attempts are dispatched
  in deterministic contiguous chunks over a process pool.  Every
  per-instance solve is a pure function of the forest, the signature
  and the instance bounds, so ``forged_X``, ``source_index`` and
  ``statuses`` are bitwise identical for a fixed ``random_state``
  regardless of worker count — the early stop at ``target_size``
  consumes results in serial attempt order and discards any
  speculative surplus the pool solved.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .._validation import check_count, check_random_state, check_X_y
from ..core.signature import Signature
from ..exceptions import ValidationError
from ..parallel import (
    fork_available,
    partition,
    resolve_n_jobs,
    run_batches,
    shared_payload,
)
from ..solver import EncodingCache, PatternOutcome, required_labels

__all__ = ["ForgeryAttackResult", "forge_trigger_set", "forgery_distortion"]

#: Instances dispatched per worker per wave when an early-stop target
#: is set.  Larger waves amortise pool/pickling overhead; smaller waves
#: waste less speculative work once the target is reached.
_WAVE_CHUNK = 8

#: Per-instance conflict budget that ``solver_budget=None`` stands for.
_DEFAULT_CONFLICTS = 200_000

#: Encoding caches kept between calls, keyed weakly by the forest.  A
#: call checks its forest's cache out (see :func:`_forest_encodings`).
_CACHES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_CACHES_LOCK = threading.Lock()


@dataclass
class ForgeryAttackResult:
    """Outcome of one forgery attempt with one fake signature.

    ``forged_X`` stacks the successfully forged instances (the attack's
    ``D'_trigger``); ``source_index[i]`` is the test-set row the ``i``-th
    forged instance was derived from.  ``statuses`` counts solver
    outcomes over all attempted instances.
    """

    epsilon: float
    signature: Signature
    n_attempted: int
    forged_X: np.ndarray
    source_index: np.ndarray
    statuses: dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def n_forged(self) -> int:
        """Size of the forged trigger set ``|D'_trigger|``."""
        return int(self.forged_X.shape[0])


@contextmanager
def _forest_encodings(forest, engine, n_features: int):
    """The forest's :class:`EncodingCache`, checked out for one call.

    The cache leaves the table while the call runs and returns in a
    ``finally``: a concurrent call on the same forest finds none and
    builds its own, so two threads never drive one persistent solver.
    A cache compiled from another node table or feature count is
    replaced — the forest rebuilds its table whenever a root is
    replaced, and nothing edits a table in place.  The table is not the
    weak key itself because the cache holds it, which would keep the
    entry alive.  An ensemble that cannot be weakly keyed gets a fresh
    cache per call.
    """
    try:
        with _CACHES_LOCK:
            cache = _CACHES.pop(forest, None)
        keyed = True
    except TypeError:
        cache, keyed = None, False
    if cache is None or cache.engine is not engine or cache.n_features != n_features:
        cache = EncodingCache(engine, n_features)
    try:
        yield cache
    finally:
        if keyed:
            with _CACHES_LOCK:
                _CACHES[forest] = cache


class _LabelEncodings(dict):
    """Each test label's encoding, resolved from the cache on first use.

    A call needs at most two patterns, fewer than the cache keeps, so
    resolving each once per call evicts nothing a per-attempt lookup
    would keep.  A solve is a pure function of the encoding and the
    instance bounds (a reset solver is bit-for-bit a fresh one), which
    is what the serial == parallel determinism contract rests on.
    """

    def __init__(self, cache: EncodingCache, signature: Signature) -> None:
        super().__init__()
        self.cache = cache
        self.signature = signature

    def __missing__(self, label: int):
        encoding = self.cache.for_required(required_labels(self.signature, label))
        self[label] = encoding
        return encoding


def _outcomes(
    encodings: _LabelEncodings,
    labels: np.ndarray,
    centers: np.ndarray,
    epsilon: float,
    budget: int | None,
) -> Iterator[PatternOutcome]:
    """The attempts' outcomes in attempt order, pulled lazily.

    Each label reads one :meth:`~repro.solver.CompiledPatternEncoding.solve_many`
    stream over its own rows, opened on the label's first attempt, so
    a pattern no attempt reaches is never compiled.  Pulling in attempt
    order runs the solvers in that order too.
    """
    streams = {}
    for label in labels.tolist():
        if label not in streams:
            streams[label] = encodings[int(label)].solve_many(
                centers[labels == label], epsilon, budget
            )
        yield next(streams[label])


def _forge_batch(
    engine,
    signature: Signature,
    labels: np.ndarray,
    centers: np.ndarray,
    epsilon: float,
    n_features: int,
    budget: int | None,
) -> list[tuple[str, np.ndarray | None]]:
    """Worker entry point: solve a contiguous batch of instances.

    Under a fork-based pool the parent's compiled encodings arrive for
    free via :func:`repro.parallel.shared_payload`; otherwise (spawn
    platforms) the worker builds its own from the pickled node table.
    Either way each instance solve is the same pure function, so
    results do not depend on which path was taken.
    """
    cache = shared_payload()
    if not isinstance(cache, EncodingCache):
        if engine is None:
            raise RuntimeError(
                "forgery worker received no node table and no shared "
                "encoding cache — fork detection went wrong"
            )
        cache = EncodingCache(engine, n_features)
    encodings = _LabelEncodings(cache, signature)
    return [
        (outcome.status, outcome.instance)
        for outcome in _outcomes(encodings, labels, centers, epsilon, budget)
    ]


def forge_trigger_set(
    forest,
    fake_signature: Signature,
    X_test,
    y_test,
    epsilon: float,
    target_size: int | None = None,
    max_instances: int | None = None,
    solver_budget: int | None = 100_000,
    n_jobs: int | None = None,
    random_state=None,
) -> ForgeryAttackResult:
    """Attempt to forge a trigger set against a (stolen) forest.

    Parameters
    ----------
    forest:
        The watermarked model (attacker has white-box read access).
    fake_signature:
        The attacker's invented signature ``σ'`` (length = #trees).
    X_test, y_test:
        Real test data the forged instances must stay close to, with
        the forest's feature count.
    epsilon:
        ``L∞`` distortion budget relative to each test instance.
    target_size:
        Stop once this many instances were forged (the paper compares
        against the original trigger-set size), an integer ``>= 0``.
        ``None`` = no target.
    max_instances:
        Cap on test instances attempted, an integer ``>= 0`` (``None``
        = all of them).
    solver_budget:
        Per-instance conflict budget, an integer ``>= 0``; exhausted
        attempts count as ``"unknown"``.  ``None`` means 200,000
        conflicts, not an unlimited search.
    n_jobs:
        Worker processes for the instance sweep (``None``/``1`` serial,
        ``-1`` all cores).  Results are identical across settings.
    random_state:
        Shuffles the attempt order over the test set.
    """
    X_test, y_test = check_X_y(X_test, y_test)
    if X_test.shape[1] != forest.n_features_in_:
        raise ValidationError(
            f"X_test has {X_test.shape[1]} features but the forest was fitted "
            f"with {forest.n_features_in_}"
        )
    for name, value in (
        ("target_size", target_size),
        ("max_instances", max_instances),
        ("solver_budget", solver_budget),
    ):
        if value is not None:
            check_count(value, name, minimum=0)
    if len(fake_signature) != forest.n_trees_:
        raise ValidationError(
            f"fake signature has {len(fake_signature)} bits but the forest has "
            f"{forest.n_trees_} trees"
        )
    if not 0.0 < epsilon < 1.0:
        raise ValidationError(f"epsilon must be in (0, 1), got {epsilon}")
    if solver_budget is None:
        solver_budget = _DEFAULT_CONFLICTS

    rng = check_random_state(random_state)
    order = rng.permutation(X_test.shape[0])
    if max_instances is not None:
        order = order[:max_instances]

    engine = forest.compile()
    n_features = int(X_test.shape[1])
    n_workers = resolve_n_jobs(n_jobs, n_tasks=len(order))

    forged: list[np.ndarray] = []
    sources: list[int] = []
    statuses: dict[str, int] = {"sat": 0, "unsat": 0, "unknown": 0}
    started = time.perf_counter()
    n_attempted = 0

    def consume(row: int, status: str, instance: np.ndarray | None) -> bool:
        """Fold one attempt into the result; False once the target is hit."""
        nonlocal n_attempted
        if target_size is not None and len(forged) >= target_size:
            return False
        n_attempted += 1
        statuses[status] = statuses.get(status, 0) + 1
        if status == "sat":
            assert instance is not None
            forged.append(instance)
            sources.append(int(row))
        return True

    with _forest_encodings(forest, engine, n_features) as cache:
        encodings = _LabelEncodings(cache, fake_signature)
        if n_workers == 1:
            outcomes = _outcomes(
                encodings, y_test[order], X_test[order], float(epsilon), solver_budget
            )
            for row in order:
                if target_size is not None and len(forged) >= target_size:
                    break
                outcome = next(outcomes)
                consume(int(row), outcome.status, outcome.instance)
        else:
            # Deterministic waves: solve a contiguous slice of the attempt
            # order across the pool, then fold results back *in attempt
            # order*.  Without a target one wave covers everything; with a
            # target the wave size bounds the speculative surplus.
            shared_cache = None
            payload_engine = engine
            if fork_available():
                # Workers inherit the compiled encodings copy-on-write —
                # leaf-box table, prescreen, hulls and clause skeleton —
                # so don't also pickle the node table into every
                # payload.  The skeleton is built here because every
                # wave forks a new pool, whose workers would otherwise
                # each rebuild it.  No solver is built here: a worker
                # builds one on the first attempt the prescreen leaves
                # open, which on tall narrow data is none (a solver left
                # dirty by an earlier call resets before its first
                # solve).  On spawn-only platforms compiling here would
                # be wasted work — workers there build their own cache
                # per batch.
                for label in np.unique(y_test[order]):
                    encodings[int(label)].build_skeleton()
                shared_cache = cache
                payload_engine = None
            wave_size = (
                len(order) if target_size is None else n_workers * _WAVE_CHUNK
            )
            position = 0
            running = True
            while running and position < len(order):
                if target_size is not None and len(forged) >= target_size:
                    break
                wave = order[position : position + wave_size]
                position += len(wave)
                batches = partition(list(wave), n_workers)
                payloads = [
                    (
                        payload_engine,
                        fake_signature,
                        y_test[batch],
                        X_test[batch],
                        float(epsilon),
                        n_features,
                        solver_budget,
                    )
                    for batch in batches
                ]
                results = run_batches(
                    _forge_batch, payloads, n_workers, shared=shared_cache
                )
                rows = (int(row) for batch in batches for row in batch)
                for row, (status, instance) in zip(
                    rows, (item for batch in results for item in batch)
                ):
                    if not consume(row, status, instance):
                        running = False
                        break

    forged_X = (
        np.stack(forged, axis=0)
        if forged
        else np.empty((0, X_test.shape[1]), dtype=np.float64)
    )
    return ForgeryAttackResult(
        epsilon=float(epsilon),
        signature=fake_signature,
        n_attempted=n_attempted,
        forged_X=forged_X,
        source_index=np.array(sources, dtype=np.int64),
        statuses=statuses,
        elapsed_seconds=time.perf_counter() - started,
    )


def forgery_distortion(result: ForgeryAttackResult, X_test) -> dict[str, float]:
    """Distortion statistics of the forged set relative to its sources.

    The paper's Fig. 5 shows forged MNIST images becoming blurrier as
    ``ε`` grows; without a display we report the quantitative analogue:
    mean/max ``L∞`` and mean ``L2`` displacement, plus the fraction of
    coordinates actually moved.
    """
    X_test = np.asarray(X_test, dtype=np.float64)
    if result.n_forged == 0:
        return {
            "mean_linf": 0.0,
            "max_linf": 0.0,
            "mean_l2": 0.0,
            "moved_fraction": 0.0,
        }
    originals = X_test[result.source_index]
    delta = result.forged_X - originals
    linf = np.abs(delta).max(axis=1)
    l2 = np.linalg.norm(delta, axis=1)
    moved = (np.abs(delta) > 1e-12).mean(axis=1)
    return {
        "mean_linf": float(linf.mean()),
        "max_linf": float(linf.max()),
        "mean_l2": float(l2.mean()),
        "moved_fraction": float(moved.mean()),
    }
