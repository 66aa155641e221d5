"""Engineering benchmark — model persistence: JSON vs binary vs mmap.

Not a paper artefact: this benchmark measures the zero-copy binary
model format (:mod:`repro.persistence.exporters.binary`) against the
JSON escape hatch on the serving-scale configuration the ROADMAP
targets — a 100-tree forest answering 10k-row batches.  Three things
are measured:

- **cold-start latency**: time from artefact on disk to a loaded model
  (the binary+mmap column is the one a serving fleet restarts pay);
- **round-trip wall time**: ``save`` + ``load`` per format;
- **per-worker memory**: unique (non-shared) RSS of each process in a
  4-worker pool serving predictions, with the model shipped either as
  a pickle (the pre-PR behaviour) or as an mmap reopen handle — the
  node tables then live once in the page cache, not once per worker.

Acceptance (full mode): the mmap load is ≥ 50× faster than the JSON
load on the headline forest, and pooled workers sharing the artefact
carry less unique memory than pickled ones.

Run (full)::

    PYTHONPATH=src python -m pytest benchmarks/bench_persistence.py -s

Run (smoke mode, seconds)::

    PYTHONPATH=src python -m pytest benchmarks/bench_persistence.py -s --quick

The trees are randomly generated (persistence cost depends only on
structure, not on how the trees were learned).
"""

from __future__ import annotations

import re
import time

import numpy as np
from conftest import emit, is_quick

from repro.ensemble import RandomForestClassifier
from repro.parallel import fork_available, run_batches
from repro.persistence import load, save
from repro.trees import DecisionTreeClassifier
from repro.trees.node import InternalNode, Leaf

N_FEATURES = 20
MIN_MMAP_SPEEDUP = 50.0
POOL_WORKERS = 4

#: (n_trees, depth, leaf probability, batch size); the full headline row
#: matches bench_compiled_inference's serving scale.
FULL_SCALES = [
    (10, 8, 0.15, 1_000),
    (100, 12, 0.05, 10_000),
    (100, 14, 0.05, 10_000),
]
QUICK_SCALES = [(8, 6, 0.15, 500)]
HEADLINE_INDEX = -1  # last row of whichever grid runs


def _random_tree(gen: np.random.Generator, depth: int, leaf_p: float):
    if depth == 0 or gen.uniform() < leaf_p:
        label = int(gen.choice([-1, 1]))
        return Leaf(prediction=label, class_weights={label: float(gen.uniform(1, 9))})
    return InternalNode(
        feature=int(gen.integers(N_FEATURES)),
        threshold=float(gen.normal()),
        left=_random_tree(gen, depth - 1, leaf_p),
        right=_random_tree(gen, depth - 1, leaf_p),
    )


def _random_forest(gen: np.random.Generator, n_trees: int, depth: int, leaf_p: float):
    forest = RandomForestClassifier(n_estimators=n_trees)
    trees = []
    for _ in range(n_trees):
        tree = DecisionTreeClassifier()
        tree.root_ = _random_tree(gen, depth, leaf_p)
        tree.classes_ = np.array([-1, 1])
        tree.n_features_in_ = N_FEATURES
        trees.append(tree)
    forest.trees_ = trees
    forest.feature_subsets_ = [np.arange(N_FEATURES)] * n_trees
    forest.classes_ = np.array([-1, 1])
    forest.n_features_in_ = N_FEATURES
    return forest


def _best_of(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _unique_rss_kb() -> int:
    """This process's non-shared resident memory (Private_* of
    ``smaps_rollup``), i.e. what the process costs *beyond* pages it
    shares with siblings — exactly the number mmap sharing improves."""
    try:
        text = open("/proc/self/smaps_rollup").read()
    except OSError:  # pragma: no cover - non-Linux fallback
        return -1
    total = 0
    for key in ("Private_Clean", "Private_Dirty"):
        match = re.search(rf"^{key}:\s+(\d+) kB", text, re.MULTILINE)
        total += int(match.group(1)) if match else 0
    return total


def _serve_pickled(model, X):
    model.predict_all(X)
    return _unique_rss_kb()


def _serve_from_handle(handle, X):
    path, fmt, mmap_mode = handle
    model = load(path, format=fmt, mmap_mode=mmap_mode)
    model.predict_all(X)
    return _unique_rss_kb()


def _pool_memory(forest, path, X) -> tuple[float, float]:
    """Mean unique RSS (MB) per worker: pickled model vs shared mmap."""
    chunks = [(c,) for c in np.array_split(X, POOL_WORKERS)]
    pickled = run_batches(
        _serve_pickled, [(forest, c) for (c,) in chunks], n_workers=POOL_WORKERS
    )
    handle = (str(path), "binary", "r")
    shared = run_batches(
        _serve_from_handle, [(handle, c) for (c,) in chunks], n_workers=POOL_WORKERS
    )
    to_mb = lambda kbs: float(np.mean([kb for kb in kbs if kb >= 0]) / 1024.0)
    return to_mb(pickled), to_mb(shared)


def test_bench_persistence(request, tmp_path):
    quick = is_quick(request.config)
    scales = QUICK_SCALES if quick else FULL_SCALES
    repeats = 2 if quick else 3
    gen = np.random.default_rng(20250808)

    rows = []
    data_rows = []
    headline_speedup = 0.0
    pool_pickled_mb = pool_shared_mb = None
    for index, (n_trees, depth, leaf_p, batch) in enumerate(scales):
        forest = _random_forest(gen, n_trees, depth, leaf_p)
        X = gen.normal(size=(batch, N_FEATURES))
        expected = forest.predict_all(X)

        json_path = tmp_path / f"forest_{index}.json"
        bin_path = tmp_path / f"forest_{index}.rfbin"

        t_json_save = _best_of(lambda: save(forest, json_path, format="json"), repeats)
        t_bin_save = _best_of(lambda: save(forest, bin_path, format="binary"), repeats)

        t_json_load = _best_of(lambda: load(json_path), repeats)
        t_bin_load = _best_of(lambda: load(bin_path), repeats)
        t_mmap_load = _best_of(lambda: load(bin_path, mmap_mode="r"), repeats)

        # Loaded models answer identically, whatever the format.
        for restored in (load(json_path), load(bin_path), load(bin_path, mmap_mode="r")):
            assert np.array_equal(restored.predict_all(X), expected)

        speedup = t_json_load / t_mmap_load
        if index == len(scales) + HEADLINE_INDEX:
            headline_speedup = speedup
            if fork_available():
                pool_pickled_mb, pool_shared_mb = _pool_memory(forest, bin_path, X)

        json_kb = json_path.stat().st_size // 1024
        bin_kb = bin_path.stat().st_size // 1024
        rows.append(
            f"{n_trees:>6} {depth:>6} {json_kb:>9} {bin_kb:>9} "
            f"{1e3 * t_json_load:>12.1f} {1e3 * t_bin_load:>12.1f} "
            f"{1e3 * t_mmap_load:>12.2f} {speedup:>9.0f}x "
            f"{1e3 * (t_json_save + t_json_load):>13.1f} "
            f"{1e3 * (t_bin_save + t_bin_load):>13.1f}"
        )
        data_rows.append(
            {
                "trees": n_trees,
                "depth": depth,
                "json_kb": json_kb,
                "rfbin_kb": bin_kb,
                "json_load_ms": round(1e3 * t_json_load, 2),
                "binary_load_ms": round(1e3 * t_bin_load, 2),
                "mmap_load_ms": round(1e3 * t_mmap_load, 3),
                "mmap_vs_json": round(speedup, 1),
                "json_roundtrip_ms": round(1e3 * (t_json_save + t_json_load), 2),
                "binary_roundtrip_ms": round(1e3 * (t_bin_save + t_bin_load), 2),
            }
        )

    header = (
        f"{'trees':>6} {'depth':>6} {'json kB':>9} {'rfbin kB':>9} "
        f"{'json ld ms':>12} {'bin ld ms':>12} {'mmap ld ms':>12} {'speedup':>10} "
        f"{'json rt ms':>13} {'bin rt ms':>13}"
    )
    lines = [header] + rows
    metrics = {"mmap_vs_json_load": round(headline_speedup, 1)}
    if pool_pickled_mb is not None:
        lines.append(
            f"\n{POOL_WORKERS}-worker pool, unique RSS per worker: "
            f"pickled model {pool_pickled_mb:.1f} MB, "
            f"shared mmap artefact {pool_shared_mb:.1f} MB"
        )
        metrics["pool_worker_unique_mb_pickled"] = round(pool_pickled_mb, 2)
        metrics["pool_worker_unique_mb_mmap"] = round(pool_shared_mb, 2)

    mode = "quick" if quick else "full"
    emit(
        "persistence",
        f"mode: {mode} (best of {repeats})\n" + "\n".join(lines),
        mode=mode,
        rows=data_rows,
        metrics=metrics,
    )

    if not quick:
        assert headline_speedup >= MIN_MMAP_SPEEDUP, (
            f"mmap load is only {headline_speedup:.0f}x faster than JSON on the "
            f"headline forest (acceptance bar: {MIN_MMAP_SPEEDUP:.0f}x)"
        )
        if pool_shared_mb is not None:
            assert pool_shared_mb < pool_pickled_mb, (
                f"pooled workers sharing the mmap artefact should carry less "
                f"unique memory ({pool_shared_mb:.1f} MB) than pickled ones "
                f"({pool_pickled_mb:.1f} MB)"
            )
