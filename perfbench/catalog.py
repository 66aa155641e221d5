"""Every metric the benchmark prints, with its unit.

``END_TO_END`` is printed by an untraced run (``--trace 0``) on every
workload, ``PER_LAYER`` by a traced run (``--trace 1``) on every
workload.  A layer a workload does not exercise reads 0 there.  The
self-test checks these lists against ``BENCHMARK.json``.
"""

from __future__ import annotations

#: name -> unit.  Per-workload meaning of the shared names: README.md.
END_TO_END = {
    "setup_s": "s",
    "verify_ms": "ms",
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "wm_test_accuracy": "fraction",
    "peak_rss_mb": "MB",
}

#: Spans whose self time a traced run reports as ``self.<span>_s``.
SELF_TIMED = (
    "embed.fit",
    "embed.adjust",
    "embed.train_with_trigger",
    "forest.fit",
    "forest.refit",
    "tree.fit",
    "trees.split",
    "trees.presort",
    "verify.load",
    "verify.judge",
    "forge.campaign",
    "forge.attempt",
    "sat.solve",
    "serve.submit",
    "serve.batch",
    "serve.engine",
    "serve.fold",
)

PER_LAYER = {
    # Embedding — repro.api.pipeline, repro.core.embedding,
    # repro.core.adjustment, repro.ensemble.forest, repro.trees.
    # Per embedded model; they move latency_p50_ms on dispute-*.
    "embed.adjust_s": "s",
    "embed.trigger_rounds": "count",
    "embed.tree_fits": "count",
    "embed.tree_fit_ms": "ms",
    "embed.refit_s": "s",
    "embed.misfit_check_ms": "ms",
    "trees.split_calls": "count",
    "trees.split_s": "s",
    "trees.presort_s": "s",
    "trees.presort_hits": "count",
    "trees.presort_misses": "count",
    # Verification — repro.persistence, repro.ensemble.compiled,
    # repro.core.verification.  Per verification; they move verify_ms.
    "verify.load_ms": "ms",
    "verify.compile_ms": "ms",
    "verify.descent_ms": "ms",
    "verify.match_ms": "ms",
    # Forgery — repro.attacks.forgery, repro.solver.  They move
    # throughput_per_s on dispute-*.
    "forge.encodings": "count",
    "forge.encode_ms": "ms",
    "forge.solve_p50_ms": "ms",
    "forge.solve_p99_ms": "ms",
    "forge.sat": "count",
    "forge.unsat": "count",
    "forge.unknown": "count",
    "forge.success_rate": "fraction",
    "forge.prescreen_share": "fraction",
    "sat.conflicts": "count",
    "sat.decisions": "count",
    "sat.propagations": "count",
    "sat.solve_ms": "ms",
    # Serving — repro.serve.batching, repro.serve.registry,
    # repro.serve.http, repro.traffic.defenders, measured in the daemon.
    "serve.submit_us": "us",
    "serve.queue_wait_us": "us",
    "serve.batch_us": "us",
    "serve.engine_us": "us",
    "serve.fold_us": "us",
    "serve.rows_per_call": "rows",
    "serve.engine_calls": "count",
    "serve.requests": "count",
    "serve.outside_submit_us": "us",
    "serve.rejected": "count",
    "serve.load_ms": "ms",
    # The serving load generator's own side.
    "client.prepare_s": "s",
    "client.probe_tail_ms": "ms",
    **{f"self.{name}_s": "s" for name in SELF_TIMED},
    # Tracing itself: headline slowdown of the traced pass over an
    # untraced pass on the same inputs, and the spans it kept.
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def self_time_metrics(self_ns: dict) -> dict:
    """``self.<span>_s`` totals from span name -> self times in ns."""
    return {
        f"self.{name}_s": sum(self_ns.get(name, ())) / 1e9 for name in SELF_TIMED
    }
