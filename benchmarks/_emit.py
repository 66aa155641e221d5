"""Benchmark result emission: rendered text + machine-readable JSON.

Every benchmark funnels its output through :func:`emit`, which

- prints the rendered table (visible with ``pytest -s``),
- persists it to ``benchmarks/results/<name>.txt`` (the historical
  artefact format), and
- writes ``benchmarks/results/<name>.json`` with the run mode and any
  structured rows/metrics the benchmark supplies, so the perf
  trajectory is tracked across PRs and uploadable as a CI artifact
  without scraping ASCII tables.

A quick (smoke) run writes both files under the git-ignored
``benchmarks/results/quick/`` instead, so it never replaces the
committed full-mode evidence.

JSON payload shape::

    {
      "name":    "bench_tree_fit",
      "mode":    "quick" | "full",
      "rows":    [{"col": value, ...}, ...],   # tabular results
      "metrics": {"headline_speedup": 6.1},     # scalar summaries
      "text":    "rendered table"
    }

``rows`` accepts either a list of dicts or a ``headers`` list plus
row-lists (the shape :func:`repro.experiments.format_table` consumes),
which keeps the per-benchmark changes one-line.  Numpy scalars are
converted to plain Python numbers.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def _env_quick() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "").strip().lower() in (
        "1",
        "true",
        "yes",
    )


def _plain(value):
    """Coerce numpy scalars (and anything item()-able) to plain Python.

    Non-finite floats become ``None``: the JSON artefact is consumed by
    strict parsers, and ``Infinity``/``NaN`` are not valid JSON.
    """
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            value = value.item()
        except (AttributeError, ValueError):  # pragma: no cover - defensive
            return str(value)
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _normalise_rows(rows, headers):
    if rows is None:
        return []
    normalised = []
    for row in rows:
        if isinstance(row, dict):
            normalised.append({str(k): _plain(v) for k, v in row.items()})
        elif headers is not None:
            normalised.append(
                {str(h): _plain(v) for h, v in zip(headers, row)}
            )
        else:
            normalised.append([_plain(v) for v in row])
    return normalised


def emit(
    name: str,
    text: str,
    *,
    mode: str | None = None,
    headers: list[str] | None = None,
    rows=None,
    metrics: dict | None = None,
) -> None:
    """Print a rendered table and persist it as both text and JSON."""
    banner = f"\n=== {name} ===\n{text}\n"
    print(banner)
    if mode is None:
        mode = "quick" if _env_quick() else "full"
    out_dir = RESULTS_DIR / "quick" if mode == "quick" else RESULTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    payload = {
        "name": name,
        "mode": mode,
        "rows": _normalise_rows(rows, headers),
        "metrics": {str(k): _plain(v) for k, v in (metrics or {}).items()},
        "text": text,
    }
    (out_dir / f"{name}.json").write_text(
        json.dumps(payload, indent=2, allow_nan=False) + "\n", encoding="utf-8"
    )
