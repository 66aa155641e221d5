"""Shared benchmark infrastructure.

Every benchmark regenerates one table or figure of the paper at the
``BENCH`` scale (laptop-sized stand-in datasets, see DESIGN.md §2).
Rendered tables are printed (visible with ``pytest -s``) and written to
``benchmarks/results/<name>.txt``; alongside each table, ``emit`` (see
``benchmarks/_emit.py``) also writes ``results/<name>.json`` with the
run mode and the structured rows/metrics, so the perf trajectory is
machine-readable.  Quick runs write both under ``results/quick/``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from _emit import RESULTS_DIR, emit  # noqa: F401  (re-exported for benchmarks)
from repro.experiments import SMALL


def pytest_configure(config):
    # Mirror --quick into the environment so helper modules (and any
    # worker processes) see the same mode without a pytest config.
    if config.getoption("--quick", default=False):
        os.environ["REPRO_BENCH_QUICK"] = "1"


def is_quick(config=None) -> bool:
    """Smoke mode: ``--quick`` on the command line or REPRO_BENCH_QUICK=1.

    In smoke mode benchmarks shrink their workloads so the whole file
    runs in seconds under pytest (CI sanity check); full mode produces
    the committed figures.
    """
    if os.environ.get("REPRO_BENCH_QUICK", "").strip().lower() in ("1", "true", "yes"):
        return True
    if config is not None:
        return bool(config.getoption("--quick", default=False))
    return False


@pytest.fixture(scope="session")
def quick_mode(request) -> bool:
    return is_quick(request.config)

#: The benchmark-scale configuration: large enough for the paper's
#: qualitative shapes, small enough for the whole suite to run in
#: minutes on a laptop.
BENCH = SMALL.with_overrides(
    name="bench",
    dataset_sizes={"mnist26": 480, "breast-cancer": 300, "ijcnn1": 700},
    n_estimators=16,
    tree_feature_fraction=0.35,
    escalation_factor=2.0,
)


@pytest.fixture(scope="session")
def bench_config():
    return BENCH
