"""Where ``benchmarks/_emit.py`` writes: quick runs never overwrite the
committed full-mode results."""

import importlib.util
import json
from pathlib import Path

import pytest

_EMIT = Path(__file__).resolve().parents[1] / "benchmarks" / "_emit.py"


@pytest.fixture
def emit_module(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_emit", _EMIT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)
    monkeypatch.delenv("REPRO_BENCH_QUICK", raising=False)
    return module


def _written(root: Path) -> list[str]:
    return sorted(str(path.relative_to(root)) for path in root.rglob("*.*"))


def test_full_run_writes_the_committed_files(emit_module, tmp_path):
    emit_module.emit("table", "rendered", metrics={"speedup": 2.0})
    assert _written(tmp_path) == ["table.json", "table.txt"]
    payload = json.loads((tmp_path / "table.json").read_text())
    assert payload["mode"] == "full" and payload["metrics"] == {"speedup": 2.0}


@pytest.mark.parametrize("how", ["keyword", "environment"])
def test_quick_run_writes_under_quick(emit_module, tmp_path, monkeypatch, how):
    (tmp_path / "table.txt").write_text("committed\n")
    if how == "keyword":
        emit_module.emit("table", "rendered", mode="quick")
    else:
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        emit_module.emit("table", "rendered")
    assert _written(tmp_path) == ["quick/table.json", "quick/table.txt", "table.txt"]
    assert (tmp_path / "table.txt").read_text() == "committed\n"
    payload = json.loads((tmp_path / "quick" / "table.json").read_text())
    assert payload["mode"] == "quick"
