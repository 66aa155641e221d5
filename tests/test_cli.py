"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_watermark_args(self, tmp_path):
        args = build_parser().parse_args(
            ["watermark", "--dataset", "breast-cancer", "--out-dir", str(tmp_path)]
        )
        assert args.command == "watermark"
        assert args.trees == 16

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["watermark", "--dataset", "cifar", "--out-dir", str(tmp_path)]
            )


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("cli-artifacts")
        code = main(
            [
                "watermark",
                "--dataset", "breast-cancer",
                "--samples", "240",
                "--trees", "8",
                "--trigger-size", "5",
                "--max-depth", "8",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        return out_dir

    def test_artifacts_written(self, artifacts):
        assert (artifacts / "model.json").exists()
        assert (artifacts / "secret.json").exists()
        assert (artifacts / "commitment.json").exists()

    def test_verify_accepts_legitimate_claim(self, artifacts):
        code = main(
            [
                "verify",
                "--model", str(artifacts / "model.json"),
                "--secret", str(artifacts / "secret.json"),
                "--commitment", str(artifacts / "commitment.json"),
            ]
        )
        assert code == 0

    def test_verify_rejects_tampered_secret(self, artifacts, tmp_path):
        secret = json.loads((artifacts / "secret.json").read_text())
        bits = list(secret["signature"])
        bits[0] = "1" if bits[0] == "0" else "0"
        secret["signature"] = "".join(bits)
        tampered = tmp_path / "tampered_secret.json"
        tampered.write_text(json.dumps(secret))

        # Without the commitment the claim reaches verification and fails.
        code = main(
            [
                "verify",
                "--model", str(artifacts / "model.json"),
                "--secret", str(tampered),
            ]
        )
        assert code == 1

        # With the commitment the reveal itself is rejected first.
        code = main(
            [
                "verify",
                "--model", str(artifacts / "model.json"),
                "--secret", str(tampered),
                "--commitment", str(artifacts / "commitment.json"),
            ]
        )
        assert code == 2

    def test_malformed_model_reports_error(self, artifacts, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{}")
        code = main(
            [
                "verify",
                "--model", str(broken),
                "--secret", str(artifacts / "secret.json"),
            ]
        )
        assert code == 2


class TestAttackCommand:
    def test_list_names_all_registered_attacks(self, capsys):
        assert main(["attack", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("truncate", "flip", "prune", "extract", "forgery",
                     "suppression", "detection", "chain"):
            assert name in out

    def test_requires_name_or_list(self, capsys):
        assert main(["attack"]) == 2
        assert "--name" in capsys.readouterr().err

    def test_run_emits_uniform_json_cells(self, capsys):
        code = main(
            ["attack", "--name", "flip", "--dataset", "breast-cancer",
             "--strength", "0.0", "--strength", "0.4", "--json"]
        )
        assert code == 0
        cells = json.loads(capsys.readouterr().out)
        assert [c["strength"] for c in cells] == [0.0, 0.4]
        report = cells[0]["report"]
        assert report["attack"] == "flip"
        assert report["watermark_accepted"] is True  # p=0 is the identity
        assert report["watermark_match_rate"] == 1.0

    def test_run_renders_table_by_default(self, capsys):
        code = main(
            ["attack", "--name", "truncate", "--dataset", "breast-cancer",
             "--strength", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "WM accepted" in out
        assert "truncate" in out

    def test_unknown_attack_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "--name", "nope"])


class TestTrafficCommand:
    def test_list_names_all_scenarios(self, capsys):
        assert main(["traffic", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("legit", "verification-probe", "suppression-evasion",
                     "extraction-harvest", "mixed"):
            assert name in out

    def test_requires_scenario_or_list(self, capsys):
        assert main(["traffic"]) == 2
        assert "--scenario" in capsys.readouterr().err

    def test_unknown_scenario_reports_error(self, capsys):
        assert main(["traffic", "--scenario", "nope", "--queries", "512"]) == 2
        assert "unknown traffic scenario" in capsys.readouterr().err

    def test_replay_emits_traffic_report_json(self, capsys):
        code = main(
            ["traffic", "--scenario", "legit", "--dataset", "breast-cancer",
             "--queries", "1024", "--batch-size", "256", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stream"] == "legit"
        assert report["n_queries"] == 1024
        assert report["source_counts"] == {"legit": 1024}
        verdicts = {v["defender"]: v for v in report["verdicts"]}
        assert set(verdicts) == {"suppression-distinguisher",
                                 "extraction-monitor"}
        # pure benign traffic: the defenders must stay silent
        assert not any(v["fired"] for v in verdicts.values())

    def test_replay_renders_summary_by_default(self, capsys):
        code = main(
            ["traffic", "--scenario", "verification-probe",
             "--dataset", "breast-cancer", "--queries", "2048",
             "--batch-size", "512"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verification-probe" in out
        assert "queries/sec" in out
        assert "defender" in out


class TestModuleEntryPoint:
    def test_python_dash_m_repro_invokes_the_cli(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
        )
        assert result.returncode == 0
        assert "watermark" in result.stdout
        assert "attack" in result.stdout

    def test_console_script_declared_in_setup(self):
        setup_py = (Path(SRC_DIR).parent / "setup.py").read_text()
        assert "console_scripts" in setup_py
        assert "repro = repro.cli:main" in setup_py


class TestExportConvert:
    @pytest.fixture(scope="class")
    def binary_artifacts(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("cli-binary-artifacts")
        code = main(
            [
                "watermark",
                "--dataset", "breast-cancer",
                "--samples", "240",
                "--trees", "8",
                "--trigger-size", "5",
                "--max-depth", "8",
                "--format", "binary",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        return out_dir

    def test_watermark_writes_rfbin(self, binary_artifacts):
        assert (binary_artifacts / "model.rfbin").exists()
        assert not (binary_artifacts / "model.json").exists()

    def test_verify_reads_binary_artifact(self, binary_artifacts, capsys):
        code = main(
            [
                "verify",
                "--model", str(binary_artifacts / "model.rfbin"),
                "--secret", str(binary_artifacts / "secret.json"),
                "--commitment", str(binary_artifacts / "commitment.json"),
            ]
        )
        assert code == 0
        assert "ACCEPTED" in capsys.readouterr().out

    def test_export_convert_chain_preserves_watermark(
        self, binary_artifacts, tmp_path, capsys
    ):
        json_path = tmp_path / "model.json"
        rfbin_path = tmp_path / "model2.rfbin"
        assert main(
            [
                "export",
                "--model", str(binary_artifacts / "model.rfbin"),
                "--out", str(json_path),
            ]
        ) == 0
        assert json_path.exists()
        assert main(["convert", str(json_path), str(rfbin_path)]) == 0
        code = main(
            [
                "verify",
                "--model", str(rfbin_path),
                "--secret", str(binary_artifacts / "secret.json"),
                "--commitment", str(binary_artifacts / "commitment.json"),
            ]
        )
        assert code == 0
        assert "ACCEPTED" in capsys.readouterr().out

    def test_export_ensemble_only_strips_secret(self, binary_artifacts, tmp_path):
        out = tmp_path / "ensemble.rfbin"
        assert main(
            [
                "export",
                "--model", str(binary_artifacts / "model.rfbin"),
                "--out", str(out),
                "--ensemble-only",
            ]
        ) == 0
        from repro.ensemble import RandomForestClassifier
        from repro.persistence import load

        assert isinstance(load(out), RandomForestClassifier)


class TestServeParser:
    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--model", "a=/tmp/a.rfbin", "--model", "b=/tmp/b.rfbin"]
        )
        assert args.command == "serve"
        assert args.models == ["a=/tmp/a.rfbin", "b=/tmp/b.rfbin"]
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.max_batch_rows == 512
        assert args.max_queue_rows == 8192
        assert args.max_concurrent_batches == 2

    def test_serve_requires_a_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_bad_model_spec_is_a_repro_error(self, capsys):
        assert main(["serve", "--model", "no-equals-sign"]) == 2
        assert "NAME=PATH" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-batch-rows", "0"),
            ("--max-queue-rows", "-5"),
            ("--max-concurrent-batches", "0"),
        ],
    )
    def test_batcher_sizes_below_one_rejected(self, capsys, tmp_path, flag, value):
        # Rejected at parse time, before any model loads: the artefact
        # need not exist.
        model = f"m={tmp_path / 'missing.rfbin'}"
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--model", model, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--max-batch-rows", "--max-queue-rows", "--max-concurrent-batches"]
    )
    def test_non_integral_batcher_sizes_rejected(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--model", "m=x", flag, "2.5"])


class TestExitCodes:
    """The POSIX-pipeline contract: 130 on ^C, silence on EPIPE."""

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli._cmd_traffic", interrupted)
        assert main(["traffic", "--list"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_broken_pipe_exits_quietly(self, monkeypatch, capsys):
        def head_went_away(args):
            raise BrokenPipeError

        monkeypatch.setattr("repro.cli._cmd_traffic", head_went_away)
        assert main(["traffic", "--list"]) == 0
        assert capsys.readouterr().err == ""

    def test_repro_error_still_exits_2(self, monkeypatch, capsys):
        from repro.exceptions import ValidationError

        def broken(args):
            raise ValidationError("no such thing")

        monkeypatch.setattr("repro.cli._cmd_traffic", broken)
        assert main(["traffic", "--list"]) == 2
        assert "no such thing" in capsys.readouterr().err


class TestTrafficStrictJSON:
    def test_zero_elapsed_replay_emits_parseable_json(self, monkeypatch, capsys):
        """qps=inf and NaN verdicts must still serialize as strict JSON."""
        from types import SimpleNamespace

        from repro.traffic.defenders import Verdict
        from repro.traffic.replay import TrafficReport

        report = TrafficReport(
            stream="legit",
            n_queries=64,
            n_batches=1,
            n_trigger_queries=0,
            source_counts={"legit": 64},
            elapsed_seconds=0.0,
            queries_per_second=float("inf"),
            verdicts=(
                Verdict(
                    defender="suppression-distinguisher",
                    fired=False,
                    n_queries=64,
                    statistic=float("nan"),
                    threshold=float("nan"),
                ),
            ),
        )
        monkeypatch.setattr(
            "repro.experiments.scenarios.build_attack_target",
            lambda config, dataset: SimpleNamespace(model=None, X_train=None),
        )
        monkeypatch.setattr(
            "repro.traffic.replay_scenario", lambda *a, **k: report
        )
        assert main(["traffic", "--scenario", "legit", "--json"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1  # `| head -1` safe

        def reject_constants(value):
            raise AssertionError(f"non-standard JSON constant {value!r}")

        data = json.loads(out, parse_constant=reject_constants)
        assert data["queries_per_second"] is None
        assert data["verdicts"][0]["statistic"] is None

    def test_piped_traffic_json_first_line_parses(self):
        """Acceptance: `repro traffic --json | head -1` is loadable."""
        result = subprocess.run(
            f"{sys.executable} -m repro traffic --scenario verification-probe "
            "--queries 2048 --json | head -1",
            shell=True,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["stream"] == "mixed" or report["n_queries"] == 2048
