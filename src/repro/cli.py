"""Command-line interface for the watermarking workflow.

Four subcommands cover the owner/judge/attacker lifecycle end to end::

    # Owner: train a watermarked forest on a stand-in dataset and save
    # the model + secret (+ a published commitment digest).
    repro watermark --dataset breast-cancer --trees 16 \
        --trigger-size 8 --out-dir ./artifacts

    # Judge: verify a claim against a (possibly stolen) model file.
    repro verify --model ./artifacts/model.json \
        --secret ./artifacts/secret.json \
        --commitment ./artifacts/commitment.json

    # Operator: re-export / convert artefacts between formats (json
    # escape hatch, mmap-able .rfbin, sklearn-interop .npz).
    repro convert ./artifacts/model.json ./artifacts/model.rfbin
    repro export --model ./artifacts/model.rfbin --out ./interop.npz

    # Anyone: regenerate one of the paper's experiments at small scale.
    repro experiment --name table2

    # Attacker: run any registry attack against a freshly watermarked
    # model (uniform AttackReport JSON with --json).
    repro attack --list
    repro attack --name flip --strength 0.05 --strength 0.3 --json

    # Operator: replay a named adversarial traffic scenario against a
    # freshly watermarked deployment with the online defenders attached.
    repro traffic --list
    repro traffic --scenario verification-probe --queries 20000 --json

    # Operator: serve saved model artefacts over HTTP (micro-batched
    # predict/predict_all plus a judge-facing /verify endpoint).
    repro serve --model demo=./artifacts/model.rfbin --port 8080

    # Maintainer: statically check the tree against the repo's own
    # determinism/JSON/atomicity/concurrency contracts (exit 1 on
    # findings; every suppression must carry a reason).
    repro lint src benchmarks examples
    repro lint --explain RPR003

(``repro`` is the installed console script; ``python -m repro`` and
``python -m repro.cli`` are equivalent.)  The CLI works on the
synthetic stand-in datasets; library users with real data call
:class:`repro.Watermarker` directly.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from ._jsonsafe import dumps
from .analysis.cli import add_lint_parser, run_lint
from .api import TrainerConfig, TriggerPolicy, Watermarker, available_attacks, make_attack
from .core import (
    WatermarkSecret,
    commit_secret,
    random_signature,
    verify_commitment,
    verify_ownership,
)
from .datasets import DATASET_NAMES, load_dataset
from .exceptions import ReproError, ValidationError
from .experiments import (
    SMALL,
    detection_table,
    format_table,
    forgery_tabular_results,
    run_scenario_matrix,
)
from .model_selection import train_test_split
from .persistence import (
    available_formats,
    load_json,
    save_json,
    secret_from_dict,
    secret_to_dict,
)
from .persistence import load as load_model
from .persistence import save as save_model

__all__ = ["main", "build_parser"]


def positive_int(text: str) -> int:
    """argparse ``type=`` for a size flag: an integer ``>= 1``."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Watermarking decision-tree ensembles (EDBT 2025 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd_watermark = commands.add_parser(
        "watermark", help="train a watermarked forest and save model + secret"
    )
    cmd_watermark.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    cmd_watermark.add_argument("--samples", type=int, default=500,
                               help="stand-in dataset size (default 500)")
    cmd_watermark.add_argument("--trees", type=int, default=16,
                               help="ensemble size m = signature length")
    cmd_watermark.add_argument("--trigger-size", type=int, default=8)
    cmd_watermark.add_argument("--ones-fraction", type=float, default=0.5)
    cmd_watermark.add_argument("--max-depth", type=int, default=10)
    cmd_watermark.add_argument("--n-jobs", type=int, default=None,
                               help="worker processes for tree fitting "
                               "(-1 = all cores; default serial); results "
                               "are identical across settings")
    cmd_watermark.add_argument("--seed", type=int, default=0)
    cmd_watermark.add_argument("--out-dir", type=Path, required=True)
    cmd_watermark.add_argument("--format", choices=("json", "binary"),
                               default="json", dest="model_format",
                               help="model artefact format: json (inspectable, "
                               "default) or binary (.rfbin, mmap-able for "
                               "serving)")

    cmd_verify = commands.add_parser(
        "verify", help="verify an ownership claim against a model file"
    )
    cmd_verify.add_argument("--model", type=Path, required=True,
                            help="model artefact in any registered format "
                            "(detected from its content)")
    cmd_verify.add_argument("--secret", type=Path, required=True)
    cmd_verify.add_argument("--commitment", type=Path, default=None,
                            help="optional commitment file to check the reveal against")
    cmd_verify.add_argument("--mode", choices=("strict", "iff"), default="strict")

    cmd_export = commands.add_parser(
        "export",
        help="re-export a model artefact in another registered format",
    )
    cmd_export.add_argument("--model", type=Path, required=True,
                            help="source artefact (format detected from content)")
    cmd_export.add_argument("--out", type=Path, required=True,
                            help="destination path; format inferred from the "
                            "extension unless --format is given")
    cmd_export.add_argument("--format", default=None, dest="out_format",
                            help="destination format "
                            f"({', '.join(available_formats())})")
    cmd_export.add_argument("--ensemble-only", action="store_true",
                            help="export only the forest of a watermarked "
                            "model (strips the secret — required for "
                            "formats that refuse to carry it)")

    cmd_convert = commands.add_parser(
        "convert",
        help="convert a model artefact between registered formats",
    )
    cmd_convert.add_argument("input", type=Path,
                             help="source artefact (format detected from content)")
    cmd_convert.add_argument("output", type=Path,
                             help="destination path; format inferred from the "
                             "extension unless --to is given")
    cmd_convert.add_argument("--to", default=None, dest="to_format",
                             help="destination format "
                             f"({', '.join(available_formats())})")

    cmd_experiment = commands.add_parser(
        "experiment", help="regenerate a paper experiment at small scale"
    )
    cmd_experiment.add_argument(
        "--name", choices=("table2", "sec422"), required=True
    )
    cmd_experiment.add_argument(
        "--n-jobs", type=int, default=None,
        help="worker processes for forest training and the forgery "
        "solver sweep (-1 = all cores; default serial); results are "
        "identical across settings",
    )

    cmd_attack = commands.add_parser(
        "attack",
        help="run a registry attack against a freshly watermarked model",
    )
    cmd_attack.add_argument("--list", action="store_true", dest="list_attacks",
                            help="list the registered attacks and exit")
    cmd_attack.add_argument("--name", choices=available_attacks(), default=None,
                            help="registry name of the attack to run")
    cmd_attack.add_argument("--dataset", choices=DATASET_NAMES,
                            default="breast-cancer")
    cmd_attack.add_argument("--strength", type=float, action="append",
                            default=None,
                            help="strength value for the attack's strength "
                            "parameter (truncate: depth, flip: probability, "
                            "prune: alpha, extract: query budget, forgery: "
                            "epsilon); repeat to sweep")
    cmd_attack.add_argument("--json", action="store_true",
                            help="emit the uniform AttackReport cells as JSON "
                            "instead of a table")
    cmd_attack.add_argument("--n-jobs", type=int, default=None,
                            help="worker processes for forest training "
                            "(-1 = all cores; default serial)")
    cmd_attack.add_argument("--seed", type=int, default=None,
                            help="override the experiment config seed")

    cmd_traffic = commands.add_parser(
        "traffic",
        help="replay an adversarial traffic scenario against a "
        "watermarked deployment with online defenders attached",
    )
    cmd_traffic.add_argument("--list", action="store_true", dest="list_scenarios",
                             help="list the named traffic scenarios and exit")
    cmd_traffic.add_argument("--scenario", default=None,
                             help="named scenario to replay (see --list)")
    cmd_traffic.add_argument("--dataset", choices=DATASET_NAMES,
                             default="breast-cancer")
    cmd_traffic.add_argument("--queries", type=int, default=10_000,
                             help="stream length (default 10000)")
    cmd_traffic.add_argument("--batch-size", type=int, default=1024,
                             help="queries served per chunk (default 1024)")
    cmd_traffic.add_argument("--alpha", type=float, default=0.05,
                             help="defenders' overall false-alarm budget")
    cmd_traffic.add_argument("--json", action="store_true",
                             help="emit the TrafficReport as JSON instead of "
                             "a summary")
    cmd_traffic.add_argument("--n-jobs", type=int, default=None,
                             help="worker processes for forest training "
                             "(-1 = all cores; default serial)")
    cmd_traffic.add_argument("--seed", type=int, default=None,
                             help="override the experiment config seed")

    cmd_serve = commands.add_parser(
        "serve",
        help="serve saved model artefacts over HTTP with request "
        "micro-batching and a judge-facing verification endpoint",
    )
    cmd_serve.add_argument("--model", action="append", required=True,
                           metavar="NAME=PATH", dest="models",
                           help="artefact to host, as name=path; repeat to "
                           "host several (.rfbin artefacts are mmap-loaded)")
    cmd_serve.add_argument("--host", default="127.0.0.1")
    cmd_serve.add_argument("--port", type=int, default=8080,
                           help="TCP port (0 picks an ephemeral port, "
                           "printed on startup)")
    cmd_serve.add_argument("--max-batch-rows", type=positive_int, default=512,
                           help="rows that flush at once even on a busy "
                           "engine (1 disables coalescing)")
    cmd_serve.add_argument("--max-queue-rows", type=positive_int, default=8192,
                           help="per-model backlog before requests are "
                           "rejected with 429 + Retry-After")
    cmd_serve.add_argument("--max-concurrent-batches", type=positive_int, default=2,
                           help="fused predict_all calls in flight per model")
    cmd_serve.add_argument("--alpha", type=float, default=0.05,
                           help="false-alarm budget of the per-model "
                           "traffic observer")
    cmd_serve.add_argument("--request-timeout", type=float, default=30.0,
                           help="seconds an engine call may run before the "
                           "request answers 504 (0 disables the bound)")
    cmd_serve.add_argument("--read-timeout", type=float, default=30.0,
                           help="seconds a peer may take to send its request "
                           "before the connection is cut (slow-loris "
                           "defence; 0 disables)")
    cmd_serve.add_argument("--failure-budget", type=int, default=5,
                           help="engine failures inside a 30s window before "
                           "a model is quarantined")
    cmd_serve.add_argument("--quarantine", type=float, default=5.0,
                           help="seconds a quarantined model answers 503 + "
                           "Retry-After before traffic probes it again")

    add_lint_parser(commands)

    return parser


def _cmd_watermark(args) -> int:
    dataset = load_dataset(args.dataset, n_samples=args.samples, random_state=args.seed)
    X_train, X_test, y_train, y_test = train_test_split(
        dataset.X, dataset.y, test_size=0.3, random_state=args.seed + 1
    )
    signature = random_signature(
        args.trees, ones_fraction=args.ones_fraction, random_state=args.seed + 2
    )
    model = Watermarker(
        signature=signature,
        trigger=TriggerPolicy(size=args.trigger_size),
        trainer=TrainerConfig(
            base_params={"max_depth": args.max_depth}, n_jobs=args.n_jobs
        ),
        random_state=args.seed + 3,
    ).fit(X_train, y_train)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    model_name = "model.rfbin" if args.model_format == "binary" else "model.json"
    save_model(model.ensemble, args.out_dir / model_name, format=args.model_format)
    secret = WatermarkSecret(
        signature=model.signature,
        trigger_X=model.trigger.X,
        trigger_y=model.trigger.y,
    )
    save_json(secret_to_dict(secret), args.out_dir / "secret.json")
    commitment = commit_secret(secret)
    save_json(
        {"digest": commitment.digest, "salt": commitment.salt},
        args.out_dir / "commitment.json",
    )

    accuracy = model.ensemble.score(X_test, y_test)
    print(f"watermarked model written to {args.out_dir / model_name}")
    print(f"secret written to          {args.out_dir / 'secret.json'}  (keep private!)")
    print(f"commitment digest          {commitment.digest}  (publish/timestamp this)")
    print(f"test accuracy              {accuracy:.3f}")
    return 0


def _cmd_verify(args) -> int:
    # Any registered artefact format works; a watermarked artefact is
    # verified through its embedded ensemble.
    model = load_model(args.model)
    model = getattr(model, "ensemble", model)
    secret = secret_from_dict(load_json(args.secret))

    if args.commitment is not None:
        data = load_json(args.commitment)
        if not verify_commitment(data["digest"], secret, data["salt"]):
            print("commitment check       FAILED — revealed secret does not "
                  "match the published digest")
            return 2
        print("commitment check       ok")

    report = verify_ownership(
        model, secret.signature, secret.trigger_X, secret.trigger_y, mode=args.mode
    )
    print(f"verification           {report.summary()}")
    return 0 if report.accepted else 1


def _cmd_export(args) -> int:
    model = load_model(args.model)
    if args.ensemble_only:
        model = getattr(model, "ensemble", model)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, args.out, format=args.out_format)
    print(f"exported {args.model} -> {args.out}")
    return 0


def _cmd_convert(args) -> int:
    model = load_model(args.input)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, args.output, format=args.to_format)
    print(f"converted {args.input} -> {args.output}")
    return 0


def _cmd_experiment(args) -> int:
    config = SMALL.with_overrides(n_jobs=args.n_jobs)
    if args.name == "table2":
        rows = detection_table(config)
        print(
            format_table(
                ["Dataset", "Statistic", "Strategy", "(mean - std)",
                 "#correct", "#wrong", "#uncertain"],
                [
                    [r.dataset, r.statistic, r.strategy,
                     f"({r.mean:.2f} - {r.std:.2f})", r.n_correct, r.n_wrong,
                     r.n_uncertain]
                    for r in rows
                ],
            )
        )
    else:
        rows = forgery_tabular_results(
            config, epsilons=(0.1,), n_signatures=1, max_instances=10
        )
        print(
            format_table(
                ["Dataset", "eps", "forged", "original k"],
                [[r.dataset, r.epsilon, r.mean_forged_size, r.original_trigger_size]
                 for r in rows],
            )
        )
    return 0


def _cmd_attack(args) -> int:
    if args.list_attacks:
        for name in available_attacks():
            attack = make_attack(name)
            strength = getattr(attack, "strength_param", None)
            knob = f"strength = {strength}" if strength else "no strength sweep"
            print(f"{name:<12} {knob:<24} defaults: {attack}")
        return 0
    if args.name is None:
        raise ValidationError("attack needs --name (or --list)")

    config = SMALL.with_overrides(
        **({"n_jobs": args.n_jobs} if args.n_jobs is not None else {}),
        **({"seed": args.seed} if args.seed is not None else {}),
    )
    # The CLI runs at demo scale: cap the forgery solver sweep so a
    # one-line invocation answers in seconds, not hours.
    overrides = {"forgery": {"max_instances": 10, "solver_budget": 20_000}}
    attack = make_attack(args.name, **overrides.get(args.name, {}))
    strengths = (
        {args.name: args.strength} if args.strength is not None else None
    )
    cells = run_scenario_matrix(
        config, attacks=(attack,), strengths=strengths, datasets=(args.dataset,)
    )
    if args.json:
        print(dumps([cell.to_dict() for cell in cells], indent=2))
    else:
        print(
            format_table(
                ["Dataset", "Attack", "Strength", "Acc before", "Acc after",
                 "WM match", "WM accepted", "Attack succeeded"],
                [
                    [c.dataset, c.attack,
                     "-" if c.strength is None else c.strength,
                     c.report.baseline_accuracy, c.report.attacked_accuracy,
                     c.report.watermark_match_rate,
                     c.report.watermark_accepted, c.report.succeeded]
                    for c in cells
                ],
            )
        )
    return 0


def _cmd_traffic(args) -> int:
    from .experiments.scenarios import _cell_seed, build_attack_target
    from .traffic import replay_scenario, scenario_description, traffic_scenarios

    if args.list_scenarios:
        for name in traffic_scenarios():
            print(f"{name:<20} {scenario_description(name)}")
        return 0
    if args.scenario is None:
        raise ValidationError("traffic needs --scenario (or --list)")

    config = SMALL.with_overrides(
        **({"n_jobs": args.n_jobs} if args.n_jobs is not None else {}),
        **({"seed": args.seed} if args.seed is not None else {}),
    )
    target = build_attack_target(config, args.dataset)
    report = replay_scenario(
        args.scenario,
        target.model,
        target.X_train,
        n_queries=args.queries,
        batch_size=args.batch_size,
        random_state=_cell_seed(config.seed, args.dataset, f"traffic:{args.scenario}"),
        alpha=args.alpha,
    )
    if args.json:
        # One line of strict JSON: pipeline-friendly (`... --json | head -1`
        # stays parseable) and free of Infinity/NaN literals even when a
        # zero-elapsed replay makes queries_per_second non-finite.
        print(dumps(report.to_dict()))
        return 0

    print(f"scenario    {args.scenario} — {scenario_description(args.scenario)}")
    print(f"served      {report.n_queries} queries in {report.n_batches} batches "
          f"({report.queries_per_second:,.0f} queries/sec)")
    sources = ", ".join(f"{k}: {v}" for k, v in sorted(report.source_counts.items()))
    print(f"sources     {sources}")
    print(f"triggers    {report.n_trigger_queries} trigger queries in the stream")
    for verdict in report.verdicts:
        status = (
            f"FIRED at query {verdict.fired_at}" if verdict.fired else "silent"
        )
        print(f"defender    {verdict.defender:<28} {status}  "
              f"(stat {verdict.statistic:.4f} vs threshold {verdict.threshold:.4f})")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import ModelRegistry, ServingDaemon

    registry = ModelRegistry(
        max_failures=args.failure_budget,
        quarantine_seconds=args.quarantine,
    )
    for spec in args.models:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ValidationError(f"--model expects NAME=PATH, got {spec!r}")
        registry.load(name, Path(path), alpha=args.alpha)

    daemon = ServingDaemon(
        registry,
        host=args.host,
        port=args.port,
        max_batch_rows=args.max_batch_rows,
        max_queue_rows=args.max_queue_rows,
        max_concurrent_batches=args.max_concurrent_batches,
        request_timeout=args.request_timeout or None,
        read_timeout=args.read_timeout or None,
    )
    return asyncio.run(_serve_forever(daemon, registry))


async def _serve_forever(daemon, registry) -> int:
    import asyncio
    import signal

    await daemon.start()
    host, port = daemon.address
    for served in registry:
        print(f"model {served.name}: {served.describe()}", flush=True)
    print(f"listening on http://{host}:{port}", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-unix loops
            pass
    await stop.wait()
    print("draining: refusing new connections, flushing in-flight batches",
          flush=True)
    await daemon.drain()
    print("drained cleanly", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes follow unix conventions: 0 success, 1 semantic failure
    (e.g. rejected verification), 2 usage/``ReproError``, 130 on
    SIGINT.  ``BrokenPipeError`` is silenced so ``--json`` output can be
    piped through ``head`` without a traceback.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "watermark": _cmd_watermark,
        "verify": _cmd_verify,
        "export": _cmd_export,
        "convert": _cmd_convert,
        "experiment": _cmd_experiment,
        "attack": _cmd_attack,
        "traffic": _cmd_traffic,
        "serve": _cmd_serve,
        "lint": run_lint,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader (`head`, a closed pager) went away mid-write —
        # normal pipeline behaviour, not an error.  Re-point stdout at
        # devnull so the interpreter's shutdown flush cannot raise a
        # second time, and exit quietly.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return 0
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
