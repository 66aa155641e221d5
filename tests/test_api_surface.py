"""Public-API surface snapshot.

Pins ``repro.__all__``, the ``repro.api`` exports, ``repro.trees`` and
``repro.solver`` so accidental breaks of the public surface (a removed re-export, a
renamed class, a new symbol nobody reviewed) fail tier-1 instead of
shipping silently.  When a change here is *intentional*, update the
snapshot in the same commit that changes the surface.

Migration note: ``repro.trees`` no longer exports ``SPLITTERS``,
``get_inference_backend``, ``set_inference_backend`` or
``inference_backend``, and the ``REPRO_INFERENCE_BACKEND`` variable is
ignored.  They selected slower routes with identical outputs; outputs
are unchanged.

Migration note: ``repro.solver`` no longer exports ``solve_pattern``,
``solve_pattern_boxes``, ``solve_clipped_boxes``,
``solve_pattern_portfolio``, ``merge_portfolio_outcomes``,
``simplify_cnf``, ``parse_dimacs`` or ``SimplifiedCNF``, and the
``engine=`` keyword is gone from ``forge_trigger_set``, the forgery
experiment drivers, ``CompiledPatternEncoding.solve`` and
``minimal_forgery_distortion``; ``ForgeryAttack`` params lose
``"engine"``.  Every caller used the compiled CDCL engine (``"smt"``):
removed; outputs unchanged.  Box DPLL lives on as a test oracle
(``tests/solver/box_dpll_oracle.py``).

Migration note: ``repro.watermark`` and ``repro.core.watermark`` (the
14-keyword ``watermark(...)`` function), ``EmbeddingSchedule.incremental``,
``train_with_trigger(incremental=...)``, ``repro watermark
--full-retrain`` and ``ExperimentConfig.trigger_size`` are removed;
build a ``Watermarker`` — outputs unchanged.  ``train_with_trigger``
takes one ``schedule=EmbeddingSchedule(...)`` in place of its
``weight_increment``, ``escalation_factor`` and ``max_rounds``
keywords.  The full-retrain loop lives on as a test oracle
(``tests/core/full_retrain_oracle.py``).

Migration note: ``repro.solver.encoding`` is removed, and with it
``encode_pattern_problem``, ``decode_model`` and ``solve_cnf``; the
compiled encoding is the one forgery CNF.  ``solve_pattern_smt`` keeps
its signature (now a one-shot ``compile_pattern_encoding(...).solve``)
and ``decode_atom_intervals`` moved to ``repro.solver.compiled_encoding``;
for ``solve_cnf(cnf, max_conflicts)`` write
``SATSolver(cnf, max_conflicts).solve()``.  SAT statuses are unchanged;
a SAT witness may be another point of the same forgeable region.
``CompiledPatternEncoding.solve(budget=None)`` now means unlimited, as
in ``SATSolver`` (``forge_trigger_set(solver_budget=None)`` still means
200,000 conflicts).

Migration note: ``MicroBatcher(flush_window=...)``,
``ServingDaemon(flush_window=...)`` and ``repro serve --flush-window``
are removed; an idle engine serves at once, and ``max_batch_rows=1`` is
the old ``0``.  Requests that arrive while an engine call is in flight
fuse into the next call, so no timer is needed.

Migration note: ``repro.trees`` no longer exports ``CompiledTree`` or
``compile_tree``, and ``repro.trees.compiled`` drops them together with
``MIN_COMPILE_ROWS`` and ``lazy_compiled``.  ``tree.compile()`` returns
a one-tree ``CompiledEnsemble``, and every batch is compiled; for
``compile_tree(root, classes)`` write ``compile_trees([root], classes)``
and read ``predict_all(X)[0]``.  Outputs are unchanged.

Migration note: ``repro.trees`` no longer exports ``Box``,
``leaf_boxes`` or ``boxes_for_label``; ``repro.trees.paths`` and
``PatternProblem.candidate_boxes`` are removed.  The forgery encoding
reads its leaf boxes from the compiled node table, so
``compile_pattern_encoding`` and ``EncodingCache`` take a
``CompiledEnsemble`` in place of a root list: pass ``forest.compile()``
or ``compile_trees(roots)``.  ``PatternProblem``, ``solve_pattern_smt``,
``minimal_forgery_distortion`` and ``check_pattern`` still take roots.
Outputs are unchanged.  The walk lives on as a test oracle
(``tests/solver/box_dpll_oracle.py``).

Migration note: ``repro.attacks.modification`` and
``repro.attacks.extraction`` are removed, and ``repro.attacks`` no
longer exports ``modification_robustness``, ``ModificationOutcome``,
``extraction_study``, ``ExtractionOutcome``, ``extract_surrogate``,
``truncate_forest``, ``flip_forest_leaves``, ``truncate_tree`` or
``flip_leaves``.  Run attacks through the registry:
``make_attack("truncate", depth=d)``, ``make_attack("flip",
probability=p)`` or ``make_attack("extract", query_budget=n)``, then
``.run(AttackTarget.from_split(model, split), rng)`` for the report or
``.edit(forest, rng)`` for the edited forest; sweep budgets with
``run_scenario_matrix``.  ``truncate_tree`` and ``flip_leaves`` moved
to ``repro.trees.pruning``.  Outputs are unchanged.
``repro.parallel.shared_model_handle`` and ``open_model_handle`` are
removed too: a lazily loaded forest pickles down to its
``(path, format, mmap_mode)`` handle by itself, and
``repro.persistence.load(path, format=..., mmap_mode=...)`` reopens one.
"""

import dataclasses
import importlib
import inspect

import pytest

import repro
import repro.api
import repro.attacks
import repro.parallel
import repro.core
import repro.ensemble
import repro.solver
import repro.trees
from repro.api import ForgeryAttack, attack_params
from repro.cli import build_parser
from repro.core import embedding
from repro.experiments import ExperimentConfig
from repro.serve import MicroBatcher, ServingDaemon

REPRO_ALL = [
    "Attack",
    "AttackReport",
    "AttackTarget",
    "ConvergenceError",
    "DecisionTreeClassifier",
    "EmbeddingSchedule",
    "GradientBoostingClassifier",
    "Judge",
    "NotFittedError",
    "OwnershipClaim",
    "RandomForestClassifier",
    "ReproError",
    "ResourceLimitError",
    "SerializationError",
    "Signature",
    "SolverError",
    "TrainerConfig",
    "TriggerPolicy",
    "ValidationError",
    "VerificationError",
    "WatermarkSecret",
    "WatermarkedModel",
    "Watermarker",
    "api",
    "attacks",
    "available_attacks",
    "core",
    "datasets",
    "ensemble",
    "experiments",
    "hardness",
    "make_attack",
    "model_selection",
    "persistence",
    "random_signature",
    "run_scenario_matrix",
    "signature_from_identity",
    "solver",
    "traffic",
    "trees",
    "verify_ownership",
]

CORE_ALL = [
    "AdjustedHyperParameters",
    "BoostedWatermarkedModel",
    "EmbeddingReport",
    "Judge",
    "MulticlassWatermarkedModel",
    "OwnershipClaim",
    "SecretCommitment",
    "Signature",
    "TriggerSet",
    "VerificationReport",
    "WatermarkSecret",
    "WatermarkedModel",
    "adjust_hyperparameters",
    "commit_secret",
    "false_claim_log10_probability",
    "match_signature",
    "random_signature",
    "required_directions",
    "sample_trigger_set",
    "signature_from_identity",
    "train_standard_forest",
    "train_with_trigger",
    "verify_boosted_ownership",
    "verify_commitment",
    "verify_multiclass_ownership",
    "verify_ownership",
    "watermark_boosted",
    "watermark_multiclass",
]

API_ALL = [
    "Attack",
    "AttackReport",
    "AttackTarget",
    "ChainedAttack",
    "DetectionAttack",
    "EmbeddingSchedule",
    "ExtractionAttack",
    "ForgeryAttack",
    "LeafFlipAttack",
    "ModelEditAttack",
    "PruneAttack",
    "ScenarioCell",
    "SuppressionAttack",
    "TrainerConfig",
    "TriggerPolicy",
    "TruncateAttack",
    "Watermarker",
    "attack_params",
    "available_attacks",
    "build_attack_target",
    "make_attack",
    "register_attack",
    "run_scenario_matrix",
]

TREES_ALL = [
    "DecisionTreeClassifier",
    "InternalNode",
    "Leaf",
    "RegressionTree",
    "SortedDataset",
    "TreeNode",
    "TreeStats",
    "clear_presort_cache",
    "ensemble_structure",
    "entropy_impurity",
    "gini_impurity",
    "iter_leaves",
    "iter_nodes",
    "predict_batch",
    "predict_one",
    "presort_cache_stats",
    "presorted_dataset",
    "prune_cost_complexity",
    "pruning_path",
    "resolve_max_features",
    "subtree_risk",
    "tree_stats",
    "tree_to_text",
]

RETIRED_TREES_NAMES = (
    "Box",
    "CompiledTree",
    "SPLITTERS",
    "boxes_for_label",
    "compile_tree",
    "get_inference_backend",
    "inference_backend",
    "leaf_boxes",
    "set_inference_backend",
)

RETIRED_COMPILED_NAMES = (
    "CompiledTree",
    "MIN_COMPILE_ROWS",
    "compile_tree",
    "lazy_compiled",
)

SOLVER_ALL = [
    "CNF",
    "CompiledPatternEncoding",
    "EncodingCache",
    "MinimalDistortion",
    "PatternOutcome",
    "PatternProblem",
    "SATResult",
    "SATSolver",
    "check_pattern",
    "compile_pattern_encoding",
    "compute_feature_bounds",
    "decode_atom_intervals",
    "minimal_forgery_distortion",
    "required_labels",
    "solve_pattern_smt",
]

RETIRED_SOLVER_NAMES = (
    "SimplifiedCNF",
    "decode_model",
    "encode_pattern_problem",
    "merge_portfolio_outcomes",
    "parse_dimacs",
    "simplify_cnf",
    "solve_clipped_boxes",
    "solve_cnf",
    "solve_pattern",
    "solve_pattern_boxes",
    "solve_pattern_portfolio",
)

RETIRED_ATTACK_NAMES = (
    "ExtractionOutcome",
    "ModificationOutcome",
    "extract_surrogate",
    "extraction_study",
    "flip_forest_leaves",
    "flip_leaves",
    "modification_robustness",
    "truncate_forest",
    "truncate_tree",
)

REGISTERED_ATTACKS = (
    "chain",
    "detection",
    "extract",
    "flip",
    "forgery",
    "prune",
    "suppression",
    "truncate",
)


class TestTopLevelSurface:
    def test_all_is_pinned(self):
        assert sorted(repro.__all__) == repro.__all__  # kept sorted
        assert repro.__all__ == REPRO_ALL

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestApiSurface:
    def test_all_is_pinned(self):
        assert sorted(repro.api.__all__) == repro.api.__all__
        assert repro.api.__all__ == API_ALL

    def test_every_export_resolves(self):
        # Includes the lazily-bound scenario-layer names (PEP 562).
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None

    def test_dir_covers_all(self):
        assert set(repro.api.__all__) <= set(dir(repro.api))

    def test_attack_registry_is_pinned(self):
        assert repro.api.available_attacks() == REGISTERED_ATTACKS

    def test_legacy_attack_drivers_are_gone(self):
        for name in RETIRED_ATTACK_NAMES:
            assert not hasattr(repro.attacks, name), name
            assert name not in repro.attacks.__all__, name
        for module in ("repro.attacks.modification", "repro.attacks.extraction"):
            with pytest.raises(ImportError):
                importlib.import_module(module)
        for name in ("shared_model_handle", "open_model_handle"):
            assert not hasattr(repro.parallel, name), name


class TestTreesSurface:
    def test_all_is_pinned(self):
        assert sorted(repro.trees.__all__) == TREES_ALL

    def test_retired_switches_are_gone(self):
        for name in RETIRED_TREES_NAMES:
            assert not hasattr(repro.trees, name), name

    def test_size_selected_route_is_gone(self):
        compiled = importlib.import_module("repro.trees.compiled")
        for name in RETIRED_COMPILED_NAMES:
            assert not hasattr(compiled, name), name
        tree = repro.trees.DecisionTreeClassifier().fit([[0.0], [1.0]], [0, 1])
        assert type(tree.compile()) is repro.ensemble.CompiledEnsemble


class TestSolverSurface:
    def test_all_is_pinned(self):
        assert sorted(repro.solver.__all__) == SOLVER_ALL

    def test_every_export_resolves(self):
        for name in repro.solver.__all__:
            assert getattr(repro.solver, name) is not None

    def test_retired_engines_are_gone(self):
        for name in RETIRED_SOLVER_NAMES:
            assert not hasattr(repro.solver, name), name
        assert "engine" not in attack_params(ForgeryAttack())

    def test_eager_encoder_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.solver.encoding")
        assert not hasattr(repro.solver.sat, "solve_cnf")

    def test_leaf_box_walk_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.trees.paths")
        assert not hasattr(repro.solver.PatternProblem, "candidate_boxes")

    def test_encodings_take_a_node_table(self):
        for built in (repro.solver.compile_pattern_encoding, repro.solver.EncodingCache):
            assert list(inspect.signature(built).parameters)[0] == "engine"

    def test_one_shot_solver_keeps_its_signature(self):
        parameters = inspect.signature(repro.solver.solve_pattern_smt).parameters
        assert list(parameters) == ["problem", "max_conflicts"]
        assert parameters["max_conflicts"].default == 200_000


class TestEmbeddingSurface:
    def test_core_all_is_pinned(self):
        assert sorted(repro.core.__all__) == CORE_ALL

    def test_shim_is_gone(self):
        for module in (repro, repro.core, embedding):
            assert not hasattr(module, "watermark"), module.__name__
        assert not hasattr(ExperimentConfig, "trigger_size")

    def test_schedule_fields_are_pinned(self):
        fields = tuple(field.name for field in dataclasses.fields(repro.EmbeddingSchedule))
        assert fields == ("weight_increment", "escalation_factor", "max_rounds")

    def test_train_with_trigger_takes_one_schedule(self):
        assert list(inspect.signature(embedding.train_with_trigger).parameters) == [
            "X_train", "y_train", "trigger_indices", "n_estimators", "params",
            "schedule", "tree_feature_fraction", "n_jobs", "random_state",
        ]

    def test_full_retrain_flag_is_rejected(self):
        args = ["watermark", "--dataset", "breast-cancer", "--out-dir", "out"]
        build_parser().parse_args(args)
        with pytest.raises(SystemExit):
            build_parser().parse_args(args + ["--full-retrain"])


class TestServingSurface:
    def test_micro_batcher_parameters_are_pinned(self):
        assert list(inspect.signature(MicroBatcher).parameters) == [
            "runner", "max_batch_rows", "max_queue_rows", "max_concurrent",
            "executor", "fault_injector",
        ]

    def test_serving_daemon_parameters_are_pinned(self):
        assert list(inspect.signature(ServingDaemon).parameters) == [
            "registry", "host", "port", "max_batch_rows", "max_queue_rows",
            "max_concurrent_batches", "max_body_bytes", "drain_grace",
            "request_timeout", "read_timeout", "fault_injector",
            "idempotency_entries",
        ]

    def test_flush_window_flag_is_rejected(self):
        args = ["serve", "--model", "m=model.rfbin"]
        build_parser().parse_args(args)
        with pytest.raises(SystemExit):
            build_parser().parse_args(args + ["--flush-window", "0.002"])
