"""Golden hashes: the library's outputs, pinned bit for bit.

Each fixture below builds an artefact from fixed seeds and reduces it
to SHA-256 digests of its arrays (dtype, shape and raw bytes).  The
pinned digests in ``hashes.json`` are the whole-model evidence that a
refactor left training, inference and forgery unchanged: the same trees
from ``TrainWithTrigger``, the same per-tree answers, the same forged
sets, the same forgery CNF skeletons (variable and clause numbering),
the same SAT searches (per-solve counters and assignments), the same
minimal-distortion searches and solver witnesses, and
the same models from every embedding caller (experiment driver,
multi-class driver, ``repro watermark``) and from the paper's literal
full-retrain loop, and the same edited trees and reports from every
registry attack.
Arrays are hashed rather than artefact bytes, so persisted
metadata may change without disturbing the pins; the two
``*_rfbin_bytes`` pins are the exception, pinning the whole ``.rfbin``
file of the ``SMALL`` owner forest and of its watermarked model.

A legitimate change of outputs re-pins with::

    PYTHONPATH=src python tests/golden/test_golden.py --write

The second half checks that artefacts written by an earlier release
keep loading: ``legacy_forest.*`` (whose persisted params still carry
the retired ``splitter`` key) with bit-identical ``predict_all`` in
every format and load mode, and ``legacy_boosted.json`` (node-dict
JSON) with a bit-identical ``decision_function``.  Those files are
frozen: never regenerate them.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.api import available_attacks, make_attack
from repro.attacks import forge_trigger_set
from repro.cli import main as cli_main
from repro.core.multiclass import watermark_multiclass
from repro.core.signature import random_signature
from repro.datasets import breast_cancer_like, ijcnn1_like
from repro.ensemble import GradientBoostingClassifier, RandomForestClassifier, compile_forest
from repro.experiments.config import SMALL
from repro.experiments.detection import build_watermarked_model
from repro.experiments.scenarios import build_attack_target
from repro.hardness import Clause, Formula3CNF, Literal, forgery_problem_from_formula
from repro.model_selection import train_test_split
from repro.persistence import available_formats, get_exporter, load, save
from repro.solver import (
    CNF,
    SATSolver,
    compile_pattern_encoding,
    minimal_forgery_distortion,
    required_labels,
    solve_pattern_smt,
)
from repro.trees import DecisionTreeClassifier

HERE = Path(__file__).resolve().parent
HASHES = HERE / "hashes.json"

# The literal loop and the dispute recipe live with the tests; the
# conftest puts them on the path under pytest, this line does so for
# ``--write``.
sys.path.insert(0, str(HERE.parent / "core"))
from dispute_models import dispute_model, ijcnn1_dispute, mnist26_dispute  # noqa: E402
from full_retrain_oracle import train_with_trigger_full  # noqa: E402


def digest(*arrays) -> str:
    """SHA-256 over each array's dtype, shape and C-order bytes."""
    h = hashlib.sha256()
    for array in arrays:
        if array is None:
            h.update(b"none;")
            continue
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape};".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def table_digest(tables: dict) -> str:
    """Digest of a node-tables dict, keys in sorted order."""
    return digest(*(np.asarray(tables[key]) if tables[key] is not None else None
                    for key in sorted(tables)))


# -- fixtures -------------------------------------------------------------


def _dispute_jobs2():
    """The dispute recipe embedded with two worker processes, so each
    fit and refit round splits its tree slots across the pool."""
    model, _X_test, _y_test = dispute_model(
        ijcnn1_like(700, random_state=121), 130, n_jobs=2
    )
    return table_digest(model.ensemble.compile().to_tables())


def _forge(dispute, fake_seed: int, epsilon: float, n_jobs=None, **limits):
    """One forgery call on a dispute model with a 2,000-conflict budget,
    and its status counts as an array."""
    model, X_test, y_test = dispute()
    fake = random_signature(16, 0.5, random_state=fake_seed)
    result = forge_trigger_set(
        model.ensemble, fake, X_test, y_test, epsilon,
        solver_budget=2000, n_jobs=n_jobs, random_state=fake_seed + 1, **limits,
    )
    statuses = np.array(
        [result.statuses.get(key, 0) for key in ("sat", "unsat", "unknown")],
        dtype=np.int64,
    )
    return result, statuses


def _forged(epsilon: float, n_jobs):
    result, statuses = _forge(mnist26_dispute, 301, epsilon, n_jobs, max_instances=24)
    return digest(result.forged_X, result.source_index, statuses)


def _forged_attempted(dispute, fake_seed: int, epsilon: float, **limits):
    """A serial forgery call, its attempt count included: where the
    sweep stops is pinned along with what it found."""
    result, statuses = _forge(dispute, fake_seed, epsilon, **limits)
    return digest(
        result.forged_X, result.source_index, statuses,
        np.array([result.n_attempted], dtype=np.int64),
    )


def _minimal_distortion(row: int, fake_seed: int):
    """The binary search for the smallest forgeable ε on one test row."""
    model, X_test, y_test = ijcnn1_dispute()
    fake = random_signature(16, 0.5, random_state=fake_seed)
    result = minimal_forgery_distortion(
        model.ensemble.roots(), required_labels(fake, int(y_test[row])),
        X_test[row], X_test.shape[1],
    )
    epsilon = None if result.epsilon is None else np.array([result.epsilon])
    return digest(epsilon, result.instance, np.array([result.solver_calls]))


def _skeleton(dispute, fake_seed: int, label: int):
    """The forgery CNF skeleton of one label pattern: variable count,
    clauses and atom table, whose numbering fixes every solver search."""
    model, X_test, _y_test = dispute()
    fake = random_signature(16, 0.5, random_state=fake_seed)
    encoding = compile_pattern_encoding(
        model.ensemble.compile(), required_labels(fake, label), X_test.shape[1]
    )
    clauses = encoding.cnf.clauses
    return digest(
        np.array([encoding.cnf.n_vars], dtype=np.int64),
        np.array([len(clause) for clause in clauses], dtype=np.int64),
        np.array([literal for clause in clauses for literal in clause], dtype=np.int64),
        encoding.atom_features,
        encoding.atom_thresholds,
        encoding.atom_variables,
    )


@contextlib.contextmanager
def _recorded_solves():
    """Collect the result of every ``SATSolver.solve`` call in the block."""
    results = []
    solve = SATSolver.solve

    def recording(self, assumptions=None):
        results.append(solve(self, assumptions))
        return results[-1]

    SATSolver.solve = recording
    try:
        yield results
    finally:
        SATSolver.solve = solve


def _sat_digest(results, *extra) -> str:
    """Digest of SAT results: status, the four counters and the
    assignment of each, in call order, then ``extra`` arrays."""
    arrays = []
    for result in results:
        arrays += [
            np.frombuffer(result.status.encode(), dtype=np.uint8),
            np.array([result.conflicts, result.decisions, result.propagations,
                      result.restarts], dtype=np.int64),
            None if result._assignment is None else np.array(result._assignment, np.int8),
        ]
    return digest(*arrays, *extra)


def _sat_trace_forged():
    """Every solver search of the ε = 0.3 serial forgery, decision for
    decision: any change to the VSIDS order, propagation or learning
    moves a counter or an assignment."""
    with _recorded_solves() as results:
        _forged(0.3, None)
    assert results, "the forgery reached no solver"
    return _sat_digest(results)


def _sat_trace_php6_rescale():
    """PHP(7, 6) solved from ``var_inc = 1e98``, so the search crosses
    the 1e100 activity rescale; the final activities are pinned too."""
    holes, cnf = 6, CNF()
    var = {(p, h): cnf.new_var() for p in range(holes + 1) for h in range(holes)}
    for p in range(holes + 1):
        cnf.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                cnf.add_clause([-var[p1, h], -var[p2, h]])
    solver = SATSolver(cnf)
    solver.var_inc = 1e98
    result = solver.solve()
    assert solver.var_inc < 1e98, "the search never rescaled"
    return _sat_digest([result], np.array(solver.activity))


def _hardness_paper_example():
    """One-shot solver witness of the 3SAT reduction of the paper's Figure 2
    formula, (x0 ∨ x1) ∧ (x1 ∨ x2 ∨ ¬x3)."""
    formula = Formula3CNF(
        n_vars=4,
        clauses=(
            Clause((Literal(0), Literal(1))),
            Clause((Literal(1), Literal(2), Literal(3, negated=True))),
        ),
    )
    outcome = solve_pattern_smt(forgery_problem_from_formula(formula))
    return digest(np.frombuffer(outcome.status.encode(), dtype=np.uint8), outcome.instance)


def _small_batch():
    """A 20-row first query on a never-compiled forest: ``predict_all``,
    ``predict`` and ``predict_proba`` answered by the table that query
    compiles."""
    ds = breast_cancer_like(200, random_state=401)
    forest = RandomForestClassifier(
        n_estimators=8, max_depth=6, random_state=402
    ).fit(ds.X, ds.y)
    rows = ds.X[:20]
    return digest(forest.predict_all(rows), forest.predict(rows), forest.predict_proba(rows))


def _best_first_entropy():
    ds = breast_cancer_like(300, random_state=501)
    forest = RandomForestClassifier(
        n_estimators=6, criterion="entropy", max_leaf_nodes=12,
        max_features="sqrt", tree_feature_fraction=0.8, random_state=502,
    ).fit(ds.X, ds.y)
    return table_digest(forest.compile().to_tables())


def _depth_first_sqrt_entropy():
    """Depth-first forest: per-split ``sqrt`` feature sampling, a leaf
    floor of 3, three classes, entropy and some zero sample weights
    (leaf class masses included)."""
    rng = np.random.default_rng(1201)
    X = rng.random((300, 9))
    y = np.digitize(X[:, 1] + 0.5 * X[:, 4] + 0.3 * rng.random(300), [0.6, 1.2])
    weights = rng.uniform(0.5, 3.0, 300)
    weights[rng.choice(300, size=30, replace=False)] = 0.0
    forest = RandomForestClassifier(
        n_estimators=8, criterion="entropy", max_features="sqrt",
        min_samples_leaf=3, tree_feature_fraction=0.8, random_state=1202,
    ).fit(X, y, sample_weight=weights)
    return table_digest(compile_forest(forest, collect_leaf_weight=True).to_tables())


def _three_class_tree():
    rng = np.random.default_rng(601)
    X = rng.random((240, 6))
    y = np.digitize(X[:, 0] + 0.5 * X[:, 3] + 0.2 * rng.random(240), [0.6, 1.1])
    tree = DecisionTreeClassifier(max_depth=7, random_state=602).fit(X, y)
    tables = tree.compile().to_tables()
    # A tree compiles to a one-tree ensemble table; the pin digests the
    # eight keys the single-tree table had.
    roots, leaf_weight = tables.pop("roots"), tables.pop("leaf_weight")
    assert roots.tolist() == [0] and leaf_weight is None
    return table_digest(tables)


def _gbdt():
    ds = breast_cancer_like(300, random_state=701)
    model = GradientBoostingClassifier(
        n_estimators=10, max_depth=3, learning_rate=0.3
    ).fit(ds.X, ds.y)
    return table_digest(model.compile().to_tables())


def _detection_small_bc():
    """The Table 2 owner model at ``SMALL`` scale (experiment driver path)."""
    model, _split = build_watermarked_model(SMALL, "breast-cancer")
    return table_digest(model.ensemble.compile().to_tables())


def _multiclass():
    """One watermarked one-vs-rest forest per class of a 3-class set."""
    rng = np.random.default_rng(1001)
    X = rng.random((240, 5))
    y = np.digitize(X[:, 0] + 0.6 * X[:, 2] + 0.2 * rng.random(240), [0.6, 1.1])
    model = watermark_multiclass(
        X, y, m=6, trigger_size=4, base_params={"max_depth": 7}, random_state=1002
    )
    tables = {}
    for label in model.classes:
        part = model.per_class[label]
        for key, value in part.ensemble.compile().to_tables().items():
            tables[f"{label}/{key}"] = value
        tables[f"{label}/~trigger"] = part.trigger.indices
    return table_digest(tables)


def _cli_watermark():
    """The model file written by ``repro watermark`` with a fixed seed:
    the trees it restores, compiled for inference (the restored table
    itself also carries the leaf class masses)."""
    with tempfile.TemporaryDirectory() as out_dir:
        cli_main([
            "watermark", "--dataset", "breast-cancer", "--samples", "240",
            "--trees", "8", "--trigger-size", "5", "--max-depth", "8",
            "--seed", "1101", "--out-dir", out_dir,
        ])
        forest = load(Path(out_dir) / "model.json")
    return table_digest(compile_forest(forest).to_tables())


def _full_retrain_bc():
    """The paper's literal TrainWithTrigger loop (a test oracle): every
    round refits all trees.  Shallow trees and six flipped triggers force
    nine rounds."""
    ds = breast_cancer_like(260, random_state=11)
    X_train, _X_test, y_train, _y_test = train_test_split(
        ds.X, ds.y, test_size=0.3, random_state=12
    )
    indices = np.array([0, 5, 10, 15, 20, 25])
    y_train = y_train.copy()
    y_train[indices] = -y_train[indices]
    forest, rounds, weight = train_with_trigger_full(
        X_train, y_train, indices, n_estimators=4,
        params={"max_depth": 3, "min_samples_leaf": 1}, random_state=7,
    )
    tables = forest.compile().to_tables()
    return table_digest({**tables, "~rounds": np.array([rounds]), "~weight": np.array([weight])})


@functools.lru_cache(maxsize=None)
def attack_target():
    """The ``repro attack`` target: the ``SMALL`` breast-cancer owner model."""
    return build_attack_target(SMALL, "breast-cancer")


def _rfbin_bytes(model) -> str:
    """SHA-256 of the ``.rfbin`` file ``model`` saves to.  A copy is
    saved, so the leaf-weight table the exporter compiles never reaches
    the shared model's engine cache."""
    with tempfile.TemporaryDirectory() as out_dir:
        path = Path(out_dir) / "model.rfbin"
        save(copy.deepcopy(model), path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def _attack_edit(name: str, **params):
    """Node tables of one registry model edit, leaf class masses included
    (so a flip that moves mass without moving a label still shows)."""
    forest = attack_target().model.ensemble
    edited = make_attack(name, **params).edit(forest, np.random.default_rng(11))
    return table_digest(compile_forest(edited, collect_leaf_weight=True).to_tables())


def _attack_report(name: str):
    """One registry attack's ``AttackReport.to_dict()`` at its default
    parameters, minus the wall-clock timings."""
    report = make_attack(name).run(attack_target(), np.random.default_rng(11)).to_dict()
    for timing in ("elapsed_seconds", "solver_seconds"):
        report["cost"].pop(timing, None)
    encoded = json.dumps(report, sort_keys=True).encode()
    return digest(np.frombuffer(encoded, dtype=np.uint8))


FIXTURES = {
    "wm_ijcnn1_tables": lambda: table_digest(ijcnn1_dispute()[0].ensemble.compile().to_tables()),
    "wm_mnist26_tables": lambda: table_digest(mnist26_dispute()[0].ensemble.compile().to_tables()),
    "wm_ijcnn1_predict_all": lambda: digest(
        ijcnn1_dispute()[0].ensemble.predict_all(ijcnn1_dispute()[1])
    ),
    "wm_mnist26_predict_all": lambda: digest(
        mnist26_dispute()[0].ensemble.predict_all(mnist26_dispute()[1])
    ),
    "wm_ijcnn1_jobs2_tables": _dispute_jobs2,
    "best_first_entropy_tables": _best_first_entropy,
    "depth_first_sqrt_entropy_tables": _depth_first_sqrt_entropy,
    "three_class_tree_tables": _three_class_tree,
    "gbdt_tables": _gbdt,
    "small_batch_object_route": _small_batch,
    "forged_eps0.1_serial": lambda: _forged(0.1, None),
    "forged_eps0.3_serial": lambda: _forged(0.3, None),
    "forged_eps0.1_jobs2": lambda: _forged(0.1, 2),
    "forged_eps0.3_jobs2": lambda: _forged(0.3, 2),
    # Tall narrow data: at ε = 0.1 the prescreen refutes every attempt.
    "forged_ijcnn1_eps0.1_serial": lambda: _forged_attempted(
        ijcnn1_dispute, 401, 0.1, max_instances=60
    ),
    "forged_ijcnn1_eps0.3_serial": lambda: _forged_attempted(
        ijcnn1_dispute, 401, 0.3, max_instances=60
    ),
    # The sweep stops at the second forged row.
    "forged_eps0.3_target2": lambda: _forged_attempted(
        mnist26_dispute, 301, 0.3, target_size=2
    ),
    "sat_trace_mnist26_eps0.3": _sat_trace_forged,
    "sat_trace_php6_rescale": _sat_trace_php6_rescale,
    "min_distortion_ijcnn1_row0": lambda: _minimal_distortion(0, 901),
    "min_distortion_ijcnn1_row5": lambda: _minimal_distortion(5, 902),
    "min_distortion_ijcnn1_row11": lambda: _minimal_distortion(11, 903),
    "hardness_paper_example_smt": _hardness_paper_example,
    "skeleton_ijcnn1_label+1": lambda: _skeleton(ijcnn1_dispute, 401, +1),
    "skeleton_ijcnn1_label-1": lambda: _skeleton(ijcnn1_dispute, 401, -1),
    "skeleton_mnist26_label+1": lambda: _skeleton(mnist26_dispute, 301, +1),
    "detection_small_breast_cancer_tables": _detection_small_bc,
    "multiclass_3class_tables": _multiclass,
    "cli_watermark_model_tables": _cli_watermark,
    "full_retrain_bc_tables": _full_retrain_bc,
    "attack_truncate_depth3_tables": lambda: _attack_edit("truncate", depth=3),
    "attack_flip_p0.2_tables": lambda: _attack_edit("flip", probability=0.2),
    "attack_prune_alpha1_tables": lambda: _attack_edit("prune", alpha=1.0),
    "attack_chain_tables": lambda: _attack_edit("chain"),
    "small_forest_rfbin_bytes": lambda: _rfbin_bytes(attack_target().model.ensemble),
    "small_watermarked_rfbin_bytes": lambda: _rfbin_bytes(attack_target().model),
    **{
        f"attack_{name}_report": functools.partial(_attack_report, name)
        for name in available_attacks()
    },
}


def _pinned() -> dict:
    return json.loads(HASHES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_golden_hash(name):
    assert FIXTURES[name]() == _pinned()[name]


#: Pins of the frozen artefacts below; ``--write`` carries them over.
LEGACY_PINS = ("legacy_boosted_decision_function", "legacy_forest_predict_all")


def test_every_fixture_is_pinned():
    assert set(_pinned()) == set(FIXTURES) | set(LEGACY_PINS)


# -- artefacts written by an earlier release --------------------------------


def legacy_rows() -> np.ndarray:
    return breast_cancer_like(120, random_state=801).X


@pytest.mark.parametrize("fmt", sorted(available_formats()))
def test_legacy_artefact_loads(fmt):
    exporter = get_exporter(fmt)
    path = HERE / f"legacy_forest{exporter.extensions[0]}"
    modes = [None] + (["r"] if exporter.supports_mmap else [])
    for mmap_mode in modes:
        restored = load(path, mmap_mode=mmap_mode)
        assert digest(restored.predict_all(legacy_rows())) == (
            _pinned()["legacy_forest_predict_all"]
        ), f"{fmt} (mmap_mode={mmap_mode})"


def test_legacy_boosted_artefact_loads():
    restored = load(HERE / "legacy_boosted.json")
    assert digest(restored.decision_function(legacy_rows())) == (
        _pinned()["legacy_boosted_decision_function"]
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden/test_golden.py --write")
    pinned = {name: build() for name, build in sorted(FIXTURES.items())}
    pinned.update({name: _pinned()[name] for name in LEGACY_PINS})
    HASHES.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(pinned)} hashes in {HASHES}")
