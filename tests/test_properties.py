"""Cross-module property-based tests.

These encode invariants that tie the substrates together — the kind of
properties a reviewer would want machine-checked rather than asserted
in prose.
"""

import numpy as np
import pytest
from box_dpll_oracle import leaf_boxes, solve_pattern_boxes
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Signature, random_signature, signature_from_identity
from repro.api import EmbeddingSchedule, TrainerConfig, TriggerPolicy, Watermarker
from repro.core.verification import match_signature, verify_ownership
from repro.ensemble import RandomForestClassifier, majority_vote
from repro.solver import PatternProblem, required_labels, solve_pattern_smt
from repro.trees import DecisionTreeClassifier
from repro.trees.node import predict_one

seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestWeightDuplicationEquivalence:
    """CART invariant: integer sample weights behave exactly like row
    duplication (same impurities, hence same splits and predictions)."""

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_weighted_equals_duplicated(self, seed):
        gen = np.random.default_rng(seed)
        n = 40
        X = gen.uniform(size=(n, 3))
        y = gen.choice([-1, 1], size=n)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        weights = gen.integers(1, 4, size=n).astype(np.float64)

        duplicated_X = np.repeat(X, weights.astype(int), axis=0)
        duplicated_y = np.repeat(y, weights.astype(int))

        weighted = DecisionTreeClassifier(max_depth=4).fit(X, y, sample_weight=weights)
        duplicated = DecisionTreeClassifier(max_depth=4).fit(duplicated_X, duplicated_y)

        probe = gen.uniform(size=(50, 3))
        assert np.array_equal(weighted.predict(probe), duplicated.predict(probe))


class TestForestVotingConsistency:
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_predict_is_vote_of_predict_all(self, seed):
        gen = np.random.default_rng(seed)
        X = gen.uniform(size=(60, 4))
        y = gen.choice([-1, 1], size=60)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        forest = RandomForestClassifier(
            n_estimators=int(gen.integers(1, 7)),
            max_depth=4,
            tree_feature_fraction=0.8,
            random_state=seed % 10_000,
        ).fit(X, y)
        probe = gen.uniform(size=(30, 4))
        assert np.array_equal(
            forest.predict(probe),
            majority_vote(forest.predict_all(probe), forest.classes_),
        )


class TestIncrementalEmbeddingInvariant:
    """Algorithm 1's postcondition survives the incremental engine: for
    any seed, every tree of the embedded forest fits its required
    trigger labels (bit 0 → all correct, bit 1 → all wrong) and the
    strict verification protocol accepts the claim."""

    @given(seeds)
    @settings(max_examples=5, deadline=None)
    def test_incremental_embedding_accepted(self, seed):
        gen = np.random.default_rng(seed)
        n = 90
        X = gen.uniform(size=(n, 6))
        y = np.where(X[:, 0] + gen.normal(scale=0.3, size=n) > 0.5, 1, -1)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        signature = random_signature(
            4, ones_fraction=0.5, random_state=int(gen.integers(2**31 - 1))
        )
        model = Watermarker(
            signature=signature,
            trigger=TriggerPolicy(size=3),
            schedule=EmbeddingSchedule(escalation_factor=2.0),
            trainer=TrainerConfig(
                base_params={"max_depth": 8, "min_samples_leaf": 1}, adjust=False
            ),
            random_state=int(gen.integers(2**31 - 1)),
        ).fit(X, y)
        predictions = model.ensemble.predict_all(model.trigger.X)
        correct = predictions == model.trigger.y[None, :]
        for i, bit in enumerate(model.signature):
            assert correct[i].all() if bit == 0 else (~correct[i]).all()
        report = verify_ownership(
            model.ensemble, model.signature, model.trigger.X,
            model.trigger.y, mode="strict",
        )
        assert report.accepted


class TestBoxesMatchRouting:
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_leaf_boxes_partition_probe_points(self, seed):
        gen = np.random.default_rng(seed)
        X = gen.uniform(size=(50, 3))
        y = gen.choice([-1, 1], size=50)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        pairs = leaf_boxes(tree.root_)
        for x in gen.uniform(size=(20, 3)):
            containing = [leaf for leaf, box in pairs if box.contains(x)]
            assert len(containing) == 1
            assert containing[0].prediction == predict_one(tree.root_, x)


class TestForgerySolverSoundness:
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_sat_witnesses_always_verify(self, seed):
        gen = np.random.default_rng(seed)
        X = gen.uniform(size=(50, 3))
        y = gen.choice([-1, 1], size=50)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        forest = RandomForestClassifier(
            n_estimators=3, max_depth=3, tree_feature_fraction=1.0,
            random_state=seed % 10_000,
        ).fit(X, y)
        signature = random_signature(3, random_state=seed % 9973)
        problem = PatternProblem(
            roots=forest.roots(),
            required=required_labels(signature, int(gen.choice([-1, 1]))),
            n_features=3,
            center=X[int(gen.integers(50))],
            epsilon=float(gen.uniform(0.05, 0.95)),
        )
        outcome = solve_pattern_smt(problem)
        assert outcome.status == solve_pattern_boxes(problem).status
        if outcome.is_sat:
            assert problem.check_solution(outcome.instance)


class TestSignatureCodecs:
    @given(st.text(min_size=1, max_size=40), st.integers(min_value=1, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_identity_signature_total_and_deterministic(self, identity, m):
        a = signature_from_identity(identity, m)
        b = signature_from_identity(identity, m)
        assert a == b
        assert len(a) == m

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_string_roundtrip(self, bits):
        signature = Signature.from_iterable(bits)
        assert Signature.from_string(signature.to_string()) == signature
        assert signature.n_zeros + signature.n_ones == len(bits)


class TestVerificationSemantics:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_exact_pattern_always_accepted_and_unique(self, seed):
        gen = np.random.default_rng(seed)
        m = int(gen.integers(2, 10))
        k = int(gen.integers(1, 6))
        signature = random_signature(m, ones_fraction=float(gen.uniform(0, 1)),
                                     random_state=seed % 99991)
        trigger_y = gen.choice([-1, 1], size=k)
        bits = signature.as_array()[:, None]
        predictions = np.where(bits == 0, trigger_y[None, :], -trigger_y[None, :])

        report = match_signature(predictions, trigger_y, signature, mode="strict")
        assert report.accepted

        # Any other signature is rejected against the same behaviour.
        flipped = Signature.from_iterable(
            [1 - b if i == int(gen.integers(m)) else b for i, b in enumerate(signature)]
        )
        if flipped != signature:
            assert not match_signature(predictions, trigger_y, flipped).accepted
