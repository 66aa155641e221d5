"""Model-modification attacks (the paper's future-work threat model).

The paper assumes the attacker does not modify the stolen model and
names "more powerful attackers, e.g., who are able to modify the
watermarked model" as future work.  This module implements two such
attackers and measures whether the watermark survives:

- **depth truncation** — every tree is cut at a target depth, replacing
  subtrees with their majority leaf (a classic compression attack);
- **leaf flipping** — each leaf's label flips with probability ``p``
  (random behavioural noise).

Both trade model accuracy against watermark damage; the robustness
benchmark sweeps their strength and reports the trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_random_state, check_X_y
from ..core.embedding import WatermarkedModel
from ..core.verification import verify_ownership
from ..exceptions import ValidationError
from ..trees.node import InternalNode, Leaf, TreeNode

__all__ = [
    "ModificationOutcome",
    "truncate_tree",
    "flip_leaves",
    "truncate_forest",
    "flip_forest_leaves",
    "modification_robustness",
]


def _majority_leaf(root: TreeNode) -> Leaf:
    """Collapse a subtree into its weighted-majority leaf."""
    totals: dict[int, float] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            weights = node.class_weights or {node.prediction: 1.0}  # type: ignore[union-attr]
            for label, mass in weights.items():
                totals[label] = totals.get(label, 0.0) + mass
        else:
            stack.append(node.left)
            stack.append(node.right)
    # Deterministic tie-break: smaller label wins.
    prediction = min(sorted(totals), key=lambda label: (-totals[label], label))
    return Leaf(prediction=int(prediction), class_weights=totals)


def truncate_tree(root: TreeNode, max_depth: int) -> TreeNode:
    """A copy of the tree cut at ``max_depth`` (0 = a single leaf)."""
    if max_depth < 0:
        raise ValidationError(f"max_depth must be >= 0, got {max_depth}")

    def walk(node: TreeNode, depth: int) -> TreeNode:
        if node.is_leaf:
            return Leaf(prediction=node.prediction, class_weights=dict(node.class_weights))  # type: ignore[union-attr]
        if depth >= max_depth:
            return _majority_leaf(node)
        return InternalNode(
            feature=node.feature,
            threshold=node.threshold,
            left=walk(node.left, depth + 1),
            right=walk(node.right, depth + 1),
        )

    return walk(root, 0)


def flip_leaves(root: TreeNode, flip_probability: float, rng: np.random.Generator) -> TreeNode:
    """A copy of the tree where each leaf's ±1 label flips with prob. ``p``."""
    if not 0.0 <= flip_probability <= 1.0:
        raise ValidationError(
            f"flip_probability must be in [0, 1], got {flip_probability}"
        )

    def walk(node: TreeNode) -> TreeNode:
        if node.is_leaf:
            prediction = node.prediction  # type: ignore[union-attr]
            weights = dict(node.class_weights)  # type: ignore[union-attr]
            if rng.uniform() < flip_probability:
                flipped = -prediction
                if weights:
                    # Swap the mass of the old and new label so the
                    # recorded distribution still names the flipped
                    # label as its majority: ``predict`` (leaf label)
                    # and ``predict_proba`` (leaf distribution) must
                    # agree on attacked models, on both the object and
                    # the compiled inference paths.
                    weights[prediction], weights[flipped] = (
                        weights.get(flipped, 0.0),
                        weights.get(prediction, 0.0),
                    )
                prediction = flipped
            return Leaf(prediction=int(prediction), class_weights=weights)
        return InternalNode(
            feature=node.feature,
            threshold=node.threshold,
            left=walk(node.left),
            right=walk(node.right),
        )

    return walk(root)


def truncate_forest(forest, max_depth: int):
    """Apply depth truncation to every tree of a fitted forest."""
    return forest.with_roots([truncate_tree(r, max_depth) for r in forest.roots()])


def flip_forest_leaves(forest, flip_probability: float, random_state=None):
    """Apply random leaf flipping to every tree of a fitted forest."""
    rng = check_random_state(random_state)
    return forest.with_roots(
        [flip_leaves(r, flip_probability, rng) for r in forest.roots()]
    )


@dataclass
class ModificationOutcome:
    """Effect of one modification attack.

    ``watermark_match_rate`` is the fraction of trees still matching
    their signature bit (1.0 = watermark fully intact); ``accuracy`` is
    the modified model's test accuracy (the attacker's cost).
    """

    attack: str
    strength: float
    accuracy: float
    watermark_match_rate: float
    watermark_accepted: bool


def modification_robustness(
    model: WatermarkedModel,
    X_test,
    y_test,
    attack: str,
    strength: float,
    mode: str = "strict",
    random_state=None,
) -> ModificationOutcome:
    """Attack a watermarked model and measure watermark survival.

    Parameters
    ----------
    attack:
        ``"truncate"`` (``strength`` = retained depth, as an int) or
        ``"flip"`` (``strength`` = per-leaf flip probability).
    """
    X_test, y_test = check_X_y(X_test, y_test)
    if attack == "truncate":
        attacked = truncate_forest(model.ensemble, int(strength))
    elif attack == "flip":
        attacked = flip_forest_leaves(model.ensemble, float(strength), random_state)
    else:
        raise ValidationError(f"attack must be 'truncate' or 'flip', got {attack!r}")

    report = verify_ownership(
        attacked, model.signature, model.trigger.X, model.trigger.y, mode=mode
    )
    return ModificationOutcome(
        attack=attack,
        strength=float(strength),
        accuracy=attacked.score(X_test, y_test),
        watermark_match_rate=report.n_matching / report.n_trees,
        watermark_accepted=report.accepted,
    )
