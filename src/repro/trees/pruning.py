"""Model surgery on fitted decision trees: pruning, truncation, flipping.

Classic CART weakest-link pruning: for every internal node compute

    g(node) = (R(leaf(node)) - R(subtree)) / (n_leaves(subtree) - 1)

where ``R`` is the weighted misclassification mass recorded in the
leaves' ``class_weights``, and repeatedly collapse the node with the
smallest ``g`` while ``g <= alpha``.

Two consumers in this library:

- substrate completeness — a downstream user of the tree learner gets
  the standard regularisation tool;
- the *model-modification attacks* on watermarks (the paper's
  future-work threat model): an adversary edits a stolen model hoping
  to destroy the trigger behaviour more cheaply than it costs in
  accuracy.  Pruning, depth truncation (:func:`truncate_tree`, a
  classic compression attack) and random leaf flipping
  (:func:`flip_leaves`, behavioural noise) are the edits behind the
  ``prune``, ``truncate`` and ``flip`` attacks of
  :mod:`repro.api.attacks`.

Every function here returns an edited copy; the input tree is never
mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ValidationError
from .node import InternalNode, Leaf, TreeNode

__all__ = [
    "flip_leaves",
    "prune_cost_complexity",
    "pruning_path",
    "subtree_risk",
    "truncate_tree",
]


def _clone(node: TreeNode) -> TreeNode:
    if node.is_leaf:
        return Leaf(prediction=node.prediction, class_weights=dict(node.class_weights))  # type: ignore[union-attr]
    return InternalNode(
        feature=node.feature,
        threshold=node.threshold,
        left=_clone(node.left),
        right=_clone(node.right),
    )


def _collapse(node: TreeNode) -> Leaf:
    """Merge a subtree into its weighted-majority leaf."""
    totals: dict[int, float] = {}
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf:
            weights = current.class_weights or {current.prediction: 1.0}  # type: ignore[union-attr]
            for label, mass in weights.items():
                totals[label] = totals.get(label, 0.0) + mass
        else:
            stack.append(current.left)
            stack.append(current.right)
    # Deterministic tie-break: smaller label wins.
    prediction = min(sorted(totals), key=lambda label: (-totals[label], label))
    return Leaf(prediction=int(prediction), class_weights=totals)


def truncate_tree(root: TreeNode, max_depth: int) -> TreeNode:
    """A copy of the tree cut at ``max_depth`` (0 = a single leaf), each
    cut subtree replaced by its weighted-majority leaf."""
    if max_depth < 0:
        raise ValidationError(f"max_depth must be >= 0, got {max_depth}")

    def walk(node: TreeNode, depth: int) -> TreeNode:
        if node.is_leaf:
            return _clone(node)
        if depth >= max_depth:
            return _collapse(node)
        return InternalNode(
            feature=node.feature,
            threshold=node.threshold,
            left=walk(node.left, depth + 1),
            right=walk(node.right, depth + 1),
        )

    return walk(root, 0)


def flip_leaves(root: TreeNode, flip_probability: float, rng: np.random.Generator) -> TreeNode:
    """A copy of the tree where each leaf's ±1 label flips with prob. ``p``.

    Leaves draw from ``rng`` in left-to-right order, one draw each.
    """
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
                    # agree on attacked models.
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


def subtree_risk(node: TreeNode) -> tuple[float, int]:
    """Weighted misclassification mass and leaf count of a subtree.

    A leaf's risk is the class mass that disagrees with its prediction.
    Requires populated ``class_weights`` (i.e. learned trees).
    """
    if node.is_leaf:
        weights = node.class_weights  # type: ignore[union-attr]
        if not weights:
            raise ValidationError(
                "cost-complexity pruning needs leaves with class_weights "
                "(hand-built trees cannot be pruned)"
            )
        wrong = sum(mass for label, mass in weights.items() if label != node.prediction)  # type: ignore[union-attr]
        return float(wrong), 1
    left_risk, left_leaves = subtree_risk(node.left)
    right_risk, right_leaves = subtree_risk(node.right)
    return left_risk + right_risk, left_leaves + right_leaves


@dataclass(frozen=True)
class _WeakestLink:
    g: float
    node: InternalNode
    parent: InternalNode | None
    side: str


def _weakest_link(root: TreeNode) -> _WeakestLink | None:
    """Find the internal node with the smallest cost-complexity g."""
    best: _WeakestLink | None = None
    stack: list[tuple[TreeNode, InternalNode | None, str]] = [(root, None, "left")]
    while stack:
        node, parent, side = stack.pop()
        if node.is_leaf:
            continue
        risk, leaves = subtree_risk(node)
        collapsed = _collapse(node)
        leaf_risk, _ = subtree_risk(collapsed)
        g = (leaf_risk - risk) / max(leaves - 1, 1)
        candidate = _WeakestLink(g=g, node=node, parent=parent, side=side)  # type: ignore[arg-type]
        if best is None or candidate.g < best.g:
            best = candidate
        stack.append((node.left, node, "left"))  # type: ignore[arg-type]
        stack.append((node.right, node, "right"))  # type: ignore[arg-type]
    return best


def prune_cost_complexity(root: TreeNode, alpha: float) -> TreeNode:
    """Prune a (copy of a) tree at complexity parameter ``alpha >= 0``.

    Repeatedly collapses the weakest link while its ``g`` does not
    exceed ``alpha``.  ``alpha = 0`` removes only splits that do not
    reduce training risk at all; large ``alpha`` collapses the whole
    tree into a single leaf.
    """
    if not alpha >= 0:  # also rejects NaN, which would collapse every node
        raise ValidationError(f"alpha must be >= 0, got {alpha}")
    root = _clone(root)
    while not root.is_leaf:
        link = _weakest_link(root)
        if link is None or link.g > alpha:
            break
        collapsed = _collapse(link.node)
        if link.parent is None:
            root = collapsed
        elif link.side == "left":
            link.parent.left = collapsed
        else:
            link.parent.right = collapsed
    return root


def pruning_path(root: TreeNode) -> list[tuple[float, int]]:
    """The sequence of (alpha, n_leaves) along the full pruning path.

    Mirrors sklearn's ``cost_complexity_pruning_path``: each entry is
    the alpha at which the next collapse happens and the leaf count
    after it; starts at ``(0, n_leaves(root))`` (after zero-cost
    collapses) and ends with a single leaf.
    """
    current = prune_cost_complexity(root, 0.0)
    path = [(0.0, current.n_leaves())]
    while not current.is_leaf:
        link = _weakest_link(current)
        if link is None:
            break
        current = prune_cost_complexity(current, link.g)
        path.append((link.g, current.n_leaves()))
    return path
