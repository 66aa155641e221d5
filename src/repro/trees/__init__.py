"""Decision-tree substrate: weighted CART trees and their structure.

Public surface:

- :class:`DecisionTreeClassifier` — weighted CART learner with depth and
  leaf-count caps (the knobs the paper's ``Adjust`` heuristic tunes).
- :class:`Leaf` / :class:`InternalNode` — the paper's inductive tree
  structure, usable directly (e.g. by the 3SAT reduction).
- :func:`tree_stats`, :func:`ensemble_structure`, :func:`tree_to_text` —
  structural statistics (used by the detection attack) and export.
- :mod:`repro.trees.compiled` — the flat node-table layout, flattener
  and descent kernel behind every ``predict`` (the engine class is
  :class:`repro.ensemble.CompiledEnsemble`; ``compile()`` on a tree
  returns a one-tree table).
- :class:`SortedDataset`, :func:`presorted_dataset` — the training-side
  per-dataset sort cache behind split search (see
  :mod:`repro.trees.presort`).
"""

from .criteria import entropy_impurity, gini_impurity
from .export import TreeStats, ensemble_structure, tree_stats, tree_to_text
from .node import InternalNode, Leaf, TreeNode, iter_leaves, iter_nodes, predict_batch, predict_one
from .presort import (
    SortedDataset,
    clear_presort_cache,
    presort_cache_stats,
    presorted_dataset,
)
from .pruning import prune_cost_complexity, pruning_path, subtree_risk
from .regression import RegressionTree
from .tree import DecisionTreeClassifier, resolve_max_features

__all__ = [
    "DecisionTreeClassifier",
    "InternalNode",
    "Leaf",
    "TreeNode",
    "TreeStats",
    "ensemble_structure",
    "entropy_impurity",
    "gini_impurity",
    "iter_leaves",
    "iter_nodes",
    "predict_batch",
    "predict_one",
    "prune_cost_complexity",
    "pruning_path",
    "RegressionTree",
    "SortedDataset",
    "clear_presort_cache",
    "presort_cache_stats",
    "presorted_dataset",
    "subtree_risk",
    "resolve_max_features",
    "tree_stats",
    "tree_to_text",
]
