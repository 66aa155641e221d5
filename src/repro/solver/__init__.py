"""SAT/SMT solving substrate — the library's stand-in for Z3.

Layers:

- :class:`CNF` + :class:`SATSolver` — a general CDCL SAT solver;
- :class:`PatternProblem` — the watermark forgery problem
  (Definition 1) with optional ``L∞``-ball and domain constraints;
- :func:`solve_pattern_smt` — eager SMT encoding over threshold atoms,
  decided by the CDCL core (sound and complete on this fragment); the
  one-shot entry point for a :class:`PatternProblem`;
- :class:`CompiledPatternEncoding` — the forgery engine: the
  instance-independent skeleton of a forgery query (per-tree leaf
  boxes, threshold atoms, clause skeleton), built once per signature
  pattern and re-solved per test instance with assumption-style
  incremental SAT;
- :func:`minimal_forgery_distortion` — binary search for the smallest
  forgeable ``L∞`` budget.

An independent box-DPLL solver cross-checks these in the test suite
(``tests/solver/box_dpll_oracle.py``); the library ships one engine.
"""

from .cnf import CNF
from .compiled_encoding import (
    CompiledPatternEncoding,
    EncodingCache,
    compile_pattern_encoding,
)
from .encoding import (
    decode_atom_intervals,
    decode_model,
    encode_pattern_problem,
    solve_pattern_smt,
)
from .problem import (
    PatternOutcome,
    PatternProblem,
    check_pattern,
    compute_feature_bounds,
    required_labels,
)
from .sat import SATResult, SATSolver, solve_cnf
from .optimize import MinimalDistortion, minimal_forgery_distortion

__all__ = [
    "CNF",
    "CompiledPatternEncoding",
    "EncodingCache",
    "PatternOutcome",
    "PatternProblem",
    "SATResult",
    "SATSolver",
    "check_pattern",
    "compile_pattern_encoding",
    "compute_feature_bounds",
    "decode_atom_intervals",
    "decode_model",
    "encode_pattern_problem",
    "required_labels",
    "solve_cnf",
    "solve_pattern_smt",
    "MinimalDistortion",
    "minimal_forgery_distortion",
]
