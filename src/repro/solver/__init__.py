"""SAT/SMT solving substrate — the library's stand-in for Z3.

Layers:

- :class:`CNF` + :class:`SATSolver` — a general CDCL SAT solver;
- :class:`PatternProblem` — the watermark forgery problem
  (Definition 1) with optional ``L∞``-ball and domain constraints;
- :class:`CompiledPatternEncoding` — the one forgery encoding: an
  eager SMT encoding over threshold atoms (sound and complete on this
  fragment), built once per forest and signature pattern and decided
  by the CDCL core per test instance with assumption-style incremental
  SAT;
- :func:`solve_pattern_smt` — the one-shot form: compile a
  :class:`PatternProblem` and solve it once;
- :func:`minimal_forgery_distortion` — binary search for the smallest
  forgeable ``L∞`` budget, one compiled encoding per search.

An independent box-DPLL solver cross-checks these in the test suite
(``tests/solver/box_dpll_oracle.py``); the library ships one engine.
"""

from .cnf import CNF
from .compiled_encoding import (
    CompiledPatternEncoding,
    EncodingCache,
    compile_pattern_encoding,
    decode_atom_intervals,
    solve_pattern_smt,
)
from .problem import (
    PatternOutcome,
    PatternProblem,
    check_pattern,
    compute_feature_bounds,
    required_labels,
)
from .sat import SATResult, SATSolver
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
    "required_labels",
    "solve_pattern_smt",
    "MinimalDistortion",
    "minimal_forgery_distortion",
]
