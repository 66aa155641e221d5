"""A CDCL SAT solver (conflict-driven clause learning).

This is the Boolean engine behind the forgery attack — the role Z3
plays in the paper.  It implements the standard modern architecture:

- two-watched-literal unit propagation,
- first-UIP conflict analysis with clause learning,
- VSIDS-style variable activities with phase saving: a binary heap
  ranks only the bumped variables (activity above 0) and a
  lowest-index pointer hands out the rest, as in MiniSat's order heap,
- Luby restarts,
- a conflict budget so callers can bound worst-case work (the paper
  reports forgery runs that "do not scale"; the budget lets our
  experiments report the same phenomenon instead of hanging),
- *assumption-style re-solving*: :meth:`SATSolver.solve` accepts a list
  of assumption literals, and :meth:`SATSolver.reset` restores the
  solver to its pristine post-construction state without re-encoding or
  re-allocating the base clause database or its watch lists.  The
  compiled forgery encoding (:mod:`repro.solver.compiled_encoding`)
  builds one solver per signature pattern and re-solves it once per
  test instance, with only the instance's box constraints supplied as
  assumptions.

Assumptions are enqueued as root-level facts for the duration of a
single :meth:`solve` call.  That is sound here because ``reset`` drops
*everything* derived during the call — learned clauses included — so no
consequence of one instance's assumptions can leak into the next
instance.  Dropping learned clauses also makes every solve a pure
function of ``(base clauses, assumptions)``: a reset solver behaves
bit-for-bit like a freshly constructed one, which is what the forgery
engine's determinism contract (serial == parallel == fresh-encoding)
rests on.

The implementation favours clarity over raw speed, but handles the
tens-of-thousands-of-clauses forgery encodings comfortably.
"""

from __future__ import annotations

import heapq
import numbers
from dataclasses import dataclass, field
from functools import cached_property

from .._validation import check_count
from ..exceptions import ValidationError
from .cnf import CNF

__all__ = ["SATResult", "SATSolver"]

_UNASSIGNED = -1


@dataclass
class SATResult:
    """Outcome of a SAT run.

    ``status`` is ``"sat"``, ``"unsat"`` or ``"unknown"`` (conflict
    budget exhausted).  ``model`` maps every variable to a bool when
    satisfiable; it is built on first access from a snapshot of the
    solver's assignment, so callers that read ``SATSolver.assign``
    directly never pay for the dict.  Under assumptions, ``"unsat"``
    means *unsatisfiable together with the assumptions*.
    """

    status: str
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    _assignment: list[int] | None = field(default=None, repr=False)

    @cached_property
    def model(self) -> dict[int, bool] | None:
        if self._assignment is None:
            return None
        return dict(
            zip(range(1, len(self._assignment) + 1), map((1).__eq__, self._assignment))
        )

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


def _check_budget(max_conflicts) -> None:
    """A conflict budget is ``None`` (unlimited) or an integer ``>= 0``."""
    if max_conflicts is not None:
        check_count(max_conflicts, "max_conflicts", minimum=0)


def _luby(i: int) -> int:
    """The Luby restart sequence (1,1,2,1,1,2,4,...), 1-indexed."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class SATSolver:
    """CDCL solver over a :class:`CNF` formula, re-solvable via reset().

    The base formula is encoded once at construction.  ``solve()`` runs
    the search (optionally under assumptions); ``reset()`` rewinds the
    solver to its pristine state — base clauses and watch lists restored
    in place, learned clauses dropped, heuristic state zeroed — so the next
    ``solve()`` behaves exactly like a fresh solver without paying for
    clause re-encoding.
    """

    def __init__(self, cnf: CNF, max_conflicts: int | None = None) -> None:
        _check_budget(max_conflicts)
        self.n_vars = n = cnf.n_vars
        self.max_conflicts = max_conflicts
        # Clause database: clauses are lists of internal literal codes.
        # Internal code of DIMACS literal L: 2*(|L|-1) + (1 if L < 0 else 0).
        base_clauses: list[list[int]] = []
        base_units: list[int] = []
        base_empty = False
        for clause in cnf.clauses:
            codes = [2 * abs(literal) - 2 + (literal < 0) for literal in clause]
            if not codes:
                base_empty = True
            elif len(codes) == 1:
                base_units.append(codes[0])
            else:
                base_clauses.append(codes)
        # Pristine watch lists, built once: reset() copies them back in place.
        base_watches: list[list[int]] = [[] for _ in range(2 * n)]
        for index, codes in enumerate(base_clauses):
            base_watches[codes[0]].append(index)
            base_watches[codes[1]].append(index)
        self._base_clauses = base_clauses
        self._base_watches = base_watches
        self._base_units = base_units
        self._base_empty = base_empty

        self.clauses: list[list[int]] = [list(codes) for codes in base_clauses]
        self.watches: list[list[int]] = [list(watch) for watch in base_watches]
        self.assign: list[int] = []
        self.level: list[int] = []
        self.reason: list[int] = []
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.queue_head = 0
        self.activity: list[float] = []
        self.phase: list[bool] = []
        self._order: list[tuple[float, int]] = []
        self._zero_floor = 0
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self._contradiction = False
        self.reset()

    # -- literal helpers -------------------------------------------------

    @staticmethod
    def _negate(code: int) -> int:
        return code ^ 1

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> None:
        """Rewind to the pristine post-construction state.

        Base clauses and watch lists keep their allocation: the literal
        order of each clause (mutated by watched-literal swaps during
        search) and each watch list are copied back in place from the
        snapshots taken at construction, and learned clauses are
        truncated away.  The decision order starts empty: no variable
        is bumped yet, so every one is handed out by the lowest-index
        pointer.  After a reset the solver is bit-for-bit equivalent to
        ``SATSolver(cnf)`` — same watch lists, same heuristic state,
        same future search trajectory.
        """
        del self.clauses[len(self._base_clauses):]
        for clause, base in zip(self.clauses, self._base_clauses):
            clause[:] = base
        for watch_list, base in zip(self.watches, self._base_watches):
            watch_list[:] = base

        n = self.n_vars
        self.assign = [_UNASSIGNED] * n
        self.level = [0] * n
        self.reason = [-1] * n
        self.trail = []
        self.trail_lim = []
        self.queue_head = 0
        self.activity = [0.0] * n
        self.phase = [False] * n
        self._order = []
        self._zero_floor = 0
        self.var_inc = 1.0
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0

        self._contradiction = self._base_empty
        for code in self._base_units:
            if not self._enqueue(code, reason=-1):
                self._contradiction = True

    # -- assignment / propagation -----------------------------------------

    def _enqueue(self, code: int, reason: int) -> bool:
        """Assign literal ``code`` true; False if it is already false."""
        var = code >> 1
        value = self.assign[var]
        if value != _UNASSIGNED:
            return (value ^ (code & 1)) == 1
        self.assign[var] = 1 - (code & 1)
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(code)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause index or -1.

        The hottest loop in the solver: attribute lookups are hoisted,
        literal values computed inline (a literal code ``c`` is true
        iff ``assign[c >> 1] ^ (c & 1) == 1``, with -1 = unassigned)
        and a unit literal is enqueued inline, as :meth:`_enqueue` would.
        """
        trail = self.trail
        watches = self.watches
        clauses = self.clauses
        assign = self.assign
        level = self.level
        reason = self.reason
        current_level = len(self.trail_lim)
        start = head = self.queue_head
        while head < len(trail):
            false_code = trail[head] ^ 1
            head += 1
            watch_list = watches[false_code]
            i = 0
            end = len(watch_list)
            while i < end:
                clause_index = watch_list[i]
                clause = clauses[clause_index]
                # Normalise: watched literal under scrutiny at slot 1.
                if clause[0] == false_code:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                first_value = assign[first >> 1]
                if first_value != _UNASSIGNED and first_value ^ (first & 1):
                    i += 1
                    continue
                # Look for a replacement watch.
                for j in range(2, len(clause)):
                    other = clause[j]
                    value = assign[other >> 1]
                    if value == _UNASSIGNED or value ^ (other & 1):
                        clause[1], clause[j] = other, clause[1]
                        end -= 1
                        watch_list[i] = watch_list[end]
                        watch_list.pop()
                        watches[other].append(clause_index)
                        break
                else:
                    # Clause is unit (or conflicting) on `first`.
                    if first_value != _UNASSIGNED:
                        self.propagations += head - start
                        self.queue_head = len(trail)
                        return clause_index
                    var = first >> 1
                    assign[var] = 1 - (first & 1)
                    level[var] = current_level
                    reason[var] = clause_index
                    trail.append(first)
                    i += 1
        self.propagations += head - start
        self.queue_head = head
        return -1

    # -- conflict analysis -------------------------------------------------

    def _bump(self, var: int) -> None:
        activity = self.activity
        activity[var] += self.var_inc
        if self.assign[var] == _UNASSIGNED:
            heapq.heappush(self._order, (-activity[var], var))
        if activity[var] > 1e100:
            activity[:] = [value * 1e-100 for value in activity]
            self.var_inc *= 1e-100
            # Every heap entry is stale after a rescale, and an activity
            # may underflow to 0: rebuild the heap from the unassigned
            # variables still above 0 and rescan the rest from index 0.
            assign = self.assign
            self._order = [
                (-activity[v], v)
                for v in range(self.n_vars)
                if assign[v] == _UNASSIGNED and activity[v] > 0.0
            ]
            heapq.heapify(self._order)
            self._zero_floor = 0

    def _analyze(self, conflict_index: int) -> tuple[list[int], int]:
        """First-UIP learning; returns (learned clause codes, backjump level)."""
        # MiniSat-style resolution walk.  Invariant: for every reason
        # clause, slot 0 holds the literal it propagated, so resolving on
        # that variable means skipping slot 0.
        learned: list[int] = [0]  # slot 0 reserved for the asserting literal
        seen = [False] * self.n_vars
        counter = 0  # literals of the current decision level still open
        code: int | None = None
        index = len(self.trail) - 1
        clause_index = conflict_index
        current_level = len(self.trail_lim)

        while True:
            clause = self.clauses[clause_index]
            start = 0 if code is None else 1
            for reason_code in clause[start:]:
                var = reason_code >> 1
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(reason_code)
            # Find the next trail literal to resolve on.
            while not seen[self.trail[index] >> 1]:
                index -= 1
            code = self.trail[index]
            index -= 1
            var = code >> 1
            seen[var] = False
            clause_index = self.reason[var]
            counter -= 1
            if counter == 0:
                break
        learned[0] = self._negate(code)

        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest decision level in the clause.
        max_index = 1
        for j in range(2, len(learned)):
            if self.level[learned[j] >> 1] > self.level[learned[max_index] >> 1]:
                max_index = j
        learned[1], learned[max_index] = learned[max_index], learned[1]
        return learned, self.level[learned[1] >> 1]

    def _backtrack(self, target_level: int) -> None:
        trail, trail_lim = self.trail, self.trail_lim
        if len(trail_lim) > target_level:
            assign, phase, reason = self.assign, self.phase, self.reason
            activity, order = self.activity, self._order
            zero_floor = self._zero_floor
            limit = trail_lim[target_level]
            del trail_lim[target_level:]
            for code in trail[limit:]:
                var = code >> 1
                phase[var] = assign[var] == 1
                assign[var] = _UNASSIGNED
                reason[var] = -1
                if activity[var] > 0.0:
                    heapq.heappush(order, (-activity[var], var))
                elif var < zero_floor:
                    zero_floor = var
            del trail[limit:]
            self._zero_floor = zero_floor
        self.queue_head = min(self.queue_head, len(trail))

    # -- decisions ----------------------------------------------------------

    def _decide(self) -> bool:
        # Pick the unassigned variable of highest activity, ties toward
        # the lowest index.  Every unassigned variable with activity
        # above 0 has a fresh ``(-activity, var)`` entry in ``_order``
        # (pushed on bumping and on unassignment); the few entries that
        # went stale (assigned since, or bumped again) are popped here.
        # Once the heap runs dry every unassigned variable is at
        # activity 0, and no such variable lies below ``_zero_floor``,
        # so the first unassigned variable from there is the pick.
        order = self._order
        assign = self.assign
        activity = self.activity
        while order:
            neg_act, var = heapq.heappop(order)
            if assign[var] == _UNASSIGNED and neg_act == -activity[var]:
                break
        else:
            n = self.n_vars
            var = self._zero_floor
            while var < n and assign[var] != _UNASSIGNED:
                var += 1
            if var == n:
                self._zero_floor = n
                return False
            self._zero_floor = var + 1
        # Enqueue the decision at a new level; ``var`` is unassigned.
        self.decisions += 1
        self.trail_lim.append(len(self.trail))
        phase = self.phase[var]
        assign[var] = 1 if phase else 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = -1
        self.trail.append(2 * var + (0 if phase else 1))
        return True

    # -- main loop ------------------------------------------------------------

    def solve(self, assumptions=None) -> SATResult:
        """Run the search to completion (or to the conflict budget).

        Parameters
        ----------
        assumptions:
            Optional iterable of DIMACS literals held true for this call
            only.  They are enqueued as root-level facts; an ``"unsat"``
            result then means *unsatisfiable under the assumptions*.
            Call :meth:`reset` before re-solving with different
            assumptions — it discards everything (learned clauses
            included) that this call derived from them.

        Raises
        ------
        ValidationError
            When an assumption is 0, names no variable, is a bool or is
            not an integer, or when ``max_conflicts`` is neither ``None``
            nor an integer ``>= 0``; nothing is enqueued then.
        """
        budget = self.max_conflicts
        _check_budget(budget)
        codes = [] if assumptions is None else self._assumption_codes(assumptions)
        if self._contradiction:
            return self._result("unsat")
        for code in codes:
            if not self._enqueue(code, reason=-1):
                return self._result("unsat")
        if self._propagate() != -1:
            return self._result("unsat")

        base_conflicts = self.conflicts
        conflicts_until_restart = 100 * _luby(self.restarts + 1)
        while True:
            conflict = self._propagate()
            if conflict != -1:
                self.conflicts += 1
                if not self.trail_lim:
                    return self._result("unsat")
                if budget is not None and self.conflicts - base_conflicts >= budget:
                    return self._result("unknown")
                learned, backjump_level = self._analyze(conflict)
                self._backtrack(backjump_level)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], reason=-1):
                        return self._result("unsat")
                else:
                    index = len(self.clauses)
                    self.clauses.append(learned)
                    self.watches[learned[0]].append(index)
                    self.watches[learned[1]].append(index)
                    self._enqueue(learned[0], reason=index)
                self.var_inc /= self.var_decay
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    self.restarts += 1
                    conflicts_until_restart = 100 * _luby(self.restarts + 1)
                    self._backtrack(0)
            else:
                if not self._decide():
                    return self._result("sat", self.assign[:])

    def _assumption_codes(self, assumptions) -> list[int]:
        """Internal codes of DIMACS assumption literals, validated.

        A literal is a non-zero integer (not a bool) naming one of the
        solver's variables.
        """
        literals = list(assumptions)
        if not set(map(type, literals)) <= {int}:
            for literal in literals:
                integral = isinstance(literal, numbers.Integral)
                if isinstance(literal, bool) or not integral:
                    raise ValidationError(
                        f"assumption literals must be integers, got {literal!r}"
                    )
            literals = [int(literal) for literal in literals]
        n = self.n_vars
        if literals and (min(literals) < -n or max(literals) > n or 0 in literals):
            literal = next(lit for lit in literals if not 0 < abs(lit) <= n)
            raise ValidationError(
                f"assumption literal {literal} names no variable in 1..{n}"
            )
        return [2 * abs(literal) - 2 + (literal < 0) for literal in literals]

    def _result(self, status: str, assignment: list[int] | None = None) -> SATResult:
        return SATResult(
            status=status,
            _assignment=assignment,
            conflicts=self.conflicts,
            decisions=self.decisions,
            propagations=self.propagations,
            restarts=self.restarts,
        )
