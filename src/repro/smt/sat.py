"""A CDCL SAT solver.

The solver implements the standard conflict-driven clause learning loop:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning and non-chronological
  backjumping,
* VSIDS-style activity based branching with periodic decay,
* Luby-sequence restarts, and
* learned-clause database reduction.

The solver is *incremental*: after a :meth:`SatSolver.solve` call the
instance stays usable -- callers can grow the variable space
(:meth:`SatSolver.ensure_num_vars`), add clauses
(:meth:`SatSolver.add_clauses`) and solve again, and the learned-clause
database, watch lists, variable activities and saved phases all carry over.
This is what makes blocking-clause model enumeration and repeated
equivalence queries cheap (see :mod:`repro.smt.solver`).

An UNSAT answer under assumptions comes with a *failed-assumption core*
(MiniSat's ``analyzeFinal``): the assumptions the refutation actually used,
so a caller can tell "these assumptions clash with the clauses" from "the
clauses alone are UNSAT" without a second call.

It is deliberately free of dependencies so it can serve as the decision
procedure underneath the bit-blaster in :mod:`repro.smt.bitblast`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class SatResult:
    """Outcome of a SAT call: satisfiability plus a model when SAT.

    The model is ``phases``, a packed vector with one byte per variable:
    ``phases[var]`` is 1 when ``var`` is true and 0 when it is false (byte
    0 pads the vector so it indexes by variable).  :attr:`assignment`
    unpacks it into a ``{var: bool}`` dict on demand.

    ``complete`` distinguishes a definitive answer from a search the
    ``max_conflicts`` budget cut short: an incomplete result with
    ``satisfiable=False`` means *unknown*, not UNSAT, and must not be
    treated as a proof of unsatisfiability.

    ``core`` is set on a complete UNSAT answer: the assumption literals the
    refutation used (the clauses plus ``core`` alone are UNSAT).  It is
    empty when the clauses are UNSAT without any assumption.
    """

    satisfiable: bool
    phases: bytes = b""
    complete: bool = True
    core: List[int] = field(default_factory=list)

    @property
    def assignment(self) -> Dict[int, bool]:
        return {var: bool(value) for var, value in enumerate(self.phases) if var}

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.satisfiable


class _Clause:
    __slots__ = ("literals", "learned", "activity")

    def __init__(self, literals: List[int], learned: bool = False) -> None:
        self.literals = literals
        self.learned = learned
        self.activity = 0.0


def _default_phase(var: int) -> bool:
    """Initial saved phase for a variable: a deterministic hash parity.

    Uniformly false phases bias models towards all-zero values (masking
    truncation of high bits); uniformly true phases bias towards all-ones
    (masking dropped writes of small constants).  A fuzzer wants witnesses
    with *mixed* bit patterns, so phases start from a cheap multiplicative
    hash of the variable index -- deterministic, hence reproducible runs.
    """

    return bool((var * 2654435761) & 0x10000)


def _luby(index: int) -> int:
    """The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...)."""

    k = 1
    while True:
        if index == (1 << k) - 1:
            return 1 << (k - 1)
        if (1 << (k - 1)) <= index < (1 << k) - 1:
            return _luby(index - (1 << (k - 1)) + 1)
        k += 1


class SatSolver:
    """CDCL solver over clauses of non-zero integer literals."""

    def __init__(self, num_vars: int = 0, clauses: Sequence[Sequence[int]] = ()) -> None:
        self.num_vars = num_vars
        self.assignment: List[Optional[bool]] = [None] * (num_vars + 1)
        self.level: List[int] = [0] * (num_vars + 1)
        self.reason: List[Optional[_Clause]] = [None] * (num_vars + 1)
        self.activity: List[float] = [0.0] * (num_vars + 1)
        self.phase: List[bool] = [_default_phase(var) for var in range(num_vars + 1)]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.clauses: List[_Clause] = []
        self.learned: List[_Clause] = []
        self.watches: Dict[int, List[_Clause]] = {}
        self.propagate_head = 0
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.clause_inc = 1.0
        self.empty_clause = False
        #: Count of completed ``solve`` invocations (perf instrumentation).
        self.solve_count = 0
        #: conflicts hit by the most recent :meth:`solve` (diagnostics).
        self.last_conflicts = 0
        #: VSIDS order: a lazy max-heap of ``(-activity, var)`` entries.
        #: Entries go stale when activities change or variables get
        #: assigned; :meth:`_decide` discards/refreshes them on pop.
        self._order: List[Tuple[float, int]] = [
            (0.0, var) for var in range(1, num_vars + 1)
        ]

        for clause in clauses:
            self._add_clause(list(clause), learned=False)

    # -- incremental interface ---------------------------------------------

    def set_phases(self, phases: bytes) -> None:
        """Make ``phases`` the saved phases, e.g. an earlier model's.

        ``phases`` is a packed model of this solver (:attr:`SatResult.phases`),
        so it covers no variable the solver lacks.  The next search then
        starts from that model, as if it had just been found.  The solver
        first backtracks to level 0: unassigning the trail saves its own
        phases, which must not override these.
        """

        self._backtrack(0)
        self.phase[1 : len(phases)] = map(bool, islice(phases, 1, None))

    def ensure_num_vars(self, num_vars: int) -> None:
        """Grow the variable space to ``num_vars`` (no-op when smaller)."""

        if num_vars <= self.num_vars:
            return
        extra = num_vars - self.num_vars
        self.assignment.extend([None] * extra)
        self.level.extend([0] * extra)
        self.reason.extend([None] * extra)
        self.activity.extend([0.0] * extra)
        self.phase.extend(
            _default_phase(var) for var in range(self.num_vars + 1, num_vars + 1)
        )
        for var in range(self.num_vars + 1, num_vars + 1):
            heappush(self._order, (0.0, var))
        self.num_vars = num_vars

    def add_clauses(self, clauses: Sequence[List[int]]) -> None:
        """Add input clauses after construction (incremental solving).

        The solver takes ownership of the clause lists: it keeps them
        without copying, and propagation reorders their literals in place
        (a clause with a duplicate literal or a tautology is the exception:
        it is rebuilt or dropped).  Callers that still read a clause after
        handing it over must not depend on its literal order.

        The variable space grows automatically to cover every literal
        (mirroring :class:`~repro.smt.cnf.CnfBuilder`).  The solver
        backtracks to decision level 0 and rewinds unit propagation so
        clauses that are unit or conflicting under the level-0 assignment
        are discovered on the next :meth:`solve`.
        """

        highest = max((abs(lit) for clause in clauses for lit in clause), default=0)
        self.ensure_num_vars(highest)
        self._backtrack(0)
        self.propagate_head = 0
        for clause in clauses:
            self._add_clause(clause, learned=False)

    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a copy of one input clause (see :meth:`add_clauses`)."""

        self.add_clauses([list(literals)])

    # -- construction -----------------------------------------------------

    def _add_clause(self, literals: List[int], learned: bool) -> Optional[_Clause]:
        if not literals:
            self.empty_clause = True
            return None
        # Deduplicate and drop tautologies in input clauses; the list is
        # rebuilt only when it does hold a duplicate literal.
        if not learned:
            seen = set(literals)
            if any(-literal in seen for literal in seen):
                return None  # tautology, always satisfied
            if len(seen) < len(literals):
                literals = list(dict.fromkeys(literals))
        clause = _Clause(literals, learned)
        if len(literals) == 1:
            # Unit input clause: enqueue at level 0.
            literal = literals[0]
            value = self._value(literal)
            if value is False:
                self.empty_clause = True
            elif value is None:
                self._enqueue(literal, None)
            return clause
        target = self.learned if learned else self.clauses
        target.append(clause)
        self._watch(clause.literals[0], clause)
        self._watch(clause.literals[1], clause)
        return clause

    def _watch(self, literal: int, clause: _Clause) -> None:
        self.watches.setdefault(-literal, []).append(clause)

    # -- assignment helpers -------------------------------------------------

    def _value(self, literal: int) -> Optional[bool]:
        assigned = self.assignment[abs(literal)]
        if assigned is None:
            return None
        return assigned if literal > 0 else not assigned

    def _enqueue(self, literal: int, reason: Optional[_Clause]) -> None:
        var = abs(literal)
        self.assignment[var] = literal > 0
        self.level[var] = self.decision_level()
        self.reason[var] = reason
        self.trail.append(literal)

    def decision_level(self) -> int:
        return len(self.trail_lim)

    # -- propagation -----------------------------------------------------------

    def _propagate(self) -> Optional[_Clause]:
        # The innermost loop of the solver: locals and inlined truth checks
        # (instead of ``_value``) buy a significant constant factor.
        trail = self.trail
        watches = self.watches
        assignment = self.assignment
        while self.propagate_head < len(trail):
            literal = trail[self.propagate_head]
            self.propagate_head += 1
            watch_list = watches.get(literal)
            if not watch_list:
                continue
            index = 0
            while index < len(watch_list):
                clause = watch_list[index]
                literals = clause.literals
                # Ensure the falsified literal is in slot 1.
                if literals[0] == -literal:
                    literals[0], literals[1] = literals[1], literals[0]
                first = literals[0]
                first_value = assignment[first if first > 0 else -first]
                if first_value is not None and first_value == (first > 0):
                    index += 1
                    continue
                # Look for a new literal to watch.
                moved = False
                for other_index in range(2, len(literals)):
                    candidate = literals[other_index]
                    value = assignment[candidate if candidate > 0 else -candidate]
                    if value is None or value == (candidate > 0):
                        literals[1], literals[other_index] = candidate, literals[1]
                        watch_list[index] = watch_list[-1]
                        watch_list.pop()
                        watches.setdefault(-candidate, []).append(clause)
                        moved = True
                        break
                if moved:
                    continue
                # Clause is unit or conflicting.
                if first_value is not None:  # first is false: conflict
                    return clause
                self._enqueue(first, clause)
                index += 1
        return None

    # -- conflict analysis ---------------------------------------------------------

    def _bump_var(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for index in range(1, self.num_vars + 1):
                self.activity[index] *= 1e-100
            self.var_inc *= 1e-100
        if self.assignment[var] is None:
            # Assigned variables are re-queued on unassignment instead.
            heappush(self._order, (-self.activity[var], var))

    def _analyze(self, conflict: _Clause) -> tuple[List[int], int]:
        learned: List[int] = [0]  # slot 0 reserved for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        literal = 0
        trail_index = len(self.trail) - 1
        clause: Optional[_Clause] = conflict

        while True:
            assert clause is not None
            for reason_literal in clause.literals:
                # Skip the literal this clause propagated (the resolvent pivot);
                # for the initial conflict clause nothing is skipped.
                if literal != 0 and reason_literal == -literal:
                    continue
                var = abs(reason_literal)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self.level[var] >= self.decision_level():
                        counter += 1
                    else:
                        learned.append(reason_literal)
            # Pick the next literal from the trail to resolve on.
            while not seen[abs(self.trail[trail_index])]:
                trail_index -= 1
            literal = -self.trail[trail_index]
            var = abs(literal)
            seen[var] = False
            counter -= 1
            trail_index -= 1
            if counter == 0:
                break
            clause = self.reason[var]

        learned[0] = literal
        if len(learned) == 1:
            backjump = 0
        else:
            # Backjump to the second highest decision level in the clause and
            # move the literal from that level to slot 1 so the two-watched
            # literal invariant holds for the learned clause (slot 0 is the
            # asserting literal, slot 1 the most recently falsified one).
            max_index = max(
                range(1, len(learned)), key=lambda idx: self.level[abs(learned[idx])]
            )
            learned[1], learned[max_index] = learned[max_index], learned[1]
            backjump = self.level[abs(learned[1])]
        return learned, backjump

    def _backtrack(self, target_level: int) -> None:
        while self.decision_level() > target_level:
            limit = self.trail_lim.pop()
            while len(self.trail) > limit:
                literal = self.trail.pop()
                var = abs(literal)
                self.phase[var] = self.assignment[var]  # save phase
                self.assignment[var] = None
                self.reason[var] = None
                heappush(self._order, (-self.activity[var], var))
        self.propagate_head = min(self.propagate_head, len(self.trail))

    def _analyze_final(self, failed: int) -> List[int]:
        """The assumptions that imply ``-failed`` (plus ``failed`` itself).

        Walks the implication graph of ``-failed`` back along the trail:
        a reached variable with a reason clause is expanded into that
        clause's other variables, a reached decision is an assumption
        (only assumptions are decided before every assumption holds).
        Level-0 assignments are consequences of the clauses alone and are
        not followed.
        """

        core = [failed]
        if self.level[abs(failed)] == 0:
            return core
        seen = {abs(failed)}
        for index in range(len(self.trail) - 1, self.trail_lim[0] - 1, -1):
            literal = self.trail[index]
            var = abs(literal)
            if var not in seen:
                continue
            reason = self.reason[var]
            if reason is None:
                core.append(literal)
                continue
            for other in reason.literals:
                other_var = abs(other)
                if other_var != var and self.level[other_var] > 0:
                    seen.add(other_var)
        return core

    # -- branching -----------------------------------------------------------------

    def _decide(self) -> Optional[int]:
        order = self._order
        activity = self.activity
        assignment = self.assignment
        while order:
            negated, var = heappop(order)
            if assignment[var] is not None:
                continue  # stale: assigned since queued (re-queued on unassign)
            if -negated != activity[var]:
                # Stale priority (activity bumped or rescaled): refresh.
                heappush(order, (-activity[var], var))
                continue
            return var if self.phase[var] else -var
        return None

    def _reduce_learned(self) -> None:
        if len(self.learned) < 2000:
            return
        self.learned.sort(key=lambda clause: clause.activity)
        keep = self.learned[len(self.learned) // 2 :]
        removed = set(id(clause) for clause in self.learned[: len(self.learned) // 2])
        # Only drop clauses that are not currently a reason for an assignment.
        locked = set(id(reason) for reason in self.reason if reason is not None)
        survivors = [
            clause
            for clause in self.learned
            if id(clause) not in removed or id(clause) in locked
        ]
        dropped = removed - locked
        if not dropped:
            return
        self.learned = survivors
        for watch_list in self.watches.values():
            watch_list[:] = [clause for clause in watch_list if id(clause) not in dropped]
        del keep

    # -- main loop -------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = (), max_conflicts: Optional[int] = None) -> SatResult:
        """Run the CDCL loop, optionally under ``assumptions``.

        The call is re-entrant: level-0 state, learned clauses, activities
        and phases persist, so repeated calls (with clauses added in
        between) pick up where the previous search left off.  Assumptions
        hold only for this call -- each assumption owns one decision level,
        so a backjump below an assumption level simply re-applies it.  An
        UNSAT result carries its failed-assumption core (:class:`SatResult`).
        """

        self.solve_count += 1
        self.last_conflicts = 0
        assumptions = list(assumptions)
        self.ensure_num_vars(max((abs(lit) for lit in assumptions), default=0))
        if self.empty_clause:
            return SatResult(False)

        # Restart the search from level 0 (a previous call may have left a
        # full assignment or stale assumptions on the trail).
        self._backtrack(0)

        conflict_budget = max_conflicts
        conflicts_total = 0
        restart_index = 1
        restart_limit = 32 * _luby(restart_index)
        conflicts_since_restart = 0

        # Level-0 propagation of unit input clauses.
        if self._propagate() is not None:
            self.empty_clause = True  # conflict at level 0 is permanent
            return SatResult(False)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts_total += 1
                self.last_conflicts = conflicts_total
                conflicts_since_restart += 1
                if self.decision_level() == 0:
                    self.empty_clause = True  # permanently UNSAT
                    return SatResult(False)
                learned, backjump_level = self._analyze(conflict)
                self._backtrack(backjump_level)
                clause = _Clause(learned, learned=True)
                clause.activity = self.clause_inc
                if len(learned) > 1:
                    self.learned.append(clause)
                    self._watch(learned[0], clause)
                    self._watch(learned[1], clause)
                self._enqueue(learned[0], clause if len(learned) > 1 else None)
                self.var_inc /= self.var_decay
                if conflict_budget is not None and conflicts_total >= conflict_budget:
                    # Budget exhausted: the answer is unknown, not UNSAT.
                    return SatResult(False, complete=False)
                if conflicts_since_restart >= restart_limit:
                    conflicts_since_restart = 0
                    restart_index += 1
                    restart_limit = 32 * _luby(restart_index)
                    self._backtrack(0)
                self._reduce_learned()
                continue

            # Assumption ``i`` owns decision level ``i + 1``; after any
            # backjump the not-yet-established assumptions are re-applied.
            if self.decision_level() < len(assumptions):
                literal = assumptions[self.decision_level()]
                value = self._value(literal)
                if value is True:
                    # Already implied: open a dummy level so the indexing
                    # between assumptions and levels stays aligned.
                    self.trail_lim.append(len(self.trail))
                    continue
                if value is False:
                    # UNSAT under these assumptions (not permanently).
                    return SatResult(False, core=self._analyze_final(literal))
                self.trail_lim.append(len(self.trail))
                self._enqueue(literal, None)
                continue

            decision = self._decide()
            if decision is None:
                # Every variable is assigned: each unassigned one still has
                # an entry in the order heap, so ``_decide`` would find it.
                return SatResult(True, bytes([0, *islice(self.assignment, 1, None)]))
            self.trail_lim.append(len(self.trail))
            self._enqueue(decision, None)


def solve_cnf(num_vars: int, clauses: Sequence[Sequence[int]]) -> SatResult:
    """Convenience helper: solve a clause list from scratch."""

    return SatSolver(num_vars, clauses).solve()
