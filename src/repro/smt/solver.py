"""User-facing SMT solver facade.

:class:`Solver` collects Boolean constraints over bit-vector/Boolean terms,
simplifies them, bit-blasts to CNF and runs the CDCL SAT solver.  Models are
reconstructed at the term level (symbol name -> integer / bool) and
double-checked against the original constraints by concrete evaluation,
which guards against bit-blasting bugs.

The facade is *incremental*: each :class:`Solver` owns one persistent
:class:`~repro.smt.bitblast.BitBlaster` and one persistent
:class:`~repro.smt.sat.SatSolver`.  Constraints are blasted exactly once
when first checked; ``check(*extra)`` encodes the extra constraints as
assumption literals instead of rebuilding the CNF, so the SAT solver's
learned-clause database, watch lists, activities and saved phases are
reused across every check on the same solver.  This is what makes
blocking-clause model enumeration (:func:`enumerate_models`) and
best-effort preferences (:meth:`Solver.check_preferring`) cheap.  An
UNSAT check names the extras its refutation used
(:meth:`Solver.unsat_core`), so a preference retry runs only when a
preference is to blame.

The module also provides the two operations Gauntlet actually needs:

* :func:`equivalent` / :func:`find_divergence` -- check whether two formulas
  agree for every assignment, and if not produce a witness assignment.
  Because terms are hash-consed, structurally identical sides are the same
  object and short-circuit to "equivalent" without any SAT query (see
  :data:`STATS`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.smt import terms as t
from repro.smt.bitblast import BLAST_STATS, BitBlaster, reset_blast_stats
from repro.smt.evaluate import evaluate
from repro.smt.sat import SatResult, SatSolver
from repro.smt.simplify import simplify
from repro.smt.terms import Term

Value = Union[int, bool]


@dataclass
class SolverStats:
    """Process-wide counters for the validation hot path.

    ``sat_invocations`` counts actual CDCL ``solve`` calls; the syntactic
    fast paths in :func:`find_divergence` must keep it at zero for
    structurally identical terms (asserted by the unit tests).
    """

    checks: int = 0
    sat_invocations: int = 0
    syntactic_equivalences: int = 0
    constant_verdicts: int = 0
    #: Batched :func:`all_equivalent` calls that reached the solver.
    batched_checks: int = 0
    #: Pairs answered by the equivalence-verdict memo (one program's pairs).
    equivalence_cache_hits: int = 0
    #: Queries cut short by a ``max_conflicts`` budget (verdict UNKNOWN).
    budget_exhausted: int = 0
    #: CDCL conflicts summed over every ``solve`` (full or cone instance).
    sat_conflicts: int = 0

    def reset(self) -> None:
        self.checks = 0
        self.sat_invocations = 0
        self.syntactic_equivalences = 0
        self.constant_verdicts = 0
        self.batched_checks = 0
        self.equivalence_cache_hits = 0
        self.budget_exhausted = 0
        self.sat_conflicts = 0
        reset_blast_stats()

    def snapshot(self) -> Dict[str, int]:
        # The bit-blast encoding-cache counters live in the bitblast module
        # (it cannot import this one) but are reported as solver stats: they
        # are part of the same hot path and ride the same per-unit deltas.
        return {
            "checks": self.checks,
            "sat_invocations": self.sat_invocations,
            "syntactic_equivalences": self.syntactic_equivalences,
            "constant_verdicts": self.constant_verdicts,
            "batched_checks": self.batched_checks,
            "equivalence_cache_hits": self.equivalence_cache_hits,
            "budget_exhausted": self.budget_exhausted,
            "sat_conflicts": self.sat_conflicts,
            "bitblast_hits": BLAST_STATS["bitblast_hits"],
            "bitblast_misses": BLAST_STATS["bitblast_misses"],
        }


#: Global instrumentation shared by every :class:`Solver` instance.
STATS = SolverStats()


class CheckResult(Enum):
    """Outcome of a satisfiability check.

    ``UNKNOWN`` means a ``max_conflicts`` budget cut the search short: the
    query is neither proven satisfiable nor unsatisfiable.  It is never
    returned by an unbudgeted check.
    """

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class Model:
    """A satisfying assignment: symbol name -> concrete value."""

    values: Dict[str, Value] = field(default_factory=dict)
    #: The SAT-level model the values were read from, packed one byte per
    #: variable (:attr:`~repro.smt.sat.SatResult.phases`) in the numbering
    #: of the solver that found them (see :meth:`Solver.restore_phases`).
    assignment: bytes = field(default=b"", compare=False, repr=False)

    def __getitem__(self, name: str) -> Value:
        return self.values.get(name, 0)

    def get(self, name: str, default: Value = 0) -> Value:
        return self.values.get(name, default)

    def __contains__(self, name: str) -> bool:  # pragma: no cover - trivial
        return name in self.values

    def __iter__(self):  # pragma: no cover - trivial
        return iter(self.values)

    def items(self):  # pragma: no cover - trivial
        return self.values.items()


class Solver:
    """Accumulate constraints and decide satisfiability incrementally."""

    def __init__(self) -> None:
        self._constraints: List[Term] = []
        self._model: Optional[Model] = None
        # Incremental state: one blaster + SAT solver per Solver lifetime.
        self._blaster: Optional[BitBlaster] = None
        self._sat: Optional[SatSolver] = None
        #: Simplified forms of the constraints asserted into the CNF so far.
        self._asserted: List[Term] = []
        #: How many of ``self._constraints`` have been processed.
        self._processed = 0
        #: Index into the builder's clause list already fed to the SAT solver.
        self._clauses_fed = 0
        #: Set when an added constraint simplifies to FALSE.
        self._trivially_unsat = False
        #: The ``extra`` terms the last UNSAT verdict's refutation used.
        self._core: Optional[List[Term]] = None

    # -- constraint management ------------------------------------------------

    def add(self, *constraints: Term) -> None:
        """Add Boolean constraints to the solver."""

        for constraint in constraints:
            if not constraint.sort.is_bool():
                raise TypeError("solver constraints must be Boolean terms")
            self._constraints.append(constraint)

    def reset(self) -> None:
        """Drop all constraints, incremental state and any cached model."""

        self._constraints.clear()
        self._model = None
        self._blaster = None
        self._sat = None
        self._asserted = []
        self._processed = 0
        self._clauses_fed = 0
        self._trivially_unsat = False
        self._core = None

    @property
    def constraints(self) -> List[Term]:
        return list(self._constraints)

    # -- solving ---------------------------------------------------------------

    def _ensure_engine(self) -> None:
        if self._blaster is None:
            self._blaster = BitBlaster()
            self._sat = SatSolver()

    def _sync_clauses(self) -> None:
        """Feed CNF clauses produced since the last sync to the SAT solver.

        The SAT solver takes the builder's clause lists themselves, not
        copies, and its propagation reorders their literals in place.  The
        cone extraction of :meth:`decide` reads the same lists, and their
        literal order fixes the cone instance's search, so one solver must
        not mix model-building checks with verdict-only decides: each
        would see the other's reordering.  No caller does: test generation
        and :func:`find_divergence` only :meth:`check`, and the validator's
        chain-scoped batch solver only decides.
        """

        assert self._blaster is not None and self._sat is not None
        cnf = self._blaster.builder.cnf
        self._sat.ensure_num_vars(cnf.num_vars)
        if self._clauses_fed < len(cnf.clauses):
            self._sat.add_clauses(cnf.clauses[self._clauses_fed:])
            self._clauses_fed = len(cnf.clauses)

    def _assert_pending(self) -> None:
        """Simplify and bit-blast constraints added since the last check."""

        while self._processed < len(self._constraints):
            constraint = self._constraints[self._processed]
            self._processed += 1
            reduced = simplify(constraint)
            if reduced is t.TRUE:
                continue
            if reduced is t.FALSE:
                self._trivially_unsat = True
                continue
            self._ensure_engine()
            self._blaster.assert_term(reduced)
            self._asserted.append(reduced)

    def check(
        self, *extra: Term, max_conflicts: Optional[int] = None
    ) -> CheckResult:
        """Check satisfiability of the conjunction of all constraints.

        ``extra`` constraints hold for this check only; they are encoded as
        assumption literals so they never pollute the persistent CNF.
        ``max_conflicts`` bounds the CDCL search; an exhausted budget
        yields :data:`CheckResult.UNKNOWN` instead of an answer.
        """

        return self._check(extra, build_model=True, max_conflicts=max_conflicts)

    def decide(
        self, *extra: Term, max_conflicts: Optional[int] = None
    ) -> CheckResult:
        """Satisfiability verdict only: no model is reconstructed.

        Verdicts are semantic facts (independent of solver history), so a
        long-lived solver can answer them for many callers; *models* are
        history-dependent, which is why :func:`all_equivalent` uses this
        and leaves witness construction to a fresh solver.  After a
        ``decide``, :meth:`model` raises.
        """

        return self._check(extra, build_model=False, max_conflicts=max_conflicts)

    def _check(
        self,
        extra: Tuple[Term, ...],
        build_model: bool,
        max_conflicts: Optional[int] = None,
    ) -> CheckResult:
        STATS.checks += 1
        self._assert_pending()
        self._model = None
        self._core = None
        if self._trivially_unsat:
            self._core = []
            return CheckResult.UNSAT

        kept: List[Term] = []
        extra_reduced: List[Term] = []
        for term in extra:
            if not term.sort.is_bool():
                raise TypeError("solver constraints must be Boolean terms")
            reduced = simplify(term)
            if reduced is t.TRUE:
                continue
            if reduced is t.FALSE:
                STATS.constant_verdicts += 1
                self._core = [term]
                return CheckResult.UNSAT
            kept.append(term)
            extra_reduced.append(reduced)

        if self._sat is None and not extra_reduced:
            # Nothing was ever asserted: trivially satisfiable.
            self._model = Model({}) if build_model else None
            STATS.constant_verdicts += 1
            return CheckResult.SAT

        self._ensure_engine()
        # Tseitin definitions are biconditional, so defining an assumption
        # literal adds no top-level assertion -- it only names the formula.
        assumptions = [self._blaster.bool_literal(reduced) for reduced in extra_reduced]

        STATS.sat_invocations += 1
        if build_model:
            self._sync_clauses()
            result = self._sat.solve(
                assumptions=assumptions, max_conflicts=max_conflicts
            )
            STATS.sat_conflicts += self._sat.last_conflicts
        else:
            # Verdict-only checks solve just the cone of the query: on a
            # long-lived solver (the validator's chain-scoped batches) the
            # accumulated CNF covers every pair seen so far, but this CDCL
            # assigns every variable it knows, so solving the full formula
            # makes each verdict pay for all of them.  The blaster memo
            # still amortises the Tseitin encoding chain-wide; only the
            # SAT instance is per-query.  Models must come from the full
            # formula (symbol bits outside the cone would be unassigned),
            # which is why this path never builds one.
            result = self._cone_solve(assumptions, max_conflicts)
        if not result.satisfiable:
            if not result.complete:
                STATS.budget_exhausted += 1
                return CheckResult.UNKNOWN
            failed = set(result.core)
            self._core = [
                term for term, literal in zip(kept, assumptions) if literal in failed
            ]
            return CheckResult.UNSAT
        if not build_model:
            return CheckResult.SAT

        phases = result.phases
        values: Dict[str, Value] = {}
        for name, bits in self._blaster.symbol_bits().items():
            value = 0
            for index, literal in enumerate(bits):
                if phases[abs(literal)] == (literal > 0):
                    value |= 1 << index
            values[name] = value
        for name, literal in self._blaster.bool_symbol_vars().items():
            values[name] = phases[abs(literal)] == (literal > 0)

        model = Model(values, phases)
        # Sanity check the model against the *original* (unsimplified)
        # constraints: this guards against bit-blasting bugs and against
        # unsound rewrites in the persistent simplifier cache alike.
        for constraint in itertools.chain(self._constraints[: self._processed], extra):
            if not evaluate(constraint, model.values, default=0):
                raise RuntimeError(
                    "internal SMT error: SAT model does not satisfy the formula"
                )
        self._model = model
        return CheckResult.SAT

    def _cone_solve(
        self, assumptions: List[int], max_conflicts: Optional[int]
    ) -> SatResult:
        """Solve only the clauses the assumptions transitively depend on.

        Variables are renumbered compactly (sorted order, so the instance
        is deterministic), and a throwaway SAT solver decides the cone.
        Soundness: every clause outside the cone is a biconditional gate
        definition of an unrelated formula, satisfiable by evaluating the
        gate bottom-up, so cone-SAT extends to full-SAT and cone-UNSAT
        implies full-UNSAT (the cone is a subset of the clauses).
        """

        assert self._blaster is not None
        builder = self._blaster.builder
        indices, cone_vars = builder.cone(abs(lit) for lit in assumptions)
        order = sorted(cone_vars)
        remap = {var: new for new, var in enumerate(order, start=1)}
        clauses = builder.cnf.clauses

        def translate(literal: int) -> int:
            mapped = remap[abs(literal)]
            return mapped if literal > 0 else -mapped

        sub = SatSolver()
        sub.ensure_num_vars(len(order))
        sub.add_clauses(
            [[translate(lit) for lit in clauses[i]] for i in indices]
        )
        result = sub.solve(
            assumptions=[translate(lit) for lit in assumptions],
            max_conflicts=max_conflicts,
        )
        STATS.sat_conflicts += sub.last_conflicts
        # Map the failed-assumption core back to the full numbering.
        result.core = [
            order[abs(lit) - 1] if lit > 0 else -order[abs(lit) - 1]
            for lit in result.core
        ]
        return result

    def model(self) -> Model:
        """Return the model from the last successful :meth:`check`."""

        if self._model is None:
            raise RuntimeError("no model available: last check was unsat or not run")
        return self._model

    def unsat_core(self) -> List[Term]:
        """The ``extra`` terms the last UNSAT check's refutation used.

        The asserted constraints plus these terms alone are UNSAT; an empty
        core means the asserted constraints are UNSAT by themselves.
        """

        if self._core is None:
            raise RuntimeError("no core available: last check was not unsat")
        return list(self._core)

    def check_preferring(
        self,
        extra: Sequence[Term],
        preferences: Sequence[Term],
        max_conflicts: Optional[int] = None,
    ) -> CheckResult:
        """Check ``extra`` with best-effort ``preferences``.

        The preferences ride along as extra assumptions.  If that check
        fails, the retry without them runs only when they may be to blame:
        the search ran out of budget, or a preference is in the UNSAT core.
        A core made of ``extra`` alone already proves the retry UNSAT.
        """

        if preferences:
            verdict = self.check(*extra, *preferences, max_conflicts=max_conflicts)
            if verdict == CheckResult.SAT:
                return verdict
            if verdict == CheckResult.UNSAT and not (
                set(self.unsat_core()) & set(preferences)
            ):
                return verdict
        return self.check(*extra, max_conflicts=max_conflicts)

    def restore_phases(self, model: Model) -> None:
        """Search next from ``model``, a model this solver found earlier.

        Resets the SAT solver's saved phases to the packed assignment
        ``model`` was read from, which leaves the search where it stood just
        after finding it.
        """

        if self._sat is not None:
            self._sat.set_phases(model.assignment)


# ---------------------------------------------------------------------------
# Equivalence checking helpers (the core of translation validation)
# ---------------------------------------------------------------------------

#: Conflict budget for equivalence queries (:func:`all_equivalent` and
#: :func:`find_divergence`).  Every legitimate query in the seeded
#: campaigns settles in well under a hundred conflicts; a rare snapshot
#: pair produces a genuinely hard instance (tens of thousands of
#: conflicts, minutes of wall clock) out of which no witness ever comes.
#: Exhausting the budget yields UNKNOWN, which the equivalence layer
#: treats as "no divergence found": the oracle trades a theoretical
#: missed bug for never producing a false alarm and never hanging a
#: campaign — the same trade Gauntlet makes by running Z3 under a
#: timeout.  The budget is a deterministic conflict *count*, not wall
#: clock, so ``jobs=1`` and ``jobs=N`` still agree on every verdict.
EQUIVALENCE_CONFLICT_BUDGET = 512

#: Memo value for pairs whose query exhausted the conflict budget.
_HARD = "hard"

#: Equivalence-verdict memo: ``(left, right) -> True`` for pairs proven
#: *unconditionally* equivalent (no extra constraints), or :data:`_HARD`
#: for pairs whose query exhausted the conflict budget (a pathological
#: pair is paid for at most once per program).  It is keyed by interned
#: terms, so :func:`~repro.smt.terms.clear_term_caches` drops it with the
#: intern table at every unit boundary.  Divergence verdicts are not
#: stored because their value is the witness, which must be re-derived on
#: a fresh solver to stay scheduler-independent.
_EQUIV_CACHE: Dict[Tuple[Term, Term], object] = {}


def equivalence_cache_size() -> int:
    return len(_EQUIV_CACHE)


def all_equivalent(
    pairs: Iterable[Tuple[Term, Term]], solver: Optional[Solver] = None
) -> bool:
    """Decide whether *every* ``(left, right)`` pair is equivalent.

    This is the batched common case of translation validation: almost all
    output fields of a clean snapshot pair are equivalent, and this
    entry point proves them together on **one** incremental solver.  Each
    pair first runs the syntactic fast paths and the program-scoped
    equivalence memo; each survivor is then `decide()`d as its own
    assumption-literal query (``Ne(l, r)``) on the batch solver, and each
    ``UNSAT`` verdict feeds the memo immediately — so pairs proven before
    a later divergence stay proven.

    The queries are deliberately *not* ganged into one
    ``Or(Ne(l, r), ...)`` disjunction: refuting a disjunction forces the
    CDCL search to interleave every field's refutation under one VSIDS
    heap, which is sometimes catastrophically slower than the focused
    per-field proofs (minutes instead of milliseconds on wide snapshot
    pairs).  The batching win lives in the *solver*, not the query shape:
    survivors share most of their term DAG, so each query after the first
    reuses the previous queries' Tseitin encoding and learned clauses.

    ``solver`` widens that reuse across a *sequence* of related batches —
    the validator threads one chain-scoped solver through all snapshot
    pairs of one compilation, where consecutive pairs share a snapshot.
    The scope should be no wider than the term population it serves:
    nothing is ever asserted, but this CDCL has no variable relevancy
    filtering, so a solver accumulating CNF across unrelated programs
    makes every later query pay for the whole variable space.  Without
    ``solver`` each call uses a fresh one.

    Returns ``False`` as soon as *some* pair diverges, without saying
    which: callers needing the diverging pair and a witness fall back to
    the sequential :func:`find_divergence` walk, whose fresh-solver models
    are deterministic and identical to the unbatched pipeline's.
    """

    survivors: List[Tuple[Term, Term]] = []
    for left, right in pairs:
        if left.sort != right.sort:
            raise TypeError("cannot compare terms of different sorts")
        if left is right or simplify(left) is simplify(right):
            STATS.syntactic_equivalences += 1
            continue
        if _EQUIV_CACHE.get((left, right)):
            STATS.equivalence_cache_hits += 1
            continue
        survivors.append((left, right))
    if not survivors:
        return True
    STATS.batched_checks += 1
    batch_solver = solver or Solver()
    for left, right in survivors:
        verdict = batch_solver.decide(
            t.Ne(left, right), max_conflicts=EQUIVALENCE_CONFLICT_BUDGET
        )
        if verdict == CheckResult.SAT:
            return False
        if verdict == CheckResult.UNKNOWN:
            # Budget exhausted: not proven, but no divergence found either.
            # Record the pair as hard so no later walk re-pays the search;
            # the oracle's bias is "no false alarms" (see the budget note).
            _EQUIV_CACHE[(left, right)] = _HARD
            continue
        _EQUIV_CACHE[(left, right)] = True
    return True


def find_divergence(
    left: Term,
    right: Term,
    extra_constraints: Iterable[Term] = (),
    prefer_nonzero: Iterable[Term] = (),
) -> Optional[Model]:
    """Search for an assignment under which ``left`` and ``right`` differ.

    Returns ``None`` when the terms are semantically equivalent (under the
    optional ``extra_constraints``); otherwise returns a witness model.

    Hash-consing gives a syntactic fast path: structurally identical terms
    are the same object, and identical terms never diverge, so ``left is
    right`` (before or after simplification) answers without touching the
    SAT solver.

    ``prefer_nonzero`` lists symbols the caller would like to be non-zero in
    the witness (Gauntlet asks Z3 for non-zero packets so that targets that
    zero-initialise undefined values do not mask bugs); the preference is
    best-effort and dropped if it would make the query unsatisfiable.
    """

    if left.sort != right.sort:
        raise TypeError("cannot compare terms of different sorts")
    if left is right:
        STATS.syntactic_equivalences += 1
        return None
    # Simplification is memoised until the next unit boundary, so this is
    # cheap for terms the validator has seen in this program; identical
    # normal forms are equivalent.
    if simplify(left) is simplify(right):
        STATS.syntactic_equivalences += 1
        return None
    extras = list(extra_constraints)
    # The memo only records *unconditional* equivalences, so it may only
    # answer (and only learn) when no extra constraints narrow the query.
    if not extras and _EQUIV_CACHE.get((left, right)):
        STATS.equivalence_cache_hits += 1
        return None
    difference = t.Ne(left, right)
    solver = Solver()
    solver.add(difference, *extras)

    nonzero_terms = [
        t.Ne(symbol, t.BitVecVal(0, symbol.width))
        for symbol in prefer_nonzero
        if symbol.sort.is_bv()
    ]
    verdict = solver.check_preferring(
        (), nonzero_terms, max_conflicts=EQUIVALENCE_CONFLICT_BUDGET
    )
    if verdict == CheckResult.SAT:
        return solver.model()
    if not extras:
        # UNSAT proves equivalence; UNKNOWN marks the pair hard so no
        # later walk re-pays the exhausted search (either way, there is no
        # witness to report — the oracle's bias is "no false alarms").
        _EQUIV_CACHE[(left, right)] = (
            True if verdict == CheckResult.UNSAT else _HARD
        )
    return None


def equivalent(
    left: Term, right: Term, extra_constraints: Iterable[Term] = ()
) -> bool:
    """True when ``left`` and ``right`` agree under every assignment."""

    return find_divergence(left, right, extra_constraints) is None


def enumerate_models(
    constraint: Term,
    over: List[Term],
    limit: int = 16,
) -> List[Model]:
    """Enumerate up to ``limit`` distinct models of ``constraint``.

    Distinctness is with respect to the symbols in ``over``; each found
    model is blocked before the next query.  The blocking clauses are added
    to one incremental :class:`Solver`, so the CNF, watch lists and
    learned-clause database are reused across iterations instead of
    rebuilding the SAT solver from scratch for every model.  Used by the
    symbolic-execution test generator to obtain several packets per program
    path.
    """

    models: List[Model] = []
    solver = Solver()
    solver.add(constraint)
    for _ in itertools.repeat(None, limit):
        if solver.check() != CheckResult.SAT:
            break
        model = solver.model()
        models.append(model)
        disequalities = []
        for symbol in over:
            if symbol.sort.is_bv():
                disequalities.append(
                    t.Ne(symbol, t.BitVecVal(int(model.get(symbol.name, 0)), symbol.width))
                )
            else:
                disequalities.append(
                    t.Ne(symbol, t.BoolVal(bool(model.get(symbol.name, False))))
                )
        if not disequalities:
            break
        solver.add(t.Or(*disequalities))
    return models
