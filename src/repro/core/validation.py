"""Translation validation (paper §5).

Given the sequence of per-pass snapshots produced by the compiler, the
validator converts every snapshot into SMT formulas (one per programmable
block and output field) and checks consecutive snapshots for equivalence.
A satisfiable inequality query yields both the defective pass and a witness
assignment (input packet + table configuration) that triggers the
miscompilation -- exactly the workflow of figure 2.

The validator also re-parses every emitted snapshot, which catches the
"invalid transformation" bugs of §7.2 where a pass emits syntactically
broken P4.

A validator memoises the reparse verdict and the symbolic semantics of
each snapshot *source* for its own lifetime: the pass manager already
treats the emitted source as a snapshot's identity (snapshots with an
unchanged source are skipped, §5.2), and the campaign engine keeps one
validator per program, so the two prefix compilations of a seeded program
(p4c's defects and the back ends' clean chain) share every snapshot up to
the first pass a defect changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro import smt
from repro.compiler.pass_manager import CompilationResult, PassSnapshot
from repro.core.interpreter import BlockSemantics, InterpreterError, SymbolicInterpreter
from repro.p4 import parse_program
from repro.p4.lexer import LexerError
from repro.p4.parser import ParserError

def term_shape_histogram(semantics: Dict[str, BlockSemantics]) -> Dict[str, int]:
    """``term op -> node count`` over a snapshot's symbolic semantics.

    Walks the output (and state-output) term DAGs of every block once,
    memoised on ``id()``: hash-consing interns structurally equal terms to
    one object, so the walk touches each distinct subterm exactly once and
    the histogram is near-free on top of an interpretation that validation
    performs anyway.
    """

    histogram: Dict[str, int] = {}
    seen: set = set()
    stack: List["smt.Term"] = []
    for block in semantics.values():
        stack.extend(block.outputs.values())
        stack.extend(block.state_outputs.values())
    while stack:
        term = stack.pop()
        if id(term) in seen:
            continue
        seen.add(id(term))
        histogram[term.op] = histogram.get(term.op, 0) + 1
        stack.extend(term.children)
    return dict(sorted(histogram.items()))


class ValidationOutcome(Enum):
    """Verdict for one compilation run."""

    EQUIVALENT = "equivalent"
    SEMANTIC_BUG = "semantic_bug"
    INVALID_TRANSFORMATION = "invalid_transformation"
    CRASH = "crash"
    REJECTED = "rejected"
    ORACLE_ERROR = "oracle_error"


@dataclass
class PassDivergence:
    """A semantic difference introduced by one specific pass.

    ``before_pass`` names the last pass whose snapshot still agreed with
    the input semantics, so ``(before_pass, pass_name)`` is the diverging
    snapshot pair — the localisation signal the triage stage stores on
    :class:`~repro.core.bugs.BugReport`.
    """

    pass_name: str
    block: str
    output_path: str
    witness: Dict[str, object]
    before_source: str
    after_source: str
    before_pass: str = ""


@dataclass
class ValidationReport:
    """Everything translation validation learned about one program."""

    outcome: ValidationOutcome
    divergences: List[PassDivergence] = field(default_factory=list)
    invalid_pass: Optional[str] = None
    detail: str = ""

    @property
    def found_bug(self) -> bool:
        return self.outcome in (
            ValidationOutcome.SEMANTIC_BUG,
            ValidationOutcome.INVALID_TRANSFORMATION,
            ValidationOutcome.CRASH,
        )


class TranslationValidator:
    """Check that every compiler pass preserved program semantics."""

    def __init__(self, stop_at_first_divergence: bool = True) -> None:
        self.stop_at_first_divergence = stop_at_first_divergence
        #: source -> reparse error (``None`` when the snapshot reparses).
        self._reparse_errors: Dict[str, Optional[str]] = {}
        #: source -> symbolic semantics of every block.  Consumers only
        #: read the ``BlockSemantics`` (terms are immutable).
        self._semantics: Dict[str, Dict[str, BlockSemantics]] = {}

    # -- entry points ---------------------------------------------------------

    def validate_compilation(self, result: CompilationResult) -> ValidationReport:
        """Validate a full compilation result (all snapshots)."""

        if result.crashed:
            return ValidationReport(
                ValidationOutcome.CRASH, detail=str(result.crash)
            )
        if result.rejected:
            return ValidationReport(
                ValidationOutcome.REJECTED, detail=str(result.error)
            )

        snapshots = result.changed_snapshots()
        # Reparse every emitted program first: a snapshot that no longer
        # parses is an invalid transformation, and later passes cannot be
        # validated meaningfully.
        for snapshot in snapshots[1:]:
            error = self._reparse_error(snapshot.source)
            if error is not None:
                return ValidationReport(
                    ValidationOutcome.INVALID_TRANSFORMATION,
                    invalid_pass=snapshot.pass_name,
                    detail=f"emitted program does not reparse: {error}",
                )

        divergences: List[PassDivergence] = []
        # One incremental solver for the whole chain: consecutive pairs
        # share most of their term DAG, so each batch reuses the previous
        # pairs' Tseitin encoding and learned clauses.  The solver dies
        # with the chain — scoping it wider (per campaign) makes every
        # query pay for every other program's variable space.
        chain_solver = smt.Solver()
        try:
            previous = snapshots[0]
            previous_semantics = self.interpret(previous)
            for snapshot in snapshots[1:]:
                current_semantics = self.interpret(snapshot)
                # Gang every output-field check of this pair into one
                # incremental UNSAT probe (with the per-pair syntactic
                # fast paths and the program-scoped equivalence memo in
                # front).  Only a pair that fails the batch is
                # re-walked field by field on fresh solvers, so the
                # reported first divergence and its witness stay
                # byte-identical to the pre-batching validator — witness
                # models are solver-history-dependent, verdicts are not.
                if not smt.all_equivalent(
                    self._pair_terms(previous_semantics, current_semantics),
                    solver=chain_solver,
                ):
                    divergences.extend(
                        self._compare(
                            previous, snapshot, previous_semantics, current_semantics
                        )
                    )
                if divergences and self.stop_at_first_divergence:
                    break
                previous = snapshot
                previous_semantics = current_semantics
        except InterpreterError as exc:
            # A failure of our own interpreter must never be reported as a
            # compiler bug (paper §5.2: false alarms are interpreter bugs).
            return ValidationReport(ValidationOutcome.ORACLE_ERROR, detail=str(exc))

        if divergences:
            return ValidationReport(ValidationOutcome.SEMANTIC_BUG, divergences=divergences)
        return ValidationReport(ValidationOutcome.EQUIVALENT)

    def validate_pair(self, before: PassSnapshot, after: PassSnapshot) -> List[PassDivergence]:
        """Check a single pair of snapshots."""

        return self._compare(
            before, after, self.interpret(before), self.interpret(after)
        )

    def interpret(self, snapshot: PassSnapshot) -> Dict[str, BlockSemantics]:
        """The snapshot's symbolic semantics, interpreted once per source."""

        semantics = self._semantics.get(snapshot.source)
        if semantics is None:
            semantics = SymbolicInterpreter(snapshot.program).interpret()
            self._semantics[snapshot.source] = semantics
        return semantics

    # -- internals ----------------------------------------------------------------

    def _reparse_error(self, source: str) -> Optional[str]:
        if source not in self._reparse_errors:
            try:
                parse_program(source)
                self._reparse_errors[source] = None
            except (ParserError, LexerError) as exc:
                self._reparse_errors[source] = str(exc)
        return self._reparse_errors[source]

    @staticmethod
    def _pair_terms(
        before_semantics: Dict[str, BlockSemantics],
        after_semantics: Dict[str, BlockSemantics],
    ) -> List[Tuple["smt.Term", "smt.Term"]]:
        """The (before, after) output terms one snapshot pair must preserve."""

        pairs: List[Tuple["smt.Term", "smt.Term"]] = []
        for block_name, before_block in before_semantics.items():
            after_block = after_semantics.get(block_name)
            if after_block is None:
                continue
            for path, before_term in before_block.outputs.items():
                after_term = after_block.outputs.get(path)
                if after_term is None:
                    continue
                pairs.append((before_term, after_term))
            # State-aware equivalence: the final register/counter state is
            # as observable as the packet outputs (it feeds the next packet).
            # Cell paths survive lowering (counters keep their bank name),
            # and both snapshots share the initial-state input symbols, so
            # this quantifies over every reachable and unreachable state.
            for path, before_term in before_block.state_outputs.items():
                after_term = after_block.state_outputs.get(path)
                if after_term is None:
                    continue
                pairs.append((before_term, after_term))
        return pairs

    def _compare(
        self,
        before: PassSnapshot,
        after: PassSnapshot,
        before_semantics: Dict[str, BlockSemantics],
        after_semantics: Dict[str, BlockSemantics],
    ) -> List[PassDivergence]:
        divergences: List[PassDivergence] = []
        for block_name, before_block in before_semantics.items():
            after_block = after_semantics.get(block_name)
            if after_block is None:
                continue
            compared = list(before_block.outputs.items()) + list(
                before_block.state_outputs.items()
            )
            for path, before_term in compared:
                after_term = after_block.outputs.get(
                    path, after_block.state_outputs.get(path)
                )
                if after_term is None:
                    continue
                witness = smt.find_divergence(before_term, after_term)
                if witness is None:
                    continue
                divergences.append(
                    PassDivergence(
                        pass_name=after.pass_name,
                        block=block_name,
                        output_path=path,
                        witness=dict(witness.items()),
                        before_source=before.source,
                        after_source=after.source,
                        before_pass=before.pass_name,
                    )
                )
                if self.stop_at_first_divergence:
                    return divergences
        return divergences
