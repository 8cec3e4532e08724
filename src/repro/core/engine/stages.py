"""Worker-side pipeline stages: generate → compile → oracles, per program.

Every function in this module runs *inside the worker process* (which may
be the parent, under the serial executor).  A work unit is one program:
:func:`run_unit` generates and emits it once, compiles each distinct
front/mid-end defect set once (p4c's, and the back ends' clean chain —
backend defects never reach the prefix), validates and interprets each of
those compilations once, builds the §6 test sequences once, and links and
packet-tests every back end from those locals.  Nothing is shared between
programs: :func:`run_unit` and :func:`run_triage_unit` begin by clearing
the term state of :mod:`repro.smt` (the intern table and the simplify and
equivalence memos keyed by it), so a worker's memory is bounded by one
program and a unit's work does not depend on which process it lands in
or what ran there before.  The only thing that crosses back to the parent
is the JSON-serialisable :class:`~repro.core.engine.units.ProgramOutcome`.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro import smt
from repro.compiler import CompilationResult, CompilerOptions, compile_front_midend
from repro.compiler.coverage import program_features, shape_cell
from repro.compiler.errors import CompilerCrash, CompilerError
from repro.core.crash import classify_compilation, crash_from_exception
from repro.core.generator import RandomProgramGenerator
from repro.core.testgen import (
    TestSequence,
    build_test_sequences,
    probe_stats,
    program_has_state,
)
from repro.core.validation import (
    TranslationValidator,
    ValidationOutcome,
    ValidationReport,
    term_shape_histogram,
)
from repro.p4 import ast, emit_program, parse_program
from repro.targets import BACKEND_REGISTRY

from repro.core.engine.units import (
    FINDING_CRASH,
    FINDING_INVALID,
    FINDING_SEMANTIC,
    STATUS_CLEAN,
    STATUS_FINDING,
    STATUS_ORACLE_ERROR,
    STATUS_REJECTED,
    TRIAGE_REDUCED,
    TRIAGE_UNREPRODUCED,
    FindingRecord,
    ProgramOutcome,
    TriageOutcome,
    TriageUnit,
    UnitOutcome,
    WorkUnit,
)
from repro.core.reduce.oracles import (
    backend_bug_set,
    build_predicate,
    p4c_bug_set,
    packet_mismatch,
    replay_stats,
)

#: The prefix-defect set of every back end: backend defects only fire in
#: the targets' own lowering, so the back ends share one clean prefix.
_CLEAN_PREFIX: FrozenSet[str] = frozenset()


def _crash_finding(crash, platform: str) -> FindingRecord:
    return FindingRecord(
        kind=FINDING_CRASH,
        platform=platform,
        pass_name=crash.pass_name,
        description=crash.message,
        signature=crash.signature,
    )


def _validation_finding(
    report: ValidationReport, platform: str
) -> Optional[FindingRecord]:
    """The finding a translation-validation verdict files, if any."""

    if report.outcome == ValidationOutcome.INVALID_TRANSFORMATION:
        return FindingRecord(
            kind=FINDING_INVALID,
            platform=platform,
            pass_name=report.invalid_pass or "ToP4",
            description=report.detail,
        )
    if report.outcome == ValidationOutcome.SEMANTIC_BUG:
        divergence = report.divergences[0]
        return FindingRecord(
            kind=FINDING_SEMANTIC,
            platform=platform,
            pass_name=divergence.pass_name,
            description=(
                f"pass {divergence.pass_name} changed {divergence.output_path} "
                f"in block {divergence.block}"
            ),
            witness=dict(divergence.witness),
            before_pass=divergence.before_pass,
        )
    return None


class _ProgramCheck:
    """One program's check: the locals its platforms share.

    Every shared result is computed on first use, so the platform that
    first needs a compilation, a validation verdict or the test sequences
    pays for it in its own ``elapsed_s`` and counter deltas, and the later
    platforms reuse it.
    """

    def __init__(self, unit: WorkUnit) -> None:
        self.unit = unit
        #: One validator per program: it interprets each snapshot source
        #: once across both prefix compilations.
        self.validator = TranslationValidator()
        self._compiled: Dict[FrozenSet[str], CompilationResult] = {}
        self._validated: Dict[FrozenSet[str], ValidationReport] = {}
        #: platform -> enabled defects bisection could not link alone.
        self.bisect_link_failures: Counter = Counter()

    @cached_property
    def program(self) -> ast.Program:
        generator = RandomProgramGenerator(self.unit.generator)
        return generator.generate_indexed(self.unit.program_index)

    @cached_property
    def source(self) -> str:
        return emit_program(self.program)

    @cached_property
    def sequences(self) -> Optional[List[TestSequence]]:
        return build_test_sequences(
            self.program, self.unit.max_tests, self.unit.sequence_length
        )

    def compiled(self, prefix_bugs: FrozenSet[str]) -> CompilationResult:
        """The front/mid-end compilation under one prefix-defect set.

        The result is shared by every consumer and only ever read.
        """

        result = self._compiled.get(prefix_bugs)
        if result is None:
            options = CompilerOptions(enabled_bugs=set(prefix_bugs))
            result = compile_front_midend(self.program.clone(), options)
            self._compiled[prefix_bugs] = result
        return result

    def validated(self, prefix_bugs: FrozenSet[str]) -> ValidationReport:
        report = self._validated.get(prefix_bugs)
        if report is None:
            report = self.validator.validate_compilation(self.compiled(prefix_bugs))
            self._validated[prefix_bugs] = report
        return report

    def prefix_bugs(self, platform: str) -> FrozenSet[str]:
        if platform == "p4c":
            return frozenset(p4c_bug_set(self.unit.enabled_bugs))
        return _CLEAN_PREFIX

    # -- per-platform oracles ---------------------------------------------------

    def check(self, platform: str) -> Tuple[str, List[FindingRecord]]:
        """Status and findings of one platform."""

        if platform == "p4c":
            return self._check_p4c()
        if platform in BACKEND_REGISTRY:
            return self._check_backend(platform)
        raise ValueError(f"unknown platform {platform!r}")

    def _check_p4c(self) -> Tuple[str, List[FindingRecord]]:
        """Open toolchain: crash detection + translation validation."""

        prefix_bugs = self.prefix_bugs("p4c")
        result = self.compiled(prefix_bugs)
        if result.rejected:
            return STATUS_REJECTED, []
        crash = classify_compilation(result, platform="p4c")
        if crash is not None:
            return STATUS_FINDING, [_crash_finding(crash, "p4c")]
        report = self.validated(prefix_bugs)
        if report.outcome == ValidationOutcome.ORACLE_ERROR:
            return STATUS_ORACLE_ERROR, []
        finding = _validation_finding(report, "p4c")
        if finding is not None:
            return STATUS_FINDING, [finding]
        return STATUS_CLEAN, []

    def _check_backend(self, platform: str) -> Tuple[str, List[FindingRecord]]:
        """Closed back end: crash detection + symbolic packet tests.

        The back end links the shared clean prefix with its own defects
        enabled.  That prefix is validated too (once for all back ends):
        it is the only way a latent mid-end defect on the back ends'
        chain gets reported rather than silently lowered.  A validator
        limitation (``ORACLE_ERROR``) never blocks the §6 packet tests.
        """

        spec = BACKEND_REGISTRY[platform]
        platform_bugs = backend_bug_set(self.unit.enabled_bugs, platform)
        target = spec.target_cls(CompilerOptions(enabled_bugs=platform_bugs, target=platform))
        try:
            executable = target.link(self.compiled(_CLEAN_PREFIX))
        except CompilerCrash as crash_exc:
            return STATUS_FINDING, [
                _crash_finding(crash_from_exception(crash_exc, platform), platform)
            ]
        except CompilerError:
            return STATUS_REJECTED, []
        finding = _validation_finding(self.validated(_CLEAN_PREFIX), platform)
        if finding is not None:
            return STATUS_FINDING, [finding]
        mismatch = packet_mismatch(self.program, self.sequences, executable, spec)
        if mismatch is not None:
            return STATUS_FINDING, [
                FindingRecord(
                    kind=FINDING_SEMANTIC,
                    platform=platform,
                    pass_name="backend",
                    description=mismatch,
                    attributed_bugs=self._bisect(platform, platform_bugs),
                )
            ]
        return STATUS_CLEAN, []

    def _bisect(self, platform: str, platform_bugs) -> Tuple[str, ...]:
        """Attribute a packet mismatch to individual enabled backend defects.

        Links the shared clean prefix with each same-platform enabled
        defect alone and replays the program's test sequences: a defect is
        implicated iff it reproduces the mismatch by itself, so each
        singleton costs one backend lowering plus the packet replay.

        Returns the implicated defects in sorted order, or ``()`` when no
        singleton reproduces (an interaction-only mismatch, or an unseeded
        backend bug): the merge then falls back to the legacy
        platform-level attribution rather than inventing a culprit.
        """

        if len(platform_bugs) <= 1:
            # The mismatch already *is* the singleton run (or there is
            # nothing to attribute): no relinking can add information.
            return tuple(sorted(platform_bugs))
        spec = BACKEND_REGISTRY[platform]
        attributed = []
        for bug_id in sorted(platform_bugs):
            target = spec.target_cls(CompilerOptions(enabled_bugs={bug_id}, target=platform))
            try:
                executable = target.link(self.compiled(_CLEAN_PREFIX))
            except (CompilerCrash, CompilerError):
                # The lone defect breaks compilation: not this mismatch, but
                # a defect bisection could not test, so it is counted.
                self.bisect_link_failures[platform] += 1
                continue
            if packet_mismatch(self.program, self.sequences, executable, spec):
                attributed.append(bug_id)
        return tuple(attributed)

    # -- coverage ---------------------------------------------------------------

    def coverage(self, platform: str) -> Tuple[Dict[str, int], int]:
        """Coverage cells the platform's prefix lit up, and swallowed errors.

        A pure function of the unit: program features, the pass/rule cells
        of the platform's prefix compilation and the term-shape histogram
        of its final snapshot.  Coverage is feedback, never an oracle: a
        failure degrades to fewer cells and is counted, it never fails a
        unit.
        """

        errors = 0
        try:
            coverage = program_features(self.program)
            result = self.compiled(self.prefix_bugs(platform))
            coverage.update(result.coverage.to_dict())
            if result.succeeded and result.snapshots:
                try:
                    semantics = self.validator.interpret(result.snapshots[-1])
                except Exception:  # noqa: BLE001 - coverage must never fail a unit
                    errors += 1
                else:
                    histogram = term_shape_histogram(semantics)
                    coverage.update(
                        {shape_cell(op): count for op, count in histogram.items()}
                    )
            return coverage.to_dict(), errors
        except Exception:  # noqa: BLE001 - coverage must never fail a unit
            return {}, errors + 1


# ----------------------------------------------------------------------
# The worker entry point
# ----------------------------------------------------------------------

def _counters_snapshot() -> Dict[str, int]:
    counters = {f"solver_{key}": value for key, value in smt.STATS.snapshot().items()}
    counters.update(replay_stats())
    counters.update(probe_stats())
    return counters


def run_unit(unit: WorkUnit) -> ProgramOutcome:
    """Check one program on each of its platforms and report the outcomes.

    This is the function handed to the process pool; it must stay
    module-level (picklable by reference) and must never raise — an oracle
    failure is an outcome, not an exception.  Each platform's outcome
    carries the time and counter deltas of its own share of the check.
    The unit starts from empty term tables, so it computes the same
    outcome whichever units its process ran before.
    """

    smt.clear_term_caches()
    check = _ProgramCheck(unit)
    outcomes = []
    for platform in unit.platforms:
        before = _counters_snapshot()
        start = time.perf_counter()
        status, findings = check.check(platform)
        coverage, coverage_errors = check.coverage(platform)
        source = check.source
        elapsed = time.perf_counter() - start
        after = _counters_snapshot()
        counters = {key: after[key] - before.get(key, 0) for key in after}
        counters["coverage_errors"] = coverage_errors
        counters["bisect_link_failures"] = check.bisect_link_failures[platform]
        outcomes.append(
            UnitOutcome(
                program_index=unit.program_index,
                platform=platform,
                status=status,
                findings=findings,
                source=source,
                counters=counters,
                coverage=coverage,
                elapsed_s=elapsed,
            )
        )
    return ProgramOutcome(program_index=unit.program_index, outcomes=outcomes)


# ----------------------------------------------------------------------
# The triage stage (reduce + localize), one unit per deduplicated report
# ----------------------------------------------------------------------

def run_triage_unit(unit: TriageUnit) -> TriageOutcome:
    """Reduce one filed report's trigger program and localize its defect.

    Runs worker-side on the same executor as generation units (module-level
    and picklable by reference, never raises).  The whole computation is a
    deterministic function of the unit — the trigger source is parsed back
    to an AST, the oracle predicate is rebuilt from the original finding,
    and the reducer enumerates edits in program order — so ``jobs=1`` and
    ``jobs=8`` triage byte-identically.  Like :func:`run_unit`, it starts
    from empty term tables.
    """

    # The reducer and the localizer load only in processes that triage.
    from repro.core.reduce.localize import localize_finding
    from repro.core.reduce.reducer import reduce_program

    smt.clear_term_caches()
    start = time.perf_counter()
    try:
        program = parse_program(unit.source)
        predicate = build_predicate(
            unit.finding,
            unit.platform,
            unit.enabled_bugs,
            unit.max_tests,
            unit.sequence_length,
        )
        result = reduce_program(program, predicate, max_rounds=unit.reduce_rounds)
        if not result.reproduced:
            return TriageOutcome(
                identifier=unit.identifier,
                status=TRIAGE_UNREPRODUCED,
                original_size=result.original_size,
                reduced_size=result.reduced_size,
                attempts=result.attempts,
                elapsed_s=time.perf_counter() - start,
            )
    except Exception:  # noqa: BLE001 - triage failure is an outcome
        return TriageOutcome(
            identifier=unit.identifier,
            status=TRIAGE_UNREPRODUCED,
            localized_pass=unit.finding.pass_name,
            elapsed_s=time.perf_counter() - start,
            errors=1,
        )
    errors = 0
    try:
        localized, pair = localize_finding(
            unit.finding, result.program, unit.platform, unit.enabled_bugs
        )
    except Exception:  # noqa: BLE001 - a failed bisect must not drop the reduction
        localized, pair = unit.finding.pass_name, None
        errors += 1
    min_sequence_length, minimize_errors = _minimize_sequence_length(
        unit, result.program
    )
    return TriageOutcome(
        identifier=unit.identifier,
        status=TRIAGE_REDUCED,
        reduced_source=result.source,
        original_size=result.original_size,
        reduced_size=result.reduced_size,
        rounds=result.rounds,
        attempts=result.attempts,
        localized_pass=localized,
        pass_pair=pair,
        elapsed_s=time.perf_counter() - start,
        transform_stats=result.transform_stats,
        min_sequence_length=min_sequence_length,
        errors=errors + minimize_errors,
    )


def _minimize_sequence_length(unit: TriageUnit, reduced: ast.Program) -> Tuple[int, int]:
    """Shrink the replay vector: fewest packets that still show the bug.

    Returns the length and the number of swallowed probe failures.
    Backend packet findings on stateful programs only — every other oracle
    is single-packet by construction (length ``0``, "not applicable").
    The probe rebuilds the packet predicate at each shorter length and
    replays the *reduced* trigger; lengths are tried smallest-first so the
    first success is the minimum.  A probe failure is counted and keeps the
    campaign length — minimization is best-effort polish, never a
    correctness gate.
    """

    if unit.platform == "p4c" or unit.finding.kind != FINDING_SEMANTIC:
        return 0, 0
    if unit.sequence_length <= 1 or not program_has_state(reduced):
        return 0, 0
    for length in range(1, unit.sequence_length):
        try:
            shorter = build_predicate(
                unit.finding, unit.platform, unit.enabled_bugs, unit.max_tests, length
            )
            if shorter(reduced):
                return length, 0
        except Exception:  # noqa: BLE001 - best-effort minimization
            return unit.sequence_length, 1
    return unit.sequence_length, 0
