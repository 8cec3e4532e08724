"""Oracle-faithful predicates: is the *original* bug still present?

A reduction is only useful if the shrunken program still triggers the bug
the finding recorded — not merely *a* bug.  Each builder here closes over
the identity the campaign's oracles assigned to the finding:

* crash bugs       — the crash **signature** must match (the paper's §4
  dedup key), on the same platform, with the same enabled defects;
* invalid passes   — the same pass must emit a non-reparsing program;
* semantic bugs    — translation validation must report its first
  divergence in the **same defective pass**;
* black-box bugs   — the symbolic packet tests (regenerated for the
  candidate) must still produce a mismatch on the same back end.

Predicates never raise: any infrastructure failure while checking a
candidate reads as "the bug is gone", so the reducer keeps the statement
and moves on.  Compilation always works on a clone — the reducer owns the
working tree and keeps mutating it between calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Set

from repro.compiler import CompilerOptions, compile_front_midend
from repro.compiler.bugs import BUG_CATALOG, LOCATION_BACKEND
from repro.compiler.errors import CompilerCrash, CompilerError
from repro.core.crash import crash_from_exception
from repro.core.testgen import (
    DEFAULT_SEQUENCE_LENGTH,
    TestSequence,
    build_test_sequences,
)
from repro.core.validation import TranslationValidator, ValidationOutcome
from repro.p4 import ast
from repro.targets import BACKEND_REGISTRY

from repro.core.engine.units import (
    FINDING_CRASH,
    FINDING_INVALID,
    FindingRecord,
)

if TYPE_CHECKING:
    from repro.core.reduce.reducer import Predicate

#: Monotone replay tallies (merged across workers like the solver stats):
#: how many §6 sequences and individual packets the campaign actually
#: drove through back-end executables.  ``sequences/sec`` in ``make
#: bench-stateful`` is derived from these.
_REPLAY_STATS = {"sequences_replayed": 0, "packets_replayed": 0}


def replay_stats() -> dict:
    """Snapshot of the process-wide sequence-replay counters."""

    return dict(_REPLAY_STATS)


def p4c_bug_set(enabled_bugs: Iterable[str]) -> Set[str]:
    """The open-toolchain share of the campaign's enabled defects."""

    return {
        bug_id
        for bug_id in enabled_bugs
        if BUG_CATALOG[bug_id].location != LOCATION_BACKEND
    }


def backend_bug_set(enabled_bugs: Iterable[str], platform: str) -> Set[str]:
    """The enabled defects living in one closed back end."""

    return {
        bug_id
        for bug_id in enabled_bugs
        if BUG_CATALOG[bug_id].platform == platform
    }


def packet_mismatch(
    program: ast.Program,
    sequences: Optional[List[TestSequence]],
    executable,
    spec,
) -> Optional[str]:
    """Replay the symbolic test sequences against a compiled executable.

    ``sequences`` are :func:`~repro.core.testgen.build_test_sequences` of
    ``program`` (``None`` when the oracle could not produce tests).
    Returns a human-readable mismatch description, or ``None`` when every
    test passes (or there are no tests).  This is the §6 oracle shared by
    the campaign's backend stage, the per-defect bisection and the triage
    predicates — every consumer replays the *full* sequence: state is reset
    once per sequence, the packets run in order against the live switch
    state, and after the last packet the final ``$state.*`` cells are
    compared too.
    """

    if sequences is None:
        return None
    runner = spec.runner_cls(executable)
    for sequence in sequences:
        _REPLAY_STATS["sequences_replayed"] += 1
        reset = getattr(executable, "reset_state", None)
        if reset is not None:
            reset()
        for generated in sequence.packets:
            _REPLAY_STATS["packets_replayed"] += 1
            packet = generated.build_packet(program)
            test = spec.test_cls(
                name=generated.name,
                input_packet=packet,
                expected=generated.expected,
                entries=sequence.entries,
                ignore_paths=generated.ignore_paths,
            )
            result = runner.run_test(test)
            if not result.passed:
                detail = result.error or str(result.mismatches)
                return f"packet test {generated.name} failed: {detail}"
        if sequence.expected_state:
            state_of = getattr(executable, "switch_state", None)
            if state_of is None:
                continue  # backend claims no stateful support; nothing to diff
            observed = state_of().observable()
            for path, expected_value in sorted(sequence.expected_state.items()):
                if observed.get(path) != expected_value:
                    return (
                        f"sequence {sequence.name}: final state diverged at "
                        f"{path}: expected {expected_value}, observed "
                        f"{observed.get(path)}"
                    )
    return None


# ----------------------------------------------------------------------
# Predicate builders
# ----------------------------------------------------------------------

def _p4c_crash_predicate(signature: str, enabled_bugs: Iterable[str]) -> Predicate:
    bugs = p4c_bug_set(enabled_bugs)

    def still_fails(candidate: ast.Program) -> bool:
        options = CompilerOptions(enabled_bugs=set(bugs))
        result = compile_front_midend(candidate.clone(), options)
        return result.crashed and result.crash.signature == signature

    return still_fails


def _backend_crash_predicate(
    platform: str, signature: str, enabled_bugs: Iterable[str]
) -> Predicate:
    spec = BACKEND_REGISTRY[platform]
    bugs = backend_bug_set(enabled_bugs, platform)

    def still_fails(candidate: ast.Program) -> bool:
        options = CompilerOptions(enabled_bugs=set(bugs), target=platform)
        try:
            result = compile_front_midend(candidate.clone(), options)
            spec.target_cls(options).link(result)
        except CompilerCrash as crash_exc:
            return crash_from_exception(crash_exc, platform).signature == signature
        except CompilerError:
            return False
        return False

    return still_fails


def _invalid_predicate(pass_name: str, enabled_bugs: Iterable[str]) -> Predicate:
    bugs = p4c_bug_set(enabled_bugs)

    def still_fails(candidate: ast.Program) -> bool:
        options = CompilerOptions(enabled_bugs=set(bugs))
        result = compile_front_midend(candidate.clone(), options)
        if not result.succeeded:
            return False
        report = TranslationValidator().validate_compilation(result)
        return (
            report.outcome == ValidationOutcome.INVALID_TRANSFORMATION
            and report.invalid_pass == pass_name
        )

    return still_fails


def _divergence_predicate(pass_name: str, enabled_bugs: Iterable[str]) -> Predicate:
    bugs = p4c_bug_set(enabled_bugs)

    def still_fails(candidate: ast.Program) -> bool:
        options = CompilerOptions(enabled_bugs=set(bugs))
        result = compile_front_midend(candidate.clone(), options)
        if not result.succeeded:
            return False
        report = TranslationValidator().validate_compilation(result)
        if report.outcome != ValidationOutcome.SEMANTIC_BUG or not report.divergences:
            return False
        # The *defective pass* is the bug's identity; the before-pass of
        # the snapshot pair may legitimately shift as earlier passes stop
        # changing the shrinking program.
        return report.divergences[0].pass_name == pass_name

    return still_fails


def _packet_predicate(
    platform: str,
    enabled_bugs: Iterable[str],
    max_tests: int,
    attributed_bugs: Iterable[str] = (),
    sequence_length: int = DEFAULT_SEQUENCE_LENGTH,
) -> Predicate:
    spec = BACKEND_REGISTRY[platform]
    bugs = backend_bug_set(enabled_bugs, platform)
    # When the finding was bisected down to individual defects, reduce
    # against exactly those: a candidate that only still trips some *other*
    # same-platform defect is a different bug, and accepting it would walk
    # the reduction away from the report being triaged.
    attributed = backend_bug_set(attributed_bugs, platform)
    if attributed:
        bugs = attributed

    def still_fails(candidate: ast.Program) -> bool:
        options = CompilerOptions(enabled_bugs=set(bugs), target=platform)
        try:
            result = compile_front_midend(candidate.clone(), options)
            executable = spec.target_cls(options).link(result)
        except (CompilerCrash, CompilerError):
            return False
        sequences = build_test_sequences(candidate, max_tests, sequence_length)
        return packet_mismatch(candidate, sequences, executable, spec) is not None

    return still_fails


def build_predicate(
    finding: FindingRecord,
    platform: str,
    enabled_bugs: Iterable[str],
    max_tests: int = 4,
    sequence_length: int = DEFAULT_SEQUENCE_LENGTH,
) -> Predicate:
    """The ``still_fails`` predicate matching one finding's original oracle."""

    if finding.kind == FINDING_CRASH:
        if platform == "p4c":
            return _p4c_crash_predicate(finding.signature, enabled_bugs)
        return _backend_crash_predicate(platform, finding.signature, enabled_bugs)
    if finding.kind == FINDING_INVALID:
        return _invalid_predicate(finding.pass_name, enabled_bugs)
    if platform == "p4c":
        return _divergence_predicate(finding.pass_name, enabled_bugs)
    return _packet_predicate(
        platform, enabled_bugs, max_tests, finding.attributed_bugs, sequence_length
    )
