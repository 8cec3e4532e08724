"""Work units and their outcomes — the engine's wire format.

A campaign is decomposed into independent work units, one per generated
program: a unit checks its program on every platform it names, so the
program is generated, compiled, validated and turned into §6 test
sequences once for all of them.  Each unit is *picklable* (it crosses a
process boundary on the way to a pool worker) and JSON-serialisable (a
distributed lease ships it to a remote worker).  It returns a
:class:`ProgramOutcome` holding one :class:`UnitOutcome` per
``(program_index, platform)``; those per-platform outcomes are what the
JSONL artifact store records, so an interrupted campaign resumes without
recomputing finished platforms.

The outcome deliberately carries raw, attribution-free data: which oracle
fired, the finding's signature/pass/witness, and the emitted source that
triggered it.  Mapping findings onto deduplicated :class:`BugReport`
records (which needs the campaign-wide set of enabled seeded defects) is
the *merge* step's job, in the parent process, so that the result is
independent of worker scheduling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.generator import GeneratorConfig

#: Deterministic platform ordering used when merging unit outcomes: the
#: serial loop tested p4c first, then the back ends (in the order they
#: joined the registry), and the merge step sorts by ``(program_index,
#: platform rank)`` to reproduce that order regardless of worker
#: completion order.  A new back end appends its name here and registers
#: its classes in :data:`repro.targets.BACKEND_REGISTRY` — see the
#: backend-author contract in ``src/repro/targets/README.md``.
PLATFORM_ORDER: Tuple[str, ...] = ("p4c", "bmv2", "tofino", "ebpf")

#: Unit statuses.
STATUS_CLEAN = "clean"
STATUS_REJECTED = "rejected"
STATUS_ORACLE_ERROR = "oracle_error"
STATUS_FINDING = "finding"

#: Finding kinds (mirrors :class:`repro.core.bugs.BugKind` values).
FINDING_CRASH = "crash"
FINDING_SEMANTIC = "semantic"
FINDING_INVALID = "invalid_transformation"

#: Triage outcome statuses.
TRIAGE_REDUCED = "reduced"
TRIAGE_UNREPRODUCED = "unreproduced"

#: Unit kinds: every executor stage (local or distributed) schedules one
#: homogeneous batch of either generation units (:class:`WorkUnit` →
#: :class:`ProgramOutcome`) or triage units (:class:`TriageUnit` →
#: :class:`TriageOutcome`).  The kind travels with a distributed lease so
#: a worker knows which runner to dispatch.
KIND_WORK = "work"
KIND_TRIAGE = "triage"

#: Default lease of a distributed campaign, in work units and seconds.  A
#: work unit is a whole program (every platform of it), so the default
#: lease is one program.  The TTL must exceed the worst single-unit wall
#: time (a divergent program can cost 100x the median): heartbeats renew a
#: lease between units and while the reducer runs, but a worker stuck
#: inside one oracle call for longer than the TTL loses the lease.  They
#: live here, not in the coordinator, so a campaign spec can name them
#: without loading the fleet.
DEFAULT_LEASE_UNITS = 1
DEFAULT_LEASE_TTL_S = 120.0


def unit_key(kind: str, unit) -> object:
    """The dedup identity of a unit (work: program index; triage: id)."""

    return unit.key if kind == KIND_WORK else unit.identifier


def outcome_key(kind: str, outcome) -> object:
    """The dedup identity of an outcome, matching :func:`unit_key`."""

    return outcome.key if kind == KIND_WORK else outcome.identifier


def unit_to_dict(kind: str, unit) -> Dict[str, object]:
    """JSON wire form of a unit (leases ship units to remote workers)."""

    return unit.to_dict()


def unit_from_dict(kind: str, payload: Dict[str, object]):
    cls = WorkUnit if kind == KIND_WORK else TriageUnit
    return cls.from_dict(payload)


def outcome_from_dict(kind: str, payload: Dict[str, object]):
    cls = ProgramOutcome if kind == KIND_WORK else TriageOutcome
    return cls.from_dict(payload)


def platform_rank(platform: str) -> int:
    """Sort key for deterministic merges; unknown platforms sort last."""

    try:
        return PLATFORM_ORDER.index(platform)
    except ValueError:
        return len(PLATFORM_ORDER)


@dataclass(frozen=True)
class WorkUnit:
    """One shard of a campaign: check one generated program on its platforms.

    The unit carries everything a worker needs to *regenerate* the program
    (the generator config embeds the campaign seed; the program itself is
    derived from ``(seed, program_index)`` via
    :func:`repro.core.generator.derive_child_seed`) rather than the program
    AST itself: regeneration is cheap, deterministic, and keeps the pickled
    payload tiny.  ``platforms`` is in merge order and, on a resumed
    campaign, names only the platforms the store is still missing.
    """

    program_index: int
    platforms: Tuple[str, ...]
    generator: GeneratorConfig
    enabled_bugs: Tuple[str, ...] = ()
    max_tests: int = 4
    #: Packet count of the §6 test sequences replayed against stateful
    #: programs (stateless programs always collapse to length 1).  Part of
    #: the wire form: a distributed worker must replay exactly what the
    #: serial run would.
    sequence_length: int = 3

    @property
    def key(self) -> int:
        return self.program_index

    def to_dict(self) -> Dict[str, object]:
        return {
            "program_index": self.program_index,
            "platforms": list(self.platforms),
            "generator": asdict(self.generator),
            "enabled_bugs": list(self.enabled_bugs),
            "max_tests": self.max_tests,
            "sequence_length": self.sequence_length,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "WorkUnit":
        return cls(
            program_index=payload["program_index"],
            platforms=tuple(payload["platforms"]),
            generator=GeneratorConfig(**payload["generator"]),
            enabled_bugs=tuple(payload.get("enabled_bugs", ())),
            max_tests=payload.get("max_tests", 4),
            sequence_length=payload.get("sequence_length", 1),
        )


@dataclass
class FindingRecord:
    """One raw oracle finding, before attribution and deduplication."""

    kind: str  # FINDING_CRASH | FINDING_SEMANTIC | FINDING_INVALID
    platform: str
    pass_name: str
    description: str
    #: Crash signature (crash findings only) — the dedup key of §4.
    signature: str = ""
    #: Witness input assignment (semantic findings only).
    witness: Dict[str, object] = field(default_factory=dict)
    #: Last agreeing snapshot before the divergence (semantic p4c findings
    #: only) — ``(before_pass, pass_name)`` is the diverging pass pair.
    before_pass: str = ""
    #: Backend semantic findings only: the enabled seeded defects that each
    #: *individually* reproduce this packet mismatch (computed by the
    #: worker's per-defect bisection over the trigger).  Empty means the
    #: bisection was inconclusive — no single defect reproduces — and the
    #: merge falls back to platform-level attribution.
    attributed_bugs: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        payload["attributed_bugs"] = list(self.attributed_bugs)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FindingRecord":
        return cls(
            kind=payload["kind"],
            platform=payload["platform"],
            pass_name=payload["pass_name"],
            description=payload["description"],
            signature=payload.get("signature", ""),
            witness=dict(payload.get("witness", {})),
            before_pass=payload.get("before_pass", ""),
            attributed_bugs=tuple(payload.get("attributed_bugs", ())),
        )


@dataclass
class UnitOutcome:
    """Everything one work unit produced, in JSON-serialisable form."""

    program_index: int
    platform: str
    status: str
    findings: List[FindingRecord] = field(default_factory=list)
    #: Emitted source of the generated program (the bug trigger).
    source: str = ""
    #: Deltas of worker-process observability counters (solver STATS,
    #: replay tallies, swallowed coverage errors) over this platform's
    #: share of the program's check; summed by the merge step so the
    #: campaign totals stay truthful under parallelism.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Pipeline coverage cells this unit's program lit up (pass-fired bits,
    #: rewrite-rule hits, term shapes, program features).  Unlike
    #: ``counters`` this is a pure function of (generator, index, bugs) —
    #: never of process state — so store-resumed outcomes replay it and
    #: merged campaign coverage is identical at any job count.
    coverage: Dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def key(self) -> Tuple[int, str]:
        return (self.program_index, self.platform)

    def sort_key(self) -> Tuple[int, int]:
        return (self.program_index, platform_rank(self.platform))

    def to_dict(self) -> Dict[str, object]:
        return {
            "program_index": self.program_index,
            "platform": self.platform,
            "status": self.status,
            "findings": [finding.to_dict() for finding in self.findings],
            "source": self.source,
            "counters": dict(self.counters),
            "coverage": dict(self.coverage),
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "UnitOutcome":
        return cls(
            program_index=payload["program_index"],
            platform=payload["platform"],
            status=payload["status"],
            findings=[
                FindingRecord.from_dict(entry) for entry in payload.get("findings", ())
            ],
            source=payload.get("source", ""),
            counters=dict(payload.get("counters", {})),
            coverage=dict(payload.get("coverage", {})),
            elapsed_s=payload.get("elapsed_s", 0.0),
        )


@dataclass
class ProgramOutcome:
    """What one work unit produced: one :class:`UnitOutcome` per platform.

    Only the transports see this wrapper; the engine unpacks it before the
    merge and the artifact store, which both stay per ``(program, platform)``.
    """

    program_index: int
    outcomes: List[UnitOutcome] = field(default_factory=list)

    @property
    def key(self) -> int:
        return self.program_index

    def to_dict(self) -> Dict[str, object]:
        return {
            "program_index": self.program_index,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ProgramOutcome":
        return cls(
            program_index=payload["program_index"],
            outcomes=[UnitOutcome.from_dict(entry) for entry in payload["outcomes"]],
        )


@dataclass(frozen=True)
class TriageUnit:
    """One shard of the triage stage: reduce + localize one filed report.

    The unit carries the deduplicated report's identity, its winning
    trigger *source* (parsing it back is deterministic and keeps the unit
    self-contained — a stored artifact line is enough to rebuild one, see
    ``examples/reduce_bug.py``) and everything the oracle predicate needs
    to re-run the original detection: platform, raw finding, enabled
    defects and the packet-test budget.
    """

    identifier: str
    platform: str
    source: str
    finding: FindingRecord
    enabled_bugs: Tuple[str, ...] = ()
    max_tests: int = 4
    reduce_rounds: int = 8
    #: Sequence length the detecting campaign replayed (the triage oracle
    #: must chase the bug with the same packet budget).
    sequence_length: int = 3

    @property
    def key(self) -> str:
        return self.identifier

    def to_dict(self) -> Dict[str, object]:
        return {
            "identifier": self.identifier,
            "platform": self.platform,
            "source": self.source,
            "finding": self.finding.to_dict(),
            "enabled_bugs": list(self.enabled_bugs),
            "max_tests": self.max_tests,
            "reduce_rounds": self.reduce_rounds,
            "sequence_length": self.sequence_length,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TriageUnit":
        return cls(
            identifier=payload["identifier"],
            platform=payload["platform"],
            source=payload["source"],
            finding=FindingRecord.from_dict(payload["finding"]),
            enabled_bugs=tuple(payload.get("enabled_bugs", ())),
            max_tests=payload.get("max_tests", 4),
            reduce_rounds=payload.get("reduce_rounds", 8),
            sequence_length=payload.get("sequence_length", 1),
        )


@dataclass
class TriageOutcome:
    """Everything one triage unit produced, in JSON-serialisable form."""

    identifier: str
    status: str  # TRIAGE_REDUCED | TRIAGE_UNREPRODUCED
    reduced_source: str = ""
    original_size: int = 0
    reduced_size: int = 0
    rounds: int = 0
    attempts: int = 0
    localized_pass: str = ""
    pass_pair: Optional[Tuple[str, str]] = None
    elapsed_s: float = 0.0
    #: Per-transformation-class effort (oracle calls / kept edits /
    #: statements removed), from :class:`~repro.core.reduce.reducer.ReductionResult`.
    transform_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Smallest packet-sequence length that still reproduces the bug on the
    #: reduced trigger (backend packet findings on stateful programs only;
    #: ``0`` means not applicable — a single-packet oracle).  Survives the
    #: store round-trip so a resumed campaign reports the same minimal
    #: replay vector the original triage computed.
    min_sequence_length: int = 0
    #: Exceptions the triage swallowed rather than failing the unit: a
    #: reduction that raised (the unit then reads as unreproduced), a
    #: failed localization (the finding's own pass is kept) and failed
    #: sequence-length probes (the campaign length is kept).
    errors: int = 0

    @property
    def reduction_ratio(self) -> float:
        if self.original_size <= 0:
            return 0.0
        return 1.0 - (self.reduced_size / self.original_size)

    def to_dict(self) -> Dict[str, object]:
        return {
            "identifier": self.identifier,
            "status": self.status,
            "reduced_source": self.reduced_source,
            "original_size": self.original_size,
            "reduced_size": self.reduced_size,
            "rounds": self.rounds,
            "attempts": self.attempts,
            "localized_pass": self.localized_pass,
            "pass_pair": list(self.pass_pair) if self.pass_pair else None,
            "elapsed_s": self.elapsed_s,
            "transform_stats": {
                name: dict(entry) for name, entry in self.transform_stats.items()
            },
            "min_sequence_length": self.min_sequence_length,
            "errors": self.errors,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TriageOutcome":
        pair = payload.get("pass_pair")
        return cls(
            identifier=payload["identifier"],
            status=payload["status"],
            reduced_source=payload.get("reduced_source", ""),
            original_size=payload.get("original_size", 0),
            reduced_size=payload.get("reduced_size", 0),
            rounds=payload.get("rounds", 0),
            attempts=payload.get("attempts", 0),
            localized_pass=payload.get("localized_pass", ""),
            pass_pair=(pair[0], pair[1]) if pair else None,
            elapsed_s=payload.get("elapsed_s", 0.0),
            transform_stats={
                name: dict(entry)
                for name, entry in payload.get("transform_stats", {}).items()
            },
            min_sequence_length=payload.get("min_sequence_length", 0),
            errors=payload.get("errors", 0),
        )


def build_units(
    programs: int,
    platforms: Tuple[str, ...],
    generator: GeneratorConfig,
    enabled_bugs: Tuple[str, ...],
    max_tests: int,
    sequence_length: int = 3,
    start: int = 0,
) -> List[WorkUnit]:
    """One unit per program ``start .. start + programs - 1``, in order.

    Unknown platforms are rejected here, in the parent, before any work is
    scheduled: a worker raising mid-campaign would abort the pool with a
    half-written artifact store.
    """

    unknown = [platform for platform in platforms if platform not in PLATFORM_ORDER]
    if unknown:
        raise ValueError(
            f"unknown platform(s) {unknown!r}; supported: {list(PLATFORM_ORDER)}"
        )
    ordered_platforms = tuple(sorted(platforms, key=platform_rank))
    return [
        WorkUnit(
            program_index=index,
            platforms=ordered_platforms,
            generator=generator,
            enabled_bugs=tuple(enabled_bugs),
            max_tests=max_tests,
            sequence_length=sequence_length,
        )
        for index in range(start, start + programs)
    ]
