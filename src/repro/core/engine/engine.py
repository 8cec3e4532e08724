"""The staged campaign engine: schedule units, persist outcomes, merge.

This is the orchestration layer between the campaign facade
(:mod:`repro.core.campaign`) and the worker stages
(:mod:`repro.core.engine.stages`):

1. expand the campaign spec into the deterministic unit list (one unit
   per program, naming every platform),
2. serve already-completed ``(program, platform)`` outcomes from the JSONL
   artifact store (resume) and drop them from their program's unit,
3. shard the remaining programs over the chosen executor,
4. append every fresh per-platform outcome to the store as its program
   completes, and
5. merge all outcomes — reused and fresh — into deduplicated bug reports
   and statistics, independent of completion order.

The per-defect detection matrix rides the same machinery: each seeded
defect becomes a sequence of single-defect units with an early exit on
the first detection, sharded *across defects* when ``jobs > 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.compiler.bugs import BUG_CATALOG, LOCATION_BACKEND, SeededBug
from repro.core.generator import GeneratorConfig
from repro.core.testgen import DEFAULT_SEQUENCE_LENGTH
from repro.core.engine.executor import make_executor
from repro.core.engine.merge import (
    CampaignStatistics,
    OutcomeMerger,
    TriageSource,
    apply_triage,
)
from repro.core.engine.store import ArtifactStore, campaign_key, triage_key
from repro.core.engine.stages import run_unit
from repro.core.engine.units import (
    FINDING_CRASH,
    FindingRecord,
    KIND_TRIAGE,
    STATUS_FINDING,
    TRIAGE_REDUCED,
    ProgramOutcome,
    TriageOutcome,
    TriageUnit,
    UnitOutcome,
    DEFAULT_LEASE_TTL_S,
    DEFAULT_LEASE_UNITS,
    WorkUnit,
    build_units,
)

if TYPE_CHECKING:
    from repro.core.schedule import KnobArm

# The fleet (coordinator, distributed, protocol) and the knob scheduler
# are imported where a campaign uses them: a plain jobs=1 or pool
# campaign never loads them.


@dataclass(frozen=True)
class CampaignSpec:
    """Engine-level description of one campaign (picklable, no live state)."""

    programs: int
    generator: GeneratorConfig
    enabled_bugs: Tuple[str, ...] = ()
    platforms: Tuple[str, ...] = ("p4c", "bmv2", "tofino")
    max_tests: int = 4
    #: Packet count of the §6 test sequences (stateless programs collapse
    #: to single-packet tests, so this only costs solver time where a
    #: register/counter makes later packets observable).
    sequence_length: int = DEFAULT_SEQUENCE_LENGTH
    jobs: int = 1
    artifact_path: Optional[str] = None
    #: Run the triage stage after merge: one reduction + localization per
    #: deduplicated report, sharded over the same executor.
    reduce: bool = False
    reduce_rounds: int = 8
    #: ``distributed > 0`` runs the campaign on a coordinator/worker fleet
    #: of that many locally spawned workers (TCP transport, leased unit
    #: ranges) instead of the fork pool.  Overrides ``jobs``.
    distributed: int = 0
    #: ``serve`` binds the coordinator on ``host:port`` and spawns *no*
    #: workers: externally started ``--worker`` processes drain the
    #: campaign.  Overrides both ``jobs`` and ``distributed``.
    serve: Optional[str] = None
    #: Lease geometry for the distributed transports (ignored otherwise):
    #: programs per lease, and how long a silent lease lives before the
    #: coordinator reclaims and re-issues its unfinished range.
    lease_units: int = DEFAULT_LEASE_UNITS
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S
    #: Drive program generation through the coverage-feedback bandit
    #: scheduler (:mod:`repro.core.schedule`) instead of a single static
    #: knob vector.  The program budget is split into ``schedule_rounds``
    #: rounds; each round's knob arm is chosen from the coverage the
    #: earlier rounds produced.  Off by default: the seed-0 corpus stays
    #: byte-identical unless a campaign opts in.
    schedule: bool = False
    schedule_rounds: int = 4


@dataclass
class DetectionRecord:
    """Whether one seeded defect was detected, and how."""

    bug: SeededBug
    detected: bool
    technique: str = ""
    programs_tried: int = 0
    #: Knob-vector provenance: which scheduler arm generated the detecting
    #: programs ("static" when the static steering table was used).
    knob_arm: str = "static"
    #: Calibration programs of that arm whose compilation raised (their
    #: profile counts only program features); 0 without calibration.
    profile_errors: int = 0


@dataclass(frozen=True)
class _MatrixTask:
    """One defect's share of the detection matrix (shipped to a worker)."""

    bug_id: str
    programs_per_bug: int
    generator: GeneratorConfig
    max_tests: int
    artifact_path: Optional[str] = None
    sequence_length: int = DEFAULT_SEQUENCE_LENGTH
    #: Scheduler-chosen knob arm; empty name means "use static steering".
    arm_name: str = ""
    arm_overrides: Tuple[Tuple[str, object], ...] = ()


def _steer_generator(generator: GeneratorConfig, bug: SeededBug) -> GeneratorConfig:
    """Steer the generator towards ``bug``'s trigger features.

    The per-defect detection matrix biases the generator's probabilities
    towards the language constructs a defect needs (paper §4.2), using the
    ``MATRIX_STEERING`` table of :mod:`repro.core.schedule`.  An override
    is applied only while the campaign generator leaves the corresponding
    knob at its dataclass default, so explicitly-configured generators are
    never second-guessed.
    """

    from repro.core.schedule import MATRIX_STEERING

    overrides: Dict[str, object] = {}
    for feature in bug.trigger_features:
        overrides.update(MATRIX_STEERING.get(feature, {}))
    defaults = GeneratorConfig.__dataclass_fields__
    applicable = {
        key: value
        for key, value in overrides.items()
        if getattr(generator, key) == defaults[key].default
    }
    return replace(generator, **applicable) if applicable else generator


def _technique(outcome: UnitOutcome) -> str:
    """Map a detecting unit outcome onto the paper's technique names."""

    if any(finding.kind == FINDING_CRASH for finding in outcome.findings):
        return "crash"
    if outcome.platform == "p4c":
        return "translation_validation"
    return "symbolic_execution"


def _detect_bug(task: _MatrixTask) -> Dict[str, object]:
    """Try to detect one seeded defect; module-level so pools can pickle it.

    Programs are tried in index order with an early exit on the first
    detection — identical logic under every executor, so the matrix result
    does not depend on scheduling.  Completed units are read from the
    artifact store (read-only here; the parent is the sole writer) and
    fresh outcomes are returned for the parent to persist.
    """

    bug = BUG_CATALOG[task.bug_id]
    platform = "p4c" if bug.location != LOCATION_BACKEND else bug.platform
    if task.arm_name:
        from repro.core.schedule import KnobArm

        generator = KnobArm(task.arm_name, task.arm_overrides).apply(task.generator)
    else:
        generator = _steer_generator(task.generator, bug)
    key = campaign_key(
        generator,
        (task.bug_id,),
        (platform,),
        task.max_tests,
        scope="matrix",
        sequence_length=task.sequence_length,
    )
    completed: Dict[Tuple[int, str], UnitOutcome] = {}
    if task.artifact_path:
        completed = ArtifactStore(task.artifact_path).load(key)
    fresh: List[UnitOutcome] = []
    detected = False
    technique = ""
    attempts = 0
    for index in range(task.programs_per_bug):
        outcome = completed.get((index, platform))
        if outcome is None:
            unit = WorkUnit(
                program_index=index,
                platforms=(platform,),
                generator=generator,
                enabled_bugs=(task.bug_id,),
                max_tests=task.max_tests,
                sequence_length=task.sequence_length,
            )
            (outcome,) = run_unit(unit).outcomes
            fresh.append(outcome)
        attempts = index + 1
        if outcome.status == STATUS_FINDING:
            detected = True
            technique = _technique(outcome)
            break
    return {
        "bug_id": task.bug_id,
        "detected": detected,
        "technique": technique,
        "attempts": attempts,
        "store_key": key,
        "fresh": [outcome.to_dict() for outcome in fresh],
        "reused": len(completed),
        "knob_arm": task.arm_name or "static",
    }


class CampaignEngine:
    """Run campaigns and detection matrices over an executor.

    The executor is chosen from the spec (``serve`` → serve-only
    coordinator, ``distributed`` → local worker fleet, else ``jobs`` →
    serial / fork pool); tests can inject a pre-configured executor —
    typically a :class:`DistributedExecutor` with fault injection — via
    the ``executor`` override.
    """

    def __init__(self, spec: CampaignSpec, executor=None) -> None:
        self.spec = spec
        self.store = ArtifactStore(spec.artifact_path) if spec.artifact_path else None
        self._executor = executor

    def _make_executor(self):
        if self._executor is not None:
            return self._executor
        spec = self.spec
        if not spec.serve and spec.distributed <= 0:
            return make_executor(spec.jobs)
        from repro.core.engine.distributed import DistributedExecutor

        if spec.serve:
            from repro.core.engine.protocol import parse_address

            host, port = parse_address(spec.serve)
            return DistributedExecutor(
                0,
                host=host,
                port=port,
                lease_units=spec.lease_units,
                lease_ttl_s=spec.lease_ttl_s,
            )
        return DistributedExecutor(
            spec.distributed,
            lease_units=spec.lease_units,
            lease_ttl_s=spec.lease_ttl_s,
        )

    # ------------------------------------------------------------------
    # Full campaign
    # ------------------------------------------------------------------

    def run(self) -> CampaignStatistics:
        spec = self.spec
        statistics = CampaignStatistics(programs_generated=spec.programs)
        merger = OutcomeMerger(spec.enabled_bugs)
        executor = self._make_executor()
        if spec.schedule:
            arm_by_index = self._run_scheduled(executor, merger, statistics)
        else:
            self._run_round(
                executor, spec.generator, 0, spec.programs, "campaign", merger, statistics
            )
        self._fold_service_counters(executor, statistics)
        statistics = merger.finalize(statistics)
        if spec.schedule:
            self._annotate_arm_provenance(statistics, merger.provenance, arm_by_index)
        if spec.reduce:
            self._run_triage(executor, merger.provenance, statistics)
        return statistics

    def _run_round(
        self,
        executor,
        generator: GeneratorConfig,
        start: int,
        count: int,
        scope: str,
        merger: OutcomeMerger,
        statistics: CampaignStatistics,
    ) -> List[UnitOutcome]:
        """Check programs ``start .. start + count - 1``; return their outcomes.

        Outcomes already in the store under the round's key are merged
        without their counters (``CampaignStatistics.counters`` reports work
        performed by *this* run) and each program is scheduled for its
        missing platforms only.  The transport persists every fresh
        program's per-platform outcomes (sink) before the engine merges
        them; under the distributed executor the sink runs on the
        coordinator's service threads while the merge stays here, on the
        consuming thread.
        """

        spec = self.spec
        units = build_units(
            count,
            tuple(spec.platforms),
            generator,
            tuple(spec.enabled_bugs),
            spec.max_tests,
            sequence_length=spec.sequence_length,
            start=start,
        )
        key = campaign_key(
            generator,
            spec.enabled_bugs,
            spec.platforms,
            spec.max_tests,
            scope=scope,
            sequence_length=spec.sequence_length,
        )
        stored: Dict[Tuple[int, str], UnitOutcome] = {}
        if self.store is not None:
            stored = self.store.load(key)
        outcomes: List[UnitOutcome] = []
        pending: List[WorkUnit] = []
        for unit in units:
            missing = []
            for platform in unit.platforms:
                outcome = stored.get((unit.program_index, platform))
                if outcome is None:
                    missing.append(platform)
                else:
                    outcomes.append(outcome)
            if missing:
                pending.append(replace(unit, platforms=tuple(missing)))
            statistics.units_total += len(unit.platforms)
        statistics.units_reused += len(outcomes)
        for outcome in outcomes:
            merger.add(replace(outcome, counters={}), statistics)

        sink = None
        journal = None
        if self.store is not None:

            def sink(program: ProgramOutcome) -> None:
                for outcome in program.outcomes:
                    self.store.append(key, outcome)

            journal = lambda event: self.store.append_lease_event(key, event)  # noqa: E731
        for program in executor.run_units(pending, sink=sink, journal=journal):
            for outcome in program.outcomes:
                merger.add(outcome, statistics)
                outcomes.append(outcome)
        return outcomes

    # ------------------------------------------------------------------
    # Scheduled campaign: coverage-feedback knob arms, round by round
    # ------------------------------------------------------------------

    def _run_scheduled(
        self, executor, merger: OutcomeMerger, statistics: CampaignStatistics
    ) -> Dict[int, KnobArm]:
        """Coverage-feedback campaign: the bandit picks knob arms per round.

        The program budget is split into ``schedule_rounds`` contiguous
        index ranges.  Each round draws an arm from the bandit (seeded via
        ``derive_child_seed`` on the campaign seed, so the arm sequence is
        identical under every executor), generates its slice with that
        arm's knob vector, and feeds the round's merged coverage back as
        the bandit reward.  Rounds are persisted under a ``scheduled``
        store scope keyed by the steered generator; because
        ``UnitOutcome.coverage`` is a pure function of the unit, resumed
        rounds reward the bandit exactly like fresh ones and the arm
        sequence survives kill/resume unchanged.  Returns the arm that
        generated each program index.
        """

        from repro.core.schedule import BanditScheduler

        spec = self.spec
        scheduler = BanditScheduler(seed=spec.generator.seed)
        rounds = min(max(1, spec.schedule_rounds), spec.programs) if spec.programs else 0
        arm_by_index: Dict[int, KnobArm] = {}
        base, extra = divmod(spec.programs, rounds) if rounds else (0, 0)
        start = 0
        for round_index in range(rounds):
            count = base + (1 if round_index < extra else 0)
            if count == 0:
                continue
            arm = scheduler.next_arm()
            for index in range(start, start + count):
                arm_by_index[index] = arm
            round_outcomes = self._run_round(
                executor, arm.apply(spec.generator), start, count, "scheduled",
                merger, statistics,
            )
            start += count
            round_coverage: Dict[str, int] = {}
            for outcome in round_outcomes:
                for cell, value in outcome.coverage.items():
                    round_coverage[cell] = round_coverage.get(cell, 0) + value
            scheduler.update(arm, round_coverage)
        return arm_by_index

    @staticmethod
    def _annotate_arm_provenance(
        statistics: CampaignStatistics,
        provenance: Dict[str, TriageSource],
        arm_by_index: Dict[int, KnobArm],
    ) -> None:
        """Stamp each filed report with the knob arm that generated it.

        Provenance keys the *winning* (lowest unit key) finding of each
        report, which is executor-invariant, so the stamped arm is too.
        """

        for identifier, source in provenance.items():
            arm = arm_by_index.get(source.program_index)
            report = statistics.tracker.get(identifier)
            if arm is None or report is None:
                continue
            report.knob_arm = arm.name
            report.knob_overrides = arm.overrides_dict()

    @staticmethod
    def _fold_service_counters(executor, statistics: CampaignStatistics) -> None:
        """Accumulate the distributed transport's QoS counters, if any."""

        for key, value in getattr(executor, "service_counters", {}).items():
            statistics.counters[key] = statistics.counters.get(key, 0) + value

    # ------------------------------------------------------------------
    # Triage stage: reduce + localize each deduplicated report
    # ------------------------------------------------------------------

    def _run_triage(
        self,
        executor,
        provenance: Dict[str, TriageSource],
        statistics: CampaignStatistics,
    ) -> None:
        """Shard one reduction per filed report across the executor.

        Rides the same transport seam as generation units (triage units
        serialize, so a distributed fleet leases them too): fresh outcomes
        are streamed into the artifact store as they complete (a killed
        campaign resumes mid-triage without redoing finished reductions)
        and the merge onto the tracker is sorted, so the triaged reports
        are identical under every executor.
        """

        spec = self.spec
        units = [
            TriageUnit(
                identifier=source.identifier,
                platform=source.platform,
                source=source.source,
                finding=self._narrow_finding(source),
                enabled_bugs=tuple(spec.enabled_bugs),
                max_tests=spec.max_tests,
                reduce_rounds=spec.reduce_rounds,
                sequence_length=spec.sequence_length,
            )
            for _, source in sorted(provenance.items())
        ]
        statistics.triage_total = len(units)
        if not units:
            return
        key = triage_key(
            spec.generator,
            spec.enabled_bugs,
            spec.platforms,
            spec.max_tests,
            spec.reduce_rounds,
            sequence_length=spec.sequence_length,
        )
        completed: Dict[str, TriageOutcome] = {}
        if self.store is not None:
            stored = self.store.load_triage(key)
            completed = {
                unit.identifier: stored[unit.identifier]
                for unit in units
                if unit.identifier in stored
            }
        statistics.triage_reused = len(completed)
        pending = [unit for unit in units if unit.identifier not in completed]
        results: List[TriageOutcome] = list(completed.values())
        sink = None
        journal = None
        if self.store is not None:
            # Only successful reductions are persisted: an unreproduced
            # outcome may be environment-dependent (worker under memory /
            # recursion pressure), and storing it would pin the report as
            # unreduced on every resume.  Retrying costs one predicate call.
            def sink(outcome):
                if outcome.status == TRIAGE_REDUCED:
                    self.store.append_triage(key, outcome)

            journal = lambda event: self.store.append_lease_event(key, event)  # noqa: E731
        for outcome in executor.run_units(
            pending, kind=KIND_TRIAGE, sink=sink, journal=journal
        ):
            results.append(outcome)
        self._fold_service_counters(executor, statistics)
        apply_triage(statistics, results)

    def _narrow_finding(self, source: TriageSource) -> "FindingRecord":
        """Pin a bisected finding's triage to the defect this report names.

        When the worker attributed a packet mismatch to several independent
        defects, one report was filed per defect but they share the winning
        finding; the reduction for each report must chase *its* defect, not
        whichever of the set survives shrinking.
        """

        finding = source.finding
        if len(finding.attributed_bugs) <= 1:
            return finding
        _, _, bug_id = source.identifier.partition(":")
        if bug_id in finding.attributed_bugs:
            return replace(finding, attributed_bugs=(bug_id,))
        return finding

    # ------------------------------------------------------------------
    # Per-defect detection matrix
    # ------------------------------------------------------------------

    def run_detection_matrix(
        self,
        bug_ids: Optional[Sequence[str]] = None,
        programs_per_bug: int = 20,
        schedule: bool = False,
        programs_per_arm: int = 12,
    ) -> List[DetectionRecord]:
        """For each seeded defect, check whether Gauntlet detects it.

        With ``schedule=True`` the matrix first runs a compile-only
        calibration pass (:func:`repro.core.schedule.train_profiles`) and
        steers each defect with the profile-chosen knob arm; the choice is
        margin-guarded, falling back to the static steering table whenever
        the profiles do not show a clearly better arm.
        """

        spec = self.spec
        targets = list(bug_ids) if bug_ids is not None else list(BUG_CATALOG)
        arms: Dict[str, Optional[KnobArm]] = {bug_id: None for bug_id in targets}
        profile_errors: Dict[str, int] = {}
        if schedule:
            from repro.core.schedule import choose_arm_for_defect, train_profiles

            profiles = train_profiles(spec.generator, programs_per_arm=programs_per_arm)
            arms = {
                bug_id: choose_arm_for_defect(BUG_CATALOG[bug_id], profiles)
                for bug_id in targets
            }
            profile_errors = {
                bug_id: profiles[arm.name].errors
                for bug_id, arm in arms.items()
                if arm is not None
            }
        tasks = [
            _MatrixTask(
                bug_id=bug_id,
                programs_per_bug=programs_per_bug,
                generator=spec.generator,
                max_tests=spec.max_tests,
                artifact_path=spec.artifact_path,
                sequence_length=spec.sequence_length,
                arm_name=arms[bug_id].name if arms[bug_id] else "",
                arm_overrides=arms[bug_id].overrides if arms[bug_id] else (),
            )
            for bug_id in targets
        ]
        executor = make_executor(spec.jobs)
        results: Dict[str, Dict[str, object]] = {}
        for result in executor.map_unordered(_detect_bug, tasks):
            results[result["bug_id"]] = result
            if self.store is not None:
                for payload in result["fresh"]:
                    self.store.append(
                        result["store_key"], UnitOutcome.from_dict(payload)
                    )
        return [
            DetectionRecord(
                bug=BUG_CATALOG[bug_id],
                detected=results[bug_id]["detected"],
                technique=results[bug_id]["technique"],
                programs_tried=results[bug_id]["attempts"],
                knob_arm=str(results[bug_id]["knob_arm"]),
                profile_errors=profile_errors.get(bug_id, 0),
            )
            for bug_id in targets
        ]
