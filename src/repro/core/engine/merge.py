"""Deterministic merge of unit outcomes into campaign-level results.

Workers return raw findings; this module turns them into deduplicated
:class:`~repro.core.bugs.BugReport` records and aggregate statistics.  Two
properties make the merge scheduler-independent:

* reports are filed per-identifier by the *minimal* ``(program_index,
  platform rank, finding index)`` origin, so the deduplication picks the
  same representative trigger program no matter which worker finished
  first (equivalent to sorting all outcomes up front, but computable
  incrementally as shards stream in), and
* attribution (mapping a finding onto an enabled seeded defect) uses only
  the finding record and the campaign-wide enabled set — no worker state.
  Workers that bisected a semantic finding down to individual defects ship
  the result in ``FindingRecord.attributed_bugs``; the merge then files one
  report per attributed defect instead of guessing a single platform-level
  culprit.

The merger is *incremental*: ``add()`` folds one outcome at a time (scalar
tallies are order-independent sums; report candidates keep a running
per-identifier winner) and ``finalize()`` files the winners in their
canonical order.  The distributed coordinator calls ``add()`` as shards
stream in; ``merge()`` keeps the one-shot convenience API on top of the
same two steps, so ``jobs=1``, a local pool, and a worker fleet produce
byte-identical reports.

Per-worker observability counters (solver STATS, replay tallies, swallowed
coverage errors) are summed into :attr:`CampaignStatistics.counters` so campaign
benchmarks stay truthful when the work is sharded across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.compiler.bugs import (
    BUG_CATALOG,
    KIND_CRASH,
    LOCATION_BACKEND,
    LOCATION_FRONTEND,
    LOCATION_MIDEND,
    SeededBug,
)
from repro.core.bugs import BugKind, BugLocation, BugReport, BugStatus, BugTracker
from repro.core.engine.units import (
    FINDING_CRASH,
    FINDING_INVALID,
    STATUS_ORACLE_ERROR,
    STATUS_REJECTED,
    TRIAGE_REDUCED,
    FindingRecord,
    TriageOutcome,
    UnitOutcome,
)

_LOCATION_MAP = {
    LOCATION_FRONTEND: BugLocation.FRONT_END,
    LOCATION_MIDEND: BugLocation.MID_END,
    LOCATION_BACKEND: BugLocation.BACK_END,
}

#: Pass name -> location, used to localise findings that are not attributed
#: to a seeded defect.
_PASS_LOCATIONS = {
    "TypeChecking": BugLocation.FRONT_END,
    "SimplifyDefUse": BugLocation.FRONT_END,
    "InlineFunctions": BugLocation.FRONT_END,
    "RemoveActionParameters": BugLocation.FRONT_END,
    "ParserGraphs": BugLocation.FRONT_END,
    "TypeCheckingPost": BugLocation.MID_END,
    "CheckNoFunctionCalls": BugLocation.MID_END,
    "HeaderStackFlattening": BugLocation.MID_END,
    "StatefulLowering": BugLocation.MID_END,
    "ConstantFolding": BugLocation.MID_END,
    "StrengthReduction": BugLocation.MID_END,
    "Predication": BugLocation.MID_END,
    "LocalCopyPropagation": BugLocation.MID_END,
    "DeadCodeElimination": BugLocation.MID_END,
    "SimplifyControlFlow": BugLocation.MID_END,
}

_KIND_MAP = {
    FINDING_CRASH: BugKind.CRASH,
    FINDING_INVALID: BugKind.INVALID_TRANSFORMATION,
}

#: Coverage cells land in :attr:`CampaignStatistics.counters` under this
#: prefix, so they ride the exact same merge/serialisation path as the
#: solver and cache counters while staying separable on the way out
#: (:meth:`CampaignStatistics.coverage`).
COVERAGE_COUNTER_PREFIX = "cov_"


@dataclass
class TriageSource:
    """Where a deduplicated report came from — the input of its triage unit.

    Recorded by the merger for the *winning* (first filed) finding of each
    identifier; since outcomes are sorted before filing, the provenance —
    and therefore the whole triage stage — is scheduler-independent.
    """

    identifier: str
    program_index: int
    platform: str
    source: str
    finding: FindingRecord


@dataclass
class CampaignStatistics:
    """Aggregate results of one campaign run."""

    programs_generated: int = 0
    programs_rejected: int = 0
    oracle_errors: int = 0
    crash_findings: int = 0
    semantic_findings: int = 0
    tracker: BugTracker = field(default_factory=BugTracker)
    #: Summed worker observability deltas (``solver_*`` STATS, replay
    #: tallies, ``coverage_errors``, ``bisect_link_failures``).  Totals
    #: count the work actually performed, so store-resumed outcomes add
    #: nothing; every unit starts from empty term tables, so they do not
    #: depend on the executor.  ``triage_errors`` (:func:`apply_triage`)
    #: is the one total that also counts store-resumed triage outcomes.
    counters: Dict[str, int] = field(default_factory=dict)
    #: How many work units the campaign comprised, and how many were
    #: served from the artifact store instead of being recomputed.
    units_total: int = 0
    units_reused: int = 0
    #: Triage stage bookkeeping (``reduce=True`` campaigns): one reduction
    #: per deduplicated report, and how many came out of the store.
    triage_total: int = 0
    triage_reused: int = 0

    def coverage(self) -> Dict[str, int]:
        """Merged pipeline-coverage cells, without the ``cov_`` prefix.

        Unlike the raw worker counters, coverage is a pure function of the
        unit set — reused (store-resumed) outcomes contribute theirs too —
        so this aggregate is identical at any job count and across resumes.
        """

        return {
            key[len(COVERAGE_COUNTER_PREFIX):]: value
            for key, value in self.counters.items()
            if key.startswith(COVERAGE_COUNTER_PREFIX)
        }

    def summary_table(self) -> Dict:
        return self.tracker.summary_table()

    def location_table(self) -> Dict:
        return self.tracker.location_table()

    def mean_reduction_ratio(self) -> float:
        """Mean statement-count reduction over the triaged reports."""

        ratios = [
            report.reduction_ratio
            for report in self.tracker.reports
            if report.reduced_source
        ]
        if not ratios:
            return 0.0
        return sum(ratios) / len(ratios)


class OutcomeMerger:
    """Fold unit outcomes (streamed in any order) into deduplicated reports."""

    def __init__(self, enabled_bugs: Iterable[str]) -> None:
        self.enabled = set(enabled_bugs)
        #: identifier -> winning finding's origin, for the triage stage.
        self.provenance: Dict[str, TriageSource] = {}
        #: identifier -> (origin order, report, provenance).  The origin
        #: order is ``(outcome.sort_key(), finding index, report index)``;
        #: keeping the minimum per identifier is exactly what filing
        #: globally-sorted outcomes into a first-report-wins tracker did,
        #: but works one outcome at a time.
        self._winners: Dict[str, Tuple[Tuple, BugReport, TriageSource]] = {}

    # -- entry points ----------------------------------------------------------

    def merge(
        self, outcomes: Iterable[UnitOutcome], statistics: CampaignStatistics
    ) -> CampaignStatistics:
        """One-shot convenience wrapper over ``add`` + ``finalize``."""

        for outcome in outcomes:
            self.add(outcome, statistics)
        return self.finalize(statistics)

    def add(self, outcome: UnitOutcome, statistics: CampaignStatistics) -> None:
        """Fold one outcome; safe to call in any (e.g. streaming) order.

        Must be called exactly once per unit — the caller's dedup
        (:class:`~repro.core.engine.store.OutcomeDedup`) guarantees that
        for at-least-once transports.
        """

        if outcome.status == STATUS_REJECTED:
            statistics.programs_rejected += 1
        elif outcome.status == STATUS_ORACLE_ERROR:
            statistics.oracle_errors += 1
        for finding_index, finding in enumerate(outcome.findings):
            if finding.kind == FINDING_CRASH:
                statistics.crash_findings += 1
            else:
                statistics.semantic_findings += 1
            for report_index, report in enumerate(
                self._to_reports(finding, outcome.source)
            ):
                order = (outcome.sort_key(), finding_index, report_index)
                current = self._winners.get(report.identifier)
                if current is not None and current[0] <= order:
                    continue
                self._winners[report.identifier] = (
                    order,
                    report,
                    TriageSource(
                        identifier=report.identifier,
                        program_index=outcome.program_index,
                        platform=outcome.platform,
                        source=outcome.source,
                        finding=finding,
                    ),
                )
        for key, value in outcome.counters.items():
            statistics.counters[key] = statistics.counters.get(key, 0) + value
        for cell, value in outcome.coverage.items():
            key = COVERAGE_COUNTER_PREFIX + cell
            statistics.counters[key] = statistics.counters.get(key, 0) + value

    def finalize(self, statistics: CampaignStatistics) -> CampaignStatistics:
        """File the per-identifier winners in canonical origin order."""

        for order, report, source in sorted(
            self._winners.values(), key=lambda entry: entry[0]
        ):
            if statistics.tracker.file(report):
                self.provenance[report.identifier] = source
        self._winners.clear()
        return statistics

    # -- attribution -----------------------------------------------------------

    def _attribute(self, finding: FindingRecord) -> Optional[SeededBug]:
        """Best-effort attribution of a finding to an enabled seeded defect."""

        # Sorted for determinism: the legacy loop iterated a set, so the
        # platform-fallback attribution below depended on hash order.
        candidates = [BUG_CATALOG[bug_id] for bug_id in sorted(self.enabled)]
        expected_kind = KIND_CRASH if finding.kind == FINDING_CRASH else "semantic"
        for bug in candidates:
            if bug.pass_name == finding.pass_name and bug.kind == expected_kind:
                return bug
        for bug in candidates:
            if bug.platform == finding.platform and bug.kind == expected_kind:
                return bug
        return None

    def _to_reports(self, finding: FindingRecord, source: str) -> List[BugReport]:
        """All reports one finding files — usually one, more when bisected.

        A backend semantic finding whose worker bisected the enabled defect
        set (``attributed_bugs``) files one report per implicated defect:
        a packet mismatch caused by two independent seeded defects is two
        bugs, and collapsing them to a single platform-level guess is
        exactly the attribution error the bisection exists to remove.
        """

        if finding.attributed_bugs and finding.kind not in _KIND_MAP:
            reports = []
            for bug_id in finding.attributed_bugs:
                bug = BUG_CATALOG.get(bug_id)
                if bug is None:
                    continue
                reports.append(
                    BugReport(
                        identifier=f"{finding.platform}:{bug_id}",
                        kind=BugKind.SEMANTIC,
                        platform=finding.platform,
                        location=_LOCATION_MAP[bug.location],
                        pass_name=finding.pass_name,
                        description=finding.description,
                        status=BugStatus.CONFIRMED,
                        trigger_source=source,
                        witness=dict(finding.witness),
                        seeded_bug_id=bug_id,
                    )
                )
            if reports:
                return reports
        return [self._to_report(finding, source)]

    def _to_report(self, finding: FindingRecord, source: str) -> BugReport:
        seeded = self._attribute(finding)
        kind = _KIND_MAP.get(finding.kind, BugKind.SEMANTIC)
        if seeded is not None:
            identifier = f"{finding.platform}:{seeded.bug_id}"
            location = _LOCATION_MAP[seeded.location]
        elif finding.kind == FINDING_CRASH:
            identifier = f"{finding.platform}:{finding.signature}"
            location = _PASS_LOCATIONS.get(finding.pass_name, BugLocation.BACK_END)
        else:
            identifier = f"{finding.platform}:{kind.value}:{finding.pass_name}"
            location = _PASS_LOCATIONS.get(finding.pass_name, BugLocation.BACK_END)
        return BugReport(
            identifier=identifier,
            kind=kind,
            platform=finding.platform,
            location=location,
            pass_name=finding.pass_name,
            description=finding.description,
            status=BugStatus.CONFIRMED,
            trigger_source=source,
            witness=dict(finding.witness),
            seeded_bug_id=seeded.bug_id if seeded else None,
        )


def apply_triage(
    statistics: CampaignStatistics, outcomes: Iterable[TriageOutcome]
) -> None:
    """Fold triage outcomes onto the filed reports, scheduler-independent.

    Outcomes are sorted by report identifier before application (one
    outcome per identifier, so the sort fully determines the result) and
    each one decorates its report in place.  An unreproduced reduction
    leaves the report exactly as the merge filed it — the original trigger
    is still correct, just not minimized.

    The exceptions each triage swallowed are summed into
    ``counters["triage_errors"]``.  Unlike the worker counters, store-resumed
    outcomes count too: their errors shaped the reports they decorate.
    """

    outcomes = sorted(outcomes, key=lambda entry: entry.identifier)
    statistics.counters["triage_errors"] = statistics.counters.get(
        "triage_errors", 0
    ) + sum(outcome.errors for outcome in outcomes)
    for outcome in outcomes:
        report = statistics.tracker.get(outcome.identifier)
        if report is None or outcome.status != TRIAGE_REDUCED:
            continue
        report.reduced_source = outcome.reduced_source
        report.reduction_ratio = round(outcome.reduction_ratio, 4)
        report.reduction_rounds = outcome.rounds
        report.localized_pass = outcome.localized_pass
        report.pass_pair = outcome.pass_pair
        if outcome.min_sequence_length > 0:
            report.sequence_length = outcome.min_sequence_length
