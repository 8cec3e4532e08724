"""Staged campaign engine: parallel, resumable, deterministic bug-finding.

The engine decomposes a campaign into independent work units, one per
generated program, runs each through explicit stages (``generate →
compile → oracles`` on every platform the unit names) on a pluggable
executor (serial, or a ``multiprocessing`` pool sharding programs across
cores), persists every ``(program_index, platform)`` outcome to a JSONL
artifact store for crash-safe resume, and merges results
deterministically so serial and parallel runs file byte-identical bug
reports.

With ``reduce=True`` a **triage stage** runs after the merge: every
deduplicated report becomes one :class:`TriageUnit` that shrinks the
trigger program with the delta-debugging reducer
(:mod:`repro.core.reduce`) under an oracle-faithful predicate and
localizes the defect to a compiler pass (pair), riding the same executor
and artifact store as the generation units.

Three interchangeable transports sit behind one seam
(``run_units(units, kind, sink, journal)``): :class:`SerialExecutor`,
:class:`ProcessPoolExecutor`, and :class:`DistributedExecutor` — a
campaign coordinator leasing contiguous program ranges to a fleet of worker
processes over line-JSON TCP (:mod:`repro.core.engine.protocol`), with
heartbeat-based lease reclaim, streamed outcome shards, and incremental
merge.  All three file byte-identical reports.

See :mod:`repro.core.engine.engine` for orchestration,
:mod:`repro.core.engine.stages` for the worker-side pipeline,
:mod:`repro.core.engine.coordinator` / :mod:`repro.core.engine.worker`
for the distributed service, and ``src/repro/core/README.md`` for the
architecture overview.
"""

from repro.core.engine.engine import (
    CampaignEngine,
    CampaignSpec,
    DetectionRecord,
)
from repro.core.engine.executor import (
    ProcessPoolExecutor,
    SerialExecutor,
    make_executor,
)
from repro.core.engine.store import OutcomeDedup
from repro.core.engine.merge import (
    CampaignStatistics,
    OutcomeMerger,
    TriageSource,
    apply_triage,
)
from repro.core.engine.stages import run_triage_unit, run_unit
from repro.core.engine.store import ArtifactStore, campaign_key, triage_key
from repro.core.engine.units import (
    TRIAGE_REDUCED,
    TRIAGE_UNREPRODUCED,
    FindingRecord,
    ProgramOutcome,
    TriageOutcome,
    TriageUnit,
    UnitOutcome,
    WorkUnit,
    build_units,
)
from repro.core.lazy import lazy_exports

# The distributed service loads only in campaigns that run a fleet.
__getattr__ = lazy_exports(
    globals(),
    {
        "CoordinatorService": "repro.core.engine.coordinator",
        "DistributedExecutor": "repro.core.engine.distributed",
        "run_worker": "repro.core.engine.worker",
    },
)

__all__ = [
    "ArtifactStore",
    "CampaignEngine",
    "CampaignSpec",
    "CampaignStatistics",
    "CoordinatorService",
    "DetectionRecord",
    "DistributedExecutor",
    "FindingRecord",
    "OutcomeDedup",
    "OutcomeMerger",
    "ProcessPoolExecutor",
    "ProgramOutcome",
    "SerialExecutor",
    "TRIAGE_REDUCED",
    "TRIAGE_UNREPRODUCED",
    "TriageOutcome",
    "TriageSource",
    "TriageUnit",
    "UnitOutcome",
    "WorkUnit",
    "apply_triage",
    "build_units",
    "campaign_key",
    "make_executor",
    "run_triage_unit",
    "run_unit",
    "run_worker",
    "triage_key",
]
