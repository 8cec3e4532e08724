"""Bug-finding campaign orchestration (paper §7 methodology).

Two modes are provided:

* :meth:`Campaign.run` -- the "weekly batch" workflow: generate N random
  programs, compile them for each platform with a given set of seeded
  defects enabled, and collect deduplicated bug reports using all three
  techniques (crash detection, translation validation, symbolic-execution
  packet tests).
* :meth:`Campaign.run_detection_matrix` -- the reproduction-oriented view:
  for every seeded defect, run a small campaign with only that defect
  enabled and record whether Gauntlet detects it and with which technique.
  The Table 2/3 benchmarks are built from this matrix.

Since the staged-engine refactor this module is a thin facade: the actual
pipeline lives in :mod:`repro.core.engine`, which decomposes the campaign
into one work unit per generated program (checked once, on every
platform), shards the programs across worker processes when
``CampaignConfig.jobs > 1``, persists every ``(program_index, platform)``
outcome to a JSONL artifact store when ``CampaignConfig.artifact_path`` is
set (so an interrupted campaign resumes where it stopped), and merges
results deterministically — a fixed seed files byte-identical bug reports
whether the campaign ran on one core or eight.

Two behavioural notes relative to the historical serial loop:

* program corpora are sharded deterministically — program ``i`` depends
  only on ``(seed, i)``, not on how many programs were generated before —
  so serial and parallel runs see the same programs, and
* a program rejected by p4c still gets compiled and packet-tested on the
  back-end platforms (rejection is per-platform; the back ends compile
  with a different defect set, so a front-end rejection says nothing
  about them).  ``programs_rejected`` therefore counts *unit* rejections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.engine import (
    CampaignEngine,
    CampaignSpec,
    CampaignStatistics,
    DetectionRecord,
)
from repro.core.generator import GeneratorConfig

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignStatistics",
    "DetectionRecord",
]


@dataclass
class CampaignConfig:
    """How many programs to generate and which defects to enable."""

    programs: int = 25
    seed: int = 0
    enabled_bugs: Sequence[str] = ()
    max_tests_per_program: int = 4
    #: Packets per §6 test sequence.  Stateful programs are replayed as
    #: multi-packet sequences against one persistent switch state; stateless
    #: programs always collapse to single-packet tests, so the default costs
    #: nothing on a register-free corpus.
    sequence_length: int = 3
    platforms: Sequence[str] = ("p4c", "bmv2", "tofino")
    generator: Optional[GeneratorConfig] = None
    #: Worker processes to shard the programs across (each program is
    #: checked on all its platforms in one process).  ``1`` runs
    #: everything in-process (no pool).
    jobs: int = 1
    #: JSONL artifact store path.  When set, every finished ``(program,
    #: platform)`` outcome is appended there and a re-run with the same
    #: config resumes from them instead of recomputing them.
    artifact_path: Optional[str] = None
    #: Triage the findings: after the merge, shrink every deduplicated
    #: report's trigger program with the delta-debugging reducer (the
    #: reduced program still fails the report's original oracle) and
    #: localize the defect to a compiler pass.  Triage units shard across
    #: the same worker pool and resume from the same artifact store.
    reduce: bool = False
    #: Round budget per reduction (each round cycles every transformation
    #: class to a fixpoint check).
    reduce_rounds: int = 8
    #: Run the campaign on a coordinator/worker fleet instead of the fork
    #: pool: that many worker processes are spawned locally and lease unit
    #: ranges from an in-process coordinator over TCP.  Overrides ``jobs``.
    distributed: int = 0
    #: Serve-only deployment: bind the coordinator on this ``host:port``
    #: and wait for externally started workers (``bug_campaign.py
    #: --worker``) to drain the campaign.  Overrides ``distributed``.
    serve: Optional[str] = None
    #: Feedback-directed generation: split the program budget into
    #: ``schedule_rounds`` rounds and let the coverage bandit
    #: (:mod:`repro.core.schedule`) pick each round's generator knob arm.
    #: Off by default — the static corpus stays byte-identical.
    schedule: bool = False
    schedule_rounds: int = 4


class Campaign:
    """Run Gauntlet end to end over randomly generated programs."""

    def __init__(self, config: Optional[CampaignConfig] = None) -> None:
        self.config = config or CampaignConfig()

    def _spec(self) -> CampaignSpec:
        config = self.config
        generator = config.generator or GeneratorConfig(seed=config.seed)
        return CampaignSpec(
            programs=config.programs,
            generator=generator,
            enabled_bugs=tuple(config.enabled_bugs),
            platforms=tuple(config.platforms),
            max_tests=config.max_tests_per_program,
            sequence_length=config.sequence_length,
            jobs=config.jobs,
            artifact_path=config.artifact_path,
            reduce=config.reduce,
            reduce_rounds=config.reduce_rounds,
            distributed=config.distributed,
            serve=config.serve,
            schedule=config.schedule,
            schedule_rounds=config.schedule_rounds,
        )

    # ------------------------------------------------------------------
    # Full campaign
    # ------------------------------------------------------------------

    def run(self) -> CampaignStatistics:
        return CampaignEngine(self._spec()).run()

    # ------------------------------------------------------------------
    # Per-defect detection matrix
    # ------------------------------------------------------------------

    def run_detection_matrix(
        self,
        bug_ids: Optional[Sequence[str]] = None,
        programs_per_bug: int = 20,
        schedule: bool = False,
    ) -> List[DetectionRecord]:
        """For each seeded defect, check whether Gauntlet detects it.

        ``schedule=True`` steers each defect with the profile-calibrated
        knob arm from :mod:`repro.core.schedule` (margin-guarded; falls
        back to the static steering table per defect).
        """

        return CampaignEngine(self._spec()).run_detection_matrix(
            bug_ids=bug_ids, programs_per_bug=programs_per_bug, schedule=schedule
        )
