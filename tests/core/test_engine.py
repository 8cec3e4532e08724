"""Tests for the staged campaign engine.

The engine's contract has three legs:

* **executor equivalence** — at a fixed seed, the serial executor and the
  process-pool executor file byte-identical deduplicated bug reports and
  aggregate statistics (completion order must not matter);
* **resume** — a campaign killed mid-flight (simulated by truncating the
  JSONL artifact store, including a torn final line) finishes to the same
  result as an uninterrupted run, recomputing only the missing units;
* **deterministic sharding** — program ``i`` of a corpus depends only on
  ``(seed, i)``, never on generation order, so any shard can be produced
  independently in any process.
"""

import json
import os

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.engine import (
    ArtifactStore,
    CampaignEngine,
    CampaignSpec,
    FindingRecord,
    ProgramOutcome,
    UnitOutcome,
    WorkUnit,
    build_units,
    campaign_key,
    run_unit,
)
from repro.core.generator import (
    GeneratorConfig,
    RandomProgramGenerator,
    derive_child_seed,
)
from repro.p4 import emit_program

ENABLED = (
    "constant_folding_no_mask",
    "strength_reduction_negative_slice",
    "exit_ignores_copy_out",
    "bmv2_wide_field_truncation",
    "tofino_slice_assignment_drop",
)


def small_config(**overrides):
    defaults = dict(programs=8, seed=3, enabled_bugs=ENABLED)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def reports(stats):
    return [report.to_dict() for report in stats.tracker.reports]


def headline(stats):
    return (
        stats.programs_generated,
        stats.programs_rejected,
        stats.oracle_errors,
        stats.crash_findings,
        stats.semantic_findings,
    )


class TestShardedGeneration:
    def test_child_seed_is_stable(self):
        assert derive_child_seed(0, 0) == derive_child_seed(0, 0)
        assert derive_child_seed(0, 1) != derive_child_seed(0, 0)
        assert derive_child_seed(1, 0) != derive_child_seed(0, 0)

    def test_indexed_generation_is_order_independent(self):
        forward = RandomProgramGenerator(GeneratorConfig(seed=5))
        backward = RandomProgramGenerator(GeneratorConfig(seed=5))
        want = [emit_program(forward.generate_indexed(i)) for i in range(6)]
        got = [emit_program(backward.generate_indexed(i)) for i in reversed(range(6))]
        assert want == list(reversed(got))

    def test_indexed_generation_is_interleaving_independent(self):
        # Drawing from the plain shared-stream API between indexed calls
        # must not perturb the corpus.
        clean = RandomProgramGenerator(GeneratorConfig(seed=9))
        dirty = RandomProgramGenerator(GeneratorConfig(seed=9))
        want = emit_program(clean.generate_indexed(3))
        dirty.generate()
        dirty.generate()
        assert emit_program(dirty.generate_indexed(3)) == want


class TestUnits:
    def test_build_units_is_deterministic_and_ordered(self):
        generator = GeneratorConfig(seed=0)
        units = build_units(3, ("tofino", "p4c", "bmv2"), generator, (), 4)
        assert [unit.key for unit in units] == [0, 1, 2]
        assert {unit.platforms for unit in units} == {("p4c", "bmv2", "tofino")}
        shifted = build_units(2, ("p4c",), generator, (), 4, start=5)
        assert [unit.key for unit in shifted] == [5, 6]

    def test_outcome_json_round_trip(self):
        outcome = UnitOutcome(
            program_index=7,
            platform="bmv2",
            status="finding",
            findings=[
                FindingRecord(
                    kind="crash",
                    platform="bmv2",
                    pass_name="Lowering",
                    description="boom",
                    signature="sig",
                ),
                FindingRecord(
                    kind="semantic",
                    platform="bmv2",
                    pass_name="backend",
                    description="mismatch",
                    witness={"hdr.h.a": 3, "hdr.h.$valid": True},
                ),
            ],
            source="control ingress...",
            counters={"solver_checks": 5},
            elapsed_s=0.25,
        )
        assert UnitOutcome.from_dict(
            json.loads(json.dumps(outcome.to_dict()))
        ) == outcome

    def test_run_unit_reports_counter_deltas(self):
        unit = WorkUnit(
            program_index=0,
            platforms=("p4c", "bmv2"),
            generator=GeneratorConfig(seed=3),
        )
        program = run_unit(unit)
        assert program.key == 0
        assert [outcome.key for outcome in program.outcomes] == [(0, "p4c"), (0, "bmv2")]
        p4c, bmv2 = program.outcomes
        assert p4c.source.startswith("header") or "control" in p4c.source
        assert bmv2.source == p4c.source
        # Deltas, not absolutes: each platform reports the work of its own
        # share of the check, and no gauge keys leak through.
        for outcome in program.outcomes:
            assert outcome.counters.get("solver_checks", 0) >= 0
            assert outcome.counters["coverage_errors"] == 0
            assert not any(key.endswith("_entries") for key in outcome.counters)
        assert bmv2.counters["packets_replayed"] > 0
        assert p4c.counters["packets_replayed"] == 0

    def test_program_outcome_json_round_trip(self):
        program = run_unit(
            WorkUnit(program_index=1, platforms=("p4c", "tofino"), generator=GeneratorConfig(seed=3))
        )
        assert ProgramOutcome.from_dict(json.loads(json.dumps(program.to_dict()))) == program


class TestExecutorEquivalence:
    def test_parallel_matches_serial_reports_and_statistics(self):
        serial = Campaign(small_config(jobs=1)).run()
        parallel = Campaign(small_config(jobs=4)).run()
        assert reports(parallel) == reports(serial)
        assert headline(parallel) == headline(serial)
        assert serial.tracker.reports  # the campaign actually found bugs

    def test_parallel_matches_serial_on_clean_campaign(self):
        serial = Campaign(small_config(programs=5, enabled_bugs=(), jobs=1)).run()
        parallel = Campaign(small_config(programs=5, enabled_bugs=(), jobs=2)).run()
        assert len(serial.tracker) == 0
        assert reports(parallel) == reports(serial)
        assert headline(parallel) == headline(serial)

    def test_parallel_detection_matrix_matches_serial(self):
        bug_ids = ["constant_folding_no_mask", "bmv2_wide_field_truncation"]
        serial = Campaign(small_config(jobs=1)).run_detection_matrix(
            bug_ids, programs_per_bug=12
        )
        parallel = Campaign(small_config(jobs=2)).run_detection_matrix(
            bug_ids, programs_per_bug=12
        )
        assert [
            (r.bug.bug_id, r.detected, r.technique, r.programs_tried) for r in serial
        ] == [
            (r.bug.bug_id, r.detected, r.technique, r.programs_tried) for r in parallel
        ]

    def test_counters_are_aggregated(self):
        stats = Campaign(small_config(jobs=2)).run()
        # Worker processes did the solving; their counters must surface in
        # the merged campaign result (satellite: truthful benchmarks).
        assert stats.counters["solver_checks"] > 0
        # Forked workers inherit a warm bit-blast memo, so only the *lookup*
        # count is guaranteed to be non-zero, not the miss count.
        assert (
            stats.counters["solver_bitblast_hits"] + stats.counters["solver_bitblast_misses"]
            > 0
        )
        assert stats.counters["packets_replayed"] > 0


class TestResume:
    def _config(self, tmp_path, **overrides):
        return small_config(
            artifact_path=os.path.join(tmp_path, "artifacts.jsonl"), **overrides
        )

    def test_interrupted_campaign_resumes_to_identical_result(self, tmp_path):
        tmp_path = str(tmp_path)
        uninterrupted = Campaign(small_config()).run()

        config = self._config(tmp_path)
        first = Campaign(config).run()
        assert first.units_reused == 0

        # Simulate a kill: drop all but the first five outcome lines and
        # leave a torn final line, as a mid-write SIGKILL would.
        path = config.artifact_path
        lines = open(path).read().splitlines(True)
        assert len(lines) == first.units_total
        with open(path, "w") as handle:
            handle.writelines(lines[:5])
            handle.write('{"key": "torn mid-write')

        resumed = Campaign(self._config(tmp_path)).run()
        assert resumed.units_reused == 5
        assert resumed.units_total == first.units_total
        assert reports(resumed) == reports(uninterrupted)
        assert headline(resumed) == headline(uninterrupted)

    def test_partly_stored_program_reruns_only_its_missing_platforms(
        self, tmp_path, monkeypatch
    ):
        from repro.core.engine import stages

        tmp_path = str(tmp_path)
        uninterrupted = Campaign(small_config()).run()
        config = self._config(tmp_path)
        first = Campaign(config).run()
        path = config.artifact_path
        lines = open(path).read().splitlines(True)

        # Drop two of program 5's three platforms from the store.
        dropped = {(5, "bmv2"), (5, "tofino")}

        def kept(line):
            outcome = json.loads(line)["outcome"]
            return (outcome["program_index"], outcome["platform"]) not in dropped

        with open(path, "w") as handle:
            handle.writelines(line for line in lines if kept(line))

        scheduled = []
        run_unit = stages.run_unit

        def spy_run_unit(unit):
            scheduled.append((unit.program_index, unit.platforms))
            return run_unit(unit)

        monkeypatch.setattr(stages, "run_unit", spy_run_unit)
        resumed = Campaign(self._config(tmp_path)).run()
        assert scheduled == [(5, ("bmv2", "tofino"))]
        assert resumed.units_total == first.units_total
        assert resumed.units_reused == first.units_total - 2
        assert reports(resumed) == reports(uninterrupted)
        assert headline(resumed) == headline(uninterrupted)

        # The re-run platforms were stored line for line as before.
        def by_unit(store_lines):
            entries = {}
            for line in store_lines:
                outcome = json.loads(line)["outcome"]
                outcome.pop("elapsed_s")
                entries[(outcome["program_index"], outcome["platform"])] = outcome
            return entries

        before = by_unit(lines)
        after = by_unit(open(path).read().splitlines(True))
        assert after.keys() == before.keys()
        for unit in dropped:
            assert after[unit]["status"] == before[unit]["status"]
            assert after[unit]["findings"] == before[unit]["findings"]
            assert after[unit]["source"] == before[unit]["source"]
            assert after[unit]["coverage"] == before[unit]["coverage"]

    def test_completed_campaign_is_fully_reused(self, tmp_path):
        config = self._config(str(tmp_path))
        first = Campaign(config).run()
        again = Campaign(self._config(str(tmp_path))).run()
        assert again.units_reused == again.units_total == first.units_total
        assert reports(again) == reports(first)

    def test_different_config_does_not_reuse(self, tmp_path):
        tmp_path = str(tmp_path)
        Campaign(self._config(tmp_path)).run()
        other = Campaign(self._config(tmp_path, seed=4)).run()
        assert other.units_reused == 0

    def test_growing_a_campaign_reuses_the_prefix(self, tmp_path):
        tmp_path = str(tmp_path)
        small = Campaign(self._config(tmp_path, programs=4)).run()
        grown = Campaign(self._config(tmp_path, programs=8)).run()
        assert grown.units_reused == small.units_total
        assert grown.units_total == 2 * small.units_total

    def test_detection_matrix_reuses_store_units(self, tmp_path):
        config = self._config(str(tmp_path))
        campaign = Campaign(config)
        bug_ids = ["constant_folding_no_mask"]
        first = campaign.run_detection_matrix(bug_ids, programs_per_bug=10)
        store_size = len(ArtifactStore(config.artifact_path))
        second = campaign.run_detection_matrix(bug_ids, programs_per_bug=10)
        # No new units were computed the second time around.
        assert len(ArtifactStore(config.artifact_path)) == store_size
        assert [(r.detected, r.technique, r.programs_tried) for r in second] == [
            (r.detected, r.technique, r.programs_tried) for r in first
        ]


class TestArtifactStore:
    def test_load_ignores_other_keys_and_garbage(self, tmp_path):
        path = os.path.join(str(tmp_path), "store.jsonl")
        store = ArtifactStore(path)
        outcome = UnitOutcome(program_index=0, platform="p4c", status="clean")
        store.append("key-a", outcome)
        with open(path, "a") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"key": "key-b", "outcome": outcome.to_dict()}) + "\n")
        loaded = store.load("key-a")
        assert set(loaded) == {(0, "p4c")}
        assert store.load("key-b")[(0, "p4c")] == outcome
        assert store.load("key-c") == {}

    def test_campaign_key_sensitivity(self):
        generator = GeneratorConfig(seed=0)
        base = campaign_key(generator, ("a",), ("p4c",), 4)
        assert base == campaign_key(generator, ("a",), ("p4c",), 4)
        assert base != campaign_key(GeneratorConfig(seed=1), ("a",), ("p4c",), 4)
        assert base != campaign_key(generator, ("b",), ("p4c",), 4)
        assert base != campaign_key(generator, ("a",), ("bmv2",), 4)
        assert base != campaign_key(generator, ("a",), ("p4c",), 5)
        assert base != campaign_key(generator, ("a",), ("p4c",), 4, scope="matrix")


class TestPerPlatformRejection:
    def test_p4c_rejection_does_not_mask_backend_findings(self, monkeypatch):
        # The legacy serial loop returned early when p4c rejected a
        # program, so the back ends -- which compile with a *different*
        # defect set -- were never exercised.  Force every p4c unit to
        # reject and check the back-end oracle still files its findings.
        from repro.core.engine import stages

        monkeypatch.setattr(
            stages._ProgramCheck, "_check_p4c", lambda self: ("rejected", [])
        )
        spec = CampaignSpec(
            programs=10,
            generator=GeneratorConfig(seed=7),
            enabled_bugs=("tofino_slice_assignment_drop",),
            platforms=("p4c", "tofino"),
        )
        stats = CampaignEngine(spec).run()
        assert stats.programs_rejected == 10
        platforms = {report.platform for report in stats.tracker.reports}
        assert platforms == {"tofino"}


class TestBisectionLinkFailures:
    BUGS = ("tofino_slice_assignment_drop", "tofino_ternary_condition_flip")

    def unit(self):
        # Program 0 of seed 3 mismatches with both tofino defects enabled,
        # so its finding is attributed by per-defect bisection.
        return WorkUnit(
            program_index=0,
            platforms=("tofino",),
            generator=GeneratorConfig(seed=3),
            enabled_bugs=self.BUGS,
        )

    @staticmethod
    def fail_singleton_links(monkeypatch):
        """Make every bisection link (one defect enabled) fail to compile."""

        from repro.compiler.errors import CompilerError
        from repro.targets.tofino import TofinoTarget

        link = TofinoTarget.link

        def failing_singleton_link(self, result):
            if len(self.options.enabled_bugs) == 1:
                raise CompilerError("forced bisection link failure")
            return link(self, result)

        monkeypatch.setattr(TofinoTarget, "link", failing_singleton_link)

    def test_clean_bisection_counts_no_link_failures(self):
        (outcome,) = run_unit(self.unit()).outcomes
        (finding,) = outcome.findings
        assert finding.attributed_bugs == ("tofino_slice_assignment_drop",)
        assert outcome.counters["bisect_link_failures"] == 0

    def test_each_failed_singleton_link_is_counted(self, monkeypatch):
        self.fail_singleton_links(monkeypatch)
        (outcome,) = run_unit(self.unit()).outcomes
        (finding,) = outcome.findings
        assert finding.attributed_bugs == ()
        assert outcome.counters["bisect_link_failures"] == len(self.BUGS)

    def test_link_failures_merge_into_campaign_counters(self, monkeypatch):
        self.fail_singleton_links(monkeypatch)
        stats = Campaign(
            CampaignConfig(
                programs=3, seed=3, enabled_bugs=self.BUGS, platforms=("tofino",)
            )
        ).run()
        # Programs 0-2 of seed 3 each mismatch, so each bisects both defects.
        assert stats.counters["bisect_link_failures"] == 3 * len(self.BUGS)
