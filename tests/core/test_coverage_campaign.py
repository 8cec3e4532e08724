"""Scheduled campaigns end to end: determinism, provenance, wire compat.

The determinism contract under test: a scheduled campaign is a pure
function of its config — same reports, same knob-arm provenance and same
merged coverage counters at jobs=1, jobs=4 and on a two-worker distributed
fleet, and again after a store resume.  Plus the regression guard the
scheduler ships with: with ``schedule=False`` the seed-0 corpus stays
byte-identical to the committed digest (the new knobs gate before they
draw, so adding them moved no RNG stream).
"""

import hashlib
import json

import pytest

from repro.core.bugs import BUG_REPORT_SCHEMA, BugKind, BugLocation, BugReport
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.engine.units import UnitOutcome
from repro.core.generator import GeneratorConfig, RandomProgramGenerator
from repro.core.schedule import ARM_CATALOG
from repro.p4 import emit_program


BUGS = ("predication_nested_else_lost", "dead_code_removes_validity_call")
PLATFORMS = ("p4c", "bmv2")

#: sha256 over the emitted sources of seed-0 programs 0..11 (the static
#: corpus).  The scheduler must not perturb this: knob arms only apply when
#: ``schedule=True``, and the scheduler-era generator knobs default to
#: "off" without consuming RNG draws.
SEED0_CORPUS_SHA256 = (
    "9f2564085b0425654261a748e72e474ebeab6784c1a13596a8cff74364f5a660"
)


def scheduled_config(**overrides) -> CampaignConfig:
    base = dict(
        programs=8,
        seed=0,
        enabled_bugs=BUGS,
        platforms=PLATFORMS,
        schedule=True,
        schedule_rounds=4,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def report_blob(stats) -> str:
    reports = sorted(stats.tracker.reports, key=lambda report: report.identifier)
    return json.dumps([report.to_dict() for report in reports], sort_keys=True)


class TestScheduledDeterminism:
    def test_jobs1_jobs4_distributed2_byte_identical(self):
        serial = Campaign(scheduled_config()).run()
        pooled = Campaign(scheduled_config(jobs=4)).run()
        fleet = Campaign(scheduled_config(distributed=2)).run()
        assert report_blob(serial) == report_blob(pooled) == report_blob(fleet)
        assert serial.coverage() == pooled.coverage() == fleet.coverage()
        assert serial.coverage(), "scheduled campaign produced no coverage"
        for key in ("testgen_probes_witnessed", "testgen_probes_infeasible"):
            assert serial.counters[key] == pooled.counters[key] == fleet.counters[key]
        assert serial.counters["testgen_probes_witnessed"] > 0
        assert serial.tracker.reports, "seeded campaign filed no reports"

    def test_reports_carry_arm_provenance(self):
        stats = Campaign(scheduled_config()).run()
        assert stats.tracker.reports
        for report in stats.tracker.reports:
            assert report.knob_arm, f"{report.identifier} lost its arm"
            arm = next(arm for arm in ARM_CATALOG if arm.name == report.knob_arm)
            assert report.knob_overrides == arm.overrides_dict()

    def test_static_campaign_files_unstamped_reports(self):
        stats = Campaign(scheduled_config(schedule=False)).run()
        assert stats.tracker.reports
        for report in stats.tracker.reports:
            assert report.knob_arm == ""
            assert report.knob_overrides == {}


class TestStoreResume:
    def test_provenance_survives_resume(self, tmp_path):
        path = str(tmp_path / "artifacts.jsonl")
        first = Campaign(scheduled_config(artifact_path=path)).run()
        second = Campaign(scheduled_config(artifact_path=path)).run()
        assert second.units_reused == second.units_total
        assert report_blob(first) == report_blob(second)
        assert first.coverage() == second.coverage()
        for report in second.tracker.reports:
            assert report.knob_arm

    def test_unit_outcome_coverage_round_trips(self):
        outcome = UnitOutcome(
            program_index=3,
            platform="p4c",
            status="ok",
            coverage={"pass:ConstantFolding": 1, "feature:table": 2},
        )
        restored = UnitOutcome.from_dict(outcome.to_dict())
        assert restored.coverage == outcome.coverage

    def test_pre_coverage_outcome_payload_loads(self):
        payload = UnitOutcome(program_index=0, platform="p4c", status="ok").to_dict()
        del payload["coverage"]  # wire format written before this field
        assert UnitOutcome.from_dict(payload).coverage == {}


class TestBugReportSchemaV4:
    def make_report(self, **overrides) -> BugReport:
        base = dict(
            identifier="p4c:some_bug",
            kind=BugKind.SEMANTIC,
            platform="p4c",
            location=BugLocation.MID_END,
            pass_name="Predication",
            description="else branch dropped",
            knob_arm="functions",
            knob_overrides={"p_function": 1.0},
        )
        base.update(overrides)
        return BugReport(**base)

    def test_v4_round_trip_preserves_provenance(self):
        report = self.make_report()
        payload = report.to_dict()
        assert payload["schema_version"] == BUG_REPORT_SCHEMA == 4
        restored = BugReport.from_dict(payload)
        assert restored == report
        assert restored.knob_arm == "functions"
        assert restored.knob_overrides == {"p_function": 1.0}

    def test_v3_payload_defaults_provenance(self):
        payload = self.make_report().to_dict()
        payload["schema_version"] = 3
        del payload["knob_arm"]
        del payload["knob_overrides"]
        restored = BugReport.from_dict(payload)
        assert restored.knob_arm == ""
        assert restored.knob_overrides == {}

    def test_newer_schema_is_rejected(self):
        payload = self.make_report().to_dict()
        payload["schema_version"] = BUG_REPORT_SCHEMA + 1
        with pytest.raises(ValueError, match="newer than supported"):
            BugReport.from_dict(payload)


class TestCorpusGuard:
    def test_seed0_corpus_digest_unchanged(self):
        generator = RandomProgramGenerator(GeneratorConfig(seed=0))
        digest = hashlib.sha256()
        for index in range(12):
            digest.update(emit_program(generator.generate_indexed(index)).encode())
        assert digest.hexdigest() == SEED0_CORPUS_SHA256


class TestSwallowedCoverageErrors:
    """Coverage never fails a unit, but every failure it swallows is counted."""

    def _campaign(self, **overrides):
        base = dict(programs=3, seed=0, enabled_bugs=BUGS, platforms=PLATFORMS)
        base.update(overrides)
        return Campaign(CampaignConfig(**base)).run()

    def test_clean_campaign_counts_no_coverage_errors(self):
        stats = self._campaign()
        assert stats.counters["coverage_errors"] == 0
        assert stats.coverage()

    def test_failing_feature_walk_is_counted_per_unit(self, monkeypatch):
        from repro.core.engine import stages

        reference = self._campaign()

        def broken_walk(program):
            raise RuntimeError("feature walk failed")

        monkeypatch.setattr(stages, "program_features", broken_walk)
        stats = self._campaign()
        assert stats.counters["coverage_errors"] == stats.units_total == 6
        assert stats.coverage() == {}
        # Findings do not depend on coverage.
        assert report_blob(stats) == report_blob(reference)

    def test_failing_shape_interpretation_is_counted(self, monkeypatch):
        from repro.core.interpreter import InterpreterError
        from repro.core.validation import TranslationValidator

        def broken_interpret(self, snapshot):
            raise InterpreterError("interpreter failed")

        # The back ends' prefix validation reads the interpreter failure as
        # an oracle limitation and still runs the packet tests.
        reference = self._campaign(platforms=("bmv2",))
        monkeypatch.setattr(TranslationValidator, "interpret", broken_interpret)
        stats = self._campaign(platforms=("bmv2",))
        # Every program's final snapshot fails to interpret: counted once
        # per unit, and the unit keeps its pass/rule/feature cells.
        assert stats.counters["coverage_errors"] == stats.units_total == 3
        assert stats.coverage()
        assert not any(cell.startswith("shape:") for cell in stats.coverage())
        assert any(cell.startswith("shape:") for cell in reference.coverage())
        assert reference.counters["coverage_errors"] == 0
