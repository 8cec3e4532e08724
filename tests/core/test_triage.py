"""Tests for the triage stage: reduction, oracles, localization, engine.

The stage's contract, mirroring the engine's own three legs:

* **oracle faithfulness** — a reduced trigger still fails the *original*
  oracle (same crash signature / same defective pass / a packet-test
  mismatch on the same back end), and every candidate is re-typechecked
  so reduction can never "confirm" on an ill-formed program;
* **determinism** — ``jobs=1`` and ``jobs=4`` triage byte-identical
  reports;
* **resume** — a campaign killed mid-triage resumes without redoing the
  finished reductions.
"""

import json
import os

import pytest

from repro.core.bugs import BUG_REPORT_SCHEMA, BugKind, BugLocation, BugReport
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.engine import (
    TRIAGE_REDUCED,
    ArtifactStore,
    TriageOutcome,
    TriageUnit,
    run_triage_unit,
)
from repro.core.engine.units import FindingRecord
from repro.core.reduce import build_predicate, program_size, reduce_program
from repro.core.reduce.localize import bisect_crash_pass, localize_finding
from repro.p4 import parse_program
from repro.p4.typecheck import check_program

#: The reference seeded-defect selection (one per technique and platform).
ENABLED = (
    "strength_reduction_negative_slice",
    "typecheck_shift_width_crash",
    "exit_ignores_copy_out",
    "constant_folding_no_mask",
    "simplify_control_flow_empty_if",
    "bmv2_wide_field_truncation",
    "tofino_slice_assignment_drop",
    "tofino_exit_in_action_crash",
)


def reference_config(**overrides):
    defaults = dict(
        programs=25, seed=2020, enabled_bugs=ENABLED, reduce=True
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def reports(stats):
    return [report.to_dict() for report in stats.tracker.reports]


# ----------------------------------------------------------------------
# Reducer: the typecheck gate
# ----------------------------------------------------------------------

GATED_PROGRAM = """
header Hdr_t { bit<8> a; bit<8> b; }
struct Headers { Hdr_t h; }
control ingress(inout Headers hdr) {
    apply {
        bit<8> tmp = 8w7;
        hdr.h.a = tmp + 8w1;
        hdr.h.b = 8w2;
    }
}
"""


class TestTypecheckGate:
    def test_candidates_are_retypechecked(self):
        # Regression for the latent reducer bug: an oracle that answers
        # True unconditionally used to let the reducer delete the
        # declaration of ``tmp`` while its use survived -- "confirming"
        # the bug on a program the front end would reject.  The gate must
        # keep every kept candidate well-formed.
        program = parse_program(GATED_PROGRAM)
        seen_ill_typed = []

        def gullible_oracle(candidate):
            try:
                check_program(candidate)
            except Exception:
                seen_ill_typed.append(True)
            return True

        result = reduce_program(program, gullible_oracle)
        check_program(result.program)  # must not raise
        assert not seen_ill_typed  # the predicate never saw an ill-typed candidate

    def test_predicate_exceptions_mean_keep(self):
        program = parse_program(GATED_PROGRAM)
        calls = []

        def exploding_oracle(candidate):
            if calls:
                raise RuntimeError("oracle infrastructure failure")
            calls.append(True)
            return True  # reproduce the original once, then explode

        result = reduce_program(program, exploding_oracle)
        # Nothing was reduced (every candidate "failed"), nothing raised.
        assert result.reproduced
        assert result.reduced_size == result.original_size

    def test_unreproduced_finding_returns_original(self):
        program = parse_program(GATED_PROGRAM)
        result = reduce_program(program, lambda candidate: False)
        assert not result.reproduced
        assert result.program is program


# ----------------------------------------------------------------------
# Localization
# ----------------------------------------------------------------------

CRASHING_PROGRAM = """
header Hdr_t { bit<8> a; bit<8> b; }
struct Headers { Hdr_t h; }
control ingress(inout Headers hdr) {
    apply {
        hdr.h.a = hdr.h.b << 8w9;
    }
}
"""


class TestLocalization:
    def test_bisect_names_the_crashing_pass(self):
        program = parse_program(CRASHING_PROGRAM)
        enabled = ("strength_reduction_negative_slice",)
        localized, pair = bisect_crash_pass(
            program, signature="negative-slice-index", enabled_bugs=enabled
        )
        assert localized == "StrengthReduction"
        assert pair is not None and pair[1] == "StrengthReduction"
        assert pair[0] != "StrengthReduction"

    def test_bisect_falls_back_when_signature_does_not_reproduce(self):
        program = parse_program(GATED_PROGRAM)
        finding = FindingRecord(
            kind="crash",
            platform="p4c",
            pass_name="StrengthReduction",
            description="",
            signature="no-such-signature",
        )
        localized, pair = localize_finding(finding, program, "p4c", ENABLED)
        assert localized == "StrengthReduction"  # the oracle's original answer
        assert pair is None

    def test_backend_findings_stay_at_the_platform_boundary(self):
        program = parse_program(GATED_PROGRAM)
        finding = FindingRecord(
            kind="semantic",
            platform="tofino",
            pass_name="backend",
            description="packet mismatch",
        )
        localized, pair = localize_finding(finding, program, "tofino", ENABLED)
        assert localized == "backend"
        assert pair is None


# ----------------------------------------------------------------------
# Wire format round trips
# ----------------------------------------------------------------------

class TestRoundTrips:
    def test_triage_outcome_json_round_trip(self):
        outcome = TriageOutcome(
            identifier="p4c:constant_folding_no_mask",
            status=TRIAGE_REDUCED,
            reduced_source="control ingress...",
            original_size=23,
            reduced_size=2,
            rounds=3,
            attempts=91,
            localized_pass="ConstantFolding",
            pass_pair=("input", "ConstantFolding"),
            elapsed_s=0.4,
            errors=2,
        )
        assert TriageOutcome.from_dict(
            json.loads(json.dumps(outcome.to_dict()))
        ) == outcome

    def test_triage_outcome_without_errors_field_loads(self):
        payload = TriageOutcome(identifier="p4c:x", status=TRIAGE_REDUCED).to_dict()
        del payload["errors"]  # wire format written before this field
        assert TriageOutcome.from_dict(payload).errors == 0

    def test_bug_report_round_trip_with_triage_fields(self):
        report = BugReport(
            identifier="p4c:x",
            kind=BugKind.SEMANTIC,
            platform="p4c",
            location=BugLocation.MID_END,
            pass_name="ConstantFolding",
            description="d",
            reduced_source="control c...",
            reduction_ratio=0.83,
            reduction_rounds=3,
            localized_pass="ConstantFolding",
            pass_pair=("input", "ConstantFolding"),
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["schema_version"] == BUG_REPORT_SCHEMA
        assert BugReport.from_dict(payload) == report

    def test_schema_v1_payload_still_loads(self):
        # An artifact store written before the triage stage has neither a
        # schema_version key nor the triage fields.
        payload = {
            "identifier": "p4c:old",
            "kind": "crash",
            "platform": "p4c",
            "location": "front_end",
            "pass_name": "TypeChecking",
            "description": "old-style report",
            "status": "confirmed",
            "trigger_source": "control ...",
            "witness": {},
            "seeded_bug_id": None,
        }
        report = BugReport.from_dict(payload)
        assert report.reduced_source == ""
        assert report.pass_pair is None
        assert report.reduction_ratio == 0.0

    def test_newer_schema_is_rejected(self):
        payload = {"schema_version": BUG_REPORT_SCHEMA + 1, "identifier": "x"}
        with pytest.raises(ValueError, match="newer than supported"):
            BugReport.from_dict(payload)


# ----------------------------------------------------------------------
# The reference campaign (acceptance criteria)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def triaged_campaign():
    return Campaign(reference_config()).run()


class TestReferenceCampaign:
    def test_campaign_finds_and_triages_bugs(self, triaged_campaign):
        stats = triaged_campaign
        assert len(stats.tracker) > 0
        assert stats.triage_total == len(stats.tracker)
        assert all(report.reduced_source for report in stats.tracker.reports)

    def test_mean_statement_reduction_at_least_half(self, triaged_campaign):
        assert triaged_campaign.mean_reduction_ratio() >= 0.5

    def test_reduced_sources_shrink_and_still_typecheck(self, triaged_campaign):
        for report in triaged_campaign.tracker.reports:
            original = parse_program(report.trigger_source)
            reduced = parse_program(report.reduced_source)
            check_program(reduced)  # must not raise
            assert program_size(reduced) <= program_size(original)

    def test_semantic_reductions_still_trip_their_oracle(self, triaged_campaign):
        semantic = [
            report
            for report in triaged_campaign.tracker.reports
            if report.kind != BugKind.CRASH
        ]
        assert semantic
        for report in semantic:
            finding = FindingRecord(
                kind=report.kind.value,
                platform=report.platform,
                pass_name=report.pass_name,
                description=report.description,
            )
            still_fails = build_predicate(
                finding, report.platform, ENABLED, max_tests=4
            )
            assert still_fails(parse_program(report.reduced_source)), (
                f"{report.identifier}: reduced source no longer trips its oracle"
            )

    def test_every_crash_bug_names_a_localized_pass(self, triaged_campaign):
        crashes = [
            report
            for report in triaged_campaign.tracker.reports
            if report.kind == BugKind.CRASH
        ]
        assert crashes
        for report in crashes:
            assert report.localized_pass, f"{report.identifier} is unlocalized"
            if report.platform == "p4c":
                assert report.pass_pair is not None
                assert report.pass_pair[1] == report.localized_pass

    def test_parallel_triage_is_byte_identical(self, triaged_campaign):
        parallel = Campaign(reference_config(jobs=4)).run()
        assert reports(parallel) == reports(triaged_campaign)


# ----------------------------------------------------------------------
# Resume
# ----------------------------------------------------------------------

class TestTriageResume:
    def _config(self, tmp_path, **overrides):
        return reference_config(
            programs=10,
            seed=3,
            artifact_path=os.path.join(str(tmp_path), "artifacts.jsonl"),
            **overrides,
        )

    def test_kill_mid_triage_resumes_without_redoing_reductions(self, tmp_path):
        config = self._config(tmp_path)
        first = Campaign(config).run()
        assert first.triage_total >= 2
        assert first.triage_reused == 0

        # Simulate a SIGKILL between two reductions: every unit outcome is
        # on disk, only some triage lines are, and the final line is torn.
        path = config.artifact_path
        lines = open(path).read().splitlines(True)
        unit_lines = [line for line in lines if '"outcome"' in line]
        triage_lines = [line for line in lines if '"triage"' in line]
        assert len(triage_lines) == first.triage_total
        with open(path, "w") as handle:
            handle.writelines(unit_lines + triage_lines[:2])
            handle.write('{"key": "torn mid-wri')

        resumed = Campaign(self._config(tmp_path)).run()
        assert resumed.units_reused == resumed.units_total
        assert resumed.triage_reused == 2
        assert resumed.triage_total == first.triage_total
        assert reports(resumed) == reports(first)

    def test_completed_triage_is_fully_reused(self, tmp_path):
        config = self._config(tmp_path)
        first = Campaign(config).run()
        again = Campaign(self._config(tmp_path)).run()
        assert again.triage_reused == again.triage_total == first.triage_total
        assert reports(again) == reports(first)

    def test_unreproduced_outcomes_are_not_persisted(self, tmp_path, monkeypatch):
        # An unreproduced reduction may be an environment artifact (worker
        # under pressure); storing it would pin the report as unreduced on
        # every resume.  It must be retried instead.
        from repro.core.engine import stages as stages_module

        config = self._config(tmp_path)

        def always_unreproduced(unit):
            return TriageOutcome(identifier=unit.identifier, status="unreproduced")

        # Executors resolve the triage runner from the stages module at
        # run time, so that is the seam to break.
        monkeypatch.setattr(stages_module, "run_triage_unit", always_unreproduced)
        broken = Campaign(config).run()
        assert broken.triage_total > 0
        assert not any(
            '"triage"' in line for line in open(config.artifact_path)
        )

        monkeypatch.undo()
        retried = Campaign(self._config(tmp_path)).run()
        assert retried.triage_reused == 0
        assert all(report.reduced_source for report in retried.tracker.reports)

    def test_round_budget_is_part_of_the_store_key(self, tmp_path):
        Campaign(self._config(tmp_path)).run()
        other = Campaign(self._config(tmp_path, reduce_rounds=2)).run()
        # Units are reused (same campaign key) but reductions are not: a
        # different round budget can reach a different fixpoint.
        assert other.units_reused == other.units_total
        assert other.triage_reused == 0

    def test_triage_lines_do_not_confuse_the_unit_loader(self, tmp_path):
        config = self._config(tmp_path)
        Campaign(config).run()
        store = ArtifactStore(config.artifact_path)
        # Unit loader must skip triage lines and vice versa.
        from repro.core.engine import campaign_key, triage_key
        from repro.core.generator import GeneratorConfig

        generator = GeneratorConfig(seed=3)
        unit_key = campaign_key(
            generator, ENABLED, ("p4c", "bmv2", "tofino"), 4, sequence_length=3
        )
        reduce_key = triage_key(
            generator,
            ENABLED,
            ("p4c", "bmv2", "tofino"),
            4,
            reduce_rounds=8,
            sequence_length=3,
        )
        units = store.load(unit_key)
        triaged = store.load_triage(reduce_key)
        assert units and triaged
        assert store.load_triage(unit_key) == {}
        assert store.load(reduce_key) == {}


# ----------------------------------------------------------------------
# Triage units run standalone (the examples/reduce_bug.py path)
# ----------------------------------------------------------------------

class TestStandaloneTriageUnit:
    def test_unit_from_crash_source(self):
        finding = FindingRecord(
            kind="crash",
            platform="p4c",
            pass_name="StrengthReduction",
            description="negative slice",
            signature="negative-slice-index",
        )
        unit = TriageUnit(
            identifier="p4c:strength_reduction_negative_slice",
            platform="p4c",
            source=CRASHING_PROGRAM,
            finding=finding,
            enabled_bugs=("strength_reduction_negative_slice",),
        )
        outcome = run_triage_unit(unit)
        assert outcome.status == TRIAGE_REDUCED
        assert outcome.reduced_size <= outcome.original_size
        assert outcome.localized_pass == "StrengthReduction"

    def test_unreproducible_unit_reports_unreproduced(self):
        finding = FindingRecord(
            kind="crash",
            platform="p4c",
            pass_name="StrengthReduction",
            description="",
            signature="no-such-signature",
        )
        unit = TriageUnit(
            identifier="p4c:ghost",
            platform="p4c",
            source=GATED_PROGRAM,
            finding=finding,
            enabled_bugs=(),
        )
        outcome = run_triage_unit(unit)
        assert outcome.status == "unreproduced"
        assert outcome.reduced_source == ""


class TestTriageCountsSwallowedErrors:
    """Every exception the triage stage swallows is counted on its outcome."""

    def crash_unit(self):
        return TriageUnit(
            identifier="p4c:strength_reduction_negative_slice",
            platform="p4c",
            source=CRASHING_PROGRAM,
            finding=FindingRecord(
                kind="crash",
                platform="p4c",
                pass_name="StrengthReduction",
                description="negative slice",
                signature="negative-slice-index",
            ),
            enabled_bugs=("strength_reduction_negative_slice",),
        )

    def test_clean_triage_counts_nothing(self):
        assert run_triage_unit(self.crash_unit()).errors == 0

    def test_failed_localization_is_counted(self, monkeypatch):
        from repro.core.reduce import localize

        def broken(*args, **kwargs):
            raise RuntimeError("localization failed")

        monkeypatch.setattr(localize, "localize_finding", broken)
        outcome = run_triage_unit(self.crash_unit())
        assert outcome.status == TRIAGE_REDUCED
        assert outcome.localized_pass == "StrengthReduction"
        assert outcome.errors == 1

    def test_apply_triage_sums_errors_into_the_counters(self):
        from repro.core.engine import CampaignStatistics, apply_triage

        statistics = CampaignStatistics()
        apply_triage(
            statistics,
            [
                TriageOutcome(identifier="p4c:a", status="unreproduced", errors=2),
                TriageOutcome(identifier="p4c:b", status=TRIAGE_REDUCED, errors=1),
            ],
        )
        assert statistics.counters["triage_errors"] == 3

    def test_campaign_counts_failed_localizations(self, monkeypatch):
        from repro.core.reduce import localize

        config = CampaignConfig(
            programs=4,
            seed=2020,
            enabled_bugs=("strength_reduction_negative_slice", "constant_folding_no_mask"),
            platforms=("p4c",),
            reduce=True,
        )
        clean = Campaign(config).run()
        assert clean.counters["triage_errors"] == 0

        def broken(*args, **kwargs):
            raise RuntimeError("localization failed")

        monkeypatch.setattr(localize, "localize_finding", broken)
        stats = Campaign(config).run()
        assert stats.triage_total == len(stats.tracker) > 0
        assert stats.counters["triage_errors"] == stats.triage_total

    def test_failed_reduction_is_counted(self, monkeypatch):
        from repro.core.reduce import reducer

        def broken(*args, **kwargs):
            raise RuntimeError("reduction failed")

        monkeypatch.setattr(reducer, "reduce_program", broken)
        outcome = run_triage_unit(self.crash_unit())
        assert outcome.status == "unreproduced"
        assert outcome.errors == 1
