"""Stateful campaigns: multi-packet sequences, registers/counters end to end.

The stateful-execution acceptance campaign: with register generation
enabled, seeded campaigns must detect all three ``StatefulLowering``
defects (attributed to that pass), the eBPF flush defect must be reachable
*only* through multi-packet sequences, reports must stay byte-identical
across ``jobs`` and the distributed fleet, and sequence metadata must
survive the store wire formats and the triage stage.
"""

import pytest

from repro.compiler import CompilerOptions, compile_front_midend
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.engine.units import (
    FindingRecord,
    TriageOutcome,
    TriageUnit,
    WorkUnit,
)
from repro.core.generator import GeneratorConfig, RandomProgramGenerator
from repro.core.reduce.oracles import build_predicate, packet_mismatch
from repro.core.reduce.reducer import gate_polish_transforms, reduce_program
from repro.core.reduce.transforms import shrink_registers
from repro.core.testgen import build_test_sequences, program_has_state
from repro.p4 import ast, check_program, emit_program, parse_program
from repro.targets import BACKEND_REGISTRY

STATEFUL_MIDEND_DEFECTS = (
    "stateful_rmw_lost_update",
    "stateful_read_write_reorder",
    "stateful_spill_width_narrow",
)
EBPF_DEFECT = "ebpf_register_write_drops_high_byte"

SEED = 7
PROGRAMS = 10


def stateful_config(**overrides) -> CampaignConfig:
    defaults = dict(
        programs=PROGRAMS,
        seed=SEED,
        generator=GeneratorConfig(seed=SEED, p_register=0.9),
        platforms=("p4c",),
        jobs=1,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def reports(stats):
    return [report.to_dict() for report in stats.tracker.reports]


#: A minimal stateful program for oracle-level tests: one counter cell and
#: a write-then-read register pair feeding a header field.
STATEFUL_SOURCE = """
header Hdr_t { bit<8> a; bit<8> b; bit<16> c; }
struct Headers { Hdr_t h; }
control ingress(inout Headers hdr) {
    register<bit<8>>(2) r8;
    counter(2) cnt;
    apply {
        cnt.count(32w0);
        r8.write(32w0, (hdr.h.b + 8w5));
        r8.read(hdr.h.b, 32w0);
    }
}
"""


def _link_backend(program, platform, enabled_bugs=()):
    spec = BACKEND_REGISTRY[platform]
    options = CompilerOptions(enabled_bugs=set(enabled_bugs), target=platform)
    result = compile_front_midend(program.clone(), options)
    return spec.target_cls(options).link(result), spec


# ----------------------------------------------------------------------
# Generator: the p_register knob
# ----------------------------------------------------------------------

class TestStatefulGenerator:
    def test_default_corpus_is_stateless_and_draw_free(self):
        """p_register=0.0 draws no randomness: the unused size knob is inert."""

        plain = RandomProgramGenerator(GeneratorConfig(seed=5)).generate_many(6)
        perturbed = RandomProgramGenerator(
            GeneratorConfig(seed=5, max_register_size=9)
        ).generate_many(6)
        assert [emit_program(p) for p in plain] == [
            emit_program(p) for p in perturbed
        ]
        for program in plain:
            assert not program_has_state(program)

    @pytest.mark.parametrize("seed", range(6))
    def test_stateful_corpus_typechecks_and_round_trips(self, seed):
        generator = RandomProgramGenerator(
            GeneratorConfig(seed=seed, p_register=1.0)
        )
        program = generator.generate()
        check_program(program)
        emitted = emit_program(program)
        assert emit_program(parse_program(emitted)) == emitted

    def test_stateful_block_carries_every_trigger_idiom(self):
        source = emit_program(
            RandomProgramGenerator(GeneratorConfig(seed=1, p_register=1.0)).generate()
        )
        # Double count on one cell, write-then-read on r8, wide RMW on r16.
        assert source.count("cnt.count") == 2
        assert "r8.write" in source and "r8.read" in source
        assert "r16.write" in source and source.count("r16.read") == 2


# ----------------------------------------------------------------------
# Detection
# ----------------------------------------------------------------------

class TestStatefulDefectDetection:
    @pytest.mark.parametrize("bug_id", STATEFUL_MIDEND_DEFECTS)
    def test_campaign_attributes_defect_to_stateful_lowering(self, bug_id):
        stats = Campaign(stateful_config(enabled_bugs=(bug_id,))).run()
        report = stats.tracker.get(f"p4c:{bug_id}")
        assert report is not None
        assert report.pass_name == "StatefulLowering"
        assert report.seeded_bug_id == bug_id

    def test_ebpf_flush_defect_needs_state_aware_comparison(self):
        """Within one packet the read-back reads the full scratch value, so
        the packet *output* is always correct at length 1 — any single-packet
        detection of the flush truncation can only come from the final
        ``$state.*`` comparison, never from a payload mismatch."""

        single = Campaign(
            stateful_config(
                enabled_bugs=(EBPF_DEFECT,), platforms=("ebpf",), sequence_length=1
            )
        ).run()
        for report in single.tracker.reports:
            assert "final state diverged" in report.description

        sequenced = Campaign(
            stateful_config(
                enabled_bugs=(EBPF_DEFECT,), platforms=("ebpf",), sequence_length=3
            )
        ).run()
        report = sequenced.tracker.get(f"ebpf:{EBPF_DEFECT}")
        assert report is not None
        assert report.seeded_bug_id == EBPF_DEFECT

    def test_clean_stateful_campaign_files_nothing(self):
        stats = Campaign(
            stateful_config(
                programs=6,
                enabled_bugs=(),
                platforms=("p4c", "bmv2", "tofino", "ebpf"),
            )
        ).run()
        assert len(stats.tracker) == 0
        assert stats.oracle_errors == 0


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

class TestStatefulDeterminism:
    def test_parallel_matches_serial_byte_identical(self):
        enabled = STATEFUL_MIDEND_DEFECTS + (EBPF_DEFECT,)
        platforms = ("p4c", "ebpf")
        serial = Campaign(
            stateful_config(enabled_bugs=enabled, platforms=platforms, jobs=1)
        ).run()
        parallel = Campaign(
            stateful_config(enabled_bugs=enabled, platforms=platforms, jobs=4)
        ).run()
        assert serial.tracker.reports
        assert reports(parallel) == reports(serial)

    def test_distributed_fleet_matches_serial_byte_identical(self):
        enabled = STATEFUL_MIDEND_DEFECTS + (EBPF_DEFECT,)
        platforms = ("p4c", "ebpf")
        serial = Campaign(
            stateful_config(enabled_bugs=enabled, platforms=platforms)
        ).run()
        fleet = Campaign(
            stateful_config(
                enabled_bugs=enabled, platforms=platforms, distributed=2
            )
        ).run()
        assert serial.tracker.reports
        assert reports(fleet) == reports(serial)


# ----------------------------------------------------------------------
# Triage: reduction, register shrinking, sequence-length minimization
# ----------------------------------------------------------------------

class TestStatefulTriage:
    @pytest.mark.parametrize("bug_id", STATEFUL_MIDEND_DEFECTS)
    def test_reduced_stateful_reports_survive_triage(self, bug_id):
        stats = Campaign(
            stateful_config(enabled_bugs=(bug_id,), reduce=True)
        ).run()
        report = stats.tracker.get(f"p4c:{bug_id}")
        assert report is not None
        assert report.reduced_source, f"{bug_id} was not reduced"
        reduced = parse_program(report.reduced_source)
        check_program(reduced)
        # A stateful defect's minimized trigger must still be stateful.
        assert program_has_state(reduced)
        assert report.reduction_ratio > 0
        # p4c findings are single-snapshot equivalence checks; no sequence
        # minimization applies and the default length stands.
        assert report.sequence_length == 1

    def test_backend_triage_records_minimal_sequence_length(self):
        stats = Campaign(
            stateful_config(
                programs=6,
                enabled_bugs=(EBPF_DEFECT,),
                platforms=("ebpf",),
                reduce=True,
            )
        ).run()
        report = stats.tracker.get(f"ebpf:{EBPF_DEFECT}")
        assert report is not None
        assert report.reduced_source
        # The recorded length is the minimizer's contract: the reduced
        # trigger still reproduces at that length, and (when it is more
        # than one packet) the length-1 probe was rejected.
        assert 1 <= report.sequence_length <= 3
        finding = FindingRecord(
            kind="semantic",
            platform="ebpf",
            pass_name="backend",
            description=report.description,
            attributed_bugs=(EBPF_DEFECT,),
        )
        reduced = parse_program(report.reduced_source)
        at_recorded = build_predicate(
            finding, "ebpf", (EBPF_DEFECT,), max_tests=4,
            sequence_length=report.sequence_length,
        )
        assert at_recorded(reduced)
        if report.sequence_length > 1:
            at_one = build_predicate(
                finding, "ebpf", (EBPF_DEFECT,), max_tests=4, sequence_length=1
            )
            assert not at_one(reduced)

    def test_shrink_registers_collapses_banks_smallest_first(self):
        program = parse_program(STATEFUL_SOURCE)
        calls = []

        def accept(candidate):
            calls.append(1)
            return True

        assert shrink_registers(program, accept)
        sizes = [
            local.size
            for control in program.controls()
            for local in control.locals
            if isinstance(
                local, (ast.RegisterDeclaration, ast.CounterDeclaration)
            )
        ]
        assert sizes == [1, 1]
        # Smallest-first: one accepted probe per bank, no ladder walking.
        assert len(calls) == 2

    def test_polish_gate_skips_low_yield_classes(self):
        quality = {
            "prune_table_properties": {"oracle_calls": 50, "kept_edits": 1},
            "shrink_headers": {"oracle_calls": 40, "kept_edits": 30},
        }
        kept, skipped = gate_polish_transforms(quality)
        assert skipped == ["prune_table_properties"]
        assert any(t.__name__ == "shrink_headers" for t in kept)
        # No history -> no gating; empty dict disables the gate entirely.
        kept_all, skipped_none = gate_polish_transforms({})
        assert not skipped_none and len(kept_all) >= len(kept)

    def test_reduce_program_records_gated_polish(self):
        program = parse_program(STATEFUL_SOURCE)
        low_yield = {
            "prune_table_properties": {"oracle_calls": 50, "kept_edits": 0},
            "shrink_headers": {"oracle_calls": 50, "kept_edits": 0},
        }
        result = reduce_program(
            program,
            lambda candidate: program_has_state(candidate),
            polish_quality=low_yield,
        )
        assert result.reproduced
        assert sorted(result.polish_skipped) == [
            "prune_table_properties",
            "shrink_headers",
        ]
        assert "shrink_headers" not in result.transform_stats


# ----------------------------------------------------------------------
# Resume with state: interrupted replays must not leak half-sequences
# ----------------------------------------------------------------------

class TestSequenceResume:
    def test_half_replayed_sequence_files_no_finding(self):
        """A worker killed mid-sequence leaves the executable's switch state
        polluted; the oracle must reset state per sequence, so replaying on
        a clean backend never produces a finding."""

        program = parse_program(STATEFUL_SOURCE)
        executable, spec = _link_backend(program, "ebpf")
        sequences = build_test_sequences(program, 4, 3)
        assert sequences and len(sequences[0].packets) == 3

        # Simulate the kill: replay one packet, then abandon the sequence,
        # leaving the executable's live register/counter maps polluted.
        runner = spec.runner_cls(executable)
        first = sequences[0].packets[0]
        runner.run_test(
            spec.test_cls(
                name=first.name,
                input_packet=first.build_packet(program),
                expected=first.expected,
                entries=first.entries,
                ignore_paths=first.ignore_paths,
            )
        )
        # Scribble on a counter cell too, so the pollution is guaranteed
        # even if the abandoned packet carried an invalid header.
        state = executable.switch_state()
        _width, cells = state.banks["cnt"]
        cells[0] = 999

        # The resumed oracle replays from packet 0 with reset state; the
        # polluted cells must not leak into the final-state comparison.
        assert packet_mismatch(program, sequences, executable, spec) is None

    def test_interrupted_campaign_resumes_to_identical_reports(self, tmp_path):
        path = str(tmp_path / "stateful.jsonl")
        enabled = (STATEFUL_MIDEND_DEFECTS[0], EBPF_DEFECT)
        platforms = ("p4c", "ebpf")
        reference = Campaign(
            stateful_config(enabled_bugs=enabled, platforms=platforms)
        ).run()
        assert reference.tracker.reports

        first = Campaign(
            stateful_config(
                enabled_bugs=enabled, platforms=platforms, artifact_path=path
            )
        ).run()
        assert reports(first) == reports(reference)

        # Kill mid-campaign: keep a prefix of the store and tear the tail
        # mid-line (the unit whose sequence replay was interrupted never
        # recorded an outcome, and its torn line must not count either).
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        assert len(lines) > 4
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:4])
            handle.write(lines[4][: len(lines[4]) // 2])

        resumed = Campaign(
            stateful_config(
                enabled_bugs=enabled, platforms=platforms, artifact_path=path
            )
        ).run()
        assert reports(resumed) == reports(reference)
        assert 0 < resumed.units_reused < resumed.units_total


# ----------------------------------------------------------------------
# Wire formats: sequence metadata round-trips, old payloads still load
# ----------------------------------------------------------------------

class TestSequenceWireFormats:
    def test_work_unit_round_trips_sequence_length(self):
        unit = WorkUnit(
            program_index=2,
            platforms=("ebpf",),
            generator=GeneratorConfig(seed=9, p_register=0.5),
            enabled_bugs=(EBPF_DEFECT,),
            sequence_length=3,
        )
        clone = WorkUnit.from_dict(unit.to_dict())
        assert clone == unit

        legacy = unit.to_dict()
        del legacy["sequence_length"]
        assert WorkUnit.from_dict(legacy).sequence_length == 1

    def test_triage_unit_round_trips_sequence_length(self):
        unit = TriageUnit(
            identifier=f"ebpf:{EBPF_DEFECT}",
            platform="ebpf",
            source=STATEFUL_SOURCE,
            finding=FindingRecord(
                kind="semantic",
                platform="ebpf",
                pass_name="backend",
                description="packet test failed",
                attributed_bugs=(EBPF_DEFECT,),
            ),
            enabled_bugs=(EBPF_DEFECT,),
            sequence_length=3,
        )
        clone = TriageUnit.from_dict(unit.to_dict())
        assert clone == unit
        legacy = unit.to_dict()
        del legacy["sequence_length"]
        assert TriageUnit.from_dict(legacy).sequence_length == 1

    def test_triage_outcome_round_trips_min_sequence_length(self):
        outcome = TriageOutcome(
            identifier="ebpf:x",
            status="reduced",
            reduced_source="control c() { apply { } }",
            min_sequence_length=2,
        )
        clone = TriageOutcome.from_dict(outcome.to_dict())
        assert clone.min_sequence_length == 2
        legacy = outcome.to_dict()
        del legacy["min_sequence_length"]
        assert TriageOutcome.from_dict(legacy).min_sequence_length == 0

    def test_failed_sequence_length_probe_is_counted(self, monkeypatch):
        from repro.core.engine import stages

        unit = TriageUnit(
            identifier=f"ebpf:{EBPF_DEFECT}",
            platform="ebpf",
            source=STATEFUL_SOURCE,
            finding=FindingRecord(
                kind="semantic",
                platform="ebpf",
                pass_name="backend",
                description="packet test failed",
                attributed_bugs=(EBPF_DEFECT,),
            ),
            enabled_bugs=(EBPF_DEFECT,),
            sequence_length=3,
        )
        program = parse_program(STATEFUL_SOURCE)
        assert stages._minimize_sequence_length(unit, program)[1] == 0

        def broken(*args, **kwargs):
            raise RuntimeError("predicate failed")

        monkeypatch.setattr(stages, "build_predicate", broken)
        assert stages._minimize_sequence_length(unit, program) == (3, 1)

    def test_bug_report_schema_round_trip_and_compat(self):
        from repro.core.bugs import BUG_REPORT_SCHEMA, BugReport

        assert BUG_REPORT_SCHEMA == 4
        stats = Campaign(
            stateful_config(enabled_bugs=(STATEFUL_MIDEND_DEFECTS[0],))
        ).run()
        report = stats.tracker.reports[0]
        payload = report.to_dict()
        assert payload["schema_version"] == 4
        assert BugReport.from_dict(payload) == report

        # A v2 record (pre-sequence, pre-provenance) loads with the
        # single-packet default.
        legacy = dict(payload)
        legacy["schema_version"] = 2
        del legacy["sequence_length"]
        del legacy["knob_arm"]
        del legacy["knob_overrides"]
        assert BugReport.from_dict(legacy).sequence_length == 1

        # Records newer than the reader are refused, not misread.
        future = dict(payload)
        future["schema_version"] = BUG_REPORT_SCHEMA + 1
        with pytest.raises(ValueError):
            BugReport.from_dict(future)
