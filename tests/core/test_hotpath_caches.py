"""Regression tests for the validation hot path.

Two properties the campaign engine must keep:

* a program is checked once: each (program, prefix-defect set) is
  compiled once and each distinct snapshot source is interpreted once per
  program, however many platforms the program is checked on, and
* batched equivalence checking is a pure accelerator — forcing the
  sequential fallback yields an identical validation report.
"""

from collections import Counter

from repro import smt
from repro.compiler import CompilerOptions, compile_front_midend
from repro.core import validation
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.engine import stages
from repro.core.generator import GeneratorConfig
from repro.core.validation import TranslationValidator, ValidationOutcome
from repro.p4 import emit_program


def small_generator(seed):
    return GeneratorConfig(
        seed=seed, max_apply_statements=4, max_expression_depth=2, p_parser=0.2
    )


class TestEachProgramIsCheckedOnce:
    """Spy on the compiler and the interpreter during a ``jobs=1`` campaign."""

    BUGS = ("constant_folding_no_mask", "bmv2_wide_field_truncation")

    def _spy_campaign(self, monkeypatch, programs=4):
        current = {"index": None}
        compiles = []
        interpretations = []
        run_unit = stages.run_unit
        compile_real = stages.compile_front_midend

        def spy_run_unit(unit):
            current["index"] = unit.program_index
            return run_unit(unit)

        def spy_compile(program, options):
            compiles.append((current["index"], frozenset(options.enabled_bugs)))
            return compile_real(program, options)

        class SpyInterpreter(validation.SymbolicInterpreter):
            def interpret(self):
                interpretations.append((current["index"], emit_program(self.program)))
                return super().interpret()

        monkeypatch.setattr(stages, "run_unit", spy_run_unit)
        monkeypatch.setattr(stages, "compile_front_midend", spy_compile)
        monkeypatch.setattr(validation, "SymbolicInterpreter", SpyInterpreter)
        stats = Campaign(
            CampaignConfig(
                programs=programs,
                seed=11,
                enabled_bugs=self.BUGS,
                platforms=("p4c", "bmv2", "tofino"),
                generator=small_generator(11),
            )
        ).run()
        return stats, compiles, interpretations

    def test_each_prefix_defect_set_is_compiled_once_per_program(self, monkeypatch):
        stats, compiles, _ = self._spy_campaign(monkeypatch)
        assert stats.units_total == 12
        # p4c compiles with its front/mid-end defect, the two back ends
        # share one clean prefix (backend defects never reach it).
        assert Counter(compiles) == {
            (index, bugs): 1
            for index in range(4)
            for bugs in (frozenset({"constant_folding_no_mask"}), frozenset())
        }

    def test_each_snapshot_source_is_interpreted_once_per_program(self, monkeypatch):
        stats, _, interpretations = self._spy_campaign(monkeypatch)
        assert interpretations
        repeated = [key for key, count in Counter(interpretations).items() if count > 1]
        assert repeated == []
        # Clean chains settle in ganged UNSAT checks, not per-pair solves.
        assert stats.counters.get("solver_batched_checks", 0) > 0


class TestSequentialFallbackIsPureSlowdown:
    def _reports(self, source, bugs, monkeypatch):
        def run(batched):
            smt.clear_term_caches()
            result = compile_front_midend(
                source, CompilerOptions(enabled_bugs=set(bugs))
            )
            with monkeypatch.context() as patch:
                if not batched:
                    patch.setattr(
                        smt, "all_equivalent", lambda pairs, **kwargs: False
                    )
                return TranslationValidator().validate_compilation(result)

        return run(batched=True), run(batched=False)

    def test_clean_program_reports_match(self, monkeypatch):
        source = (
            "header Hdr_t { bit<8> a; bit<8> b; }\n"
            "struct Headers { Hdr_t h; }\n"
            "control ingress(inout Headers hdr) {\n"
            "    apply { hdr.h.a = hdr.h.b * 8w4; hdr.h.b = 8w1 - 8w2; }\n}\n"
        )
        batched, sequential = self._reports(source, (), monkeypatch)
        assert batched.outcome == ValidationOutcome.EQUIVALENT
        assert sequential.outcome == ValidationOutcome.EQUIVALENT

    def test_buggy_program_divergences_match(self, monkeypatch):
        source = (
            "header Hdr_t { bit<8> a; bit<8> b; }\n"
            "struct Headers { Hdr_t h; }\n"
            "control ingress(inout Headers hdr) {\n"
            "    apply { hdr.h.a = hdr.h.b * 8w4; }\n}\n"
        )
        batched, sequential = self._reports(
            source, ("strength_reduction_shift_semantics",), monkeypatch
        )
        assert batched.outcome == ValidationOutcome.SEMANTIC_BUG
        assert sequential.outcome == ValidationOutcome.SEMANTIC_BUG
        assert len(batched.divergences) == len(sequential.divergences)
        for left, right in zip(batched.divergences, sequential.divergences):
            assert left.pass_name == right.pass_name
            assert left.before_pass == right.before_pass
            assert left.block == right.block
            assert left.output_path == right.output_path
            assert left.witness == right.witness
