"""Tests for symbolic-execution test generation (§6)."""

import pytest

from repro import smt
from repro.compiler import CompilerOptions
from repro.core.generator import GeneratorConfig, RandomProgramGenerator
from repro.core.testgen import SymbolicTestGenerator, probe_stats
from repro.smt import CheckResult, Solver
from repro.p4 import parse_program
from repro.targets import Bmv2Target, PtfRunner, PtfTest, StfRunner, StfTest, TofinoTarget


PRELUDE = """
header Hdr_t {
    bit<8> a;
    bit<8> b;
}

struct Headers {
    Hdr_t h;
    Hdr_t eth;
}
"""


def make_program(body: str, locals_: str = "", extra: str = ""):
    return parse_program(
        PRELUDE
        + extra
        + "control ingress(inout Headers hdr) {\n"
        + locals_
        + "\n    apply {\n"
        + body
        + "\n    }\n}\n"
    )


def run_tests_against(program, target, runner_cls, test_cls, max_tests=6):
    generator = SymbolicTestGenerator(program, max_tests=max_tests)
    tests = generator.generate()
    assert tests, "expected at least one generated test"
    executable = target.compile(program)
    runner = runner_cls(executable)
    results = []
    for generated in tests:
        packet = generated.build_packet(program)
        results.append(
            runner.run_test(
                test_cls(
                    name=generated.name,
                    input_packet=packet,
                    expected=generated.expected,
                    entries=generated.entries,
                    ignore_paths=generated.ignore_paths,
                )
            )
        )
    return results


class TestTestGeneration:
    def test_generates_path_covering_tests(self):
        program = make_program(
            "if (hdr.h.a == 8w1) { hdr.h.b = 8w10; } else { hdr.h.b = 8w20; }"
        )
        tests = SymbolicTestGenerator(program, max_tests=8).generate()
        values = {test.input_values.get("h.a") for test in tests}
        # Both sides of the branch should be exercised.
        assert any(value == 1 for value in values)
        assert any(value not in (None, 1) for value in values)

    def test_prefers_nonzero_inputs(self):
        program = make_program("hdr.eth.a = hdr.h.a;")
        tests = SymbolicTestGenerator(program, max_tests=1).generate()
        assert tests[0].input_values["h.a"] != 0

    def test_table_entries_derived_from_model(self):
        locals_ = """
    action set_b(bit<8> val) {
        hdr.h.b = val;
    }
    table t {
        key = { hdr.h.a : exact; }
        actions = { set_b(); NoAction(); }
        default_action = NoAction();
    }
"""
        program = make_program("t.apply();", locals_=locals_)
        tests = SymbolicTestGenerator(program, max_tests=8).generate()
        assert any(test.entries for test in tests)
        for test in tests:
            for entry in test.entries:
                assert entry.table == "t"
                assert entry.action in ("set_b", "NoAction")

    def test_expected_marks_invalid_headers(self):
        program = make_program("hdr.h.setInvalid();")
        tests = SymbolicTestGenerator(program, max_tests=1).generate()
        assert tests[0].expected["h.$valid"] is False
        assert tests[0].expected["h.a"] is None


class TestOracleAgreesWithCorrectTargets:
    BODIES = [
        "hdr.h.a = hdr.h.a + 8w3; hdr.eth.b = hdr.h.a ^ hdr.h.b;",
        "if (hdr.h.a < hdr.h.b) { hdr.eth.a = 8w1; } else { hdr.eth.a = 8w2; }",
        "hdr.h.setInvalid(); hdr.eth.a = hdr.h.a; hdr.h.setValid();",
        "bit<8> tmp = hdr.h.a * 8w4; hdr.h.b = tmp - 8w2;",
        "exit; hdr.h.a = 8w9;",
    ]

    @pytest.mark.parametrize("body", BODIES)
    def test_bmv2_oracle_agreement(self, body):
        program = make_program(body)
        results = run_tests_against(program, Bmv2Target(), StfRunner, StfTest)
        for result in results:
            assert result.passed, (result.mismatches, result.error)

    @pytest.mark.parametrize("body", BODIES)
    def test_tofino_oracle_agreement(self, body):
        program = make_program(body)
        results = run_tests_against(program, TofinoTarget(), PtfRunner, PtfTest)
        for result in results:
            assert result.passed, (result.mismatches, result.error)

    def test_oracle_agreement_with_tables(self):
        locals_ = """
    action set_b(bit<8> val) {
        hdr.h.b = val;
    }
    table t {
        key = { hdr.h.a : exact; }
        actions = { set_b(); NoAction(); }
        default_action = NoAction();
    }
"""
        program = make_program("t.apply(); hdr.eth.a = hdr.h.b;", locals_=locals_)
        results = run_tests_against(program, Bmv2Target(), StfRunner, StfTest)
        for result in results:
            assert result.passed, (result.mismatches, result.error)

    @pytest.mark.parametrize("seed", range(5))
    def test_oracle_agreement_on_generated_programs(self, seed):
        program = RandomProgramGenerator(
            GeneratorConfig(seed=seed, p_parser=0.0)
        ).generate()
        results = run_tests_against(program, Bmv2Target(), StfRunner, StfTest, max_tests=3)
        for result in results:
            assert result.passed, (result.mismatches, result.error)


class TestBlackBoxBugDetection:
    def test_tofino_semantic_bug_detected_without_ir_access(self):
        body = "if (!(hdr.h.a == 8w1)) { hdr.h.b = 8w5; } else { hdr.h.b = 8w6; }"
        program = make_program(body)
        buggy = TofinoTarget(
            CompilerOptions(enabled_bugs={"tofino_ternary_condition_flip"})
        )
        results = run_tests_against(program, buggy, PtfRunner, PtfTest)
        assert any(not result.passed for result in results)

    def test_tofino_slice_drop_detected(self):
        program = make_program("hdr.h.a[3:0] = 4w15; hdr.eth.a = hdr.h.a;")
        buggy = TofinoTarget(
            CompilerOptions(enabled_bugs={"tofino_slice_assignment_drop"})
        )
        results = run_tests_against(program, buggy, PtfRunner, PtfTest)
        assert any(not result.passed for result in results)

    def test_bmv2_wide_field_truncation_detected(self):
        source = """
header Wide_t {
    bit<48> addr;
}
struct Headers {
    Wide_t w;
}
control ingress(inout Headers hdr) {
    apply {
        hdr.w.addr = 48w0xAABBCCDDEEFF;
    }
}
"""
        program = parse_program(source)
        buggy = Bmv2Target(CompilerOptions(enabled_bugs={"bmv2_wide_field_truncation"}))
        results = run_tests_against(program, buggy, StfRunner, StfTest)
        assert any(not result.passed for result in results)


class ProbeSpy:
    """Record, per path probe, whether it was witnessed and what it cost.

    Wraps the generator's witness lookup (called once at the start of
    every probe) and :meth:`Solver.check_preferring` (the one solver entry
    of a probe that was not witnessed).
    """

    def __init__(self, monkeypatch):
        #: (constraint, witnessed, sat_invocations at the probe's start)
        self.probes = []
        #: ``extra`` of every check whose retry without preferences the
        #: UNSAT core made unnecessary.
        self.core_skips = []
        #: How many checks did retry without preferences.
        self.retries = 0
        witness = SymbolicTestGenerator._witness
        check_preferring = Solver.check_preferring

        def spy_witness(constraint, witnesses):
            model = witness(constraint, witnesses)
            self.probes.append(
                (constraint, model is not None, smt.STATS.sat_invocations)
            )
            return model

        def spy_check_preferring(solver, extra, preferences, max_conflicts=None):
            checks = smt.STATS.checks
            verdict = check_preferring(solver, extra, preferences, max_conflicts)
            if preferences and smt.STATS.checks == checks + 2:
                self.retries += 1
            elif preferences and verdict == CheckResult.UNSAT:
                self.core_skips.append(tuple(extra))
            return verdict

        monkeypatch.setattr(SymbolicTestGenerator, "_witness", staticmethod(spy_witness))
        monkeypatch.setattr(Solver, "check_preferring", spy_check_preferring)


class TestProbeSkips:
    """Witnessed probes and core-skipped retries never change a verdict."""

    def test_skipped_work_re_solves_to_the_same_verdict(self, monkeypatch):
        spy = ProbeSpy(monkeypatch)
        for seed in range(24):
            config = GeneratorConfig(seed=seed, p_register=0.5 if seed % 2 else 0.0)
            program = RandomProgramGenerator(config).generate()
            generator = SymbolicTestGenerator(program, max_tests=8, sequence_length=2)
            probes, core_skips = len(spy.probes), len(spy.core_skips)
            generator.generate_sequences()
            preferences = generator._preferences()
            for constraint, witnessed, _ in spy.probes[probes:]:
                if witnessed:
                    fresh = generator._base_solver()
                    assert fresh.check(constraint, *preferences) == CheckResult.SAT, seed
            for extra in spy.core_skips[core_skips:]:
                fresh = generator._base_solver()
                assert fresh.check(*extra) == CheckResult.UNSAT, seed
        # Not vacuous: both skips fired, and some preference retry still ran.
        assert any(witnessed for _, witnessed, _ in spy.probes)
        assert spy.core_skips
        assert spy.retries

    def test_witnessed_probe_costs_no_sat_call_and_adds_no_test(self, monkeypatch):
        program = make_program(
            "if (hdr.h.a == 8w1) { hdr.h.b = 8w10; } else { hdr.h.b = 8w20; }"
        )
        spy = ProbeSpy(monkeypatch)
        before = probe_stats()
        tests = SymbolicTestGenerator(program, max_tests=8).generate()
        after = smt.STATS.sat_invocations
        # Probes: true, the branch condition, its negation.  The model of
        # ``true`` misses ``a == 1``, so it witnesses the negation.
        assert [witnessed for _, witnessed, _ in spy.probes] == [False, False, True]
        starts = [start for _, _, start in spy.probes] + [after]
        costs = [end - start for start, end in zip(starts, starts[1:])]
        assert costs == [0 if w else 1 for _, w, _ in spy.probes]
        assert len(tests) == 2
        delta = {key: probe_stats()[key] - before[key] for key in before}
        assert delta == {"testgen_probes_witnessed": 1, "testgen_probes_infeasible": 0}

    def test_witnessed_probes_count_toward_max_tests(self, monkeypatch):
        program = make_program(
            "if (hdr.h.a != 8w1) { hdr.h.b = 8w10; } else { hdr.h.b = 8w20; }"
        )
        spy = ProbeSpy(monkeypatch)
        tests = SymbolicTestGenerator(program, max_tests=2).generate()
        # The model of ``true`` witnesses ``a != 1``: two probes are
        # covered, which is the cap, so ``a == 1`` is never probed.
        assert [witnessed for _, witnessed, _ in spy.probes] == [False, True]
        assert len(tests) == 1

    def test_model_missing_a_preference_witnesses_nothing(self, monkeypatch):
        program = make_program(
            "if (hdr.h.a == 8w0) { hdr.h.b = 8w1; }"
            " if (hdr.h.a < 8w1) { hdr.eth.a = 8w2; }"
        )
        spy = ProbeSpy(monkeypatch)
        SymbolicTestGenerator(program, max_tests=8).generate()
        # ``a == 0`` drops the preference ``a != 0``; its model then
        # satisfies ``a < 1`` but must not witness it, because that probe's
        # check with preferences may find a different (non-zero) model.
        # Only the all-non-zero model of ``true`` witnesses the negations.
        assert [witnessed for _, witnessed, _ in spy.probes] == [
            False, False, True, False, True, False, True,
        ]
        assert spy.retries == 3
