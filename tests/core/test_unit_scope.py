"""A work unit is a function of itself, not of the units run before it.

``run_unit`` starts every program from empty term tables (the intern
table and the simplify/equivalence memos keyed by it), so a worker's term
state is bounded by one program and an outcome does not depend on what
its process checked earlier.  The knob-space probes below run many units
back to back in one process, so they exercise that unit-boundary reset
as well as the oracle's robustness across generator configurations.
"""

import random

from repro import smt
from repro.compiler.bugs import BUG_CATALOG
from repro.core.engine import WorkUnit, run_unit
from repro.core.engine.units import STATUS_ORACLE_ERROR
from repro.core.generator import GeneratorConfig
from repro.targets import BACKEND_REGISTRY

PLATFORMS = ("p4c",) + tuple(BACKEND_REGISTRY)


def unit(index: int) -> WorkUnit:
    return WorkUnit(
        program_index=index,
        platforms=PLATFORMS,
        generator=GeneratorConfig(seed=5, p_register=0.5),
        sequence_length=3,
    )


def without_timings(outcome) -> dict:
    payload = outcome.to_dict()
    for entry in payload["outcomes"]:
        entry.pop("elapsed_s")
    return payload


class TestUnitIndependence:
    def test_outcome_and_term_state_ignore_earlier_units(self):
        target = unit(3)

        smt.clear_term_caches()
        alone = without_timings(run_unit(target))
        alone_size = smt.intern_table_size()

        single_sizes = [alone_size]
        for index in (0, 1, 2):
            smt.clear_term_caches()
            run_unit(unit(index))
            single_sizes.append(smt.intern_table_size())

        smt.clear_term_caches()
        for index in (0, 1, 2):
            run_unit(unit(index))
        after_others = without_timings(run_unit(target))

        assert after_others == alone
        assert smt.intern_table_size() == alone_size
        assert smt.intern_table_size() <= max(single_sizes)


def random_knobs(rng: random.Random) -> GeneratorConfig:
    """A generator configuration drawn from the whole knob space."""

    return GeneratorConfig(
        seed=rng.randrange(1 << 30),
        max_apply_statements=rng.randint(1, 8),
        max_expression_depth=rng.randint(1, 3),
        p_function=rng.random(),
        p_table=rng.random(),
        max_tables=rng.randint(0, 3),
        p_many_tables=rng.random() * 0.5,
        p_parser=rng.random(),
        p_parser_cycle=rng.random(),
        p_wide_field=rng.random(),
        p_idiom=rng.random(),
        p_else=rng.random(),
        p_exit_in_action=rng.random(),
        p_header_stack=rng.random(),
        max_stack_size=rng.randint(2, 4),
        p_stack_parser_loop=rng.random(),
        p_local_arg_idiom=rng.random(),
        p_narrowing_cast=rng.random(),
        p_register=rng.random(),
        max_register_size=rng.randint(2, 4),
    )


def probe_unit(seed: int, seeded: bool = False) -> WorkUnit:
    """Probe ``seed``: random knobs and, if ``seeded``, 1-6 random defects."""

    rng = random.Random(seed)
    generator = random_knobs(rng)
    enabled_bugs = ()
    if seeded:
        catalog = sorted(BUG_CATALOG)
        enabled_bugs = tuple(sorted(rng.sample(catalog, rng.randint(1, 6))))
    return WorkUnit(
        program_index=rng.randrange(100),
        platforms=PLATFORMS,
        generator=generator,
        enabled_bugs=enabled_bugs,
        sequence_length=rng.randint(1, 3),
    )


PROBES = 24


class TestKnobSpaceRobustness:
    def test_clean_pipelines_file_nothing_anywhere_in_knob_space(self):
        alarms = []
        for seed in range(PROBES):
            for outcome in run_unit(probe_unit(seed)).outcomes:
                if outcome.findings or outcome.status == STATUS_ORACLE_ERROR:
                    alarms.append((seed, outcome.platform, outcome.status))
        assert alarms == []

    def test_random_defect_sets_never_raise_out_of_run_unit(self):
        for seed in range(PROBES):
            program = run_unit(probe_unit(seed, seeded=True))
            assert len(program.outcomes) == len(PLATFORMS)
