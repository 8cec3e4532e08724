"""Feedback-directed knob scheduling for the campaign generator.

The static steering table (:data:`MATRIX_STEERING`) maps a seeded defect's
trigger features to generator knob overrides.  It is a good prior but a blind
one: it never learns which knob vectors actually light the coverage cells a
campaign has not seen yet.  This module closes that loop.

Three pieces:

* :class:`KnobArm` — a named, frozen knob-override vector.  The catalog
  (:data:`ARM_CATALOG`) mirrors the unions the static steering table can
  produce, so a scheduled campaign explores the same knob space the static
  baseline occupies (plus the un-steered baseline arm).
* :class:`BanditScheduler` — a seeded epsilon-greedy multi-armed bandit.
  The reward for pulling an arm is the number of *previously uncovered*
  coverage cells the resulting programs lit, so the bandit drifts toward
  arms that still produce novelty and away from saturated ones.  Every
  random draw is seeded through :func:`derive_child_seed`, making the arm
  sequence a pure function of the campaign seed — jobs=1, jobs=4 and
  distributed runs schedule identically.
* :func:`train_profiles` / :func:`choose_arm_for_defect` — a compile-only
  calibration pass for the detection matrix.  Each arm generates a handful
  of unseeded programs; the per-cell hit rates become an
  :class:`ArmProfile`.  ``choose_arm_for_defect`` scores arms by the
  product of the defect's trigger-feature hit rates and only displaces the
  static-steering arm when a challenger beats it by a clear margin, so the
  scheduled matrix never spends more tries than the static baseline unless
  the profiles show a genuinely better arm.

Determinism contract: nothing in this module reads wall-clock time, process
identity, or unseeded randomness.  Same seed, same catalog, same observed
coverage => same decisions, on any executor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.compiler import CompilerOptions, compile_front_midend
from repro.compiler.bugs import SeededBug
from repro.compiler.coverage import CoverageMap, feature_cell, program_features
from repro.core.generator import (
    GeneratorConfig,
    RandomProgramGenerator,
    derive_child_seed,
)

__all__ = [
    "ARM_CATALOG",
    "ArmProfile",
    "BanditScheduler",
    "KnobArm",
    "MATRIX_STEERING",
    "choose_arm_for_defect",
    "static_arm_for_bug",
    "train_profiles",
]


# ----------------------------------------------------------------------
# Static steering table (canonical home; the engine imports it from here)
# ----------------------------------------------------------------------

#: Per-trigger-feature generator overrides used by the static detection
#: matrix.  Kept here (not in the engine) so the arm catalog below can be
#: checked against it without an import cycle.
MATRIX_STEERING: Mapping[str, Mapping[str, object]] = {
    "header_stack": {"p_header_stack": 0.8},
    "function": {"p_function": 1.0},
    "inout_param": {"p_local_arg_idiom": 0.8},
    "shift": {"p_idiom": 0.9},
    "multiple_keys": {"p_table": 1.0, "max_tables": 3},
    "table": {"p_table": 1.0},
    "cast": {"p_idiom": 0.9, "p_narrowing_cast": 0.9},
    "parser_cycle": {"p_parser": 0.8, "p_parser_cycle": 0.6},
    "register": {"p_register": 0.9},
    "counter": {"p_register": 0.9},
}


# ----------------------------------------------------------------------
# Knob arms
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KnobArm:
    """A named generator knob vector the scheduler can pull.

    ``overrides`` is a tuple of ``(knob, value)`` pairs so the arm is
    hashable and survives the pickled work-unit wire format unchanged.
    """

    name: str
    overrides: Tuple[Tuple[str, object], ...] = ()

    def apply(self, generator: GeneratorConfig) -> GeneratorConfig:
        """Overlay this arm on ``generator``, touching only default knobs.

        Same discipline as the static steering path: a knob the caller set
        explicitly (anything not at its dataclass default) wins over the
        arm, so user configuration is never silently overridden.
        """

        defaults = GeneratorConfig.__dataclass_fields__
        applicable = {
            knob: value
            for knob, value in self.overrides
            if getattr(generator, knob) == defaults[knob].default
        }
        if not applicable:
            return generator
        return replace(generator, **applicable)

    def overrides_dict(self) -> Dict[str, object]:
        return dict(self.overrides)


def _arm(name: str, **overrides: object) -> KnobArm:
    return KnobArm(name=name, overrides=tuple(sorted(overrides.items())))


#: The arm catalog.  Every union of :data:`MATRIX_STEERING` rows that a
#: catalog defect can produce appears here, plus the un-steered baseline,
#: so the bandit explores a superset of what static steering exploits.
ARM_CATALOG: Tuple[KnobArm, ...] = (
    _arm("baseline"),
    _arm("functions", p_function=1.0),
    _arm("local-args", p_function=1.0, p_local_arg_idiom=0.8),
    _arm("idioms", p_idiom=0.9),
    _arm("casts", p_idiom=0.9, p_narrowing_cast=0.9),
    _arm("parsers", p_parser=0.8, p_parser_cycle=0.6),
    _arm("stacks", p_header_stack=0.8),
    _arm("registers", p_register=0.9),
    _arm("tables", p_table=1.0),
    _arm("wide-tables", p_table=1.0, max_tables=3),
)


def static_overrides_for_bug(bug: SeededBug) -> Dict[str, object]:
    """The override union static steering would apply for ``bug``."""

    merged: Dict[str, object] = {}
    for feature in bug.trigger_features:
        merged.update(MATRIX_STEERING.get(feature, {}))
    return merged


def static_arm_for_bug(
    bug: SeededBug, arms: Sequence[KnobArm] = ARM_CATALOG
) -> Optional[KnobArm]:
    """The catalog arm equivalent to static steering for ``bug``.

    Returns ``None`` when the steering union has no exact catalog
    counterpart; callers should fall back to static steering then.
    """

    union = static_overrides_for_bug(bug)
    for arm in arms:
        if arm.overrides_dict() == union:
            return arm
    return None


# ----------------------------------------------------------------------
# Bandit scheduler (full-campaign feedback loop)
# ----------------------------------------------------------------------


@dataclass
class BanditScheduler:
    """Seeded epsilon-greedy bandit over :class:`KnobArm` vectors.

    Rewards are *novel coverage cells*: :meth:`update` counts how many of
    the observed cells had never been seen by this scheduler before.  Once
    the space saturates every reward is zero and the scheduler degrades
    gracefully to the lowest-index arm (the baseline) on exploit draws.
    """

    seed: int
    arms: Tuple[KnobArm, ...] = ARM_CATALOG
    epsilon: float = 0.2

    _pulls: List[int] = field(default_factory=list, repr=False)
    _rewards: List[float] = field(default_factory=list, repr=False)
    _covered: Set[str] = field(default_factory=set, repr=False)
    _draws: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not self.arms:
            raise ValueError("BanditScheduler needs at least one arm")
        self._pulls = [0] * len(self.arms)
        self._rewards = [0.0] * len(self.arms)

    @property
    def covered_cells(self) -> Set[str]:
        return set(self._covered)

    def next_arm(self) -> KnobArm:
        """Pick the next arm; the draw index seeds the RNG deterministically."""

        rng = random.Random(derive_child_seed(self.seed, self._draws))
        self._draws += 1
        for index, pulls in enumerate(self._pulls):
            if pulls == 0:
                # Optimistic initialisation: visit every arm once, in
                # catalog order, before trusting any mean-reward estimate.
                return self.arms[index]
        if rng.random() < self.epsilon:
            return self.arms[rng.randrange(len(self.arms))]
        best_index = 0
        best_mean = -1.0
        for index, pulls in enumerate(self._pulls):
            mean = self._rewards[index] / pulls
            if mean > best_mean:
                best_index = index
                best_mean = mean
        return self.arms[best_index]

    def update(self, arm: KnobArm, cells: Mapping[str, int]) -> int:
        """Record the coverage produced by pulling ``arm``.

        Returns the reward (number of cells not covered before this pull).
        """

        try:
            index = self.arms.index(arm)
        except ValueError:
            raise ValueError(f"unknown arm {arm.name!r}") from None
        novel = [cell for cell in cells if cell not in self._covered]
        self._covered.update(cells)
        self._pulls[index] += 1
        self._rewards[index] += len(novel)
        return len(novel)


# ----------------------------------------------------------------------
# Compile-only arm profiling (detection-matrix feedback loop)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArmProfile:
    """Per-cell hit rates for one arm, estimated from unseeded programs.

    ``cells`` maps a coverage cell to the number of training programs that
    lit it at least once; ``tries`` is the number of training programs;
    ``errors`` counts the programs whose compilation raised, so only
    their program features were counted.
    """

    arm: KnobArm
    tries: int
    cells: Mapping[str, int]
    errors: int = 0

    def rate(self, cell: str) -> float:
        if self.tries <= 0:
            return 0.0
        return self.cells.get(cell, 0) / self.tries


def train_profiles(
    generator: GeneratorConfig,
    programs_per_arm: int = 12,
    arms: Sequence[KnobArm] = ARM_CATALOG,
) -> Dict[str, ArmProfile]:
    """Estimate per-arm coverage rates from short unseeded compile runs.

    Deliberately cheap: no seeded bugs, no oracles, no test generation —
    just generate, compile through the bug-free pipeline, and fold
    the program-feature + pass/rule coverage into presence counts.
    """

    options = CompilerOptions()
    profiles: Dict[str, ArmProfile] = {}
    for arm_index, arm in enumerate(arms):
        steered = arm.apply(
            replace(generator, seed=derive_child_seed(generator.seed, arm_index))
        )
        program_generator = RandomProgramGenerator(steered)
        cells: Dict[str, int] = {}
        errors = 0
        for index in range(programs_per_arm):
            program = program_generator.generate_indexed(index)
            coverage = program_features(program)
            try:
                result = compile_front_midend(program, options)
                coverage.update(result.coverage.to_dict())
            except Exception:  # noqa: BLE001 - profiling must never abort
                errors += 1
            for cell in coverage.cells:
                cells[cell] = cells.get(cell, 0) + 1
        profiles[arm.name] = ArmProfile(
            arm=arm,
            tries=programs_per_arm,
            cells=dict(sorted(cells.items())),
            errors=errors,
        )
    return profiles


def _score(bug: SeededBug, profile: ArmProfile) -> float:
    """Probability-style score: product of trigger-feature hit rates."""

    score = 1.0
    for feature in bug.trigger_features:
        score *= profile.rate(feature_cell(feature))
    return score


def choose_arm_for_defect(
    bug: SeededBug,
    profiles: Mapping[str, ArmProfile],
    margin: float = 0.25,
) -> Optional[KnobArm]:
    """Pick the calibrated arm for ``bug``, guarded against regressions.

    Returns ``None`` when plain static steering should be used: the
    steering union has no exact catalog counterpart, or no profile was
    trained for it.  Otherwise the static-equivalent arm is kept unless
    the calibration shows it *cannot* light one of the defect's trigger
    features at all (product score zero) while some challenger lights all
    of them — feature-rate products are a good blindness detector but a
    poor detectability ranking, so a static arm that works is never
    displaced on score alone.  Among qualifying challengers the best
    score wins; a later-catalog arm must beat the incumbent by ``margin``
    (relative), keeping the choice stable under profile noise.
    """

    static_arm = static_arm_for_bug(bug)
    if static_arm is None or static_arm.name not in profiles:
        return None
    static_score = _score(bug, profiles[static_arm.name])
    if static_score > 0.0:
        return static_arm
    best_arm: Optional[KnobArm] = None
    best_score = 0.0
    for arm in ARM_CATALOG:
        profile = profiles.get(arm.name)
        if profile is None:
            continue
        score = _score(bug, profile)
        if score <= 0.0:
            continue
        if best_arm is None or score > best_score * (1.0 + margin):
            best_arm = arm
            best_score = score
    if best_arm is None:
        return static_arm
    return best_arm
