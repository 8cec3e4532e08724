"""The bandit knob scheduler against fake coverage oracles.

No campaigns run here: the scheduler's contract — seeded determinism,
drift toward arms that still produce novel coverage, graceful saturation —
is checked by feeding hand-built coverage observations into the bandit and
hand-built profiles into the matrix arm chooser.
"""

from dataclasses import replace

import pytest

from repro.compiler.bugs import BUG_CATALOG
from repro.compiler.coverage import feature_cell
from repro.core.generator import GeneratorConfig
from repro.core.schedule import (
    ARM_CATALOG,
    ArmProfile,
    BanditScheduler,
    KnobArm,
    MATRIX_STEERING,
    choose_arm_for_defect,
    static_arm_for_bug,
    train_profiles,
)


def arm_named(name: str) -> KnobArm:
    return next(arm for arm in ARM_CATALOG if arm.name == name)


class TestKnobArm:
    def test_apply_overlays_default_knobs(self):
        generator = GeneratorConfig(seed=7)
        steered = arm_named("casts").apply(generator)
        assert steered.p_idiom == 0.9
        assert steered.p_narrowing_cast == 0.9
        assert steered.seed == 7

    def test_apply_never_overrides_explicit_knobs(self):
        generator = GeneratorConfig(seed=7, p_idiom=0.1)
        steered = arm_named("casts").apply(generator)
        assert steered.p_idiom == 0.1  # user-set knob wins
        assert steered.p_narrowing_cast == 0.9  # default knob steered

    def test_baseline_arm_is_identity(self):
        generator = GeneratorConfig(seed=7)
        assert arm_named("baseline").apply(generator) == generator

    def test_catalog_covers_every_steering_union(self):
        """Every union the static table can produce for a catalog defect
        has an exact arm counterpart — otherwise the scheduled matrix
        would silently fall back to static steering for that defect."""

        for bug in BUG_CATALOG.values():
            union = {}
            for feature in bug.trigger_features:
                union.update(MATRIX_STEERING.get(feature, {}))
            matches = [
                arm for arm in ARM_CATALOG if arm.overrides_dict() == union
            ]
            assert matches, f"no arm matches steering union for {bug.bug_id}"


class TestBanditScheduler:
    def test_same_seed_same_arm_sequence(self):
        def run(seed: int) -> list:
            scheduler = BanditScheduler(seed=seed)
            names = []
            for index in range(30):
                arm = scheduler.next_arm()
                names.append(arm.name)
                # reward arms deterministically by index parity
                cells = {f"cell{index % 3}": 1}
                scheduler.update(arm, cells)
            return names

        assert run(42) == run(42)
        assert run(42) != run(43)  # seed actually matters

    def test_visits_every_arm_before_exploiting(self):
        scheduler = BanditScheduler(seed=0)
        first = []
        for _ in ARM_CATALOG:
            arm = scheduler.next_arm()
            first.append(arm.name)
            scheduler.update(arm, {})
        assert first == [arm.name for arm in ARM_CATALOG]

    def test_converges_toward_the_novelty_arm(self):
        """One arm keeps producing never-seen cells; the rest are dry.
        After the initial sweep the bandit should spend most pulls there."""

        scheduler = BanditScheduler(seed=5, epsilon=0.2)
        novel = arm_named("stacks")
        pulls = {arm.name: 0 for arm in ARM_CATALOG}
        counter = 0
        for _ in range(120):
            arm = scheduler.next_arm()
            pulls[arm.name] += 1
            if arm.name == novel.name:
                counter += 1
                cells = {f"stack_cell_{counter}": 1}
            else:
                cells = {"static_cell": 1}
            scheduler.update(arm, cells)
        # the novelty arm dominates; everything else is epsilon noise
        assert pulls[novel.name] > 60
        assert pulls[novel.name] == max(pulls.values())

    def test_saturated_space_degrades_to_first_arm(self):
        """All cells covered: every reward is zero, exploit draws fall back
        to the lowest-index arm and the scheduler keeps running."""

        scheduler = BanditScheduler(seed=9, epsilon=0.0)
        for _ in ARM_CATALOG:
            scheduler.update(scheduler.next_arm(), {"only_cell": 1})
        tail = [scheduler.next_arm().name for _ in range(10)]
        for name in tail:
            scheduler.update(arm_named(name), {"only_cell": 1})
        assert tail == [ARM_CATALOG[0].name] * 10

    def test_update_rewards_only_novel_cells(self):
        scheduler = BanditScheduler(seed=1)
        arm = scheduler.next_arm()
        assert scheduler.update(arm, {"a": 1, "b": 5}) == 2
        assert scheduler.update(arm, {"a": 9, "c": 1}) == 1
        assert scheduler.update(arm, {"a": 1}) == 0
        assert scheduler.covered_cells == {"a", "b", "c"}

    def test_update_rejects_unknown_arm(self):
        scheduler = BanditScheduler(seed=1)
        with pytest.raises(ValueError):
            scheduler.update(KnobArm("imposter"), {"a": 1})

    def test_empty_arm_list_rejected(self):
        with pytest.raises(ValueError):
            BanditScheduler(seed=0, arms=())


def profile(arm_name: str, rates: dict, tries: int = 10) -> ArmProfile:
    arm = arm_named(arm_name)
    cells = {feature_cell(name): int(rate * tries) for name, rate in rates.items()}
    return ArmProfile(arm=arm, tries=tries, cells=cells)


class TestChooseArmForDefect:
    def setup_method(self):
        # a defect whose static steering union is the "functions" arm
        self.bug = next(
            bug
            for bug in BUG_CATALOG.values()
            if static_arm_for_bug(bug) is not None
            and static_arm_for_bug(bug).name == "functions"
        )
        self.features = {name: 1.0 for name in self.bug.trigger_features}

    def test_working_static_arm_is_never_displaced(self):
        """A challenger with better feature rates must NOT displace a
        static arm that lights all trigger features: feature-rate products
        rank blindness, not detectability."""

        profiles = {
            "functions": profile("functions", {k: 0.3 for k in self.features}),
            "local-args": profile("local-args", {k: 1.0 for k in self.features}),
        }
        chosen = choose_arm_for_defect(self.bug, profiles)
        assert chosen is not None and chosen.name == "functions"

    def test_blind_static_arm_is_displaced(self):
        profiles = {
            "functions": profile("functions", {k: 0.0 for k in self.features}),
            "local-args": profile("local-args", {k: 0.8 for k in self.features}),
        }
        chosen = choose_arm_for_defect(self.bug, profiles)
        assert chosen is not None and chosen.name == "local-args"

    def test_all_blind_keeps_static_arm(self):
        profiles = {
            name: profile(name, {k: 0.0 for k in self.features})
            for name in ("functions", "local-args", "baseline")
        }
        chosen = choose_arm_for_defect(self.bug, profiles)
        assert chosen is not None and chosen.name == "functions"

    def test_missing_profile_falls_back_to_static_steering(self):
        assert choose_arm_for_defect(self.bug, {}) is None

    def test_unrepresentable_union_falls_back(self):
        bug = replace(self.bug, trigger_features=("function", "header_stack"))
        assert static_arm_for_bug(bug) is None
        assert choose_arm_for_defect(bug, {}) is None


class TestTrainProfiles:
    def test_profiles_are_deterministic(self):
        arms = ARM_CATALOG[:2]
        generator = GeneratorConfig(seed=11)
        first = train_profiles(generator, programs_per_arm=3, arms=arms)
        second = train_profiles(generator, programs_per_arm=3, arms=arms)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name].cells == second[name].cells
            assert first[name].tries == second[name].tries

    def test_profiles_record_presence_rates(self):
        profiles = train_profiles(
            GeneratorConfig(seed=11), programs_per_arm=4, arms=ARM_CATALOG[:1]
        )
        entry = profiles[ARM_CATALOG[0].name]
        assert entry.tries == 4
        assert entry.errors == 0
        # presence counts, not hit totals: no cell exceeds the program count
        assert entry.cells
        assert all(0 < count <= 4 for count in entry.cells.values())
        assert 0.0 <= entry.rate(next(iter(entry.cells))) <= 1.0
        assert entry.rate("feature:never_seen") == 0.0

    def test_failed_compilations_are_counted(self, monkeypatch):
        from repro.core import schedule

        def crash(program, options):
            raise RuntimeError("forced profiling failure")

        monkeypatch.setattr(schedule, "compile_front_midend", crash)
        profiles = train_profiles(
            GeneratorConfig(seed=11), programs_per_arm=3, arms=ARM_CATALOG[:2]
        )
        for profile in profiles.values():
            assert profile.errors == 3
            # Only the program-feature cells survive a failed compilation.
            assert all(cell.startswith("feature:") for cell in profile.cells)

    def test_profile_errors_reach_the_detection_matrix(self, monkeypatch):
        from repro.core import schedule
        from repro.core.campaign import Campaign, CampaignConfig

        def crash(program, options):
            raise RuntimeError("forced profiling failure")

        monkeypatch.setattr(schedule, "compile_front_midend", crash)
        (record,) = Campaign(CampaignConfig(seed=0)).run_detection_matrix(
            bug_ids=["constant_folding_no_mask"], programs_per_bug=1, schedule=True
        )
        assert record.profile_errors == 12  # every calibration program of its arm
