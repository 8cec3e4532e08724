#!/usr/bin/env python
"""Perf harness for the campaign pipeline (``make bench`` / ``make bench-scaling``).

Two workloads, both written into ``BENCH_campaign.json`` at the repository
root so every PR leaves a perf data point behind:

* **reference** (always): the 25-program, 3-platform bug-finding campaign
  at seed 0, single-process — the workload the PR 1 throughput overhaul
  was measured on.  The ``before`` block is that workload on the seed tree
  (commit ``beed3ba``), recorded as a constant because the old code path
  no longer exists.
* **scaling** (``--scaling``): a larger campaign (default 200 programs,
  3 platforms) run at jobs = 1, 2, 4, 8 on the staged engine, recording
  the worker-scaling curve and verifying that every job count files the
  identical deduplicated bug set.  Wall-clock speedup is hardware-bound:
  the recorded ``cpu_count`` says how many cores the curve had to work
  with.
* **triage** (``--reduce`` / ``make bench-reduce``): the seeded reference
  campaign with the triage stage on, recording the per-report reduction
  ratio, round/attempt counts and wall time, plus the stage's total cost
  relative to the detection campaign.
* **hotpath** (``--hotpath`` / ``make bench-hotpath``): the scaling
  workload at ``jobs=1``, recording programs/sec against the constants
  recorded at commit b225044, SAT invocations, bit-blast misses and SAT
  conflicts against their ratchets and the bit-blast memo's hit rate, plus a
  seeded jobs=1 vs jobs=4 byte-identical-reports check.
* **stateful** (``--stateful`` / ``make bench-stateful``): a seeded
  register-heavy campaign replayed as 3-packet sequences — sequences/sec,
  state-divergence findings, per-defect detection of the stateful seeded
  defects (the job fails when any goes undetected) and a ``--distributed
  2`` vs ``jobs=1`` byte-identity check.
* **coverage** (``--coverage`` / ``make bench-coverage``): the
  feedback-directed generation stack — the scheduled detection matrix
  (profile-calibrated knob arms) diffed against the committed static
  baseline (fails on any lost detection or a try budget above the static
  total), pass/rule/feature/shape cell counts on static vs scheduled
  unseeded corpora, and a scheduled-campaign byte-identity check across
  jobs=1 / jobs=4 / ``--distributed 2``.
* **distributed** (``--distributed`` / ``make bench-distributed``): the
  coordinator/worker service smoke — a 40-program, 3-platform campaign on
  localhost fleets of 1 and 2 workers (the 2-worker run kills one worker
  mid-lease), recording units/sec per fleet size, leases reclaimed, and a
  byte-identity check against ``jobs=1`` that fails the job on
  nondeterminism.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_campaign.py
    PYTHONPATH=src python benchmarks/perf/bench_campaign.py --scaling
    PYTHONPATH=src python benchmarks/perf/bench_campaign.py --reduce
    PYTHONPATH=src python benchmarks/perf/bench_campaign.py --hotpath
    PYTHONPATH=src python benchmarks/perf/bench_campaign.py --scaling \
        --programs 200 --jobs-list 1,2,4,8

Profiling a campaign (the workflow this harness grew out of)::

    PYTHONPATH=src python -m cProfile -o /tmp/campaign.prof \
        benchmarks/perf/bench_campaign.py
    python -c "import pstats; pstats.Stats('/tmp/campaign.prof').sort_stats('cumtime').print_stats(25)"
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import smt  # noqa: E402
from repro.core.campaign import Campaign, CampaignConfig  # noqa: E402

#: The reference workload.  The platform list is pinned to the PR 1
#: measurement (p4c + the two paper back ends) so the before/after numbers
#: stay comparable; the registry's later back ends are exercised by the
#: ``backends_campaign`` block below.
PROGRAMS = 25
SEED = 0
PLATFORMS = ("p4c", "bmv2", "tofino")

#: The multi-backend workload (always recorded): one seeded campaign over
#: the three packet-tested back ends, one semantic defect per back end
#: plus the eBPF verifier crash classes.  The block proves the campaign
#: surface spans every registry entry and that the merge attributes each
#: back end's findings to its own defect.
BACKENDS_SEED = 3
BACKENDS_PROGRAMS = 20
BACKENDS_PLATFORMS = ("bmv2", "tofino", "ebpf")
BACKENDS_BUGS = (
    "bmv2_wide_field_truncation",
    "tofino_slice_assignment_drop",
    "ebpf_byte_order_swap",
    "ebpf_verifier_loop_crash",
    "ebpf_tail_call_limit_crash",
)

#: The scaling workload (≥ 200 programs exercises pool amortisation).
SCALING_PROGRAMS = 200
SCALING_JOBS = (1, 2, 4, 8)

#: The triage workload: the §7-style seeded campaign (findings on every
#: platform and from every technique) with the triage stage enabled.
REDUCE_SEED = 2020
REDUCE_BUGS = (
    "strength_reduction_negative_slice",
    "typecheck_shift_width_crash",
    "exit_ignores_copy_out",
    "constant_folding_no_mask",
    "simplify_control_flow_empty_if",
    "bmv2_wide_field_truncation",
    "tofino_slice_assignment_drop",
    "tofino_exit_in_action_crash",
)
#: Acceptance floor: mean statement-count reduction over filed reports.
REDUCE_TARGET_RATIO = 0.5

#: The validation-hot-path workload (``--hotpath`` / ``make bench-hotpath``):
#: the 200-program scaling campaign at ``jobs=1``, cold caches.  The
#: ``before`` block is the same workload on the pre-PR-7 staged engine
#: (commit ``b225044``), recorded as constants because that code path — one
#: prefix compilation per platform, one solver query per snapshot pair and
#: output field — no longer exists.
HOTPATH_BASELINE = {
    "elapsed_s": 41.673,
    "programs_per_sec": 4.8,
    "sat_invocations": 1259,
    "source": (
        "pre-PR-7 staged engine (commit b225044): per-platform prefix "
        "recompilation, per-pair sequential equivalence queries, zero "
        "reparse/interp cache hits"
    ),
}
HOTPATH_TARGET_SPEEDUP = 3.0
#: Deterministic work ratchets on the same workload: SAT calls, bit-blast
#: encoding misses and CDCL conflicts may not grow past what the current
#: engine does.
HOTPATH_MAX_SAT_INVOCATIONS = 575
HOTPATH_MAX_BITBLAST_MISSES = 11092
HOTPATH_MAX_SAT_CONFLICTS = 5274
#: Size of the seeded campaign used for the jobs=1 vs jobs=4 byte-identical
#: report check (shared-prefix validation must not perturb determinism).
HOTPATH_DETERMINISM_PROGRAMS = 25

#: Committed per-defect detection expectations for the reference matrix
#: (seed 0, 20 programs per defect).  The CI gate fails when a defect the
#: baseline records as detected stops being detected.
DETECTION_BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "detection_baseline.json",
)

#: Wall-clock of the identical workload on the seed tree (commit
#: ``beed3ba``), measured in this container.  The seed pipeline rebuilt
#: the SAT solver from scratch for every query, re-simplified every
#: snapshot's term DAG per call and snapshotted programs with
#: ``copy.deepcopy`` -- and it never finished the reference workload: the
#: run was killed after 81 minutes of wall-clock with no result, so the
#: recorded number is a *lower bound*.  Slices pin down the blow-up:
#: 1 program completes in 0.1 s, but programs 1-2 already exceed 570 s
#: (program #2's divergence queries explode the from-scratch CDCL search).
SEED_BASELINE_S = 4860.0
SEED_BASELINE_COMPLETED = False


def _run_campaign(programs: int, jobs: int, seed: int = SEED) -> tuple:
    config = CampaignConfig(
        programs=programs, seed=seed, platforms=PLATFORMS, jobs=jobs
    )
    campaign = Campaign(config)
    start = time.perf_counter()
    stats = campaign.run()
    elapsed = time.perf_counter() - start
    return stats, elapsed


def run_reference() -> dict:
    """Run the reference campaign in-process and return measurements."""

    smt.STATS.reset()
    stats, elapsed = _run_campaign(PROGRAMS, jobs=1)
    return {
        "elapsed_s": round(elapsed, 3),
        "programs": stats.programs_generated,
        "programs_rejected": stats.programs_rejected,
        "crash_findings": stats.crash_findings,
        "semantic_findings": stats.semantic_findings,
        "oracle_errors": stats.oracle_errors,
        "solver": smt.STATS.snapshot(),
        "intern_table_terms": smt.intern_table_size(),
        "simplify_cache_entries": smt.simplify_cache_size(),
        #: Per-unit counter deltas merged back from the engine — under
        #: ``jobs=1`` these mirror the process-wide counters above; under
        #: parallelism they are the only truthful campaign totals.
        "merged_worker_counters": stats.counters,
    }


def run_backends() -> dict:
    """Record the three-back-end seeded campaign (bmv2 + tofino + ebpf).

    The generator enables the narrowing-cast idiom and raises the
    many-tables burst so the eBPF defect triggers are reachable (the same
    knobs the detection matrix steers; see ``MATRIX_STEERING``).
    """

    from repro.compiler.bugs import BUG_CATALOG
    from repro.core.generator import GeneratorConfig

    config = CampaignConfig(
        programs=BACKENDS_PROGRAMS,
        seed=BACKENDS_SEED,
        generator=GeneratorConfig(
            seed=BACKENDS_SEED, p_narrowing_cast=0.4, p_many_tables=0.3
        ),
        platforms=BACKENDS_PLATFORMS,
        enabled_bugs=BACKENDS_BUGS,
    )
    start = time.perf_counter()
    stats = Campaign(config).run()
    elapsed = time.perf_counter() - start
    identifiers = sorted(report.identifier for report in stats.tracker.reports)
    expected = sorted(
        f"{BUG_CATALOG[bug].platform}:{bug}" for bug in BACKENDS_BUGS
    )
    return {
        "programs": BACKENDS_PROGRAMS,
        "seed": BACKENDS_SEED,
        "platforms": list(BACKENDS_PLATFORMS),
        "enabled_bugs": list(BACKENDS_BUGS),
        "elapsed_s": round(elapsed, 3),
        "programs_rejected": stats.programs_rejected,
        "crash_findings": stats.crash_findings,
        "semantic_findings": stats.semantic_findings,
        "reports": identifiers,
        "all_defects_reported": identifiers == expected,
    }


def run_scaling(programs: int, jobs_list: tuple) -> dict:
    """Record the worker-scaling curve for a larger campaign.

    The baseline row is the first entry of ``jobs_list`` (``1`` unless
    overridden via ``--jobs-list``); speedups are relative to it.
    """

    curve = []
    bug_sets = {}
    baseline_elapsed = None
    baseline_jobs = jobs_list[0]
    for jobs in jobs_list:
        smt.STATS.reset()
        stats, elapsed = _run_campaign(programs, jobs=jobs)
        if baseline_elapsed is None:
            baseline_elapsed = elapsed
        bug_sets[jobs] = sorted(
            report.identifier for report in stats.tracker.reports
        )
        curve.append(
            {
                "jobs": jobs,
                "elapsed_s": round(elapsed, 3),
                "speedup_vs_baseline": round(baseline_elapsed / elapsed, 2)
                if elapsed
                else float("inf"),
                "distinct_bugs": len(stats.tracker),
                "units": stats.units_total,
                "merged_worker_counters": stats.counters,
            }
        )
        print(
            f"  jobs={jobs}: {elapsed:.1f}s, "
            f"{curve[-1]['speedup_vs_baseline']}x vs jobs={baseline_jobs}, "
            f"{len(stats.tracker)} distinct bugs",
            flush=True,
        )
    reference_bugs = bug_sets[baseline_jobs]
    cores = os.cpu_count() or 1
    payload = {
        "programs": programs,
        "platforms": list(PLATFORMS),
        "seed": SEED,
        "cpu_count": cores,
        "baseline_jobs": baseline_jobs,
        "deterministic": all(bugs == reference_bugs for bugs in bug_sets.values()),
        "distinct_bug_set": reference_bugs,
        "curve": curve,
    }
    if cores < max(jobs_list):
        payload["note"] = (
            f"wall-clock scaling is bounded by the {cores} CPU core(s) visible "
            "to this runner; the engine shards program units across "
            "the pool, so on an N-core machine the curve tracks N up to the "
            "job count (determinism is asserted above regardless)"
        )
    return payload


def _cache_report(counters: dict) -> dict:
    """Hit/miss/rate triples for every campaign-lifetime cache."""

    pairs = {
        "bitblast": ("solver_bitblast_hits", "solver_bitblast_misses"),
    }
    report = {}
    for name, (hit_key, miss_key) in pairs.items():
        hits = counters.get(hit_key, 0)
        misses = counters.get(miss_key, 0)
        total = hits + misses
        report[name] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / total, 4) if total else 0.0,
        }
    return report


def run_hotpath(programs: int) -> dict:
    """Measure the validation hot path: throughput, solver load, cache yield.

    One ``jobs=1`` campaign gives the deterministic counters the CI gate
    ratchets (SAT invocations, bit-blast misses, SAT conflicts) and must
    swallow no failure (zero ``coverage_errors``, ``bisect_link_failures``
    and oracle errors: its corpus is clean); a smaller
    seeded campaign then runs at ``jobs=1`` and ``jobs=4`` and the two
    report lists must serialize byte-identically — shared-prefix validation
    and batched solving must never leak scheduling into the findings.
    """

    smt.STATS.reset()
    stats, elapsed = _run_campaign(programs, jobs=1)
    counters = stats.counters
    programs_per_sec = programs / elapsed if elapsed else float("inf")
    speedup = (
        programs_per_sec / HOTPATH_BASELINE["programs_per_sec"]
        if HOTPATH_BASELINE["programs_per_sec"]
        else float("inf")
    )
    caches = _cache_report(counters)
    sat_invocations = counters.get("solver_sat_invocations", 0)
    sat_conflicts = counters.get("solver_sat_conflicts", 0)

    def seeded_reports(jobs: int) -> str:
        smt.STATS.reset()
        config = CampaignConfig(
            programs=HOTPATH_DETERMINISM_PROGRAMS,
            seed=REDUCE_SEED,
            enabled_bugs=REDUCE_BUGS,
            platforms=PLATFORMS,
            jobs=jobs,
        )
        run = Campaign(config).run()
        reports = sorted(run.tracker.reports, key=lambda report: report.identifier)
        return json.dumps([report.to_dict() for report in reports], sort_keys=True)

    byte_identical = seeded_reports(jobs=1) == seeded_reports(jobs=4)

    bitblast_misses = counters.get("solver_bitblast_misses", 0)
    # The corpus is clean, so any swallowed failure is a fault, not noise.
    clean_errors = {
        "coverage_errors": counters.get("coverage_errors", 0),
        "bisect_link_failures": counters.get("bisect_link_failures", 0),
        "oracle_errors": stats.oracle_errors,
    }
    meets_target = (
        speedup >= HOTPATH_TARGET_SPEEDUP
        and sat_invocations <= HOTPATH_MAX_SAT_INVOCATIONS
        and bitblast_misses <= HOTPATH_MAX_BITBLAST_MISSES
        and sat_conflicts <= HOTPATH_MAX_SAT_CONFLICTS
        and caches["bitblast"]["hits"] > 0
        and not any(clean_errors.values())
        and byte_identical
    )
    return {
        "programs": programs,
        "platforms": list(PLATFORMS),
        "seed": SEED,
        "jobs": 1,
        "before": dict(HOTPATH_BASELINE),
        "elapsed_s": round(elapsed, 3),
        "programs_per_sec": round(programs_per_sec, 2),
        "speedup_vs_baseline": round(speedup, 2),
        "sat_invocations": sat_invocations,
        "max_sat_invocations": HOTPATH_MAX_SAT_INVOCATIONS,
        "bitblast_misses": bitblast_misses,
        "max_bitblast_misses": HOTPATH_MAX_BITBLAST_MISSES,
        "sat_conflicts": sat_conflicts,
        "max_sat_conflicts": HOTPATH_MAX_SAT_CONFLICTS,
        "batched_checks": counters.get("solver_batched_checks", 0),
        "equivalence_cache_hits": counters.get("solver_equivalence_cache_hits", 0),
        "caches": caches,
        "clean_errors": clean_errors,
        "reports_byte_identical_jobs1_vs_jobs4": byte_identical,
        "target_speedup": HOTPATH_TARGET_SPEEDUP,
        "meets_target": meets_target,
    }


def run_reduce(programs: int = PROGRAMS) -> dict:
    """Record reduction ratio and wall time per filed report.

    Two runs against one artifact store: the first performs detection only
    (and persists its unit outcomes), the second reuses every unit and
    runs just the triage stage — so ``triage_elapsed_s`` measures the
    reductions themselves, not another detection campaign.
    """

    import tempfile

    from repro.core.engine import ArtifactStore, triage_key
    from repro.core.generator import GeneratorConfig

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artifacts.jsonl")
        base = dict(
            programs=programs,
            seed=REDUCE_SEED,
            enabled_bugs=REDUCE_BUGS,
            platforms=PLATFORMS,
            artifact_path=path,
        )
        start = time.perf_counter()
        Campaign(CampaignConfig(**base)).run()
        detection_s = time.perf_counter() - start

        start = time.perf_counter()
        config = CampaignConfig(**base, reduce=True)
        stats = Campaign(config).run()
        triage_s = time.perf_counter() - start

        key = triage_key(
            GeneratorConfig(seed=REDUCE_SEED),
            REDUCE_BUGS,
            PLATFORMS,
            config.max_tests_per_program,
            config.reduce_rounds,
            sequence_length=config.sequence_length,
        )
        outcomes = ArtifactStore(path).load_triage(key)
    if len(outcomes) != stats.triage_total:
        raise RuntimeError(
            f"triage store returned {len(outcomes)} outcomes for "
            f"{stats.triage_total} reports — key derivation out of sync"
        )

    per_report = [
        {
            "identifier": outcome.identifier,
            "reduction_ratio": round(outcome.reduction_ratio, 4),
            "original_statements": outcome.original_size,
            "reduced_statements": outcome.reduced_size,
            "rounds": outcome.rounds,
            "oracle_calls": outcome.attempts,
            "elapsed_s": round(outcome.elapsed_s, 3),
        }
        for outcome in sorted(outcomes.values(), key=lambda entry: entry.identifier)
    ]
    quality = _reduction_quality(list(outcomes.values()))
    polish_gate = _polish_gate_report(quality)
    mean_ratio = stats.mean_reduction_ratio()
    localized = [
        report.localized_pass
        for report in stats.tracker.reports
        if report.kind.value == "crash"
    ]
    return {
        "programs": programs,
        "seed": REDUCE_SEED,
        "enabled_bugs": list(REDUCE_BUGS),
        "detection_elapsed_s": round(detection_s, 3),
        "triage_elapsed_s": round(triage_s, 3),
        "reports": per_report,
        "mean_reduction_ratio": round(mean_ratio, 4),
        "crash_bugs_localized": all(localized) and bool(localized),
        "target_mean_reduction": REDUCE_TARGET_RATIO,
        "meets_target": mean_ratio >= REDUCE_TARGET_RATIO,
        "reduction_quality": quality,
        "polish_gate": polish_gate,
    }


def _polish_gate_report(quality: dict) -> dict:
    """Record what the reducer's polish gate did and what it cost.

    ``oracle_calls_before`` is the polish budget of the *previous* recorded
    run (the committed ``BENCH_campaign.json`` the gate read its history
    from); ``oracle_calls_after`` is this run's.  The delta is the signal
    the gate exists for: a polish class whose recorded yield fell under the
    floor stops burning calls in the next run.
    """

    from repro.core.reduce.reducer import (
        POLISH_MIN_YIELD,
        gate_polish_transforms,
        recorded_polish_quality,
    )
    from repro.core.reduce.transforms import POLISH_TRANSFORMS

    polish_names = [transform.__name__ for transform in POLISH_TRANSFORMS]
    previous = recorded_polish_quality()
    _, skipped = gate_polish_transforms(previous)

    def polish_calls(per_class: dict) -> int:
        return sum(
            per_class.get(name, {}).get("oracle_calls", 0) for name in polish_names
        )

    before = polish_calls(previous)
    after = polish_calls(quality.get("per_transform_class", {}))
    return {
        "threshold_kept_edits_per_call": POLISH_MIN_YIELD,
        "skipped": sorted(skipped),
        "oracle_calls_before": before,
        "oracle_calls_after": after,
        "oracle_call_delta": after - before,
    }


def _reduction_quality(outcomes: list) -> dict:
    """Corpus-level reducer-quality metrics (ROADMAP open item).

    Two views over a campaign's triage outcomes: the distribution of
    reduced sizes across the (per-seed-derived) trigger programs, and the
    oracle-call budget vs. marginal shrink of every transformation class --
    the signal that shows when a reducer change trades oracle budget for no
    extra shrinkage.
    """

    sizes = sorted(outcome.reduced_size for outcome in outcomes)
    if sizes:
        distribution = {
            "count": len(sizes),
            "min": sizes[0],
            "median": sizes[len(sizes) // 2],
            "max": sizes[-1],
            "mean": round(sum(sizes) / len(sizes), 2),
        }
    else:
        distribution = {"count": 0, "min": 0, "median": 0, "max": 0, "mean": 0.0}

    per_class: dict = {}
    for outcome in outcomes:
        for name, entry in outcome.transform_stats.items():
            bucket = per_class.setdefault(
                name, {"oracle_calls": 0, "kept_edits": 0, "statements_removed": 0}
            )
            for key in bucket:
                bucket[key] += entry.get(key, 0)
    for bucket in per_class.values():
        calls = bucket["oracle_calls"]
        bucket["statements_removed_per_oracle_call"] = (
            round(bucket["statements_removed"] / calls, 4) if calls else 0.0
        )
    return {
        "reduced_size_distribution": distribution,
        "per_transform_class": dict(sorted(per_class.items())),
    }


#: The stateful workload (``--stateful`` / ``make bench-stateful``): a
#: register-heavy seeded campaign replayed as 3-packet sequences.  The
#: platform list pairs the open toolchain (where the three stateful
#: mid-end defects are caught by state-aware translation validation) with
#: the two back ends whose executables carry live switch state — the eBPF
#: one hosts the flush-truncation defect only multi-packet sequences can
#: expose.
STATEFUL_SEED = 7
STATEFUL_PROGRAMS = 20
STATEFUL_PLATFORMS = ("p4c", "bmv2", "ebpf")
STATEFUL_SEQUENCE_LENGTH = 3
STATEFUL_BUGS = (
    "stateful_rmw_lost_update",
    "stateful_read_write_reorder",
    "stateful_spill_width_narrow",
    "ebpf_register_write_drops_high_byte",
)

#: A write-only accumulator: no packet ever reads the register back, so
#: every per-packet output is correct under any register defect — only the
#: final ``$state.*`` comparison can catch the eBPF flush truncation.  The
#: probe proves the state oracle does work the packet oracle cannot.
STATEFUL_PROBE_SOURCE = """
header Hdr_t { bit<8> a; bit<16> c; }
struct Headers { Hdr_t h; }
control ingress(inout Headers hdr) {
    register<bit<16>>(2) acc;
    apply {
        bit<16> prev;
        acc.read(prev, 32w0);
        acc.write(32w0, (prev + 16w300));
        hdr.h.a = (hdr.h.a ^ 8w1);
    }
}
"""


def _state_divergence_probe() -> str:
    """Run the write-only probe against the seeded eBPF back end.

    Returns the oracle's mismatch message (expected to name a final-state
    divergence; empty means the state oracle missed the defect).
    """

    from repro.compiler import CompilerOptions, compile_front_midend
    from repro.core.reduce.oracles import packet_mismatch
    from repro.core.testgen import build_test_sequences
    from repro.p4 import parse_program
    from repro.targets import BACKEND_REGISTRY

    program = parse_program(STATEFUL_PROBE_SOURCE)
    spec = BACKEND_REGISTRY["ebpf"]
    options = CompilerOptions(
        enabled_bugs={"ebpf_register_write_drops_high_byte"}, target="ebpf"
    )
    executable = spec.target_cls(options).link(compile_front_midend(program.clone(), options))
    sequences = build_test_sequences(program, 2, STATEFUL_SEQUENCE_LENGTH)
    return packet_mismatch(program, sequences, executable, spec) or ""


def run_stateful() -> dict:
    """Record the multi-packet stateful campaign: throughput + detection.

    Three checks gate ``meets_target``:

    * every one of the new stateful seeded defects is detected in its own
      single-defect campaign (attribution, not just "something diverged"),
    * the write-only probe is caught by the final ``$state.*`` comparison
      — a state-divergence finding no payload diff could produce — proving
      the state oracle does work the packet oracle cannot, and
    * a two-worker distributed run files reports byte-identical to
      ``jobs=1``.
    """

    from repro.core.generator import GeneratorConfig

    def config(**overrides) -> CampaignConfig:
        base = dict(
            programs=STATEFUL_PROGRAMS,
            seed=STATEFUL_SEED,
            enabled_bugs=STATEFUL_BUGS,
            generator=GeneratorConfig(seed=STATEFUL_SEED, p_register=0.9),
            platforms=STATEFUL_PLATFORMS,
            sequence_length=STATEFUL_SEQUENCE_LENGTH,
        )
        base.update(overrides)
        return CampaignConfig(**base)

    def report_blob(stats) -> str:
        reports = sorted(stats.tracker.reports, key=lambda report: report.identifier)
        return json.dumps([report.to_dict() for report in reports], sort_keys=True)

    smt.STATS.reset()
    start = time.perf_counter()
    serial = Campaign(config()).run()
    elapsed = time.perf_counter() - start
    sequences = serial.counters.get("sequences_replayed", 0)
    packets = serial.counters.get("packets_replayed", 0)

    probe_message = _state_divergence_probe()
    probe_caught = "final state diverged" in probe_message
    state_divergences = sum(
        1
        for report in serial.tracker.reports
        if "final state diverged" in report.description
    )

    # Per-defect attribution: one single-defect campaign per new defect.
    records = Campaign(config()).run_detection_matrix(
        bug_ids=list(STATEFUL_BUGS), programs_per_bug=STATEFUL_PROGRAMS
    )
    detection = {
        record.bug.bug_id: {
            "detected": record.detected,
            "technique": record.technique,
            "programs_tried": record.programs_tried,
        }
        for record in records
    }
    all_detected = all(entry["detected"] for entry in detection.values())

    smt.STATS.reset()
    distributed = Campaign(config(distributed=2)).run()
    byte_identical = report_blob(distributed) == report_blob(serial)

    meets_target = all_detected and probe_caught and byte_identical
    return {
        "programs": STATEFUL_PROGRAMS,
        "seed": STATEFUL_SEED,
        "platforms": list(STATEFUL_PLATFORMS),
        "sequence_length": STATEFUL_SEQUENCE_LENGTH,
        "enabled_bugs": list(STATEFUL_BUGS),
        "elapsed_s": round(elapsed, 3),
        "sequences_replayed": sequences,
        "packets_replayed": packets,
        "sequences_per_sec": round(sequences / elapsed, 2) if elapsed else 0.0,
        "reports": sorted(report.identifier for report in serial.tracker.reports),
        "state_divergence_findings": state_divergences,
        "state_probe_caught": probe_caught,
        "state_probe_message": probe_message,
        "detection": detection,
        "all_stateful_defects_detected": all_detected,
        "reports_byte_identical_distributed2_vs_jobs1": byte_identical,
        "meets_target": meets_target,
    }


#: The distributed smoke workload (``--distributed`` / ``make
#: bench-distributed``): the reference generator at seed 0, 40 programs x
#: 3 platforms, run once serially (the byte-identity reference) and once
#: per worker count on the coordinator/worker service over localhost TCP.
#: The two-worker run additionally kills one worker mid-lease (``os._exit``
#: after 3 programs, inside its second 2-program lease) so the recorded
#: ``leases_reclaimed`` proves the reclaim/merge path, not just the happy
#: path.
DISTRIBUTED_PROGRAMS = 40
DISTRIBUTED_WORKERS = (1, 2)
DISTRIBUTED_LEASE_PROGRAMS = 2
DISTRIBUTED_FAIL_AFTER_PROGRAMS = 3


def run_distributed(programs: int = DISTRIBUTED_PROGRAMS) -> dict:
    """Record the coordinator/worker smoke: throughput, reclaim, determinism.

    ``meets_target`` is the determinism flag: every fleet size — including
    the one with a worker killed mid-lease — must file reports
    byte-identical to ``jobs=1``, or the bench (and CI) fails.
    """

    from repro.core.engine import CampaignEngine, CampaignSpec, DistributedExecutor
    from repro.core.generator import GeneratorConfig

    def spec():
        return CampaignSpec(
            programs=programs,
            generator=GeneratorConfig(seed=SEED),
            platforms=PLATFORMS,
        )

    def report_blob(stats):
        return json.dumps(
            [report.to_dict() for report in stats.tracker.reports], sort_keys=True
        )

    smt.STATS.reset()
    start = time.perf_counter()
    serial = CampaignEngine(spec()).run()
    serial_elapsed = time.perf_counter() - start
    serial_blob = report_blob(serial)
    units = serial.units_total

    curve = []
    deterministic = True
    for workers in DISTRIBUTED_WORKERS:
        smt.STATS.reset()
        fault = {0: DISTRIBUTED_FAIL_AFTER_PROGRAMS} if workers >= 2 else None
        executor = DistributedExecutor(
            workers,
            lease_units=DISTRIBUTED_LEASE_PROGRAMS,
            lease_ttl_s=5.0,
            heartbeat_s=0.5,
            fail_after=fault,
        )
        start = time.perf_counter()
        stats = CampaignEngine(spec(), executor=executor).run()
        elapsed = time.perf_counter() - start
        identical = report_blob(stats) == serial_blob
        deterministic = deterministic and identical
        counters = stats.counters
        curve.append(
            {
                "workers": workers,
                "elapsed_s": round(elapsed, 3),
                "units_per_sec": round(units / elapsed, 2) if elapsed else 0.0,
                "leases_issued": counters.get("dist_leases_issued", 0),
                "leases_reclaimed": counters.get("dist_leases_reclaimed", 0),
                "duplicates_discarded": counters.get(
                    "dist_duplicates_discarded", 0
                ),
                "bytes_streamed": counters.get("dist_bytes_streamed", 0),
                "worker_killed_mid_lease": bool(fault),
                "reports_byte_identical_vs_jobs1": identical,
            }
        )

    return {
        "programs": programs,
        "platforms": list(PLATFORMS),
        "seed": SEED,
        "units": units,
        "serial": {
            "elapsed_s": round(serial_elapsed, 3),
            "units_per_sec": (
                round(units / serial_elapsed, 2) if serial_elapsed else 0.0
            ),
        },
        "curve": curve,
        "deterministic": deterministic,
        "meets_target": deterministic,
    }


#: The coverage workload (``--coverage`` / ``make bench-coverage``): the
#: feedback-directed generation stack end to end.  Sizes are deliberately
#: small — the section gates on detection completeness, try budget and
#: determinism, not throughput.
COVERAGE_PROGRAMS = 12
COVERAGE_ROUNDS = 4
COVERAGE_MATRIX_JOBS = 4


def run_coverage() -> dict:
    """Record the feedback-directed generation section (``--coverage``).

    Three sub-experiments, all three gating ``meets_target``:

    * **scheduled detection matrix**: the full catalog with
      ``schedule=True`` (profile-calibrated knob arms, margin-guarded
      against the static steering table).  Every defect the committed
      baseline detects must stay detected, and the summed tries must not
      exceed the static baseline's total.
    * **rule coverage on unseeded pipelines**: one static and one
      scheduled bug-free campaign; records how many distinct pass / rule /
      feature cells each corpus lights (the scheduler's exploration value,
      measured on the instrumentation itself).
    * **scheduled determinism**: a seeded scheduled campaign at jobs=1,
      jobs=4 and ``--distributed 2`` must file byte-identical reports
      (including the v4 knob-arm provenance) and identical merged
      coverage counters.
    """

    # 1. Scheduled detection matrix vs. the committed static baseline.
    records = Campaign(
        CampaignConfig(seed=SEED, jobs=COVERAGE_MATRIX_JOBS)
    ).run_detection_matrix(schedule=True)
    detection = {
        record.bug.bug_id: {
            "detected": record.detected,
            "technique": record.technique,
            "programs_tried": record.programs_tried,
            "knob_arm": record.knob_arm,
        }
        for record in records
    }
    all_detected = all(entry["detected"] for entry in detection.values())
    scheduled_tries = sum(entry["programs_tried"] for entry in detection.values())
    baseline = {}
    if os.path.exists(DETECTION_BASELINE_PATH):
        with open(DETECTION_BASELINE_PATH) as handle:
            baseline = json.load(handle)
    static_tries = sum(
        entry.get("programs_tried", 0) for entry in baseline.values()
    )
    lost = sorted(
        bug_id
        for bug_id, entry in baseline.items()
        if entry.get("detected") and not detection.get(bug_id, {}).get("detected")
    )

    # 2. Distinct coverage cells: static vs scheduled unseeded corpora.
    def unseeded_cells(schedule: bool) -> dict:
        smt.STATS.reset()
        stats = Campaign(
            CampaignConfig(
                programs=COVERAGE_PROGRAMS,
                seed=SEED,
                platforms=PLATFORMS,
                schedule=schedule,
                schedule_rounds=COVERAGE_ROUNDS,
            )
        ).run()
        coverage = stats.coverage()
        return {
            prefix[:-1] + "_cells": sum(
                1 for cell in coverage if cell.startswith(prefix)
            )
            for prefix in ("pass:", "rule:", "feature:", "shape:")
        }

    coverage_cells = {
        "static": unseeded_cells(schedule=False),
        "scheduled": unseeded_cells(schedule=True),
    }

    # 3. Scheduled-campaign determinism across executors.
    def scheduled_run(**overrides):
        smt.STATS.reset()
        base = dict(
            programs=COVERAGE_PROGRAMS,
            seed=REDUCE_SEED,
            enabled_bugs=REDUCE_BUGS,
            platforms=PLATFORMS,
            schedule=True,
            schedule_rounds=COVERAGE_ROUNDS,
        )
        base.update(overrides)
        return Campaign(CampaignConfig(**base)).run()

    def report_blob(stats) -> str:
        reports = sorted(stats.tracker.reports, key=lambda report: report.identifier)
        return json.dumps([report.to_dict() for report in reports], sort_keys=True)

    serial = scheduled_run(jobs=1)
    pooled = scheduled_run(jobs=4)
    fleet = scheduled_run(distributed=2)
    serial_blob = report_blob(serial)
    byte_identical = (
        serial_blob == report_blob(pooled) == report_blob(fleet)
    )
    coverage_identical = (
        serial.coverage() == pooled.coverage() == fleet.coverage()
    )
    provenance = sorted(
        (report.identifier, report.knob_arm)
        for report in serial.tracker.reports
        if report.knob_arm
    )

    meets_target = (
        all_detected
        and not lost
        and scheduled_tries <= static_tries
        and byte_identical
        and coverage_identical
    )
    return {
        "programs": COVERAGE_PROGRAMS,
        "schedule_rounds": COVERAGE_ROUNDS,
        "platforms": list(PLATFORMS),
        "detection": detection,
        "all_defects_detected": all_detected,
        "lost_detections": lost,
        "scheduled_tries_total": scheduled_tries,
        "static_tries_total": static_tries,
        "coverage_cells": coverage_cells,
        "scheduled_reports_byte_identical_jobs1_jobs4_distributed2": byte_identical,
        "scheduled_coverage_identical_across_executors": coverage_identical,
        "report_knob_arms": provenance,
        "meets_target": meets_target,
    }


def run_matrix() -> dict:
    """Run the per-defect detection matrix and diff it against the baseline.

    The matrix is the reproduction's Table 2/3 signal: one single-defect
    campaign per catalog entry, early-exiting on the first detection.  A
    defect the committed baseline records as detected but this run misses
    is a regression -- the campaign surface shrank -- and fails the job.
    Newly-detected defects are reported so the baseline can be refreshed.
    """

    records = Campaign(CampaignConfig(seed=SEED)).run_detection_matrix()
    results = {
        record.bug.bug_id: {
            "detected": record.detected,
            "technique": record.technique,
            "programs_tried": record.programs_tried,
        }
        for record in records
    }
    baseline = {}
    if os.path.exists(DETECTION_BASELINE_PATH):
        with open(DETECTION_BASELINE_PATH) as handle:
            baseline = json.load(handle)
    lost = sorted(
        bug_id
        for bug_id, entry in baseline.items()
        if entry.get("detected") and not results.get(bug_id, {}).get("detected")
    )
    gained = sorted(
        bug_id
        for bug_id, entry in results.items()
        if entry["detected"] and not baseline.get(bug_id, {}).get("detected", False)
    )
    return {
        "baseline": os.path.relpath(DETECTION_BASELINE_PATH, _ROOT),
        "results": results,
        "lost_detections": lost,
        "new_detections": gained,
        "regressed": bool(lost),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="campaign perf harness")
    parser.add_argument("--scaling", action="store_true",
                        help="also record the worker-scaling curve")
    parser.add_argument("--reduce", action="store_true",
                        help="also record per-report reduction ratio + wall time")
    parser.add_argument("--coverage", action="store_true",
                        help="record the feedback-directed generation section: "
                             "scheduled detection matrix vs the static try "
                             "budget, pass/rule cell counts on unseeded "
                             "corpora, and the scheduled-campaign "
                             "byte-identity check across executors")
    parser.add_argument("--matrix", action="store_true",
                        help="run the per-defect detection matrix and fail on "
                             "detections lost vs. benchmarks/detection_baseline.json")
    parser.add_argument("--hotpath", action="store_true",
                        help="record the validation hot-path section: jobs=1 "
                             "throughput, SAT invocation and bit-blast miss "
                             "ratchets, and the jobs=1 vs jobs=4 determinism check")
    parser.add_argument("--distributed", action="store_true",
                        help="record the coordinator/worker smoke: units/sec "
                             "per fleet size, leases reclaimed under a worker "
                             "kill, and the byte-identity check vs jobs=1")
    parser.add_argument("--stateful", action="store_true",
                        help="record the multi-packet stateful campaign: "
                             "sequences/sec, state-divergence findings, "
                             "per-defect detection of the stateful seeded "
                             "defects, and the distributed byte-identity check")
    parser.add_argument("--programs", type=int, default=SCALING_PROGRAMS,
                        help="campaign size for the scaling curve")
    parser.add_argument("--jobs-list", default=",".join(map(str, SCALING_JOBS)),
                        help="comma-separated job counts (default 1,2,4,8)")
    args = parser.parse_args(argv)

    out_path = os.path.join(_ROOT, "BENCH_campaign.json")
    payload = {}
    if os.path.exists(out_path):
        # Preserve the other workload's latest numbers when only one is run.
        try:
            with open(out_path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = {}

    after = run_reference()
    backends = run_backends()
    speedup = SEED_BASELINE_S / after["elapsed_s"] if after["elapsed_s"] else float("inf")
    payload.update(
        {
            "benchmark": f"campaign_{PROGRAMS}programs_{len(PLATFORMS)}platforms_seed{SEED}",
            "before": {
                "elapsed_s": SEED_BASELINE_S,
                "completed": SEED_BASELINE_COMPLETED,
                "source": (
                    "seed tree (commit beed3ba), pre-overhaul; killed after 81 min "
                    "without completing (1 program: 0.1 s, 2 programs: > 570 s), so "
                    "elapsed_s is a lower bound and the speedup is a floor"
                ),
            },
            "after": after,
            "speedup": round(speedup, 1),
            "target_speedup": 5.0,
            "meets_target": speedup >= 5.0,
            "backends_campaign": backends,
        }
    )

    if args.scaling:
        jobs_list = tuple(
            int(item) for item in args.jobs_list.split(",") if item.strip()
        )
        if not jobs_list:
            parser.error("--jobs-list must name at least one job count")
        print(f"scaling curve: {args.programs} programs x {jobs_list} jobs", flush=True)
        payload["scaling"] = run_scaling(args.programs, jobs_list)

    if args.hotpath:
        print(f"hotpath: {args.programs} programs x {len(PLATFORMS)} platforms, "
              "jobs=1, cold caches", flush=True)
        payload["hotpath"] = run_hotpath(args.programs)

    if args.reduce:
        print(f"triage: {PROGRAMS} programs x {len(REDUCE_BUGS)} seeded defects",
              flush=True)
        payload["triage"] = run_reduce()

    if args.distributed:
        print(f"distributed smoke: {DISTRIBUTED_PROGRAMS} programs x "
              f"{len(PLATFORMS)} platforms, workers {DISTRIBUTED_WORKERS}",
              flush=True)
        payload["distributed"] = run_distributed()

    if args.stateful:
        print(f"stateful: {STATEFUL_PROGRAMS} programs x "
              f"{len(STATEFUL_PLATFORMS)} platforms, "
              f"{STATEFUL_SEQUENCE_LENGTH}-packet sequences", flush=True)
        payload["stateful"] = run_stateful()

    if args.coverage:
        print("coverage: scheduled detection matrix + unseeded cell counts + "
              "scheduled determinism", flush=True)
        payload["coverage"] = run_coverage()

    if args.matrix:
        print("detection matrix: one single-defect campaign per catalog entry",
              flush=True)
        payload["detection_matrix"] = run_matrix()

    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(
        {
            k: v
            for k, v in payload.items()
            if k not in (
                "scaling", "triage", "hotpath", "distributed", "stateful",
                "coverage",
            )
        },
        indent=2,
    ))
    if "hotpath" in payload and args.hotpath:
        hotpath = payload["hotpath"]
        print(
            f"hotpath: {hotpath['programs_per_sec']} programs/s "
            f"({hotpath['speedup_vs_baseline']}x vs "
            f"{hotpath['before']['programs_per_sec']}), "
            f"{hotpath['sat_invocations']} SAT invocations "
            f"(max {hotpath['max_sat_invocations']}), "
            f"{hotpath['bitblast_misses']} bit-blast misses "
            f"(max {hotpath['max_bitblast_misses']}), "
            f"byte-identical jobs 1 vs 4: "
            f"{hotpath['reports_byte_identical_jobs1_vs_jobs4']}, "
            f"swallowed errors: {hotpath['clean_errors']}"
        )
        for name, entry in hotpath["caches"].items():
            print(
                f"    {name:10s} {entry['hits']:6d} hits / "
                f"{entry['misses']:6d} misses ({entry['hit_rate']:.0%})"
            )
    if "scaling" in payload:
        summary = [
            (point["jobs"], point["elapsed_s"], point["speedup_vs_baseline"])
            for point in payload["scaling"]["curve"]
        ]
        print(f"scaling (jobs, s, x): {summary}")
        print(f"deterministic across jobs: {payload['scaling']['deterministic']}")
    if "triage" in payload:
        triage = payload["triage"]
        for entry in triage["reports"]:
            print(
                f"  {entry['identifier']:45s} "
                f"{entry['original_statements']:3d} -> {entry['reduced_statements']:2d} stmts "
                f"({entry['reduction_ratio']:.0%}) in {entry['elapsed_s']:.2f}s"
            )
        print(
            f"triage: mean reduction {triage['mean_reduction_ratio']:.0%} "
            f"(target >= {triage['target_mean_reduction']:.0%}), "
            f"{triage['triage_elapsed_s']}s for {len(triage['reports'])} reports"
        )
        for name, entry in triage["reduction_quality"]["per_transform_class"].items():
            print(
                f"    {name:24s} {entry['oracle_calls']:5d} oracle calls, "
                f"{entry['kept_edits']:4d} kept, "
                f"-{entry['statements_removed']} stmts "
                f"({entry['statements_removed_per_oracle_call']:.3f}/call)"
            )
    if args.distributed and "distributed" in payload:
        distributed = payload["distributed"]
        print(
            f"distributed: serial {distributed['serial']['units_per_sec']} units/s"
        )
        for point in distributed["curve"]:
            killed = " (one worker killed mid-lease)" if point[
                "worker_killed_mid_lease"
            ] else ""
            print(
                f"    workers={point['workers']}: {point['units_per_sec']} units/s, "
                f"{point['leases_issued']} leases issued, "
                f"{point['leases_reclaimed']} reclaimed, "
                f"{point['duplicates_discarded']} duplicates discarded{killed}"
            )
        print(f"distributed deterministic vs jobs=1: {distributed['deterministic']}")
    if args.stateful and "stateful" in payload:
        stateful = payload["stateful"]
        print(
            f"stateful: {stateful['sequences_replayed']} sequences "
            f"({stateful['packets_replayed']} packets) in "
            f"{stateful['elapsed_s']}s = {stateful['sequences_per_sec']} seq/s, "
            f"{stateful['state_divergence_findings']} state-divergence findings, "
            f"state probe caught: {stateful['state_probe_caught']}"
        )
        for bug_id, entry in stateful["detection"].items():
            print(
                f"    {bug_id:40s} detected={entry['detected']} "
                f"via {entry['technique'] or '-'}"
            )
        print(
            f"stateful byte-identical distributed=2 vs jobs=1: "
            f"{stateful['reports_byte_identical_distributed2_vs_jobs1']}"
        )
    if args.coverage and "coverage" in payload:
        coverage = payload["coverage"]
        detected = sum(
            1 for entry in coverage["detection"].values() if entry["detected"]
        )
        print(
            f"coverage: scheduled matrix {detected}/{len(coverage['detection'])} "
            f"defects in {coverage['scheduled_tries_total']} tries "
            f"(static baseline {coverage['static_tries_total']})"
        )
        for mode, cells in coverage["coverage_cells"].items():
            print(
                f"    {mode:9s} {cells['pass_cells']} pass / "
                f"{cells['rule_cells']} rule / {cells['feature_cells']} feature / "
                f"{cells['shape_cells']} shape cells"
            )
        print(
            f"coverage byte-identical jobs1/jobs4/distributed2: "
            f"{coverage['scheduled_reports_byte_identical_jobs1_jobs4_distributed2']}"
            f", coverage counters identical: "
            f"{coverage['scheduled_coverage_identical_across_executors']}"
        )
        if coverage["lost_detections"]:
            print(f"LOST DETECTIONS (scheduled matrix): {coverage['lost_detections']}")
    if args.matrix:
        matrix = payload["detection_matrix"]
        detected = sum(1 for entry in matrix["results"].values() if entry["detected"])
        print(f"detection matrix: {detected}/{len(matrix['results'])} defects detected")
        if matrix["lost_detections"]:
            print(f"LOST DETECTIONS (regression): {matrix['lost_detections']}")
        if matrix["new_detections"]:
            print(f"new detections (refresh {matrix['baseline']}): "
                  f"{matrix['new_detections']}")
    print(f"\nwrote {out_path}")
    succeeded = payload["meets_target"] and payload["backends_campaign"][
        "all_defects_reported"
    ]
    if "triage" in payload:
        succeeded = succeeded and payload["triage"]["meets_target"]
    if "hotpath" in payload:
        succeeded = succeeded and payload["hotpath"]["meets_target"]
    if "distributed" in payload:
        succeeded = succeeded and payload["distributed"]["meets_target"]
    if "stateful" in payload:
        succeeded = succeeded and payload["stateful"]["meets_target"]
    if "coverage" in payload:
        succeeded = succeeded and payload["coverage"]["meets_target"]
    if "detection_matrix" in payload:
        succeeded = succeeded and not payload["detection_matrix"]["regressed"]
    return 0 if succeeded else 1


if __name__ == "__main__":
    raise SystemExit(main())
