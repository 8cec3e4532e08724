"""The campaign benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload clean-mixed --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py            # every workload at --seed and CHECK_SEED,
                                        # then rewrites BENCHMARK.json

A run is a sequence of closed batches.  Each batch is one
``Campaign(CampaignConfig(...)).run()`` over a fixed-size corpus, in a
fresh process (``batch.py``), so every batch pays its own set-up and no
cache or heap state leaks between batches.  A run covers a fixed number
of batches, sized so that it lasts about ``--seconds`` on a quiet 2-vCPU host;
batch ``k`` of seed ``s`` generates its programs from generator seed
``1000 * s + k``, so two runs at one seed check the same corpora.  Every
batch's outputs are checked (see ``check_batch``); a failed check fails
the run.

With ``--trace 0`` the last line of output reports the gated end-to-end
metrics (``END_TO_END``); the wall-clock figures are printed above it.
With ``--trace 1`` half as many batches each run twice, untraced and then
traced (``tracer.py``), and the last line reports the per-layer metrics
(``PER_LAYER``): wall-clock figures of the untraced runs, span totals of
the traced ones, counters and triage figures, and the tracing overhead as
traced wall time minus untraced wall time.  ``README.md`` maps each
per-layer metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench")
BATCH_TIMEOUT_S = 150

PLATFORMS = ["p4c", "bmv2", "tofino", "ebpf"]
RUN_SECONDS = 16
#: The second seed of the all-workloads run.
CHECK_SEED = 1

#: name -> (why, batch corpus size, batches per RUN_SECONDS,
#: CampaignConfig fields, fleet?).
WORKLOADS: Dict[str, Tuple[str, int, int, dict, bool]] = {
    "clean-mixed": (
        "CI case: no defects, all four platforms, jobs=1; all time is on the "
        "check path and triage/bisection never run (their bypass workload)",
        40,
        6,
        {},
        False,
    ),
    "seeded-triage": (
        "finding path: whole defect catalog, reduce=True; crash classification, "
        "witnesses, per-defect bisection, ddmin reduction, localization, merge",
        15,
        5,
        {"all_bugs": True, "reduce": True},
        False,
    ),
    "stateful-deep": (
        "registers on every program, header stacks on half, 3-packet sequences: "
        "larger terms, multi-packet testgen/replay, stateful lowering passes",
        20,
        7,
        {"generator": {"p_register": 1.0, "p_header_stack": 0.5}, "sequence_length": 3},
        False,
    ),
    "fleet-2": (
        "clean-mixed corpus on a 2-worker localhost coordinator fleet with a JSONL "
        "store: the only run of coordinator/protocol/worker/store code",
        40,
        8,
        {},
        True,
    ),
}

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
#: Throughput, CPU time per program and latency are not gated: on a shared
#: host they move by more than any usable bound (README.md has the numbers),
#: so they are recorded as the ``wall.*`` per-layer metrics instead.
END_TO_END = [
    ("sat_calls_per_program", "count", "lower", 0.25),
    ("coverage_cells", "count", "higher", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
]

WALL_CLOCK = [
    ("wall.programs_per_s", "1/s"),
    ("wall.cpu_s_per_program", "s"),
    ("wall.setup_s", "s"),
    ("wall.program_p50_ms", "ms"),
    ("wall.program_p90_ms", "ms"),
]

PASSES = [
    "TypeChecking", "SimplifyDefUse", "InlineFunctions", "RemoveActionParameters",
    "ParserGraphs", "TypeCheckingPost", "CheckNoFunctionCalls",
    "HeaderStackFlattening", "StatefulLowering", "ConstantFolding",
    "StrengthReduction", "Predication", "LocalCopyPropagation",
    "DeadCodeElimination", "SimplifyControlFlow",
]

#: The merged ``CampaignStatistics.counters`` (without coverage cells) that
#: no layer metric below already reports, as ``counters.<name>``:
#: deterministic work counts at jobs=1.
COUNTERS = [
    "solver_sat_invocations", "solver_syntactic_equivalences",
    "solver_constant_verdicts", "solver_batched_checks",
    "solver_equivalence_cache_hits", "solver_bitblast_hits", "solver_bitblast_misses",
    "prefix_hits", "prefix_misses", "reparse_hits", "reparse_misses",
    "interp_hits", "interp_misses", "testgen_hits", "testgen_misses",
    "dist_leases_completed", "dist_outcomes_streamed", "dist_duplicates_discarded",
    "dist_torn_lines", "dist_heartbeats", "dist_backpressure_retries",
    "dist_workers_seen",
]

PER_LAYER: List[Tuple[str, str]] = (
    WALL_CLOCK
    + [
        ("generator.calls", "count"), ("generator.self_s", "s"),
        ("emitter.calls", "count"), ("emitter.self_s", "s"),
        ("parser.calls", "count"), ("parser.self_s", "s"), ("parser.kbytes_per_s", "kB/s"),
        ("compiler.compiles", "count"), ("compiler.self_s", "s"),
        ("compiler.prefix_hit_rate", "ratio"),
    ]
    + [(f"compiler.pass.{name}.self_s", "s") for name in PASSES]
    + [
        ("validation.self_s", "s"), ("validation.reparse_hit_rate", "ratio"),
        ("validation.interp_hit_rate", "ratio"),
        ("interpreter.calls", "count"), ("interpreter.self_s", "s"),
        ("simplify.calls", "count"), ("simplify.self_s", "s"), ("simplify.hit_rate", "ratio"),
        ("bitblast.calls", "count"), ("bitblast.self_s", "s"), ("bitblast.hit_rate", "ratio"),
        ("sat.calls", "count"), ("sat.self_s", "s"), ("sat.conflicts", "count"),
        ("solver.calls", "count"), ("solver.self_s", "s"), ("solver.checks", "count"),
        ("solver.syntactic_share", "ratio"), ("solver.budget_exhausted", "count"),
        ("solver.undecided_share", "ratio"),
        ("testgen.self_s", "s"), ("testgen.hit_rate", "ratio"),
        ("targets.link_self_s", "s"), ("targets.replay_self_s", "s"),
        ("targets.packets_replayed", "count"), ("targets.sequences_replayed", "count"),
        ("targets.packet_checks", "count"),
        ("reduce.self_s", "s"), ("reduce.oracle_calls", "count"), ("localize.self_s", "s"),
        ("stages.self_s", "s"), ("merge.self_s", "s"),
        ("store.self_s", "s"), ("store.bytes", "bytes"),
        ("coordinator.leases_issued", "count"), ("coordinator.leases_reclaimed", "count"),
        ("coordinator.bytes_streamed", "bytes"),
        ("gc.pause_s", "s"), ("gc.gen2_collections", "count"),
        ("campaign.units", "count"), ("campaign.unit_error_rate", "ratio"),
        ("triage.distinct_reports", "count"), ("triage.s_per_report", "s"),
        ("triage.reduction_ratio", "ratio"),
        ("trace.programs", "count"), ("trace.spans", "count"),
        ("trace.overhead_s", "s"), ("trace.overhead_share", "ratio"),
    ]
    + [(f"counters.{name}", "count") for name in COUNTERS]
)


def _better(name: str, unit: str) -> str:
    """Rates of useful outcomes should rise; time, work and waste should fall."""

    useful = ("hit_rate", "syntactic_share", "reduction_ratio", "distinct_reports")
    return "higher" if unit in ("kB/s", "1/s") or name.endswith(useful) else "lower"


def manifest() -> dict:
    """The content of ``BENCHMARK.json``, derived from the tables above."""

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (why, *_) in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": _better(name, unit)}
            for name, unit in PER_LAYER
        ],
    }


# ----------------------------------------------------------------------
# Batches
# ----------------------------------------------------------------------

class BenchmarkError(Exception):
    """A batch process failed; the run reports no result."""


def batch_spec(workload: str, seed: int, index: int, trace: bool, fleet=None) -> dict:
    _, programs, _, extra, is_fleet = WORKLOADS[workload]
    fleet = is_fleet if fleet is None else fleet
    config = {"programs": programs, "seed": 1000 * seed + index, "platforms": PLATFORMS}
    config.update(extra)
    prefix = os.path.join(WORK_DIR, f"{workload}-s{seed}-b{index}-{'t' if trace else 'u'}")
    return {
        "trace": trace,
        "fleet": fleet,
        "config": config,
        "store": prefix + ".store.jsonl",
        "spans": prefix,
    }


def run_batch(spec: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = os.path.join(WORK_DIR, "tmp")
    # String hashing changes dict and set layouts and moves a batch's wall
    # time by up to 20%; derive it from the batch seed like the corpus.
    env["PYTHONHASHSEED"] = str(spec["config"]["seed"] % 4294967296)
    spec = dict(spec, launched=time.monotonic())
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "batch.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=BATCH_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"batch timed out after {BATCH_TIMEOUT_S}s: {spec['config']}") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"batch failed ({done.returncode}):\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _coverage(counters: Dict[str, int]) -> Dict[str, int]:
    return {key: value for key, value in counters.items() if key.startswith("cov_")}


def check_batch(workload: str, batch: dict) -> List[str]:
    """Correctness of one batch's outputs; returns the failed checks."""

    problems = []
    expected = {(index, platform) for index in range(batch["programs"])
                for platform in batch["platforms"]}
    seen = [tuple(key) for _, _, key in batch["outcomes"]]
    if batch["units_total"] != len(expected) or set(seen) != expected or len(seen) != len(expected):
        problems.append(f"{len(seen)} outcomes for {len(expected)} units")
    if batch["units_reused"]:
        problems.append(f"{batch['units_reused']} units served from a stale store")
    if batch["oracle_errors"]:
        problems.append(f"{batch['oracle_errors']} oracle errors")
    if workload == "seeded-triage":
        catalog = batch["bug_platforms"]
        for report in batch["reports"]:
            platform, _, bug_id = report["identifier"].partition(":")
            if catalog.get(bug_id) != platform:
                problems.append(f"report {report['identifier']} names no enabled defect of {platform}")
            if not report["reduced"]:
                problems.append(f"triage of {report['identifier']} did not reproduce")
        if not batch["reports"]:
            problems.append("no reports filed with every defect enabled")
        if batch["triage_total"] != len(batch["reports"]):
            problems.append(f"{batch['triage_total']} triage units for {len(batch['reports'])} reports")
    elif batch["reports"] or batch["crash_findings"] or batch["semantic_findings"]:
        problems.append(
            f"false alarms on a clean pipeline: {[r['identifier'] for r in batch['reports']]}"
        )
    return problems


def batch_failures(batch: dict) -> int:
    missing = batch["units_total"] - len(batch["outcomes"])
    unreproduced = sum(1 for report in batch["reports"] if not report["reduced"])
    return batch["oracle_errors"] + max(0, missing) + (unreproduced if batch["triage_total"] else 0)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runs: List[dict]) -> Dict[str, float]:
    """The gated metrics: work per program, coverage, memory and set-up."""

    programs = sum(run["programs"] for run in runs)
    sat_calls = sum(run["counters"].get("solver_sat_invocations", 0) for run in runs)
    return {
        "sat_calls_per_program": sat_calls / programs,
        "coverage_cells": statistics.median(
            sum(1 for value in _coverage(run["counters"]).values() if value) for run in runs
        ),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        "setup_s": statistics.median(run["setup_s"] for run in runs),
    }


def wall_clock(runs: List[dict]) -> Dict[str, float]:
    """Throughput, CPU and latency of untraced runs (recorded, not gated).

    A program's check time is the sum of its units' ``elapsed_s``.  Unit
    latencies themselves cluster by platform (a program's first unit
    compiles and validates, later ones hit its caches), and their median
    falls in a gap between clusters, so it jumps from run to run; the
    per-program sums do not.
    """

    programs = sum(run["programs"] for run in runs)
    latencies: List[float] = []
    for run in runs:
        per_program: Dict[int, float] = {}
        for elapsed, _, (index, _) in run["outcomes"]:
            per_program[index] = per_program.get(index, 0.0) + elapsed * 1000.0
        latencies.extend(per_program.values())
    return {
        "wall.programs_per_s": programs / sum(run["wall_s"] for run in runs),
        "wall.cpu_s_per_program": sum(run["cpu_s"] for run in runs) / programs,
        "wall.setup_s": statistics.median(run["setup_wall_s"] for run in runs),
        "wall.program_p50_ms": statistics.median(latencies),
        "wall.program_p90_ms": _percentile(latencies, 90),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(pairs: List[Tuple[dict, dict]]) -> Dict[str, float]:
    """Per-layer metrics over (untraced, traced) batch pairs."""

    calls: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    extra: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    gc_pause = gc_gen2 = spans = 0.0
    for plain, traced in pairs:
        trace = traced["trace"]
        for table, source in ((calls, trace["calls"]), (self_s, trace["self_s"]),
                              (extra, trace["extra"]), (counters, plain["counters"])):
            for key, value in source.items():
                table[key] = table.get(key, 0) + value
        gc_pause += trace["gc_pause_s"]
        gc_gen2 += trace["gc_gen2"]
        spans += trace["spans"]

    def count(key: str) -> float:
        return counters.get(key, 0)

    untraced_wall = sum(plain["wall_s"] for plain, _ in pairs)
    traced_wall = sum(traced["wall_s"] for _, traced in pairs)
    reports = [report for plain, _ in pairs for report in plain["reports"]]
    triage_wall = sum(plain["triage_wall_s"] for plain, _ in pairs)
    units = sum(plain["units_total"] for plain, _ in pairs)
    failures = sum(batch_failures(plain) for plain, _ in pairs)

    metrics = wall_clock([plain for plain, _ in pairs])
    metrics.update({
        "generator.calls": calls.get("generator", 0),
        "generator.self_s": self_s.get("generator", 0.0),
        "emitter.calls": calls.get("emitter", 0),
        "emitter.self_s": self_s.get("emitter", 0.0),
        "parser.calls": calls.get("parser", 0),
        "parser.self_s": self_s.get("parser", 0.0),
        "parser.kbytes_per_s": _ratio(extra.get("parser.bytes", 0) / 1000.0, self_s.get("parser", 0.0)),
        "compiler.compiles": calls.get("compiler", 0),
        "compiler.self_s": sum(value for key, value in self_s.items() if key.startswith("compiler")),
        "compiler.prefix_hit_rate": _ratio(count("prefix_hits"), count("prefix_hits") + count("prefix_misses")),
        "validation.self_s": self_s.get("validation", 0.0),
        "validation.reparse_hit_rate": _ratio(count("reparse_hits"), count("reparse_hits") + count("reparse_misses")),
        "validation.interp_hit_rate": _ratio(count("interp_hits"), count("interp_hits") + count("interp_misses")),
        "interpreter.calls": calls.get("interpreter", 0),
        "interpreter.self_s": self_s.get("interpreter", 0.0),
        "simplify.calls": calls.get("simplify", 0),
        "simplify.self_s": self_s.get("simplify", 0.0),
        "simplify.hit_rate": _ratio(extra.get("simplify.hits", 0), calls.get("simplify", 0)),
        "bitblast.calls": calls.get("bitblast", 0),
        "bitblast.self_s": self_s.get("bitblast", 0.0),
        "bitblast.hit_rate": _ratio(
            count("solver_bitblast_hits"), count("solver_bitblast_hits") + count("solver_bitblast_misses")
        ),
        "sat.calls": calls.get("sat", 0),
        "sat.self_s": self_s.get("sat", 0.0),
        "sat.conflicts": extra.get("sat.conflicts", 0),
        "solver.calls": calls.get("solver", 0),
        "solver.self_s": self_s.get("solver", 0.0),
        "solver.checks": count("solver_checks"),
        "solver.syntactic_share": _ratio(
            count("solver_syntactic_equivalences"),
            count("solver_syntactic_equivalences") + count("solver_checks"),
        ),
        "solver.budget_exhausted": count("solver_budget_exhausted"),
        "solver.undecided_share": _ratio(count("solver_budget_exhausted"), count("solver_checks")),
        "testgen.self_s": self_s.get("testgen", 0.0),
        "testgen.hit_rate": _ratio(count("testgen_hits"), count("testgen_hits") + count("testgen_misses")),
        "targets.link_self_s": self_s.get("targets.link", 0.0),
        "targets.replay_self_s": self_s.get("targets.replay", 0.0) + self_s.get("targets.packet_check", 0.0),
        "targets.packets_replayed": count("packets_replayed"),
        "targets.sequences_replayed": count("sequences_replayed"),
        "targets.packet_checks": calls.get("targets.packet_check", 0),
        "reduce.self_s": self_s.get("reduce", 0.0),
        "reduce.oracle_calls": extra.get("reduce.oracle_calls", 0),
        "localize.self_s": self_s.get("localize", 0.0),
        "stages.self_s": self_s.get("stages", 0.0),
        "merge.self_s": self_s.get("merge", 0.0),
        "store.self_s": self_s.get("store", 0.0),
        "store.bytes": sum(plain["store_bytes"] for plain, _ in pairs),
        "coordinator.leases_issued": count("dist_leases_issued"),
        "coordinator.leases_reclaimed": count("dist_leases_reclaimed"),
        "coordinator.bytes_streamed": count("dist_bytes_streamed"),
        "gc.pause_s": gc_pause,
        "gc.gen2_collections": gc_gen2,
        "campaign.units": units,
        "campaign.unit_error_rate": _ratio(failures, units),
        "triage.distinct_reports": len(reports),
        "triage.s_per_report": _ratio(triage_wall, len(reports)),
        "triage.reduction_ratio": _ratio(
            sum(report["reduction_ratio"] for report in reports if report["reduced"]),
            sum(1 for report in reports if report["reduced"]),
        ),
        "trace.programs": sum(traced["programs"] for _, traced in pairs),
        "trace.spans": spans,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_share": _ratio(traced_wall - untraced_wall, untraced_wall),
    })
    for name in PASSES:
        metrics[f"compiler.pass.{name}.self_s"] = self_s.get(f"compiler.pass.{name}", 0.0)
    for name in COUNTERS:
        metrics[f"counters.{name}"] = count(name)
    return metrics


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the corpora of ``workload`` that fit ``seconds``; check and measure them.

    Traced (``trace``), half as many corpora each run twice: untraced, then traced.
    The two runs are two campaigns over one corpus, so they must merge the
    same coverage and, at ``jobs=1``, the same work counters.
    """

    os.makedirs(os.path.join(WORK_DIR, "tmp"), exist_ok=True)
    _, _, batches, _, fleet = WORKLOADS[workload]
    batches = max(1, round(batches * seconds / RUN_SECONDS / (2 if trace else 1)))
    problems: List[str] = []
    runs: List[dict] = []
    pairs: List[Tuple[dict, dict]] = []
    for index in range(batches):
        plain = run_batch(batch_spec(workload, seed, index, trace=False))
        problems += [f"corpus {index}: {problem}" for problem in check_batch(workload, plain)]
        runs.append(plain)
        if trace:
            traced = run_batch(batch_spec(workload, seed, index, trace=True))
            problems += [f"traced corpus {index}: {p}" for p in check_batch(workload, traced)]
            if _coverage(plain["counters"]) != _coverage(traced["counters"]):
                problems.append(f"corpus {index}: coverage differs between two runs")
            if not fleet and plain["counters"] != traced["counters"]:
                problems.append(f"corpus {index}: work counters differ between two jobs=1 runs")
            runs.append(traced)
            pairs.append((plain, traced))

    if fleet:
        # The fleet must merge exactly the coverage of the same corpus at jobs=1.
        reference = run_batch(batch_spec(workload, seed, 0, trace=False, fleet=False))
        if _coverage(reference["counters"]) != _coverage(runs[0]["counters"]):
            problems.append("fleet coverage differs from the jobs=1 run of the same corpus")

    if trace:
        metrics, units = per_layer(pairs), dict(PER_LAYER)
    else:
        metrics, units = end_to_end(runs), {name: unit for name, unit, *_ in END_TO_END}
    return {
        "correct": not problems,
        "attempted": sum(batch["units_total"] + batch["triage_total"] for batch in runs),
        "failed": sum(batch_failures(batch) for batch in runs),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "recorded": {} if trace else wall_clock(runs),
        "problems": problems,
        "corpora": batches,
    }


def _print_metrics(workload: str, seed: int, result: dict, corpus: int) -> None:
    print(f"# {workload} seed={seed}: {result['corpora']} corpora x {corpus} programs; "
          f"{result['attempted']} units attempted, {result['failed']} failed, "
          f"correct={result['correct']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    for name, value in result["recorded"].items():
        print(f"  {name:<40} {value:>14.6g} {dict(WALL_CLOCK)[name]} (recorded, not gated)")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no library sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    seeds = [args.seed] if args.workload else [args.seed, CHECK_SEED]
    ok = True
    result = None
    for workload in workloads:
        for seed in seeds:
            try:
                result = run_workload(workload, seed, args.seconds, bool(args.trace))
            except BenchmarkError as exc:
                print(f"{workload} seed={seed}: {exc}", file=sys.stderr)
                return 1
            _print_metrics(workload, seed, result, WORKLOADS[workload][1])
            ok = ok and result["correct"]
    if not args.workload:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
            json.dump(manifest(), handle, indent=2)
            handle.write("\n")
        print("wrote BENCHMARK.json")
    else:
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
