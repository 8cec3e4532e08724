"""One campaign batch in a fresh process: ``python3 batch.py SPEC_JSON``.

``run.py`` starts this script once per batch, so every batch pays its own
imports (set-up time is measured, not amortised) and no cache or heap
state carries over from one batch to the next.  The spec names the
campaign configuration, whether to trace, and where to put the artifact
store and span files.  The last line of standard output is one JSON
object with the batch's measurements and the merged campaign results.

``python3 batch.py --worker HOST:PORT OUT_PREFIX`` is a traced fleet
worker: it installs the same span wrappers, serves the coordinator until
the phase drains, and writes its spans and totals next to ``OUT_PREFIX``.
"""

from __future__ import annotations

import json
import os
import resource
import socket
import subprocess
import sys
import time

# The tracer lives next to this file; the library comes from the
# checkout's ``src`` directory, which ``run.py`` puts on PYTHONPATH.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, install  # noqa: E402


def _maxrss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class OutcomeLog:
    """Arrival time and latency of every outcome the engine merges, and the
    batch process's CPU time when its first unit starts.

    Wraps ``OutcomeMerger.add``/``finalize`` and ``stages.run_unit`` in the
    batch process only: one clock read and one append per unit, so it runs
    in untraced batches too.  On ``fleet-2`` units run in the workers, so
    the set-up CPU time is read when the first outcome reaches the merger.
    """

    def __init__(self) -> None:
        from repro.core.engine import stages
        from repro.core.engine.merge import OutcomeMerger

        self.arrivals = []  # (monotonic arrival, elapsed_s, status, key)
        self.finalized_at = 0.0
        self.setup_cpu_s = None
        add, finalize, run_unit = OutcomeMerger.add, OutcomeMerger.finalize, stages.run_unit
        pid = os.getpid()
        log = self

        def logged_run_unit(unit):
            if log.setup_cpu_s is None and os.getpid() == pid:
                log.setup_cpu_s = _self_cpu_s()
            return run_unit(unit)

        def logged_add(merger, outcome, statistics):
            if log.setup_cpu_s is None:
                log.setup_cpu_s = _self_cpu_s()
            log.arrivals.append(
                (time.monotonic(), outcome.elapsed_s, outcome.status, list(outcome.key))
            )
            return add(merger, outcome, statistics)

        def logged_finalize(merger, statistics):
            result = finalize(merger, statistics)
            log.finalized_at = time.monotonic()
            return result

        OutcomeMerger.add = logged_add
        OutcomeMerger.finalize = logged_finalize
        stages.run_unit = logged_run_unit


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _campaign_config(spec: dict, port: int = 0):
    from repro.compiler.bugs import BUG_CATALOG
    from repro.core.campaign import CampaignConfig
    from repro.core.generator import GeneratorConfig

    config = dict(spec["config"])
    if config.pop("all_bugs", False):
        config["enabled_bugs"] = tuple(BUG_CATALOG)
    generator = config.pop("generator", None)
    if generator is not None:
        config["generator"] = GeneratorConfig(seed=config["seed"], **generator)
    if spec.get("fleet"):
        config["artifact_path"] = spec["store"]
        if port:
            config["serve"] = f"127.0.0.1:{port}"
        else:
            config["distributed"] = 2
    return CampaignConfig(**config)


def _start_traced_workers(port: int, prefix: str, count: int = 2):
    return [
        subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker",
             f"127.0.0.1:{port}", f"{prefix}.w{index}"]
        )
        for index in range(count)
    ]


def run_batch(spec: dict) -> dict:
    launched = spec["launched"]
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        install(tracer)
    from repro.compiler.bugs import BUG_CATALOG
    from repro.core.campaign import Campaign

    log = OutcomeLog()
    workers = []
    port = 0
    if spec.get("fleet") and os.path.exists(spec["store"]):
        os.remove(spec["store"])  # a stale store would resume instead of run
    if tracer is not None and spec.get("fleet"):
        port = _free_port()
        workers = _start_traced_workers(port, spec["spans"])
    elif tracer is not None:
        tracer.start_gc()
    config = _campaign_config(spec, port)

    cpu_before = _cpu_s()
    try:
        statistics = Campaign(config).run()
    finally:
        for worker in workers:
            try:
                worker.wait(timeout=60)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
    finished = time.monotonic()
    cpu = _cpu_s() - cpu_before
    if tracer is not None:
        tracer.stop_gc()

    first_start = min(
        (arrival - elapsed for arrival, elapsed, _, _ in log.arrivals), default=finished
    )
    reports = [
        {
            "identifier": report.identifier,
            "reduced": bool(report.reduced_source),
            "reduction_ratio": report.reduction_ratio,
        }
        for report in statistics.tracker.reports
    ]
    result = {
        "programs": config.programs,
        "platforms": list(config.platforms),
        "bug_platforms": {bug: BUG_CATALOG[bug].platform for bug in config.enabled_bugs},
        "setup_s": log.setup_cpu_s,
        "setup_wall_s": first_start - launched,
        "wall_s": finished - first_start,
        "triage_wall_s": finished - log.finalized_at if statistics.triage_total else 0.0,
        "cpu_s": cpu,
        "peak_rss_mb": _maxrss_mb(),
        "outcomes": [[elapsed, status, key] for _, elapsed, status, key in log.arrivals],
        "units_total": statistics.units_total,
        "units_reused": statistics.units_reused,
        "oracle_errors": statistics.oracle_errors,
        "crash_findings": statistics.crash_findings,
        "semantic_findings": statistics.semantic_findings,
        "reports": reports,
        "triage_total": statistics.triage_total,
        "triage_reused": statistics.triage_reused,
        "counters": dict(statistics.counters),
        "store_bytes": 0,
    }
    if spec.get("fleet") and os.path.exists(spec["store"]):
        result["store_bytes"] = os.path.getsize(spec["store"])
        os.remove(spec["store"])
    if tracer is not None:
        summary = tracer.summary()
        tracer.dump(spec["spans"] + ".spans.jsonl")
        for worker_index in range(len(workers)):
            with open(f"{spec['spans']}.w{worker_index}.json", encoding="utf-8") as handle:
                summary = _merge_summaries(summary, json.load(handle))
        result["trace"] = summary
    return result


def _merge_summaries(left: dict, right: dict) -> dict:
    merged = dict(left)
    for key in ("calls", "self_s", "extra"):
        table = dict(left[key])
        for name, value in right[key].items():
            table[name] = table.get(name, 0) + value
        merged[key] = table
    for key in ("gc_pause_s", "gc_gen2", "spans"):
        merged[key] = left[key] + right[key]
    return merged


def run_traced_worker(address: str, prefix: str) -> None:
    tracer = Tracer()
    install(tracer)
    from repro.core.engine.worker import run_worker

    host, _, port = address.rpartition(":")
    tracer.start_gc()
    run_worker(host, int(port), f"traced-{os.getpid()}")
    tracer.stop_gc()
    tracer.dump(prefix + ".spans.jsonl")
    with open(prefix + ".json", "w", encoding="utf-8") as handle:
        json.dump(tracer.summary(), handle)


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--worker":
        run_traced_worker(argv[1], argv[2])
        return 0
    if len(argv) != 1:
        print("usage: batch.py SPEC_JSON | --worker HOST:PORT OUT_PREFIX", file=sys.stderr)
        return 2
    print(json.dumps(run_batch(json.loads(argv[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
