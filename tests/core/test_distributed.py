"""Tests for the distributed campaign service (coordinator/worker fleet).

The service's contract extends the engine's executor-equivalence leg:

* **transport equivalence** — a campaign run on a coordinator/worker
  fleet files byte-identical reports to ``jobs=1``, including when a
  worker is killed mid-lease (the range is reclaimed and re-issued);
* **coordinator resume** — a killed coordinator restarts from the JSONL
  store (plus its lease journal) and finishes to the identical result
  without re-running completed units;
* **stream hygiene** — torn streamed lines are discarded without
  poisoning the connection, and duplicate outcome lines (at-least-once
  delivery) are accepted exactly once, by the same first-write-wins
  dedup the store's resume loader applies.
"""

import json
import threading

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.engine import (
    ArtifactStore,
    CampaignEngine,
    CampaignSpec,
    CoordinatorService,
    DistributedExecutor,
    OutcomeDedup,
    ProgramOutcome,
    UnitOutcome,
    build_units,
    campaign_key,
    run_worker,
)
from repro.core.engine import protocol
from repro.core.engine.units import STATUS_CLEAN
from repro.core.generator import GeneratorConfig

ENABLED = (
    "constant_folding_no_mask",
    "strength_reduction_negative_slice",
    "exit_ignores_copy_out",
    "bmv2_wide_field_truncation",
    "tofino_slice_assignment_drop",
)


def small_spec(**overrides):
    defaults = dict(
        programs=6,
        generator=GeneratorConfig(seed=3),
        enabled_bugs=ENABLED,
        platforms=("p4c", "bmv2"),
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def reports(stats):
    return [report.to_dict() for report in stats.tracker.reports]


def headline(stats):
    return (
        stats.programs_generated,
        stats.programs_rejected,
        stats.oracle_errors,
        stats.crash_findings,
        stats.semantic_findings,
    )


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------

class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "outcome", "outcome": {"program_index": 3, "x": "y"}}
        assert protocol.decode(protocol.encode(message).rstrip(b"\n")) == message

    def test_torn_and_garbage_lines_decode_to_none(self):
        assert protocol.decode(b'{"op": "lease"') is None  # torn mid-object
        assert protocol.decode(b"not json at all") is None
        assert protocol.decode(b"") is None
        assert protocol.decode(b"[1, 2, 3]") is None  # not an object

    def test_parse_address_forms(self):
        assert protocol.parse_address("10.0.0.7:9444") == ("10.0.0.7", 9444)
        assert protocol.parse_address(":9444") == ("127.0.0.1", 9444)
        assert protocol.parse_address("9444") == ("127.0.0.1", 9444)


# ----------------------------------------------------------------------
# Coordinator service over a raw protocol client (no subprocesses)
# ----------------------------------------------------------------------

def _clean_outcome(unit):
    return ProgramOutcome(
        program_index=unit.program_index,
        outcomes=[
            UnitOutcome(
                program_index=unit.program_index,
                platform=platform,
                status=STATUS_CLEAN,
                source="",
            )
            for platform in unit.platforms
        ],
    )


class TestCoordinatorService:
    def _units(self, programs=4, platforms=("p4c", "bmv2")):
        return build_units(
            programs=programs,
            platforms=platforms,
            generator=GeneratorConfig(seed=3),
            enabled_bugs=ENABLED,
            max_tests=4,
        )

    def _start(self, units, **overrides):
        kwargs = dict(lease_units=2, lease_ttl_s=30.0)
        kwargs.update(overrides)
        service = CoordinatorService(units, **kwargs)
        host, port = service.start()
        return service, protocol.connect(host, port)

    def test_duplicate_streamed_outcome_is_discarded_exactly_once(self):
        units = self._units(programs=2, platforms=("p4c",))
        service, stream = self._start(units)
        try:
            stream.send({"op": "hello", "worker": "w"})
            assert stream.recv()["ok"]
            stream.send({"op": "lease", "worker": "w"})
            lease = stream.recv()["lease"]
            assert lease["count"] == 2

            line = {
                "op": "outcome",
                "worker": "w",
                "lease": lease["id"],
                "outcome": _clean_outcome(units[0]).to_dict(),
            }
            stream.send(line)
            first = stream.recv()
            assert first["ok"] and not first["duplicate"]
            stream.send(line)  # at-least-once delivery: the retry
            second = stream.recv()
            assert second["ok"] and second["duplicate"]

            status = service.status()
            assert status["done"] == 1
            assert status["counters"]["dist_duplicates_discarded"] == 1
            assert status["counters"]["dist_outcomes_streamed"] == 1
        finally:
            stream.close()
            service.stop()

    def test_torn_streamed_line_is_dropped_and_connection_survives(self):
        units = self._units(programs=2, platforms=("p4c",))
        service, stream = self._start(units)
        try:
            stream.send({"op": "hello", "worker": "w"})
            assert stream.recv()["ok"]
            # A line torn mid-JSON (worker died mid-write and the tail of
            # its buffer flushed later): fails to decode, is counted, and
            # the stream re-synchronises at the newline.
            stream._sock.sendall(b'{"op": "outcome", "outcome": {"trunc\n')
            stream.send({"op": "status"})
            status = stream.recv()
            assert status["ok"]
            assert status["counters"]["dist_torn_lines"] == 1
        finally:
            stream.close()
            service.stop()

    def test_expired_lease_is_reclaimed_and_reissued(self):
        clock = {"now": 0.0}
        units = self._units(programs=2, platforms=("p4c",))
        service, stream = self._start(
            units, lease_ttl_s=5.0, clock=lambda: clock["now"]
        )
        try:
            stream.send({"op": "hello", "worker": "dead"})
            assert stream.recv()["ok"]
            stream.send({"op": "lease", "worker": "dead"})
            first = stream.recv()["lease"]
            assert first["count"] == 2

            clock["now"] = 6.0  # the dead worker never heartbeats
            stream.send({"op": "lease", "worker": "live"})
            second = stream.recv()["lease"]
            assert second["start"] == first["start"]
            assert second["count"] == first["count"]
            counters = service.status()["counters"]
            assert counters["dist_leases_reclaimed"] == 1
        finally:
            stream.close()
            service.stop()

    def test_heartbeat_keeps_a_lease_alive(self):
        clock = {"now": 0.0}
        units = self._units(programs=2, platforms=("p4c",))
        service, stream = self._start(
            units, lease_ttl_s=5.0, clock=lambda: clock["now"]
        )
        try:
            stream.send({"op": "hello", "worker": "w"})
            assert stream.recv()["ok"]
            stream.send({"op": "lease", "worker": "w"})
            lease = stream.recv()["lease"]
            for _ in range(3):
                clock["now"] += 4.0
                stream.send({"op": "heartbeat", "worker": "w", "lease": lease["id"]})
                assert stream.recv()["ok"]
            # 12s of wall time against a 5s TTL, still not reclaimed.
            assert service.status()["counters"]["dist_leases_reclaimed"] == 0
        finally:
            stream.close()
            service.stop()

    def test_backpressure_on_inflight_leases(self):
        units = self._units(programs=4, platforms=("p4c",))
        service, stream = self._start(units, lease_units=1, max_inflight_leases=1)
        try:
            stream.send({"op": "hello", "worker": "w"})
            assert stream.recv()["ok"]
            stream.send({"op": "lease", "worker": "w"})
            assert "lease" in stream.recv()
            stream.send({"op": "lease", "worker": "w"})
            throttled = stream.recv()
            assert throttled["ok"] and "retry_in" in throttled
            counters = service.status()["counters"]
            assert counters["dist_backpressure_retries"] == 1
        finally:
            stream.close()
            service.stop()

    def test_in_process_worker_drains_service(self):
        """The real worker loop against the real service, no subprocesses."""

        units = self._units(programs=2, platforms=("p4c",))
        service = CoordinatorService(units, lease_units=1, lease_ttl_s=30.0)
        host, port = service.start()
        collected = []

        def consume():
            collected.extend(service.outcomes())

        consumer = threading.Thread(target=consume)
        consumer.start()
        try:
            stats = run_worker(host, port, "inproc")
            consumer.join(timeout=30.0)
            assert stats["units"] == len(units)
            assert stats["leases"] == len(units)  # lease_units=1
            assert len(collected) == len(units)
            assert sorted(outcome.key for outcome in collected) == sorted(
                unit.key for unit in units
            )
        finally:
            service.stop()


# ----------------------------------------------------------------------
# Fault tolerance, end to end
# ----------------------------------------------------------------------

class TestWorkerDeath:
    def test_killed_worker_lease_is_reclaimed_and_result_identical(self):
        spec = small_spec()
        serial = CampaignEngine(spec).run()

        # Worker 0 hard-exits (os._exit, no goodbye) after 2 programs — mid
        # lease, since leases carry 3.  Its range must be reclaimed after
        # one TTL and finish elsewhere, with the identical merged report.
        executor = DistributedExecutor(
            2,
            lease_units=3,
            lease_ttl_s=1.0,
            heartbeat_s=0.2,
            fail_after={0: 2},
        )
        distributed = CampaignEngine(spec, executor=executor).run()

        assert reports(distributed) == reports(serial)
        assert headline(distributed) == headline(serial)
        assert distributed.counters["dist_leases_reclaimed"] >= 1
        assert distributed.counters["dist_workers_seen"] >= 2


class TestCoordinatorResume:
    def test_killed_coordinator_resumes_from_journal_and_store(self, tmp_path):
        path = str(tmp_path / "dist.jsonl")
        spec = small_spec(artifact_path=path)
        key = campaign_key(
            spec.generator,
            spec.enabled_bugs,
            spec.platforms,
            spec.max_tests,
            sequence_length=spec.sequence_length,
        )

        # Reference run (serial, no store) for the byte-identity check.
        reference = CampaignEngine(small_spec()).run()

        # First distributed run, killed after a prefix: simulate by
        # truncating the store to the first 5 lines, duplicating one
        # outcome line (an ack the killed coordinator never recorded) and
        # tearing the final line mid-write.
        first = CampaignEngine(
            spec, executor=DistributedExecutor(1, lease_units=2)
        ).run()
        assert reports(first) == reports(reference)

        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        outcome_lines = [
            line for line in lines if "\"outcome\"" in line
        ]
        kept = lines[: lines.index(outcome_lines[2]) + 1]
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(kept)
            handle.write(outcome_lines[1])  # duplicate: at-least-once
            handle.write(outcome_lines[3][: len(outcome_lines[3]) // 2])  # torn

        store = ArtifactStore(path)
        survivors = store.load(key)
        issued_before = [
            event for event in store.load_lease_events(key)
            if event["event"] == "issued"
        ]
        assert issued_before  # the journal survived the kill too

        # The cut falls inside program 1: its p4c outcome survived, its
        # bmv2 outcome did not.
        assert sorted(survivors) == [(0, "bmv2"), (0, "p4c"), (1, "p4c")]

        # The restarted coordinator reloads the store, re-leases only the
        # programs with missing platforms, and finishes to the identical
        # result.
        resumed = CampaignEngine(
            spec, executor=DistributedExecutor(1, lease_units=2)
        ).run()
        assert reports(resumed) == reports(reference)
        assert headline(resumed) == headline(reference)
        assert resumed.units_reused == len(survivors)
        # Finished programs are never re-run: every lease issued after the
        # kill covers only the programs with a platform missing from the
        # store (leases count programs).
        issued_after = [
            event for event in store.load_lease_events(key)
            if event["event"] == "issued"
        ][len(issued_before):]
        released = sum(event["count"] for event in issued_after)
        assert released == spec.programs - 1

        # And a further re-run reuses everything without a single lease.
        final = CampaignEngine(
            spec, executor=DistributedExecutor(1, lease_units=2)
        ).run()
        assert final.units_reused == final.units_total
        assert reports(final) == reports(reference)


class TestSharedDedup:
    def test_store_loader_applies_first_write_wins(self, tmp_path):
        path = str(tmp_path / "dup.jsonl")
        store = ArtifactStore(path)
        unit = build_units(
            programs=1,
            platforms=("p4c",),
            generator=GeneratorConfig(seed=3),
            enabled_bugs=ENABLED,
            max_tests=4,
        )[0]
        (first,) = _clean_outcome(unit).outcomes
        second = UnitOutcome(
            program_index=unit.program_index,
            platform="p4c",
            status="rejected",
            source="late duplicate",
        )
        store.append("k", first)
        store.append("k", second)
        loaded = store.load("k")
        assert loaded[(0, "p4c")].status == STATUS_CLEAN  # first write won

    def test_dedup_helper_counts_duplicates(self):
        dedup = OutcomeDedup()
        assert dedup.accept("a", 1)
        assert not dedup.accept("a", 2)
        assert dedup.accept("b", 3)
        assert dedup.duplicates == 1
        assert dedup.accepted == {"a": 1, "b": 3}

    def test_lease_journal_lines_are_invisible_to_outcome_loaders(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        store = ArtifactStore(path)
        store.append_lease_event("k", {"event": "issued", "lease": "L1"})
        unit = build_units(
            programs=1,
            platforms=("p4c",),
            generator=GeneratorConfig(seed=3),
            enabled_bugs=ENABLED,
            max_tests=4,
        )[0]
        (outcome,) = _clean_outcome(unit).outcomes
        store.append("k", outcome)
        store.append_lease_event("k", {"event": "completed", "lease": "L1"})
        assert len(store.load("k")) == 1
        assert store.load_triage("k") == {}
        assert [event["event"] for event in store.load_lease_events("k")] == [
            "issued",
            "completed",
        ]


class TestDefectAttribution:
    def test_same_backend_semantic_findings_attributed_per_defect(self):
        # Two independent semantic defects in the same (tofino) back end:
        # the legacy platform-fallback attribution collapsed every packet
        # mismatch onto the alphabetically first enabled defect; the
        # bisection must file one report per actual culprit.
        stats = Campaign(
            CampaignConfig(
                programs=10,
                seed=3,
                enabled_bugs=(
                    "tofino_slice_assignment_drop",
                    "tofino_ternary_condition_flip",
                ),
                platforms=("tofino",),
            )
        ).run()
        identifiers = {report.identifier for report in stats.tracker.reports}
        assert "tofino:tofino_slice_assignment_drop" in identifiers
        assert "tofino:tofino_ternary_condition_flip" in identifiers
        for report in stats.tracker.reports:
            assert report.identifier == f"tofino:{report.seeded_bug_id}"


class TestSpecWiring:
    def test_spec_distributed_selects_the_distributed_executor(self):
        engine = CampaignEngine(small_spec(distributed=2))
        executor = engine._make_executor()
        assert isinstance(executor, DistributedExecutor)
        assert executor.workers == 2

    def test_spec_serve_requires_an_explicit_port(self):
        engine = CampaignEngine(small_spec(serve=":9444"))
        executor = engine._make_executor()
        assert isinstance(executor, DistributedExecutor)
        assert executor.workers == 0

    def test_outcome_wire_round_trip_preserves_attribution(self):
        unit = build_units(
            programs=1,
            platforms=("bmv2",),
            generator=GeneratorConfig(seed=3),
            enabled_bugs=ENABLED,
            max_tests=4,
        )[0]
        payload = json.loads(json.dumps(unit.to_dict()))
        from repro.core.engine.units import WorkUnit

        back = WorkUnit.from_dict(payload)
        assert back == unit
        assert back.key == unit.key
        assert back.platforms == ("bmv2",)
        assert back.generator == unit.generator
        assert back.enabled_bugs == unit.enabled_bugs
