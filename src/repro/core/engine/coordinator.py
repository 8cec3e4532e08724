"""The campaign coordinator: owns the unit space, leases ranges, merges.

One :class:`CoordinatorService` instance runs one *phase* of one campaign
(generation units or triage units).  It owns the phase's unit list and
serves the line-oriented JSON protocol of :mod:`repro.core.engine.protocol`
on a localhost (or LAN) TCP socket:

* **lease** — a worker is granted a contiguous range of not-yet-done unit
  indexes, serialized in full (units are self-contained; a work unit is
  one program, regenerated worker-side from its per-index seed).  Backpressure is enforced
  here: a worker already holding ``max_inflight_leases`` live leases, or a
  coordinator whose outcome buffer is above ``max_outstanding``, gets a
  ``retry_in`` backoff instead of work.
* **outcome** — streamed back one line per finished unit (a work unit's
  line holds its per-platform outcomes, each in the JSONL store's format).  Outcomes pass through the shared
  first-write-wins :class:`~repro.core.engine.store.OutcomeDedup` (a
  reclaimed lease's units run at least once *somewhere*, possibly twice),
  then hit the persistence sink and the consumer queue.  Streaming an
  outcome also renews the worker's lease.
* **heartbeat** — renews a lease's deadline while a long unit executes.
  A lease whose deadline passes is *reclaimed*: its unfinished indexes
  return to the pending pool and are re-issued to the next worker that
  asks.  A killed worker therefore delays its range by at most one TTL.
* **complete** — the worker finished its range; unfinished indexes (there
  are none unless the worker aborted early) return to the pool.

Expiry sweeps run on every request, so a single surviving worker's polls
are enough to reclaim every dead lease — no timer thread, no scheduling
nondeterminism.  The coordinator is done when the dedup ledger covers the
whole unit list; subsequent lease requests answer ``drained`` so workers
exit cleanly.

Crash safety is inherited from the artifact store: every accepted outcome
is flushed to the campaign's JSONL file (via the sink) *before* it is
acknowledged, and every lease grant/reclaim/completion is journalled to
the same file under a ``lease_event`` field.  Kill the coordinator at any
point and a restart reloads the finished units from the store, rebuilds
the pending pool from what is missing, and re-leases only that — finished
units are never re-run (asserted in ``tests/core/test_distributed.py``).
"""

from __future__ import annotations

import socket
import threading
import queue as queue_module
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.engine import protocol
from repro.core.engine.store import OutcomeDedup
from repro.core.engine.units import (
    DEFAULT_LEASE_TTL_S,
    DEFAULT_LEASE_UNITS,
    KIND_WORK,
    outcome_from_dict,
    outcome_key,
    unit_key,
    unit_to_dict,
)

#: Default service tuning (the lease defaults live in ``units``).
DEFAULT_HEARTBEAT_S = 5.0
DEFAULT_MAX_INFLIGHT_LEASES = 2
DEFAULT_MAX_OUTSTANDING = 256
DEFAULT_RETRY_S = 0.2


@dataclass
class Lease:
    """One granted range: which indexes, whose, and until when."""

    lease_id: str
    worker: str
    indexes: Set[int]
    deadline: float
    #: (start, count) of the originally granted contiguous range.
    start: int = 0
    count: int = 0


@dataclass
class _ServiceCounters:
    """Rate/QoS accounting, surfaced into ``CampaignStatistics.counters``."""

    leases_issued: int = 0
    leases_reclaimed: int = 0
    leases_completed: int = 0
    outcomes_streamed: int = 0
    duplicates_discarded: int = 0
    torn_lines: int = 0
    bytes_streamed: int = 0
    heartbeats: int = 0
    backpressure_retries: int = 0
    workers_seen: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {f"dist_{name}": value for name, value in vars(self).items()}


class CoordinatorService:
    """Serve one phase's unit space to a fleet of protocol workers."""

    def __init__(
        self,
        units: Sequence,
        kind: str = KIND_WORK,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        sink: Optional[Callable[[object], None]] = None,
        journal: Optional[Callable[[Dict], None]] = None,
        lease_units: int = DEFAULT_LEASE_UNITS,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        max_inflight_leases: int = DEFAULT_MAX_INFLIGHT_LEASES,
        max_outstanding: int = DEFAULT_MAX_OUTSTANDING,
        clock: Callable[[], float] = None,
    ) -> None:
        import time

        self._units = list(units)
        self._kind = kind
        self._sink = sink
        self._journal = journal
        self._lease_units = max(1, lease_units)
        self._ttl = lease_ttl_s
        self._heartbeat_s = heartbeat_s
        self._max_inflight = max(1, max_inflight_leases)
        self._max_outstanding = max(1, max_outstanding)
        self._clock = clock or time.monotonic

        self._host = host
        self._requested_port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._handler_threads: List[threading.Thread] = []
        self._streams: List[protocol.MessageStream] = []
        self._stopping = threading.Event()

        self._lock = threading.Lock()
        #: Unit indexes not currently leased and not yet done, ascending.
        self._pending: List[int] = list(range(len(self._units)))
        self._leases: Dict[str, Lease] = {}
        self._lease_seq = 0
        self._dedup = OutcomeDedup()
        #: unit identity -> index, to map streamed outcomes back onto the
        #: unit space (and to reject outcomes for units we never issued).
        self._key_to_index = {
            unit_key(kind, unit): index for index, unit in enumerate(self._units)
        }
        self._queue: "queue_module.Queue" = queue_module.Queue()
        self._workers_seen: Set[str] = set()
        self.counters = _ServiceCounters()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, start serving, and return the bound ``(host, port)``."""

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._requested_port))
        listener.listen(64)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="coordinator-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            # shutdown() before close(): close() alone does not wake a
            # thread blocked in accept(), so the join below would burn its
            # whole timeout on every teardown.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            streams = list(self._streams)
        for stream in streams:
            stream.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in self._handler_threads:
            thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Consumer side (runs in the engine's thread)
    # ------------------------------------------------------------------

    def outcomes(
        self, on_idle: Optional[Callable[[], None]] = None, poll_s: float = 0.5
    ) -> Iterator[object]:
        """Yield accepted outcomes until the whole unit space is done.

        ``on_idle`` runs whenever no outcome arrived for ``poll_s`` — the
        spawning executor uses it to notice dead workers and replace them
        (the coordinator itself never blocks on worker liveness; it only
        reclaims leases).
        """

        remaining = len(self._units)
        while remaining > 0:
            try:
                outcome = self._queue.get(timeout=poll_s)
            except queue_module.Empty:
                if on_idle is not None:
                    on_idle()
                continue
            remaining -= 1
            yield outcome

    @property
    def done(self) -> bool:
        with self._lock:
            return len(self._dedup.accepted) >= len(self._units)

    def status(self) -> Dict[str, object]:
        with self._lock:
            return {
                "kind": self._kind,
                "total": len(self._units),
                "done": len(self._dedup.accepted),
                "pending": len(self._pending),
                "leases": len(self._leases),
                "counters": self.counters.snapshot(),
            }

    # ------------------------------------------------------------------
    # Accept/handle loops (server threads)
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            stream = protocol.MessageStream(conn)
            with self._lock:
                self._streams.append(stream)
            thread = threading.Thread(
                target=self._handle_connection, args=(stream,), daemon=True
            )
            thread.start()
            self._handler_threads.append(thread)

    def _handle_connection(self, stream: protocol.MessageStream) -> None:
        try:
            while not self._stopping.is_set():
                message = stream.recv()
                if message is None:
                    return  # peer closed (possibly mid-line: torn tail)
                if message.pop("_torn", None):
                    # Mid-stream torn line: count it, drop it, stay alive —
                    # the framing re-synchronises at the next newline.
                    with self._lock:
                        self.counters.torn_lines += 1
                    continue
                response = self._dispatch(message)
                try:
                    stream.send(response)
                except OSError:
                    return  # peer (or stop()) closed the socket under us
                if message.get("op") == protocol.OP_BYE:
                    return
        finally:
            stream.close()
            with self._lock:
                if stream in self._streams:
                    self._streams.remove(stream)

    # ------------------------------------------------------------------
    # Request dispatch (under the state lock)
    # ------------------------------------------------------------------

    def _dispatch(self, message: Dict) -> Dict:
        received_bytes = message.pop("_bytes", 0)
        op = message.get("op")
        with self._lock:
            self._sweep_expired()
            if op == protocol.OP_HELLO:
                return self._on_hello(message)
            if op == protocol.OP_LEASE:
                return self._on_lease(message)
            if op == protocol.OP_HEARTBEAT:
                return self._on_heartbeat(message)
            if op == protocol.OP_OUTCOME:
                return self._on_outcome(message, received_bytes)
            if op == protocol.OP_COMPLETE:
                return self._on_complete(message)
            if op == protocol.OP_STATUS:
                pass  # fall through; status() takes the lock itself
            if op == protocol.OP_BYE:
                return {"ok": True}
        if op == protocol.OP_STATUS:
            return {"ok": True, **self.status()}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _on_hello(self, message: Dict) -> Dict:
        worker = str(message.get("worker", ""))
        if worker and worker not in self._workers_seen:
            self._workers_seen.add(worker)
            self.counters.workers_seen += 1
        return {
            "ok": True,
            "kind": self._kind,
            "total": len(self._units),
            "heartbeat_s": self._heartbeat_s,
            "ttl_s": self._ttl,
        }

    def _on_lease(self, message: Dict) -> Dict:
        worker = str(message.get("worker", ""))
        if len(self._dedup.accepted) >= len(self._units):
            return {"ok": True, "drained": True}
        inflight = sum(1 for lease in self._leases.values() if lease.worker == worker)
        if inflight >= self._max_inflight:
            self.counters.backpressure_retries += 1
            return {"ok": True, "retry_in": DEFAULT_RETRY_S}
        if self._queue.qsize() >= self._max_outstanding:
            # The consumer is not draining outcomes: stop issuing work
            # rather than buffering unboundedly.
            self.counters.backpressure_retries += 1
            return {"ok": True, "retry_in": DEFAULT_RETRY_S}
        if not self._pending:
            # Everything is leased out; this worker should ask again soon
            # (it may inherit a reclaimed range).
            return {"ok": True, "retry_in": DEFAULT_RETRY_S}

        start = self._pending[0]
        indexes = [start]
        while (
            len(indexes) < self._lease_units
            and len(indexes) < len(self._pending)
            and self._pending[len(indexes)] == indexes[-1] + 1
        ):
            indexes.append(self._pending[len(indexes)])
        del self._pending[: len(indexes)]

        self._lease_seq += 1
        lease_id = f"L{self._lease_seq}"
        lease = Lease(
            lease_id=lease_id,
            worker=worker,
            indexes=set(indexes),
            deadline=self._clock() + self._ttl,
            start=indexes[0],
            count=len(indexes),
        )
        self._leases[lease_id] = lease
        self.counters.leases_issued += 1
        self._journal_event(
            {
                "event": "issued",
                "lease": lease_id,
                "worker": worker,
                "start": lease.start,
                "count": lease.count,
            }
        )
        return {
            "ok": True,
            "lease": {
                "id": lease_id,
                "kind": self._kind,
                "start": lease.start,
                "count": lease.count,
                "units": [
                    unit_to_dict(self._kind, self._units[index]) for index in indexes
                ],
            },
        }

    def _on_heartbeat(self, message: Dict) -> Dict:
        lease = self._leases.get(str(message.get("lease", "")))
        self.counters.heartbeats += 1
        if lease is None:
            return {"ok": False, "error": "lease-expired"}
        lease.deadline = self._clock() + self._ttl
        return {"ok": True}

    def _on_outcome(self, message: Dict, received_bytes: int) -> Dict:
        payload = message.get("outcome")
        if not isinstance(payload, dict):
            return {"ok": False, "error": "malformed outcome"}
        try:
            outcome = outcome_from_dict(self._kind, payload)
        except (KeyError, TypeError, ValueError):
            return {"ok": False, "error": "undecodable outcome"}
        key = outcome_key(self._kind, outcome)
        index = self._key_to_index.get(key)
        if index is None:
            return {"ok": False, "error": f"unknown unit {key!r}"}
        self.counters.bytes_streamed += received_bytes

        # Streaming progress is as good as a heartbeat.
        lease = self._leases.get(str(message.get("lease", "")))
        if lease is not None:
            lease.deadline = self._clock() + self._ttl
            lease.indexes.discard(index)

        if not self._dedup.accept(key, outcome):
            # At-least-once delivery: a reclaimed range was re-run, or a
            # retry re-sent a line.  First write won; drop this one.
            self.counters.duplicates_discarded += 1
            return {"ok": True, "duplicate": True}
        self.counters.outcomes_streamed += 1
        # Remove from any other lease that still thinks it owns the index
        # (the original holder may stream late, after a reclaim).
        for other in self._leases.values():
            other.indexes.discard(index)
        if index in self._pending:
            self._pending.remove(index)
        # Persist before acknowledging: an acked outcome is never lost.
        if self._sink is not None:
            self._sink(outcome)
        self._queue.put(outcome)
        return {"ok": True, "duplicate": False}

    def _on_complete(self, message: Dict) -> Dict:
        lease_id = str(message.get("lease", ""))
        lease = self._leases.pop(lease_id, None)
        if lease is None:
            return {"ok": True, "late": True}
        leftover = sorted(
            index for index in lease.indexes if index not in self._done_indexes()
        )
        if leftover:
            self._requeue(leftover)
        self.counters.leases_completed += 1
        self._journal_event(
            {
                "event": "completed",
                "lease": lease_id,
                "worker": lease.worker,
                "leftover": len(leftover),
            }
        )
        return {"ok": True}

    # ------------------------------------------------------------------
    # Lease expiry / requeue (callers hold the lock)
    # ------------------------------------------------------------------

    def _done_indexes(self) -> Set[int]:
        return {
            self._key_to_index[key]
            for key in self._dedup.accepted
            if key in self._key_to_index
        }

    def _sweep_expired(self) -> None:
        now = self._clock()
        done = None
        for lease_id in [
            lease_id
            for lease_id, lease in self._leases.items()
            if lease.deadline <= now
        ]:
            lease = self._leases.pop(lease_id)
            if done is None:
                done = self._done_indexes()
            unfinished = sorted(index for index in lease.indexes if index not in done)
            self._requeue(unfinished)
            self.counters.leases_reclaimed += 1
            self._journal_event(
                {
                    "event": "reclaimed",
                    "lease": lease_id,
                    "worker": lease.worker,
                    "requeued": len(unfinished),
                }
            )

    def _requeue(self, indexes: List[int]) -> None:
        if not indexes:
            return
        merged = sorted(set(self._pending).union(indexes))
        self._pending[:] = merged

    def _journal_event(self, event: Dict) -> None:
        if self._journal is not None:
            self._journal(event)
