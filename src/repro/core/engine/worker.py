"""The campaign worker: lease a range, execute it, stream outcomes back.

A worker is stateless and campaign-agnostic: everything it needs arrives
in the lease (serialized units embed the generator config and defect set;
programs are regenerated locally from sha256-derived per-index seeds), so
``python examples/bug_campaign.py --worker HOST:PORT`` can join any
coordinator — same machine, same rack, anywhere — with no shared
filesystem and no prior configuration.

The loop::

    hello → (lease → run each unit → stream outcome line → complete)* → bye

Outcome lines double as heartbeats (streaming progress proves liveness);
a background heartbeat thread on a *second* connection covers the gap
inside a single long-running unit, so the lease stays alive as long as
the process does.  A worker killed mid-lease simply stops heartbeating:
the coordinator reclaims the range after one TTL and re-issues it, and
the outcomes the dead worker already streamed stay accepted (first write
wins — re-running them elsewhere produces byte-identical lines that are
discarded as duplicates).

``fail_after`` is the chaos knob used by the fault-tolerance tests and
the distributed benchmark: the worker hard-exits (``os._exit``, no
``complete``, no socket shutdown — exactly what ``kill -9`` produces)
after executing that many units.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional

from repro.core.engine import protocol
from repro.core.engine.executor import runner_for
from repro.core.engine.units import KIND_WORK, unit_from_dict


class _HeartbeatPump(threading.Thread):
    """Second-connection heartbeats for the lease currently executing."""

    def __init__(self, host: str, port: int, worker_id: str, interval_s: float) -> None:
        super().__init__(name=f"{worker_id}-heartbeat", daemon=True)
        self._host = host
        self._port = port
        self._worker_id = worker_id
        self._interval = max(0.05, interval_s)
        self._lease_id: Optional[str] = None
        self._lock = threading.Lock()
        self._stop = threading.Event()

    def set_lease(self, lease_id: Optional[str]) -> None:
        with self._lock:
            self._lease_id = lease_id

    def stop(self) -> None:
        self._stop.set()

    def run(self) -> None:
        stream = None
        while not self._stop.wait(self._interval):
            with self._lock:
                lease_id = self._lease_id
            if lease_id is None:
                continue
            try:
                if stream is None:
                    stream = protocol.connect(self._host, self._port, timeout=10.0)
                stream.send(
                    {
                        "op": protocol.OP_HEARTBEAT,
                        "worker": self._worker_id,
                        "lease": lease_id,
                    }
                )
                stream.recv()
            except OSError:
                if stream is not None:
                    stream.close()
                stream = None  # coordinator gone or restarting; retry
        if stream is not None:
            stream.close()


def run_worker(
    host: str,
    port: int,
    worker_id: Optional[str] = None,
    *,
    fail_after: Optional[int] = None,
    connect_timeout_s: float = 30.0,
    quiet: bool = True,
) -> Dict[str, int]:
    """Serve one coordinator until its phase drains; returns local stats.

    Retries the initial connection for up to ``connect_timeout_s`` (the
    coordinator may still be binding when the fleet starts) but exits as
    soon as a live conversation ends — a vanished coordinator means the
    campaign was killed; the journal and store make the *restarted*
    campaign re-lease whatever this worker did not finish.
    """

    worker_id = worker_id or f"worker-{os.getpid()}"
    deadline = time.monotonic() + connect_timeout_s
    stream = None
    while stream is None:
        try:
            stream = protocol.connect(host, port)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)

    stats = {"units": 0, "leases": 0, "duplicates": 0}
    executed = 0
    pump = None
    try:
        stream.send({"op": protocol.OP_HELLO, "worker": worker_id})
        welcome = stream.recv()
        if not welcome or not welcome.get("ok"):
            return stats
        kind = welcome.get("kind", KIND_WORK)
        runner = runner_for(kind)
        heartbeat_s = float(welcome.get("heartbeat_s", 5.0))
        pump = _HeartbeatPump(host, port, worker_id, heartbeat_s)
        pump.start()

        while True:
            stream.send({"op": protocol.OP_LEASE, "worker": worker_id})
            response = stream.recv()
            if not response or not response.get("ok"):
                break
            if response.get("drained"):
                break
            retry_in = response.get("retry_in")
            if retry_in is not None:
                time.sleep(float(retry_in))
                continue
            lease = response["lease"]
            stats["leases"] += 1
            pump.set_lease(lease["id"])
            if not quiet:
                print(
                    f"[{worker_id}] lease {lease['id']}: units "
                    f"{lease['start']}..{lease['start'] + lease['count'] - 1}",
                    flush=True,
                )
            for payload in lease["units"]:
                unit = unit_from_dict(kind, payload)
                outcome = runner(unit)
                executed += 1
                stream.send(
                    {
                        "op": protocol.OP_OUTCOME,
                        "worker": worker_id,
                        "lease": lease["id"],
                        "outcome": outcome.to_dict(),
                    }
                )
                ack = stream.recv()
                if ack is None:
                    return stats  # coordinator gone mid-stream
                if ack.get("duplicate"):
                    stats["duplicates"] += 1
                stats["units"] += 1
                if fail_after is not None and executed >= fail_after:
                    # Chaos: die exactly like SIGKILL — no complete, no
                    # close, heartbeat pump dies with the process.
                    os._exit(17)
            pump.set_lease(None)
            stream.send(
                {
                    "op": protocol.OP_COMPLETE,
                    "worker": worker_id,
                    "lease": lease["id"],
                }
            )
            if stream.recv() is None:
                break
        stream.send({"op": protocol.OP_BYE, "worker": worker_id})
        stream.recv()
    except OSError:
        pass  # connection torn down under us; nothing left to do
    finally:
        if pump is not None:
            pump.stop()
        stream.close()
    return stats


def worker_process_main(
    host: str, port: int, worker_id: str, fail_after: Optional[int] = None
) -> None:
    """``multiprocessing.Process`` target for locally spawned fleets."""

    run_worker(host, port, worker_id, fail_after=fail_after)
