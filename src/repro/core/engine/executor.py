"""Scheduler abstraction: run unit batches locally or across a fleet.

Every executor implements the same transport seam —
``run_units(units, kind, sink, journal)`` yields one outcome per unit in
*completion* order, invoking ``sink`` (persistence) on each before it is
yielded — so the campaign engine is indifferent to where units run: the
calling process (:class:`SerialExecutor`), a local ``multiprocessing``
pool (:class:`ProcessPoolExecutor`), or a coordinator/worker service over
TCP (:class:`~repro.core.engine.distributed.DistributedExecutor`).  The
merge step picks per-identifier winners by ``(program_index, platform)``
order, which is what makes the campaign result independent of the
executor (and of worker scheduling noise).  A work unit is a whole
program, so no transport ever splits one program's platforms across
processes.

The local executors also keep the lower-level ``map_unordered(fn, items)``
interface for callers that shard arbitrary functions (the detection
matrix shards per-defect tasks this way).

The pool executor uses ``fork`` where the platform offers it: workers
inherit the already-imported compiler/solver modules for free, and each
worker process builds its own intern tables and term memos (process-local
by design).
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Dict, Iterator, Optional, Sequence, TypeVar

from repro.core.engine.units import KIND_WORK

_T = TypeVar("_T")
_R = TypeVar("_R")

Sink = Optional[Callable[[object], None]]
Journal = Optional[Callable[[Dict], None]]


def runner_for(kind: str):
    """The worker-side entry point of a unit kind.

    Looked up at call time, and imported lazily so that importing the
    transports does not drag the whole compiler in (the worker CLI parses
    its arguments first).
    """

    from repro.core.engine.stages import run_triage_unit, run_unit

    return run_unit if kind == KIND_WORK else run_triage_unit


class _LocalRunUnits:
    """The ``run_units`` seam shared by the two in-process executors."""

    def run_units(
        self,
        units: Sequence,
        kind: str = KIND_WORK,
        sink: Sink = None,
        journal: Journal = None,
    ) -> Iterator[object]:
        # Local transports have no leases, so the journal goes unused.
        for outcome in self.map_unordered(runner_for(kind), units):
            if sink is not None:
                sink(outcome)
            yield outcome


class SerialExecutor(_LocalRunUnits):
    """Run every unit in the calling process, in submission order."""

    jobs = 1

    def map_unordered(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> Iterator[_R]:
        for item in items:
            yield fn(item)


class ProcessPoolExecutor(_LocalRunUnits):
    """Shard units across ``jobs`` worker processes.

    ``fn`` must be a module-level function and every item picklable; both
    hold for :func:`repro.core.engine.stages.run_unit` and
    :class:`~repro.core.engine.units.WorkUnit`.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 2:
            raise ValueError("ProcessPoolExecutor needs jobs >= 2; use SerialExecutor")
        self.jobs = jobs

    @staticmethod
    def _context() -> multiprocessing.context.BaseContext:
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else "spawn")

    def map_unordered(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> Iterator[_R]:
        items = list(items)
        if not items:
            return
        processes = min(self.jobs, len(items))
        if processes < 2:
            yield from SerialExecutor().map_unordered(fn, items)
            return
        # Small chunks keep the pool load-balanced when unit costs are
        # skewed (one divergent program can cost 100x the median) while
        # still amortising IPC for large campaigns.
        chunksize = max(1, len(items) // (processes * 8))
        with self._context().Pool(processes=processes) as pool:
            for result in pool.imap_unordered(fn, items, chunksize=chunksize):
                yield result


def make_executor(jobs: int):
    """Pick an executor for the requested parallelism (``jobs <= 1`` → serial)."""

    if jobs <= 1:
        return SerialExecutor()
    return ProcessPoolExecutor(jobs)
