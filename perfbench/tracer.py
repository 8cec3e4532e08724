"""Outside-in span tracing of the campaign's layers.

The tracer wraps the *public* entry points of each layer (see ``LAYERS``)
from outside the library: a wrapper records a span around every call, and
:func:`install` rebinds every module attribute and class attribute that
refers to the original function, so call sites that imported a name
directly (``from repro.p4 import parse_program``) are traced too.  Nothing
under ``src/`` changes.

Spans are kept in memory and written out once, when the traced process
ends (:meth:`Tracer.dump`).  A span's self time is its duration minus the
durations of the spans it directly encloses, tracked per thread because
the coordinator persists outcomes on its service threads.  Very hot leaf
layers (``simplify``, ``bitblast``, ``sat``) are folded into the per-layer
totals but not kept as individual spans, which would cost more memory
than the rest of the trace together.

GC pauses are measured with ``gc.callbacks`` in the same process.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (module, class or None, attribute, layer).  ``None`` as the class means a
#: module-level function; every module attribute bound to it is rebound.
LAYERS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.core.generator", "RandomProgramGenerator", "generate_indexed", "generator"),
    ("repro.p4.emitter", None, "emit_program", "emitter"),
    ("repro.p4.parser", None, "parse_program", "parser"),
    ("repro.compiler.pass_manager", "PassManager", "run", "compiler"),
    ("repro.core.validation", "TranslationValidator", "validate_compilation", "validation"),
    ("repro.core.interpreter", "SymbolicInterpreter", "interpret", "interpreter"),
    ("repro.core.interpreter", "SymbolicInterpreter", "interpret_sequence", "interpreter"),
    ("repro.smt.simplify", None, "simplify", "simplify"),
    ("repro.smt.solver", None, "all_equivalent", "solver"),
    ("repro.smt.solver", None, "find_divergence", "solver"),
    ("repro.smt.bitblast", "BitBlaster", "assert_term", "bitblast"),
    ("repro.smt.sat", "SatSolver", "solve", "sat"),
    ("repro.core.testgen", "SymbolicTestGenerator", "generate", "testgen"),
    ("repro.core.testgen", "SymbolicTestGenerator", "generate_sequences", "testgen"),
    ("repro.core.reduce.oracles", None, "packet_mismatch", "targets.packet_check"),
    ("repro.core.reduce.reducer", None, "reduce_program", "reduce"),
    ("repro.core.reduce.localize", None, "localize_finding", "localize"),
    ("repro.core.engine.stages", None, "run_unit", "stages"),
    ("repro.core.engine.stages", None, "run_triage_unit", "stages"),
    ("repro.core.engine.merge", "OutcomeMerger", "add", "merge"),
    ("repro.core.engine.merge", "OutcomeMerger", "finalize", "merge"),
    ("repro.core.engine.store", "ArtifactStore", "append", "store"),
    ("repro.core.engine.store", "ArtifactStore", "append_triage", "store"),
    ("repro.core.engine.store", "ArtifactStore", "append_lease_event", "store"),
)

#: Layers aggregated without keeping individual spans (hundreds of
#: thousands of calls per campaign).
HOT_LAYERS = frozenset({"simplify", "bitblast", "sat"})


class Tracer:
    """Per-process span recorder with per-layer call, self-time and extra tallies."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, str, int, float, float]] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: Quantities read off arguments and results at the boundary.
        self.extra: Dict[str, float] = {}
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._local = threading.local()
        self._gc_start = 0.0

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, layer: str, observe: Optional[Callable] = None) -> Callable:
        keep = layer not in HOT_LAYERS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # child time
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.calls[layer] = self.calls.get(layer, 0) + 1
                self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - frame[0]
                if keep:
                    unit = getattr(self._local, "unit", "")
                    self.spans.append((layer, unit, len(stack), start, end))
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value

    # -- GC ----------------------------------------------------------------

    def _on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc_pause_s += time.perf_counter() - self._gc_start
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    def start_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output ------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "extra": dict(self.extra),
            "gc_pause_s": self.gc_pause_s,
            "gc_gen2": self.gc_gen2,
            "spans": len(self.spans),
        }

    def dump(self, path: str) -> None:
        """Write the in-memory spans as JSON lines (once, at process end)."""

        with open(path, "w", encoding="utf-8") as handle:
            for layer, unit, depth, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"layer": layer, "unit": unit, "depth": depth,
                         "start": start, "end": end},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# Boundary observers: quantities only visible in arguments and results
# ----------------------------------------------------------------------

def _observe_parse(tracer: Tracer, args, result) -> None:
    tracer.add("parser.bytes", len(args[0]))


def _observe_sat(tracer: Tracer, args, result) -> None:
    tracer.add("sat.conflicts", args[0].last_conflicts)


def _observe_reduce(tracer: Tracer, args, result) -> None:
    tracer.add("reduce.oracle_calls", result.attempts)


def _simplify_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """``simplify`` plus a hit count: a call that finds its term memoised
    returns without growing the public memo size."""

    from repro.smt.simplify import simplify_cache_size

    traced = tracer.wrap(fn, "simplify")

    @functools.wraps(fn)
    def counted(term):
        before = simplify_cache_size()
        result = traced(term)
        if simplify_cache_size() == before:
            tracer.add("simplify.hits", 1)
        return result

    return counted


class _UnitScope:
    """Tag every span recorded inside ``run_unit`` with the unit it serves."""

    def __init__(self, tracer: Tracer, fn: Callable) -> None:
        self.tracer = tracer
        self.fn = fn

    def __call__(self, unit):
        local = self.tracer._local
        previous = getattr(local, "unit", "")
        local.unit = str(getattr(unit, "key", ""))
        try:
            return self.fn(unit)
        finally:
            local.unit = previous


_OBSERVERS = {
    ("repro.p4.parser", "parse_program"): _observe_parse,
    ("repro.smt.sat", "solve"): _observe_sat,
    ("repro.core.reduce.reducer", "reduce_program"): _observe_reduce,
}


def _rebind_everywhere(original: Callable, replacement: Callable) -> int:
    """Point every ``repro`` module attribute bound to ``original`` elsewhere."""

    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def install(tracer: Tracer) -> None:
    """Wrap every entry point in ``LAYERS`` plus each compiler pass and
    each back end's ``link`` and ``run_test``."""

    import repro.core.campaign  # noqa: F401 - import the whole pipeline first
    import repro.core.reduce  # noqa: F401
    from repro.compiler.passes import CompilerPass
    from repro.targets import BACKEND_REGISTRY

    for module_name, class_name, attr, layer in LAYERS:
        module = importlib.import_module(module_name)
        observe = _OBSERVERS.get((module_name, attr))
        if class_name is None:
            original = getattr(module, attr)
            if attr == "simplify":
                wrapper = _simplify_wrapper(tracer, original)
            else:
                wrapper = tracer.wrap(original, layer, observe)
            if attr in ("run_unit", "run_triage_unit"):
                wrapper = functools.wraps(original)(_UnitScope(tracer, wrapper))
            if _rebind_everywhere(original, wrapper) == 0:
                raise RuntimeError(f"{module_name}.{attr} is bound nowhere")
        else:
            cls = getattr(module, class_name)
            setattr(cls, attr, tracer.wrap(cls.__dict__[attr], layer, observe))

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    for cls in subclasses(CompilerPass):
        if "run" in cls.__dict__:
            cls.run = tracer.wrap(cls.__dict__["run"], f"compiler.pass.{cls.name}")
    for spec in BACKEND_REGISTRY.values():
        spec.target_cls.link = tracer.wrap(spec.target_cls.__dict__["link"], "targets.link")
        spec.runner_cls.run_test = tracer.wrap(
            spec.runner_cls.__dict__["run_test"], "targets.replay"
        )
