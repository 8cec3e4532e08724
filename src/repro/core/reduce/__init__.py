"""Test-case reduction and bug localization (the triage subsystem).

Gauntlet files bugs as whole random programs and lists automatic reduction
as future work (paper §8).  This package is that missing back half: it
shrinks a finding's trigger program with multi-pass delta debugging while
an *oracle-faithful* predicate pins the reduction to the original bug, and
it localizes the defect to a compiler pass (pair) before the report is
filed.

Layout:

* :mod:`repro.core.reduce.reducer` — the fixpoint reduction loop.  Every
  candidate is re-typechecked before the oracle predicate runs, so a
  deletion that produces an ill-formed program can never "confirm" the bug.
* :mod:`repro.core.reduce.transforms` — the transformation classes the
  loop cycles through: statement deletion, declaration/control-local and
  table pruning, expression simplification, parser-state and header-field
  shrinking.
* :mod:`repro.core.reduce.oracles` — builds the ``still_fails`` predicate
  from the original :class:`~repro.core.engine.units.FindingRecord`
  (crash-signature match, same-pass divergence, packet-test mismatch).
* :mod:`repro.core.reduce.localize` — pass-pipeline bisection for crash
  bugs and first-diverging-pair extraction for semantic bugs.

The campaign engine runs reductions as a triage *stage*
(:func:`repro.core.engine.stages.run_triage_unit`) on the same executor
and artifact-store machinery as generation units; see
``src/repro/core/README.md``.
"""

from repro.core.lazy import lazy_exports
from repro.core.reduce.oracles import build_predicate

# Checking a program needs only the oracles; the reducer, its transforms
# and the localizer load in the processes that triage.
__getattr__ = lazy_exports(
    globals(),
    {
        "DEFAULT_TRANSFORMS": "repro.core.reduce.transforms",
        "POLISH_TRANSFORMS": "repro.core.reduce.transforms",
        "PRIMARY_TRANSFORMS": "repro.core.reduce.transforms",
        "Predicate": "repro.core.reduce.reducer",
        "ReductionResult": "repro.core.reduce.reducer",
        "localize_finding": "repro.core.reduce.localize",
        "program_size": "repro.core.reduce.reducer",
        "reduce_program": "repro.core.reduce.reducer",
    },
)

__all__ = [
    "DEFAULT_TRANSFORMS",
    "POLISH_TRANSFORMS",
    "PRIMARY_TRANSFORMS",
    "Predicate",
    "ReductionResult",
    "build_predicate",
    "localize_finding",
    "program_size",
    "reduce_program",
]
