"""JSONL artifact store: crash-safe persistence of unit outcomes.

Every finished ``(program_index, platform)`` outcome is appended to the
store as one JSON line, so a campaign killed at any point leaves a valid
prefix on disk.  On restart the engine loads the completed outcomes for its
*campaign key* and only schedules the remainder (a program whose
platforms were only partly stored re-runs just the missing ones);
``run_detection_matrix`` shares the same store, so a matrix re-run reuses
every unit an earlier (possibly interrupted) run finished.

The campaign key is a content hash of everything that determines a unit's
result — generator config (which embeds the seed), enabled defects,
platform set, test budget — so resuming with *different* parameters never
reuses stale outcomes.  The program count is deliberately excluded:
outcomes are keyed by program index, so growing a 100-program campaign to
1000 reuses the first 100 programs' outcomes verbatim.

The parent process is the only writer; workers ship outcomes back over the
pool and the engine appends them as they complete.  A torn final line
(process killed mid-write) is skipped on load.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from typing import Dict, Iterable, Tuple

from repro.core.generator import GeneratorConfig
from repro.core.engine.units import KIND_TRIAGE, KIND_WORK, TriageOutcome, UnitOutcome


class OutcomeDedup:
    """First-write-wins deduplication of outcomes, by unit identity.

    At-least-once execution (a reclaimed distributed lease re-runs its
    units; a resumed store may hold a unit twice) means the same unit's
    outcome can arrive more than once.  Outcomes are deterministic
    functions of their unit, so *which* copy wins is immaterial — but both
    consumers must agree, and both must count what they dropped.  This is
    the single dedup authority shared by the store's resume loaders and
    the coordinator's streamed-shard path.
    """

    def __init__(self) -> None:
        self.accepted: Dict[object, object] = {}
        self.duplicates = 0

    def accept(self, key: object, outcome: object) -> bool:
        """Record ``outcome`` under ``key``; ``False`` (and counted) if seen."""

        if key in self.accepted:
            self.duplicates += 1
            return False
        self.accepted[key] = outcome
        return True


def campaign_key(
    generator: GeneratorConfig,
    enabled_bugs: Iterable[str],
    platforms: Iterable[str],
    max_tests: int,
    scope: str = "campaign",
    sequence_length: int = 1,
) -> str:
    """Stable identity of a campaign's unit space (not its size).

    The sequence length is part of the identity: a unit replayed with a
    different packet budget can reach a different verdict on a stateful
    program, so its stored outcome must never be reused across budgets.
    """

    payload = {
        "scope": scope,
        "generator": asdict(generator),
        "enabled_bugs": sorted(enabled_bugs),
        "platforms": sorted(platforms),
        "max_tests": max_tests,
        "sequence_length": sequence_length,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def triage_key(
    generator: GeneratorConfig,
    enabled_bugs: Iterable[str],
    platforms: Iterable[str],
    max_tests: int,
    reduce_rounds: int,
    sequence_length: int = 1,
) -> str:
    """Store key of the triage stage for one campaign.

    The round budget is part of the identity — a different budget can
    reach a different reduction fixpoint, so its outcomes are never
    reused.  Every reader of triage records (engine, benchmarks) must
    derive the key here rather than re-building the scope string.
    """

    return campaign_key(
        generator,
        enabled_bugs,
        platforms,
        max_tests,
        scope=f"triage-rounds{reduce_rounds}",
        sequence_length=sequence_length,
    )


class ArtifactStore:
    """Append-only JSONL store of :class:`UnitOutcome` records."""

    def __init__(self, path: str) -> None:
        self.path = path

    # -- writing ---------------------------------------------------------------

    def append(self, key: str, outcome: UnitOutcome) -> None:
        self._append_line({"key": key, "outcome": outcome.to_dict()})

    def append_triage(self, key: str, outcome: TriageOutcome) -> None:
        """Persist one finished reduction (same crash-safe discipline).

        Triage records live in the same JSONL file as unit outcomes but
        under a ``triage`` payload field, so either loader transparently
        skips the other's lines — old stores stay loadable and a store
        with half-finished triage resumes mid-triage.
        """

        self._append_line({"key": key, "triage": outcome.to_dict()})

    def append_lease_event(self, key: str, event: Dict) -> None:
        """One line of the coordinator's lease journal.

        Journal lines share the campaign's JSONL file under a
        ``lease_event`` payload field, so the outcome loaders skip them
        (and vice versa).  The journal records every lease issued,
        reclaimed and completed — together with the outcome lines it lets
        a restarted coordinator resume the unit space exactly where the
        killed one stopped, and lets audits reconstruct which worker ran
        what.
        """

        self._append_line({"key": key, "lease_event": dict(event)})

    def _append_line(self, entry: Dict) -> None:
        line = json.dumps(entry, separators=(",", ":"))
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        # One write per line + flush: a kill between units leaves a valid
        # prefix, a kill mid-write leaves one torn line that load() skips.
        # A restarted writer must not *extend* that torn tail — appending
        # straight after it would weld the fragment onto the fresh line and
        # destroy both — so a missing final newline is healed first.
        if self._tail_is_torn():
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write("\n")
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()

    def _tail_is_torn(self) -> bool:
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return False
        if size == 0:
            return False
        with open(self.path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"

    # -- reading ---------------------------------------------------------------

    def load(self, key: str) -> Dict[Tuple[int, str], UnitOutcome]:
        """All completed outcomes recorded for ``key`` (first write wins)."""

        return self._load_outcomes(key, KIND_WORK)

    def load_triage(self, key: str) -> Dict[str, TriageOutcome]:
        """All completed reductions recorded for ``key``, by report identifier."""

        return self._load_outcomes(key, KIND_TRIAGE)

    def _load_outcomes(self, key: str, kind: str) -> Dict:
        """Resume loader: decode, then dedup with the shared first-write-wins
        policy — the same :class:`OutcomeDedup` the coordinator applies to
        streamed shard lines, so a store written under at-least-once
        delivery loads exactly the set the coordinator accepted."""

        payload_field = "outcome" if kind == KIND_WORK else "triage"
        outcome_cls = UnitOutcome if kind == KIND_WORK else TriageOutcome
        dedup = OutcomeDedup()
        for entry in self._entries():
            if entry.get("key") != key:
                continue
            try:
                outcome = outcome_cls.from_dict(entry[payload_field])
            except (KeyError, TypeError):
                continue
            dedup.accept(
                outcome.key if kind == KIND_WORK else outcome.identifier, outcome
            )
        return dedup.accepted

    def load_lease_events(self, key: str) -> list:
        """The coordinator's lease journal for ``key``, in write order."""

        events = []
        for entry in self._entries():
            if entry.get("key") != key:
                continue
            event = entry.get("lease_event")
            if isinstance(event, dict):
                events.append(event)
        return events

    def _entries(self):
        """Yield every well-formed JSON object line (torn/garbage skipped)."""

        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail line from an interrupted run
                if isinstance(entry, dict):
                    yield entry

    def __len__(self) -> int:
        if not os.path.exists(self.path):
            return 0
        with open(self.path, "r", encoding="utf-8") as handle:
            return sum(1 for line in handle if line.strip())
