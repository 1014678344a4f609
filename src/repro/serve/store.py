"""Durable session state: pluggable stores with journal-replay restore.

The serving layer's sessions live in process memory
(:class:`~repro.serve.session.SessionManager`), which caps the tier at
one process and loses every conversation on a crash.  This module makes
session state *durable* without inventing a second serialization format:
the schema-versioned journal (:mod:`repro.obs.journal`) already records
every decision a session made, and deterministic replay
(:mod:`repro.obs.replay`) already rebuilds a session from that record
with zero LLM calls — so a session store only has to keep (a) a manifest
of which sessions are open and how they were seeded, and (b) each
session's journal stream.

Two implementations share the :class:`SessionStore` interface:

* :class:`InMemorySessionStore` — journals held in memory; snapshot and
  restore work, nothing survives the process.  Useful for tests and as
  the no-disk default.
* :class:`DurableSessionStore` — one directory per manager:
  ``sessions.manifest.jsonl`` (append-only ``open``/``close`` records)
  plus one journal file per session, flushed and fsynced per event via
  :class:`~repro.obs.journal.JournalRecorder`'s write-through sink.

Crash recovery is :func:`rebuild_session`: take the journal's
**complete-cycle prefix** (a SIGKILL can tear at most the final line and
orphan a half-recorded cycle — :func:`complete_prefix` truncates both),
replay the successful cycles to reconstruct the live
:class:`~repro.core.workflow.ClarifySession` (verifying the rebuilt
configuration hash against the recorded ``cycle.end`` hash), and
reconstruct every already-resolved request's
:class:`~repro.serve.service.ServeResponse` purely from the recorded
events (:func:`responses_from_events`), so a restarted shard can answer
re-sent requests idempotently instead of re-running them.  Divergence
anywhere raises :class:`RestoreError` — a restored session is either
bit-exact or refused.

Known limits (documented in ``docs/SERVING.md``): restore assumes the
workload's requests all reached the pipeline (requests that died *in
queue* to a tight deadline consume a sequence number without journaling
a cycle), and sessions using a network-wide gate replay without the
gate's warnings.  The sharded CI gate runs within both bounds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from typing import IO, Any, Dict, List, Optional, Tuple, cast

from repro import obs
from repro.config import parse_config, render_config
from repro.core.disambiguator import DisambiguationMode
from repro.core.errors import ClarifyError
from repro.core.oracle import FirstOptionOracle
from repro.core.workflow import ClarifySession
from repro.obs.journal import (
    JournalEvent,
    JournalRecorder,
    dumps_journal,
    loads_journal,
)
from repro.obs.replay import ReplayError, replay_journal, split_cycles


class RestoreError(ClarifyError):
    """A session could not be rebuilt bit-exactly from its journal."""


@dataclasses.dataclass(frozen=True)
class SessionRecord:
    """How a session was opened — the manifest entry the store persists.

    Everything a fresh :class:`~repro.core.workflow.ClarifySession`
    needs that is not in the journal stream itself (the journal's
    ``cycle.start`` events repeat most of it per cycle, but a session
    that crashed before its first cycle has only this record).
    """

    session_id: str
    config_text: str = ""
    mode: str = "full"
    max_attempts: int = 3
    lint_gate: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "SessionRecord":
        return cls(
            session_id=str(raw["session_id"]),
            config_text=str(raw.get("config_text", "")),
            mode=str(raw.get("mode", "full")),
            max_attempts=int(raw.get("max_attempts", 3)),
            lint_gate=bool(raw.get("lint_gate", False)),
        )


@dataclasses.dataclass
class SessionSnapshot:
    """A restorable view of one session: its record + journal prefix.

    ``events`` is always a *validated complete-cycle prefix* (or empty
    when nothing was journaled before the crash); ``dropped_events``
    counts what :func:`complete_prefix` truncated — a torn tail line
    and/or the events of a cycle that never reached ``cycle.end`` /
    ``cycle.error``.
    """

    record: SessionRecord
    events: List[JournalEvent]
    dropped_events: int = 0


@dataclasses.dataclass
class RestoredSession:
    """What :func:`rebuild_session` recovered."""

    record: SessionRecord
    session: ClarifySession
    #: The complete-cycle journal prefix the rebuild was driven from;
    #: seeds the resumed :class:`~repro.obs.journal.JournalRecorder`.
    events: List[JournalEvent]
    #: One reconstructed :class:`~repro.serve.service.ServeResponse`
    #: per already-resolved request, in sequence order.
    responses: List[Any]
    #: Requests this session resolved before the crash (= next seq).
    completed: int
    dropped_events: int = 0


# ------------------------------------------------------- event carpentry


def complete_prefix(
    events: List[JournalEvent],
) -> Tuple[List[JournalEvent], int]:
    """Truncate ``events`` to the last completed cycle boundary.

    Returns ``(prefix, dropped)`` where the prefix ends with the last
    ``cycle.end``/``cycle.error`` event (or holds just the header when
    no cycle ever completed) and ``dropped`` is the number of trailing
    events cut — the half-recorded cycle a crash orphaned.
    """
    keep = 0
    for index, event in enumerate(events):
        if event.type in ("journal.open", "cycle.end", "cycle.error"):
            keep = index + 1
    return list(events[:keep]), len(events) - keep


def _renumbered(events: List[JournalEvent]) -> List[JournalEvent]:
    return [
        dataclasses.replace(event, seq=index)
        for index, event in enumerate(events)
    ]


def responses_from_events(
    session_id: str, events: List[JournalEvent]
) -> List[Any]:
    """Reconstruct each resolved request's response from the journal.

    Purely syntactic — no replay: every cycle maps to exactly one
    :class:`~repro.serve.service.ServeResponse` whose schedule-
    independent ``outcome_key()`` fields all come from recorded events
    (``cycle.end`` report + final config hash for ``applied``;
    ``cycle.error`` type/attempts/questions + the *start* config hash —
    failed cycles never mutate the store — for the failure outcomes).
    Timing fields are zero: latency is not part of the identity surface.
    """
    from repro.serve.service import ServeResponse

    responses: List[Any] = []
    for seq, cycle in enumerate(split_cycles(events)):
        start = cycle[0].data
        end = next((e for e in cycle if e.type == "cycle.end"), None)
        error = next((e for e in cycle if e.type == "cycle.error"), None)
        if end is not None:
            report = dict(end.data.get("report", {}))
            responses.append(
                ServeResponse(
                    session=session_id,
                    seq=seq,
                    outcome="applied",
                    position=report.get("position"),
                    llm_calls=int(report.get("llm_calls", 0)),
                    questions=int(report.get("questions", 0)),
                    attempts=int(report.get("attempts", 0)),
                    overlaps=tuple(report.get("overlaps", ())),
                    gate_warnings=tuple(report.get("gate_warnings", ())),
                    config_sha256=str(end.data.get("config_sha256", "")),
                )
            )
            continue
        if error is None:
            raise RestoreError(
                f"cycle {seq} of session {session_id!r} has neither "
                "cycle.end nor cycle.error (not a complete prefix)"
            )
        kind = str(error.data.get("error", ""))
        message = str(error.data.get("message", ""))
        config_sha256 = str(start.get("config_sha256", ""))
        if kind == "SynthesisPunt":
            responses.append(
                ServeResponse(
                    session=session_id,
                    seq=seq,
                    outcome="needs-clarification",
                    detail=message,
                    attempts=int(error.data.get("attempts", 0)),
                    config_sha256=config_sha256,
                )
            )
        elif kind == "DeadlineExceeded":
            responses.append(
                ServeResponse(
                    session=session_id,
                    seq=seq,
                    outcome="deadline",
                    detail=message,
                    questions=int(error.data.get("questions", 0)),
                    config_sha256=config_sha256,
                )
            )
        else:
            responses.append(
                ServeResponse(
                    session=session_id,
                    seq=seq,
                    outcome="error",
                    detail=f"{kind}: {message}",
                    config_sha256=config_sha256,
                )
            )
    return responses


# ------------------------------------------------------------ rebuilding


def rebuild_session(
    snapshot: SessionSnapshot,
    llm: Optional[Any] = None,
    oracle_factory: Optional[Any] = None,
    netwide_gate_factory: Optional[Any] = None,
) -> RestoredSession:
    """Rebuild a live session from its journal, verifying bit-exactness.

    The *successful* cycles are replayed (failed cycles never mutate
    the store, so they contribute responses but no state); the replay's
    event stream must match the record byte for byte and the rebuilt
    configuration must hash to the last recorded ``cycle.end``
    ``config_sha256`` — anything else raises :class:`RestoreError`.
    The returned session is re-armed with the live ``llm`` and a fresh
    oracle, ready to serve new requests exactly as the pre-crash
    session would have.
    """
    from repro.core.oracle import CountingOracle
    from repro.core.synthesis import SynthesisPipeline
    from repro.llm.simulated import SimulatedLLM
    from repro.llm.transcript import TranscribingClient

    record = snapshot.record
    try:
        cycles = split_cycles(snapshot.events)
    except ReplayError as exc:
        raise RestoreError(str(exc)) from exc
    successful = [
        cycle
        for cycle in cycles
        if any(event.type == "cycle.end" for event in cycle)
    ]
    reports: List[Any] = []
    if successful:
        header = snapshot.events[0]
        replayable = _renumbered(
            [header] + [event for cycle in successful for event in cycle]
        )
        result = replay_journal(replayable)
        if not result.ok:
            detail = (
                result.divergence.render()
                if result.divergence is not None
                else "unknown divergence"
            )
            raise RestoreError(
                f"session {record.session_id!r} journal replay diverged:\n"
                f"{detail}"
            )
        last_key = successful[-1][0].data.get("session")
        session = result.sessions[last_key]
        reports = list(result.reports)
        last_end = next(
            event
            for event in reversed(successful[-1])
            if event.type == "cycle.end"
        )
        rebuilt_sha = obs.sha256_text(render_config(session.store))
        recorded_sha = last_end.data.get("config_sha256")
        if rebuilt_sha != recorded_sha:
            raise RestoreError(
                f"session {record.session_id!r} rebuilt configuration "
                f"hash {rebuilt_sha} != recorded {recorded_sha}"
            )
    else:
        session = ClarifySession(
            store=parse_config(record.config_text),
            mode=DisambiguationMode(record.mode),
            max_attempts=record.max_attempts,
            lint_gate=record.lint_gate,
        )
    # Re-arm the replayed session for live traffic: fresh transcript
    # counter over the real backend, fresh oracle, and the advisory
    # gates the manager would have given a newly opened session.  Both
    # per-cycle counters (llm_calls, questions) are deltas, so resetting
    # the absolute counts cannot shift future outcomes.
    oracle_builder = oracle_factory or FirstOptionOracle
    session.llm = TranscribingClient(
        llm if llm is not None else SimulatedLLM()
    )
    session.pipeline = SynthesisPipeline(
        session.llm, max_attempts=session.max_attempts
    )
    session.oracle = CountingOracle(oracle_builder())
    if netwide_gate_factory is not None:
        session.netwide_gate = netwide_gate_factory()
    session.history = reports
    session.spec_reviews = len(
        [c for c in successful if c[0].data.get("op") == "request"]
    )
    return RestoredSession(
        record=record,
        session=session,
        events=list(snapshot.events),
        responses=responses_from_events(record.session_id, snapshot.events),
        completed=len(cycles),
        dropped_events=snapshot.dropped_events,
    )


# ----------------------------------------------------------- the stores


class SessionStore:
    """Where a :class:`~repro.serve.session.SessionManager` keeps state.

    The interface is journal-shaped on purpose: ``open`` hands back the
    :class:`~repro.obs.journal.JournalRecorder` the manager activates
    around the session's cycles, so the store sees every event the
    moment it is recorded and needs no second write path.
    """

    def open(self, record: SessionRecord) -> JournalRecorder:
        """Persist ``record`` and return the session's journal."""
        raise NotImplementedError

    def resume(
        self, record: SessionRecord, events: List[JournalEvent]
    ) -> JournalRecorder:
        """Return a journal continuing ``events`` (post-restore)."""
        raise NotImplementedError

    def close(self, session_id: str) -> None:
        """Drop a session from the manifest."""
        raise NotImplementedError

    def records(self) -> List[SessionRecord]:
        """Open sessions, in open order."""
        raise NotImplementedError

    def snapshot(self, session_id: str) -> SessionSnapshot:
        """The session's restorable state as of the last flushed event."""
        raise NotImplementedError


class InMemorySessionStore(SessionStore):
    """Snapshot/restore semantics without a disk: journals in memory."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: Dict[str, SessionRecord] = {}
        self._journals: Dict[str, JournalRecorder] = {}

    def open(self, record: SessionRecord) -> JournalRecorder:
        journal = JournalRecorder()
        with self._lock:
            self._records[record.session_id] = record
            self._journals[record.session_id] = journal
        return journal

    def resume(
        self, record: SessionRecord, events: List[JournalEvent]
    ) -> JournalRecorder:
        journal = (
            JournalRecorder(events=events) if events else JournalRecorder()
        )
        with self._lock:
            self._records[record.session_id] = record
            self._journals[record.session_id] = journal
        return journal

    def close(self, session_id: str) -> None:
        with self._lock:
            self._records.pop(session_id, None)
            self._journals.pop(session_id, None)

    def records(self) -> List[SessionRecord]:
        with self._lock:
            return list(self._records.values())

    def snapshot(self, session_id: str) -> SessionSnapshot:
        with self._lock:
            record = self._records[session_id]
            events = list(self._journals[session_id].events)
        prefix, dropped = complete_prefix(events)
        return SessionSnapshot(
            record=record, events=prefix, dropped_events=dropped
        )


def _session_filename(session_id: str) -> str:
    """A collision-free filesystem name for a session's journal."""
    safe = "".join(
        c if c.isalnum() or c in "-_." else "_" for c in session_id
    )
    digest = hashlib.sha256(session_id.encode("utf-8")).hexdigest()[:8]
    return f"{safe}-{digest}.journal.jsonl"


class _FsyncFile:
    """A line sink that fsyncs on flush, so a SIGKILL tears at most the
    final line — the invariant :func:`complete_prefix` relies on."""

    def __init__(self, path: str) -> None:
        self._handle = open(path, "w")

    def write(self, text: str) -> int:
        return self._handle.write(text)

    def flush(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()


class DurableSessionStore(SessionStore):
    """Journal-backed store surviving process death.

    Layout under ``root``::

        sessions.manifest.jsonl     # append-only open/close records
        <session>-<sha8>.journal.jsonl   # one write-through journal each

    Every journal line is flushed and fsynced as it is recorded, and the
    manifest append happens *before* the journal file is created, so at
    any kill point the directory describes a restorable set of sessions:
    :meth:`records` folds the manifest (a ``close`` tombstone wins) and
    :meth:`snapshot` reads each journal leniently
    (``drop_partial_tail``) before truncating to the complete-cycle
    prefix.
    """

    MANIFEST = "sessions.manifest.jsonl"

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._lock = threading.Lock()
        self._sinks: Dict[str, _FsyncFile] = {}
        self._manifest = open(
            os.path.join(root, self.MANIFEST), "a"
        )

    def _append_manifest(self, payload: Dict[str, Any]) -> None:
        with self._lock:
            self._manifest.write(json.dumps(payload, sort_keys=True) + "\n")
            self._manifest.flush()
            os.fsync(self._manifest.fileno())

    def journal_path(self, session_id: str) -> str:
        return os.path.join(self.root, _session_filename(session_id))

    def _sink(self, session_id: str) -> IO[str]:
        sink = _FsyncFile(self.journal_path(session_id))
        with self._lock:
            previous = self._sinks.pop(session_id, None)
            self._sinks[session_id] = sink
        if previous is not None:
            previous.close()
        return cast(IO[str], sink)

    def open(self, record: SessionRecord) -> JournalRecorder:
        self._append_manifest({"op": "open", "record": record.to_dict()})
        return JournalRecorder(self._sink(record.session_id))

    def resume(
        self, record: SessionRecord, events: List[JournalEvent]
    ) -> JournalRecorder:
        # Rewrite the journal as the validated prefix: the torn tail a
        # crash left behind is dropped on disk, and the resumed file
        # stays byte-identical to a single uninterrupted recording.
        sink = self._sink(record.session_id)
        if events:
            return JournalRecorder(sink, events=events)
        return JournalRecorder(sink)

    def close(self, session_id: str) -> None:
        self._append_manifest({"op": "close", "session_id": session_id})
        with self._lock:
            sink = self._sinks.pop(session_id, None)
        if sink is not None:
            sink.close()

    def shutdown(self) -> None:
        """Close the manifest and every open journal file.

        Unlike :meth:`close` this tombstones nothing: the sessions stay
        open in the manifest, so a new store on ``root`` restores them.
        The store records nothing afterwards.
        """
        with self._lock:
            sinks = list(self._sinks.values())
            self._sinks.clear()
            self._manifest.close()
        for sink in sinks:
            sink.close()

    def records(self) -> List[SessionRecord]:
        path = os.path.join(self.root, self.MANIFEST)
        open_records: Dict[str, SessionRecord] = {}
        if not os.path.exists(path):
            return []
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError:
                    continue  # a torn manifest tail: the entry never took
                if raw.get("op") == "open":
                    record = SessionRecord.from_dict(raw["record"])
                    open_records.pop(record.session_id, None)
                    open_records[record.session_id] = record
                elif raw.get("op") == "close":
                    open_records.pop(str(raw.get("session_id")), None)
        return list(open_records.values())

    def snapshot(self, session_id: str) -> SessionSnapshot:
        record = next(
            (r for r in self.records() if r.session_id == session_id), None
        )
        if record is None:
            raise KeyError(f"unknown session {session_id!r}")
        path = self.journal_path(session_id)
        events: List[JournalEvent] = []
        if os.path.exists(path):
            with open(path) as handle:
                text = handle.read()
            # Events are written as whole newline-terminated lines, so a
            # file without a newline holds no complete event (a kill
            # inside the journal.open header, which carries only the
            # version) and restores like an empty one from the record.
            if "\n" in text:
                events = loads_journal(text, drop_partial_tail=True)
        prefix, dropped = complete_prefix(events)
        return SessionSnapshot(
            record=record, events=prefix, dropped_events=dropped
        )

    def dump(self, session_id: str) -> str:
        """The session's journal prefix as JSONL (diagnostics)."""
        return dumps_journal(self.snapshot(session_id).events)


__all__ = [
    "DurableSessionStore",
    "InMemorySessionStore",
    "RestoreError",
    "RestoredSession",
    "SessionRecord",
    "SessionSnapshot",
    "SessionStore",
    "complete_prefix",
    "rebuild_session",
    "responses_from_events",
]
