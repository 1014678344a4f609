"""The session journal: a persistent, replayable flight recorder.

Where :mod:`repro.obs.recorder` answers "how much work happened and how
long did it take", the journal answers "*what exactly* happened, in what
order" — one schema-versioned event per decision the Clarify pipeline
makes: every LLM request/response, spec extraction, verifier verdict,
retry, disambiguation question with the oracle's answer, insertion
decision, lint-gate outcome, and the final rendered configuration hash.
A journal is enough to re-drive the whole session with zero LLM or
oracle calls (see :mod:`repro.obs.replay`) and to diff two sessions
event by event.

The wiring mirrors the recorder's: instrumented library code calls the
module-level :func:`event` hook (a no-op unless a journal is in scope)
and gates expensive payload construction on :func:`journal_enabled`.
Harness code sets a :class:`JournalRecorder` in the request scope
(:func:`repro.obs.scope`) around the region it wants captured::

    from repro import obs

    with obs.JournalRecorder("session.jsonl") as journal:
        with obs.scope(journal=journal):
            session.request(intent, "ISP_OUT")

A journal composes with a metrics recorder — install both and spans,
counters, and events are all captured from the same run.

The on-disk format is JSONL: one ``{"seq": n, "type": t, "data": {...}}``
object per line, first line a ``journal.open`` header carrying
:data:`JOURNAL_VERSION`.  Events carry no timestamps, so two runs of the
same session produce byte-identical journals — that determinism is what
makes journals diffable and replay byte-for-byte checkable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from typing import IO, Any, Dict, List, Optional, Union

from repro.obs import recorder as _recorder
from repro.obs.telemetry import current_trace as _current_trace

#: Version of the journal event schema (the ``journal.open`` header).
#: Version 2 adds ``attempts``/``questions`` to ``cycle.error`` so a
#: failed cycle's serving outcome can be reconstructed from the journal
#: alone (see :mod:`repro.serve.store`).  Version-1 journals still load.
JOURNAL_VERSION = 2

#: The event types the pipeline emits, for reference and validation.
EVENT_TYPES = (
    "journal.open",
    "cycle.start",
    "llm.call",
    "spec.extracted",
    "verify.verdict",
    "synthesis.retry",
    "synthesis.punt",
    "disambiguation.question",
    "insertion.decision",
    "lint.gate",
    "cycle.end",
    "cycle.error",
)


class JournalError(ValueError):
    """The journal file or event stream is malformed or unsupported."""


def sha256_text(text: str) -> str:
    """Hex SHA-256 of ``text`` (UTF-8) — the journal's content hash."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class JournalEvent:
    """One recorded pipeline event.

    ``trace`` carries the serving-tier :class:`TraceContext` wire dict
    when one was active at recording time.  It lives *beside* ``data``,
    never inside it: replay compares event payloads, and trace ids are
    minted per run, so correlation metadata must stay outside the
    byte-compared surface (see :mod:`repro.obs.replay`).
    """

    seq: int
    type: str
    data: Dict[str, Any]
    trace: Optional[Dict[str, str]] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "seq": self.seq,
            "type": self.type,
            "data": dict(self.data),
        }
        if self.trace is not None:
            payload["trace"] = dict(self.trace)
        return payload

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "JournalEvent":
        try:
            trace = raw.get("trace")
            return cls(
                seq=int(raw["seq"]),
                type=str(raw["type"]),
                data=dict(raw.get("data", {})),
                trace=dict(trace) if trace is not None else None,
            )
        except (KeyError, TypeError) as exc:
            raise JournalError(f"malformed journal event: {raw!r}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class JournalRecorder:
    """Collects :class:`JournalEvent`s, optionally streaming to a file.

    Events are always retained in memory (``.events``); when ``sink`` is
    a path or an open text handle, each event is additionally written as
    one JSONL line as soon as it is recorded, so an aborted process still
    leaves every completed event on disk.  The ``journal.open`` header is
    emitted on construction.

    Passing ``events`` *resumes* a journal instead of opening a fresh
    one: the seed events (a validated complete prefix, e.g. the survivor
    of a crash — see :mod:`repro.serve.store`) are re-emitted to the sink
    verbatim and subsequent events continue the sequence numbering, so
    the resumed file is byte-identical to one recorded in a single run.
    """

    def __init__(
        self,
        sink: Union[str, IO[str], None] = None,
        events: Optional[List[JournalEvent]] = None,
    ) -> None:
        self.events: List[JournalEvent] = []
        self._lock = threading.Lock()
        self._handle: Optional[IO[str]] = None
        self._owns_handle = False
        if isinstance(sink, str):
            self._handle = open(sink, "w")
            self._owns_handle = True
        elif sink is not None:
            self._handle = sink
        if events is not None:
            validate_journal(list(events))
            for seeded in events:
                with self._lock:
                    self.events.append(seeded)
                    if self._handle is not None:
                        self._handle.write(seeded.to_json() + "\n")
                        self._handle.flush()
        else:
            self.event("journal.open", version=JOURNAL_VERSION)

    def event(self, type_: str, **data: Any) -> JournalEvent:
        """Record one event (thread-safe; assigns the next ``seq``).

        The serving-tier trace context, when one is active on the
        recording thread, is stamped beside the payload so journal
        events correlate back to the originating request.
        """
        trace = _current_trace()
        with self._lock:
            recorded = JournalEvent(
                seq=len(self.events),
                type=type_,
                data=data,
                trace=trace.to_dict() if trace is not None else None,
            )
            self.events.append(recorded)
            if self._handle is not None:
                self._handle.write(recorded.to_json() + "\n")
                self._handle.flush()
        return recorded

    def close(self) -> None:
        if self._handle is not None and self._owns_handle:
            self._handle.close()
        self._handle = None

    def __enter__(self) -> "JournalRecorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.events)


# ------------------------------------------------------- journal loading


def loads_journal(
    text: str, drop_partial_tail: bool = False
) -> List[JournalEvent]:
    """Parse journal JSONL text into events, validating the header.

    With ``drop_partial_tail`` a malformed **final** line is silently
    dropped instead of raising.  A process killed mid-write (the crash
    case the durable session store recovers from) can leave at most one
    torn line, and only at the end of the file — corruption anywhere
    else still raises :class:`JournalError`.
    """
    events: List[JournalEvent] = []
    lines = [
        (lineno, line.strip())
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    for index, (lineno, line) in enumerate(lines):
        last = index == len(lines) - 1
        try:
            raw = json.loads(line)
            events.append(JournalEvent.from_dict(raw))
        except (json.JSONDecodeError, JournalError) as exc:
            if drop_partial_tail and last:
                break
            raise JournalError(
                f"line {lineno} is not a valid journal event: {exc}"
            ) from exc
    validate_journal(events)
    return events


def read_journal(
    path: str, drop_partial_tail: bool = False
) -> List[JournalEvent]:
    """Load and validate a journal file written by :class:`JournalRecorder`."""
    with open(path) as handle:
        return loads_journal(handle.read(), drop_partial_tail=drop_partial_tail)


def dumps_journal(events: List[JournalEvent]) -> str:
    """Events back to the JSONL wire format (one line per event)."""
    return "".join(event.to_json() + "\n" for event in events)


def validate_journal(events: List[JournalEvent]) -> None:
    """Check the header and sequence numbering of an event list."""
    if not events:
        raise JournalError("journal is empty (no journal.open header)")
    header = events[0]
    if header.type != "journal.open":
        raise JournalError(
            f"journal does not start with journal.open (got {header.type!r})"
        )
    version = header.data.get("version")
    if not isinstance(version, int) or version < 1:
        raise JournalError(f"journal.open has no usable version: {version!r}")
    if version > JOURNAL_VERSION:
        raise JournalError(
            f"journal version {version} is newer than supported "
            f"version {JOURNAL_VERSION}"
        )
    for expected, event in enumerate(events):
        if event.seq != expected:
            raise JournalError(
                f"journal sequence broken at index {expected}: "
                f"event carries seq {event.seq}"
            )


# ------------------------------------------------------------------ hooks
#
# The journal lives in the request scope (:func:`repro.obs.scope`), which
# is per thread: the serving layer (:mod:`repro.serve`) sets each
# session's journal around each of its requests, so concurrent sessions
# journal independently instead of interleaving their events into one
# stream (which would break the byte-for-byte replay guarantee).


def journal_enabled() -> bool:
    """True when a journal is in this thread's scope.

    Instrumentation gates *expensive payload construction* (rendering a
    configuration, formatting a differential example) on this; the
    :func:`event` hook itself is already a no-op without a journal.
    """
    return _recorder._scope.get().journal is not None


def event(type_: str, **data: Any) -> None:
    """Record an event on the journal in scope (no-op by default)."""
    journal = _recorder._scope.get().journal
    if journal is not None:
        journal.event(type_, **data)


__all__ = [
    "EVENT_TYPES",
    "JOURNAL_VERSION",
    "JournalError",
    "JournalEvent",
    "JournalRecorder",
    "dumps_journal",
    "event",
    "journal_enabled",
    "loads_journal",
    "read_journal",
    "sha256_text",
    "validate_journal",
]
