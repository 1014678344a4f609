"""Deterministic session replay from a journal.

A journal (:mod:`repro.obs.journal`) records every decision a Clarify
session made; this module re-drives the *same* session from that record
with **zero** LLM or oracle calls:

* :class:`ReplayLLM` implements :class:`~repro.llm.client.LLMClient` by
  serving the journal's recorded ``llm.call`` responses in order, after
  verifying the pipeline is asking for exactly the recorded request
  (system-prompt hash and user prompt must match byte for byte);
* :class:`ReplayOracle` answers disambiguation questions from the
  recorded ``disambiguation.question`` events, again verifying the
  rendered differential example matches the recorded one;
* :func:`replay_journal` rebuilds the session(s) from the recorded
  inputs, runs every cycle under a *fresh* journal, and compares the
  replayed event stream against the recorded one event by event — the
  first mismatch (including the ``cycle.end`` configuration and
  ``UpdateReport`` hashes) is reported as a :class:`Divergence`.

Because the journalled event stream includes the rendered configuration
and report hashes, "the replayed event streams are identical" implies
"the replayed configuration and UpdateReport are byte-for-byte the
recorded ones".
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.errors import ClarifyError, DisambiguationError
from repro.obs.journal import JournalEvent, JournalRecorder, validate_journal


class ReplayError(ClarifyError):
    """The journal cannot drive a replay (malformed or incomplete)."""


@dataclasses.dataclass(frozen=True)
class Divergence:
    """The first point where the replay stopped matching the record."""

    #: Sequence number of the first mismatching recorded event (or the
    #: first missing one when the replay produced fewer events).
    seq: Optional[int]
    kind: str
    expected: Any
    actual: Any
    detail: str = ""

    def render(self) -> str:
        lines = [f"divergence at event {self.seq} ({self.kind})"]
        if self.detail:
            lines.append(f"  {self.detail}")
        lines.append(f"  expected: {self.expected!r}")
        lines.append(f"  actual:   {self.actual!r}")
        return "\n".join(lines)


class ReplayDivergence(ClarifyError):
    """Raised mid-replay when the pipeline departs from the record."""

    def __init__(self, divergence: Divergence) -> None:
        super().__init__(divergence.render())
        self.divergence = divergence


class ReplayLLM:
    """Serves recorded LLM responses instead of calling a model.

    The constructor takes the journal's ``llm.call`` events in order;
    each :meth:`complete` call is checked against the next recorded
    request before its recorded response is returned.
    """

    def __init__(self, calls: Sequence[JournalEvent]) -> None:
        self._calls = [e for e in calls if e.type == "llm.call"]
        self._cursor = 0

    @property
    def served(self) -> int:
        return self._cursor

    @property
    def remaining(self) -> int:
        return len(self._calls) - self._cursor

    def complete(self, system: str, prompt: str) -> str:
        if self._cursor >= len(self._calls):
            raise ReplayDivergence(
                Divergence(
                    seq=None,
                    kind="llm-call",
                    expected="(no further recorded LLM calls)",
                    actual={"prompt": prompt},
                    detail="replay made more LLM calls than the journal records",
                )
            )
        recorded = self._calls[self._cursor]
        want = recorded.data
        got = {
            "system_sha256": obs.sha256_text(system),
            "prompt": prompt,
        }
        if (
            got["system_sha256"] != want.get("system_sha256")
            or got["prompt"] != want.get("prompt")
        ):
            raise ReplayDivergence(
                Divergence(
                    seq=recorded.seq,
                    kind="llm-call",
                    expected={
                        "system_sha256": want.get("system_sha256"),
                        "prompt": want.get("prompt"),
                    },
                    actual=got,
                    detail="LLM was asked a different request than recorded",
                )
            )
        self._cursor += 1
        obs.count("replay.llm_served")
        return str(want.get("response", ""))


class ReplayOracle:
    """Answers disambiguation questions from the recorded transcript."""

    def __init__(self, questions: Sequence[JournalEvent]) -> None:
        self._questions = [
            e for e in questions if e.type == "disambiguation.question"
        ]
        self._cursor = 0

    @property
    def served(self) -> int:
        return self._cursor

    def choose(self, question) -> int:
        if self._cursor >= len(self._questions):
            raise DisambiguationError(
                "replay journal has no more recorded answers "
                f"(asked {self._cursor + 1} questions)"
            )
        recorded = self._questions[self._cursor]
        rendered = question.render()
        if rendered != recorded.data.get("question"):
            raise ReplayDivergence(
                Divergence(
                    seq=recorded.seq,
                    kind="oracle",
                    expected=recorded.data.get("question"),
                    actual=rendered,
                    detail="disambiguator asked a different question than recorded",
                )
            )
        self._cursor += 1
        obs.count("replay.answers_served")
        return int(recorded.data.get("answer", 1))


# --------------------------------------------------------------- driving


@dataclasses.dataclass
class ReplayResult:
    """What :func:`replay_journal` did and whether it matched."""

    ok: bool
    cycles: int
    llm_calls_served: int
    answers_served: int
    divergence: Optional[Divergence]
    recorded_events: List[JournalEvent]
    replayed_events: List[JournalEvent]
    #: The :class:`~repro.core.workflow.UpdateReport` of each replayed
    #: cycle that completed, in journal order.
    reports: List[Any] = dataclasses.field(default_factory=list)
    #: The rebuilt :class:`~repro.core.workflow.ClarifySession` per
    #: recorded session key — the durable session store adopts these as
    #: live sessions after a crash (see :mod:`repro.serve.store`).
    sessions: Dict[Any, Any] = dataclasses.field(default_factory=dict)

    @property
    def matched_events(self) -> int:
        """How many event pairs matched before the first divergence."""
        count = 0
        for recorded, replayed in zip(
            self.recorded_events, self.replayed_events
        ):
            if _canonical(recorded) != _canonical(replayed):
                break
            count += 1
        return count


def _canonical(event: JournalEvent) -> Tuple[str, Any]:
    """An event as a comparable (type, data) pair.

    Session ids are process-global, so replayed ones differ from the
    recorded ones; they are compared separately (by grouping) and
    dropped here.  ``cycle.error`` messages may legitimately differ when
    the error comes from the replay harness itself (e.g. an exhausted
    oracle), so only the error *type* is compared.
    """
    data = dict(event.data)
    if event.type == "cycle.start":
        data.pop("session", None)
    if event.type == "cycle.error":
        data.pop("message", None)
    return event.type, _freeze(data)


def _freeze(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _first_mismatch(
    recorded: Sequence[JournalEvent], replayed: Sequence[JournalEvent]
) -> Optional[Divergence]:
    for idx, rec in enumerate(recorded):
        if idx >= len(replayed):
            return Divergence(
                seq=rec.seq,
                kind="missing-event",
                expected={"type": rec.type, "data": rec.data},
                actual=None,
                detail="replay produced fewer events than the journal records",
            )
        rep = replayed[idx]
        if _canonical(rec) != _canonical(rep):
            return Divergence(
                seq=rec.seq,
                kind="event-mismatch",
                expected={"type": rec.type, "data": rec.data},
                actual={"type": rep.type, "data": rep.data},
                detail="replayed event differs from the recorded one",
            )
    if len(replayed) > len(recorded):
        extra = replayed[len(recorded)]
        return Divergence(
            seq=None,
            kind="extra-event",
            expected=None,
            actual={"type": extra.type, "data": extra.data},
            detail="replay produced more events than the journal records",
        )
    return None


def split_cycles(
    events: Sequence[JournalEvent],
) -> List[List[JournalEvent]]:
    """Group a journal body into per-cycle event runs (header dropped).

    Raises :class:`ReplayError` when an event precedes the first
    ``cycle.start``.
    """
    cycles: List[List[JournalEvent]] = []
    for event in events:
        if event.type == "journal.open":
            continue
        if event.type == "cycle.start":
            cycles.append([event])
        elif cycles:
            cycles[-1].append(event)
        else:
            raise ReplayError(
                f"journal event {event.seq} ({event.type}) precedes the "
                "first cycle.start"
            )
    return cycles


def replay_journal(events: Sequence[JournalEvent]) -> ReplayResult:
    """Re-drive every session in ``events`` and diff the event streams.

    Returns a :class:`ReplayResult` whose ``ok`` is True only when the
    replayed journal matches the recorded one event for event — which
    entails identical rendered configurations, diffs, ``UpdateReport``
    fields, verifier verdicts, and lint-gate outcomes, since all of
    those are part of the recorded stream.  No LLM client and no oracle
    other than the journal itself is ever consulted.
    """
    from repro.config import parse_config
    from repro.core.disambiguator import DisambiguationMode
    from repro.core.workflow import ClarifySession

    recorded = list(events)
    validate_journal(recorded)
    cycles = split_cycles(recorded)
    llm = ReplayLLM(recorded)
    oracle = ReplayOracle(recorded)

    replay_record = JournalRecorder()
    sessions: Dict[Any, ClarifySession] = {}
    reports: List[Any] = []
    divergence: Optional[Divergence] = None

    with obs.scope(journal=replay_record):
        for cycle in cycles:
            start = cycle[0]
            data = start.data
            key = data.get("session")
            session = sessions.get(key)
            if session is None:
                session = ClarifySession(
                    store=parse_config(data.get("config", "")),
                    llm=llm,
                    oracle=oracle,
                    mode=DisambiguationMode(data.get("mode", "full")),
                    max_attempts=int(data.get("max_attempts", 3)),
                    lint_gate=bool(data.get("lint_gate", True)),
                )
                sessions[key] = session
            recorded_error = next(
                (e for e in cycle if e.type == "cycle.error"), None
            )
            try:
                if data.get("op") == "reuse":
                    report = session.reuse(
                        parse_config(data.get("snippet", "")),
                        data["target"],
                        kind=data.get("kind", "route-map"),
                    )
                else:
                    report = session.request(data["intent"], data["target"])
                reports.append(report)
            except ReplayDivergence as exc:
                divergence = exc.divergence
                break
            except ClarifyError:
                if recorded_error is None:
                    # The recorded cycle succeeded; the replayed one did
                    # not.  The event-stream diff below pins the spot.
                    break
                # Both failed; the emitted cycle.error events are
                # compared (by type) with the rest of the stream.
                continue

    if divergence is None:
        divergence = _first_mismatch(recorded, replay_record.events)
    return ReplayResult(
        ok=divergence is None,
        cycles=len(cycles),
        llm_calls_served=llm.served,
        answers_served=oracle.served,
        divergence=divergence,
        recorded_events=recorded,
        replayed_events=replay_record.events,
        reports=reports,
        sessions=sessions,
    )


__all__ = [
    "Divergence",
    "ReplayDivergence",
    "ReplayError",
    "ReplayLLM",
    "ReplayOracle",
    "ReplayResult",
    "replay_journal",
    "split_cycles",
]
