"""Per-session state for the serving layer.

A :class:`SessionManager` owns many named Clarify sessions over shared
substrates: every session gets its own
:class:`~repro.core.workflow.ClarifySession` (policy snapshot, oracle,
history) while the LLM client is shared across all of them — typically a
:class:`~repro.llm.dedup.DedupClient` so identical in-flight requests
collapse to one upstream call.

Concurrency contract: ``ClarifySession`` is not thread-safe (see the
re-entrancy audit in :mod:`repro.core.workflow`), so each managed
session carries a condition variable and a FIFO ticket pair
(``submitted_seq``/``next_seq``).  :class:`repro.serve.service.ClarifyService`
stamps every accepted request with the session's next ``submitted_seq``,
and the thread running a request waits until ``next_seq`` catches up —
so a session's requests run strictly in submission order however their
threads are scheduled, which is what makes pooled outcomes identical to
a serial run.

Journals and durability: pass a :class:`~repro.serve.store.SessionStore`
and every session records its own
:class:`~repro.obs.journal.JournalRecorder`, owned by the store (kept in
memory by :class:`~repro.serve.store.InMemorySessionStore`, written
through and fsynced by :class:`~repro.serve.store.DurableSessionStore`).
The service sets a session's journal in the request scope around each
of its requests, so the per-session streams stay replayable even when
many sessions run at once.  After a crash, :meth:`SessionManager.restore_all`
rebuilds every open session bit-exactly from its journal via
deterministic replay, and :meth:`ManagedSession.replayed_response`
serves re-sent pre-crash requests idempotently.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:  # imported only for annotations; avoids a heavy import
    from repro.lint.netwide.gate import NetwideGate

from repro import obs
from repro.config import parse_config, render_config
from repro.config.store import ConfigStore
from repro.core.disambiguator import DisambiguationMode
from repro.core.oracle import FirstOptionOracle, UserOracle
from repro.core.workflow import ClarifySession
from repro.llm.client import LLMClient
from repro.obs.journal import JournalRecorder
from repro.serve.store import (
    RestoredSession,
    SessionRecord,
    SessionStore,
    rebuild_session,
)


class ManagedSession:
    """One named Clarify session plus its serving-side bookkeeping."""

    def __init__(
        self,
        session_id: str,
        session: ClarifySession,
        journal: Optional[JournalRecorder] = None,
    ) -> None:
        self.session_id = session_id
        self.session = session
        self.journal = journal
        #: Guards ``submitted_seq`` assignment and ``next_seq`` waits.
        self.cond = threading.Condition()
        #: Sequence number the next accepted request will be stamped with.
        self.submitted_seq = 0
        #: Sequence number of the request allowed to execute now.
        self.next_seq = 0
        #: Requests this session has resolved (bumped by the service
        #: under ``cond``; surfaced via the serve ``stats`` op).
        self.completed = 0
        #: Set when this session was rebuilt from a journal after a
        #: crash; carries the pre-crash responses for idempotent replay.
        self.restored: Optional[RestoredSession] = None

    def replayed_response(self, seq: int) -> Optional[object]:
        """The pre-crash response for ``seq``, if this session was
        restored and ``seq`` resolved before the crash (else None).

        This is the exactly-once half of crash recovery: the router
        re-sends every in-flight request after a shard restart, and
        already-resolved sequence numbers are answered from the journal
        instead of being run a second time.
        """
        if self.restored is None:
            return None
        if 0 <= seq < len(self.restored.responses):
            return self.restored.responses[seq]
        return None

    def config_text(self) -> str:
        """The session's current rendered configuration."""
        return render_config(self.session.store)

    def config_sha256(self) -> str:
        return obs.sha256_text(self.config_text())


class SessionManager:
    """Creates, looks up, and closes the sessions a service runs.

    ``llm`` is shared by every session (each ``ClarifySession`` wraps it
    in its own :class:`~repro.llm.transcript.TranscribingClient`, so
    per-session call counts stay exact even when the shared client
    deduplicates upstream calls).  ``oracle_factory`` builds one oracle
    per session — the default always answers option 1, the loadgen's
    deterministic choice.
    """

    def __init__(
        self,
        llm: Optional[LLMClient] = None,
        oracle_factory: Optional[Callable[[], UserOracle]] = None,
        mode: DisambiguationMode = DisambiguationMode.FULL,
        max_attempts: int = 3,
        lint_gate: bool = False,
        netwide_gate_factory: Optional[Callable[[], "NetwideGate"]] = None,
        session_store: Optional[SessionStore] = None,
    ) -> None:
        self._llm = llm
        self._oracle_factory = oracle_factory or FirstOptionOracle
        self._mode = mode
        self._max_attempts = max_attempts
        self._lint_gate = lint_gate
        #: Builds one whole-network advisory gate per session (each gate
        #: holds its own incremental analyzer); None disables the layer.
        self._netwide_gate_factory = netwide_gate_factory
        #: Session tier (:mod:`repro.serve.store`): when set it owns every
        #: session's journal and ``restore_all`` can rebuild the
        #: manager's state after a crash; without it nothing is journaled.
        self.session_store = session_store
        self._lock = threading.Lock()
        self._sessions: Dict[str, ManagedSession] = {}
        self._opened = 0

    # ------------------------------------------------------------ lifecycle

    def open(
        self,
        session_id: str,
        config_text: str = "",
        store: Optional[ConfigStore] = None,
    ) -> ManagedSession:
        """Create a session; ``config_text`` seeds its configuration."""
        if store is None:
            store = parse_config(config_text)
        elif not config_text:
            config_text = render_config(store)
        journal = (
            self.session_store.open(self._record(session_id, config_text))
            if self.session_store is not None
            else None
        )
        with self._lock:
            if session_id in self._sessions:
                raise ValueError(f"session {session_id!r} already open")
            self._opened += 1
            numeric_id = self._opened
        session = ClarifySession(
            store=store,
            llm=self._llm,
            oracle=self._oracle_factory(),
            mode=self._mode,
            max_attempts=self._max_attempts,
            lint_gate=self._lint_gate,
            netwide_gate=(
                self._netwide_gate_factory()
                if self._netwide_gate_factory is not None
                else None
            ),
            session_id=numeric_id,
        )
        managed = ManagedSession(session_id, session, journal=journal)
        with self._lock:
            self._sessions[session_id] = managed
        obs.count("serve.sessions.opened")
        return managed

    def _record(self, session_id: str, config_text: str) -> SessionRecord:
        return SessionRecord(
            session_id=session_id,
            config_text=config_text,
            mode=self._mode.value,
            max_attempts=self._max_attempts,
            lint_gate=self._lint_gate,
        )

    def restore_all(self) -> List[str]:
        """Rebuild every open session from the session store's journals.

        Each restored session resumes exactly where the journal's
        complete-cycle prefix left it: its configuration store is the
        replay-verified post-crash state, ``submitted_seq``/``next_seq``
        continue from the number of already-resolved requests, and the
        pre-crash responses are kept for idempotent re-sends
        (:meth:`ManagedSession.replayed_response`).  Returns the
        restored session ids in manifest order; raises
        :class:`~repro.serve.store.RestoreError` on any divergence.
        """
        if self.session_store is None:
            raise ValueError("restore_all requires a session_store")
        restored_ids: List[str] = []
        for record in self.session_store.records():
            snapshot = self.session_store.snapshot(record.session_id)
            rebuilt = rebuild_session(
                snapshot,
                llm=self._llm,
                oracle_factory=self._oracle_factory,
                netwide_gate_factory=self._netwide_gate_factory,
            )
            journal = self.session_store.resume(record, rebuilt.events)
            managed = ManagedSession(
                record.session_id, rebuilt.session, journal=journal
            )
            managed.submitted_seq = rebuilt.completed
            managed.next_seq = rebuilt.completed
            managed.completed = rebuilt.completed
            managed.restored = rebuilt
            with self._lock:
                self._opened += 1
                self._sessions[record.session_id] = managed
            obs.count("serve.sessions.restored")
            restored_ids.append(record.session_id)
        return restored_ids

    def get(self, session_id: str) -> Optional[ManagedSession]:
        with self._lock:
            return self._sessions.get(session_id)

    def close(self, session_id: str) -> bool:
        """Forget a session, closing its journal; False if unknown."""
        with self._lock:
            managed = self._sessions.pop(session_id, None)
        if managed is None:
            return False
        if managed.journal is not None:
            managed.journal.close()
        if self.session_store is not None:
            self.session_store.close(session_id)
        obs.count("serve.sessions.closed")
        return True

    def close_all(self) -> None:
        for session_id in self.ids():
            self.close(session_id)

    # ------------------------------------------------------------- queries

    def ids(self) -> List[str]:
        """Open session ids, in creation order."""
        with self._lock:
            return list(self._sessions)

    def completed_counts(self) -> Dict[str, int]:
        """Per-session resolved-request counts, in creation order."""
        with self._lock:
            managed = list(self._sessions.values())
        return {m.session_id: m.completed for m in managed}

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, session_id: object) -> bool:
        with self._lock:
            return session_id in self._sessions


__all__ = ["ManagedSession", "SessionManager"]
