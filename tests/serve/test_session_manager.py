"""Tests for the serving layer's per-session state owner."""

import os

import pytest

from repro.obs.journal import read_journal
from repro.serve import ClarifyService, ServeRequest, SessionManager
from repro.serve.loadgen import CAMPUS_CONFIG
from repro.serve.store import DurableSessionStore, InMemorySessionStore

INTENT = (
    "Write a route-map stanza that permits routes with local-preference 300."
)


class TestSessionManager:
    def test_open_get_close(self):
        manager = SessionManager()
        managed = manager.open("alice", config_text=CAMPUS_CONFIG)
        assert manager.get("alice") is managed
        assert "alice" in manager
        assert len(manager) == 1
        assert manager.ids() == ["alice"]
        assert manager.close("alice")
        assert manager.get("alice") is None
        assert not manager.close("alice")

    def test_duplicate_open_rejected(self):
        manager = SessionManager()
        manager.open("alice")
        with pytest.raises(ValueError, match="already open"):
            manager.open("alice")

    def test_sessions_are_isolated(self):
        manager = SessionManager()
        alice = manager.open("alice", config_text=CAMPUS_CONFIG)
        bob = manager.open("bob", config_text="")
        assert alice.session.store is not bob.session.store
        assert alice.config_sha256() != bob.config_sha256()

    def test_numeric_session_ids_follow_insertion_order(self):
        manager = SessionManager()
        first = manager.open("a")
        second = manager.open("b")
        assert second.session.session_id == first.session.session_id + 1

    def test_config_hash_changes_after_request(self):
        manager = SessionManager()
        managed = manager.open("alice", config_text=CAMPUS_CONFIG)
        before = managed.config_sha256()
        with ClarifyService(manager, workers=1) as service:
            response = service.call(
                ServeRequest(session="alice", intent=INTENT, target="ISP_OUT")
            )
        assert response.outcome == "applied"
        assert managed.config_sha256() != before
        assert response.config_sha256 == managed.config_sha256()

    def test_memory_journals_capture_per_session_events(self):
        manager = SessionManager(session_store=InMemorySessionStore())
        alice = manager.open("alice", config_text=CAMPUS_CONFIG)
        bob = manager.open("bob", config_text=CAMPUS_CONFIG)
        with ClarifyService(manager, workers=2) as service:
            a = service.submit(
                ServeRequest(session="alice", intent=INTENT, target="ISP_OUT")
            )
            b = service.submit(
                ServeRequest(session="bob", intent=INTENT, target="ISP_OUT")
            )
            assert a.wait(60) is not None
            assert b.wait(60) is not None
        # Each journal holds exactly one session's cycle, not an interleaving.
        for managed in (alice, bob):
            types = [e.type for e in managed.journal.events]
            assert types.count("cycle.start") == 1
            assert types.count("cycle.end") == 1

    def test_journal_dir_writes_one_file_per_session(self, tmp_path):
        store = DurableSessionStore(str(tmp_path))
        manager = SessionManager(session_store=store)
        manager.open("net/alice", config_text=CAMPUS_CONFIG)
        manager.open("net/bob", config_text=CAMPUS_CONFIG)
        try:
            with ClarifyService(manager, workers=2) as service:
                for session in ("net/alice", "net/bob"):
                    service.call(
                        ServeRequest(
                            session=session, intent=INTENT, target="ISP_OUT"
                        )
                    )
        finally:
            store.shutdown()
        journals = sorted(
            name for name in os.listdir(tmp_path) if name.endswith(".journal.jsonl")
        )
        assert [name.split("-")[0] for name in journals] == ["net_alice", "net_bob"]
        for session in ("net/alice", "net/bob"):
            events = read_journal(store.journal_path(session))
            assert events[0].type == "journal.open"
            assert [e.type for e in events].count("cycle.end") == 1
