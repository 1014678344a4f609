"""Tests for durable session stores and journal-replay restore."""

import dataclasses
import json
import os

import pytest

from repro.obs.journal import loads_journal, read_journal
from repro.serve import ClarifyService, ServeRequest, SessionManager
from repro.serve.loadgen import CAMPUS_CONFIG, generate_workload
from repro.serve.store import (
    DurableSessionStore,
    InMemorySessionStore,
    RestoreError,
    SessionRecord,
    SessionSnapshot,
    complete_prefix,
    rebuild_session,
    responses_from_events,
)


def drive_campaign(manager, workload, rounds=None):
    """Run each workload session's intents through a 1-worker service."""
    responses = []
    with ClarifyService(manager, workers=1) as service:
        for spec in workload:
            if spec.session_id not in manager:
                manager.open(spec.session_id, spec.config_text)
            intents = spec.intents if rounds is None else spec.intents[:rounds]
            for intent in intents:
                responses.append(
                    service.call(
                        ServeRequest(
                            session=spec.session_id,
                            intent=intent,
                            target=spec.target,
                        )
                    )
                )
    return responses


class TestInMemoryStore:
    def test_snapshot_restore_round_trip(self):
        store = InMemorySessionStore()
        manager = SessionManager(session_store=store)
        workload = generate_workload(3, 2, 2025)
        live = drive_campaign(manager, workload)
        assert all(r.outcome == "applied" for r in live)

        fresh = SessionManager(session_store=store)
        restored_ids = fresh.restore_all()
        assert restored_ids == [spec.session_id for spec in workload]
        for spec in workload:
            original = manager.get(spec.session_id)
            rebuilt = fresh.get(spec.session_id)
            assert rebuilt.config_sha256() == original.config_sha256()
            assert rebuilt.submitted_seq == original.submitted_seq
            assert rebuilt.completed == original.completed

    def test_replayed_responses_match_live_outcome_keys(self):
        store = InMemorySessionStore()
        manager = SessionManager(session_store=store)
        workload = generate_workload(2, 2, 7)
        live = drive_campaign(manager, workload)

        fresh = SessionManager(session_store=store)
        fresh.restore_all()
        by_key = {(r.session, r.seq): r for r in live}
        for (session_id, seq), response in by_key.items():
            replayed = fresh.get(session_id).replayed_response(seq)
            assert replayed is not None
            assert replayed.outcome_key() == response.outcome_key()

    def test_restored_session_serves_identical_future_requests(self):
        store = InMemorySessionStore()
        manager = SessionManager(session_store=store)
        workload = generate_workload(2, 3, 11)
        drive_campaign(manager, workload, rounds=2)

        fresh = SessionManager(session_store=store)
        fresh.restore_all()
        continued = drive_campaign(fresh, workload)  # opens skipped
        uncrashed = drive_campaign(manager, workload)
        assert [r.outcome_key() for r in continued] == [
            r.outcome_key() for r in uncrashed
        ]

    def test_restore_before_any_cycle_uses_the_record(self):
        store = InMemorySessionStore()
        manager = SessionManager(session_store=store)
        manager.open("alice", CAMPUS_CONFIG)

        fresh = SessionManager(session_store=store)
        assert fresh.restore_all() == ["alice"]
        assert (
            fresh.get("alice").config_sha256()
            == manager.get("alice").config_sha256()
        )
        assert fresh.get("alice").submitted_seq == 0

    def test_close_tombstones_the_session(self):
        store = InMemorySessionStore()
        manager = SessionManager(session_store=store)
        manager.open("alice", CAMPUS_CONFIG)
        manager.open("bob", CAMPUS_CONFIG)
        manager.close("alice")
        assert [r.session_id for r in store.records()] == ["bob"]


class TestCompletePrefix:
    def test_truncates_a_half_recorded_cycle(self):
        store = InMemorySessionStore()
        manager = SessionManager(session_store=store)
        workload = generate_workload(1, 1, 2025)
        drive_campaign(manager, workload)
        session_id = workload[0].session_id
        events = list(store._journals[session_id].events)
        # Orphan a cycle: a start (and an llm call) with no end.
        torn = events + [
            dataclasses.replace(events[1], seq=len(events)),
        ]
        prefix, dropped = complete_prefix(torn)
        assert dropped == 1
        assert prefix == events
        assert prefix[-1].type in ("cycle.end", "cycle.error")

    def test_empty_and_header_only(self):
        assert complete_prefix([]) == ([], 0)
        store = InMemorySessionStore()
        journal = store.open(SessionRecord(session_id="a"))
        prefix, dropped = complete_prefix(list(journal.events))
        assert [e.type for e in prefix] == ["journal.open"]
        assert dropped == 0


class TestRebuildSession:
    def _snapshot(self, store, session_id):
        return store.snapshot(session_id)

    def test_rebuild_verifies_config_hash(self):
        store = InMemorySessionStore()
        manager = SessionManager(session_store=store)
        workload = generate_workload(1, 2, 2025)
        drive_campaign(manager, workload)
        session_id = workload[0].session_id
        snapshot = self._snapshot(store, session_id)
        rebuilt = rebuild_session(snapshot)
        live = manager.get(session_id)
        assert rebuilt.completed == 2
        assert (
            rebuilt.session.store is not live.session.store
        )  # a fresh store, not a shared reference
        from repro.config import render_config

        assert render_config(rebuilt.session.store) == render_config(
            live.session.store
        )

    def test_tampered_journal_raises_restore_error(self):
        store = InMemorySessionStore()
        manager = SessionManager(session_store=store)
        workload = generate_workload(1, 1, 2025)
        drive_campaign(manager, workload)
        session_id = workload[0].session_id
        snapshot = self._snapshot(store, session_id)
        tampered = []
        for event in snapshot.events:
            if event.type == "cycle.end":
                data = dict(event.data)
                data["config_sha256"] = "0" * 64
                event = dataclasses.replace(event, data=data)
            tampered.append(event)
        with pytest.raises(RestoreError):
            rebuild_session(
                SessionSnapshot(record=snapshot.record, events=tampered)
            )

    def test_responses_from_events_reconstructs_failure_cycles(self):
        from repro.obs.journal import JournalRecorder

        recorder = JournalRecorder()
        recorder.event(
            "cycle.start",
            op="request",
            intent="x",
            target="ISP_OUT",
            config_sha256="abc123",
        )
        recorder.event(
            "cycle.error",
            error="SynthesisPunt",
            message="could not synthesize",
            attempts=2,
        )
        recorder.event(
            "cycle.start",
            op="request",
            intent="y",
            target="ISP_OUT",
            config_sha256="abc123",
        )
        recorder.event(
            "cycle.error",
            error="DeadlineExceeded",
            message="budget spent",
            questions=3,
        )
        rebuilt = responses_from_events("alice", recorder.events)
        assert [r.outcome for r in rebuilt] == [
            "needs-clarification",
            "deadline",
        ]
        assert rebuilt[0].attempts == 2
        assert rebuilt[0].seq == 0
        # Failed cycles never mutate the store: the response carries the
        # *start* hash.
        assert rebuilt[0].config_sha256 == "abc123"
        assert rebuilt[1].questions == 3
        assert rebuilt[1].seq == 1


class TestDurableStore:
    def test_round_trip_on_disk(self, tmp_path):
        root = str(tmp_path / "store")
        store = DurableSessionStore(root)
        manager = SessionManager(session_store=store)
        workload = generate_workload(2, 2, 2025)
        live = drive_campaign(manager, workload)

        # A brand-new store object: nothing shared with the writer.
        fresh = SessionManager(session_store=DurableSessionStore(root))
        assert fresh.restore_all() == [s.session_id for s in workload]
        for spec in workload:
            assert (
                fresh.get(spec.session_id).config_sha256()
                == manager.get(spec.session_id).config_sha256()
            )
        by_key = {(r.session, r.seq): r for r in live}
        for (session_id, seq), response in by_key.items():
            replayed = fresh.get(session_id).replayed_response(seq)
            assert replayed.outcome_key() == response.outcome_key()

    def test_torn_journal_tail_is_dropped(self, tmp_path):
        root = str(tmp_path / "store")
        store = DurableSessionStore(root)
        manager = SessionManager(session_store=store)
        workload = generate_workload(1, 1, 2025)
        drive_campaign(manager, workload)
        session_id = workload[0].session_id
        path = store.journal_path(session_id)
        with open(path, "a") as handle:
            handle.write('{"seq": 999, "type": "cycle.st')  # torn mid-write
        snapshot = DurableSessionStore(root).snapshot(session_id)
        assert snapshot.events[-1].type == "cycle.end"
        rebuilt = rebuild_session(snapshot)
        assert rebuilt.completed == 1

    def test_resume_rewrites_a_clean_journal(self, tmp_path):
        root = str(tmp_path / "store")
        store = DurableSessionStore(root)
        manager = SessionManager(session_store=store)
        workload = generate_workload(1, 1, 2025)
        drive_campaign(manager, workload)
        session_id = workload[0].session_id
        with open(store.journal_path(session_id), "a") as handle:
            handle.write("garbage that a crash left behind")

        fresh_store = DurableSessionStore(root)
        fresh = SessionManager(session_store=fresh_store)
        fresh.restore_all()
        events = read_journal(store.journal_path(session_id))
        assert [e.seq for e in events] == list(range(len(events)))
        assert events[-1].type == "cycle.end"

    def test_manifest_tombstone_survives_reopen(self, tmp_path):
        root = str(tmp_path / "store")
        store = DurableSessionStore(root)
        store.open(SessionRecord(session_id="alice"))
        store.open(SessionRecord(session_id="bob"))
        store.close("alice")
        reopened = DurableSessionStore(root)
        assert [r.session_id for r in reopened.records()] == ["bob"]

    def test_journal_files_are_valid_jsonl(self, tmp_path):
        root = str(tmp_path / "store")
        store = DurableSessionStore(root)
        manager = SessionManager(session_store=store)
        workload = generate_workload(1, 2, 3)
        drive_campaign(manager, workload)
        path = store.journal_path(workload[0].session_id)
        assert os.path.exists(path)
        with open(path) as handle:
            events = loads_journal(handle.read())
        assert events[0].type == "journal.open"
        assert sum(1 for e in events if e.type == "cycle.end") == 2


def line_ends(data):
    """``(offset where each line's JSON ends, parsed line)`` per line."""
    ends, offset = [], 0
    for line in data.splitlines(keepends=True):
        ends.append((offset + len(line.rstrip(b"\n")), json.loads(line)))
        offset += len(line)
    return ends


class TestTornWrites:
    """A kill can cut a durable file at any byte offset."""

    def test_journal_cut_at_every_byte_offset(self, tmp_path):
        root = str(tmp_path / "store")
        store = DurableSessionStore(root)
        manager = SessionManager(session_store=store)
        workload = generate_workload(1, 2, 2025)
        drive_campaign(manager, workload)
        session_id = workload[0].session_id
        path = store.journal_path(session_id)
        with open(path, "rb") as handle:
            data = handle.read()
        ends = [
            (end, event["type"] in ("cycle.end", "cycle.error"))
            for end, event in line_ends(data)
        ]
        assert sum(done for _, done in ends) == 2

        reader = DurableSessionStore(root)
        # Replay is the slow part: rebuild once per distinct surviving
        # prefix; None marks a prefix refused with RestoreError.
        completed = {}
        for cut in range(len(data) + 1):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            snapshot = reader.snapshot(session_id)
            key = tuple(event.to_json() for event in snapshot.events)
            if key not in completed:
                try:
                    completed[key] = rebuild_session(snapshot).completed
                except RestoreError:
                    completed[key] = None
            expected = sum(done for end, done in ends if end <= cut)
            assert completed[key] in (expected, None), cut
        assert set(completed.values()) == {0, 1, 2}

    def test_manifest_cut_at_every_byte_offset(self, tmp_path):
        writer = DurableSessionStore(str(tmp_path / "writer"))
        for session_id in ("alice", "bob"):
            writer.open(SessionRecord(session_id, config_text=CAMPUS_CONFIG))
        writer.close("alice")
        writer.open(SessionRecord("carol"))
        data = (tmp_path / "writer" / DurableSessionStore.MANIFEST).read_bytes()
        entries = line_ends(data)

        reader = DurableSessionStore(str(tmp_path / "reader"))
        path = tmp_path / "reader" / DurableSessionStore.MANIFEST
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            expected = []
            for end, entry in entries:
                if end > cut:
                    break
                if entry["op"] == "open":
                    expected.append(entry["record"]["session_id"])
                else:
                    expected.remove(entry["session_id"])
            assert [r.session_id for r in reader.records()] == expected, cut
