"""The session journal: event recording, JSONL round-trip, validation."""

import json
import threading

import pytest

from repro import obs
from repro.obs.journal import EVENT_TYPES, validate_journal


class TestJournalRecorder:
    def test_header_is_emitted_on_construction(self):
        journal = obs.JournalRecorder()
        assert len(journal) == 1
        header = journal.events[0]
        assert header.seq == 0
        assert header.type == "journal.open"
        assert header.data == {"version": obs.JOURNAL_VERSION}

    def test_events_get_consecutive_seq(self):
        journal = obs.JournalRecorder()
        journal.event("cycle.start", target="ISP_OUT")
        journal.event("cycle.end", position=0)
        assert [e.seq for e in journal.events] == [0, 1, 2]
        assert journal.events[1].data == {"target": "ISP_OUT"}

    def test_streams_jsonl_to_file(self, tmp_path):
        path = tmp_path / "session.jsonl"
        with obs.JournalRecorder(str(path)) as journal:
            journal.event("cycle.start", target="ISP_OUT")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["type"] == "journal.open"
        assert json.loads(lines[1])["data"] == {"target": "ISP_OUT"}

    def test_each_event_is_flushed_immediately(self, tmp_path):
        # An aborted process must still leave completed events on disk.
        path = tmp_path / "session.jsonl"
        journal = obs.JournalRecorder(str(path))
        journal.event("cycle.start", target="X")
        assert len(path.read_text().splitlines()) == 2
        journal.close()

    def test_thread_safe_seq_assignment(self):
        journal = obs.JournalRecorder()
        n, threads = 500, 8

        def emit():
            for _ in range(n):
                journal.event("llm.call", prompt="p")

        workers = [threading.Thread(target=emit) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert len(journal) == 1 + n * threads
        assert [e.seq for e in journal.events] == list(range(len(journal)))

    def test_no_timestamps_anywhere(self, tmp_path):
        # Determinism contract: two identical runs → byte-identical files.
        path = tmp_path / "session.jsonl"
        with obs.JournalRecorder(str(path)) as journal:
            journal.event("cycle.start", target="T")
        text = path.read_text()
        assert "time" not in text and "stamp" not in text


class TestRoundTrip:
    def test_dumps_loads_round_trip(self):
        journal = obs.JournalRecorder()
        journal.event("cycle.start", target="ISP_OUT", session=1)
        journal.event("cycle.end", config_sha256=obs.sha256_text("x"))
        text = obs.dumps_journal(journal.events)
        assert obs.loads_journal(text) == journal.events

    def test_read_journal_from_disk(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with obs.JournalRecorder(str(path)) as journal:
            journal.event("lint.gate", warnings=[])
        assert obs.read_journal(str(path)) == journal.events

    def test_identical_runs_are_byte_identical(self):
        def run():
            journal = obs.JournalRecorder()
            journal.event("cycle.start", target="T", intent="same intent")
            journal.event("cycle.end", position=0)
            return obs.dumps_journal(journal.events)

        assert run() == run()


class TestValidation:
    def test_empty_journal_rejected(self):
        with pytest.raises(obs.JournalError, match="empty"):
            obs.loads_journal("")

    def test_missing_header_rejected(self):
        bad = json.dumps({"seq": 0, "type": "cycle.start", "data": {}})
        with pytest.raises(obs.JournalError, match="journal.open"):
            obs.loads_journal(bad + "\n")

    def test_future_version_rejected(self):
        bad = json.dumps(
            {
                "seq": 0,
                "type": "journal.open",
                "data": {"version": obs.JOURNAL_VERSION + 1},
            }
        )
        with pytest.raises(obs.JournalError, match="newer"):
            obs.loads_journal(bad + "\n")

    def test_broken_seq_rejected(self):
        journal = obs.JournalRecorder()
        journal.event("cycle.start", target="T")
        events = [journal.events[0], journal.events[1]]
        tampered = [events[0], type(events[1])(seq=7, type=events[1].type, data=events[1].data)]
        with pytest.raises(obs.JournalError, match="sequence"):
            validate_journal(tampered)

    def test_invalid_json_line_rejected(self):
        with pytest.raises(obs.JournalError, match="line 1"):
            obs.loads_journal("not json\n")

    def test_emitted_types_are_catalogued(self):
        # Keep EVENT_TYPES in sync with what the pipeline can emit.
        for required in (
            "llm.call",
            "spec.extracted",
            "verify.verdict",
            "synthesis.retry",
            "disambiguation.question",
            "insertion.decision",
            "lint.gate",
            "cycle.end",
            "cycle.error",
        ):
            assert required in EVENT_TYPES


class TestActiveJournal:
    def test_event_hook_is_noop_without_journal(self):
        assert not obs.journal_enabled()
        obs.event("cycle.start", target="ignored")  # must not raise

    def test_journaling_scope(self):
        journal = obs.JournalRecorder()
        with obs.scope(journal=journal):
            assert obs.journal_enabled()
            obs.event("cycle.start", target="T")
        assert not obs.journal_enabled()
        obs.event("cycle.start", target="dropped")
        assert [e.type for e in journal.events] == [
            "journal.open",
            "cycle.start",
        ]

    def test_journaling_restores_previous(self):
        outer, inner = obs.JournalRecorder(), obs.JournalRecorder()
        with obs.scope(journal=outer):
            with obs.scope(journal=inner):
                obs.event("cycle.start", target="inner")
            obs.event("cycle.start", target="outer")
        assert [e.data.get("target") for e in inner.events] == [None, "inner"]
        assert [e.data.get("target") for e in outer.events] == [None, "outer"]
