"""Replay: re-driving journals with zero LLM calls, divergence detection."""

import dataclasses

import pytest

from repro import obs
from repro.cli import WALKTHROUGH_CONFIG, WALKTHROUGH_INTENT, WALKTHROUGH_TARGET
from repro.config import parse_config
from repro.core import ClarifySession
from repro.obs.journal import JournalEvent
from repro.obs.replay import (
    ReplayDivergence,
    ReplayError,
    ReplayLLM,
    ReplayOracle,
    replay_journal,
)


def record_walkthrough():
    journal = obs.JournalRecorder()
    with obs.scope(journal=journal):
        session = ClarifySession(store=parse_config(WALKTHROUGH_CONFIG))
        report = session.request(WALKTHROUGH_INTENT, WALKTHROUGH_TARGET)
    return journal.events, report


class CountingLLM:
    """Fails the test if the replay path ever calls a live LLM."""

    def __init__(self):
        self.calls = 0

    def complete(self, system, prompt):
        self.calls += 1
        raise AssertionError("replay must not call a live LLM")


class TestReplayRoundTrip:
    def test_walkthrough_replays_exactly(self):
        events, report = record_walkthrough()
        result = replay_journal(events)
        assert result.ok
        assert result.divergence is None
        assert result.cycles == 1
        assert result.llm_calls_served == 3
        assert result.answers_served == 2
        (replayed,) = result.reports
        assert replayed.position == report.position
        assert replayed.diff == report.diff
        assert replayed.overlaps == report.overlaps

    def test_replay_makes_zero_llm_calls(self, monkeypatch):
        events, _ = record_walkthrough()
        from repro.llm import simulated

        def explode(self, system, prompt):
            raise AssertionError("live LLM called during replay")

        monkeypatch.setattr(simulated.SimulatedLLM, "complete", explode)
        result = replay_journal(events)
        assert result.ok

    def test_replayed_event_stream_matches_byte_for_byte(self):
        events, _ = record_walkthrough()
        result = replay_journal(events)
        # Modulo the process-global session counter, the streams are
        # literally identical JSONL.
        recorded = obs.dumps_journal(result.recorded_events)
        replayed = obs.dumps_journal(result.replayed_events)
        for rec, rep in zip(
            result.recorded_events, result.replayed_events
        ):
            if rec.type == "cycle.start":
                assert rec.data["config_sha256"] == rep.data["config_sha256"]
        assert len(recorded.splitlines()) == len(replayed.splitlines())


class TestDivergence:
    def _tamper(self, events, idx, **changes):
        data = dict(events[idx].data)
        data.update(changes)
        tampered = list(events)
        tampered[idx] = JournalEvent(
            seq=events[idx].seq, type=events[idx].type, data=data
        )
        return tampered

    def test_tampered_llm_response_diverges(self):
        events, _ = record_walkthrough()
        idx = next(
            i for i, e in enumerate(events) if e.type == "llm.call"
        )
        # A different recorded response changes what the pipeline builds,
        # so the replayed stream departs from the recorded one.
        tampered = self._tamper(
            events, idx, response='{"permit": true, "prefix": []}'
        )
        result = replay_journal(tampered)
        assert not result.ok
        assert result.divergence is not None

    def test_tampered_answer_flips_position_and_diverges(self):
        events, _ = record_walkthrough()
        idx = next(
            i
            for i, e in enumerate(events)
            if e.type == "disambiguation.question"
        )
        old = events[idx].data["answer"]
        tampered = self._tamper(events, idx, answer=3 - old)
        result = replay_journal(tampered)
        assert not result.ok
        assert result.divergence is not None
        assert result.divergence.seq is not None

    def test_tampered_config_hash_is_caught(self):
        events, _ = record_walkthrough()
        idx = next(
            i for i, e in enumerate(events) if e.type == "cycle.end"
        )
        tampered = self._tamper(events, idx, config_sha256="0" * 64)
        result = replay_journal(tampered)
        assert not result.ok
        assert result.divergence.kind == "event-mismatch"
        assert result.divergence.seq == events[idx].seq

    def test_truncated_journal_reports_missing_events(self):
        events, _ = record_walkthrough()
        result = replay_journal(events[:-1])
        assert not result.ok
        assert result.divergence.kind == "extra-event"

    def test_divergence_render_names_the_seq(self):
        events, _ = record_walkthrough()
        idx = next(
            i for i, e in enumerate(events) if e.type == "cycle.end"
        )
        tampered = self._tamper(events, idx, config_sha256="0" * 64)
        result = replay_journal(tampered)
        text = result.divergence.render()
        assert f"event {events[idx].seq}" in text
        assert "expected" in text and "actual" in text


class TestReplayStubs:
    def _call_event(self, seq, system, prompt, response):
        return JournalEvent(
            seq=seq,
            type="llm.call",
            data={
                "task": "classify",
                "system_sha256": obs.sha256_text(system),
                "prompt": prompt,
                "response": response,
            },
        )

    def test_replay_llm_serves_in_order(self):
        llm = ReplayLLM(
            [
                self._call_event(1, "sys", "p1", "r1"),
                self._call_event(2, "sys", "p2", "r2"),
            ]
        )
        assert llm.complete("sys", "p1") == "r1"
        assert llm.complete("sys", "p2") == "r2"
        assert llm.served == 2 and llm.remaining == 0

    def test_replay_llm_rejects_wrong_prompt(self):
        llm = ReplayLLM([self._call_event(1, "sys", "p1", "r1")])
        with pytest.raises(ReplayDivergence) as err:
            llm.complete("sys", "WRONG")
        assert err.value.divergence.kind == "llm-call"
        assert err.value.divergence.seq == 1

    def test_replay_llm_rejects_wrong_system_prompt(self):
        llm = ReplayLLM([self._call_event(1, "sys", "p1", "r1")])
        with pytest.raises(ReplayDivergence):
            llm.complete("DIFFERENT SYSTEM", "p1")

    def test_replay_llm_exhaustion(self):
        llm = ReplayLLM([])
        with pytest.raises(ReplayDivergence) as err:
            llm.complete("sys", "p")
        assert "more LLM calls" in err.value.divergence.detail

    def test_replay_oracle_verifies_question_text(self):
        @dataclasses.dataclass
        class FakeQuestion:
            text: str

            def render(self):
                return self.text

        oracle = ReplayOracle(
            [
                JournalEvent(
                    seq=1,
                    type="disambiguation.question",
                    data={"question": "before or after?", "answer": 2},
                )
            ]
        )
        assert oracle.choose(FakeQuestion("before or after?")) == 2
        with pytest.raises(Exception):
            oracle.choose(FakeQuestion("unexpected question"))


class TestMalformedJournals:
    def test_event_before_first_cycle_rejected(self):
        header = JournalEvent(
            seq=0, type="journal.open", data={"version": obs.JOURNAL_VERSION}
        )
        stray = JournalEvent(seq=1, type="llm.call", data={})
        with pytest.raises(ReplayError, match="precedes"):
            replay_journal([header, stray])

    def test_headerless_journal_rejected(self):
        stray = JournalEvent(seq=0, type="cycle.start", data={})
        with pytest.raises(obs.JournalError):
            replay_journal([stray])
