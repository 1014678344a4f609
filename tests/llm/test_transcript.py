"""TranscribingClient: task attribution, running counters, the record cap."""

import pytest

from repro import obs
from repro.llm import (
    DEFAULT_MAX_RECORDS,
    PromptDatabase,
    SimulatedLLM,
    TaskKind,
    TranscribingClient,
)

PROMPTS = PromptDatabase()


def call(client, task, prompt="permit routes with metric 50"):
    return client.complete(PROMPTS.system_prompt(task), prompt)


class TestTaskAttribution:
    def test_task_kind_recovered_from_system_prompt(self):
        client = TranscribingClient(SimulatedLLM())
        call(client, TaskKind.CLASSIFY, "Add a rule to route-map RM")
        (record,) = client.records
        assert record.task is TaskKind.CLASSIFY

    def test_counts_by_task(self):
        client = TranscribingClient(SimulatedLLM())
        call(client, TaskKind.CLASSIFY, "Add a rule to route-map RM")
        call(client, TaskKind.CLASSIFY, "Add a rule to route-map RM")
        call(client, TaskKind.ROUTE_MAP_SPEC)
        counts = client.counts_by_task()
        assert counts[TaskKind.CLASSIFY] == 2
        assert counts[TaskKind.ROUTE_MAP_SPEC] == 1
        assert TaskKind.ACL_SPEC not in counts

    def test_call_count_filters(self):
        client = TranscribingClient(SimulatedLLM())
        call(client, TaskKind.CLASSIFY, "Add a rule to route-map RM")
        call(client, TaskKind.ROUTE_MAP_SPEC)
        assert client.call_count() == 2
        assert client.call_count(TaskKind.CLASSIFY) == 1
        assert client.call_count(TaskKind.ACL_SPEC) == 0


class TestRecordCap:
    def test_default_cap(self):
        assert TranscribingClient(SimulatedLLM()).max_records == DEFAULT_MAX_RECORDS

    def test_cap_evicts_oldest(self):
        client = TranscribingClient(SimulatedLLM(), max_records=2)
        for idx in range(4):
            call(client, TaskKind.CLASSIFY, f"Add a rule to route-map RM{idx}")
        records = client.records
        assert len(records) == 2
        assert client.evicted == 2
        # Oldest were dropped: the retained prompts are the last two.
        assert [r.prompt for r in records] == [
            "Add a rule to route-map RM2",
            "Add a rule to route-map RM3",
        ]

    def test_counters_survive_eviction(self):
        client = TranscribingClient(SimulatedLLM(), max_records=1)
        for idx in range(5):
            call(client, TaskKind.CLASSIFY, f"Add a rule to route-map RM{idx}")
        # The Figure-4 statistics stay exact despite 4 evicted records.
        assert client.call_count() == 5
        assert client.call_count(TaskKind.CLASSIFY) == 5
        assert len(client.records) == 1

    def test_eviction_bumps_obs_counter(self):
        with obs.recording() as rec:
            client = TranscribingClient(SimulatedLLM(), max_records=1)
            call(client, TaskKind.CLASSIFY, "Add a rule to route-map A")
            call(client, TaskKind.CLASSIFY, "Add a rule to route-map B")
        assert rec.counter("llm.transcript.evicted") == 1

    def test_unbounded_with_none(self):
        client = TranscribingClient(SimulatedLLM(), max_records=None)
        for idx in range(DEFAULT_MAX_RECORDS + 10):
            call(client, TaskKind.CLASSIFY, f"Add a rule to route-map R{idx}")
        assert len(client.records) == DEFAULT_MAX_RECORDS + 10
        assert client.evicted == 0

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            TranscribingClient(SimulatedLLM(), max_records=0)
        with pytest.raises(ValueError):
            TranscribingClient(SimulatedLLM(), max_records=-3)

    def test_reset_clears_everything(self):
        client = TranscribingClient(SimulatedLLM(), max_records=1)
        call(client, TaskKind.CLASSIFY, "Add a rule to route-map A")
        call(client, TaskKind.CLASSIFY, "Add a rule to route-map B")
        client.reset()
        assert client.records == []
        assert client.call_count() == 0
        assert client.evicted == 0
        assert client.counts_by_task() == {}


class TestJournalEmission:
    def test_llm_call_event_carries_hash_not_system_prompt(self):
        journal = obs.JournalRecorder()
        with obs.scope(journal=journal):
            client = TranscribingClient(SimulatedLLM())
            system = PROMPTS.system_prompt(TaskKind.CLASSIFY)
            client.complete(system, "Add a rule to route-map RM")
        calls = [e for e in journal.events if e.type == "llm.call"]
        assert len(calls) == 1
        data = calls[0].data
        assert data["system_sha256"] == obs.sha256_text(system)
        assert "system" not in data  # full system prompt stays out
        assert data["prompt"] == "Add a rule to route-map RM"
        assert data["task"] == TaskKind.CLASSIFY.value
