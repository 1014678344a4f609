"""Tests for in-flight LLM deduplication (SingleFlight + DedupClient)."""

import threading

import pytest

from repro.llm.client import LLMClient
from repro.llm.dedup import DedupClient
from repro.perf.cache import SingleFlight


class CountingBlockingLLM(LLMClient):
    """Counts upstream calls; optionally blocks them on a gate."""

    def __init__(self, gated: bool = False) -> None:
        self.calls = 0
        self._lock = threading.Lock()
        self.gate = threading.Event()
        if not gated:
            self.gate.set()
        self.entered = threading.Event()

    def complete(self, system: str, prompt: str) -> str:
        with self._lock:
            self.calls += 1
        self.entered.set()
        assert self.gate.wait(timeout=60), "test never opened the gate"
        return f"echo:{system}:{prompt}"


class TestSingleFlight:
    def test_sequential_calls_each_compute(self):
        flight = SingleFlight("t")
        seen = []
        assert flight.do("k", lambda: seen.append(1) or "a") == "a"
        assert flight.do("k", lambda: seen.append(2) or "b") == "b"
        assert len(seen) == 2
        assert flight.leaders == 2
        assert flight.followers == 0

    def test_leader_exception_propagates_to_followers(self):
        flight = SingleFlight("t")
        entered = threading.Event()
        release = threading.Event()

        def boom():
            entered.set()
            assert release.wait(timeout=60)
            raise RuntimeError("upstream exploded")

        results = []

        def leader():
            with pytest.raises(RuntimeError):
                flight.do("k", boom)

        def follower():
            try:
                flight.do("k", lambda: "never")
            except RuntimeError as exc:
                results.append(str(exc))

        t1 = threading.Thread(target=leader)
        t1.start()
        assert entered.wait(timeout=60)
        t2 = threading.Thread(target=follower)
        t2.start()
        while flight.in_flight() and flight.followers == 0:
            pass  # wait for the follower to attach
        release.set()
        t1.join()
        t2.join()
        assert results == ["upstream exploded"]


class TestDedupClient:
    def test_identical_in_flight_requests_fan_out_one_call(self):
        upstream = CountingBlockingLLM(gated=True)
        client = DedupClient(upstream)
        fanout = 6
        results = []
        results_lock = threading.Lock()

        def call():
            response = client.complete("sys", "same prompt")
            with results_lock:
                results.append(response)

        threads = [threading.Thread(target=call) for _ in range(fanout)]
        for thread in threads:
            thread.start()
        assert upstream.entered.wait(timeout=60)
        # Wait until every non-leader has attached to the in-flight call;
        # only then may the leader finish (otherwise a late arrival would
        # find the flight already landed and lead its own).
        while client.coalesced < fanout - 1:
            pass
        upstream.gate.set()
        for thread in threads:
            thread.join()
        assert upstream.calls == 1
        assert client.upstream_calls == 1
        assert client.coalesced == fanout - 1
        assert results == ["echo:sys:same prompt"] * fanout

    def test_distinct_prompts_do_not_coalesce(self):
        upstream = CountingBlockingLLM()
        client = DedupClient(upstream)
        assert client.complete("sys", "a") == "echo:sys:a"
        assert client.complete("sys", "b") == "echo:sys:b"
        assert upstream.calls == 2
        assert client.coalesced == 0

    def test_no_memo_by_default(self):
        upstream = CountingBlockingLLM()
        client = DedupClient(upstream)
        client.complete("sys", "p")
        client.complete("sys", "p")
        # Sequential identical calls both hit upstream: dedup is
        # in-flight-only so chaos-corrupted responses are never pinned.
        assert upstream.calls == 2
        assert client.upstream_calls == 2
        assert client.coalesced == 0

    def test_stats_snapshot(self):
        upstream = CountingBlockingLLM()
        client = DedupClient(upstream)
        client.complete("sys", "p")
        stats = client.stats()
        assert stats == {
            "requests": 1,
            "upstream_calls": 1,
            "coalesced": 0,
        }
