"""The durable response cache: hits, purity gating, corruption refusal."""

import json
import os

import pytest

from repro.core.budget import TimeBudget, budget_scope
from repro.core.errors import DeadlineExceeded
from repro.llm.dedup import DedupClient
from repro.llm.faulty import FaultyLLM
from repro.llm.respcache import (
    CachedClient,
    ResponseCache,
    cache_safe_of,
    canonical_key,
)
from repro.llm.simulated import SimulatedLLM
from repro.llm.transcript import TranscribingClient


class CountingLLM:
    """A pure counting upstream."""

    cache_safe = True

    def __init__(self, response="RESPONSE"):
        self.calls = 0
        self.response = response

    def complete(self, system, prompt):
        self.calls += 1
        return self.response


class ImpureLLM(CountingLLM):
    cache_safe = False


@pytest.fixture
def cache(tmp_path):
    return ResponseCache(str(tmp_path / "cache"))


class TestCanonicalKey:
    def test_stable(self):
        assert canonical_key("s", "p") == canonical_key("s", "p")

    def test_distinguishes_system_from_prompt(self):
        assert canonical_key("a", "b") != canonical_key("b", "a")

    def test_is_a_sha256_hex(self):
        key = canonical_key("s", "p")
        assert len(key) == 64
        int(key, 16)


class TestResponseCache:
    def test_miss_then_hit(self, cache):
        assert cache.get("s", "p") is None
        cache.put("s", "p", "r")
        assert cache.get("s", "p") == "r"
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "writes": 1,
            "corrupt": 0,
            "entries": 1,
        }

    def test_entries_survive_a_new_instance(self, cache):
        cache.put("s", "p", "r")
        again = ResponseCache(cache.directory)
        assert again.get("s", "p") == "r"

    def test_unparseable_entry_is_corrupt_miss(self, cache):
        cache.put("s", "p", "r")
        path = os.path.join(
            cache.directory, f"{canonical_key('s', 'p')}.json"
        )
        with open(path, "w") as handle:
            handle.write("{torn")
        assert cache.get("s", "p") is None
        assert cache.corrupt == 1

    def test_mismatched_entry_is_refused(self, cache):
        """A stored pair that does not match the request never serves."""
        cache.put("s", "p", "r")
        path = os.path.join(
            cache.directory, f"{canonical_key('s', 'p')}.json"
        )
        with open(path) as handle:
            entry = json.load(handle)
        entry["prompt"] = "something else"
        with open(path, "w") as handle:
            json.dump(entry, handle)
        assert cache.get("s", "p") is None
        assert cache.corrupt == 1

    def test_non_string_response_is_refused(self, cache):
        path = os.path.join(
            cache.directory, f"{canonical_key('s', 'p')}.json"
        )
        with open(path, "w") as handle:
            json.dump(
                {"schema": 1, "system": "s", "prompt": "p", "response": 7},
                handle,
            )
        assert cache.get("s", "p") is None
        assert cache.corrupt == 1

    def test_overwrite_heals_a_corrupt_entry(self, cache):
        path = os.path.join(
            cache.directory, f"{canonical_key('s', 'p')}.json"
        )
        with open(path, "w") as handle:
            handle.write("garbage")
        assert cache.get("s", "p") is None
        cache.put("s", "p", "good")
        assert cache.get("s", "p") == "good"

    def test_no_temp_files_left_behind(self, cache):
        cache.put("s", "p", "r")
        assert not [
            name
            for name in os.listdir(cache.directory)
            if name.endswith(".tmp")
        ]


class TestPurityGating:
    def test_opt_in_default_is_unsafe(self):
        class Unknown:
            def complete(self, system, prompt):
                return "x"

        assert cache_safe_of(Unknown()) is False

    def test_simulated_is_safe_faulty_is_not(self):
        simulated = SimulatedLLM()
        assert cache_safe_of(simulated) is True
        assert cache_safe_of(FaultyLLM(simulated, error_rate=0.5)) is False

    def test_wrappers_delegate(self):
        pure = DedupClient(TranscribingClient(SimulatedLLM()))
        impure = DedupClient(
            TranscribingClient(FaultyLLM(SimulatedLLM(), error_rate=0.5))
        )
        assert cache_safe_of(pure) is True
        assert cache_safe_of(impure) is False

    def test_cached_client_delegates(self, cache):
        assert cache_safe_of(CachedClient(CountingLLM(), cache)) is True
        assert cache_safe_of(CachedClient(ImpureLLM(), cache)) is False


class TestCachedClient:
    def test_second_call_is_served_from_disk(self, cache):
        upstream = CountingLLM()
        client = CachedClient(upstream, cache)
        assert client.complete("s", "p") == "RESPONSE"
        assert client.complete("s", "p") == "RESPONSE"
        assert upstream.calls == 1
        assert cache.hits == 1

    def test_cache_shared_across_processes_via_directory(self, cache):
        CachedClient(CountingLLM(), cache).complete("s", "p")
        upstream = CountingLLM("OTHER")
        fresh = CachedClient(upstream, ResponseCache(cache.directory))
        assert fresh.complete("s", "p") == "RESPONSE"
        assert upstream.calls == 0

    def test_impure_chain_bypasses_entirely(self, cache):
        upstream = ImpureLLM()
        client = CachedClient(upstream, cache)
        client.complete("s", "p")
        client.complete("s", "p")
        assert upstream.calls == 2
        assert client.bypassed == 2
        assert len(cache) == 0

    def test_faulty_output_is_never_memoized(self, cache):
        """The ISSUE's corruption-refusal invariant, end to end."""
        client = CachedClient(
            FaultyLLM(SimulatedLLM(), error_rate=1.0, seed=7), cache
        )
        system = "TASK: route-map-synth\nWrite one stanza."
        client.complete(
            system,
            "Write a route-map stanza that permits routes with "
            "local-preference 300.",
        )
        assert len(cache) == 0
        assert client.stats()["bypassed"] == 1

    def test_upstream_error_leaves_cache_untouched(self, cache):
        class Exploding:
            cache_safe = True

            def complete(self, system, prompt):
                raise RuntimeError("boom")

        client = CachedClient(Exploding(), cache)
        with pytest.raises(RuntimeError):
            client.complete("s", "p")
        assert len(cache) == 0
        assert cache.writes == 0

    def test_deadline_abort_leaves_cache_untouched(self, cache):
        """A deadline-aborted attempt must not write a partial entry."""
        now = [0.0]
        budget = TimeBudget(1.0, clock=lambda: now[0])

        class DeadlineBound:
            cache_safe = True

            def complete(self, system, prompt):
                now[0] = 2.0
                budget.check("test")
                return "never"

        client = CachedClient(DeadlineBound(), cache)
        with budget_scope(budget):
            with pytest.raises(DeadlineExceeded):
                client.complete("s", "p")
        assert len(cache) == 0
        assert cache.writes == 0
        # A later successful call still populates the cache normally.
        assert CachedClient(CountingLLM(), cache).complete("s", "p") == (
            "RESPONSE"
        )
        assert len(cache) == 1

    def test_corrupt_entry_falls_through_to_upstream(self, cache):
        upstream = CountingLLM()
        client = CachedClient(upstream, cache)
        client.complete("s", "p")
        path = os.path.join(
            cache.directory, f"{canonical_key('s', 'p')}.json"
        )
        with open(path, "w") as handle:
            handle.write("garbage")
        assert client.complete("s", "p") == "RESPONSE"
        assert upstream.calls == 2
        assert cache.corrupt == 1
        # ... and the retry healed the entry.
        assert cache.get("s", "p") == "RESPONSE"

    def test_layering_under_dedup(self, cache):
        """DedupClient(CachedClient(...)) — the serving stack's order."""
        upstream = CountingLLM()
        stack = DedupClient(CachedClient(upstream, cache))
        stack.complete("s", "p")
        stack.complete("s", "p")
        assert upstream.calls == 1
        assert stack.upstream_calls == 2  # dedup forwarded both; disk served one
