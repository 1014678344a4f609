"""Unit tests for the hash-consing/memoization primitives.

The layer's contract: tables only ever change *speed*.  These tests pin
the mechanics that make that true — LRU bounds, hit/miss accounting,
clear-preserves-totals, and the ``disabled``/``isolated`` contexts the
differential tests and the campaign runner are built on.
"""

import pytest

from repro import obs
from repro.perf import cache


@pytest.fixture
def scratch_tables():
    """Create throwaway tables and deregister them afterwards."""
    created = []

    def make(kind, *args, **kwargs):
        table = kind(*args, **kwargs)
        created.append(table)
        return table

    yield make
    for table in created:
        cache._REGISTRY.remove(table)


class TestMemo:
    def test_miss_then_hit(self, scratch_tables):
        memo = scratch_tables(cache.Memo, "t.memo")
        calls = []
        compute = lambda: calls.append(1) or "value"  # noqa: E731
        assert memo.lookup("k", compute) == "value"
        assert memo.lookup("k", compute) == "value"
        assert len(calls) == 1
        assert (memo.hits, memo.misses) == (1, 1)

    def test_none_results_are_cached(self, scratch_tables):
        memo = scratch_tables(cache.Memo, "t.none")
        calls = []
        assert memo.lookup("k", lambda: calls.append(1)) is None
        assert memo.lookup("k", lambda: calls.append(1)) is None
        assert len(calls) == 1

    def test_lru_eviction_order(self, scratch_tables):
        memo = scratch_tables(cache.Memo, "t.lru", max_size=2)
        memo.lookup("a", lambda: 1)
        memo.lookup("b", lambda: 2)
        memo.lookup("a", lambda: 1)  # refresh "a": "b" is now oldest
        memo.lookup("c", lambda: 3)  # evicts "b"
        assert len(memo) == 2
        calls = []
        memo.lookup("b", lambda: calls.append(1) or 2)
        assert calls, "evicted key must recompute"
        memo.lookup("a", lambda: calls.append(2))
        assert len(calls) == 2, "refreshed key was evicted"

    def test_clear_preserves_totals(self, scratch_tables):
        memo = scratch_tables(cache.Memo, "t.clear")
        memo.lookup("k", lambda: 1)
        memo.lookup("k", lambda: 1)
        memo.clear()
        assert len(memo) == 0
        assert (memo.hits, memo.misses) == (1, 1)

    def test_disabled_bypasses_and_counts_nothing(self, scratch_tables):
        memo = scratch_tables(cache.Memo, "t.off")
        calls = []
        with cache.disabled():
            assert not cache.enabled()
            memo.lookup("k", lambda: calls.append(1) or "v")
            memo.lookup("k", lambda: calls.append(1) or "v")
        assert cache.enabled()
        assert len(calls) == 2
        assert (memo.hits, memo.misses) == (0, 0)
        assert len(memo) == 0  # cleared on exit


class TestInterner:
    def test_equal_values_collapse_to_one_object(self, scratch_tables):
        interner = scratch_tables(cache.Interner, "t.intern")
        first = interner.intern(tuple([1, 2, 3]))
        second = interner.intern(tuple([1, 2, 3]))
        assert second is first
        assert (interner.hits, interner.misses) == (1, 1)

    def test_eviction_starts_a_new_equivalence_class(self, scratch_tables):
        interner = scratch_tables(cache.Interner, "t.evict", max_size=1)
        # tuple([...]) defeats CPython's per-code-object constant folding,
        # which would otherwise make the two literals one object already.
        first = interner.intern(tuple([1]))
        interner.intern(tuple([2]))  # evicts (1,)
        again = interner.intern(tuple([1]))
        assert again is not first and again == first

    def test_disabled_returns_value_unchanged(self, scratch_tables):
        interner = scratch_tables(cache.Interner, "t.iOff")
        with cache.disabled():
            value = (1, 2)
            assert interner.intern(value) is value
        assert (interner.hits, interner.misses) == (0, 0)


class TestRegistryAndCounters:
    def test_stats_and_totals_naming(self, scratch_tables):
        memo = scratch_tables(cache.Memo, "t.stats")
        memo.lookup("k", lambda: 1)
        memo.lookup("k", lambda: 1)
        stats = cache.cache_stats()["t.stats"]
        assert stats == {"hits": 1, "misses": 1, "size": 1}
        totals = cache.cache_totals()
        assert totals["cache.hits.t.stats"] == 1
        assert totals["cache.misses.t.stats"] == 1
        assert totals["cache.hits"] >= 1
        assert totals["cache.misses"] >= 1

    def test_publish_counters_records_deltas_once(self, scratch_tables):
        memo = scratch_tables(cache.Memo, "t.pub")
        before = cache.cache_totals()
        memo.lookup("k", lambda: 1)
        memo.lookup("k", lambda: 1)
        recorder = obs.Recorder(capture_spans=False)
        with obs.recording(recorder):
            deltas = cache.publish_counters(before)
        assert deltas["cache.hits.t.pub"] == 1
        assert deltas["cache.misses.t.pub"] == 1
        assert recorder.counter("cache.hits.t.pub") == 1
        assert recorder.counter("cache.misses.t.pub") == 1
        # Nothing moved since: publishing again is a no-op.
        assert cache.publish_counters(cache.cache_totals()) == {}


class TestIsolated:
    def test_restores_totals_and_clears_tables(self, scratch_tables):
        memo = scratch_tables(cache.Memo, "t.iso")
        memo.lookup("warm", lambda: 1)
        before = (memo.hits, memo.misses)
        with cache.isolated():
            assert len(memo) == 0, "isolated starts cold"
            memo.lookup("a", lambda: 1)
            memo.lookup("a", lambda: 1)
            assert memo.hits == before[0] + 1
        assert (memo.hits, memo.misses) == before
        # The block's entry is gone and the caller's warm one is back.
        assert len(memo) == 1
        memo.lookup("warm", lambda: pytest.fail("caller's entry was lost"))

    def test_tables_created_inside_are_zeroed(self, scratch_tables):
        with cache.isolated():
            inner = scratch_tables(cache.Memo, "t.isoNew")
            inner.lookup("a", lambda: 1)
            inner.lookup("a", lambda: 1)
        assert (inner.hits, inner.misses) == (0, 0)

    def test_restores_on_error(self, scratch_tables):
        memo = scratch_tables(cache.Memo, "t.isoErr")
        memo.lookup("warm", lambda: 1)
        with pytest.raises(RuntimeError):
            with cache.isolated():
                memo.lookup("x", lambda: 2)
                raise RuntimeError("boom")
        assert (memo.hits, memo.misses) == (0, 1)
        assert len(memo) == 1
        memo.lookup("warm", lambda: pytest.fail("caller's entry was lost"))
