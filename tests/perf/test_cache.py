"""Unit tests for the memoization primitives.

The layer's contract: tables only ever change *speed*.  These tests pin
the mechanics that make that true — oldest-first bounds, hit/miss
accounting, clear-preserves-totals, and the ``disabled``/``isolated``
contexts the differential tests and the campaign runner are built on —
and that :class:`~repro.perf.cache.Memo` is the only memo mechanism
under ``src/repro``.
"""

import ast
import pathlib

import pytest

from repro import obs
from repro.perf import cache

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


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

    def test_oldest_first_eviction(self, scratch_tables):
        memo = scratch_tables(cache.Memo, "t.evict", max_size=2)
        calls = []

        def lookup(key):
            return memo.lookup(key, lambda: calls.append(key) or key.upper())

        lookup("a")
        lookup("b")
        assert lookup("a") == "A"  # a hit does not refresh "a"
        lookup("c")  # evicts "a", the oldest insertion
        assert len(memo) == 2
        assert calls == ["a", "b", "c"]
        lookup("a")
        assert calls[-1] == "a", "evicted key must recompute"
        lookup("c")
        assert len(calls) == 4, "the newest key was evicted"

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
    """A :class:`cache.Memo` whose value is its own result interns.

    That is how ``intervals.sets``, ``headerspace.regions`` and
    ``routespace.regions`` hash-cons.  Values are built with
    ``tuple([...])``: that defeats CPython's per-code-object constant
    folding, which would otherwise make two equal literals one object
    already.
    """

    @staticmethod
    def intern(memo, value):
        return memo.lookup(value, lambda: value)

    def test_equal_values_collapse_to_one_object(self, scratch_tables):
        memo = scratch_tables(cache.Memo, "t.intern")
        first = self.intern(memo, tuple([1, 2, 3]))
        second = self.intern(memo, tuple([1, 2, 3]))
        assert second is first
        assert (memo.hits, memo.misses) == (1, 1)

    def test_eviction_starts_a_new_equivalence_class(self, scratch_tables):
        memo = scratch_tables(cache.Memo, "t.iEvict", max_size=1)
        first = self.intern(memo, tuple([1]))
        self.intern(memo, tuple([2]))  # evicts (1,)
        again = self.intern(memo, tuple([1]))
        assert again is not first and again == first

    def test_disabled_returns_value_unchanged(self, scratch_tables):
        memo = scratch_tables(cache.Memo, "t.iOff")
        self.intern(memo, tuple([1, 2]))
        with cache.disabled():
            value = tuple([1, 2])
            assert self.intern(memo, value) is value
        assert (memo.hits, memo.misses) == (0, 1)


class TestOneMechanism:
    def test_src_has_no_functools_caches(self):
        """Every memo goes through :class:`cache.Memo`.

        A ``functools`` cache is invisible to ``clear_caches``,
        ``isolated``, ``disabled`` and the ``cache.*`` counters, and
        an unbounded one grows for the life of a server.
        """
        banned = {"lru_cache", "cache"}
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and node.module == "functools":
                    names = {alias.name for alias in node.names}
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "functools"
                ):
                    names = {node.attr}
                else:
                    continue
                for name in sorted(names & banned):
                    rel = path.relative_to(SRC.parent)
                    offenders.append(f"{rel}:{node.lineno}: functools.{name}")
        assert not offenders, offenders


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
