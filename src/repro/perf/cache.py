"""Memoization and hash-consing for the symbolic core.

The analysis engines (:mod:`repro.analysis.headerspace`,
:mod:`repro.analysis.routespace`, :mod:`repro.netaddr.intervals`) spend
almost all of their time re-deriving the same small algebraic facts:
the §3 overlap study intersects the same interned interval sets hundreds
of thousands of times, and first-match reachability re-tests emptiness
of regions it has already carved.  One mechanism serves them all: a
:class:`Memo` is a bounded table, evicting oldest-first, for the results
of one pure operation keyed by its (interned) operands.  A memo whose
key is also its result *hash-conses*: structurally equal values
collapse to one canonical object, so equality checks hit the ``is``
fast path and memo-table keys hash once.

Every memo is registered in a process-wide registry so the whole cache
layer can be cleared (:func:`clear_caches`), inspected
(:func:`cache_stats`), isolated (:func:`isolated`) or bypassed
(:func:`disabled`, used by the differential tests that pin the memoized
engines to the original semantics).  Hit/miss totals are kept as plain
integers — cheap enough for the innermost loops — and published to the
active :mod:`repro.obs` recorder on demand as ``cache.hits`` /
``cache.misses`` counters (:func:`publish_counters`).

Correctness never depends on cache *content*: every table stores results
of pure functions over immutable values, so eviction, clearing, or
disabling only changes speed.  The tables are intentionally lock-free;
concurrent use can at worst lose an entry (or a hit/miss count), never
corrupt a result.  The one fully-locked primitive is
:class:`SingleFlight`, which coalesces concurrent computations of the
same key into a single call — a *correctness* property for impure or
metered upstreams (the serving layer's LLM deduplication builds on it,
see :class:`repro.llm.dedup.DedupClient`).
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
    cast,
)

V = TypeVar("V")

#: Default bound for one memo table; small entries, so this is a few MB.
DEFAULT_MEMO_SIZE = 1 << 16

#: Sentinel distinguishing "cached None" from "not cached".
_MISSING = object()

_enabled: bool = True


class Memo:
    """A bounded table for the results of one pure operation.

    ``lookup(key, compute)`` is the only entry point the engines use: it
    returns the cached value, or calls ``compute()`` and caches the
    result.  ``None`` results are cached too (witness extraction returns
    ``None`` for empty regions).  Past ``max_size`` entries the oldest
    insertion is evicted; a hit does not reorder.  When the cache layer
    is disabled the table is bypassed entirely and nothing is counted.

    ``lookup(value, lambda: value)`` interns ``value``: equal values come
    back as one canonical object.  Eviction is safe there too: an
    evicted value merely loses its canonical status, and a later lookup
    of an equal value starts a new equivalence class.
    """

    def __init__(self, name: str, max_size: int = DEFAULT_MEMO_SIZE) -> None:
        self.name = name
        self.max_size = max_size
        self.hits = 0
        self.misses = 0
        self._table: "OrderedDict[Hashable, object]" = OrderedDict()
        _REGISTRY.append(self)

    def lookup(self, key: Hashable, compute: Callable[[], V]) -> V:
        if not _enabled:
            return compute()
        table = self._table
        value = table.get(key, _MISSING)
        if value is not _MISSING:
            self.hits += 1
            return value  # type: ignore[return-value]
        self.misses += 1
        result = compute()
        table[key] = result
        if len(table) > self.max_size:
            try:
                table.popitem(last=False)
            except KeyError:  # pragma: no cover - concurrent eviction
                pass
        return result

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        """Drop every entry; hit/miss totals are preserved."""
        self._table.clear()


class _InFlight:
    """One computation in progress: waiters block on ``done``."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: object = None
        self.error: Optional[BaseException] = None


class SingleFlight:
    """Coalesce concurrent computations of the same key into one call.

    ``do(key, compute)`` guarantees that at any moment at most one thread
    is running ``compute()`` for a given key: the first caller (the
    *leader*) computes; callers arriving while that computation is in
    flight (*followers*) block and receive the leader's result — or its
    exception — when it lands.  Once a computation completes the key
    leaves the in-flight table, so single-flight alone is **not** a
    cache; pair it with a :class:`Memo` when completed results should be
    reused (see :class:`repro.llm.dedup.DedupClient`).

    Unlike :class:`Memo` this class is fully locked —
    it exists to uphold a *correctness* property (one upstream call per
    in-flight key), not to trade speed for memory — and it is therefore
    deliberately independent of :func:`configure`/:func:`disabled`:
    bypassing it would change how many upstream calls happen, which an
    impure upstream (a metered API, a fault injector) can observe.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        #: Computations actually run (one per coalesced group).
        self.leaders = 0
        #: Calls served by another thread's in-flight computation.
        self.followers = 0
        self._lock = threading.Lock()
        self._inflight: Dict[Hashable, _InFlight] = {}

    def do(self, key: Hashable, compute: Callable[[], V]) -> V:
        """Return ``compute()`` for ``key``, coalescing concurrent calls."""
        with self._lock:
            call = self._inflight.get(key)
            if call is None:
                call = _InFlight()
                self._inflight[key] = call
                leader = True
                self.leaders += 1
            else:
                leader = False
                self.followers += 1
        if leader:
            try:
                call.result = compute()
            except BaseException as exc:
                call.error = exc
                raise
            finally:
                with self._lock:
                    self._inflight.pop(key, None)
                call.done.set()
        else:
            call.done.wait()
            if call.error is not None:
                raise call.error
        return cast(V, call.result)

    def in_flight(self) -> int:
        """Number of keys currently being computed."""
        with self._lock:
            return len(self._inflight)


_REGISTRY: List[Memo] = []


def enabled() -> bool:
    """True when the memo tables are active (the default)."""
    return _enabled


def configure(enabled: bool) -> None:
    """Globally enable or disable the whole cache layer."""
    global _enabled
    _enabled = enabled


@contextlib.contextmanager
def disabled() -> Iterator[None]:
    """Bypass every cache for the extent of the block.

    The differential tests run the engines once normally and once under
    this context to prove the memoized results match the directly
    computed ones.  Tables are cleared on entry *and* exit so no state
    leaks across the boundary in either direction.
    """
    global _enabled
    previous = _enabled
    clear_caches()
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous
        clear_caches()


@contextlib.contextmanager
def isolated() -> Iterator[None]:
    """Run a block from cold caches, invisible to the enclosing process.

    On entry every table's entries are swapped out for an empty table (a
    cold start, as in a freshly forked worker process); on exit the
    block's entries are dropped, the caller's come back and every
    hit/miss total is restored to its entry value.  The campaign
    runner's serial fallback uses this to stay byte-identical — results
    *and* counters, the chunk's and the caller's — to a process-pool
    run, whose worker-side tables and totals never reach the parent.
    """
    snapshot: List[Tuple[Memo, int, int, Any]] = [
        (table, table.hits, table.misses, table._table) for table in _REGISTRY
    ]
    known = {id(table) for table in _REGISTRY}
    for table in _REGISTRY:
        cold: OrderedDict[Hashable, Any] = OrderedDict()
        table._table = cold
    try:
        yield
    finally:
        for table, hits, misses, entries in snapshot:
            table.hits = hits
            table.misses = misses
            table._table = entries
        for table in _REGISTRY:
            if id(table) not in known:
                table.hits = 0
                table.misses = 0
                table.clear()


def clear_caches() -> None:
    """Empty every registered memo table.

    This is the only "invalidation" the layer needs: all cached values
    are results of pure functions, so clearing affects memory and speed,
    never semantics.  The campaign runner clears at the start of every
    chunk so per-chunk cache behaviour (and therefore the ``cache.*``
    counters) is deterministic regardless of worker scheduling.
    """
    for table in _REGISTRY:
        table.clear()


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Per-table statistics: hits, misses, and current size."""
    return {
        table.name: {
            "hits": table.hits,
            "misses": table.misses,
            "size": len(table),
        }
        for table in _REGISTRY
    }


def cache_totals() -> Dict[str, int]:
    """Aggregate and per-table counter values in ``cache.*`` obs naming."""
    totals: Dict[str, int] = {"cache.hits": 0, "cache.misses": 0}
    for table in _REGISTRY:
        totals["cache.hits"] += table.hits
        totals["cache.misses"] += table.misses
        totals[f"cache.hits.{table.name}"] = table.hits
        totals[f"cache.misses.{table.name}"] = table.misses
    return totals


def publish_counters(since: Dict[str, int]) -> Dict[str, int]:
    """Record cache-counter growth since ``since`` on the active recorder.

    ``since`` is an earlier :func:`cache_totals` snapshot (pass ``{}``
    for "since process start").  The delta for every counter that moved
    is published via :func:`repro.obs.count` — a no-op unless a recorder
    is installed — and returned.  Counting locally and publishing once
    keeps the innermost memo loops free of per-operation obs calls.
    """
    from repro import obs

    deltas: Dict[str, int] = {}
    for name, value in sorted(cache_totals().items()):
        delta = value - since.get(name, 0)
        if delta:
            deltas[name] = delta
            obs.count(name, delta)
    return deltas


__all__ = [
    "DEFAULT_MEMO_SIZE",
    "Memo",
    "SingleFlight",
    "cache_stats",
    "cache_totals",
    "clear_caches",
    "configure",
    "disabled",
    "enabled",
    "isolated",
    "publish_counters",
]
