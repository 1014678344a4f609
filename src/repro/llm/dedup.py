"""LLM request deduplication: one upstream call per in-flight request.

When many Clarify sessions run concurrently (:mod:`repro.serve`), bursts
of identical requests are common — the synthetic loadgen mixes a small
set of intent archetypes, and real fleets of operators issue the same
"deny this prefix" update against many devices.  :class:`DedupClient`
wraps any :class:`~repro.llm.client.LLMClient` and coalesces identical
``(system, prompt)`` requests that are *in flight at the same time* into
a single upstream call whose response is fanned out to every waiter,
using :class:`repro.perf.cache.SingleFlight`.

Coalescing in-flight calls is always semantics-preserving for a
deterministic upstream (every waiter receives exactly the bytes the
upstream would have returned it), which is what keeps the serving
layer's serial-vs-pooled differential identity intact.  Completed
responses are never reused here: with
:class:`~repro.llm.faulty.FaultyLLM` underneath that would pin a
corrupted response forever.  Reuse across calls is the durable response
cache's job (:class:`~repro.llm.respcache.CachedClient`), which stores
only verified-pure responses.

Counters (exposed as attributes and, when a recorder is active, as
``llm.dedup.*`` obs counters):

* ``requests`` — calls into this client;
* ``upstream_calls`` — calls that reached the inner client;
* ``coalesced`` — calls served by another thread's in-flight call.

Every request either reaches upstream or is coalesced, so
``upstream_calls + coalesced == requests`` holds exactly, whatever the
thread timing; how a run splits between the two depends on it.

Trace attribution contract (:mod:`repro.obs.telemetry`): the obs
counters are deliberately emitted on specific threads — ``requests`` on
the *calling* thread (so every request's wide event counts its own
call) and ``upstream`` inside the single-flight leader's closure (so
only the request that actually paid for the upstream call records it).
The hub derives each request's dedup disposition (``leader`` vs
``follower``) from exactly this split; keep the emission sites if you
refactor.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

from repro import obs
from repro.llm.client import LLMClient
from repro.perf.cache import SingleFlight


class DedupClient:
    """Thread-safe wrapper deduplicating identical in-flight LLM calls."""

    def __init__(self, inner: LLMClient) -> None:
        self._inner = inner
        self._flight: SingleFlight = SingleFlight("llm.dedup")
        self._counter_lock = threading.Lock()
        self.requests = 0
        self.upstream_calls = 0

    @property
    def coalesced(self) -> int:
        """Calls that were fanned out from another thread's upstream call."""
        return self._flight.followers

    @property
    def cache_safe(self) -> bool:
        """Delegates to the wrapped client (coalescing adds no impurity)."""
        from repro.llm.respcache import cache_safe_of

        return cache_safe_of(self._inner)

    def complete(self, system: str, prompt: str) -> str:
        """Complete via the inner client, coalescing in-flight twins."""
        key: Tuple[str, str] = (system, prompt)
        with self._counter_lock:
            self.requests += 1
        obs.count("llm.dedup.requests")

        def upstream() -> str:
            with self._counter_lock:
                self.upstream_calls += 1
            obs.count("llm.dedup.upstream")
            return self._inner.complete(system, prompt)

        return self._flight.do(key, upstream)

    def stats(self) -> Dict[str, int]:
        """A snapshot of the deduplication counters."""
        return {
            "requests": self.requests,
            "upstream_calls": self.upstream_calls,
            "coalesced": self.coalesced,
        }


__all__ = ["DedupClient"]
