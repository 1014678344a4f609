"""A persistent on-disk LLM response cache with purity gating.

The serving layer's :class:`~repro.llm.dedup.DedupClient` only coalesces
requests that are in flight *simultaneously*; on the realistic loadgen
mix that is next to nothing (the uncached leg of
``benchmarks/BENCH_serve.json``: 384 requests, 384 upstream calls, none
coalesced) because identical prompts arrive seconds apart.  This
module adds the durable layer underneath it:

* a :class:`ResponseCache` stores one completion per *canonical prompt
  hash* — the SHA-256 of the canonical JSON of ``(system, prompt)`` —
  as one small JSON file, written atomically (temp file +
  ``os.replace``) so a crashed writer can never leave a torn entry;
* a :class:`CachedClient` wraps any :class:`~repro.llm.client.LLMClient`
  and memoizes **only verified-pure responses**: a response is stored
  if and only if :func:`cache_safe_of` proves the wrapped client chain
  is cache-safe.  A :class:`~repro.llm.faulty.FaultyLLM` anywhere in the
  chain makes it unsafe (memoizing a corrupted response would pin the
  corruption forever and defeat the verification retry loop), so chaos
  campaigns bypass the cache entirely.

Reads *re-verify* every entry: a cache file whose stored ``system`` /
``prompt`` do not match the request (hash collision, manual tampering,
torn write that somehow parsed) is treated as a miss and counted on
``llm.cache.corrupt`` — the cache refuses to serve anything it cannot
prove belongs to the request.

Failure discipline: the cache is only ever written *after* the upstream
returned successfully.  An attempt aborted by a deadline
(:class:`~repro.core.errors.DeadlineExceeded`) or any backend error
leaves the cache untouched.

Layering (see ``docs/LLM_BACKENDS.md``)::

    DedupClient( CachedClient( FaultyLLM?( backend ) ) )

so in-flight twins still collapse first, completed responses persist
across requests *and processes*, and purity gating sits exactly where
the fault injector would poison it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, Optional

from repro import obs
from repro.llm.client import LLMClient

#: Schema tag stored in every cache entry.
CACHE_SCHEMA = 1


def cache_safe_of(client: object) -> bool:
    """True when ``client`` declares its responses safe to memoize.

    Purity is *opt-in*: a client (or wrapper) advertises it with a
    ``cache_safe`` attribute — ``True`` on
    :class:`~repro.llm.simulated.SimulatedLLM` (deterministic) and
    :class:`~repro.llm.remote.RemoteLLMClient` (a stored reply is a
    genuine upstream reply), ``False`` on
    :class:`~repro.llm.faulty.FaultyLLM` (memoizing would pin injected
    corruption), and a delegating property on wrappers.  Anything that
    does not declare itself is treated as unsafe — an unknown client
    costs cache hits, never correctness.
    """
    return bool(getattr(client, "cache_safe", False))


def canonical_key(system: str, prompt: str) -> str:
    """The canonical prompt hash: SHA-256 over canonical-JSON of the pair."""
    canonical = json.dumps(
        {"prompt": prompt, "system": system},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResponseCache:
    """One completion per canonical prompt hash, durable on disk.

    Counters (``hits`` / ``misses`` / ``writes`` / ``corrupt``) are plain
    attributes mirrored to ``llm.cache.*`` obs counters; they are
    per-instance, while the *entries* are shared by every instance (and
    every process) pointed at the same directory.  The obs counters fire
    on the calling thread, so with a serving-tier trace active
    (:mod:`repro.obs.telemetry`) each request's wide event carries its
    own cache disposition (``hit`` / ``miss`` / ``bypass``), derived
    from these deltas.
    """

    def __init__(self, directory: str) -> None:
        """Create (if needed) and use ``directory`` for cache entries."""
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, system: str, prompt: str) -> Optional[str]:
        """The stored response, or None on miss/corruption.

        An unreadable, unparseable, or mismatched entry (stored
        ``system``/``prompt`` differ from the request) counts as corrupt
        and is refused — the caller falls through to the upstream, and a
        later successful completion overwrites the bad entry.
        """
        path = self._path(canonical_key(system, prompt))
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            obs.count("llm.cache.misses")
            return None
        except (OSError, ValueError):
            self.corrupt += 1
            self.misses += 1
            obs.count("llm.cache.corrupt")
            obs.count("llm.cache.misses")
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("system") != system
            or entry.get("prompt") != prompt
            or not isinstance(entry.get("response"), str)
        ):
            self.corrupt += 1
            self.misses += 1
            obs.count("llm.cache.corrupt")
            obs.count("llm.cache.misses")
            return None
        self.hits += 1
        obs.count("llm.cache.hits")
        return entry["response"]

    def put(self, system: str, prompt: str, response: str) -> None:
        """Store ``response`` atomically (temp file + ``os.replace``)."""
        path = self._path(canonical_key(system, prompt))
        entry = {
            "schema": CACHE_SCHEMA,
            "system": system,
            "prompt": prompt,
            "response": response,
        }
        fd, tmp_path = tempfile.mkstemp(
            dir=self.directory, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True, ensure_ascii=False)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:  # pragma: no cover - already replaced/removed
                pass
            raise
        self.writes += 1
        obs.count("llm.cache.writes")

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        return sum(
            1
            for name in os.listdir(self.directory)
            if name.endswith(".json")
        )

    def stats(self) -> Dict[str, int]:
        """A snapshot of the per-instance counters plus the entry count."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "entries": len(self),
        }


class CachedClient:
    """Durable memoization over a cache-safe :class:`LLMClient`.

    When the wrapped chain is *not* cache-safe (see
    :func:`cache_safe_of`) every call passes straight through and is
    counted on ``bypassed`` / ``llm.cache.bypass`` — the cache never
    stores, and never serves, an unverified-purity response.
    """

    def __init__(self, inner: LLMClient, cache: ResponseCache) -> None:
        """Wrap ``inner``; purity is resolved once, at construction."""
        self._inner = inner
        self.cache = cache
        self._pure = cache_safe_of(inner)
        #: Calls that skipped the cache because the chain is impure.
        self.bypassed = 0

    @property
    def cache_safe(self) -> bool:
        """Delegates to the wrapped chain (memoizing never adds impurity)."""
        return self._pure

    def complete(self, system: str, prompt: str) -> str:
        """Serve from the cache, or complete upstream and memoize.

        Nothing is written unless the upstream call returns: a deadline
        abort or backend error propagates with the cache untouched.
        """
        if not self._pure:
            self.bypassed += 1
            obs.count("llm.cache.bypass")
            return self._inner.complete(system, prompt)
        cached = self.cache.get(system, prompt)
        if cached is not None:
            return cached
        response = self._inner.complete(system, prompt)
        self.cache.put(system, prompt, response)
        return response

    def stats(self) -> Dict[str, int]:
        """Cache counters plus this wrapper's bypass count."""
        report = self.cache.stats()
        report["bypassed"] = self.bypassed
        return report


__all__ = [
    "CACHE_SCHEMA",
    "CachedClient",
    "ResponseCache",
    "cache_safe_of",
    "canonical_key",
]
