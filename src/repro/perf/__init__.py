"""``repro.perf`` — the performance layer under the symbolic core.

Two pieces, documented in ``docs/PERFORMANCE.md``:

* :mod:`repro.perf.cache` — bounded, oldest-first memo tables
  (:class:`Memo`) that hash-cons and memoize the interval-set,
  packet-region, and route-region algebras, with ``cache.hits`` /
  ``cache.misses`` observability counters;
* :mod:`repro.perf.campaign` — a process-pool runner that fans the §3
  overlap studies and the §5 evaluation across workers with
  deterministic result ordering and per-worker counter merging.

This package sits *below* the analysis engines in the layering:
``repro.netaddr`` and ``repro.analysis`` import :mod:`repro.perf.cache`,
so this ``__init__`` must stay import-light — it re-exports the cache
primitives only.  Import the campaign runner explicitly
(``from repro.perf import campaign``); it pulls in the overlap and
evaluation layers, which live above this package.
"""

from repro.perf.cache import (
    Memo,
    SingleFlight,
    cache_stats,
    cache_totals,
    clear_caches,
    configure,
    disabled,
    enabled,
    isolated,
    publish_counters,
)

__all__ = [
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
