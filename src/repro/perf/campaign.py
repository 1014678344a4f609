"""Parallel analysis campaigns with deterministic results and counters.

The §3 overlap studies classify every rule pair of ~11k ACLs and every
stanza pair of hundreds of route-maps — embarrassingly parallel work.
This module fans such a campaign across a process pool while keeping
the output *indistinguishable from a serial run*:

* the payload list is pre-partitioned into **contiguous chunks** whose
  boundaries depend only on the payload count and the chunk count, never
  on scheduling, and results are reassembled in chunk order;
* every chunk starts from **cold cache tables** (the per-chunk
  :func:`repro.perf.cache.isolated` scope) and records into a **fresh**
  :class:`repro.obs.Recorder`, so the per-chunk counters — including the
  ``cache.*`` hit/miss counters — are a pure function of the chunk's
  payloads;
* the per-chunk counters are merged by summation in sorted name order
  and published to the caller's active recorder once;
* each payload carries what its task reads — a route-map payload
  carries the map and the lists it matches on, a path payload the
  devices on the path — so what a chunk ships to a worker never grows
  with the rest of the caller's configuration.

Parallel chunks run on the **persistent pool**
(:mod:`repro.perf.pool`): workers forked once from the warm parent and
reused across campaign calls, so repeat campaigns stop paying process
start-up and cold imports.  Only per-chunk *mutable* state (memo-table
entries, hit/miss tallies) is cleared between chunks; the fork-inherited
module graph and its hash-consed module-level constants stay
warm.  The ``pool`` argument picks the engine:

``auto`` (default)
    persistent pool when the host has >1 CPU and ``fork`` exists;
    otherwise in-process (on a single core, serial *is* the optimum).
``persistent``
    the persistent pool whenever ``fork`` exists (the identity tests
    force this to exercise real worker processes even on one core);
    in-process otherwise.
``serial``
    in-process, single logical worker.

When ``chunks`` is not pinned and the persistent pool is in play, a
tiny **calibration pass** times the first few payloads (as real chunk
0) and sizes the remaining chunks toward a per-chunk wall-time target,
instead of the old ``chunks == workers`` rule.  Pin *both* ``workers``
and ``chunks`` when counters must be reproducible across machines, as
the benchmark suite does.

The serial fallback (``workers=1``, or a pool that cannot start) runs
the *identical* chunk function in-process, so a serial campaign produces
byte-identical results and counters to a parallel one — the property the
differential tests in ``tests/perf`` pin down.

Unlike :mod:`repro.perf.cache`, this module sits *above* the analysis
layers (it imports the overlap detectors), which is why it is not
re-exported from ``repro.perf``'s ``__init__``; import it explicitly::

    from repro.perf import campaign

    reports = campaign.acl_overlap_campaign(corpus.acls, workers=4).results
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro.config.store import ConfigStore, copy_route_map_closure
from repro.obs import telemetry
from repro.obs.telemetry import TraceContext
from repro.overlap.chains import chain_overlap_report
from repro.overlap.detector import acl_overlap_report, route_map_overlap_report
from repro.perf import cache as _perf
from repro.perf import pool as _pool

Number = Union[int, float]

#: A task implementation: ``fn(payload) -> picklable result``.
TaskFn = Callable[[Any], Any]


# ------------------------------------------------------------- task kinds


def _acl_overlap_task(payload: Any) -> Any:
    return acl_overlap_report(payload)


def _route_map_overlap_task(payload: Any) -> Any:
    route_map, closure = payload
    return route_map_overlap_report(route_map, closure)


def _chain_overlap_task(payload: Any) -> Any:
    names, closure = payload
    chain = [closure.route_map(name) for name in names]
    return chain_overlap_report(chain, closure)


def _figure3_task(payload: Any) -> Any:
    # Imported lazily: the evaluation pulls in the LLM and BGP layers,
    # which overlap campaigns never need.  The full Figure3Result holds
    # closures (the intent oracles), so workers reduce it to the
    # picklable facts the §5 evaluation reports.
    from repro.evalcase import build_figure3, figure4_rows

    result = build_figure3()
    return (tuple(figure4_rows(result.stats)), dict(result.policy_results))


def _netwide_path_task(payload: Any) -> Any:
    # Imported lazily: the network-wide checks pull in the lint and BGP
    # layers, which overlap campaigns never need.
    from repro.lint.netwide.checks import analyze_path

    path, devices = payload
    return analyze_path(path, devices)


_TASKS: Dict[str, TaskFn] = {
    "acl-overlap": _acl_overlap_task,
    "route-map-overlap": _route_map_overlap_task,
    "chain-overlap": _chain_overlap_task,
    "figure3-eval": _figure3_task,
    "netwide-path": _netwide_path_task,
}


def task_kinds() -> Tuple[str, ...]:
    """The registered campaign task kinds, sorted."""
    return tuple(sorted(_TASKS))


# ---------------------------------------------------------------- chunking


def _chunk_bounds(count: int, chunk_count: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal ``[lo, hi)`` bounds covering ``range(count)``.

    Depends only on the two counts, so the partition — and therefore the
    per-chunk cache behaviour — is identical however the chunks are later
    scheduled onto workers.  When ``chunk_count > count`` (including
    single-item and empty campaigns) the surplus chunks would be empty;
    they are dropped rather than emitted, so no worker is ever handed an
    empty chunk and no chunk idles a worker.
    """
    if count <= 0:
        return []
    effective = max(1, min(chunk_count, count))
    base, extra = divmod(count, effective)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for index in range(effective):
        size = base + (1 if index < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _run_chunk(
    kind: str,
    payloads: Sequence[Any],
    trace: Optional[TraceContext] = None,
) -> Tuple[List[Any], Dict[str, Number]]:
    """Run one chunk from a clean slate; returns (results, counters).

    Runs in a worker process (or in-process for the serial fallback —
    the code path is deliberately the same).  Caches are cleared first
    and a private recorder in this thread's scope captures the chunk's
    counters (other threads keep counting into the process recorder),
    so the return value is a pure function of ``(kind, payloads)``.

    ``trace`` is the originating request's
    :class:`~repro.obs.telemetry.TraceContext`, set in the worker's scope
    so anything trace-aware a task touches (a remote LLM call stamping
    its trace header, a journal event) still correlates back to the
    request that launched the campaign.
    """
    fn = _TASKS[kind]
    recorder = obs.Recorder(capture_spans=False)
    with obs.scope(trace=trace, recorder=recorder), _perf.isolated():
        before = _perf.cache_totals()
        results = [fn(payload) for payload in payloads]
        _perf.publish_counters(before)
    return results, dict(recorder.counters)


# ---------------------------------------------------------------- running


@dataclasses.dataclass(frozen=True)
class CampaignResult:
    """The outcome of one campaign run.

    ``results`` is in payload order regardless of scheduling, and
    ``counters`` is the chunk-summed metric set (already published to
    the recorder that was active when the campaign ran).
    """

    results: Tuple[Any, ...]
    counters: Dict[str, Number]
    workers: int
    chunks: int


def default_workers() -> int:
    """The worker count used when none is requested: the CPU count."""
    return os.cpu_count() or 1


#: Valid ``pool=`` engine names.
POOL_MODES = ("auto", "persistent", "serial")

#: Calibration pass: time this many leading payloads as real chunk 0...
_PROBE_ITEMS = 4

#: ...then size the remaining chunks toward this much wall time each.
_TARGET_CHUNK_SECONDS = 0.05

#: Upper bound on calibrated chunks, per worker (keeps per-chunk
#: pickle/IPC overhead amortized even when items are microseconds).
_MAX_CHUNKS_PER_WORKER = 16


def resolve_pool_mode(pool: Optional[str] = None) -> str:
    """The campaign engine: the ``pool`` argument, else ``auto``."""
    mode = pool or "auto"
    if mode not in POOL_MODES:
        raise ValueError(
            f"unknown pool mode {mode!r}; known: {', '.join(POOL_MODES)}"
        )
    return mode


def _choose_engine(mode: str, worker_count: int) -> str:
    """Pick the execution engine (``inline`` or ``persistent``)."""
    if mode == "serial" or worker_count == 1 or not _pool.fork_available():
        return "inline"
    if mode == "persistent":
        return "persistent"
    # auto: real processes only help with real parallel hardware.
    return "persistent" if (os.cpu_count() or 1) > 1 else "inline"


def _calibrated_rest_chunks(
    rest_count: int, probe_seconds: float, worker_count: int
) -> int:
    """How many chunks to cut the post-probe payloads into."""
    per_item = max(probe_seconds, 1e-9) / _PROBE_ITEMS
    per_chunk = max(1, round(_TARGET_CHUNK_SECONDS / per_item))
    wanted = math.ceil(rest_count / per_chunk)
    wanted = max(wanted, worker_count)
    wanted = min(wanted, worker_count * _MAX_CHUNKS_PER_WORKER, rest_count)
    return max(1, wanted)


def _run_persistent(
    kind: str,
    items: List[Any],
    trace: Optional[TraceContext],
    worker_count: int,
    chunks: Optional[int],
) -> Tuple[List[Tuple[List[Any], Dict[str, Number]]], List[List[Any]]]:
    """Run on the shared persistent pool; returns (outcomes, chunk payloads).

    With ``chunks`` pinned the partition is the usual pure function of
    the counts.  Without it, the first :data:`_PROBE_ITEMS` payloads run
    as a timed probe chunk and the measured per-item cost sizes the rest.
    Raises :class:`repro.perf.pool.PoolBrokenError` /
    :class:`~repro.perf.pool.PoolTaskError` for the caller's fallback.
    """
    shared = _pool.get_shared_pool(worker_count)
    cache_on = _perf.enabled()
    if chunks is not None or len(items) <= _PROBE_ITEMS:
        chunk_count = max(1, min(chunks or worker_count, len(items) or 1))
        chunk_payloads = [
            items[lo:hi] for lo, hi in _chunk_bounds(len(items), chunk_count)
        ]
        outcomes = shared.run(kind, chunk_payloads, trace, cache_on)
        return outcomes, chunk_payloads
    probe = items[:_PROBE_ITEMS]
    started = time.perf_counter()
    outcomes = shared.run(kind, [probe], trace, cache_on)
    probe_seconds = time.perf_counter() - started
    rest = items[_PROBE_ITEMS:]
    rest_chunk_count = _calibrated_rest_chunks(
        len(rest), probe_seconds, worker_count
    )
    rest_chunks = [
        rest[lo:hi] for lo, hi in _chunk_bounds(len(rest), rest_chunk_count)
    ]
    outcomes = outcomes + shared.run(kind, rest_chunks, trace, cache_on)
    return outcomes, [probe] + rest_chunks


def run_campaign(
    kind: str,
    payloads: Iterable[Any],
    workers: Optional[int] = None,
    chunks: Optional[int] = None,
    pool: Optional[str] = None,
) -> CampaignResult:
    """Fan ``payloads`` of one task ``kind`` across the campaign pool.

    Each payload is everything its task reads.  ``workers`` defaults to
    the CPU count; ``workers=1`` forces the serial in-process fallback.
    ``chunks`` defaults to a calibrated partition on the persistent pool
    (worker count elsewhere) — fix *both* when counters must be
    reproducible across machines, as the benchmark suite does.  ``pool``
    picks the engine (see the module docstring); it defaults to
    ``auto``.
    """
    if kind not in _TASKS:
        raise ValueError(
            f"unknown campaign kind {kind!r}; known: {', '.join(task_kinds())}"
        )
    mode = resolve_pool_mode(pool)
    items = list(payloads)
    worker_count = workers if workers is not None else default_workers()
    worker_count = max(1, min(worker_count, len(items) or 1))
    if mode == "serial":
        worker_count = 1
    engine = _choose_engine(mode, worker_count)

    trace = telemetry.current_trace()
    outcomes: Optional[List[Tuple[List[Any], Dict[str, Number]]]] = None
    chunk_payloads: Optional[List[List[Any]]] = None
    republish_trace: Optional[TraceContext] = None

    if engine == "persistent":
        try:
            outcomes, chunk_payloads = _run_persistent(
                kind, items, trace, worker_count, chunks
            )
            # Pool workers accumulated into private recorders in other
            # processes; the re-publish below is the hub's only sight
            # of them, so it must carry the trace.
            republish_trace = trace
        except (_pool.PoolBrokenError, _pool.PoolTaskError):
            # Chunk outcomes are pure functions of their payloads, so an
            # in-process rerun is byte-identical — and a deterministic
            # task error re-raises as its real exception type here.
            outcomes = None

    if outcomes is None or chunk_payloads is None:
        chunk_count = max(1, min(chunks or worker_count, len(items) or 1))
        chunk_payloads = [
            items[lo:hi] for lo, hi in _chunk_bounds(len(items), chunk_count)
        ]
        outcomes = [_run_chunk(kind, chunk, trace) for chunk in chunk_payloads]
        # In-process chunks already ran under the trace, so the hub saw
        # every delta as it happened; re-publishing below must therefore
        # stay trace-free or wide events would double-count.
        republish_trace = None

    results: List[Any] = []
    merged: Dict[str, Number] = {}
    for chunk_results, counters in outcomes:
        results.extend(chunk_results)
        for name, value in counters.items():
            merged[name] = merged.get(name, 0) + value
    with obs.scope(trace=republish_trace):
        for name in sorted(merged):
            obs.count(name, merged[name])
    return CampaignResult(
        tuple(results), merged, worker_count, len(chunk_payloads)
    )


# ------------------------------------------------------------ conveniences


def _closure(store: ConfigStore, route_maps: Iterable[Any]) -> ConfigStore:
    """A store of ``route_maps`` and the lists they match on, from ``store``."""
    closure = ConfigStore()
    for route_map in route_maps:
        if not closure.has_route_map(route_map.name):
            copy_route_map_closure(store, closure, route_map)
    return closure


def acl_overlap_campaign(
    acls: Sequence[Any],
    workers: Optional[int] = None,
    chunks: Optional[int] = None,
    pool: Optional[str] = None,
) -> CampaignResult:
    """:func:`repro.overlap.detector.acl_overlap_report` over many ACLs."""
    return run_campaign(
        "acl-overlap", acls, workers=workers, chunks=chunks, pool=pool
    )


def route_map_overlap_campaign(
    route_maps: Sequence[Any],
    store: Any,
    workers: Optional[int] = None,
    chunks: Optional[int] = None,
    pool: Optional[str] = None,
) -> CampaignResult:
    """:func:`repro.overlap.detector.route_map_overlap_report` over many maps.

    Each payload is a map and its closure in ``store``.
    """
    return run_campaign(
        "route-map-overlap",
        ((rm, _closure(store, [rm])) for rm in route_maps),
        workers=workers,
        chunks=chunks,
        pool=pool,
    )


def chain_overlap_campaign(
    chains: Sequence[Sequence[str]],
    store: Any,
    workers: Optional[int] = None,
    chunks: Optional[int] = None,
    pool: Optional[str] = None,
) -> CampaignResult:
    """:func:`repro.overlap.chains.chain_overlap_report` over neighbor chains.

    Each payload is a chain's map names and their closure in ``store``.
    """
    return run_campaign(
        "chain-overlap",
        (
            (tuple(chain), _closure(store, map(store.route_map, chain)))
            for chain in chains
        ),
        workers=workers,
        chunks=chunks,
        pool=pool,
    )


def campus_overlap_study(
    workers: Optional[int] = None,
    chunks: Optional[int] = None,
    seed: int = 1421,
    total_acls: Optional[int] = None,
    route_maps: Optional[int] = None,
    pool: Optional[str] = None,
) -> Tuple[Any, Any, Any, int]:
    """The §3.2 campus study as a campaign.

    Returns ``(acl_stats, rm_stats, triple_report, device_count)`` —
    the same tuple the serial benchmark derives — where ``triple_report``
    is the CAMPUS_SPECIAL_TRIPLE route-map's overlap report.
    """
    from repro.overlap import AclCorpusStats, RouteMapCorpusStats
    from repro.synth import generate_campus_corpus

    kwargs: Dict[str, int] = {"seed": seed}
    if total_acls is not None:
        kwargs["total_acls"] = total_acls
    if route_maps is not None:
        kwargs["route_maps"] = route_maps
    corpus = generate_campus_corpus(**kwargs)
    acl_result = acl_overlap_campaign(
        corpus.acls, workers=workers, chunks=chunks, pool=pool
    )
    rm_result = route_map_overlap_campaign(
        corpus.route_maps, corpus.store, workers=workers, chunks=chunks,
        pool=pool,
    )
    acl_stats = AclCorpusStats.collect(acl_result.results)
    rm_stats = RouteMapCorpusStats.collect(rm_result.results)
    # Heavily scaled-down corpora (CLI --scale) may drop the special
    # route-map entirely; its report is None then.
    triple = next(
        (
            report
            for report in rm_result.results
            if report.name == "CAMPUS_SPECIAL_TRIPLE"
        ),
        None,
    )
    return acl_stats, rm_stats, triple, len(corpus.devices())


def cloud_overlap_study(
    workers: Optional[int] = None,
    chunks: Optional[int] = None,
    seed: int = 2025,
    scale: float = 1.0,
    pool: Optional[str] = None,
) -> Tuple[Any, Any, Tuple[int, int, int]]:
    """The §3.1 cloud-WAN study as a campaign.

    Returns ``(acl_stats, rm_stats, (chains, chains_with_overlaps,
    cross_map_pairs))`` — the same tuple the serial benchmark derives.
    """
    from repro.overlap import AclCorpusStats, RouteMapCorpusStats
    from repro.synth import generate_cloud_corpus

    corpus = generate_cloud_corpus(seed=seed, scale=scale)
    acl_result = acl_overlap_campaign(
        corpus.acls, workers=workers, chunks=chunks, pool=pool
    )
    rm_result = route_map_overlap_campaign(
        corpus.route_maps, corpus.store, workers=workers, chunks=chunks,
        pool=pool,
    )
    chain_result = chain_overlap_campaign(
        corpus.neighbor_chains, corpus.store, workers=workers, chunks=chunks,
        pool=pool,
    )
    acl_stats = AclCorpusStats.collect(acl_result.results)
    rm_stats = RouteMapCorpusStats.collect(rm_result.results)
    chains_with_overlaps = sum(
        1 for report in chain_result.results if report.has_overlap()
    )
    cross_map_pairs = sum(
        report.overlap_count for report in chain_result.results
    )
    return (
        acl_stats,
        rm_stats,
        (len(corpus.neighbor_chains), chains_with_overlaps, cross_map_pairs),
    )


def netwide_path_campaign(
    paths: Sequence[Any],
    devices: Sequence[Any],
    workers: Optional[int] = None,
    chunks: Optional[int] = None,
    pool: Optional[str] = None,
) -> CampaignResult:
    """:func:`repro.lint.netwide.checks.analyze_path` over many paths.

    Each result is the path's diagnostic tuple, in path order — the
    same tuples a serial loop over :func:`analyze_path` produces.  Each
    payload carries the devices whose filters the path crosses.
    """
    by_name = {device.hostname: device for device in devices}
    return run_campaign(
        "netwide-path",
        (
            (path, {pf.device: by_name[pf.device] for pf in path.filters})
            for path in paths
        ),
        workers=workers,
        chunks=chunks,
        pool=pool,
    )


def evaluation_campaign(
    runs: int = 1,
    workers: Optional[int] = None,
    chunks: Optional[int] = None,
    pool: Optional[str] = None,
) -> CampaignResult:
    """Run the §5 Figure 3 evaluation ``runs`` times across workers.

    Each result is ``(figure4_rows, policy_results)``; the evaluation is
    deterministic, so every run must agree — the campaign differential
    test asserts exactly that.
    """
    return run_campaign(
        "figure3-eval",
        list(range(runs)),
        workers=workers,
        chunks=chunks,
        pool=pool,
    )


__all__ = [
    "CampaignResult",
    "POOL_MODES",
    "acl_overlap_campaign",
    "campus_overlap_study",
    "chain_overlap_campaign",
    "cloud_overlap_study",
    "default_workers",
    "evaluation_campaign",
    "netwide_path_campaign",
    "resolve_pool_mode",
    "route_map_overlap_campaign",
    "run_campaign",
    "task_kinds",
]
