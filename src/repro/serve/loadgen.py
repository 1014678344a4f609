"""A deterministic load generator for the Clarify service.

``clarify loadgen`` drives :class:`~repro.serve.service.ClarifyService`
with a seeded, reproducible campaign: a mix of **campus** sessions
(route-map policy edits against a walkthrough-style BGP config) and
**cloud** sessions (ACL rule additions against an edge filter), each
issuing several intents drawn from templates the simulated LLM's intent
grammar (:mod:`repro.llm.intents`) understands.  The parameter spaces
are deliberately small so distinct sessions collide on identical
intents — exercising the :class:`~repro.llm.dedup.DedupClient`
in-flight coalescing path under real concurrency.

Everything about the workload is a pure function of ``seed``, which is
what makes the differential checks meaningful: run the same campaign
in several configurations (one worker and N workers, uncached and
cached, telemetry off and on, sharded and killed-and-restored),
fingerprint the schedule-independent outcome fields, and the
fingerprints must match byte for byte (:func:`run_checks`).

With ``fault_rate > 0`` the upstream LLM is wrapped in a
:class:`~repro.llm.faulty.FaultyLLM` chaos layer.  Fault placement then
depends on global call order, so outcomes are no longer
schedule-independent — the chaos gate instead asserts *liveness and
containment*: every request resolves, no session wedges, and no
``internal-error`` outcomes occur.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro import obs
from repro.core.disambiguator import DisambiguationMode
from repro.llm.client import LLMClient
from repro.llm.dedup import DedupClient
from repro.llm.faulty import FaultyLLM
from repro.llm.respcache import CachedClient, ResponseCache, cache_safe_of
from repro.llm.router import BackendRouter, build_backend
from repro.obs import slo as slo_mod
from repro.obs import telemetry as tele
from repro.obs.metrics import Histogram
from repro.serve.service import (
    AdmissionError,
    ClarifyService,
    ServeRequest,
    ServeResponse,
    Ticket,
)
from repro.serve.session import SessionManager

#: How long a campaign waits on one request's ticket: a wedged request
#: becomes an ``unresolved`` count instead of a hang.
WAIT_TIMEOUT_S = 120.0

#: Campus archetype: the §2 walkthrough configuration (BGP export policy).
CAMPUS_CONFIG = """
ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
ip prefix-list D1 seq 30 permit 1.0.0.0/20 ge 24
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
"""

CAMPUS_TARGET = "ISP_OUT"

#: Cloud archetype: an edge ACL with one existing allow rule.
CLOUD_CONFIG = """
ip access-list extended EDGE_IN
 10 permit tcp host 1.1.1.1 host 2.2.2.2
"""

CLOUD_TARGET = "EDGE_IN"

#: Small parameter spaces → cross-session intent collisions → dedup hits.
_ASNS = (32, 44, 65, 77)
_LOCAL_PREFS = (100, 200, 300)
_MED_PREFIXES = (100, 120, 140)
_ACL_NETS = (3, 5, 7)
_ACL_PORTS = (22, 443, 8080)


def _campus_intents(rng: random.Random, count: int) -> List[str]:
    intents: List[str] = []
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            intents.append(
                "Write a route-map stanza that denies routes originating "
                f"from AS {rng.choice(_ASNS)}."
            )
        elif kind == 1:
            intents.append(
                "Write a route-map stanza that permits routes with "
                f"local-preference {rng.choice(_LOCAL_PREFS)}."
            )
        else:
            octet = rng.choice(_MED_PREFIXES)
            intents.append(
                "Write a route-map stanza that permits routes containing "
                f"the prefix {octet}.0.0.0/16 with mask length less than "
                f"or equal to {rng.randrange(17, 25)} and tagged with the "
                f"community 300:{rng.randrange(1, 4)}. Their MED value "
                f"should be set to {rng.choice((55, 70))}."
            )
    return intents


def _cloud_intents(rng: random.Random, count: int) -> List[str]:
    intents: List[str] = []
    for _ in range(count):
        action = rng.choice(("denies", "permits"))
        net = rng.choice(_ACL_NETS)
        port = rng.choice(_ACL_PORTS)
        intents.append(
            f"Add a rule that {action} tcp traffic from 10.{net}.0.0/16 "
            f"to host 2.2.2.{rng.randrange(2, 6)} on destination port "
            f"{port}."
        )
    return intents


@dataclasses.dataclass(frozen=True)
class SessionSpec:
    """One generated session: its seed config and intent script."""

    session_id: str
    archetype: str
    config_text: str
    target: str
    intents: Tuple[str, ...]


def generate_workload(
    sessions: int, requests_per_session: int = 2, seed: int = 2025
) -> List[SessionSpec]:
    """The campaign is a pure function of ``(sessions, rps, seed)``."""
    if sessions < 1:
        raise ValueError("sessions must be at least 1")
    if requests_per_session < 1:
        raise ValueError("requests_per_session must be at least 1")
    specs: List[SessionSpec] = []
    for index in range(sessions):
        rng = random.Random(f"loadgen:{seed}:{index}")
        archetype = "campus" if rng.random() < 0.5 else "cloud"
        if archetype == "campus":
            intents = _campus_intents(rng, requests_per_session)
            config, target = CAMPUS_CONFIG, CAMPUS_TARGET
        else:
            intents = _cloud_intents(rng, requests_per_session)
            config, target = CLOUD_CONFIG, CLOUD_TARGET
        specs.append(
            SessionSpec(
                session_id=f"{archetype}-{index:03d}",
                archetype=archetype,
                config_text=config,
                target=target,
                intents=tuple(intents),
            )
        )
    return specs


_T = TypeVar("_T")


def submit_round(
    submit: Callable[[ServeRequest], Ticket[_T]],
    workload: Sequence[SessionSpec],
    round_idx: int,
    tickets: List[Ticket[_T]],
    deadline_s: Optional[float] = None,
) -> int:
    """Submit every session's ``round_idx``-th intent, in workload order.

    A rejected submission is retried after its advertised
    ``retry_after_s`` (at most 50 ms) until admitted, so backpressure
    shapes *when* work runs, never *whether*.  Each ticket is appended
    to ``tickets``; returns how many submissions were rejected.
    """
    rejected = 0
    for spec in workload:
        intent = spec.intents[round_idx]
        request = ServeRequest(spec.session_id, intent, spec.target, deadline_s)
        while True:
            try:
                tickets.append(submit(request))
                break
            except AdmissionError as exc:
                rejected += 1
                time.sleep(min(exc.retry_after_s, 0.05))
    return rejected


class _CountingClient:
    """Counts completions that truly reach the backend.

    The dedup/cache layers each report their own savings; this
    innermost wrapper is the ground truth the cache check compares —
    how many calls the real (metered, billed) backend served.
    """

    def __init__(self, inner: LLMClient) -> None:
        self._inner = inner
        self._lock = threading.Lock()
        self.calls = 0

    @property
    def cache_safe(self) -> bool:
        """Delegates to the wrapped backend (counting adds no impurity)."""
        return cache_safe_of(self._inner)

    def complete(self, system: str, prompt: str) -> str:
        """Count, then complete via the wrapped backend."""
        with self._lock:
            self.calls += 1
        return self._inner.complete(system, prompt)


@dataclasses.dataclass
class LLMStack:
    """The layered shared client a campaign (or ``clarify serve``) uses.

    Layering, outermost first (see ``docs/LLM_BACKENDS.md``)::

        DedupClient → CachedClient? → FaultyLLM? → counter
                    → backend (simulated / remote / router)

    ``client`` is what sessions share; the other fields expose each
    layer's counters for the campaign report.
    """

    client: DedupClient
    backend: str
    counting: _CountingClient
    faulty: Optional[FaultyLLM]
    cached: Optional[CachedClient]
    router: Optional[BackendRouter]

    @property
    def upstream_calls(self) -> int:
        """Completions that reached the real backend."""
        return self.counting.calls


def build_llm_stack(
    backend: str = "simulated",
    cache_dir: Optional[str] = None,
    fault_rate: float = 0.0,
    seed: int = 0,
    llm_factory: Optional[Callable[[], LLMClient]] = None,
    **remote_kwargs: Any,
) -> LLMStack:
    """Build the shared client stack from serving-layer knobs.

    ``llm_factory`` (tests) overrides ``backend``.  With a
    ``fault_rate`` the chaos layer sits *inside* the cache layer, which
    therefore bypasses itself (corrupted responses are never memoized —
    see :func:`repro.llm.respcache.cache_safe_of`).  ``remote_kwargs``
    are forwarded to :func:`repro.llm.router.build_backend` for specs
    naming the ``remote`` backend (tests inject fake transports).
    """
    base = (
        llm_factory()
        if llm_factory is not None
        else build_backend(backend, **remote_kwargs)
    )
    router = base if isinstance(base, BackendRouter) else None
    counting = _CountingClient(base)
    upstream: LLMClient = counting
    faulty: Optional[FaultyLLM] = None
    if fault_rate > 0.0:
        faulty = FaultyLLM(upstream, error_rate=fault_rate, seed=seed)
        upstream = faulty
    cached: Optional[CachedClient] = None
    if cache_dir is not None:
        cached = CachedClient(upstream, ResponseCache(cache_dir))
        upstream = cached
    return LLMStack(
        client=DedupClient(upstream),
        backend=backend if llm_factory is None else "custom",
        counting=counting,
        faulty=faulty,
        cached=cached,
        router=router,
    )


@dataclasses.dataclass
class LoadgenReport:
    """What one campaign did, with the identity fingerprint."""

    sessions: int
    requests: int
    workers: int
    seed: int
    fault_rate: float
    wall_s: float
    throughput_rps: float
    outcomes: Dict[str, int]
    latency_quantiles: Dict[str, float]
    queue_wait_quantiles: Dict[str, float]
    fingerprint: str
    rejected_submissions: int
    dedup: Dict[str, int]
    injected_faults: int
    counters: Dict[str, float]
    unresolved: int
    backend: str = "simulated"
    #: Completions that truly reached the backend (the billed calls).
    upstream_llm_calls: int = 0
    cache: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Network-wide quality axis (``--netwide``): gate checks run, gate
    #: warnings raised, and the ``netwide.*`` analyzer counters.
    netwide: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Telemetry axis: wide-event count, the SLO burn-rate report, and
    #: whether every tracked LLM-tier counter resolved to a trace.
    telemetry: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """The report as a JSON-serialisable dict."""
        return dataclasses.asdict(self)


def _quantiles(histogram: Histogram) -> Dict[str, float]:
    return {
        "p50": histogram.quantile(0.5) or 0.0,
        "p95": histogram.quantile(0.95) or 0.0,
        "p99": histogram.quantile(0.99) or 0.0,
        "max": float(histogram.max),
    }


def _fingerprint(keys: List[Dict[str, Any]]) -> str:
    canonical = json.dumps(
        sorted(keys, key=lambda k: (k["session"], k["seq"])),
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _trace_coverage(
    recorder: obs.Recorder, events: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Do the run's LLM-tier counters all resolve to a wide event?

    Compares the recorder's global ``llm.*`` totals against the sum of
    the same counters across every wide event.  A shortfall means some
    deltas were emitted with no trace active (e.g. on a background flush
    thread) — reported per counter so the gap is debuggable.
    """
    attributed: Dict[str, float] = {}
    for event in events:
        for name, value in event.get("counters", {}).items():
            attributed[name] = attributed.get(name, 0) + value
    missing: Dict[str, float] = {}
    for name, total in recorder.counters.items():
        if not name.startswith("llm."):
            continue
        shortfall = total - attributed.get(name, 0)
        if shortfall > 0:
            missing[name] = shortfall
    return {
        "complete": not missing,
        "missing": dict(sorted(missing.items())),
    }


def run_loadgen(
    sessions: int = 16,
    requests_per_session: int = 2,
    workers: int = 4,
    seed: int = 2025,
    fault_rate: float = 0.0,
    deadline_s: Optional[float] = None,
    high_water: int = 64,
    max_attempts: int = 3,
    llm_factory: Optional[Callable[[], LLMClient]] = None,
    backend: str = "simulated",
    cache_dir: Optional[str] = None,
    netwide: bool = False,
    telemetry: bool = True,
    event_log: Optional[str] = None,
    slo: Optional[slo_mod.SLOConfig] = None,
) -> LoadgenReport:
    """Run one seeded campaign and aggregate the results.

    Rejected submissions are retried (:func:`submit_round`), which the
    serial-vs-pooled identity check needs.

    ``backend`` is a :func:`repro.llm.router.build_backend` spec and
    ``cache_dir`` enables the durable response cache (see
    :func:`build_llm_stack` for the layering).  ``netwide`` attaches a
    per-session :class:`~repro.lint.netwide.gate.NetwideGate` (each
    session's edits embedded onto the seeded demo topology's EDGE
    router) and adds the network-wide conflict counters to the report —
    the quality axis alongside the throughput/latency ones.

    ``telemetry`` (on by default) installs a
    :class:`~repro.obs.telemetry.TelemetryHub` for the campaign: the
    report gains a ``telemetry`` block (wide-event count, the SLO
    burn-rate evaluation under ``slo`` or the default objectives, and
    the LLM-counter trace-coverage check), and ``event_log`` streams the
    wide events as JSONL.  Trace ids never enter ``outcome_key``, so the
    identity fingerprint is telemetry-invariant.
    """
    workload = generate_workload(sessions, requests_per_session, seed)
    stack = build_llm_stack(
        backend=backend,
        cache_dir=cache_dir,
        fault_rate=fault_rate,
        seed=seed,
        llm_factory=llm_factory,
    )
    shared = stack.client
    faulty = stack.faulty

    netwide_gate_factory = None
    if netwide:
        # Imported lazily: the netwide layer pulls in the BGP simulator,
        # which fault-only or cache-only campaigns never need.
        from repro.lint.netwide import NetwideGate, default_contracts, embed_on_edge

        contracts = default_contracts()
        netwide_gate_factory = lambda: NetwideGate(  # noqa: E731
            embed_on_edge, contracts=contracts
        )

    recorder = obs.Recorder()
    hub: Optional[tele.TelemetryHub] = None
    t_start = time.perf_counter()
    with obs.recording(recorder):
        if telemetry:
            hub = tele.install_hub(tele.TelemetryHub(sink=event_log))
        try:
            manager = SessionManager(
                llm=shared,
                mode=DisambiguationMode.FULL,
                max_attempts=max_attempts,
                netwide_gate_factory=netwide_gate_factory,
            )
            for spec in workload:
                manager.open(spec.session_id, config_text=spec.config_text)
            rejected_submissions = 0
            tickets: List[Ticket[ServeResponse]] = []
            with ClarifyService(
                manager, workers=workers, high_water=high_water
            ) as service:
                # Round-robin across sessions so concurrent requests
                # overlap across many sessions (and dedup sees
                # simultaneous twins).
                for round_idx in range(requests_per_session):
                    rejected_submissions += submit_round(
                        service.submit, workload, round_idx, tickets, deadline_s
                    )
                responses: List[Optional[ServeResponse]] = [
                    t.wait(WAIT_TIMEOUT_S) for t in tickets
                ]
        finally:
            if hub is not None:
                tele.uninstall_hub()
                hub.close()
    wall = time.perf_counter() - t_start

    telemetry_block: Dict[str, Any] = {"enabled": hub is not None}
    if hub is not None:
        slo_report = slo_mod.evaluate(hub.events, slo)
        telemetry_block["wide_events"] = hub.finished
        telemetry_block["slo"] = slo_report.to_dict()
        telemetry_block["trace_coverage"] = _trace_coverage(
            recorder, hub.events
        )

    resolved = [r for r in responses if r is not None]
    unresolved = len(responses) - len(resolved)
    outcomes: Dict[str, int] = {}
    latency = Histogram()
    queue_wait = Histogram()
    for response in resolved:
        outcomes[response.outcome] = outcomes.get(response.outcome, 0) + 1
        latency.observe(response.latency_s)
        queue_wait.observe(response.queue_wait_s)
    return LoadgenReport(
        sessions=sessions,
        requests=len(tickets),
        workers=workers,
        seed=seed,
        fault_rate=fault_rate,
        wall_s=wall,
        throughput_rps=len(resolved) / wall if wall > 0 else 0.0,
        outcomes=dict(sorted(outcomes.items())),
        latency_quantiles=_quantiles(latency),
        queue_wait_quantiles=_quantiles(queue_wait),
        fingerprint=_fingerprint([r.outcome_key() for r in resolved]),
        rejected_submissions=rejected_submissions,
        dedup=shared.stats(),
        injected_faults=faulty.injected_faults if faulty else 0,
        counters={
            name: value
            for name, value in sorted(recorder.counters.items())
            if name.startswith(("serve.", "llm."))
        },
        unresolved=unresolved,
        backend=stack.backend,
        upstream_llm_calls=stack.upstream_calls,
        cache=stack.cached.stats() if stack.cached is not None else {},
        netwide={
            name: value
            for name, value in sorted(recorder.counters.items())
            if name.startswith(("netwide.", "lint.netwide"))
        },
        telemetry=telemetry_block,
    )


# ------------------------------------------------------------- the checks

#: The differential checks :func:`run_checks` knows, in run order.  The
#: cache check goes first: its cold leg may share ``cache_dir`` with
#: the other checks' legs and must run before any of them fills it.
CHECKS = ("cache", "serial", "telemetry", "shard")

#: Telemetry check: interleaved off/on campaign pairs, and the bound on
#: the best telemetry-on p50 over the best telemetry-off p50.
TELEMETRY_PAIRS = 3
TELEMETRY_BOUND = 1.05

#: Shard processes in the shard check's sharded legs.
SHARDS = 2


@dataclasses.dataclass(frozen=True)
class Leg:
    """One configuration of the seeded campaign.

    Equal legs are the same campaign, so :func:`run_checks` runs each
    distinct leg once however many checks name it.  ``repeat`` tells
    apart the runs that must repeat one configuration: the warm-cache
    run and the telemetry timing pairs.  With ``shards`` the campaign
    runs on a :class:`~repro.serve.shard.ShardedCluster` instead, and
    ``chaos`` SIGKILLs one shard mid-campaign and restores it.
    """

    workers: int
    telemetry: bool
    cache_dir: Optional[str] = None
    shards: int = 0
    chaos: bool = False
    repeat: int = 0


@dataclasses.dataclass
class CheckResult:
    """One check's verdict over its named legs."""

    #: Leg name → that leg's report, in plan order; the first leg is
    #: the fingerprint reference.  Sharded legs hold a
    #: :class:`~repro.serve.shard.ShardCampaignReport`.
    legs: Dict[str, Any]
    failures: List[str]
    summary: str

    @property
    def ok(self) -> bool:
        """True when every leg matched the first and the predicate held."""
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        """The check as a JSON-serialisable dict, legs in full."""
        return {
            "ok": self.ok,
            "failures": list(self.failures),
            "summary": self.summary,
            "legs": {name: leg.to_dict() for name, leg in self.legs.items()},
        }


@dataclasses.dataclass
class ChecksRun:
    """What :func:`run_checks` did: the main report and each verdict."""

    #: The base configuration's leg.
    report: LoadgenReport
    checks: Dict[str, CheckResult]
    #: Distinct campaigns run, the base leg included.
    campaigns: int

    @property
    def failures(self) -> List[str]:
        """Every failed check condition, prefixed with its check."""
        return [
            f"check {name}: {failure}"
            for name, result in self.checks.items()
            for failure in result.failures
        ]

    def to_dict(self) -> Dict[str, Any]:
        """The legs block of ``clarify loadgen --output``."""
        return {
            "campaigns": self.campaigns,
            "checks": {
                name: result.to_dict() for name, result in self.checks.items()
            },
        }


def _plan(check: str, base: Leg, cold_dir: str) -> List[Tuple[str, Leg]]:
    """The named legs of one check; the first is the reference."""
    serial = dataclasses.replace(base, workers=1)
    if check == "serial":
        return [("serial", serial), ("pooled", base)]
    if check == "cache":
        cold = dataclasses.replace(base, cache_dir=cold_dir)
        return [
            ("uncached", dataclasses.replace(base, cache_dir=None)),
            ("cold", cold),
            ("warm", dataclasses.replace(cold, repeat=1)),
        ]
    if check == "telemetry":
        return [
            (
                f"{mode}-{index}",
                dataclasses.replace(base, telemetry=on, repeat=index),
            )
            for index in range(TELEMETRY_PAIRS)
            for mode, on in (("off", False), ("on", True))
        ]
    sharded = Leg(base.workers, telemetry=False, shards=SHARDS)
    return [
        ("serial", serial),
        ("pooled", base),
        ("sharded", sharded),
        ("chaos", dataclasses.replace(sharded, chaos=True)),
    ]


def _verdict(check: str, legs: Dict[str, Any]) -> CheckResult:
    """Fingerprint identity against the first leg, then the predicate."""
    (first_name, first), *rest = legs.items()
    failures = [
        f"leg {name!r} fingerprint {leg.fingerprint} != leg {first_name!r} "
        f"fingerprint {first.fingerprint} (outcomes {leg.outcomes} vs "
        f"{first.outcomes})"
        for name, leg in rest
        if leg.fingerprint != first.fingerprint
    ]
    summary = (
        f"{len(failures)} of {len(rest)} legs diverged from {first_name!r}"
        if failures
        else f"{len(legs)} legs identical ({first.fingerprint[:16]}…)"
    )
    if check == "cache":
        uncached, cold, warm = (
            legs[name].upstream_llm_calls
            for name in ("uncached", "cold", "warm")
        )
        summary += (
            f"; upstream calls {uncached} uncached → {cold} cold → "
            f"{warm} warm"
        )
        if not uncached >= cold > warm:
            failures.append(
                "upstream calls must fall uncached >= cold > warm, got "
                f"{uncached} / {cold} / {warm}"
            )
    elif check == "telemetry":
        best = {
            mode: min(
                legs[f"{mode}-{index}"].latency_quantiles["p50"]
                for index in range(TELEMETRY_PAIRS)
            )
            for mode in ("off", "on")
        }
        ratio = best["on"] / best["off"] if best["off"] > 0 else 1.0
        summary += (
            f"; p50 {best['off'] * 1000:.1f}ms off → "
            f"{best['on'] * 1000:.1f}ms on ({ratio:.3f}x, bound "
            f"{TELEMETRY_BOUND:g}x)"
        )
        if ratio > TELEMETRY_BOUND:
            failures.append(
                f"telemetry-on p50 is {ratio:.3f}x the off p50, above the "
                f"{TELEMETRY_BOUND:g}x bound"
            )
    elif check == "shard":
        chaos = legs["chaos"]
        summary += (
            f"; chaos leg restarted {chaos.restarts} shard(s), restored "
            f"{chaos.restored_sessions} session(s)"
        )
        if chaos.restarts < 1 or chaos.restored_sessions < 1:
            failures.append(
                "the chaos leg did not exercise recovery: "
                f"restarts={chaos.restarts} "
                f"restored_sessions={chaos.restored_sessions}"
            )
    return CheckResult(legs=legs, failures=failures, summary=summary)


def run_checks(
    checks: Sequence[str] = (),
    sessions: int = 16,
    requests_per_session: int = 2,
    workers: int = 4,
    seed: int = 2025,
    telemetry: bool = True,
    cache_dir: Optional[str] = None,
    store_root: Optional[str] = None,
    max_attempts: int = 3,
    backend: str = "simulated",
    **kwargs: Any,
) -> ChecksRun:
    """Run the base campaign plus every leg the named ``checks`` need.

    A check is a list of named legs (:class:`Leg`) of one seeded
    campaign.  Every leg's outcome fingerprint must equal the first
    leg's, and one predicate per check covers the rest:

    * ``serial``: one worker vs ``workers``;
    * ``cache``: uncached ≥ cold > warm upstream LLM calls, the cold
      and warm legs sharing ``cache_dir`` (or a fresh scratch one);
    * ``telemetry``: :data:`TELEMETRY_PAIRS` off/on pairs whose best
      p50s are within :data:`TELEMETRY_BOUND` of each other;
    * ``shard``: serial, pooled, :data:`SHARDS`-shard, and sharded with
      one shard SIGKILLed and restored from its journals (stores under
      ``store_root``, or scratch); the chaos leg must restart a shard
      and restore a session.

    The base configuration (``workers``, ``telemetry``, ``cache_dir``)
    is itself a leg, and its report is the run's main report.  A leg
    that already ran in this call runs only once.  Failed checks are
    reported in the result, never raised.  ``kwargs`` go to every
    in-process leg's :func:`run_loadgen`; a chaos rate or a deadline
    (schedule-dependent outcomes) or, for the shard check, a netwide
    gate raises :class:`ValueError` before any campaign runs.
    """
    unknown = sorted(set(checks) - set(CHECKS))
    if unknown:
        raise ValueError(
            f"unknown check(s) {unknown}; known: {', '.join(CHECKS)}"
        )
    schedule_dependent = (
        kwargs.get("fault_rate") or kwargs.get("deadline_s") is not None
    )
    if checks and schedule_dependent:
        raise ValueError(
            "the checks require a fault-free, deadline-free campaign "
            "(fault placement and deadlines are schedule-dependent)"
        )
    if "shard" in checks and kwargs.get("netwide"):
        raise ValueError(
            "the shard check requires a gate-free campaign (shard "
            "processes run the plain serving stack)"
        )
    base = Leg(workers, telemetry, cache_dir)
    reports: Dict[Leg, Any] = {}
    with tempfile.TemporaryDirectory(prefix="clarify-legs-") as scratch:

        def run(leg: Leg) -> Any:
            if leg in reports:
                return reports[leg]
            if leg.shards:
                # Imported here: the shard module imports this one.
                from repro.serve.shard import run_sharded_loadgen

                reports[leg] = run_sharded_loadgen(
                    sessions,
                    requests_per_session,
                    shards=leg.shards,
                    workers_per_shard=leg.workers,
                    seed=seed,
                    store_root=os.path.join(
                        store_root or scratch,
                        "chaos" if leg.chaos else "sharded",
                    ),
                    max_attempts=max_attempts,
                    backend=backend,
                    kill_and_restart=leg.chaos,
                )
            else:
                reports[leg] = run_loadgen(
                    sessions,
                    requests_per_session,
                    workers=leg.workers,
                    seed=seed,
                    telemetry=leg.telemetry,
                    cache_dir=leg.cache_dir,
                    max_attempts=max_attempts,
                    backend=backend,
                    **kwargs,
                )
            return reports[leg]

        cold_dir = cache_dir or os.path.join(scratch, "cache")
        results = {
            check: _verdict(
                check,
                {name: run(leg) for name, leg in _plan(check, base, cold_dir)},
            )
            for check in CHECKS
            if check in checks
        }
        report = run(base)
    return ChecksRun(report=report, checks=results, campaigns=len(reports))


__all__ = [
    "CAMPUS_CONFIG",
    "CAMPUS_TARGET",
    "CHECKS",
    "CLOUD_CONFIG",
    "CLOUD_TARGET",
    "CheckResult",
    "ChecksRun",
    "LLMStack",
    "Leg",
    "LoadgenReport",
    "SHARDS",
    "SessionSpec",
    "TELEMETRY_BOUND",
    "TELEMETRY_PAIRS",
    "WAIT_TIMEOUT_S",
    "build_llm_stack",
    "generate_workload",
    "run_checks",
    "run_loadgen",
    "submit_round",
]
