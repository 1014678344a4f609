"""The benchmark's workloads: seeded op lists, measured passes, output checks.

Every op list is a pure function of ``(workload, seed, seconds)``.  The
corpora come from the seeded generators in :mod:`repro.synth`, and every
draw from them uses a ``random.Random`` keyed on the workload and seed.
Every pass starts from cold :mod:`repro.perf.cache` tables and campaign
``workers``/``chunks`` are pinned, so all runs of one seed do identical
work.  Session policies are drawn per session, stratified by policy
shape, and the edit parameters that set an edit's cost follow from the
session's place in the draw, so every seed does the same mix of work.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import random
import tempfile
import threading
import time
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence, Tuple

from repro.config import render_config
from repro.config.acl import Acl
from repro.config.routemap import RouteMap
from repro.config.store import ConfigStore, copy_route_map_closure
from repro.netaddr import Ipv4Address
from repro.obs import telemetry
from repro.overlap import AclCorpusStats, RouteMapCorpusStats
from repro.perf import cache as perf_cache
from repro.perf import campaign
from repro.perf import pool as perf_pool
from repro.serve import (
    ClarifyService,
    DurableSessionStore,
    ServeRequest,
    SessionManager,
    build_llm_stack,
)
from repro.synth import generate_campus_corpus, generate_cloud_corpus
from repro.synth.campus import (
    TOTAL_ACLS,
    TOTAL_DEVICES,
    TOTAL_ROUTE_MAPS,
    ArchetypeCounts,
)

#: Service worker threads, campaign workers, and campaign chunks per
#: call.  Chunks are pinned because the campaign's default chunk count
#: comes from a timed probe, which would make the work depend on machine
#: speed.
WORKERS = 2
CHUNKS = 2

#: Closed-loop client threads per workload.  The service and the clients
#: share this process's GIL, and a thread woken by a request or a reply
#: may wait up to the interpreter's switch interval (5 ms) to run.  An
#: rm-edit op takes about 0.1 s, so that wait is small, and two clients
#: (one per vCPU of the reference machine) make each latency blend the
#: costs of two sessions' edits, which steadies its percentiles across
#: seeds.  acl-edit and audit ops take 5-10 ms: with two clients the
#: wait is as large as the op, and acl-edit's percentiles spread two to
#: seven times wider between runs paired in time, so they run one
#: client.  The persistent pool also runs one campaign at a time
#: (``PersistentPool.run`` holds its lock), so a second audit client
#: would only queue on it.
RM_CLIENTS = 2
ACL_CLIENTS = 1
AUDIT_CLIENTS = 1

#: The ``--seconds`` value the sizes below are given for; other values
#: scale them linearly (the audit is capped at the full §3.2 corpus).
REFERENCE_SECONDS = 20
RM_SESSIONS, RM_EDITS = 72, 2
ACL_SESSIONS, ACL_EDITS = 340, 3

#: The seed whose outcome fingerprints are pinned, and at which the
#: audit must reproduce ``benchmarks/results.txt``.
DEFAULT_SEED = 1421

#: ``benchmarks/results.txt``, §3.2: ACLs with conflicts, with >20
#: conflicts, with non-trivial conflicts, with >20 non-trivial ones.
CAMPUS_RESULTS = (4180, 1129, 2062, 336)
CAMPUS_OVERLAPPING_ROUTE_MAPS = 2

#: Samples that must rank beyond a reported percentile.
MIN_BEYOND = 10

#: Per-ACL overlap signature of each campus archetype, as
#: ``(conflicts, non-trivial conflicts) -> bool`` (see repro.synth.campus).
_ACL_SIGNATURES: Dict[str, Callable[[int, int], bool]] = {
    "CAMPUS_CLEAN": lambda c, n: c == 0,
    "CAMPUS_SHAD_L": lambda c, n: 1 <= c <= 20 and n == 0,
    "CAMPUS_SHAD_H": lambda c, n: c > 20 and n == 0,
    "CAMPUS_CROSS_L": lambda c, n: 1 <= n == c <= 20,
    "CAMPUS_CROSS_H": lambda c, n: 20 < n == c,
}

#: The only campus route-maps with overlapping stanzas, as
#: ``name -> (overlapping pairs, conflicting pairs)``.
_ROUTE_MAP_OVERLAPS = {
    "CAMPUS_SPECIAL_SINGLE": (1, 0),
    "CAMPUS_SPECIAL_TRIPLE": (3, 2),
}


# ----------------------------------------------------------------- helpers


def percentile(values: Sequence[float], pct: int) -> float:
    """The nearest-rank ``pct``-th percentile of ``values``.

    Raises ``ValueError`` when fewer than ``MIN_BEYOND`` samples rank
    above it: one outlier more or less would then move the reported
    value, so it is refused instead of reported.
    """
    count = len(values)
    rank = max(1, -(-pct * count // 100))
    if count - rank < MIN_BEYOND:
        raise ValueError(
            f"p{pct} of {count} samples has {count - rank} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    return sorted(values)[rank - 1]


def digest(value: Any) -> str:
    """A stable SHA-256 hex digest of a JSON-able value."""
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scaled(count: int, seconds: int) -> int:
    """``count`` (given for REFERENCE_SECONDS) scaled to ``seconds``."""
    return max(1, round(count * seconds / REFERENCE_SECONDS))


def _archetype(policy: Any) -> str:
    """A generated policy's archetype: its name up to the final ``_index``."""
    return str(policy.name.rsplit("_", 1)[0])


def _stratified(
    rng: random.Random, items: Sequence[Any], count: int, key: Callable[[Any], Any]
) -> List[Any]:
    """``count`` of ``items`` without replacement, in stratum order.

    Items are grouped by ``key`` and every group gets its proportional
    share of ``count`` (largest remainders round up).  The shares depend
    only on the group sizes; only the pick within a group depends on
    ``rng``, so every seed draws the same mix of policy shapes.
    """
    if count > len(items):
        raise ValueError(f"cannot draw {count} of {len(items)} policies")
    strata: Dict[Any, List[Any]] = {}
    for item in items:
        strata.setdefault(key(item), []).append(item)
    quota = {name: count * len(group) / len(items) for name, group in strata.items()}
    alloc = {name: int(share) for name, share in quota.items()}
    by_remainder = sorted(strata, key=lambda name: (alloc[name] - quota[name], name))
    for name in by_remainder[: count - sum(alloc.values())]:
        alloc[name] += 1
    return [item for name in sorted(strata) for item in rng.sample(strata[name], alloc[name])]


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# ---------------------------------------------------------------- op lists


@dataclasses.dataclass(frozen=True)
class SessionPlan:
    """One session: its starting configuration and its edit script."""

    session_id: str
    config_text: str
    target: str
    intents: Tuple[str, ...]


_ASNS = (32, 44, 65, 77)
_LOCAL_PREFS = (100, 200, 300)
_MED_PREFIXES = (100, 120, 140)
_ACL_NETS = (3, 5, 7)
_ACL_PORTS = (22, 443, 8080)
_ANY = 0xFFFFFFFF

#: Every sequence of route-map templates and of ACL actions a session can
#: edit with.  Sessions take them in turn in stratum order, so the mix of
#: (policy shape, edit sequence) is the same for every seed.
_TEMPLATE_SEQUENCES = tuple(itertools.product(range(3), repeat=RM_EDITS))
_ACTION_SEQUENCES = tuple(itertools.product(("denies", "permits"), repeat=ACL_EDITS))


def _route_map_intents(rng: random.Random, position: int) -> Tuple[str, ...]:
    """A session's edits, from the three route-map templates ``clarify
    loadgen`` sends.

    What an edit's cost depends on follows from ``position`` alone: the
    template sequence, whether two edits of one template repeat its
    parameter (making the stanzas overlap), and the mask-length bound.
    ``rng`` picks the rest: the AS, local preference, prefix, community
    and MED values.
    """
    kinds = _TEMPLATE_SEQUENCES[position % len(_TEMPLATE_SEQUENCES)]
    repeat = (position // len(_TEMPLATE_SEQUENCES)) % 2 == 0
    chosen: Dict[int, Any] = {}

    def value(kind: int, options: Sequence[Any]) -> Any:
        if kind not in chosen:
            chosen[kind] = rng.choice(options)
        elif not repeat:
            chosen[kind] = rng.choice([o for o in options if o != chosen[kind]])
        return chosen[kind]

    intents = []
    for edit, kind in enumerate(kinds):
        if kind == 0:
            intents.append(
                "Write a route-map stanza that denies routes originating "
                f"from AS {value(0, _ASNS)}."
            )
        elif kind == 1:
            intents.append(
                "Write a route-map stanza that permits routes with "
                f"local-preference {value(1, _LOCAL_PREFS)}."
            )
        else:
            intents.append(
                "Write a route-map stanza that permits routes containing the "
                f"prefix {value(2, _MED_PREFIXES)}.0.0.0/16 with mask length "
                f"less than or equal to {17 + (position + 3 * edit) % 8} and "
                f"tagged with the community 300:{rng.randrange(1, 4)}. Their "
                f"MED value should be set to {rng.choice((55, 70))}."
            )
    return tuple(intents)


def _acl_intents(rng: random.Random, acl: Acl, position: int) -> Tuple[str, ...]:
    """A session's edits, from loadgen's ACL template, each addressed to
    overlap one rule of ``acl``.

    The action sequence and the rule each edit overlaps follow from
    ``position``; ``rng`` picks the source network of a rule with any
    source, the host in the rule's destination block, and the port of a
    rule without one.
    """
    actions = _ACTION_SEQUENCES[position % len(_ACTION_SEQUENCES)]
    intents = []
    for edit, action in enumerate(actions):
        rule = acl.rules[(position + 5 * edit) % len(acl.rules)]
        if rule.src.wildcard.value == _ANY:
            src = f"10.{rng.choice(_ACL_NETS)}.0.0/16"
        else:
            src = str(rule.src.to_prefix())
        if rule.dst.wildcard.value == _ANY:
            host = f"2.2.2.{rng.randrange(2, 6)}"
        else:
            offset = rng.randrange(1, rule.dst.wildcard.value) if rule.dst.wildcard.value > 1 else 0
            host = str(Ipv4Address(rule.dst.address.value + offset))
        if rule.dst_ports.op == "eq":
            port = rule.dst_ports.values[0]
        else:
            port = rng.choice(_ACL_PORTS)
        intents.append(
            f"Add a rule that {action} tcp traffic from {src} to host {host} "
            f"on destination port {port}."
        )
    return tuple(intents)


def _route_map_shape(route_map: RouteMap) -> Tuple[Any, ...]:
    """What a route-map edit's cost depends on: archetype, stanza actions."""
    return (_archetype(route_map),) + tuple(stanza.action for stanza in route_map.stanzas)


def _acl_shape(acl: Acl) -> Tuple[Any, ...]:
    """What an ACL edit's cost depends on: archetype and rule count."""
    return _archetype(acl), len(acl.rules)


def rm_edit_plans(seed: int, seconds: int, corpus: Any) -> List[SessionPlan]:
    """Route-map sessions over §3.1 cloud route-maps, loadgen intents."""
    rng = random.Random(f"perfbench:rm-edit:{seed}")
    route_maps = _stratified(
        rng, corpus.route_maps, scaled(RM_SESSIONS, seconds), _route_map_shape
    )
    sessions = [
        (route_map, _route_map_intents(rng, index))
        for index, route_map in enumerate(route_maps)
    ]
    rng.shuffle(sessions)
    plans = []
    for index, (route_map, intents) in enumerate(sessions):
        store = ConfigStore()
        copy_route_map_closure(corpus.store, store, route_map)
        plans.append(
            SessionPlan(f"rm-{index:03d}", render_config(store), route_map.name, intents)
        )
    return plans


def acl_edit_plans(seed: int, seconds: int, corpus: Any) -> List[SessionPlan]:
    """ACL sessions over §3.2 campus ACLs, mostly-overlapping edits."""
    rng = random.Random(f"perfbench:acl-edit:{seed}")
    acls = _stratified(rng, corpus.acls, scaled(ACL_SESSIONS, seconds), _acl_shape)
    sessions = [(acl, _acl_intents(rng, acl, index)) for index, acl in enumerate(acls)]
    rng.shuffle(sessions)
    plans = []
    for index, (acl, intents) in enumerate(sessions):
        store = ConfigStore()
        store.add_acl(acl)
        plans.append(SessionPlan(f"acl-{index:03d}", render_config(store), acl.name, intents))
    return plans


@dataclasses.dataclass(frozen=True)
class AuditOp:
    """One audit request: a device's ACLs, or every route-map."""

    op_id: str
    acls: Tuple[Acl, ...] = ()
    route_maps: Tuple[RouteMap, ...] = ()


def audit_size(seconds: int) -> Tuple[int, int]:
    """``(ACLs, devices)`` of the audited campus corpus."""
    total_acls = min(TOTAL_ACLS, scaled(TOTAL_ACLS, seconds))
    return total_acls, max(1, round(TOTAL_DEVICES * total_acls / TOTAL_ACLS))


def audit_ops(corpus: Any, device_count: int) -> List[AuditOp]:
    """One op per campus device, then one op over every route-map."""
    ops = [
        AuditOp(device.hostname, acls=tuple(device.store.acls()))
        for device in corpus.devices(device_count)
    ]
    ops.append(AuditOp("route-maps", route_maps=tuple(corpus.route_maps)))
    return ops


# ------------------------------------------------------------------ passes


@dataclasses.dataclass
class Op:
    """One completed op of a pass."""

    op_id: str
    start: float
    end: float
    ok: bool
    key: Dict[str, Any]
    first_question: Optional[float] = None
    queue_wait: float = 0.0

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclasses.dataclass
class PassResult:
    """What one pass over the op list did."""

    ops: List[Op]
    #: Units of work for throughput: edits, or policies audited.
    work: int
    fingerprint: str
    counters: Dict[str, float]
    #: Extra run-level checks (the audit's corpus statistics).
    checks_ok: bool = True

    @property
    def wall(self) -> float:
        return max(op.end for op in self.ops) - min(op.start for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)


AroundOp = Callable[[str], ContextManager[Any]]


def _no_span(op_id: str) -> ContextManager[None]:
    return contextlib.nullcontext()


def _closed_loop(
    items: Sequence[Any],
    clients: int,
    run_item: Callable[[Any], List[Op]],
) -> List[Op]:
    """Run ``items`` from ``clients`` threads, each waiting for its reply."""
    pending = collections.deque(items)
    lock = threading.Lock()
    ops: List[Op] = []
    errors: List[BaseException] = []

    def client() -> None:
        try:
            while True:
                with lock:
                    if not pending:
                        return
                    item = pending.popleft()
                ops.extend(run_item(item))
        except BaseException as exc:  # noqa: BLE001 - re-raised after join
            errors.append(exc)

    threads = [
        threading.Thread(target=client, name=f"perfbench-client-{index}")
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return ops


class FirstQuestionClock:
    """A user oracle that answers like ``FirstOptionOracle`` and records
    when each op's first disambiguation question is asked.

    The op is the request id of the serving trace active when the
    question arrives (the benchmark sets it to the op id)."""

    def __init__(self) -> None:
        self.asked: Dict[str, float] = {}

    def choose(self, question: Any) -> int:
        trace = telemetry.current_trace()
        if trace is not None:
            self.asked.setdefault(trace.request_id, time.perf_counter())
        return 1


class SessionFleet:
    """The in-process sessions one pass edits, opened during set-up."""

    def __init__(
        self, plans: Sequence[SessionPlan], journal_dir: Optional[str], telemetry_on: bool
    ) -> None:
        self.plans = list(plans)
        self.telemetry_on = telemetry_on
        self.clock = FirstQuestionClock()
        store = DurableSessionStore(journal_dir) if journal_dir is not None else None
        self.manager = SessionManager(
            llm=build_llm_stack().client,
            oracle_factory=lambda: self.clock,
            session_store=store,
        )
        for plan in self.plans:
            self.manager.open(plan.session_id, config_text=plan.config_text)

    def close(self) -> None:
        self.manager.close_all()

    def run(self, clients: int, around_op: AroundOp = _no_span) -> PassResult:
        """Send every plan's edits through ``ClarifyService.call``."""
        perf_cache.clear_caches()
        cache_before = perf_cache.cache_totals()
        hub = telemetry.install_hub(telemetry.TelemetryHub()) if self.telemetry_on else None
        try:
            with ClarifyService(self.manager, workers=WORKERS) as service:

                def edit(plan: SessionPlan) -> List[Op]:
                    done = []
                    for seq, intent in enumerate(plan.intents):
                        op_id = f"{plan.session_id}#{seq}"
                        request = ServeRequest(plan.session_id, intent, plan.target, request_id=op_id)
                        with around_op(op_id):
                            start = time.perf_counter()
                            response = service.call(request)
                            end = time.perf_counter()
                        asked = self.clock.asked.get(op_id)
                        done.append(
                            Op(
                                op_id,
                                start,
                                end,
                                ok=edit_ok(response),
                                key=response.outcome_key(),
                                first_question=None if asked is None else asked - start,
                                queue_wait=response.queue_wait_s,
                            )
                        )
                    return done

                ops = _closed_loop(self.plans, clients, edit)
        finally:
            if hub is not None:
                telemetry.uninstall_hub()
                hub.close()
        cache_after = perf_cache.cache_totals()
        keys = sorted((op.key for op in ops), key=lambda k: (k["session"], k["seq"]))
        return PassResult(
            ops=ops,
            work=len(ops),
            fingerprint=digest(keys),
            counters={
                name: cache_after[name] - cache_before[name]
                for name in ("cache.hits", "cache.misses")
            },
        )


def edit_ok(response: Any) -> bool:
    """An edit must apply and ask at most ceil(log2(overlaps + 1))
    questions, the §4 binary-search bound."""
    return response.outcome == "applied" and response.questions <= math.ceil(
        math.log2(len(response.overlaps) + 1)
    )


def acl_reports_ok(reports: Sequence[Any]) -> bool:
    """Every ACL's overlap counts match its campus archetype."""
    return all(
        _ACL_SIGNATURES[_archetype(report)](
            report.conflict_count, report.nontrivial_conflict_count
        )
        for report in reports
    )


def route_map_reports_ok(reports: Sequence[Any]) -> bool:
    """Only the two special campus route-maps overlap, as generated."""
    return all(
        (report.overlap_count, report.conflict_count)
        == _ROUTE_MAP_OVERLAPS.get(report.name, (0, 0))
        for report in reports
    )


class CampusAudit:
    """The §3.2 campus study as a stream of audit ops on the campaign pool."""

    def __init__(self, seed: int, corpus: Any, ops: Sequence[AuditOp], total_acls: int) -> None:
        self.seed = seed
        self.corpus = corpus
        self.ops = list(ops)
        self.total_acls = total_acls

    def run(
        self,
        pool: str = "persistent",
        clients: int = AUDIT_CLIENTS,
        around_op: AroundOp = _no_span,
    ) -> PassResult:
        """Audit every op via the campaign API (``pool="serial"`` runs
        the same chunks in-process)."""
        perf_cache.clear_caches()
        totals: Dict[str, float] = collections.Counter()
        acl_reports: List[Any] = []
        route_map_reports: List[Any] = []
        lock = threading.Lock()

        def audit(op: AuditOp) -> List[Op]:
            with around_op(op.op_id):
                start = time.perf_counter()
                if op.acls:
                    result = campaign.acl_overlap_campaign(
                        op.acls, workers=WORKERS, chunks=CHUNKS, pool=pool
                    )
                else:
                    result = campaign.route_map_overlap_campaign(
                        op.route_maps, self.corpus.store, workers=WORKERS, chunks=CHUNKS, pool=pool
                    )
                end = time.perf_counter()
            reports = result.results
            with lock:
                (acl_reports if op.acls else route_map_reports).extend(reports)
                totals["campaign.chunks"] += result.chunks
                for name in ("cache.hits", "cache.misses"):
                    totals[name] += result.counters.get(name, 0)
            ok = (
                len(reports) == len(op.acls or op.route_maps)
                and (acl_reports_ok if op.acls else route_map_reports_ok)(reports)
            )
            conflicts = any(report.conflict_count for report in reports)
            key = {
                "op": op.op_id,
                "reports": [
                    [report.name, report.overlap_count, report.conflict_count]
                    for report in reports
                ],
            }
            return [Op(op.op_id, start, end, ok, key, first_question=end - start if conflicts else None)]

        ops = _closed_loop(self.ops, clients, audit)
        return PassResult(
            ops=ops,
            work=len(acl_reports) + len(route_map_reports),
            fingerprint=digest(sorted((op.key for op in ops), key=lambda k: k["op"])),
            counters=dict(totals),
            checks_ok=self.stats_ok(acl_reports, route_map_reports),
        )

    def stats_ok(self, acl_reports: Sequence[Any], route_map_reports: Sequence[Any]) -> bool:
        """The corpus statistics match the generator's archetype counts
        and, for the full corpus at the default seed, ``results.txt``."""
        acl = AclCorpusStats.collect(acl_reports)
        rm = RouteMapCorpusStats.collect(route_map_reports)
        counts = ArchetypeCounts.for_total(self.total_acls)
        got = (
            acl.with_conflicts,
            acl.with_many_conflicts,
            acl.with_nontrivial_conflicts,
            acl.with_many_nontrivial_conflicts,
        )
        expected = (
            counts.total - counts.clean,
            counts.shadowed_heavy + counts.crossing_heavy,
            counts.crossing_light + counts.crossing_heavy,
            counts.crossing_heavy,
        )
        ok = (
            acl.total == self.total_acls
            and got == expected
            and (rm.total, rm.with_overlaps) == (TOTAL_ROUTE_MAPS, CAMPUS_OVERLAPPING_ROUTE_MAPS)
        )
        if self.seed == DEFAULT_SEED and self.total_acls == TOTAL_ACLS:
            ok = ok and got == CAMPUS_RESULTS
        return ok


# ---------------------------------------------------------------- workloads


@dataclasses.dataclass
class Prepared:
    """One set-up of a workload: corpus, op list, and what passes run on."""

    op_count: int
    #: Computes the op list's digest (kept out of the timed set-up).
    digest: Callable[[], str]
    corpus_s: float
    run_pass: Callable[..., PassResult]
    close: Callable[[], None]
    #: Closed-loop clients of a pass.
    clients: int
    #: Campaign engine settings echoed in the run's output; empty for
    #: session workloads, whose passes take no ``pool`` argument.
    campaign: str = ""


def prepare_rm_edit(seed: int, seconds: int, scratch: str) -> Prepared:
    """Set up rm-edit: the cloud corpus, the plans, in-memory sessions."""
    started = time.perf_counter()
    corpus = generate_cloud_corpus()
    corpus_s = time.perf_counter() - started
    plans = rm_edit_plans(seed, seconds, corpus)
    return _prepare_sessions(plans, corpus_s, RM_CLIENTS, None, telemetry_on=False)


def prepare_acl_edit(seed: int, seconds: int, scratch: str) -> Prepared:
    """Set up acl-edit: the campus corpus, the plans, durable sessions
    journaled under ``scratch``."""
    started = time.perf_counter()
    corpus = generate_campus_corpus()
    corpus_s = time.perf_counter() - started
    plans = acl_edit_plans(seed, seconds, corpus)
    return _prepare_sessions(plans, corpus_s, ACL_CLIENTS, scratch, telemetry_on=True)


def _prepare_sessions(
    plans: List[SessionPlan],
    corpus_s: float,
    clients: int,
    scratch: Optional[str],
    telemetry_on: bool,
) -> Prepared:
    fleets: List[SessionFleet] = []

    def open_fleet() -> SessionFleet:
        journal_dir = None
        if scratch is not None:
            journal_dir = tempfile.mkdtemp(prefix="journals-", dir=scratch)
        fleets.append(SessionFleet(plans, journal_dir, telemetry_on))
        return fleets[-1]

    first = [open_fleet()]

    def run_pass(clients: int = clients, around_op: AroundOp = _no_span) -> PassResult:
        # Each pass edits freshly opened sessions; the first one was
        # opened during set-up.
        fleet = first.pop() if first else open_fleet()
        return fleet.run(clients=clients, around_op=around_op)

    def close() -> None:
        for fleet in fleets:
            fleet.close()

    return Prepared(
        op_count=sum(len(plan.intents) for plan in plans),
        digest=lambda: digest([dataclasses.astuple(plan) for plan in plans]),
        corpus_s=corpus_s,
        run_pass=run_pass,
        close=close,
        clients=clients,
    )


def prepare_overlap_audit(seed: int, seconds: int, scratch: str) -> Prepared:
    """Set up overlap-audit: the seeded campus corpus, one op per device,
    and a freshly forked campaign pool."""
    total_acls, device_count = audit_size(seconds)
    started = time.perf_counter()
    corpus = generate_campus_corpus(seed=seed, total_acls=total_acls, route_maps=TOTAL_ROUTE_MAPS)
    corpus_s = time.perf_counter() - started
    ops = audit_ops(corpus, device_count)
    # Forked after the corpus exists, as a long-lived audit service would.
    perf_pool.shutdown_shared_pool()
    perf_pool.warm_pool(WORKERS)
    audit = CampusAudit(seed, corpus, ops, total_acls)
    return Prepared(
        op_count=len(ops),
        digest=lambda: digest(
            [[op.op_id, [repr(acl) for acl in op.acls], [repr(rm) for rm in op.route_maps]] for op in ops]
        ),
        corpus_s=corpus_s,
        run_pass=audit.run,
        close=perf_pool.shutdown_shared_pool,
        clients=AUDIT_CLIENTS,
        campaign=f"workers={WORKERS} chunks={CHUNKS}",
    )


WORKLOADS: Dict[str, Callable[[int, int, str], Prepared]] = {
    "rm-edit": prepare_rm_edit,
    "acl-edit": prepare_acl_edit,
    "overlap-audit": prepare_overlap_audit,
}
