"""``repro.serve`` — concurrent multi-session Clarify serving.

The paper's Clarify loop is one user talking to one session; the
north-star system serves fleets of operators concurrently.  This package
is that serving layer (architecture in ``docs/SERVING.md``):

* :class:`~repro.serve.session.SessionManager` — owns per-session state
  (configuration store, oracle, optional journal) keyed by session id,
  with the per-session locks/FIFO ordering that make
  :class:`~repro.core.workflow.ClarifySession` safe to drive from many
  threads;
* :class:`~repro.serve.service.ClarifyService` — runs each request on
  the thread that asks for it (``call``) or on one started for it
  (``submit``), at most ``workers`` at once, with admission control
  (reject-with-retry-after past the high-water mark) and per-request
  time budgets (:class:`~repro.core.budget.TimeBudget`);
* :mod:`~repro.serve.loadgen` — a deterministic seeded workload generator
  (campus/cloud intent mix, optional :class:`~repro.llm.faulty.FaultyLLM`
  chaos rate) reporting throughput, latency quantiles, and per-outcome
  counters to ``benchmarks/BENCH_serve.json``;
* :mod:`~repro.serve.store` — pluggable session durability: an
  in-memory store and a :class:`~repro.serve.store.DurableSessionStore`
  (fsynced per-session journals plus a manifest) whose snapshots rebuild
  live sessions bit-exactly by deterministic journal replay;
* :mod:`~repro.serve.shard` — horizontal scale-out: a consistent-hash
  ring (:class:`~repro.serve.shard.HashRing`) placing sessions onto N
  shard serve processes behind a thin router with per-shard and global
  admission high-water marks, plus first-class crash recovery
  (SIGKILL a shard, restart with ``--restore``, replay its journals).

The layer's core invariant: a serial run (one worker) and a pooled run
of the same seeded workload produce **identical per-session outcomes** —
concurrency changes latency, never results.  ``clarify loadgen --check
serial`` asserts this end to end, and ``--check shard`` extends it
across process boundaries and a mid-campaign shard kill
(:func:`~repro.serve.loadgen.run_checks`); CI runs both on every push.
"""

from repro.serve.loadgen import (
    CheckResult,
    ChecksRun,
    LLMStack,
    LoadgenReport,
    SessionSpec,
    build_llm_stack,
    generate_workload,
    run_checks,
    run_loadgen,
)
from repro.serve.service import (
    AdmissionError,
    ClarifyService,
    ServeRequest,
    ServeResponse,
    Ticket,
)
from repro.serve.session import ManagedSession, SessionManager
from repro.serve.shard import (
    HashRing,
    ShardCampaignReport,
    ShardedCluster,
    run_sharded_loadgen,
)
from repro.serve.store import (
    DurableSessionStore,
    InMemorySessionStore,
    RestoreError,
    SessionRecord,
    SessionSnapshot,
    SessionStore,
    rebuild_session,
)

__all__ = [
    "AdmissionError",
    "CheckResult",
    "ChecksRun",
    "ClarifyService",
    "DurableSessionStore",
    "HashRing",
    "InMemorySessionStore",
    "LLMStack",
    "LoadgenReport",
    "ManagedSession",
    "RestoreError",
    "ServeRequest",
    "ServeResponse",
    "SessionSpec",
    "SessionManager",
    "SessionRecord",
    "SessionSnapshot",
    "SessionStore",
    "ShardCampaignReport",
    "ShardedCluster",
    "Ticket",
    "build_llm_stack",
    "generate_workload",
    "rebuild_session",
    "run_checks",
    "run_loadgen",
    "run_sharded_loadgen",
]
