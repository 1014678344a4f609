"""Horizontal sharding: a consistent-hash router over serve processes.

One process running a :class:`~repro.serve.session.SessionManager` caps
the tier at a single Python interpreter (one GIL, one failure domain).
This module scales *out* instead of up, without changing a single
serving semantic:

* :class:`HashRing` — a consistent-hash ring over session ids.  Hashing
  is ``sha256``-based and therefore identical across processes and
  Python versions (no ``PYTHONHASHSEED`` dependence); each shard owns
  ``replicas`` virtual nodes so session load spreads evenly and a
  resize moves only the sessions whose arc changed.
* :class:`ShardProcess` — one ``clarify serve`` subprocess speaking the
  existing JSONL stdin/stdout protocol, with a ``tag`` field added so
  replies may arrive out of order (the shard runs each tagged request on
  a thread of its own instead of handling one line at a time).
  Every shard owns a :class:`~repro.serve.store.DurableSessionStore`
  directory, so a ``SIGKILL`` loses nothing that reached a journal.
* :class:`ShardedCluster` — the thin router: routes ``open`` /
  ``request`` / ``close`` by ring position, stamps every request with a
  router-assigned per-session sequence number and its trace ids (both
  cross the process hop), and applies **router-side admission
  control**: a per-shard high-water mark with an EWMA retry-after,
  mirroring :class:`~repro.serve.service.ClarifyService`'s
  single-process policy one level up.

Crash recovery is first-class: :meth:`ShardedCluster.kill_shard` is a
real ``SIGKILL``, and :meth:`ShardedCluster.restart_shard` respawns the
shard with ``--restore`` — the new process replays its journals,
reconstructs every session bit-exactly
(:func:`repro.serve.store.rebuild_session`), and the router re-sends
every unanswered command in original order.  Already-resolved sequence
numbers are answered from the journal
(:meth:`~repro.serve.session.ManagedSession.replayed_response`), so a
request is applied exactly once no matter where the crash landed.

The proof obligation is the same differential the serving layer has
used since the pool was introduced: the ``shard`` check of
:func:`repro.serve.loadgen.run_checks` runs the identical seeded
campaign serial, pooled, sharded (:func:`run_sharded_loadgen`), and
sharded-with-a-kill, and requires all four outcome fingerprints to be
byte-identical (``clarify loadgen --check shard``, enforced by the
``shard`` CI job).
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import ClarifyError
from repro.obs import telemetry
from repro.serve.loadgen import (
    WAIT_TIMEOUT_S,
    _fingerprint,
    generate_workload,
    submit_round,
)
from repro.serve.service import AdmissionError, ServeRequest, ServeResponse, Ticket

#: Seed for the router's service-time EWMA before any reply has landed.
_EWMA_SEED_S = 0.02

#: Virtual nodes per shard; enough that a 64-session campaign spreads
#: across every shard of a small cluster.
DEFAULT_REPLICAS = 64


class ClusterError(ClarifyError):
    """A shard process died or misbehaved outside a requested kill."""


class HashRing:
    """Consistent hashing of session ids onto shard indices.

    Deterministic across processes: ring points are the first 16 hex
    digits of ``sha256("shard-<i>:<replica>")`` and lookups hash the
    session id the same way, so every router instance — and every test
    — agrees on the placement.
    """

    def __init__(self, shards: int, replicas: int = DEFAULT_REPLICAS) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        self.shards = shards
        self.replicas = replicas
        points: List[tuple] = []
        for shard in range(shards):
            for replica in range(replicas):
                token = f"shard-{shard}:{replica}"
                points.append((self._hash(token), shard))
        points.sort()
        self._points = points

    @staticmethod
    def _hash(key: str) -> int:
        return int(hashlib.sha256(key.encode("utf-8")).hexdigest()[:16], 16)

    def shard_for(self, session_id: str) -> int:
        """The shard owning ``session_id`` (first point clockwise)."""
        key = self._hash(session_id)
        index = bisect.bisect_left(self._points, (key, -1))
        if index == len(self._points):
            index = 0
        return int(self._points[index][1])

    def assignments(self, session_ids: List[str]) -> Dict[str, int]:
        """Placement for a whole workload, session id → shard index."""
        return {sid: self.shard_for(sid) for sid in session_ids}


class ShardProcess:
    """One ``clarify serve`` subprocess plus its pipe bookkeeping.

    Commands are written as JSONL with a unique ``tag``; a reader
    thread pairs each tagged reply back to its
    :class:`~repro.serve.service.Ticket`.  After :meth:`kill` +
    :meth:`restart`, every still-unanswered command is re-sent in
    original order — the shard's journal-backed dedupe makes the
    re-sends idempotent.  ``workers`` and ``high_water`` are the shard
    service's (``clarify serve --workers`` / ``--high-water``).
    """

    def __init__(
        self,
        index: int,
        store_dir: str,
        workers: int = 4,
        high_water: int = 128,
        max_attempts: int = 3,
        backend: str = "simulated",
    ) -> None:
        self.index = index
        self.store_dir = store_dir
        self.workers = workers
        self.high_water = high_water
        self.max_attempts = max_attempts
        self.backend = backend
        self.restarts = 0
        self._proc: Optional["subprocess.Popen[str]"] = None
        self._reader: Optional[threading.Thread] = None
        self._write_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        #: Unanswered commands by tag, in the order they were sent.
        self._pending: Dict[str, Tuple[Dict[str, Any], Ticket[Dict[str, Any]]]] = {}
        self._tags = 0

    # ----------------------------------------------------------- lifecycle

    def _argv(self, restore: bool) -> List[str]:
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--workers",
            str(self.workers),
            "--high-water",
            str(self.high_water),
            "--max-attempts",
            str(self.max_attempts),
            "--backend",
            self.backend,
            "--store-dir",
            self.store_dir,
        ]
        if restore:
            argv.append("--restore")
        return argv

    def spawn(self, restore: bool = False) -> None:
        """Start (or re-start) the subprocess and its reply reader."""
        self._close_pipes()
        env = dict(os.environ)
        # Telemetry endpoints are per-process resources; N shards must
        # not race for one metrics port or interleave one event log.
        env.pop("CLARIFY_METRICS_PORT", None)
        env.pop("CLARIFY_EVENT_LOG", None)
        self._proc = subprocess.Popen(
            self._argv(restore),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        self._reader = threading.Thread(
            target=self._read_loop,
            args=(self._proc,),
            name=f"shard-{self.index}-reader",
            daemon=True,
        )
        self._reader.start()

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def kill(self) -> None:
        """SIGKILL — no shutdown hooks run; journals are the survivors."""
        if self._proc is not None:
            self._proc.kill()
            self._proc.wait()
            self._close_pipes()

    def restart(self) -> None:
        """Respawn with ``--restore`` and re-send unanswered commands."""
        self.restarts += 1
        self.spawn(restore=True)
        with self._pending_lock:
            commands = [command for command, _ in self._pending.values()]
        for command in commands:
            self._write(command)

    def stop(self, timeout_s: float = 5.0) -> None:
        """Ask the serve loop to quit; escalate to a kill on timeout."""
        proc = self._proc
        if proc is None:
            return
        if proc.poll() is None:
            try:
                self._write({"op": "quit", "tag": "quit"})
            except (ClusterError, OSError):
                pass
            try:
                proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        """Close an exited subprocess's pipes once its reader has drained."""
        proc, reader = self._proc, self._reader
        if proc is None or proc.poll() is None:
            return
        if reader is not None:
            reader.join(timeout=5.0)
        with self._write_lock:
            if proc.stdin is not None:
                try:
                    proc.stdin.close()
                except OSError:
                    pass  # a kill can leave unflushed bytes behind
        if proc.stdout is not None and not (reader and reader.is_alive()):
            proc.stdout.close()

    # ------------------------------------------------------------- the pipe

    def send(self, command: Dict[str, Any]) -> Ticket[Dict[str, Any]]:
        """Write a tagged command; its reply resolves the returned ticket.
        A command the pipe refuses is not kept for :meth:`restart`."""
        with self._pending_lock:
            self._tags += 1
            tag = f"s{self.index}-{self._tags}"
            tagged = dict(command)
            tagged["tag"] = tag
            ticket: Ticket[Dict[str, Any]] = Ticket()
            self._pending[tag] = (tagged, ticket)
        try:
            self._write(tagged)
        except ClusterError:
            with self._pending_lock:
                self._pending.pop(tag, None)
            raise
        return ticket

    def _write(self, command: Dict[str, Any]) -> None:
        with self._write_lock:
            proc = self._proc
            if proc is None or proc.stdin is None or proc.poll() is not None:
                raise ClusterError(f"shard {self.index} is not running")
            try:
                proc.stdin.write(json.dumps(command, sort_keys=True) + "\n")
                proc.stdin.flush()
            except (BrokenPipeError, OSError) as exc:
                raise ClusterError(
                    f"shard {self.index} pipe broke: {exc}"
                ) from exc

    def _read_loop(self, proc: "subprocess.Popen[str]") -> None:
        stdout = proc.stdout
        if stdout is None:  # pragma: no cover - Popen always pipes it
            return
        for line in stdout:
            try:
                payload = json.loads(line)
            except ValueError:
                continue  # a torn line from a kill mid-write
            if not isinstance(payload, dict):
                continue
            # The wire tag is this pipe's own; it never leaves it.
            tag = payload.pop("tag", None)
            if tag is None:
                continue
            with self._pending_lock:
                entry = self._pending.pop(tag, None)
            if entry is not None:
                entry[1].resolve(payload)


class ShardedCluster:
    """The router: ring placement + admission + crash recovery.

    ``high_water`` bounds each shard's in-flight requests; breaching it
    raises :class:`~repro.serve.service.AdmissionError` with an
    EWMA-estimated ``retry_after_s``, exactly like the in-process
    service — the shard processes run with twice the per-shard mark as
    their own ``high_water`` so router admission is the binding
    constraint.
    """

    def __init__(
        self,
        shards: int = 2,
        workers_per_shard: int = 4,
        store_root: Optional[str] = None,
        high_water: int = 32,
        max_attempts: int = 3,
        backend: str = "simulated",
    ) -> None:
        if high_water < 1:
            raise ValueError("high_water must be at least 1")
        self.ring = HashRing(shards)
        self.store_root = store_root or tempfile.mkdtemp(
            prefix="clarify-shards-"
        )
        self.high_water = high_water
        self.procs = [
            ShardProcess(
                index,
                store_dir=os.path.join(self.store_root, f"shard-{index:02d}"),
                workers=workers_per_shard,
                high_water=max(2 * high_water, 8),
                max_attempts=max_attempts,
                backend=backend,
            )
            for index in range(shards)
        ]
        self._lock = threading.Lock()
        self._inflight = [0] * shards
        self._ewma_service_s = _EWMA_SEED_S
        self._session_shard: Dict[str, int] = {}
        self._session_seq: Dict[str, int] = {}
        #: Router-side counters, surfaced in the campaign report.
        self.rejected = 0
        self.kills = 0
        self.restored_sessions = 0

    # ----------------------------------------------------------- lifecycle

    def start(self) -> "ShardedCluster":
        for proc in self.procs:
            proc.spawn(restore=False)
        return self

    def stop(self) -> None:
        for proc in self.procs:
            proc.stop()

    def __enter__(self) -> "ShardedCluster":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -------------------------------------------------------------- routing

    def shard_of(self, session_id: str) -> int:
        return self.ring.shard_for(session_id)

    def open(
        self, session_id: str, config_text: str = "", timeout_s: float = 30.0
    ) -> Dict[str, Any]:
        """Open a session on its ring-assigned shard (synchronous)."""
        shard = self.shard_of(session_id)
        call = self.procs[shard].send(
            {
                "op": "open",
                "session": session_id,
                "config": config_text,
                "idempotent": True,
            }
        )
        payload = call.wait(timeout_s)
        if payload is None or not payload.get("ok"):
            raise ClusterError(
                f"open {session_id!r} on shard {shard} failed: {payload!r}"
            )
        with self._lock:
            self._session_shard[session_id] = shard
            self._session_seq.setdefault(session_id, 0)
        return payload

    def close_session(
        self, session_id: str, timeout_s: float = 30.0
    ) -> Dict[str, Any]:
        shard = self.shard_of(session_id)
        call = self.procs[shard].send(
            {"op": "close", "session": session_id}
        )
        payload = call.wait(timeout_s) or {}
        with self._lock:
            self._session_shard.pop(session_id, None)
            self._session_seq.pop(session_id, None)
        return payload

    def _retry_after(self, depth: int) -> float:
        workers = sum(proc.workers for proc in self.procs)
        return max(0.001, depth * self._ewma_service_s / max(1, workers))

    def submit(self, request: ServeRequest) -> Ticket[Dict[str, Any]]:
        """Route one request, or raise :class:`AdmissionError`.

        The request goes with its ``deadline_s``, the session's next
        sequence number (the shard's key for idempotent replay after a
        restart), and trace ids adopted or minted by
        :func:`~repro.obs.telemetry.mint_trace`, as in-process.
        """
        trace = telemetry.mint_trace(
            request.session, request.request_id, request.trace_id
        )
        with self._lock:
            shard = self._session_shard.get(request.session)
            if shard is None:
                raise KeyError(f"unknown session {request.session!r}")
            if self._inflight[shard] >= self.high_water:
                self.rejected += 1
                raise AdmissionError(
                    self._inflight[shard],
                    self.high_water,
                    self._retry_after(sum(self._inflight)),
                    trace,
                )
            self._inflight[shard] += 1
            seq = self._session_seq[request.session]
            self._session_seq[request.session] = seq + 1
        stamped = dataclasses.replace(
            request, seq=seq, request_id=trace.request_id, trace_id=trace.trace_id
        )
        try:
            ticket = self.procs[shard].send(stamped.to_command())
        except ClusterError:
            with self._lock:
                self._inflight[shard] -= 1
                # Nothing reached the shard: the next request takes this seq.
                if self._session_seq.get(request.session) == seq + 1:
                    self._session_seq[request.session] = seq
            raise
        ticket.then(functools.partial(self._settle, shard))
        return ticket

    def _settle(self, shard: int, payload: Dict[str, Any]) -> None:
        """Free a request's slot once its reply lands."""
        latency = float(payload.get("latency_s", 0.0) or 0.0)
        with self._lock:
            self._inflight[shard] -= 1
            self._ewma_service_s = (
                0.9 * self._ewma_service_s + 0.1 * latency
            )

    # ---------------------------------------------------------------- chaos

    def _shard(self, index: int) -> ShardProcess:
        if not 0 <= index < len(self.procs):
            raise ClusterError(
                f"no shard {index}: the cluster has shards 0.."
                f"{len(self.procs) - 1}"
            )
        return self.procs[index]

    def kill_shard(self, index: int) -> None:
        """SIGKILL one shard; its in-flight requests stay pending."""
        proc = self._shard(index)
        self.kills += 1
        proc.kill()

    def restart_shard(self, index: int, timeout_s: float = 60.0) -> int:
        """Respawn a killed shard; returns how many sessions it restored.

        The new process replays every journal under the shard's store
        directory before serving; the router then re-sends unanswered
        commands in original order (see :meth:`ShardProcess.restart`)
        and verifies via ``stats`` that restoration happened.
        """
        proc = self._shard(index)
        proc.restart()
        stats = proc.send({"op": "stats"}).wait(timeout_s)
        if stats is None or not stats.get("ok"):
            raise ClusterError(
                f"shard {index} did not answer stats after restart"
            )
        restored = int(stats.get("restored", 0))
        self.restored_sessions += restored
        return restored

    def stats(self, timeout_s: float = 30.0) -> List[Dict[str, Any]]:
        """One stats payload per shard, in shard order."""
        calls = [proc.send({"op": "stats"}) for proc in self.procs]
        return [call.wait(timeout_s) or {} for call in calls]


# ------------------------------------------------------------- campaigns


@dataclasses.dataclass
class ShardCampaignReport:
    """What one sharded campaign did, with the identity fingerprint."""

    sessions: int
    requests: int
    shards: int
    workers_per_shard: int
    seed: int
    wall_s: float
    throughput_rps: float
    outcomes: Dict[str, int]
    fingerprint: str
    rejected_submissions: int
    unresolved: int
    kills: int
    restarts: int
    restored_sessions: int
    #: Sessions per shard index, from the ring placement.
    placement: Dict[str, int]

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def run_sharded_loadgen(
    sessions: int = 16,
    requests_per_session: int = 2,
    shards: int = 2,
    workers_per_shard: int = 4,
    seed: int = 2025,
    store_root: Optional[str] = None,
    high_water: int = 32,
    max_attempts: int = 3,
    backend: str = "simulated",
    kill_and_restart: bool = False,
) -> ShardCampaignReport:
    """Run the seeded loadgen campaign against a sharded cluster.

    The workload is the exact one :func:`~repro.serve.loadgen.run_loadgen`
    drives in-process (same ``(sessions, rps, seed)`` pure function), so
    the resulting fingerprint is directly comparable, and rejected
    submissions are retried the same way (:func:`submit_round`).

    With ``kill_and_restart`` the chaos choreography is: submit every
    round but the last, SIGKILL the shard owning the first session once
    at least half of those requests resolved (some may still be in
    flight — their re-sends exercise the idempotent replay path),
    restart it with ``--restore``, then submit the final round against
    the restored sessions.  Divergence anywhere shows up in the
    fingerprint.
    """
    workload = generate_workload(sessions, requests_per_session, seed)
    cluster = ShardedCluster(
        shards=shards,
        workers_per_shard=workers_per_shard,
        store_root=store_root,
        high_water=high_water,
        max_attempts=max_attempts,
        backend=backend,
    )
    placement = cluster.ring.assignments(
        [spec.session_id for spec in workload]
    )
    rejected = 0
    pendings: List[Ticket[Dict[str, Any]]] = []
    t_start = time.perf_counter()
    with cluster:
        for spec in workload:
            cluster.open(spec.session_id, spec.config_text)
        chaos_rounds = (
            max(1, requests_per_session - 1)
            if kill_and_restart
            else requests_per_session
        )
        for round_idx in range(chaos_rounds):
            rejected += submit_round(cluster.submit, workload, round_idx, pendings)
        if kill_and_restart:
            target_shard = cluster.shard_of(workload[0].session_id)
            half = len(pendings) // 2
            poll_deadline = time.monotonic() + WAIT_TIMEOUT_S
            while (
                sum(1 for p in pendings if p.done) < half
                and time.monotonic() < poll_deadline
            ):
                time.sleep(0.002)
            cluster.kill_shard(target_shard)
            cluster.restart_shard(target_shard)
            for round_idx in range(chaos_rounds, requests_per_session):
                rejected += submit_round(cluster.submit, workload, round_idx, pendings)
        payloads = [p.wait(WAIT_TIMEOUT_S) for p in pendings]
    wall = time.perf_counter() - t_start

    resolved = [p for p in payloads if p is not None]
    outcomes: Dict[str, int] = {}
    for payload in resolved:
        outcome = str(payload.get("outcome", "unknown"))
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    return ShardCampaignReport(
        sessions=sessions,
        requests=len(pendings),
        shards=shards,
        workers_per_shard=workers_per_shard,
        seed=seed,
        wall_s=wall,
        throughput_rps=len(resolved) / wall if wall > 0 else 0.0,
        outcomes=dict(sorted(outcomes.items())),
        fingerprint=_fingerprint(
            [ServeResponse.from_dict(p).outcome_key() for p in resolved]
        ),
        rejected_submissions=rejected,
        unresolved=len(pendings) - len(resolved),
        kills=cluster.kills,
        restarts=sum(proc.restarts for proc in cluster.procs),
        restored_sessions=cluster.restored_sessions,
        placement={
            f"shard-{index:02d}": sum(
                1 for s in placement.values() if s == index
            )
            for index in range(shards)
        },
    )


__all__ = [
    "ClusterError",
    "HashRing",
    "ShardCampaignReport",
    "ShardProcess",
    "ShardedCluster",
    "run_sharded_loadgen",
]
