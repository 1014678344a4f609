"""The Clarify service: admission control and ordering over a session pool.

One :class:`ClarifyService` runs many Clarify sessions concurrently.
Each admitted cycle runs on the thread that needs its result: ``call``
runs it on the caller's thread, and ``submit`` on one thread it starts
for that request.  ``workers`` is how many cycles may run at once.

* **admission control** — the service rejects new requests once the
  number admitted and not yet finished reaches the ``high_water``
  mark; a rejection is an :class:`AdmissionError` carrying
  ``retry_after_s`` (estimated from an EWMA of recent service times and
  the current backlog), so well-behaved clients back off instead of
  piling on;
* **deadlines** — every request may carry a time budget
  (``deadline_s``), started at *admission* so waiting time counts; the
  budget is installed ambiently around the cycle
  (:mod:`repro.core.budget`) and polled by the synthesis retry loop and
  the disambiguator's binary search, degrading to a "needs
  clarification"/"deadline" outcome instead of hanging a thread;
* **per-session FIFO** — requests for one session execute strictly in
  admission order (see :class:`~repro.serve.session.ManagedSession`),
  while requests for distinct sessions run in parallel; this is the
  property that makes a pooled run's outcomes identical to a serial
  run's;
* **outcome taxonomy** — every request resolves to exactly one
  :class:`ServeResponse`; pipeline-surfaced failures (punt, deadline,
  clarify errors) are *outcomes*, not exceptions, and only a genuine bug
  produces ``internal-error`` (the chaos CI gate asserts none occur).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Dict, Generic, List, Optional, Tuple, TypeVar

from repro import obs
from repro.core.budget import TimeBudget
from repro.core.errors import ClarifyError, DeadlineExceeded, SynthesisPunt
from repro.core.workflow import UpdateReport
from repro.obs import telemetry
from repro.obs.telemetry import TraceContext
from repro.serve.session import ManagedSession, SessionManager

#: Outcome kinds a request can resolve to.
OUTCOMES = (
    "applied",
    "needs-clarification",
    "deadline",
    "error",
    "internal-error",
    "rejected",
)

#: Seed for the service-time EWMA before any request has completed.
_EWMA_SEED_S = 0.02


class AdmissionError(ClarifyError):
    """The backlog is at its high-water mark; retry after a backoff."""

    def __init__(self, depth: int, high_water: int, retry_after_s: float) -> None:
        super().__init__(
            f"backlog at {depth}/{high_water}; retry after {retry_after_s:.3f}s"
        )
        self.depth = depth
        self.high_water = high_water
        self.retry_after_s = retry_after_s
        #: The trace minted for the rejected request, so callers can still
        #: correlate the rejection with its wide event.
        self.trace: Optional[TraceContext] = None


@dataclasses.dataclass(frozen=True)
class ServeRequest:
    """One Clarify cycle to run against a named session."""

    session: str
    intent: str
    target: str
    #: Wall-clock budget in seconds, started at admission; None = no limit.
    deadline_s: Optional[float] = None
    #: Client-supplied request id echoed on the response; None = minted.
    request_id: Optional[str] = None
    #: Upstream trace id to adopt instead of minting one — the shard
    #: router passes its trace across the process hop so a request's
    #: journal events and wide events correlate end to end.
    trace_id: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class ServeResponse:
    """The resolution of one request."""

    session: str
    seq: int
    outcome: str
    detail: str = ""
    position: Optional[int] = None
    llm_calls: int = 0
    questions: int = 0
    attempts: int = 0
    overlaps: Tuple[int, ...] = ()
    gate_warnings: Tuple[str, ...] = ()
    config_sha256: str = ""
    latency_s: float = 0.0
    queue_wait_s: float = 0.0
    retry_after_s: Optional[float] = None
    #: Correlation ids (request_id may be client-supplied).  They are
    #: per-run identities, so they live outside :meth:`outcome_key`.
    request_id: str = ""
    trace_id: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome == "applied"

    def outcome_key(self) -> Dict[str, Any]:
        """The schedule-independent fields, for differential identity.

        Everything timing-dependent (latency, queue wait, retry-after) is
        excluded; what remains must be byte-identical between a serial
        and a pooled run of the same workload.
        """
        return {
            "session": self.session,
            "seq": self.seq,
            "outcome": self.outcome,
            "position": self.position,
            "llm_calls": self.llm_calls,
            "questions": self.questions,
            "attempts": self.attempts,
            "overlaps": list(self.overlaps),
            "gate_warnings": list(self.gate_warnings),
            "config_sha256": self.config_sha256,
        }

    def to_dict(self) -> Dict[str, Any]:
        data = self.outcome_key()
        data["detail"] = self.detail
        data["latency_s"] = self.latency_s
        data["queue_wait_s"] = self.queue_wait_s
        if self.retry_after_s is not None:
            data["retry_after_s"] = self.retry_after_s
        if self.request_id:
            data["request_id"] = self.request_id
        if self.trace_id:
            data["trace_id"] = self.trace_id
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServeResponse":
        """The response a :meth:`to_dict` payload describes.

        Keys that are not fields (a ``clarify serve`` reply's ``ok``,
        ``op``, ``tag``, ``recovered``) are ignored, so a shard's reply
        fingerprints exactly like the in-process response it carries.
        """
        values = {
            field.name: data[field.name]
            for field in dataclasses.fields(cls)
            if field.name in data
        }
        values["overlaps"] = tuple(values.get("overlaps", ()))
        values["gate_warnings"] = tuple(values.get("gate_warnings", ()))
        return cls(**values)


T = TypeVar("T")


class Ticket(Generic[T]):
    """A reply that resolves once: a :class:`ServeResponse` from
    :meth:`ClarifyService.submit`, a reply payload from a shard."""

    def __init__(self) -> None:
        self._done = threading.Event()
        self._result: Optional[T] = None

    def resolve(self, result: T) -> None:
        self._result = result
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> Optional[T]:
        """Block until resolution (or ``timeout``); None on timeout."""
        if not self._done.wait(timeout):
            return None
        return self._result

    @property
    def done(self) -> bool:
        return self._done.is_set()


@dataclasses.dataclass
class _WorkItem:
    handle: ManagedSession
    request: ServeRequest
    seq: int
    budget: Optional[TimeBudget]
    admitted_at: float
    trace: TraceContext


class ClarifyService:
    """Runs Clarify cycles with admission control and per-session FIFO.

    A cycle runs on the thread that needs its result (see the module
    docstring); at most ``workers`` cycles run at once, and at most
    ``high_water`` requests are admitted and unfinished at a time.
    """

    def __init__(
        self,
        manager: SessionManager,
        workers: int = 4,
        high_water: int = 64,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if high_water < 1:
            raise ValueError(f"high_water must be at least 1, got {high_water}")
        self.manager = manager
        self.workers = workers
        self.high_water = high_water
        self._permits = threading.Semaphore(workers)
        self._lock = threading.Lock()
        #: Notified whenever an admitted request finishes; ``stop`` waits
        #: on it for the backlog to drain.
        self._drained = threading.Condition(self._lock)
        self._pending = 0
        self._ewma_service_s = _EWMA_SEED_S
        #: Threads ``submit`` started that may still be running.
        self._threads: List[threading.Thread] = []
        self._running = False
        #: Total requests rejected by admission control (monotonic).
        self.rejected = 0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "ClarifyService":
        with self._lock:
            self._running = True
        return self

    def stop(self) -> None:
        """Refuse new work, then wait until every admitted request has
        finished (idempotent)."""
        with self._drained:
            self._running = False
            while self._pending:
                self._drained.wait()
            threads, self._threads = self._threads, []
        for thread in threads:
            thread.join()

    def __enter__(self) -> "ClarifyService":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ------------------------------------------------------------ admission

    def depth(self) -> int:
        """Requests admitted but not yet completed."""
        with self._lock:
            return self._pending

    def _retry_after(self, depth: int) -> float:
        return max(0.001, depth * self._ewma_service_s / self.workers)

    def _admit(self, request: ServeRequest) -> _WorkItem:
        """Admit one request, or raise :class:`AdmissionError`.

        Every request — admitted or rejected — gets a fresh
        :class:`TraceContext`; a rejection still lands in the latency
        histograms (tagged ``rejected``) and the wide-event log, so
        loadgen quantiles are not survivorship-biased toward requests
        that made it past admission.  An admitted request is stamped
        with its session's next sequence number.

        Raises ``KeyError`` for an unknown session and ``RuntimeError``
        when the service is not running.
        """
        started = time.perf_counter()
        trace = telemetry.mint_trace(
            session_id=request.session, request_id=request.request_id
        )
        if request.trace_id is not None:
            trace = dataclasses.replace(trace, trace_id=request.trace_id)
        handle = self.manager.get(request.session)
        if handle is None:
            raise KeyError(f"unknown session {request.session!r}")
        rejection: Optional[AdmissionError] = None
        with self._lock:
            if not self._running:
                raise RuntimeError("service is not running")
            if self._pending >= self.high_water:
                self.rejected += 1
                rejection = AdmissionError(
                    self._pending,
                    self.high_water,
                    self._retry_after(self._pending),
                )
            else:
                self._pending += 1
        if rejection is not None:
            rejection.trace = trace
            elapsed = time.perf_counter() - started
            with obs.scope(trace=trace):
                telemetry.begin_request(trace, seq=-1)
                obs.count("serve.rejected")
                obs.count("serve.outcome.rejected")
                obs.observe("serve.latency", elapsed)
                obs.observe("serve.latency.rejected", elapsed)
                obs.observe("serve.queue_wait", 0.0)
                obs.observe("serve.queue_wait.rejected", 0.0)
                telemetry.finish_request(
                    trace,
                    outcome="rejected",
                    latency_s=elapsed,
                    queue_wait_s=0.0,
                    retry_after_s=rejection.retry_after_s,
                )
            raise rejection
        budget = (
            TimeBudget(request.deadline_s)
            if request.deadline_s is not None
            else None
        )
        with handle.cond:
            seq = handle.submitted_seq
            handle.submitted_seq += 1
        telemetry.begin_request(trace, seq=seq)
        with obs.scope(trace=trace):
            obs.count("serve.admitted")
        return _WorkItem(
            handle=handle,
            request=request,
            seq=seq,
            budget=budget,
            admitted_at=time.perf_counter(),
            trace=trace,
        )

    def submit(self, request: ServeRequest) -> Ticket[ServeResponse]:
        """Admit one request and run it on a thread started for it.

        Returns at once; the ticket resolves to the response.  Raises
        :class:`AdmissionError` at the high-water mark, ``KeyError`` for
        an unknown session and ``RuntimeError`` when the service is not
        running.
        """
        item = self._admit(request)
        ticket: Ticket[ServeResponse] = Ticket()
        thread = threading.Thread(
            target=lambda: ticket.resolve(self._execute(item)),
            name=f"clarify-request-{item.handle.session_id}-{item.seq}",
            daemon=True,
        )
        with self._lock:
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
        thread.start()
        return ticket

    def call(self, request: ServeRequest) -> ServeResponse:
        """Admit one request and run it on this thread; admission
        rejections become ``rejected`` responses."""
        try:
            item = self._admit(request)
        except AdmissionError as exc:
            return ServeResponse(
                session=request.session,
                seq=-1,
                outcome="rejected",
                detail=str(exc),
                retry_after_s=exc.retry_after_s,
                request_id=exc.trace.request_id if exc.trace else "",
                trace_id=exc.trace.trace_id if exc.trace else "",
            )
        return self._execute(item)

    # ------------------------------------------------------------ execution

    def _execute(self, item: _WorkItem) -> ServeResponse:
        """Run one admitted request on this thread and account for it.

        The request waits for its session's turn first and for one of
        the ``workers`` permits second: a thread that held a permit
        while it waited for a turn would deadlock one permit and two
        requests for one session.
        """
        handle = item.handle
        try:
            with handle.cond:
                while handle.next_seq != item.seq:
                    handle.cond.wait()
            try:
                with self._permits:
                    queue_wait = time.perf_counter() - item.admitted_at
                    scope = obs.scope(trace=item.trace, journal=handle.journal)
                    with scope, obs.span(
                        "serve.request", session=handle.session_id, seq=item.seq
                    ):
                        response = self._run_cycle(item, queue_wait)
            finally:
                with handle.cond:
                    handle.next_seq += 1
                    handle.completed += 1
                    handle.cond.notify_all()
            elapsed = time.perf_counter() - item.admitted_at
            response = dataclasses.replace(
                response,
                latency_s=elapsed,
                queue_wait_s=queue_wait,
                request_id=item.trace.request_id,
                trace_id=item.trace.trace_id,
            )
            with self._lock:
                self._ewma_service_s = (
                    0.9 * self._ewma_service_s + 0.1 * (elapsed - queue_wait)
                )
            with obs.scope(trace=item.trace):
                obs.count("serve.requests")
                obs.count(f"serve.outcome.{response.outcome}")
                obs.observe("serve.latency", elapsed)
                obs.observe(f"serve.latency.{response.outcome}", elapsed)
                obs.observe("serve.queue_wait", queue_wait)
                obs.observe(f"serve.queue_wait.{response.outcome}", queue_wait)
                telemetry.finish_request(
                    item.trace,
                    outcome=response.outcome,
                    latency_s=elapsed,
                    queue_wait_s=queue_wait,
                    attempts=response.attempts,
                    llm_calls=response.llm_calls,
                    questions=response.questions,
                )
            return response
        finally:
            with self._drained:
                self._pending -= 1
                self._drained.notify_all()

    def _run_cycle(self, item: _WorkItem, queue_wait: float) -> ServeResponse:
        handle = item.handle
        request = item.request
        seq = item.seq
        if item.budget is not None and item.budget.expired():
            obs.count("serve.deadline.queue")
            return ServeResponse(
                session=handle.session_id,
                seq=seq,
                outcome="deadline",
                detail=(
                    f"budget of {item.budget.seconds}s spent after "
                    f"{queue_wait:.3f}s in queue"
                ),
                config_sha256=handle.config_sha256(),
            )
        try:
            report: UpdateReport = handle.session.request(
                request.intent, request.target, budget=item.budget
            )
        except DeadlineExceeded as exc:
            return ServeResponse(
                session=handle.session_id,
                seq=seq,
                outcome="deadline",
                detail=str(exc),
                questions=exc.questions_asked,
                config_sha256=handle.config_sha256(),
            )
        except SynthesisPunt as exc:
            return ServeResponse(
                session=handle.session_id,
                seq=seq,
                outcome="needs-clarification",
                detail=str(exc),
                attempts=exc.attempts,
                config_sha256=handle.config_sha256(),
            )
        except (ClarifyError, ValueError) as exc:
            return ServeResponse(
                session=handle.session_id,
                seq=seq,
                outcome="error",
                detail=f"{type(exc).__name__}: {exc}",
                config_sha256=handle.config_sha256(),
            )
        except Exception as exc:  # noqa: BLE001 - the service must not die
            obs.count("serve.internal_errors")
            return ServeResponse(
                session=handle.session_id,
                seq=seq,
                outcome="internal-error",
                detail=f"{type(exc).__name__}: {exc}",
                config_sha256=handle.config_sha256(),
            )
        return ServeResponse(
            session=handle.session_id,
            seq=seq,
            outcome="applied",
            position=report.position,
            llm_calls=report.llm_calls,
            questions=report.questions,
            attempts=report.attempts,
            overlaps=tuple(report.overlaps),
            gate_warnings=tuple(report.gate_warnings),
            config_sha256=handle.config_sha256(),
        )


__all__ = [
    "AdmissionError",
    "ClarifyService",
    "OUTCOMES",
    "ServeRequest",
    "ServeResponse",
    "Ticket",
]
