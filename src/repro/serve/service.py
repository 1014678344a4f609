"""The Clarify service: a bounded work queue over a session pool.

One :class:`ClarifyService` runs many Clarify sessions concurrently:

* **admission control** — the service accepts at most ``queue_limit``
  in-flight requests and starts rejecting once the backlog reaches the
  ``high_water`` mark; a rejection is an :class:`AdmissionError`
  carrying ``retry_after_s`` (estimated from an EWMA of recent service
  times and the current backlog), so well-behaved clients back off
  instead of piling on;
* **deadlines** — every request may carry a time budget
  (``deadline_s``), started at *admission* so queueing time counts; the
  budget is installed ambiently around the cycle
  (:mod:`repro.core.budget`) and polled by the synthesis retry loop and
  the disambiguator's binary search, degrading to a "needs
  clarification"/"deadline" outcome instead of hanging a worker;
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
import queue
import threading
import time
from typing import Any, Dict, List, Optional, Tuple, Union

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
    """The queue is past its high-water mark; retry after a backoff."""

    def __init__(self, depth: int, high_water: int, retry_after_s: float) -> None:
        super().__init__(
            f"queue at {depth}/{high_water}; retry after {retry_after_s:.3f}s"
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


class Ticket:
    """A handle on an accepted request; resolves to a :class:`ServeResponse`."""

    def __init__(self, request: ServeRequest, seq: int) -> None:
        self.request = request
        self.seq = seq
        self._done = threading.Event()
        self._response: Optional[ServeResponse] = None

    def resolve(self, response: ServeResponse) -> None:
        self._response = response
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> Optional[ServeResponse]:
        """Block until resolution (or ``timeout``); None on timeout."""
        if not self._done.wait(timeout):
            return None
        return self._response

    @property
    def done(self) -> bool:
        return self._done.is_set()


@dataclasses.dataclass
class _WorkItem:
    handle: ManagedSession
    ticket: Ticket
    budget: Optional[TimeBudget]
    admitted_at: float
    trace: TraceContext


_STOP = None


class ClarifyService:
    """A thread pool running Clarify cycles with admission control."""

    def __init__(
        self,
        manager: SessionManager,
        workers: int = 4,
        queue_limit: int = 64,
        high_water: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if high_water is None:
            high_water = queue_limit
        if not 1 <= high_water <= queue_limit:
            raise ValueError(
                f"high_water must be in [1, queue_limit], got {high_water}"
            )
        self.manager = manager
        self.workers = workers
        self.queue_limit = queue_limit
        self.high_water = high_water
        self._queue: "queue.Queue[Union[_WorkItem, None]]" = queue.Queue()
        self._lock = threading.Lock()
        self._pending = 0
        self._ewma_service_s = _EWMA_SEED_S
        self._threads: List[threading.Thread] = []
        self._running = False
        #: Total requests rejected by admission control (monotonic).
        self.rejected = 0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "ClarifyService":
        with self._lock:
            if self._running:
                return self
            self._running = True
        for idx in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"clarify-serve-{idx}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Drain the queue, then stop every worker (idempotent)."""
        with self._lock:
            if not self._running:
                return
            self._running = False
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join()
        self._threads.clear()

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

    def submit(self, request: ServeRequest) -> Ticket:
        """Admit one request, or raise :class:`AdmissionError`.

        Every request — admitted or rejected — gets a fresh
        :class:`TraceContext`; a rejection still lands in the latency
        histograms (tagged ``rejected``) and the wide-event log, so
        loadgen quantiles are not survivorship-biased toward requests
        that made it past admission.

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
        ticket = Ticket(request, seq)
        telemetry.begin_request(trace, seq=seq)
        with obs.scope(trace=trace):
            obs.count("serve.admitted")
        self._queue.put(
            _WorkItem(
                handle=handle,
                ticket=ticket,
                budget=budget,
                admitted_at=time.perf_counter(),
                trace=trace,
            )
        )
        return ticket

    def call(
        self, request: ServeRequest, timeout: Optional[float] = None
    ) -> ServeResponse:
        """Submit and wait; admission rejections become ``rejected`` responses."""
        try:
            ticket = self.submit(request)
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
        response = ticket.wait(timeout)
        if response is None:
            raise TimeoutError(
                f"request for session {request.session!r} still pending "
                f"after {timeout}s"
            )
        return response

    # -------------------------------------------------------------- workers

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:  # the _STOP sentinel
                return
            try:
                self._execute(item)
            finally:
                with self._lock:
                    self._pending -= 1

    def _execute(self, item: _WorkItem) -> None:
        handle = item.handle
        ticket = item.ticket
        with handle.cond:
            while handle.next_seq != ticket.seq:
                handle.cond.wait()
        queue_wait = time.perf_counter() - item.admitted_at
        try:
            with obs.scope(trace=item.trace, journal=handle.journal), obs.span(
                "serve.request", session=handle.session_id, seq=ticket.seq
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
        ticket.resolve(response)

    def _run_cycle(self, item: _WorkItem, queue_wait: float) -> ServeResponse:
        handle = item.handle
        request = item.ticket.request
        seq = item.ticket.seq
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
