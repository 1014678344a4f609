"""Serving-tier telemetry: trace propagation and wide-event request logs.

Three pieces, layered over :mod:`repro.obs.recorder`:

* **trace context** — a :class:`TraceContext` (``trace_id`` /
  ``request_id`` / ``session_id``) carried in the request scope
  (:func:`repro.obs.scope`).  :class:`repro.serve.service.ClarifyService`
  mints one per request at admission; the thread that runs the cycle
  sets it in the scope around it, and :func:`repro.perf.campaign.run_campaign`
  forwards it into pool workers.  Every span, counter delta, journal
  event, and remote LLM call made while a trace is in scope correlates
  back to the originating request;
* **wide events** — a :class:`TelemetryHub` accumulates per-trace
  activity (the counter deltas and span durations the obs hooks hand it
  with the scope's trace, spans bucketed into pipeline phases, and layer
  annotations like the backend chosen or the cache disposition) and, on
  :meth:`TelemetryHub.finish`, flattens it into exactly **one** JSONL
  event per request: the canonical record a single request leaves
  behind, whatever its outcome;
* **live export** — :func:`render_prometheus` renders the installed
  :class:`~repro.obs.recorder.Recorder` in the Prometheus text
  exposition format, :class:`MetricsServer` serves it on a stdlib-HTTP
  thread (``/metrics`` + ``/healthz``; ``clarify serve
  --metrics-port``), and :func:`follow_events` / :class:`RollingStats`
  power ``clarify tail``'s rolling p50/p95/error-rate view.

Everything stays **byte-invisible to fingerprinted outputs**: trace ids
are excluded from :meth:`~repro.serve.service.ServeResponse.outcome_key`,
journal events carry the trace *outside* the replay-compared payload,
and wide events carry no wall-clock timestamps.  With no hub installed
a hook pays one ``None`` check for it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.obs import recorder as _recorder
from repro.obs.metrics import Histogram
from repro.obs.recorder import NullRecorder, Recorder

#: Version of the wide-event schema (the per-request JSONL record).
WIDE_EVENT_VERSION = 1

#: Span-name prefixes bucketed into the wide event's timing breakdown.
#: Phases follow span nesting, so buckets may overlap (``synthesis``
#: includes the ``llm`` time spent inside synthesis attempts).
PHASE_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("synthesis.synthesize", "synthesis"),
    ("verify.", "verify"),
    ("disambiguate.", "disambiguation"),
    ("llm.complete", "llm"),
    ("lint.gate", "gates"),
    ("lint.netwide_gate", "gates"),
)

#: Every phase key a wide event's ``timings`` block reports.
PHASES = ("synthesis", "verify", "disambiguation", "llm", "gates")

#: Counter-name prefixes retained in a wide event's ``counters`` block.
TRACKED_COUNTER_PREFIXES = ("serve.", "llm.", "netwide.")


def phase_of(span_name: str) -> Optional[str]:
    """The timing-breakdown phase a span name belongs to, if any."""
    for prefix, phase in PHASE_PREFIXES:
        if span_name.startswith(prefix):
            return phase
    return None


# ---------------------------------------------------------- trace context


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """The identity one request carries through every layer it touches."""

    trace_id: str
    request_id: str
    session_id: str = ""

    def to_dict(self) -> Dict[str, str]:
        """The context as the wire-format dict journals and logs embed."""
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "session_id": self.session_id,
        }


def current_trace() -> Optional[TraceContext]:
    """The trace in this thread's scope, or ``None``."""
    return _recorder._scope.get().trace


def mint_trace(
    session_id: str = "",
    request_id: Optional[str] = None,
    trace_id: Optional[str] = None,
) -> TraceContext:
    """A request's trace: given ids are adopted (one that is not a
    string is a ``TypeError``) and missing ones minted; a minted
    ``request_id`` is ``req-`` and 12 hex digits of a fresh trace id.

    The 128 bits come from :mod:`random`, which reseeds itself in a
    forked child, and not from ``os.urandom``: that syscall releases the
    interpreter lock, and an admitting thread could then wait a whole
    switch interval to get it back.
    """
    for given in (request_id, trace_id):
        if given is not None and not isinstance(given, str):
            raise TypeError(f"a trace id must be a string, got {given!r}")
    minted = f"{random.getrandbits(128):032x}"
    return TraceContext(
        trace_id=minted if trace_id is None else trace_id,
        request_id=request_id if request_id else f"req-{minted[:12]}",
        session_id=session_id,
    )


# ------------------------------------------------------------ wide events


class _TraceAccumulator:
    """Mutable per-trace scratchpad the hub aggregates into."""

    __slots__ = ("trace", "counters", "phases", "fields")

    def __init__(self, trace: TraceContext) -> None:
        self.trace = trace
        self.counters: Dict[str, float] = {}
        self.phases: Dict[str, float] = {}
        self.fields: Dict[str, Any] = {}


def _dispositions(counters: Dict[str, float]) -> Dict[str, str]:
    """Cache/dedup disposition labels derived from per-trace counters."""
    if counters.get("llm.cache.hits"):
        cache = "hit"
    elif counters.get("llm.cache.misses"):
        cache = "miss"
    elif counters.get("llm.cache.bypass"):
        cache = "bypass"
    else:
        cache = ""
    if counters.get("llm.dedup.upstream"):
        dedup = "leader"
    elif counters.get("llm.dedup.requests"):
        dedup = "follower"
    else:
        dedup = ""
    return {"cache": cache, "dedup": dedup}


class TelemetryHub:
    """Aggregates per-trace activity into one wide event per request.

    Installed via :func:`install_hub`, the hub is one of the sinks the
    obs hooks find: :func:`repro.obs.count` / :func:`repro.obs.span`
    calls made while a trace is in scope are attributed to that trace.
    Events are retained in memory (``.events``, bounded by
    ``max_events``) and, when ``sink`` is a path or text handle,
    streamed as JSONL — one line per finished request.
    """

    def __init__(
        self,
        sink: Union[str, IO[str], None] = None,
        max_events: int = 4096,
    ) -> None:
        self.events: List[Dict[str, Any]] = []
        self.max_events = max_events
        #: Requests finished (monotonic; survives the events ring).
        self.finished = 0
        self._lock = threading.Lock()
        self._active: Dict[str, _TraceAccumulator] = {}
        self._handle: Optional[IO[str]] = None
        self._owns_handle = False
        if isinstance(sink, str):
            directory = os.path.dirname(sink)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(sink, "w")
            self._owns_handle = True
        elif sink is not None:
            self._handle = sink

    # ----------------------------------------------------- trace lifecycle

    def begin(self, trace: TraceContext, **fields: Any) -> None:
        """Open the accumulator for one request (idempotent per trace)."""
        with self._lock:
            acc = self._active.get(trace.trace_id)
            if acc is None:
                acc = self._active[trace.trace_id] = _TraceAccumulator(trace)
            acc.fields.update(fields)

    def note(self, trace: Optional[TraceContext], **fields: Any) -> None:
        """Attach annotation fields (backend chosen, …) to a live trace."""
        if trace is None:
            return
        with self._lock:
            acc = self._active.get(trace.trace_id)
            if acc is not None:
                acc.fields.update(fields)

    def finish(
        self,
        trace: TraceContext,
        outcome: str,
        latency_s: float,
        queue_wait_s: float = 0.0,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Flatten one request's accumulated activity into its wide event."""
        with self._lock:
            acc = self._active.pop(trace.trace_id, None)
            if acc is None:
                acc = _TraceAccumulator(trace)
            acc.fields.update(fields)
            timings: Dict[str, float] = {
                "queue_wait_s": queue_wait_s,
                "latency_s": latency_s,
            }
            for phase in PHASES:
                timings[f"{phase}_s"] = round(acc.phases.get(phase, 0.0), 9)
            event: Dict[str, Any] = {
                "schema_version": WIDE_EVENT_VERSION,
                "trace_id": trace.trace_id,
                "request_id": trace.request_id,
                "session_id": trace.session_id,
                "outcome": outcome,
                "timings": timings,
                "counters": dict(sorted(acc.counters.items())),
                "retries": int(acc.counters.get("llm.remote.retries", 0)),
            }
            event.update(_dispositions(acc.counters))
            event.update(acc.fields)
            self.finished += 1
            self.events.append(event)
            if len(self.events) > self.max_events:
                del self.events[: len(self.events) - self.max_events]
            if self._handle is not None:
                self._handle.write(json.dumps(event, sort_keys=True) + "\n")
                self._handle.flush()
        return event

    def close(self) -> None:
        """Close an owned sink handle (idempotent)."""
        if self._handle is not None and self._owns_handle:
            self._handle.close()
        self._handle = None

    def __enter__(self) -> "TelemetryHub":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------ obs hooks

    def count(
        self, trace: TraceContext, name: str, value: Union[int, float]
    ) -> None:
        """Attribute a tracked counter delta to ``trace``."""
        if not name.startswith(TRACKED_COUNTER_PREFIXES):
            return
        with self._lock:
            acc = self._active.get(trace.trace_id)
            if acc is not None:
                acc.counters[name] = acc.counters.get(name, 0) + value

    def observe(self, name: str, value: Union[int, float]) -> None:
        """Histogram observations need no per-trace state (no hook calls this)."""

    def span_open(self, trace: TraceContext, span: Any) -> None:
        """Stamp ``trace`` onto a captured span."""
        span.annotate(trace_id=trace.trace_id, request_id=trace.request_id)

    def span_close(
        self, trace: TraceContext, name: str, duration_s: float
    ) -> None:
        """Bucket a span duration into ``trace``'s pipeline phase."""
        phase = phase_of(name)
        if phase is None:
            return
        with self._lock:
            acc = self._active.get(trace.trace_id)
            if acc is not None:
                acc.phases[phase] = acc.phases.get(phase, 0.0) + duration_s


def install_hub(hub: Optional[TelemetryHub] = None) -> TelemetryHub:
    """Make ``hub`` (a fresh in-memory one by default) the process hub.

    From then on, counter deltas and span durations made while a trace
    is in scope flow to it.
    """
    active = hub if hub is not None else TelemetryHub()
    _recorder._hub = active
    return active


def uninstall_hub() -> None:
    """Deactivate telemetry: drop the process hub."""
    _recorder._hub = None


def begin_request(trace: TraceContext, **fields: Any) -> None:
    """Hub ``begin`` when telemetry is on; free no-op otherwise."""
    hub = _recorder._hub
    if hub is not None:
        hub.begin(trace, **fields)


def finish_request(
    trace: TraceContext,
    outcome: str,
    latency_s: float,
    queue_wait_s: float = 0.0,
    **fields: Any,
) -> Optional[Dict[str, Any]]:
    """Hub ``finish`` when telemetry is on; free no-op otherwise."""
    hub = _recorder._hub
    if hub is None:
        return None
    return hub.finish(
        trace,
        outcome,
        latency_s,
        queue_wait_s=queue_wait_s,
        **fields,
    )


def annotate(**fields: Any) -> None:
    """Attach fields to the current trace's wide event (no-op without)."""
    hub = _recorder._hub
    if hub is not None:
        hub.note(current_trace(), **fields)


# ----------------------------------------------------- prometheus export


def _metric_name(name: str) -> str:
    """A recorder metric name as a valid Prometheus metric name."""
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"clarify_{cleaned}"


def _fmt_value(value: Union[int, float]) -> str:
    return format(float(value), ".10g")


def render_prometheus(recorder: Union[Recorder, NullRecorder]) -> str:
    """The recorder's registry in the Prometheus text exposition format.

    Counters render as ``counter`` samples; histograms render as
    ``summary`` families (``{quantile=...}`` samples plus ``_sum`` and
    ``_count``).  Metric names are sanitised (``.``/``-`` → ``_``) and
    prefixed ``clarify_``.
    """
    counters = dict(getattr(recorder, "counters", {}))
    histograms = dict(getattr(recorder, "histograms", {}))
    lines: List[str] = []
    for name in sorted(counters):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt_value(counters[name])}")
    for name in sorted(histograms):
        hist = histograms[name]
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} summary")
        for q in (0.5, 0.95, 0.99):
            value = hist.quantile(q)
            if value is not None:
                lines.append(
                    f'{metric}{{quantile="{q:g}"}} {_fmt_value(value)}'
                )
        lines.append(f"{metric}_sum {_fmt_value(hist.total)}")
        lines.append(f"{metric}_count {_fmt_value(hist.count)}")
    return "\n".join(lines) + "\n"


class MetricsServer:
    """A stdlib-HTTP thread serving ``/metrics`` and ``/healthz``.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction for the bound address.  ``recorder_fn`` resolves the
    recorder per scrape (default: the installed one), so the endpoint is
    always live.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        recorder_fn: Optional[
            Callable[[], Union[Recorder, NullRecorder]]
        ] = None,
    ) -> None:
        resolve = recorder_fn if recorder_fn is not None else _recorder.get_recorder

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.split("?")[0] == "/metrics":
                    body = render_prometheus(resolve()).encode("utf-8")
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif self.path.split("?")[0] == "/healthz":
                    body = b"ok\n"
                    ctype = "text/plain; charset=utf-8"
                else:
                    self.send_error(404, "unknown path")
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt: str, *args: Any) -> None:
                """Scrapes are routine; keep stderr quiet."""

        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self.host = host
        self.port = int(self._server.server_address[1])
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "MetricsServer":
        """Begin serving on a daemon thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="clarify-metrics",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down and join the serving thread."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


# ------------------------------------------------------------ tailing


def iter_events(path: str) -> Iterator[Dict[str, Any]]:
    """Parse a wide-event JSONL log, skipping blank/corrupt lines."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict):
                yield event


def follow_events(
    path: str,
    idle_timeout_s: float = 5.0,
    poll_s: float = 0.1,
) -> Iterator[Dict[str, Any]]:
    """Yield events as they are appended, stopping after an idle period.

    The ``tail -f`` loop ``clarify tail --follow`` runs: new lines are
    yielded as they land; once no complete new line has appeared for
    ``idle_timeout_s`` the iterator ends (so harnesses terminate).
    """
    deadline = time.monotonic() + idle_timeout_s
    with open(path, "r", encoding="utf-8") as handle:
        buffered = ""
        while True:
            chunk = handle.readline()
            if chunk:
                buffered += chunk
                if not buffered.endswith("\n"):
                    continue
                line = buffered.strip()
                buffered = ""
                deadline = time.monotonic() + idle_timeout_s
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                if isinstance(event, dict):
                    yield event
                continue
            if time.monotonic() >= deadline:
                return
            time.sleep(poll_s)


#: Outcomes ``clarify tail`` counts against the rolling error rate.
ERROR_OUTCOMES = ("error", "internal-error")


class RollingStats:
    """Rolling latency/error summary over the last ``window`` events."""

    def __init__(self, window: int = 128) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = window
        self.total = 0
        self._events: List[Dict[str, Any]] = []

    def add(self, event: Dict[str, Any]) -> None:
        """Fold one wide event into the window."""
        self.total += 1
        self._events.append(event)
        if len(self._events) > self.window:
            del self._events[: len(self._events) - self.window]

    def summary(self) -> Dict[str, Any]:
        """p50/p95 latency, error rate, and outcome counts in-window."""
        latency = Histogram()
        outcomes: Dict[str, int] = {}
        errors = 0
        for event in self._events:
            timings = event.get("timings", {})
            latency.observe(float(timings.get("latency_s", 0.0)))
            outcome = str(event.get("outcome", ""))
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if outcome in ERROR_OUTCOMES:
                errors += 1
        count = len(self._events)
        return {
            "events": self.total,
            "window": count,
            "p50_s": latency.quantile(0.5) or 0.0,
            "p95_s": latency.quantile(0.95) or 0.0,
            "error_rate": errors / count if count else 0.0,
            "outcomes": dict(sorted(outcomes.items())),
        }


__all__ = [
    "ERROR_OUTCOMES",
    "MetricsServer",
    "PHASES",
    "PHASE_PREFIXES",
    "RollingStats",
    "TRACKED_COUNTER_PREFIXES",
    "TelemetryHub",
    "TraceContext",
    "WIDE_EVENT_VERSION",
    "annotate",
    "begin_request",
    "current_trace",
    "finish_request",
    "follow_events",
    "install_hub",
    "iter_events",
    "mint_trace",
    "phase_of",
    "render_prometheus",
    "uninstall_hub",
]
