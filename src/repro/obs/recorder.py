"""Span recording, and the one place instrumentation hooks find their sinks.

The model follows the usual tracing shape at its smallest useful size:

* a :class:`Span` is one named, timed region of work with attributes and
  child spans — one :class:`Recorder` run yields a forest of span trees;
* a :class:`Recorder` owns the span forest plus the metric registry
  (counters and histograms) and is safe to use from multiple threads:
  the span stack is thread-local (each thread nests independently) and
  the registry is guarded by a lock;
* a :class:`NullRecorder` is the default — every instrumentation hook in
  the library goes through the module-level :func:`span` / :func:`count`
  / :func:`observe` helpers, so with nothing installed the cost of an
  instrumented call site is one context-variable read, one no-op method
  call and no allocation.

Every hook — these three, :func:`repro.obs.journal.event` and the
telemetry helpers — finds its sinks in one place, in two parts:

* **process-wide**: the recorder (:func:`install`, :func:`recording`)
  and the telemetry hub (:func:`repro.obs.telemetry.install_hub`),
  installed from one thread and fed from every thread;
* **per request**: the :func:`scope`, one context variable holding the
  request's trace, its journal, and an optional recorder that stands in
  for the process one (a campaign chunk's private recorder).  Each
  thread starts with an empty scope.

A span is timed once; that one duration goes to the recorder (span tree,
``span.<name>`` histogram, or both) and to the hub's phase bucket for the
scope's trace, so the two views cannot disagree.

Instrumented code must never import ``Recorder`` directly; it calls the
helpers.  Harness code (the CLI, tests, benchmarks) installs a real
recorder around the region it wants to measure::

    from repro import obs

    with obs.recording() as rec:
        session.request(intent, "ISP_OUT")
    print(obs.render_report(rec))
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.metrics import Histogram

if TYPE_CHECKING:  # annotations only: both modules import this one
    from repro.obs.journal import JournalRecorder
    from repro.obs.telemetry import TelemetryHub, TraceContext

Number = Union[int, float]


class Span:
    """One named, timed region of work in a trace tree."""

    __slots__ = ("name", "attrs", "children", "start", "end")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        #: ``time.perf_counter()`` readings; ``None`` while in flight.
        self.start: Optional[float] = None
        self.end: Optional[float] = None

    def annotate(self, **attrs: Any) -> None:
        """Attach key/value attributes to the span after entry."""
        self.attrs.update(attrs)

    @property
    def duration_s(self) -> Optional[float]:
        """Wall-clock duration in seconds, or None while in flight."""
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """Every span named ``name`` in this subtree, depth-first order."""
        return [span for span in self.walk() if span.name == name]

    def __repr__(self) -> str:
        timing = (
            f"{self.duration_s * 1000:.3f}ms"
            if self.duration_s is not None
            else "open"
        )
        return f"Span({self.name!r}, {timing}, children={len(self.children)})"


class _NullSpan:
    """The no-op span: handed out when no sink wants the span, and
    entered in place of a :class:`Span` when none is captured."""

    __slots__ = ()

    name: Optional[str] = None
    children: Tuple[()] = ()
    duration_s: Optional[float] = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Times one span once and hands the duration to every sink.

    The recorder gets a :class:`Span` in its tree when it captures spans
    and a ``span.<name>`` observation when it times them; the hub, when
    one is given, gets the same duration for ``trace``'s phase bucket.
    """

    __slots__ = ("_recorder", "_name", "_attrs", "_hub", "_trace", "_span", "_start")

    def __init__(
        self,
        recorder: Union["Recorder", "NullRecorder"],
        name: str,
        attrs: Dict[str, Any],
        hub: Optional["TelemetryHub"] = None,
        trace: Optional["TraceContext"] = None,
    ) -> None:
        self._recorder = recorder
        self._name = name
        self._attrs = attrs
        self._hub = hub
        self._trace = trace
        self._span: Optional[Span] = None
        self._start = 0.0

    def __enter__(self) -> Union[Span, _NullSpan]:
        recorder = self._recorder
        if recorder.capture_spans:
            span = self._span = Span(self._name, self._attrs)
            stack = recorder._span_stack()
            if stack:
                stack[-1].children.append(span)
            else:
                with recorder._lock:
                    recorder.roots.append(span)
            stack.append(span)
            if self._hub is not None:
                self._hub.span_open(self._trace, span)
            self._start = span.start = time.perf_counter()
            return span
        self._start = time.perf_counter()
        return _NULL_SPAN

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        end = time.perf_counter()
        duration = end - self._start
        recorder = self._recorder
        span = self._span
        if span is not None:
            span.end = end
            if exc_type is not None:
                span.attrs.setdefault("error", exc_type.__name__)
            stack = recorder._span_stack()
            if stack and stack[-1] is span:
                stack.pop()
        if recorder.time_spans:
            recorder.observe(f"span.{self._name}", duration)
        if self._hub is not None:
            self._hub.span_close(self._trace, self._name, duration)
        return False


class Recorder:
    """Collects a span forest plus counters and histograms.

    ``capture_spans=False`` keeps only the metric registry — use it for
    long sessions (the benchmark harness does) where accumulating every
    span tree would grow without bound.  ``time_spans=True`` additionally
    observes every span's duration into a ``span.<name>`` histogram, so
    per-phase timings survive in the metric snapshot even when the span
    forest itself is not captured.
    """

    def __init__(
        self, capture_spans: bool = True, time_spans: bool = False
    ) -> None:
        self.capture_spans = capture_spans
        self.time_spans = time_spans
        self.roots: List[Span] = []
        self.counters: Dict[str, Number] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _span_stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------ recording

    def span(self, name: str, /, **attrs: Any) -> Union[_ActiveSpan, _NullSpan]:
        """Open a child span of the current thread's innermost span."""
        if not (self.capture_spans or self.time_spans):
            return _NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def count(self, name: str, value: Number = 1) -> None:
        """Add ``value`` to the counter ``name`` (created at zero)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: Number) -> None:
        """Record one observation in the histogram ``name``."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(value)

    # -------------------------------------------------------------- reading

    def counter(self, name: str) -> Number:
        return self.counters.get(name, 0)

    def histogram(self, name: str) -> Histogram:
        return self.histograms.get(name, Histogram())

    def find(self, name: str) -> List[Span]:
        """Every recorded span named ``name``, depth-first across roots."""
        return [span for root in self.roots for span in root.find(name)]

    def reset(self) -> None:
        with self._lock:
            self.roots.clear()
            self.counters.clear()
            self.histograms.clear()


class NullRecorder:
    """The default recorder: records nothing, costs (almost) nothing."""

    capture_spans = False
    time_spans = False
    roots: Tuple[()] = ()

    def span(self, name: str, /, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: Number = 1) -> None:
        pass

    def observe(self, name: str, value: Number) -> None:
        pass

    def counter(self, name: str) -> Number:
        return 0

    def histogram(self, name: str) -> Histogram:
        return Histogram()

    def find(self, name: str) -> List[Span]:
        return []

    def reset(self) -> None:
        pass


# ------------------------------------------------------------------ sinks
#
# Three slots: the process recorder, the process hub, and the request
# scope.  Hooks read them at call time, so importing hooks early is safe.

_NULL_RECORDER = NullRecorder()
_active: Union[Recorder, NullRecorder] = _NULL_RECORDER
#: Set by :func:`repro.obs.telemetry.install_hub`.
_hub: Optional["TelemetryHub"] = None


class _Scope:
    """One request's sinks: its trace, journal, and stand-in recorder."""

    __slots__ = ("trace", "journal", "recorder")

    def __init__(
        self,
        trace: Optional["TraceContext"],
        journal: Optional["JournalRecorder"],
        recorder: Optional[Recorder],
    ) -> None:
        self.trace = trace
        self.journal = journal
        self.recorder = recorder


_scope: "contextvars.ContextVar[_Scope]" = contextvars.ContextVar(
    "repro_obs_scope", default=_Scope(None, None, None)
)

#: Default of every :func:`scope` field: keep the enclosing scope's value.
_INHERIT: Any = object()


@contextlib.contextmanager
def scope(
    trace: Optional["TraceContext"] = _INHERIT,
    journal: Optional["JournalRecorder"] = _INHERIT,
    recorder: Optional[Recorder] = _INHERIT,
) -> Iterator[None]:
    """Set the request scope for the dynamic extent of a ``with`` block.

    A field that is not passed is inherited from the enclosing scope;
    ``None`` switches it off.  The scope is per thread (a
    :mod:`contextvars` set/reset pair): service workers each carry their
    own request's trace and journal.  ``recorder`` receives this
    thread's spans, counters and observations instead of the process
    recorder, which is how a campaign chunk keeps its counters private
    without hiding other threads' counts from the process recorder.
    """
    outer = _scope.get()
    token = _scope.set(
        _Scope(
            outer.trace if trace is _INHERIT else trace,
            outer.journal if journal is _INHERIT else journal,
            outer.recorder if recorder is _INHERIT else recorder,
        )
    )
    try:
        yield
    finally:
        _scope.reset(token)


def get_recorder() -> Union[Recorder, NullRecorder]:
    """The recorder instrumentation on this thread dispatches to."""
    recorder = _scope.get().recorder
    return _active if recorder is None else recorder


def install(recorder: Optional[Recorder] = None) -> Recorder:
    """Make ``recorder`` (a fresh one by default) the process recorder."""
    global _active
    rec = recorder if recorder is not None else Recorder()
    _active = rec
    return rec


def uninstall() -> None:
    """Restore the no-op default recorder."""
    global _active
    _active = _NULL_RECORDER


@contextlib.contextmanager
def recording(
    recorder: Optional[Recorder] = None,
) -> Iterator[Recorder]:
    """Install a process recorder for the dynamic extent of a ``with`` block."""
    global _active
    rec = recorder if recorder is not None else Recorder()
    previous = _active
    _active = rec
    try:
        yield rec
    finally:
        _active = previous


# Module-level hooks: what instrumented library code calls.  Each reads
# the scope once.


def span(name: str, /, **attrs: Any) -> Union[_ActiveSpan, _NullSpan]:
    """Open a span on the sinks in scope (the no-op span by default)."""
    current = _scope.get()
    recorder = _active if current.recorder is None else current.recorder
    hub = _hub if current.trace is not None else None
    if hub is None and not (recorder.capture_spans or recorder.time_spans):
        return _NULL_SPAN
    return _ActiveSpan(recorder, name, attrs, hub, current.trace)


def count(name: str, value: Number = 1) -> None:
    """Bump a counter on the recorder in scope, and on the scope's trace."""
    current = _scope.get()
    (_active if current.recorder is None else current.recorder).count(name, value)
    if current.trace is not None and _hub is not None:
        _hub.count(current.trace, name, value)


def observe(name: str, value: Number) -> None:
    """Record a histogram observation on the recorder in scope."""
    current = _scope.get()
    (_active if current.recorder is None else current.recorder).observe(name, value)


def enabled() -> bool:
    """True when a real recorder is in scope."""
    return get_recorder() is not _NULL_RECORDER


__all__ = [
    "NullRecorder",
    "Recorder",
    "Span",
    "count",
    "enabled",
    "get_recorder",
    "install",
    "observe",
    "recording",
    "scope",
    "span",
    "uninstall",
]
