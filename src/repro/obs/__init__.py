"""``repro.obs`` — tracing and metrics for the Clarify pipeline.

A dependency-free observability layer (stdlib only) with three pieces:

* **spans** (:class:`Span`) — a wall-clock-timed tree mirroring one
  Clarify cycle: ``clarify.request`` at the root, synthesis attempts,
  verification, disambiguation, and LLM calls underneath;
* **metrics** — monotonic counters (LLM calls, verify retries, user
  questions, space intersections) and summary histograms (overlap
  set sizes, binary-search depth, BGP convergence iterations) in a
  thread-safe registry (:class:`Recorder`);
* **exporters** — text renderings (:func:`render_span_tree`,
  :func:`render_metrics`, :func:`render_report`) and a JSON snapshot
  (:func:`snapshot` / :func:`to_json`) that round-trips.

Sibling layers build on the same hook pattern: the **journal**
(:mod:`repro.obs.journal`) persists every pipeline decision as a JSONL
event stream that :mod:`repro.obs.replay` can re-drive with zero LLM or
oracle calls, :mod:`repro.obs.regress` diffs two metric snapshots as a
performance-regression gate (``clarify bench-check``), and the
**serving telemetry** pair — :mod:`repro.obs.telemetry` (per-request
trace propagation, wide-event request logs, the live Prometheus
``/metrics`` endpoint) and :mod:`repro.obs.slo` (declarative objectives
with multi-window burn rates) — turns a running ``clarify serve`` into
something you can actually watch.

Every hook finds its sinks in one place (:mod:`repro.obs.recorder`):
the process-wide recorder and telemetry hub, and the request
:func:`scope` — one context variable holding the request's trace, its
journal, and an optional recorder standing in for the process one.

Instrumentation is **off by default**: the process recorder is a
:class:`NullRecorder`, no hub is installed, the scope is empty, and
every hook is a no-op, so library users pay almost nothing.  Turn it on
around a region of interest::

    from repro import obs

    with obs.recording() as rec:
        session.request(intent, "ISP_OUT")
    print(obs.render_report(rec))
    rec.counter("llm.calls")          # == report.llm_calls

or process-wide with :func:`install` / :func:`uninstall`.  The
``clarify trace`` CLI subcommand does exactly this around one cycle.
The span and metric names emitted by the library are catalogued in
``docs/OBSERVABILITY.md``.
"""

from repro.obs.export import (
    SNAPSHOT_VERSION,
    render_metrics,
    render_report,
    render_span_tree,
    run_metadata,
    snapshot,
    snapshot_to_recorder,
    span_from_dict,
    span_to_dict,
    to_json,
)
from repro.obs.journal import (
    JOURNAL_VERSION,
    JournalError,
    JournalEvent,
    JournalRecorder,
    dumps_journal,
    event,
    journal_enabled,
    loads_journal,
    read_journal,
    sha256_text,
)
from repro.obs.metrics import Histogram
from repro.obs.recorder import (
    NullRecorder,
    Recorder,
    Span,
    count,
    enabled,
    get_recorder,
    install,
    observe,
    recording,
    scope,
    span,
    uninstall,
)
from repro.obs.telemetry import (
    MetricsServer,
    RollingStats,
    TelemetryHub,
    TraceContext,
    current_trace,
    follow_events,
    install_hub,
    iter_events,
    mint_trace,
    render_prometheus,
    uninstall_hub,
)

__all__ = [
    "Histogram",
    "JOURNAL_VERSION",
    "JournalError",
    "JournalEvent",
    "JournalRecorder",
    "MetricsServer",
    "NullRecorder",
    "Recorder",
    "RollingStats",
    "SNAPSHOT_VERSION",
    "Span",
    "TelemetryHub",
    "TraceContext",
    "count",
    "current_trace",
    "dumps_journal",
    "enabled",
    "event",
    "follow_events",
    "get_recorder",
    "install",
    "install_hub",
    "iter_events",
    "journal_enabled",
    "loads_journal",
    "mint_trace",
    "observe",
    "read_journal",
    "recording",
    "render_metrics",
    "render_prometheus",
    "render_report",
    "render_span_tree",
    "run_metadata",
    "scope",
    "sha256_text",
    "snapshot",
    "snapshot_to_recorder",
    "span",
    "span_from_dict",
    "span_to_dict",
    "to_json",
    "uninstall",
    "uninstall_hub",
]
