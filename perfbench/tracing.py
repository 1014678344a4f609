"""Outside-in tracing: spans around each layer's entry points, and the ledger.

:class:`Tracer` wraps the public entry points listed in :data:`LAYERS`
from the benchmark's own code: a function is replaced in every loaded
``repro`` module that binds it, a method on its class.  Each call made
inside an op records a span ``(id, parent, op, name, start, end, cpu)``
in the calling thread's in-memory list.  A thread's first span of an op
(a service worker picking up a request) finds its parent through the
op's serving trace: the benchmark sets the request id to the op id, and
the open ``ClarifyService.call`` span is the op's carrier.

A layer's self time is its spans' durations minus the part of each
interval that its child spans cover.  The ledger adds self time per
layer over all ops.  The :data:`ENVELOPES` only enclose the other
layers' work, so their self time is code between named entry points:
less the time ops waited in the service queue, it is the unattributed
remainder of the op roots' wall time.  Wrapping stops at space-level
operations: nothing per ``PrefixAtom``, per region or per memo lookup.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import telemetry

#: layer -> (module, entry point) pairs; ``Class.method`` for methods.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "serve": (("repro.serve.service", "ClarifyService.call"),),
    "workflow": (("repro.core.workflow", "ClarifySession.request"),),
    "llm": (("repro.llm.transcript", "TranscribingClient.complete"),),
    "synthesis": (("repro.core.synthesis", "SynthesisPipeline.synthesize"),),
    "verify": (
        ("repro.core.verify", "verify_route_map_snippet"),
        ("repro.core.verify", "verify_acl_snippet"),
    ),
    "disambiguator": (
        ("repro.core.disambiguator", "disambiguate_stanza"),
        ("repro.core.disambiguator", "disambiguate_acl_rule"),
    ),
    "compare": (
        ("repro.analysis.compare", "compare_route_policies"),
        ("repro.analysis.compare", "compare_filters"),
    ),
    "prefixspace": tuple(
        ("repro.analysis.prefixspace", f"PrefixSpace.{name}")
        for name in (
            "__post_init__",
            "union",
            "intersect",
            "complement",
            "subtract",
            "is_subset_of",
            "witness",
        )
    ),
    "routespace": (
        ("repro.analysis.routespace", "route_map_reachable_spaces"),
        ("repro.analysis.routespace", "stanza_guard_space"),
        ("repro.analysis.routespace", "clause_space"),
        ("repro.analysis.routespace", "prefix_list_space"),
        ("repro.analysis.routespace", "community_list_dnf"),
        ("repro.analysis.routespace", "as_path_list_dnf"),
    )
    + tuple(
        ("repro.analysis.routespace", f"RouteSpace.{name}")
        for name in (
            "union",
            "intersect",
            "complement",
            "subtract",
            "is_empty",
            "is_subset_of",
            "witness",
        )
    ),
    "regexlib": (
        ("repro.regexlib.nfa", "compile_regex"),
        ("repro.regexlib.nfa", "find_word"),
        ("repro.regexlib.nfa", "CompiledRegex.search"),
        ("repro.regexlib.nfa", "CompiledRegex.example"),
        ("repro.regexlib.cisco", "as_path_matches"),
        ("repro.regexlib.cisco", "community_matches"),
        ("repro.regexlib.cisco", "find_as_path"),
        ("repro.regexlib.cisco", "find_community"),
    ),
    "headerspace": (
        ("repro.analysis.headerspace", "acl_reachable_spaces"),
        ("repro.analysis.headerspace", "acl_guard_space"),
        ("repro.analysis.headerspace", "acl_rule_region"),
        ("repro.analysis.headerspace", "regions_disjoint_matrix"),
        ("repro.analysis.headerspace", "regions_subsume_matrix"),
    )
    + tuple(
        ("repro.analysis.headerspace", f"PacketSpace.{name}")
        for name in (
            "union",
            "intersect",
            "complement",
            "subtract",
            "is_empty",
            "is_subset_of",
            "witness",
        )
    ),
    "kernels": tuple(
        ("repro.perf.kernels", name)
        for name in (
            "encode",
            "disjoint_matrix",
            "subset_matrix",
            "contains_vector",
            "intersect_many",
            "subtract_many",
        )
    ),
    "config": (
        ("repro.config.parser", "parse_config"),
        ("repro.config.render", "render_config"),
        ("repro.config.diff", "config_diff"),
        ("repro.config.names", "rename_snippet_lists"),
        ("repro.serve.session", "ManagedSession.config_sha256"),
    ),
    "journal": (("repro.obs.journal", "JournalRecorder.event"),),
    "telemetry": tuple(
        ("repro.obs.telemetry", f"TelemetryHub.{name}")
        for name in ("begin", "note", "finish", "count", "observe", "span_open", "span_close")
    ),
    "overlap": (
        ("repro.overlap.detector", "acl_overlap_report"),
        ("repro.overlap.detector", "route_map_overlap_report"),
    ),
    "campaign": (("repro.perf.campaign", "run_campaign"),),
}

#: The entry point that hands an op to service worker threads.
CARRIER = "ClarifyService.call"

#: Name of the op root span the harness opens around each op.
ROOT = "op"

#: Layers whose entry points enclose the others' work: the op root, the
#: service call, the session's request cycle and the campaign runner.
ENVELOPES = frozenset({ROOT, "serve", "workflow", "campaign"})

#: Largest share of op wall time the ledger may leave unattributed
#: (ROADMAP item 1's "within a few percent").
MAX_UNATTRIBUTED = 0.05

Span = Tuple[int, int, str, str, float, float, float]


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[Tuple[int, str]] = []
        self.spans: Optional[List[Span]] = None


def _bindings(original: Any) -> Iterator[Tuple[Any, str]]:
    """Every ``(module, attribute)`` of a loaded ``repro`` module bound to
    ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                yield module, attr


class Tracer:
    """Records spans for ops while installed; see the module docstring."""

    def __init__(self) -> None:
        self._state = _ThreadState()
        self._lists: List[List[Span]] = []
        self._lists_lock = threading.Lock()
        self._ids = itertools.count(1)
        #: op id -> id of the open span other threads parent to.
        self._carriers: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self.layer_of: Dict[str, str] = {ROOT: ROOT}
        self.gc_pause_s = 0.0
        self._gc_started = 0.0

    # ---------------------------------------------------------- recording

    def _spans(self) -> List[Span]:
        state = self._state
        if state.spans is None:
            state.spans = []
            with self._lists_lock:
                self._lists.append(state.spans)
        return state.spans

    def _wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        state = self._state
        carriers = self._carriers
        ids = self._ids
        spans_of = self._spans
        clock = time.perf_counter
        cpu_clock = time.thread_time
        carrier = name == CARRIER

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = state.stack
            if stack:
                parent, op = stack[-1]
                cpu_start = None
            else:
                trace = telemetry.current_trace()
                parent = carriers.get(trace.request_id, 0) if trace is not None else 0
                if not parent:
                    return fn(*args, **kwargs)
                op = trace.request_id
                cpu_start = cpu_clock()
            sid = next(ids)
            stack.append((sid, op))
            if carrier:
                carriers[op] = sid
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if carrier:
                    carriers[op] = parent
                cpu = 0.0 if cpu_start is None else cpu_clock() - cpu_start
                spans_of().append((sid, parent, op, name, start, end, cpu))

        return functools.update_wrapper(traced, fn)

    @contextlib.contextmanager
    def op(self, op_id: str) -> Iterator[None]:
        """The root span of one op, opened on the client thread."""
        stack = self._state.stack
        sid = next(self._ids)
        stack.append((sid, op_id))
        self._carriers[op_id] = sid
        cpu_start = time.thread_time()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            del self._carriers[op_id]
            self._spans().append(
                (sid, 0, op_id, ROOT, start, end, time.thread_time() - cpu_start)
            )

    def _gc_callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_started

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every entry point in :data:`LAYERS` for the block."""
        try:
            for layer, targets in LAYERS.items():
                for module_name, path in targets:
                    self._patch(importlib.import_module(module_name), path, layer)
            gc.callbacks.append(self._gc_callback)
            yield self
        finally:
            if self._gc_callback in gc.callbacks:
                gc.callbacks.remove(self._gc_callback)
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _patch(self, module: Any, path: str, layer: str) -> None:
        owner_name, _, attr = path.rpartition(".")
        self.layer_of[path] = layer
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, path))
            return
        original = getattr(module, attr)
        wrapped = self._wrap(original, path)
        for bound_module, bound_attr in list(_bindings(original)):
            self._patches.append((bound_module, bound_attr, original))
            setattr(bound_module, bound_attr, wrapped)

    # ------------------------------------------------------------ ledger

    def spans(self) -> List[Span]:
        """Every recorded span, in no particular order."""
        with self._lists_lock:
            return [span for spans in self._lists for span in spans]

    def write(self, path: str) -> None:
        """Write the spans out as gzipped JSON lines."""
        with gzip.open(path, "wt") as handle:
            for sid, parent, op, name, start, end, cpu in sorted(self.spans()):
                record = {
                    "id": sid,
                    "parent": parent,
                    "op": op,
                    "name": name,
                    "layer": self.layer_of[name],
                    "start": start,
                    "end": end,
                    "cpu": cpu,
                }
                handle.write(json.dumps(record) + "\n")

    def ledger(self, queue_wait_s: float) -> "Ledger":
        """Exclusive time per layer over all recorded ops, whose queue
        waits in the service add up to ``queue_wait_s``."""
        spans = self.spans()
        name_of = {span[0]: span[3] for span in spans}
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _, parent, _, _, start, end, _ in spans:
            if parent:
                children.setdefault(parent, []).append((start, end))
        ledger = Ledger(self.gc_pause_s, queue_wait_s)
        for sid, parent, op, name, start, end, cpu in spans:
            layer = self.layer_of[name]
            own = (end - start) - _covered(start, end, children.get(sid, ()))
            ledger.self_s[layer] = ledger.self_s.get(layer, 0.0) + own
            ledger.calls[name] = ledger.calls.get(name, 0) + 1
            ledger.op_cpu[op] = ledger.op_cpu.get(op, 0.0) + cpu
            if self.layer_of[name_of.get(parent, ROOT)] != layer:
                ledger.inclusive_s[layer] = ledger.inclusive_s.get(layer, 0.0) + end - start
            if name == ROOT:
                ledger.op_wall[op] = end - start
        return ledger


def _covered(start: float, end: float, intervals: Any) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


class Ledger:
    """Per layer: self time, and inclusive time of its outermost spans;
    per entry point: calls; per op: wall and CPU time."""

    def __init__(self, gc_pause_s: float, queue_wait_s: float) -> None:
        self.self_s: Dict[str, float] = {}
        self.inclusive_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.op_wall: Dict[str, float] = {}
        self.op_cpu: Dict[str, float] = {}
        self.gc_pause_s = gc_pause_s
        self.queue_wait_s = queue_wait_s

    @property
    def wall(self) -> float:
        return sum(self.op_wall.values())

    def layer(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def count(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)

    def attributed(self) -> float:
        """Self time of the layers below the envelopes, plus queue wait."""
        return self.queue_wait_s + sum(
            value for layer, value in self.self_s.items() if layer not in ENVELOPES
        )

    def unattributed_share(self) -> float:
        """Share of op wall time no layer below the envelopes accounts
        for (negative when layers overlap, i.e. time was counted twice)."""
        return (self.wall - self.attributed()) / self.wall

    def closes(self) -> bool:
        """Whether the unattributed share is within MAX_UNATTRIBUTED."""
        return abs(self.unattributed_share()) <= MAX_UNATTRIBUTED

    def shares(self) -> List[Tuple[str, float, float]]:
        """``(layer, self seconds, share of op wall)`` of the layers below
        the envelopes, largest first."""
        rows = [
            (layer, value, value / self.wall)
            for layer, value in self.self_s.items()
            if layer not in ENVELOPES
        ]
        return sorted(rows, key=lambda row: -row[1])
