"""Serving telemetry: trace context, the hub, export, and tailing."""

import io
import json
import threading
import urllib.request

import pytest

from repro import obs
from repro.obs import telemetry as tele


@pytest.fixture(autouse=True)
def no_leftover_hub():
    yield
    tele.uninstall_hub()


@pytest.fixture
def hub():
    """A process hub for the test (the autouse fixture removes it)."""
    return tele.install_hub()


class TestTraceContext:
    def test_mint_trace_unique_ids(self):
        a, b = tele.mint_trace(), tele.mint_trace()
        assert a.trace_id != b.trace_id
        assert a.request_id.startswith("req-")
        assert a.request_id != b.request_id

    def test_mint_trace_client_supplied_request_id(self):
        trace = tele.mint_trace(session_id="s1", request_id="mine-42")
        assert trace.request_id == "mine-42"
        assert trace.session_id == "s1"

    def test_to_dict_round_trip_keys(self):
        trace = tele.mint_trace(session_id="s1")
        assert set(trace.to_dict()) == {
            "trace_id",
            "request_id",
            "session_id",
        }

    def test_tracing_sets_and_restores(self):
        assert tele.current_trace() is None
        trace = tele.mint_trace()
        with obs.scope(trace=trace):
            assert tele.current_trace() is trace
            inner = tele.mint_trace()
            with obs.scope(trace=inner):
                assert tele.current_trace() is inner
            assert tele.current_trace() is trace
        assert tele.current_trace() is None

    def test_tracing_none_deactivates(self):
        with obs.scope(trace=tele.mint_trace()):
            with obs.scope(trace=None):
                assert tele.current_trace() is None

    def test_trace_is_per_thread(self):
        seen = {}
        with obs.scope(trace=tele.mint_trace()):
            thread = threading.Thread(
                target=lambda: seen.update(other=tele.current_trace())
            )
            thread.start()
            thread.join()
        assert seen["other"] is None

    def test_phase_of(self):
        assert tele.phase_of("synthesis.synthesize") == "synthesis"
        assert tele.phase_of("verify.differential") == "verify"
        assert tele.phase_of("llm.complete") == "llm"
        assert tele.phase_of("lint.netwide_gate") == "gates"
        assert tele.phase_of("serve.request") is None


class TestTelemetryHub:
    def test_finish_without_begin_still_emits(self):
        hub = tele.TelemetryHub()
        trace = tele.mint_trace()
        event = hub.finish(trace, outcome="rejected", latency_s=0.01)
        assert event["outcome"] == "rejected"
        assert event["trace_id"] == trace.trace_id
        assert hub.finished == 1

    def test_wide_event_shape(self):
        hub = tele.TelemetryHub()
        trace = tele.mint_trace(session_id="s1")
        hub.begin(trace, seq=7)
        event = hub.finish(
            trace, outcome="applied", latency_s=0.5, queue_wait_s=0.1
        )
        assert event["schema_version"] == tele.WIDE_EVENT_VERSION
        assert event["session_id"] == "s1"
        assert event["seq"] == 7
        assert event["timings"]["latency_s"] == 0.5
        assert event["timings"]["queue_wait_s"] == 0.1
        for phase in tele.PHASES:
            assert f"{phase}_s" in event["timings"]
        assert event["retries"] == 0
        assert event["cache"] == "" and event["dedup"] == ""

    def test_no_wall_clock_timestamps(self):
        hub = tele.TelemetryHub()
        event = hub.finish(tele.mint_trace(), outcome="applied", latency_s=0.1)
        for key in event:
            assert "time" not in key and "stamp" not in key

    def test_counter_attribution_requires_active_trace(self, hub):
        trace = tele.mint_trace()
        hub.begin(trace)
        with obs.recording(), obs.scope(trace=trace):
            obs.count("serve.requests")
            obs.count("llm.calls", 3)
            obs.count("untracked.thing")
        with obs.recording():
            obs.count("serve.requests")  # no trace active: dropped
        event = hub.finish(trace, outcome="applied", latency_s=0.0)
        assert event["counters"] == {"serve.requests": 1, "llm.calls": 3}

    def test_span_durations_bucket_into_phases(self, hub):
        trace = tele.mint_trace()
        hub.begin(trace)
        with obs.recording(), obs.scope(trace=trace):
            with obs.span("verify.differential"):
                pass
            with obs.span("llm.complete"):
                pass
        event = hub.finish(trace, outcome="applied", latency_s=0.0)
        assert event["timings"]["verify_s"] > 0.0
        assert event["timings"]["llm_s"] > 0.0
        assert event["timings"]["synthesis_s"] == 0.0

    def test_span_annotated_with_trace(self, hub):
        trace = tele.mint_trace()
        with obs.recording() as rec, obs.scope(trace=trace):
            with obs.span("verify.differential"):
                pass
        (root,) = rec.roots
        assert root.attrs["trace_id"] == trace.trace_id
        assert root.attrs["request_id"] == trace.request_id

    def test_span_exception_suppression_preserved(self, hub):
        # Handing the span to the hub must not change context-manager
        # semantics.
        with obs.recording(), obs.scope(trace=tele.mint_trace()):
            with pytest.raises(ValueError):
                with obs.span("verify.x"):
                    raise ValueError("boom")

    def test_dispositions(self):
        assert tele._dispositions({"llm.cache.hits": 1})["cache"] == "hit"
        assert tele._dispositions({"llm.cache.misses": 1})["cache"] == "miss"
        assert tele._dispositions({"llm.cache.bypass": 1})["cache"] == "bypass"
        assert (
            tele._dispositions({"llm.dedup.upstream": 1})["dedup"] == "leader"
        )
        assert (
            tele._dispositions({"llm.dedup.requests": 2})["dedup"]
            == "follower"
        )

    def test_note_and_annotate(self, hub):
        trace = tele.mint_trace()
        hub.begin(trace)
        with obs.scope(trace=trace):
            tele.annotate(backend="simulated")
        event = hub.finish(trace, outcome="applied", latency_s=0.0)
        assert event["backend"] == "simulated"

    def test_events_ring_is_bounded(self):
        hub = tele.TelemetryHub(max_events=3)
        for _ in range(5):
            hub.finish(tele.mint_trace(), outcome="applied", latency_s=0.0)
        assert len(hub.events) == 3
        assert hub.finished == 5

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "sub" / "events.jsonl"
        hub = tele.TelemetryHub(sink=str(path))
        hub.finish(tele.mint_trace(), outcome="applied", latency_s=0.0)
        hub.close()
        (line,) = path.read_text().strip().splitlines()
        assert json.loads(line)["outcome"] == "applied"

    def test_text_handle_sink_not_closed(self):
        handle = io.StringIO()
        hub = tele.TelemetryHub(sink=handle)
        hub.finish(tele.mint_trace(), outcome="applied", latency_s=0.0)
        hub.close()
        assert not handle.closed
        assert handle.getvalue().count("\n") == 1

    def test_module_helpers_no_op_without_hub(self):
        trace = tele.mint_trace()
        tele.begin_request(trace)
        tele.annotate(backend="x")
        assert tele.finish_request(trace, "applied", 0.0) is None


class TestPrometheusExport:
    def test_render_counters_and_histograms(self):
        with obs.recording() as rec:
            obs.count("serve.requests", 2)
            for value in (0.1, 0.2, 0.3):
                obs.observe("serve.latency", value)
        text = tele.render_prometheus(rec)
        assert "# TYPE clarify_serve_requests counter" in text
        assert "clarify_serve_requests 2" in text
        assert "# TYPE clarify_serve_latency summary" in text
        assert 'clarify_serve_latency{quantile="0.5"}' in text
        assert "clarify_serve_latency_count 3" in text
        assert "clarify_serve_latency_sum" in text
        assert text.endswith("\n")

    def test_metric_name_sanitised(self):
        assert tele._metric_name("serve.outcome.applied") == (
            "clarify_serve_outcome_applied"
        )
        assert tele._metric_name("9lives") == "clarify__9lives"

    def test_metrics_server_serves_and_stops(self):
        recorder = obs.Recorder(capture_spans=False)
        recorder.count("serve.requests", 4)
        with tele.MetricsServer(port=0, recorder_fn=lambda: recorder) as srv:
            base = f"http://127.0.0.1:{srv.port}"
            with urllib.request.urlopen(base + "/healthz", timeout=5) as r:
                assert r.read() == b"ok\n"
            with urllib.request.urlopen(base + "/metrics", timeout=5) as r:
                body = r.read().decode()
                assert "version=0.0.4" in r.headers["Content-Type"]
            assert "clarify_serve_requests 4" in body
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(base + "/nope", timeout=5)


class TestTailing:
    def test_iter_events_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"outcome": "applied"}\n'
            "not json\n"
            "\n"
            "[1, 2]\n"
            '{"outcome": "error"}\n'
        )
        events = list(tele.iter_events(str(path)))
        assert [e["outcome"] for e in events] == ["applied", "error"]

    def test_follow_events_stops_on_idle(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"outcome": "applied"}\n')
        events = list(
            tele.follow_events(str(path), idle_timeout_s=0.2, poll_s=0.01)
        )
        assert len(events) == 1

    def test_follow_events_sees_appended_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("")
        collected = []

        def writer():
            with open(path, "a") as handle:
                handle.write('{"outcome": "applied"}\n')
                handle.flush()

        thread = threading.Timer(0.05, writer)
        thread.start()
        try:
            for event in tele.follow_events(
                str(path), idle_timeout_s=0.5, poll_s=0.01
            ):
                collected.append(event)
        finally:
            thread.join()
        assert [e["outcome"] for e in collected] == ["applied"]

    def test_rolling_stats(self):
        stats = tele.RollingStats(window=4)
        for latency, outcome in (
            (0.1, "applied"),
            (0.2, "applied"),
            (0.3, "error"),
            (0.4, "applied"),
        ):
            stats.add(
                {"timings": {"latency_s": latency}, "outcome": outcome}
            )
        summary = stats.summary()
        assert summary["window"] == 4
        assert summary["error_rate"] == 0.25
        assert summary["outcomes"] == {"applied": 3, "error": 1}
        assert 0.1 <= summary["p50_s"] <= 0.4

    def test_rolling_stats_window_evicts(self):
        stats = tele.RollingStats(window=2)
        for outcome in ("error", "applied", "applied"):
            stats.add({"timings": {}, "outcome": outcome})
        summary = stats.summary()
        assert summary["events"] == 3
        assert summary["window"] == 2
        assert summary["error_rate"] == 0.0

    def test_rolling_stats_rejects_bad_window(self):
        with pytest.raises(ValueError):
            tele.RollingStats(window=0)
