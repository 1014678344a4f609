"""The obs core: span nesting, timing, counters, thread safety, no-op path."""

import threading
import time

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _clean_registry():
    # Every test starts and ends with the no-op default recorder.
    obs.uninstall()
    yield
    obs.uninstall()


class TestSpans:
    def test_nesting_builds_a_tree(self):
        with obs.recording() as rec:
            with obs.span("outer"):
                with obs.span("middle"):
                    with obs.span("leaf.a"):
                        pass
                    with obs.span("leaf.b"):
                        pass
        assert len(rec.roots) == 1
        outer = rec.roots[0]
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["middle"]
        assert [c.name for c in outer.children[0].children] == ["leaf.a", "leaf.b"]

    def test_sibling_roots(self):
        with obs.recording() as rec:
            with obs.span("first"):
                pass
            with obs.span("second"):
                pass
        assert [root.name for root in rec.roots] == ["first", "second"]

    def test_timing_is_positive_and_parent_covers_child(self):
        with obs.recording() as rec:
            with obs.span("parent"):
                with obs.span("child"):
                    time.sleep(0.002)
        parent = rec.roots[0]
        child = parent.children[0]
        assert child.duration_s >= 0.002
        assert parent.duration_s >= child.duration_s

    def test_attrs_and_annotate(self):
        with obs.recording() as rec:
            with obs.span("op", target="ISP_OUT") as sp:
                sp.annotate(position=3)
        span = rec.roots[0]
        assert span.attrs == {"target": "ISP_OUT", "position": 3}

    def test_name_is_a_legal_attr_key(self):
        with obs.recording() as rec:
            with obs.span("op", name="shadow"):
                pass
        assert rec.roots[0].attrs == {"name": "shadow"}

    def test_exception_annotates_and_propagates(self):
        with obs.recording() as rec:
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("no")
        span = rec.roots[0]
        assert span.attrs["error"] == "ValueError"
        assert span.duration_s is not None  # closed despite the raise

    def test_find_walks_depth_first(self):
        with obs.recording() as rec:
            with obs.span("a"):
                with obs.span("x"):
                    pass
                with obs.span("a"):
                    pass
        assert len(rec.find("a")) == 2
        assert len(rec.find("x")) == 1
        assert rec.find("missing") == []

    def test_capture_spans_false_keeps_metrics_only(self):
        rec = obs.Recorder(capture_spans=False)
        with obs.recording(rec):
            with obs.span("ignored"):
                obs.count("kept")
        assert rec.roots == []
        assert rec.counter("kept") == 1


class TestMetrics:
    def test_counter_aggregation(self):
        with obs.recording() as rec:
            obs.count("llm.calls")
            obs.count("llm.calls")
            obs.count("llm.calls", 3)
        assert rec.counter("llm.calls") == 5
        assert rec.counter("never") == 0

    def test_histogram_summary(self):
        with obs.recording() as rec:
            for value in (4, 1, 7):
                obs.observe("depth", value)
        hist = rec.histogram("depth")
        assert hist.count == 3
        assert hist.min == 1
        assert hist.max == 7
        assert hist.total == 12
        assert hist.mean == 4.0

    def test_empty_histogram(self):
        rec = obs.Recorder()
        hist = rec.histogram("nothing")
        assert hist.count == 0
        assert hist.mean == 0.0

    def test_histogram_merge(self):
        a = obs.Histogram()
        b = obs.Histogram()
        for value in (1, 5):
            a.observe(value)
        b.observe(10)
        a.merge(b)
        assert a.to_dict() == {
            "count": 3,
            "total": 16,
            "min": 1,
            "max": 10,
            "samples": [1, 5, 10],
            "stride": 1,
        }

    def test_quantile_empty_histogram_is_none(self):
        hist = obs.Histogram()
        assert hist.quantile(0.5) is None
        assert hist.quantile(0.0) is None

    def test_quantile_single_sample(self):
        hist = obs.Histogram()
        hist.observe(7)
        assert hist.quantile(0.0) == 7.0
        assert hist.quantile(0.5) == 7.0
        assert hist.quantile(1.0) == 7.0

    def test_quantile_interpolates(self):
        hist = obs.Histogram()
        for value in (10, 20, 30, 40):
            hist.observe(value)
        assert hist.quantile(0.0) == 10.0
        assert hist.quantile(0.5) == 25.0
        assert hist.quantile(1.0) == 40.0

    def test_quantile_rejects_out_of_range(self):
        hist = obs.Histogram()
        hist.observe(1)
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)

    def test_reservoir_is_bounded_and_deterministic(self):
        from repro.obs.metrics import MAX_SAMPLES

        a = obs.Histogram()
        b = obs.Histogram()
        for value in range(5 * MAX_SAMPLES):
            a.observe(value)
            b.observe(value)
        assert len(a.samples) <= MAX_SAMPLES
        # Same observation sequence, same retained samples.
        assert a.samples == b.samples
        assert a.count == 5 * MAX_SAMPLES
        # The decimated quantiles still track the true distribution.
        assert a.quantile(0.5) == pytest.approx(
            2.5 * MAX_SAMPLES, rel=0.05
        )

    def test_time_spans_records_duration_histograms(self):
        rec = obs.Recorder(capture_spans=False, time_spans=True)
        with obs.recording(rec):
            with obs.span("phase.one"):
                time.sleep(0.002)
        assert rec.roots == []  # still no span forest
        hist = rec.histogram("span.phase.one")
        assert hist.count == 1
        assert hist.min >= 0.002

    def test_time_spans_with_captured_spans_too(self):
        rec = obs.Recorder(capture_spans=True, time_spans=True)
        with obs.recording(rec):
            with obs.span("phase.two"):
                pass
        assert len(rec.roots) == 1
        assert rec.histogram("span.phase.two").count == 1

    def test_reset(self):
        with obs.recording() as rec:
            with obs.span("s"):
                obs.count("c")
                obs.observe("h", 1)
        rec.reset()
        assert rec.roots == []
        assert rec.counters == {}
        assert rec.histograms == {}


class TestThreadSafety:
    def test_concurrent_counts_do_not_lose_updates(self):
        rec = obs.Recorder()
        n, threads = 2000, 8

        def bump():
            for _ in range(n):
                rec.count("shared")

        workers = [threading.Thread(target=bump) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert rec.counter("shared") == n * threads

    def test_span_stacks_are_per_thread(self):
        rec = obs.Recorder()

        def trace(tag):
            with rec.span(f"root.{tag}"):
                with rec.span(f"child.{tag}"):
                    time.sleep(0.001)

        workers = [
            threading.Thread(target=trace, args=(idx,)) for idx in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        # Each thread produced its own root with exactly one child.
        assert len(rec.roots) == 4
        for root in rec.roots:
            assert len(root.children) == 1
            assert root.children[0].name == f"child.{root.name.split('.')[1]}"


class TestRegistry:
    def test_default_is_null_recorder(self):
        assert isinstance(obs.get_recorder(), obs.NullRecorder)
        assert not obs.enabled()

    def test_null_recorder_hooks_are_inert(self):
        obs.count("anything", 5)
        obs.observe("anything", 5)
        with obs.span("anything") as sp:
            sp.annotate(ignored=True)
        rec = obs.get_recorder()
        assert rec.counter("anything") == 0
        assert rec.find("anything") == []

    def test_install_and_uninstall(self):
        rec = obs.install()
        assert obs.get_recorder() is rec
        assert obs.enabled()
        obs.count("x")
        assert rec.counter("x") == 1
        obs.uninstall()
        assert isinstance(obs.get_recorder(), obs.NullRecorder)

    def test_recording_restores_previous(self):
        outer = obs.install()
        with obs.recording() as inner:
            assert obs.get_recorder() is inner
            obs.count("inner.only")
        assert obs.get_recorder() is outer
        assert outer.counter("inner.only") == 0

    def test_recording_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.recording():
                raise RuntimeError
        assert isinstance(obs.get_recorder(), obs.NullRecorder)

    def test_disabled_overhead_is_negligible(self):
        # 100k no-op counts + 10k no-op spans in well under a second:
        # the hooks must stay cheap enough to leave in hot loops.
        start = time.perf_counter()
        for _ in range(100_000):
            obs.count("hot.loop")
        for _ in range(10_000):
            with obs.span("hot.span"):
                pass
        assert time.perf_counter() - start < 1.0


class TestScope:
    """The request scope: trace, journal and stand-in recorder."""

    def test_fields_not_passed_are_inherited(self):
        trace = obs.mint_trace()
        journal = obs.JournalRecorder()
        with obs.scope(trace=trace):
            with obs.scope(journal=journal):
                assert obs.current_trace() is trace
                assert obs.journal_enabled()
            assert not obs.journal_enabled()
            assert obs.current_trace() is trace

    def test_none_switches_off_an_inherited_field(self):
        with obs.scope(trace=obs.mint_trace(), journal=obs.JournalRecorder()):
            with obs.scope(trace=None):
                assert obs.current_trace() is None
                assert obs.journal_enabled()
            with obs.scope(journal=None):
                assert not obs.journal_enabled()
                assert obs.current_trace() is not None

    def test_nested_scopes_restore_on_exit_and_on_error(self):
        outer, inner = obs.mint_trace(), obs.mint_trace()
        with obs.scope(trace=outer):
            with pytest.raises(RuntimeError):
                with obs.scope(trace=inner, journal=obs.JournalRecorder()):
                    assert obs.current_trace() is inner
                    raise RuntimeError
            assert obs.current_trace() is outer
            assert not obs.journal_enabled()
        assert obs.current_trace() is None

    def test_trace_and_journal_are_per_thread(self):
        seen = {}

        def look():
            seen["trace"] = obs.current_trace()
            seen["journal"] = obs.journal_enabled()
            obs.event("cycle.start", target="other thread")

        journal = obs.JournalRecorder()
        with obs.scope(trace=obs.mint_trace(), journal=journal):
            thread = threading.Thread(target=look)
            thread.start()
            thread.join()
        assert seen == {"trace": None, "journal": False}
        assert [e.type for e in journal.events] == ["journal.open"]

    def test_scoped_recorder_stands_in_for_this_thread_only(self):
        private = obs.Recorder()
        process = obs.install()

        def other():
            obs.count("other")

        with obs.scope(recorder=private):
            assert obs.get_recorder() is private
            obs.count("mine")
            obs.observe("h", 1.0)
            with obs.span("s"):
                pass
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
        assert obs.get_recorder() is process
        assert private.counters == {"mine": 1}
        assert private.histogram("h").count == 1
        assert [root.name for root in private.roots] == ["s"]
        assert process.counters == {"other": 1}
        assert process.roots == []
