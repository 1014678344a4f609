"""The perf-regression gate: snapshot diffing, tolerances, rendering."""

import json

import pytest

from repro import obs
from repro.obs import regress


def make_snapshot(counters=None, histograms=None):
    return {
        "version": obs.SNAPSHOT_VERSION,
        "counters": counters or {},
        "histograms": histograms or {},
        "spans": [],
    }


def timing_hist(values):
    hist = obs.Histogram()
    for value in values:
        hist.observe(value)
    return hist.to_dict()


class TestCounters:
    def test_identical_counters_pass(self):
        snap = make_snapshot({"llm.calls": 45, "clarify.cycles": 15})
        report = regress.compare_snapshots(snap, snap)
        assert report.ok
        assert all(r.status == regress.STATUS_OK for r in report.rows)

    def test_doubled_counter_regresses(self):
        base = make_snapshot({"llm.calls": 45})
        cur = make_snapshot({"llm.calls": 90})
        report = regress.compare_snapshots(base, cur)
        assert not report.ok
        (row,) = report.regressions
        assert row.name == "llm.calls"
        assert row.baseline == 45 and row.current == 90

    def test_decreased_counter_also_flags(self):
        # Fewer LLM calls is still a behaviour change the gate surfaces:
        # a silently shrinking workload usually means lost coverage.
        base = make_snapshot({"llm.calls": 45})
        cur = make_snapshot({"llm.calls": 20})
        assert not regress.compare_snapshots(base, cur).ok

    def test_added_and_removed_counters_warn_not_fail(self):
        base = make_snapshot({"old.counter": 1})
        cur = make_snapshot({"new.counter": 2})
        report = regress.compare_snapshots(base, cur)
        statuses = {row.name: row.status for row in report.rows}
        assert statuses["old.counter"] == regress.STATUS_REMOVED
        assert statuses["new.counter"] == regress.STATUS_ADDED
        assert report.ok  # presence changes are visible but non-blocking


class TestHistograms:
    def test_behavioural_histogram_count_is_exact(self):
        base = make_snapshot(histograms={"overlaps": timing_hist([1, 2, 3])})
        cur = make_snapshot(histograms={"overlaps": timing_hist([1, 2])})
        report = regress.compare_snapshots(base, cur)
        assert not report.ok
        (row,) = report.regressions
        assert row.name == "overlaps"

    def test_timing_histogram_ratio_bounded(self):
        base = make_snapshot(
            histograms={"span.clarify.request": timing_hist([0.10, 0.12])}
        )
        # 1.2x slower: inside the default 1.5x bound.
        ok_run = make_snapshot(
            histograms={"span.clarify.request": timing_hist([0.12, 0.14])}
        )
        assert regress.compare_snapshots(base, ok_run).ok
        # 2x slower: regression.
        slow = make_snapshot(
            histograms={"span.clarify.request": timing_hist([0.20, 0.24])}
        )
        report = regress.compare_snapshots(base, slow)
        assert not report.ok
        assert any("slower" in row.detail for row in report.regressions)

    def test_timing_speedup_never_regresses(self):
        base = make_snapshot(
            histograms={"span.clarify.request": timing_hist([0.2])}
        )
        fast = make_snapshot(
            histograms={"span.clarify.request": timing_hist([0.01])}
        )
        assert regress.compare_snapshots(base, fast).ok

    def test_timing_warn_only_downgrades(self):
        base = make_snapshot(
            histograms={"span.clarify.request": timing_hist([0.1])}
        )
        slow = make_snapshot(
            histograms={"span.clarify.request": timing_hist([1.0])}
        )
        report = regress.compare_snapshots(base, slow, timing_warn_only=True)
        assert report.ok
        assert report.warnings

    def test_sampleless_legacy_timing_is_skipped(self):
        legacy = {"count": 2, "total": 0.2, "min": 0.1, "max": 0.1}
        base = make_snapshot(histograms={"span.x": legacy})
        cur = make_snapshot(histograms={"span.x": timing_hist([10.0])})
        # mean still compares (10/0.1 > 1.5 → regression); p95 is skipped.
        report = regress.compare_snapshots(base, cur)
        p95_rows = [r for r in report.rows if r.name == "span.x.p95"]
        assert p95_rows[0].status == regress.STATUS_OK
        assert "skipped" in p95_rows[0].detail


class TestLoadingAndRendering:
    def test_load_snapshot_roundtrip(self, tmp_path):
        path = tmp_path / "snap.json"
        snap = make_snapshot({"llm.calls": 3})
        path.write_text(json.dumps(snap))
        assert regress.load_snapshot(str(path)) == snap

    def test_load_snapshot_missing_file(self, tmp_path):
        with pytest.raises(regress.SnapshotError, match="cannot read"):
            regress.load_snapshot(str(tmp_path / "missing.json"))

    def test_load_snapshot_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(regress.SnapshotError, match="not valid JSON"):
            regress.load_snapshot(str(path))

    def test_load_snapshot_wrong_shape(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"something": "else"}')
        with pytest.raises(regress.SnapshotError, match="counters"):
            regress.load_snapshot(str(path))

    def test_render_text_summarises(self):
        base = make_snapshot({"llm.calls": 45})
        cur = make_snapshot({"llm.calls": 90})
        report = regress.compare_snapshots(base, cur)
        text = regress.render_text(report)
        assert "regression" in text
        assert "45 -> 90" in text
        assert "1 regression" in text

    def test_render_text_verbose_shows_ok_rows(self):
        snap = make_snapshot({"llm.calls": 45})
        report = regress.compare_snapshots(snap, snap)
        assert "llm.calls" not in regress.render_text(report)
        assert "llm.calls" in regress.render_text(report, verbose=True)

    def test_render_json_is_valid(self):
        base = make_snapshot({"llm.calls": 45})
        cur = make_snapshot({"llm.calls": 90})
        data = json.loads(
            regress.render_json(regress.compare_snapshots(base, cur))
        )
        assert data["ok"] is False
        assert data["regressions"] == 1
        assert data["rows"][0]["name"] == "llm.calls"
        assert data["tolerances"] == {
            "timing_max_ratio": 1.5,
            "timing_warn_only": False,
        }


class TestEdgeCases:
    def test_zero_valued_baseline_counter_exact(self):
        base = make_snapshot({"serve.rejected": 0})
        cur = make_snapshot({"serve.rejected": 0})
        assert regress.compare_snapshots(base, cur).ok

    def test_zero_valued_baseline_counter_growth_regresses(self):
        base = make_snapshot({"serve.rejected": 0})
        cur = make_snapshot({"serve.rejected": 3})
        report = regress.compare_snapshots(base, cur)
        assert not report.ok
        (row,) = report.regressions
        assert row.baseline == 0.0 and row.current == 3.0

    def test_counter_only_in_current_is_added_not_regression(self):
        base = make_snapshot()
        cur = make_snapshot({"telemetry.new": 7})
        report = regress.compare_snapshots(base, cur)
        assert report.ok
        (row,) = report.rows
        assert row.status == regress.STATUS_ADDED
        assert row.baseline is None and row.current == 7.0

    def test_malformed_histogram_not_a_dict(self):
        base = make_snapshot(histograms={"overlaps": [1, 2, 3]})
        cur = make_snapshot(histograms={"overlaps": timing_hist([1.0])})
        with pytest.raises(regress.SnapshotError, match="malformed"):
            regress.compare_snapshots(base, cur)

    def test_malformed_histogram_in_current_side(self):
        base = make_snapshot(histograms={"overlaps": timing_hist([1.0])})
        cur = make_snapshot(histograms={"overlaps": "oops"})
        with pytest.raises(regress.SnapshotError, match="malformed"):
            regress.compare_snapshots(base, cur)

    def test_malformed_timing_histogram_dict_contents(self):
        bad = {"count": "three", "total": None}
        base = make_snapshot(histograms={"span.x": bad})
        cur = make_snapshot(histograms={"span.x": timing_hist([1.0])})
        with pytest.raises(regress.SnapshotError, match="span.x"):
            regress.compare_snapshots(base, cur)

    def test_schema_version_mismatch_raises(self):
        base = make_snapshot({"llm.calls": 1})
        cur = dict(make_snapshot({"llm.calls": 1}), version=1)
        with pytest.raises(
            regress.SnapshotError, match="schema_version mismatch"
        ):
            regress.compare_snapshots(base, cur)

    def test_schema_version_key_preferred_over_legacy_version(self):
        base = dict(make_snapshot({"llm.calls": 1}), schema_version=3)
        cur = dict(
            make_snapshot({"llm.calls": 1}), schema_version=3, version=2
        )
        # Same schema_version wins even though the legacy keys differ.
        assert regress.compare_snapshots(base, cur).ok

    def test_versionless_snapshots_compare(self):
        base = {"counters": {"llm.calls": 1}, "histograms": {}}
        cur = {"counters": {"llm.calls": 1}, "histograms": {}}
        assert regress.compare_snapshots(base, cur).ok

    def test_versionless_vs_versioned_mismatch(self):
        base = {"counters": {"llm.calls": 1}, "histograms": {}}
        cur = make_snapshot({"llm.calls": 1})
        with pytest.raises(
            regress.SnapshotError, match="schema_version mismatch"
        ):
            regress.compare_snapshots(base, cur)


class TestAgainstRealBaseline:
    def test_committed_baseline_is_self_consistent(self):
        import pathlib

        baseline = (
            pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "BASELINE_obs.json"
        )
        snap = regress.load_snapshot(str(baseline))
        report = regress.compare_snapshots(snap, snap)
        assert report.ok
        assert not report.warnings
