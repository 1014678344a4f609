"""Tests for the parallel campaign runner.

The runner's contract: a process-pool campaign is *indistinguishable*
from a serial one — same results in the same order, same published
counters — and the chunk partition depends only on the payload count,
never on scheduling or the worker count.
"""

import random
import threading

import pytest

from repro import obs
from repro.overlap import acl_overlap_report
from repro.perf import campaign
from repro.synth.builders import PrefixPool, crossing_acl, shadowed_acl


def _acls(seed=11, count=12):
    rng = random.Random(seed)
    pool = PrefixPool(rng)
    out = []
    for idx in range(count):
        if idx % 2:
            out.append(crossing_acl(f"X{idx}", rng, pool, permits=3, denies=3))
        else:
            out.append(shadowed_acl(f"S{idx}", rng, pool, permits=4))
    return out


class TestChunkBounds:
    def test_partition_is_contiguous_and_complete(self):
        for count in (0, 1, 5, 12, 13):
            for chunk_count in (1, 2, 4, 7):
                bounds = campaign._chunk_bounds(count, chunk_count)
                flat = [i for lo, hi in bounds for i in range(lo, hi)]
                assert flat == list(range(count)), (count, chunk_count)

    def test_no_empty_chunks_when_chunks_exceed_items(self):
        # chunk_count > count used to emit empty chunks that idled
        # workers; surplus chunks are dropped instead.
        assert campaign._chunk_bounds(1, 4) == [(0, 1)]
        assert campaign._chunk_bounds(3, 8) == [(0, 1), (1, 2), (2, 3)]
        for count in (1, 2, 5):
            for chunk_count in (1, 3, 16):
                bounds = campaign._chunk_bounds(count, chunk_count)
                assert all(hi > lo for lo, hi in bounds), (count, chunk_count)
                assert len(bounds) == min(count, chunk_count)

    def test_empty_campaign_has_no_chunks(self):
        assert campaign._chunk_bounds(0, 4) == []

    def test_independent_of_worker_count(self):
        # The partition is a pure function of (count, chunks): nothing
        # about scheduling can change which payloads share a cache.
        assert campaign._chunk_bounds(100, 4) == campaign._chunk_bounds(100, 4)

    def test_balanced(self):
        sizes = [hi - lo for lo, hi in campaign._chunk_bounds(10, 4)]
        assert max(sizes) - min(sizes) <= 1


class TestRunCampaign:
    def test_results_match_direct_serial_map(self):
        acls = _acls()
        result = campaign.acl_overlap_campaign(acls, workers=1, chunks=3)
        assert list(result.results) == [acl_overlap_report(acl) for acl in acls]

    def test_serial_and_parallel_identical_results_and_counters(self):
        acls = _acls()

        def run(workers):
            recorder = obs.Recorder(capture_spans=False)
            with obs.recording(recorder):
                result = campaign.acl_overlap_campaign(
                    acls, workers=workers, chunks=4
                )
            return result.results, dict(recorder.counters)

        serial_results, serial_counters = run(1)
        parallel_results, parallel_counters = run(2)
        assert serial_results == parallel_results
        assert serial_counters == parallel_counters
        assert serial_counters.get("cache.hits", 0) > 0

    def test_other_threads_counts_stay_out_of_chunk_counters(self, monkeypatch):
        # The chunk's private recorder is this thread's scope, not a swap
        # of the process recorder: a thread counting while an in-process
        # chunk runs reaches the process recorder and never the chunk's.
        started, counted = threading.Event(), threading.Event()

        def probe(payload):
            started.set()
            assert counted.wait(timeout=60)
            obs.count("chunk.task")
            return payload

        def other():
            assert started.wait(timeout=60)
            for _ in range(100):
                obs.count("other.thread")
            counted.set()

        monkeypatch.setitem(campaign._TASKS, "probe", probe)
        thread = threading.Thread(target=other)
        with obs.recording(obs.Recorder(capture_spans=False)) as rec:
            thread.start()
            result = campaign.run_campaign("probe", [7], pool="serial")
            thread.join()
        assert result.results == (7,)
        assert result.counters["chunk.task"] == 1
        assert "other.thread" not in result.counters
        assert rec.counter("other.thread") == 100
        assert rec.counter("chunk.task") == 1

    def test_serial_campaign_leaks_nothing_into_parent_caches(self):
        from repro.perf import cache as perf

        acl = _acls(count=2)[0]
        acl_overlap_report(acl)  # warm the parent's tables
        before = perf.cache_totals()
        campaign.acl_overlap_campaign(_acls(), workers=1, chunks=2)
        assert perf.cache_totals() == before

    def test_counters_depend_on_chunking_not_workers(self):
        acls = _acls()

        def counters(workers, chunks):
            recorder = obs.Recorder(capture_spans=False)
            with obs.recording(recorder):
                campaign.acl_overlap_campaign(acls, workers=workers, chunks=chunks)
            return dict(recorder.counters)

        assert counters(1, 4) == counters(2, 4)
        assert counters(1, 1) != counters(1, 4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign kind"):
            campaign.run_campaign("no-such-kind", [1])

    def test_single_item_campaign_uses_one_worker_and_chunk(self):
        acls = _acls(count=1)
        result = campaign.acl_overlap_campaign(acls, workers=4, chunks=4)
        assert result.workers == 1
        assert result.chunks == 1
        assert list(result.results) == [acl_overlap_report(acls[0])]

    def test_empty_campaign_runs_no_chunks(self):
        result = campaign.acl_overlap_campaign([], workers=4, chunks=4)
        assert result.results == ()
        assert result.chunks == 0


class TestPoolModes:
    def test_resolve_rejects_unknown_mode(self):
        for mode in ("threads", "spawn"):
            with pytest.raises(ValueError, match="unknown pool mode"):
                campaign.resolve_pool_mode(mode)

    def test_resolve_defaults_to_auto(self):
        assert campaign.resolve_pool_mode() == "auto"
        for mode in campaign.POOL_MODES:
            assert campaign.resolve_pool_mode(mode) == mode

    def test_serial_mode_forces_one_worker(self):
        acls = _acls(count=4)
        result = campaign.acl_overlap_campaign(acls, workers=4, pool="serial")
        assert result.workers == 1

    @pytest.mark.skipif(
        not campaign._pool.fork_available(), reason="fork unavailable"
    )
    def test_persistent_pool_identical_to_serial(self):
        # Forced persistent mode exercises real forked workers even on a
        # one-core host, where auto would (correctly) stay in-process.
        acls = _acls()

        def run(pool_mode, workers):
            recorder = obs.Recorder(capture_spans=False)
            with obs.recording(recorder):
                result = campaign.acl_overlap_campaign(
                    acls, workers=workers, chunks=4, pool=pool_mode
                )
            return result.results, dict(recorder.counters)

        serial_results, serial_counters = run("serial", 1)
        pooled_results, pooled_counters = run("persistent", 2)
        assert serial_results == pooled_results
        assert serial_counters == pooled_counters

    @pytest.mark.skipif(
        not campaign._pool.fork_available(), reason="fork unavailable"
    )
    def test_callers_cache_counters_do_not_depend_on_the_engine(self):
        # An in-process chunk must hand the caller back its warm tables,
        # as a pool chunk (which never touches them) does.
        from repro.perf import cache as perf
        from repro.synth import generate_campus_corpus

        acls = generate_campus_corpus(total_acls=300, route_maps=1).acls

        def callers_counters(pool_mode):
            perf.clear_caches()
            before = perf.cache_totals()
            for acl in acls[:40]:
                acl_overlap_report(acl)
            campaign.acl_overlap_campaign(
                acls, workers=2, chunks=4, pool=pool_mode
            )
            for acl in acls[:40]:
                acl_overlap_report(acl)
            after = perf.cache_totals()
            return [after[n] - before[n] for n in ("cache.hits", "cache.misses")]

        assert callers_counters("serial") == callers_counters("persistent")

    @pytest.mark.skipif(
        not campaign._pool.fork_available(), reason="fork unavailable"
    )
    def test_persistent_calibration_still_covers_every_payload(self):
        # No pinned chunks: the probe chunk + calibrated rest must cover
        # the payload list exactly once, in order.
        acls = _acls()
        result = campaign.acl_overlap_campaign(
            acls, workers=2, pool="persistent"
        )
        assert list(result.results) == [acl_overlap_report(a) for a in acls]
        assert result.chunks >= 2  # the probe plus at least one rest chunk

    def test_choose_engine_degrades_without_parallel_hardware(
        self, monkeypatch
    ):
        assert campaign._choose_engine("serial", 4) == "inline"
        assert campaign._choose_engine("auto", 1) == "inline"
        # Without fork the persistent pool falls back to in-process.
        monkeypatch.setattr(campaign._pool, "fork_available", lambda: False)
        assert campaign._choose_engine("persistent", 4) == "inline"
        assert campaign._choose_engine("auto", 4) == "inline"

    def test_task_kinds_lists_the_registry(self):
        kinds = campaign.task_kinds()
        assert "acl-overlap" in kinds
        assert "figure3-eval" in kinds


class TestStudies:
    def test_campus_study_scales_down_and_matches_serial(self):
        serial = campaign.campus_overlap_study(
            workers=1, chunks=3, total_acls=80, route_maps=8
        )
        pooled = campaign.campus_overlap_study(
            workers=2, chunks=3, total_acls=80, route_maps=8
        )
        assert serial == pooled
        acl_stats, _, triple, device_count = serial
        assert acl_stats.total == 80
        assert device_count == 1421
        assert triple.overlap_count == 3

    @pytest.mark.skipif(
        not campaign._pool.fork_available(), reason="fork unavailable"
    )
    def test_cloud_study_on_workers_matches_serial(self):
        # Route-map and chain payloads carry their closures; forced
        # persistent workers must reproduce the in-process study.
        serial = campaign.cloud_overlap_study(workers=1, chunks=3, scale=0.1)
        pooled = campaign.cloud_overlap_study(
            workers=2, chunks=3, scale=0.1, pool="persistent"
        )
        assert serial == pooled
        chains, with_overlaps, _ = serial[2]
        assert chains > 0 and with_overlaps > 0

    def test_evaluation_campaign_reproduces_figure4(self):
        result = campaign.evaluation_campaign(runs=1, workers=1, chunks=1)
        rows, policies = result.results[0]
        by_name = {name: (maps, calls) for name, maps, calls, _ in rows}
        assert set(by_name) == {"M", "R1", "R2"}
        assert all(holds for holds in policies.values())


class TestCli:
    def test_campaign_campus_cli(self, capsys):
        from repro.cli import main

        code = main(
            [
                "campaign",
                "campus",
                "--workers",
                "1",
                "--chunks",
                "2",
                "--scale",
                "0.005",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ACL" in out or "acl" in out

    def test_campaign_eval_benchmark_cli(self, capsys):
        from repro.cli import main

        code = main(["campaign", "eval", "--benchmark", "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "serial:" in out and "parallel:" in out
