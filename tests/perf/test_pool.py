"""Tests for the persistent campaign worker pool.

The pool's contract: workers are forked once and reused across ``run``
calls; chunk outcomes come back in chunk order regardless of which
worker ran what; a dead worker breaks the pool loudly (the campaign
layer then falls back in-process); task errors surface as
:class:`PoolTaskError` without killing workers; and what reaches a
worker is its chunk's payloads, nothing else of the caller's.
"""

import multiprocessing.connection
import random
from multiprocessing.reduction import ForkingPickler

import pytest

from repro.config.store import ConfigStore, copy_route_map_closure
from repro.perf import campaign, pool
from repro.perf.campaign import _run_chunk
from repro.synth import generate_campus_corpus
from repro.synth.builders import PrefixPool, crossing_acl, shadowed_acl

pytestmark = pytest.mark.skipif(
    not pool.fork_available(), reason="fork start method unavailable"
)


def _acls(seed=11, count=8):
    rng = random.Random(seed)
    prefix_pool = PrefixPool(rng)
    out = []
    for idx in range(count):
        if idx % 2:
            out.append(
                crossing_acl(f"X{idx}", rng, prefix_pool, permits=3, denies=3)
            )
        else:
            out.append(shadowed_acl(f"S{idx}", rng, prefix_pool, permits=4))
    return out


@pytest.fixture
def two_workers():
    p = pool.PersistentPool(2)
    try:
        yield p
    finally:
        p.close()


class TestPersistentPool:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            pool.PersistentPool(0)

    def test_run_matches_inline_chunks(self, two_workers):
        acls = _acls()
        chunks = [acls[:3], acls[3:5], acls[5:]]
        outcomes = two_workers.run("acl-overlap", chunks, None, True)
        expected = [_run_chunk("acl-overlap", chunk) for chunk in chunks]
        assert outcomes == expected

    def test_results_come_back_in_chunk_order(self, two_workers):
        # Uneven chunks so the two workers finish out of lockstep.
        acls = _acls(count=9)
        chunks = [acls[:6], [acls[6]], [acls[7]], [acls[8]]]
        outcomes = two_workers.run("acl-overlap", chunks, None, True)
        names = [r.name for results, _ in outcomes for r in results]
        assert names == [acl.name for acl in acls]

    def test_workers_survive_across_runs(self, two_workers):
        chunks = [[acl] for acl in _acls(count=4)]
        two_workers.run("acl-overlap", chunks, None, True)
        pids = sorted(w.process.pid for w in two_workers._workers)
        two_workers.run("acl-overlap", chunks, None, True)
        assert sorted(w.process.pid for w in two_workers._workers) == pids
        assert two_workers.size == 2

    def test_task_error_reports_lowest_chunk(self, two_workers):
        with pytest.raises(pool.PoolTaskError, match="chunk 0"):
            two_workers.run("no-such-kind", [[1], [2], [3]], None, True)
        # Workers survive task errors: the pool still runs real work.
        outcomes = two_workers.run(
            "acl-overlap", [[acl] for acl in _acls(count=2)], None, True
        )
        assert len(outcomes) == 2

    def test_dead_worker_breaks_and_closes_the_pool(self, two_workers):
        two_workers.ensure_workers(2)
        victim = two_workers._workers[0].process
        victim.terminate()
        victim.join()
        with pytest.raises(pool.PoolBrokenError):
            two_workers.run(
                "acl-overlap", [[acl] for acl in _acls(count=4)], None, True
            )
        assert two_workers.closed
        with pytest.raises(pool.PoolBrokenError, match="closed"):
            two_workers.run("acl-overlap", [[_acls(count=1)[0]]], None, True)

    def test_grow_raises_target_only(self, two_workers):
        two_workers.grow(1)
        assert two_workers.target == 2
        two_workers.grow(5)
        assert two_workers.target == 5


class TestSharedPool:
    @pytest.fixture(autouse=True)
    def _clean_shared(self):
        pool.shutdown_shared_pool()
        yield
        pool.shutdown_shared_pool()

    def test_reused_and_grown(self):
        first = pool.get_shared_pool(1)
        second = pool.get_shared_pool(3)
        assert second is first
        assert first.target == 3

    def test_broken_pool_replaced(self):
        first = pool.get_shared_pool(1)
        first.close()
        second = pool.get_shared_pool(1)
        assert second is not first
        assert not second.closed

    def test_warm_pool_forks_eagerly(self):
        warmed = pool.warm_pool(2)
        assert warmed.size == 2


class TestCampaignFallback:
    @pytest.fixture(autouse=True)
    def _clean_shared(self):
        pool.shutdown_shared_pool()
        yield
        pool.shutdown_shared_pool()

    def test_broken_pool_falls_back_in_process(self):
        acls = _acls()
        expected = campaign.acl_overlap_campaign(acls, workers=1, chunks=2)
        shared = pool.warm_pool(2)
        for worker in shared._workers:
            worker.process.terminate()
            worker.process.join()
        result = campaign.acl_overlap_campaign(
            acls, workers=2, chunks=2, pool="persistent"
        )
        assert result.results == expected.results
        assert result.counters == expected.counters
        assert shared.closed

    def test_task_error_reraises_real_exception(self, monkeypatch):
        # An ACL overlap task over None raises inside a worker and again
        # in-process; the pooled run must surface the *real* error, not
        # the PoolTaskError wrapper the pool raised.
        pool_errors = []
        real_run = pool.PersistentPool.run

        def run(self, *args):
            try:
                return real_run(self, *args)
            except pool.PoolTaskError as exc:
                pool_errors.append(str(exc))
                raise

        monkeypatch.setattr(pool.PersistentPool, "run", run)
        with pytest.raises(AttributeError):
            campaign.acl_overlap_campaign(
                [None, None], workers=2, chunks=2, pool="persistent"
            )
        assert len(pool_errors) == 1
        assert "AttributeError" in pool_errors[0]


class TestShippedBytes:
    @pytest.fixture(autouse=True)
    def _clean_shared(self):
        pool.shutdown_shared_pool()
        yield
        pool.shutdown_shared_pool()

    @staticmethod
    def _shipped(monkeypatch, route_maps, store):
        """Bytes the parent sends down worker pipes for one pooled campaign."""
        pool.warm_pool(2)
        sizes = []
        real_send = multiprocessing.connection.Connection.send

        def send(self, obj):
            sizes.append(len(ForkingPickler.dumps(obj)))
            return real_send(self, obj)

        monkeypatch.setattr(multiprocessing.connection.Connection, "send", send)
        result = campaign.route_map_overlap_campaign(
            route_maps, store, workers=2, chunks=2, pool="persistent"
        )
        monkeypatch.undo()
        assert result.chunks == 2
        return sum(sizes), result.results

    def test_route_map_campaign_ships_nothing_of_unrelated_acls(
        self, monkeypatch
    ):
        # The campus store holds 400 ACLs that no route map reads; the
        # lean store holds only the maps and the lists they match on.
        corpus = generate_campus_corpus(total_acls=400, route_maps=6)
        lean = ConfigStore()
        for route_map in corpus.route_maps:
            copy_route_map_closure(corpus.store, lean, route_map)
        assert len(list(corpus.store.acls())) == 400

        lean_bytes, lean_results = self._shipped(
            monkeypatch, corpus.route_maps, lean
        )
        full_bytes, full_results = self._shipped(
            monkeypatch, corpus.route_maps, corpus.store
        )
        assert full_results == lean_results
        assert 0 < full_bytes <= lean_bytes
