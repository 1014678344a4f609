"""Tests for the consistent-hash shard router and crash recovery."""

import gc
import json
import os
import subprocess
import sys
import threading
import warnings

import pytest

from repro.serve.loadgen import generate_workload, run_checks, run_loadgen
from repro.serve.service import ServeRequest, ServeResponse
from repro.serve.shard import (
    ClusterError,
    HashRing,
    ShardedCluster,
    ShardProcess,
    run_sharded_loadgen,
)


class TestHashRing:
    def test_deterministic_across_instances(self):
        ids = [s.session_id for s in generate_workload(16, 1, 2025)]
        first = HashRing(4).assignments(ids)
        second = HashRing(4).assignments(ids)
        assert first == second

    def test_spreads_the_loadgen_workload(self):
        ids = [s.session_id for s in generate_workload(16, 1, 2025)]
        placement = HashRing(2).assignments(ids)
        assert set(placement.values()) == {0, 1}

    def test_resize_moves_only_some_sessions(self):
        ids = [s.session_id for s in generate_workload(32, 1, 2025)]
        two = HashRing(2).assignments(ids)
        three = HashRing(3).assignments(ids)
        moved = sum(1 for sid in ids if two[sid] != three[sid])
        # Consistent hashing: growing the ring must not reshuffle
        # everything (a modulo placement would move ~2/3 of them).
        assert 0 < moved < len(ids)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, replicas=0)


class TestShardedCampaign:
    def test_sharded_matches_serial(self):
        sharded = run_sharded_loadgen(
            sessions=4, requests_per_session=2, shards=2,
            workers_per_shard=2, seed=2025,
        )
        serial = run_loadgen(4, 2, workers=1, seed=2025, telemetry=False)
        assert sharded.unresolved == 0
        assert sharded.outcomes.get("internal-error", 0) == 0
        assert sharded.fingerprint == serial.fingerprint
        assert sum(sharded.placement.values()) == 4

    def test_kill_and_restore_matches_serial(self):
        chaos = run_sharded_loadgen(
            sessions=4, requests_per_session=2, shards=2,
            workers_per_shard=2, seed=2025, kill_and_restart=True,
        )
        serial = run_loadgen(4, 2, workers=1, seed=2025, telemetry=False)
        assert chaos.kills == 1
        assert chaos.restarts == 1
        assert chaos.restored_sessions >= 1
        assert chaos.unresolved == 0
        assert chaos.fingerprint == serial.fingerprint

    def test_shard_check_through_the_runner(self, tmp_path):
        run = run_checks(
            ["shard"], 4, 2, workers=2, seed=2025,
            store_root=str(tmp_path / "stores"),
        )
        result = run.checks["shard"]
        assert result.ok, result.failures
        assert list(result.legs) == ["serial", "pooled", "sharded", "chaos"]
        chaos = result.legs["chaos"]
        assert chaos.restarts >= 1 and chaos.restored_sessions >= 1
        assert result.legs["sharded"].kills == 0
        assert run.report is result.legs["pooled"]
        assert run.campaigns == 4
        assert sorted(p.name for p in (tmp_path / "stores").iterdir()) == [
            "chaos",
            "sharded",
        ]

    def test_cli_shard_check_writes_the_shard_block(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "BENCH_serve.json"
        code = main(
            [
                "loadgen", "--sessions", "2", "--workers", "2",
                "--check", "shard", "--store-dir", str(tmp_path / "stores"),
                "--no-telemetry", "--output", str(out),
            ]
        )
        assert code == 0
        assert "check shard OK" in capsys.readouterr().out
        # The block CI extracts as BENCH_shard.json.
        block = json.loads(out.read_text())["legs"]["checks"]["shard"]
        assert block["ok"] is True
        assert block["legs"]["chaos"]["restored_sessions"] >= 1
        assert (tmp_path / "stores" / "chaos").is_dir()


class TestCrashRecoveryProtocol:
    def test_resent_seq_is_answered_from_the_journal(self, tmp_path):
        workload = generate_workload(4, 1, 2025)
        cluster = ShardedCluster(
            shards=2, workers_per_shard=2,
            store_root=str(tmp_path / "cluster"),
        )
        with cluster:
            calls = {}
            for spec in workload:
                cluster.open(spec.session_id, spec.config_text)
            for spec in workload:
                calls[spec.session_id] = cluster.submit(
                    ServeRequest(spec.session_id, spec.intents[0], spec.target)
                )
            originals = {
                sid: call.wait(60.0) for sid, call in calls.items()
            }
            assert all(p is not None for p in originals.values())

            victim_sid = workload[0].session_id
            shard = cluster.shard_of(victim_sid)
            cluster.kill_shard(shard)
            restored = cluster.restart_shard(shard)
            assert restored >= 1

            # Re-send an already-resolved seq directly: the shard must
            # answer from its journal, not run the cycle again.
            resent = cluster.procs[shard].send(
                ServeRequest(
                    victim_sid,
                    workload[0].intents[0],
                    workload[0].target,
                    seq=0,
                ).to_command()
            ).wait(60.0)
            assert resent is not None
            assert resent.get("recovered") is True
            assert (
                ServeResponse.from_dict(resent).outcome_key()
                == ServeResponse.from_dict(originals[victim_sid]).outcome_key()
            )

    def test_a_request_refused_by_a_dead_shard_is_never_applied(self, tmp_path):
        spec = generate_workload(1, 2, 2025)[0]
        cluster = ShardedCluster(
            shards=1, workers_per_shard=1, store_root=str(tmp_path / "cluster")
        )
        with cluster:
            cluster.open(spec.session_id, spec.config_text)
            cluster.kill_shard(0)
            with pytest.raises(ClusterError):
                cluster.submit(
                    ServeRequest(spec.session_id, spec.intents[0], spec.target)
                )
            cluster.restart_shard(0)
            reply = cluster.submit(
                ServeRequest(spec.session_id, spec.intents[1], spec.target)
            ).wait(60.0)
        # The refused request was neither re-sent at the restart nor
        # left a gap in the router's sequence numbers.
        assert reply is not None
        assert reply["seq"] == 0, reply

    def test_idempotent_open_after_restore(self, tmp_path):
        workload = generate_workload(2, 1, 2025)
        cluster = ShardedCluster(
            shards=1, workers_per_shard=2,
            store_root=str(tmp_path / "cluster"),
        )
        with cluster:
            for spec in workload:
                cluster.open(spec.session_id, spec.config_text)
            cluster.kill_shard(0)
            cluster.restart_shard(0)
            # The router's resend already re-opened nothing (opens were
            # answered pre-kill); a fresh idempotent open must succeed
            # against the restored session instead of failing duplicate.
            payload = cluster.open(workload[0].session_id)
            assert payload.get("recovered") is True


class TestShardProcessLifecycle:
    def test_kill_restart_stop_leaves_no_pipe_open(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            shard = ShardProcess(0, str(tmp_path / "shard"), workers=1)
            shard.spawn()
            assert shard.send({"op": "stats"}).wait(60.0) is not None
            shard.kill()
            shard.restart()
            assert shard.send({"op": "stats"}).wait(60.0) is not None
            shard.stop()
            assert not shard.alive
            for thread in threading.enumerate():
                if thread.name == "shard-0-reader":
                    thread.join(10.0)
            del shard
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


class TestRouterSurface:
    """Drive ``clarify serve --shards N`` over a real stdin/stdout pipe.

    The library tests above talk to :class:`ShardedCluster` directly;
    this one exercises the CLI router itself — the tag swap between
    client tags and shard wire tags happens only there.
    """

    def test_jsonl_round_trip_with_chaos_ops(self, tmp_path):
        spec = generate_workload(1, 1, 2025)[0]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [env.get("PYTHONPATH"), "src"])
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--shards", "2", "--workers", "2",
                "--store-dir", str(tmp_path / "router"),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        try:

            def send(**cmd):
                proc.stdin.write(json.dumps(cmd) + "\n")
                proc.stdin.flush()
                return json.loads(proc.stdout.readline())

            opened = send(
                op="open", tag="t-open",
                session=spec.session_id, config=spec.config_text,
            )
            assert opened["ok"] is True
            assert opened["tag"] == "t-open"

            first = send(
                op="request", tag="t-req",
                session=spec.session_id,
                intent=spec.intents[0], target=spec.target,
            )
            assert first["ok"] is True
            assert first["tag"] == "t-req"
            assert first["outcome"] == "applied"

            killed = send(op="kill-shard", tag="t-kill", shard=0)
            assert killed["ok"] is True
            restarted = send(op="restart-shard", tag="t-up", shard=0)
            assert restarted["ok"] is True

            # Out-of-range and non-integer shard indices are refused
            # replies: no crash, and no shard is killed by wrap-around.
            for bad in (7, -1, 1.5, float("inf")):
                for op in ("kill-shard", "restart-shard"):
                    refused = send(op=op, tag="t-bad", shard=bad)
                    assert refused["ok"] is False, (op, bad)
                    assert refused["tag"] == "t-bad"

            stats = send(op="stats", tag="t-stats")
            assert stats["ok"] is True
            assert stats["kills"] == 1

            assert send(op="quit", tag="t-quit")["ok"] is True
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdin.close()
            proc.stdout.close()
