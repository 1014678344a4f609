"""The durable-cache serving differential: same outcomes, fewer calls."""

import io
import json

import pytest

from repro.cli import main
from repro.llm import BackendRouter, SimulatedLLM
from repro.serve import build_llm_stack, run_checks, run_loadgen


class TestBuildLlmStack:
    def test_default_stack_is_simulated_dedup(self):
        stack = build_llm_stack()
        assert stack.backend == "simulated"
        assert stack.cached is None
        assert stack.faulty is None
        assert stack.router is None
        assert stack.upstream_calls == 0

    def test_cache_layer_counts_upstream(self, tmp_path):
        stack = build_llm_stack(cache_dir=str(tmp_path))
        system = "TASK: route-map-synth\nWrite one stanza."
        prompt = (
            "Write a route-map stanza that permits routes with "
            "local-preference 300."
        )
        first = stack.client.complete(system, prompt)
        second = stack.client.complete(system, prompt)
        assert first == second
        assert stack.upstream_calls == 1  # second call served from disk
        assert stack.cached.stats()["hits"] == 1

    def test_chaos_poisons_purity_and_bypasses_cache(self, tmp_path):
        stack = build_llm_stack(cache_dir=str(tmp_path), fault_rate=0.5)
        assert stack.faulty is not None
        assert stack.cached is not None
        assert stack.client.cache_safe is False

    def test_router_chain_is_exposed(self):
        stack = build_llm_stack(backend="remote,simulated", api_key="k")
        assert isinstance(stack.router, BackendRouter)
        assert stack.backend == "remote,simulated"

    def test_custom_factory_wins(self):
        stack = build_llm_stack(llm_factory=SimulatedLLM)
        assert stack.backend == "custom"


class TestCachedCampaigns:
    def test_warm_cache_serves_the_whole_campaign(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_loadgen(
            sessions=4, requests_per_session=2, workers=2, seed=2025,
            cache_dir=cache_dir,
        )
        warm = run_loadgen(
            sessions=4, requests_per_session=2, workers=2, seed=2025,
            cache_dir=cache_dir,
        )
        assert cold.fingerprint == warm.fingerprint
        assert cold.upstream_llm_calls > 0
        assert warm.upstream_llm_calls == 0
        assert warm.cache["misses"] == 0
        assert warm.cache["writes"] == 0

    def test_uncached_report_has_no_cache_section(self):
        report = run_loadgen(
            sessions=2, requests_per_session=1, workers=1, seed=1
        )
        assert report.cache == {}
        assert report.backend == "simulated"

    def test_chaos_campaign_never_writes_the_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        report = run_loadgen(
            sessions=4,
            requests_per_session=2,
            workers=2,
            seed=2025,
            fault_rate=0.4,
            cache_dir=str(cache_dir),
        )
        assert report.cache["writes"] == 0
        assert report.cache["hits"] == 0
        assert report.cache["bypassed"] > 0
        assert not list(cache_dir.glob("*.json"))

    def test_check_cache_effectiveness_passes(self, tmp_path):
        run = run_checks(
            ["cache"], 4, 2, workers=2, seed=2025,
            cache_dir=str(tmp_path / "cache"),
        )
        result = run.checks["cache"]
        assert result.ok, result.failures
        uncached, cold, warm = (
            result.legs[name] for name in ("uncached", "cold", "warm")
        )
        assert uncached.fingerprint == cold.fingerprint == warm.fingerprint
        assert uncached.cache == {}
        assert warm.upstream_llm_calls < cold.upstream_llm_calls
        assert cold.upstream_llm_calls <= uncached.upstream_llm_calls
        assert warm.upstream_llm_calls == 0
        # --cache-dir is the base configuration, so the cold leg is the
        # main report and no extra campaign runs.
        assert run.report is cold
        assert run.campaigns == 3
        payload = result.to_dict()
        assert payload["ok"] is True
        assert payload["legs"]["warm"]["upstream_llm_calls"] == 0

    def test_check_refuses_chaos_and_deadlines(self, tmp_path):
        with pytest.raises(ValueError, match="fault-free"):
            run_checks(
                ["cache"], 2, 1, workers=1, seed=1,
                cache_dir=str(tmp_path), fault_rate=0.2,
            )
        with pytest.raises(ValueError, match="deadline-free"):
            run_checks(
                ["cache"], 2, 1, workers=1, seed=1,
                cache_dir=str(tmp_path), deadline_s=5.0,
            )
        assert not list(tmp_path.iterdir())  # refused before running


class TestCli:
    def test_check_cache_effectiveness_exit_zero(self, capsys, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        code = main(
            [
                "loadgen",
                "--sessions", "4",
                "--workers", "2",
                "--seed", "2025",
                "--cache-dir", str(tmp_path / "cache"),
                "--check", "cache",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert "check cache OK" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        section = payload["legs"]["checks"]["cache"]
        assert section["ok"] is True
        legs = section["legs"]
        assert (
            legs["uncached"]["fingerprint"]
            == legs["cold"]["fingerprint"]
            == legs["warm"]["fingerprint"]
        )
        assert (
            legs["warm"]["upstream_llm_calls"]
            < legs["cold"]["upstream_llm_calls"]
        )

    def test_effectiveness_with_faults_is_refused(self, capsys):
        code = main(
            [
                "loadgen",
                "--sessions", "2",
                "--check", "cache",
                "--fault-rate", "0.2",
            ]
        )
        assert code == 1
        assert "fault-free" in capsys.readouterr().err

    def test_both_gates_compose(self, capsys, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        code = main(
            [
                "loadgen",
                "--sessions", "4",
                "--workers", "2",
                "--seed", "2025",
                "--cache-dir", str(tmp_path / "cache"),
                "--check", "serial",
                "--check", "cache",
                "--output", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "check serial OK" in captured
        assert "check cache OK" in captured
        payload = json.loads(out.read_text())
        checks = payload["legs"]["checks"]
        assert checks["serial"]["ok"] is True
        assert checks["cache"]["ok"] is True
        # serial's pooled leg is cache's cold leg: 4 campaigns, not 5.
        assert payload["legs"]["campaigns"] == 4

    def test_serve_cache_dir_flag(self, monkeypatch, capsys, tmp_path):
        lines = [
            {"op": "open", "session": "s1", "config": ""},
            {
                "op": "request",
                "session": "s1",
                "intent": (
                    "Write a route-map stanza that permits routes with "
                    "local-preference 300."
                ),
                "target": "OUT",
            },
            {"op": "stats"},
            {"op": "quit"},
        ]
        stdin = io.StringIO(
            "".join(json.dumps(line) + "\n" for line in lines)
        )
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(
            ["serve", "--workers", "2", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        replies = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        stats = next(r for r in replies if r.get("op") == "stats")
        assert stats["backend"] == "simulated"
        assert stats["cache"]["writes"] > 0
        assert list(tmp_path.glob("*.json"))  # entries persisted to disk
