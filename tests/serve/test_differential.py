"""The serial-vs-pooled differential suite.

The serving layer's core invariant: a pooled run of a seeded campaign
produces exactly the per-session outcomes of a serial run — concurrency
changes latency, never results.  The checks run through the legs
runner (:func:`repro.serve.run_checks`).
"""

import pytest

from repro.llm.intents import parse_acl_intent, parse_route_map_intent
from repro.serve import generate_workload, loadgen, run_checks, run_loadgen


class TestWorkloadGeneration:
    def test_pure_function_of_seed(self):
        first = generate_workload(12, 3, seed=7)
        second = generate_workload(12, 3, seed=7)
        assert first == second

    def test_different_seeds_differ(self):
        assert generate_workload(12, 3, seed=7) != generate_workload(
            12, 3, seed=8
        )

    def test_mixes_campus_and_cloud(self):
        archetypes = {s.archetype for s in generate_workload(16, 2, seed=2025)}
        assert archetypes == {"campus", "cloud"}

    def test_every_intent_parses_under_the_grammar(self):
        for spec in generate_workload(24, 3, seed=2025):
            for intent in spec.intents:
                if spec.archetype == "campus":
                    parsed = parse_route_map_intent(intent)
                    assert parsed.action in ("permit", "deny")
                else:
                    parsed = parse_acl_intent(intent)
                    assert parsed.protocol == "tcp"

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_workload(0)
        with pytest.raises(ValueError):
            generate_workload(4, 0)


class TestSerialPooledIdentity:
    def test_identity_holds(self):
        run = run_checks(["serial"], 8, 2, workers=4, seed=2025)
        result = run.checks["serial"]
        assert result.ok, result.failures
        serial, pooled = result.legs["serial"], result.legs["pooled"]
        assert serial.fingerprint == pooled.fingerprint
        assert serial.outcomes == pooled.outcomes
        assert serial.workers == 1
        assert pooled.workers == 4
        # The main report is the pooled leg, not a third campaign.
        assert run.report is pooled
        assert run.campaigns == 2

    def test_identity_holds_for_another_seed(self):
        run = run_checks(["serial"], 6, 2, workers=3, seed=99)
        result = run.checks["serial"]
        assert result.ok, result.failures
        assert (
            result.legs["serial"].fingerprint
            == result.legs["pooled"].fingerprint
        )

    def test_tampered_leg_fails_and_is_named(self, monkeypatch):
        real = loadgen.run_loadgen

        def tampered(*args, **kwargs):
            report = real(*args, **kwargs)
            if kwargs["workers"] > 1:
                report.fingerprint = "0" * 64
            return report

        monkeypatch.setattr(loadgen, "run_loadgen", tampered)
        run = run_checks(["serial"], 2, 1, workers=2, seed=2025)
        result = run.checks["serial"]
        assert not result.ok
        (failure,) = result.failures
        assert failure.startswith(f"leg 'pooled' fingerprint {'0' * 64}")
        assert "leg 'serial'" in failure
        assert run.failures == [f"check serial: {failure}"]

    def test_shared_legs_run_once(self):
        run = run_checks(["serial", "cache"], 4, 2, workers=2, seed=2025)
        serial, cache = run.checks["serial"], run.checks["cache"]
        assert serial.ok and cache.ok, run.failures
        # serial's pooled leg is cache's uncached leg and the report.
        assert serial.legs["pooled"] is cache.legs["uncached"] is run.report
        assert run.campaigns == 4

    def test_unknown_and_schedule_dependent_checks_refused(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_checks(["bogus"], 2, 1)
        with pytest.raises(ValueError, match="schedule-dependent"):
            run_checks(["serial"], 2, 1, fault_rate=0.2)
        with pytest.raises(ValueError, match="gate-free"):
            run_checks(["shard"], 2, 1, netwide=True)

    def test_fingerprint_reproducible_across_runs(self):
        first = run_loadgen(sessions=6, requests_per_session=2, workers=2, seed=5)
        second = run_loadgen(sessions=6, requests_per_session=2, workers=2, seed=5)
        assert first.fingerprint == second.fingerprint

    def test_fingerprint_sensitive_to_seed(self):
        a = run_loadgen(sessions=6, requests_per_session=2, workers=2, seed=5)
        b = run_loadgen(sessions=6, requests_per_session=2, workers=2, seed=6)
        assert a.fingerprint != b.fingerprint
