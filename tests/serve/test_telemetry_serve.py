"""Serving-tier telemetry end to end: trace propagation through the
service, no survivorship bias, identity invariance, counter coverage."""

import threading

import pytest

from repro import obs
from repro.cli import WALKTHROUGH_CONFIG, WALKTHROUGH_INTENT, WALKTHROUGH_TARGET
from repro.llm.client import LLMClient
from repro.llm.simulated import SimulatedLLM
from repro.obs import telemetry as tele
from repro.serve import (
    AdmissionError,
    ClarifyService,
    ServeRequest,
    SessionManager,
    loadgen,
    run_checks,
    run_loadgen,
)

INTENT = (
    "Write a route-map stanza that permits routes with local-preference 300."
)


@pytest.fixture(autouse=True)
def no_leftover_hub():
    yield
    tele.uninstall_hub()


@pytest.fixture
def hub():
    """A process hub for the test (the autouse fixture removes it)."""
    return tele.install_hub()


class GatedLLM(LLMClient):
    """Delegates to the simulated LLM once ``gate`` opens."""

    def __init__(self) -> None:
        self._inner = SimulatedLLM()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def complete(self, system: str, prompt: str) -> str:
        self.entered.set()
        assert self.gate.wait(timeout=60), "test never opened the gate"
        return self._inner.complete(system, prompt)


def serve_one(request, **service_kwargs):
    manager = SessionManager(llm=SimulatedLLM())
    manager.open(request.session)
    with ClarifyService(manager, workers=1, **service_kwargs) as service:
        return service.call(request)


class TestTracePropagation:
    def test_response_carries_fresh_trace_ids(self):
        response = serve_one(
            ServeRequest(session="s0", intent=INTENT, target="OUT")
        )
        assert response.outcome == "applied"
        assert response.trace_id
        assert response.request_id.startswith("req-")
        assert response.to_dict()["trace_id"] == response.trace_id

    def test_client_supplied_request_id_round_trips(self):
        response = serve_one(
            ServeRequest(
                session="s0",
                intent=INTENT,
                target="OUT",
                request_id="client-7",
            )
        )
        assert response.request_id == "client-7"
        assert response.to_dict()["request_id"] == "client-7"

    def test_trace_ids_never_enter_outcome_key(self):
        response = serve_one(
            ServeRequest(session="s0", intent=INTENT, target="OUT")
        )
        key = response.outcome_key()
        assert "trace_id" not in key and "request_id" not in key
        assert "latency_s" not in key and "queue_wait_s" not in key

    def test_wide_event_matches_response(self, hub):
        response = serve_one(
            ServeRequest(
                session="s0",
                intent=INTENT,
                target="OUT",
                request_id="wide-1",
            )
        )
        (event,) = hub.events
        assert event["trace_id"] == response.trace_id
        assert event["request_id"] == "wide-1"
        assert event["session_id"] == "s0"
        assert event["outcome"] == response.outcome
        assert event["seq"] == response.seq
        assert event["timings"]["latency_s"] > 0.0
        # Worker-side phases bucket under the propagated trace.
        assert event["timings"]["llm_s"] > 0.0

    def test_worker_counters_attributed_to_trace(self, hub):
        with obs.recording():
            serve_one(ServeRequest(session="s0", intent=INTENT, target="OUT"))
        (event,) = hub.events
        assert event["counters"].get("serve.requests") == 1
        assert event["counters"].get("llm.calls", 0) >= 1


class TestViewsAgree:
    def test_wide_event_timings_equal_span_histograms(self, hub):
        # Each span is timed once: its duration reaches the recorder's
        # ``span.<name>`` histogram and the hub's phase bucket alike.
        manager = SessionManager(llm=SimulatedLLM())
        manager.open("s0", config_text=WALKTHROUGH_CONFIG)
        recorder = obs.Recorder(capture_spans=False, time_spans=True)
        with obs.recording(recorder):
            with ClarifyService(manager, workers=1) as service:
                response = service.call(
                    ServeRequest("s0", WALKTHROUGH_INTENT, WALKTHROUGH_TARGET)
                )
        assert response.outcome == "applied" and response.questions > 0
        totals = dict.fromkeys(tele.PHASES, 0.0)
        for name, histogram in recorder.histograms.items():
            phase = tele.phase_of(name[len("span."):])
            if name.startswith("span.") and phase is not None:
                totals[phase] += histogram.total
        (event,) = hub.events
        for phase in ("synthesis", "verify", "disambiguation", "llm"):
            assert totals[phase] > 0.0, phase
        for phase in tele.PHASES:
            assert event["timings"][f"{phase}_s"] == pytest.approx(
                totals[phase], rel=0, abs=1e-9
            ), phase


class TestNoSurvivorshipBias:
    def rejected_run(self):
        """Drive one rejection while a worker is pinned busy."""
        llm = GatedLLM()
        manager = SessionManager(llm=llm)
        manager.open("s0")
        manager.open("s1")
        hub = tele.install_hub()
        with obs.recording() as rec:
            with ClarifyService(manager, workers=1, high_water=1) as service:
                ticket = service.submit(
                    ServeRequest(session="s0", intent=INTENT, target="OUT")
                )
                assert llm.entered.wait(timeout=60)
                with pytest.raises(AdmissionError) as excinfo:
                    service.submit(
                        ServeRequest(
                            session="s1", intent=INTENT, target="OUT"
                        )
                    )
                llm.gate.set()
                assert ticket.wait(60).outcome == "applied"
        return rec, hub, excinfo.value

    def test_rejection_lands_in_histograms_and_wide_events(self):
        rec, hub, rejection = self.rejected_run()
        # Both the applied and the rejected request hit the shared
        # latency histogram plus their per-outcome breakouts.
        assert rec.histograms["serve.latency"].count == 2
        assert rec.histograms["serve.latency.rejected"].count == 1
        assert rec.histograms["serve.latency.applied"].count == 1
        assert rec.counters["serve.outcome.rejected"] == 1
        outcomes = sorted(e["outcome"] for e in hub.events)
        assert outcomes == ["applied", "rejected"]

    def test_rejection_error_still_carries_a_trace(self):
        _, hub, rejection = self.rejected_run()
        assert rejection.trace is not None
        rejected = next(
            e for e in hub.events if e["outcome"] == "rejected"
        )
        assert rejected["trace_id"] == rejection.trace.trace_id
        assert rejected["retry_after_s"] > 0
        assert rejected["seq"] == -1

    def test_deadline_expiry_recorded(self, hub):
        with obs.recording() as rec:
            response = serve_one(
                ServeRequest(
                    session="s0",
                    intent=INTENT,
                    target="OUT",
                    deadline_s=1e-9,
                )
            )
        assert response.outcome == "deadline"
        assert response.trace_id
        assert rec.histograms["serve.latency.deadline"].count == 1
        (event,) = hub.events
        assert event["outcome"] == "deadline"
        assert event["trace_id"] == response.trace_id


class TestCampaignTelemetry:
    KWARGS = dict(sessions=4, requests_per_session=1, workers=2, seed=11)

    def test_identity_fingerprint_is_telemetry_invariant(self):
        on = run_loadgen(telemetry=True, **self.KWARGS)
        off = run_loadgen(telemetry=False, **self.KWARGS)
        assert on.fingerprint == off.fingerprint
        assert on.telemetry["enabled"] is True
        assert off.telemetry["enabled"] is False

    def test_every_llm_counter_resolves_to_a_wide_event(self):
        report = run_loadgen(telemetry=True, **self.KWARGS)
        assert report.telemetry["wide_events"] == 4
        coverage = report.telemetry["trace_coverage"]
        assert coverage["complete"], coverage["missing"]

    def test_campaign_slo_block_evaluates(self):
        report = run_loadgen(telemetry=True, **self.KWARGS)
        slo = report.telemetry["slo"]
        assert slo["events"] == 4
        assert slo["ok"] is True

    def test_rejected_requests_counted_in_wide_events(self):
        # high_water=1 with several workers forces admission rejections;
        # loadgen retries them, and every attempt leaves a wide event.
        report = run_loadgen(
            sessions=4,
            requests_per_session=1,
            workers=2,
            seed=11,
            high_water=1,
            telemetry=True,
        )
        assert report.rejected_submissions > 0
        assert (
            report.telemetry["wide_events"]
            == 4 + report.rejected_submissions
        )

    def test_event_log_written(self, tmp_path):
        path = tmp_path / "events.jsonl"
        report = run_loadgen(
            telemetry=True, event_log=str(path), **self.KWARGS
        )
        events = list(tele.iter_events(str(path)))
        assert len(events) == report.telemetry["wide_events"]
        assert all(e["trace_id"] for e in events)


class TestTelemetryCheck:
    def test_breach_is_a_failure_not_an_exception(self, monkeypatch):
        monkeypatch.setattr(loadgen, "TELEMETRY_BOUND", 0.0)
        run = run_checks(["telemetry"], 2, 1, workers=2, seed=2025)
        result = run.checks["telemetry"]
        assert list(result.legs) == [
            f"{mode}-{index}"
            for index in range(loadgen.TELEMETRY_PAIRS)
            for mode in ("off", "on")
        ]
        # Identity held across all six legs; only the bound failed.
        (failure,) = result.failures
        assert "above the 0x bound" in failure
        assert not result.legs["off-0"].telemetry["enabled"]
        assert result.legs["on-0"].telemetry["enabled"]
        # The base configuration (telemetry on) is the on-0 leg.
        assert run.report is result.legs["on-0"]
        assert run.campaigns == 2 * loadgen.TELEMETRY_PAIRS

    def test_cli_artifact_feeds_the_slo_gate(self, tmp_path):
        import json

        from repro.cli import main

        # Timing decides the bound and the SLO verdict; this test is
        # about the artifact bench-check reads.
        out = tmp_path / "BENCH_serve.json"
        main(
            [
                "loadgen", "--sessions", "2", "--requests-per-session", "1",
                "--workers", "2", "--check", "telemetry",
                "--output", str(out),
            ]
        )
        payload = json.loads(out.read_text())
        assert payload["legs"]["campaigns"] == 2 * loadgen.TELEMETRY_PAIRS
        slo = payload["loadgen"]["telemetry"]["slo"]
        gate = main(["bench-check", "--slo-report", str(out), "--slo-only"])
        assert gate == (2 if slo["alerting"] else 0)
