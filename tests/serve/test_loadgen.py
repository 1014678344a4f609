"""Tests for the load generator, chaos mode, and the serve/loadgen CLI."""

import io
import json
import threading
import time

from repro.cli import main
from repro.llm.client import LLMClient
from repro.llm.simulated import SimulatedLLM
from repro.serve import loadgen, run_loadgen

INTENT = (
    "Write a route-map stanza that permits routes with local-preference 300."
)


class SlowLLM(LLMClient):
    """The simulated LLM behind a 5 ms wait off the interpreter lock, as
    a remote backend's round trip would be."""

    def __init__(self) -> None:
        self._inner = SimulatedLLM()

    def complete(self, system: str, prompt: str) -> str:
        time.sleep(0.005)
        return self._inner.complete(system, prompt)


class TestRunLoadgen:
    def test_clean_campaign_applies_everything(self):
        report = run_loadgen(sessions=6, requests_per_session=2, workers=3, seed=2025)
        assert report.requests == 12
        assert report.outcomes == {"applied": 12}
        assert report.unresolved == 0
        assert report.throughput_rps > 0
        assert report.latency_quantiles["p50"] > 0
        assert report.counters["serve.requests"] == 12
        assert report.dedup["requests"] == report.counters["llm.dedup.requests"]

    def test_llm_request_counts_do_not_depend_on_thread_timing(self, tmp_path):
        # How many twins dedup coalesces depends on thread timing; the
        # request total, and the upstream/coalesced split's sum, do not.
        log = tmp_path / "events.jsonl"
        report = run_loadgen(
            sessions=8,
            requests_per_session=2,
            workers=4,
            seed=2025,
            telemetry=True,
            event_log=str(log),
        )
        dedup = report.dedup
        assert dedup["upstream_calls"] + dedup["coalesced"] == dedup["requests"]
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(events) == report.requests == 16
        assert sum(event["llm_calls"] for event in events) == dedup["requests"]

    def test_chaos_campaign_terminates_cleanly(self):
        report = run_loadgen(
            sessions=8,
            requests_per_session=2,
            workers=4,
            seed=2025,
            fault_rate=0.3,
        )
        # Liveness and containment: every ticket resolved, faults were
        # really injected, and nothing escaped as an internal error.
        assert report.unresolved == 0
        assert report.injected_faults > 0
        assert "internal-error" not in report.outcomes
        assert sum(report.outcomes.values()) == report.requests

    def test_tight_high_water_forces_retries_but_everything_lands(self):
        # Each submit hands the interpreter lock to its request's new
        # thread, so CPU-bound cycles shorter than a switch interval can
        # finish before the submit loop runs again and no backlog forms.
        # Cycles that wait on the LLM outlast the loop.
        report = run_loadgen(
            sessions=6,
            requests_per_session=2,
            workers=2,
            seed=2025,
            high_water=2,
            llm_factory=SlowLLM,
        )
        assert report.rejected_submissions > 0
        assert report.outcomes == {"applied": 12}

    def test_report_round_trips_through_json(self):
        report = run_loadgen(sessions=2, requests_per_session=1, workers=1, seed=1)
        decoded = json.loads(json.dumps(report.to_dict()))
        assert decoded["fingerprint"] == report.fingerprint

    def test_netwide_quality_axis(self):
        report = run_loadgen(
            sessions=3, requests_per_session=2, workers=2, seed=2025,
            netwide=True,
        )
        # Every request still lands; the gate ran once per insertion and
        # the analyzer's incremental cache was exercised.
        assert report.unresolved == 0
        assert report.netwide["lint.netwide_gate_checks"] == report.requests
        assert report.netwide["netwide.paths"] > 0
        assert report.netwide["netwide.paths.cached"] > 0

    def test_netwide_off_by_default(self):
        report = run_loadgen(sessions=2, requests_per_session=1, workers=1, seed=1)
        assert report.netwide == {}


class TestLoadgenCli:
    def test_check_serial_identity_exit_zero(self, capsys, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        code = main(
            [
                "loadgen",
                "--sessions", "6",
                "--workers", "3",
                "--seed", "2025",
                "--check", "serial",
                "--output", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "check serial OK" in captured.out
        payload = json.loads(out.read_text())
        check = payload["legs"]["checks"]["serial"]
        assert check["ok"] is True
        assert payload["loadgen"]["outcomes"]["applied"] == 12
        assert (
            check["legs"]["serial"]["fingerprint"]
            == payload["loadgen"]["fingerprint"]
        )
        assert check["legs"]["serial"]["workers"] == 1
        assert payload["legs"]["campaigns"] == 2

    def test_identity_with_faults_is_refused(self, capsys):
        code = main(
            [
                "loadgen",
                "--sessions", "2",
                "--check", "serial",
                "--fault-rate", "0.2",
            ]
        )
        assert code == 1
        assert "schedule-dependent" in capsys.readouterr().err

    def test_chaos_run_exit_zero(self, capsys):
        code = main(
            [
                "loadgen",
                "--sessions", "4",
                "--workers", "4",
                "--seed", "2025",
                "--fault-rate", "0.2",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["loadgen"]["fault_rate"] == 0.2
        assert "internal-error" not in payload["loadgen"]["outcomes"]


class HeldLLM(LLMClient):
    """The simulated LLM, holding every prompt that names ``held`` until
    ``release`` is set, and recording the threads that asked."""

    def __init__(self, held: str) -> None:
        self._inner = SimulatedLLM()
        self.held = held
        self.release = threading.Event()
        self.held_threads = set()

    def complete(self, system: str, prompt: str) -> str:
        if self.held in prompt:
            self.held_threads.add(threading.current_thread())
            assert self.release.wait(timeout=60), "never released"
        return self._inner.complete(system, prompt)


class ThreadRecordingStdout(io.StringIO):
    """Stdout that notes which thread wrote each reply line."""

    def __init__(self, on_line) -> None:
        super().__init__()
        self.on_line = on_line
        self.lines = []

    def write(self, text: str) -> int:
        if text.strip():
            self.lines.append((threading.current_thread(), json.loads(text)))
            self.on_line(self.lines[-1][1])
        return super().write(text)


class TestServeCli:
    def test_tagged_replies_come_from_the_request_threads(self, monkeypatch):
        # Session a's cycle is held until b's reply is out, so the two
        # tagged replies arrive out of order, each written by the thread
        # that ran its cycle.
        llm = HeldLLM("local-preference 300")
        build = loadgen.build_llm_stack
        monkeypatch.setattr(
            loadgen,
            "build_llm_stack",
            lambda **kwargs: build(llm_factory=lambda: llm, **kwargs),
        )
        threads_seen = set()

        def on_line(payload):
            threads_seen.update(t.name for t in threading.enumerate())
            if payload.get("tag") == "b":
                llm.release.set()

        stdout = ThreadRecordingStdout(on_line)
        monkeypatch.setattr("sys.stdout", stdout)
        lines = [
            {"op": "open", "session": "a"},
            {"op": "open", "session": "b"},
            {"op": "request", "tag": "a", "session": "a",
             "intent": INTENT, "target": "OUT"},
            {"op": "request", "tag": "b", "session": "b",
             "intent": INTENT.replace("300", "200"), "target": "OUT"},
            {"op": "quit"},
        ]
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("".join(json.dumps(line) + "\n" for line in lines)),
        )
        assert main(["serve", "--workers", "2"]) == 0
        writers = {
            payload["tag"]: (thread, index)
            for index, (thread, payload) in enumerate(stdout.lines)
            if payload.get("op") == "request"
        }
        assert set(writers) == {"a", "b"}, "a tagged reply was lost"
        assert writers["b"][1] < writers["a"][1], "replies came in order"
        assert llm.held_threads == {writers["a"][0]}
        assert writers["a"][0].name.startswith("clarify-request-a-")
        assert all(payload["ok"] for _, payload in stdout.lines)
        assert not [n for n in threads_seen if n.startswith("serve-reply-")]

    def _drive(self, monkeypatch, capsys, lines):
        stdin = io.StringIO("".join(json.dumps(line) + "\n" for line in lines))
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(["serve", "--workers", "2"])
        out = capsys.readouterr().out
        return code, [json.loads(line) for line in out.splitlines()]

    def test_open_request_close_loop(self, monkeypatch, capsys):
        code, replies = self._drive(
            monkeypatch,
            capsys,
            [
                {"op": "open", "session": "s1", "config": ""},
                {
                    "op": "request",
                    "session": "s1",
                    "intent": INTENT,
                    "target": "OUT",
                },
                {"op": "stats"},
                {"op": "close", "session": "s1"},
                {"op": "quit"},
            ],
        )
        assert code == 0
        opened, applied, stats, closed, quit_ = replies
        assert opened["ok"] and opened["session"] == "s1"
        assert applied["outcome"] == "applied"
        assert applied["config_sha256"]
        assert stats["sessions"] == 1
        assert closed["ok"]
        assert quit_["op"] == "quit"

    def test_errors_are_replies_not_crashes(self, monkeypatch, capsys):
        code, replies = self._drive(
            monkeypatch,
            capsys,
            [
                {"op": "request", "session": "ghost", "intent": "x", "target": "y"},
                {"op": "nonsense"},
                {"op": "open", "session": "s1"},
                {"op": "open", "session": "s1"},
                # json reads 1e400 (here: Infinity) and 1.5 as floats.
                {"op": "request", "session": "s1", "intent": INTENT,
                 "target": "OUT", "seq": float("inf")},
                {"op": "request", "session": "s1", "intent": INTENT,
                 "target": "OUT", "seq": 1.5},
                {"op": "stats"},
                {"op": "quit"},
            ],
        )
        assert code == 0
        unknown, bad_op, opened, duplicate, huge, fraction, stats, _ = replies
        assert not unknown["ok"] and "ghost" in unknown["error"]
        assert not bad_op["ok"]
        assert opened["ok"]
        assert not duplicate["ok"] and "already open" in duplicate["error"]
        for bad_seq in (huge, fraction):
            assert not bad_seq["ok"] and "'seq' must be an integer" in (
                bad_seq["error"]
            )
        assert stats["ok"] and stats["sessions"] == 1
