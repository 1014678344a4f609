"""Tests for the ``clarify`` CLI."""

import io
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import StdioOracle, build_parser, main
from repro.core.errors import ClarifyError

ISP_OUT = """
ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
"""

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PAPER_INTENT = (
    "Write a route-map stanza that permits routes containing the prefix "
    "100.0.0.0/16 with mask length less than or equal to 23 and tagged "
    "with the community 300:3. Their MED value should be set to 55."
)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.ios"
    path.write_text(ISP_OUT)
    return str(path)


class TestAdd:
    def test_add_with_scripted_answers(self, config_file, capsys):
        code = main(
            [
                "add",
                PAPER_INTENT,
                "--config",
                config_file,
                "--target",
                "ISP_OUT",
                "--answers",
                "1,1",
                "--top-bottom",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "route-map ISP_OUT" in out
        assert "set metric 55" in out

    def test_add_into_fresh_map_needs_no_answers(self, capsys):
        # Inserting into a brand-new route-map asks no questions, so the
        # interactive oracle is never consulted.
        code = main(
            [
                "add",
                "Write a route-map stanza that denies routes originating from AS 32.",
                "--target",
                "NEW",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "route-map NEW deny 10" in out
        assert "ip as-path access-list" in out

    def test_add_with_diff_output(self, config_file, capsys):
        code = main(
            [
                "add",
                PAPER_INTENT,
                "--config",
                config_file,
                "--target",
                "ISP_OUT",
                "--answers",
                "1,1",
                "--top-bottom",
                "--diff",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("--- before")
        assert "+ set metric 55" in out

    def test_unparseable_intent_reports_error(self, config_file, capsys):
        code = main(
            [
                "add",
                "Write a route-map stanza that permits routes.",
                "--config",
                config_file,
                "--target",
                "ISP_OUT",
                "--answers",
                "1",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestOverlaps:
    def test_overlap_report(self, config_file, capsys):
        code = main(["overlaps", "--config", config_file, "--verbose"])
        assert code == 0
        out = capsys.readouterr().out
        assert "route-maps analysed" in out
        assert "overlap" in out


class TestCompare:
    def test_equivalent(self, config_file, capsys):
        code = main(
            [
                "compare",
                "--config-a",
                config_file,
                "--config-b",
                config_file,
                "--name",
                "ISP_OUT",
            ]
        )
        assert code == 0
        assert "equivalent" in capsys.readouterr().out

    def test_different(self, tmp_path, config_file, capsys):
        other = tmp_path / "other.ios"
        other.write_text(ISP_OUT.replace("deny 10", "permit 10"))
        code = main(
            [
                "compare",
                "--config-a",
                config_file,
                "--config-b",
                str(other),
                "--name",
                "ISP_OUT",
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "difference 1" in out
        assert "OPTION 1:" in out


class TestEval:
    def test_eval_prints_figure4(self, capsys):
        code = main(["eval"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "M       4             9           5" in out
        assert out.count("PASS") == 5

    def test_eval_from_configs(self, capsys):
        code = main(["eval", "--from-configs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "reassembled from rendered device files" in out
        assert out.count("PASS") == 5


class TestCorpus:
    """The §3 corpus statistics, run in-process by ``campaign --workers 1``."""

    def test_campus_small(self, capsys):
        code = main(
            ["campaign", "campus", "--scale", "0.01", "--seed", "2025",
             "--workers", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ACLs analysed" in out
        assert "route-maps analysed" in out

    def test_cloud_small(self, capsys):
        code = main(
            ["campaign", "cloud", "--scale", "0.02", "--seed", "2025",
             "--workers", "1"]
        )
        assert code == 0
        assert "ACLs analysed" in capsys.readouterr().out


class TestAnswers:
    """``--answers`` takes comma-separated 1s and 2s, else exits 2."""

    @pytest.mark.parametrize("answers", ["x", "3", "1,,2"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["add", PAPER_INTENT, "--target", "ISP_OUT"],
            ["trace"],
            ["list-add", "--target", "EDGE", "--action", "permit",
             "--prefix", "10.1.2.0/24"],
        ],
        ids=["add", "trace", "list-add"],
    )
    def test_bad_answers_are_a_usage_error(self, argv, answers, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--answers", answers])
        assert exc.value.code == 2
        assert "expected comma-separated 1s and 2s" in capsys.readouterr().err


class TestDeadline:
    """``--deadline`` takes a finite number of seconds above 0."""

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    def test_bad_deadline_is_a_usage_error(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--deadline", value])
        assert exc.value.code == 2
        assert "finite number of seconds above 0" in capsys.readouterr().err

    def test_loadgen_deadline_zero_exits_instead_of_hanging(self):
        # The budget is refused before the campaign starts, so no request
        # is submitted with a deadline the service cannot take.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "loadgen",
                "--sessions", "1", "--requests-per-session", "1",
                "--workers", "1", "--deadline", "0", "--no-telemetry",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 2, done.stderr


class TestServeShardsFlags:
    """``serve --shards N`` refuses the flags its router cannot honour."""

    @pytest.mark.parametrize(
        "flag",
        [
            ["--restore"],
            ["--cache-dir", "cache"],
            ["--metrics-port", "0"],
            ["--event-log", "events.jsonl"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_flag_is_a_usage_error(self, flag, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = main(
            ["serve", "--shards", "2", "--store-dir", str(tmp_path), *flag]
        )
        assert code == 2
        assert f"{flag[0]} does not work with --shards" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestServeTelemetryOptions:
    """Serve telemetry is set by ``--metrics-port`` and ``--event-log``."""

    def test_environment_sets_no_telemetry(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")])
        )
        env["CLARIFY_METRICS_PORT"] = "abc"
        env["CLARIFY_EVENT_LOG"] = str(tmp_path / "events.jsonl")
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve"],
            input='{"op":"quit"}\n',
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        assert list(tmp_path.iterdir()) == []

    def test_bad_metrics_port_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--metrics-port", "abc"])
        assert exc.value.code == 2
        assert "--metrics-port" in capsys.readouterr().err


class TestListAdd:
    def test_prefix_list_exception(self, tmp_path, capsys):
        path = tmp_path / "lists.ios"
        path.write_text(
            "ip prefix-list EDGE seq 10 deny 10.1.0.0/16 le 32\n"
            "ip prefix-list EDGE seq 20 permit 10.0.0.0/8 le 24\n"
        )
        code = main(
            [
                "list-add",
                "--config",
                str(path),
                "--target",
                "EDGE",
                "--action",
                "permit",
                "--prefix",
                "10.1.2.0/24",
                "--le",
                "32",
                "--answers",
                "1,1",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "permit 10.1.2.0/24 le 32" in captured.out
        assert "inserted at position" in captured.err

    def test_bad_prefix_reports_error(self, capsys):
        code = main(
            [
                "list-add",
                "--target",
                "EDGE",
                "--action",
                "permit",
                "--prefix",
                "10.1.2.1/24",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestTrace:
    def test_default_walkthrough_cross_checks(self, capsys):
        code = main(["trace"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== span tree ==" in out
        assert "clarify.request" in out
        assert "== metrics ==" in out
        assert "llm.calls" in out
        assert "== cross-check vs UpdateReport ==" in out
        assert "MISMATCH" not in out
        assert out.count("OK") == 3

    def test_trace_leaves_no_global_recorder(self):
        from repro import obs

        main(["trace"])
        assert not obs.enabled()

    def test_json_output_is_a_snapshot(self, capsys):
        from repro import obs

        code = main(["trace", "--json", "--top-bottom"])
        assert code == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["version"] == obs.SNAPSHOT_VERSION
        assert snap["counters"]["llm.calls"] == 3
        assert snap["spans"][0]["name"] == "clarify.request"

    def test_custom_config_and_intent(self, config_file, capsys):
        code = main(
            [
                "trace",
                PAPER_INTENT,
                "--config",
                config_file,
                "--target",
                "ISP_OUT",
                "--answers",
                "1,1,1",
            ]
        )
        assert code == 0
        assert "synthesis.synthesize" in capsys.readouterr().out

    def test_exhausted_answers_report_error(self, capsys):
        # The walkthrough needs two answers in FULL mode; give it one.
        code = main(["trace", "--answers", "1"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestJournalAndReplay:
    def test_trace_writes_replayable_journal(self, tmp_path, capsys):
        journal = tmp_path / "walkthrough.jsonl"
        assert main(["trace", "--journal", str(journal)]) == 0
        capsys.readouterr()
        code = main(["replay", str(journal)])
        assert code == 0
        out = capsys.readouterr().out
        assert "journal verified" in out
        assert "0 live calls" in out

    def test_add_writes_replayable_journal(
        self, tmp_path, config_file, capsys
    ):
        journal = tmp_path / "add.jsonl"
        code = main(
            [
                "add",
                PAPER_INTENT,
                "--config",
                config_file,
                "--target",
                "ISP_OUT",
                "--answers",
                "1,1",
                "--top-bottom",
                "--journal",
                str(journal),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["replay", str(journal)]) == 0

    def test_eval_writes_replayable_journal(self, tmp_path, capsys):
        journal = tmp_path / "eval.jsonl"
        assert main(["eval", "--journal", str(journal)]) == 0
        capsys.readouterr()
        code = main(["replay", str(journal), "--json"])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is True
        assert verdict["cycles"] > 1  # multi-session, with reuses

    def test_replay_detects_tampering(self, tmp_path, capsys):
        journal = tmp_path / "walkthrough.jsonl"
        assert main(["trace", "--journal", str(journal)]) == 0
        lines = journal.read_text().splitlines()
        for idx, line in enumerate(lines):
            event = json.loads(line)
            if event["type"] == "cycle.end":
                event["data"]["config_sha256"] = "0" * 64
                lines[idx] = json.dumps(event, sort_keys=True)
        journal.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["replay", str(journal), "--divergence"])
        assert code == 2
        err = capsys.readouterr().err
        assert "DIVERGED" in err
        assert "divergence at event" in err

    def test_replay_missing_file_errors(self, tmp_path, capsys):
        code = main(["replay", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestBenchCheck:
    BASE = {
        "counters": {"llm.calls": 45},
        "histograms": {},
        "spans": [],
        "version": 2,
    }

    def _write(self, path, data):
        path.write_text(json.dumps(data))
        return str(path)

    def test_identical_snapshots_pass(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", self.BASE)
        code = main(["bench-check", "--baseline", base, "--current", base])
        assert code == 0
        assert "0 regressions" in capsys.readouterr().out

    def test_counter_regression_exits_nonzero(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", self.BASE)
        regressed = dict(self.BASE, counters={"llm.calls": 90})
        cur = self._write(tmp_path / "cur.json", regressed)
        code = main(["bench-check", "--baseline", base, "--current", cur])
        assert code == 2
        out = capsys.readouterr().out
        assert "regression" in out
        assert "45 -> 90" in out

    def test_json_format(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", self.BASE)
        code = main(
            ["bench-check", "--baseline", base, "--current", base,
             "--format", "json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_missing_snapshot_errors(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", self.BASE)
        code = main(
            ["bench-check", "--baseline", base,
             "--current", str(tmp_path / "missing.json")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestStdioOracle:
    def test_reads_choice(self):
        from repro.analysis.compare import BehaviorDifference
        from repro.analysis.evaluate import RouteMapResult
        from repro.core.oracle import DisambiguationQuestion
        from repro.route import BgpRoute

        diff = BehaviorDifference(
            BgpRoute.build("10.0.0.0/8"),
            RouteMapResult("permit", BgpRoute.build("10.0.0.0/8"), 10),
            RouteMapResult("deny", None, 20),
        )
        question = DisambiguationQuestion(diff)
        out = io.StringIO()
        oracle = StdioOracle(out=out, inp=io.StringIO("x\n2\n"))
        assert oracle.choose(question) == 2
        assert "OPTION 1:" in out.getvalue()

    def test_eof_raises(self):
        from repro.analysis.compare import BehaviorDifference
        from repro.analysis.evaluate import RouteMapResult
        from repro.core.oracle import DisambiguationQuestion
        from repro.route import BgpRoute

        diff = BehaviorDifference(
            BgpRoute.build("10.0.0.0/8"),
            RouteMapResult("permit", BgpRoute.build("10.0.0.0/8"), 10),
            RouteMapResult("deny", None, 20),
        )
        oracle = StdioOracle(out=io.StringIO(), inp=io.StringIO(""))
        with pytest.raises(ClarifyError):
            oracle.choose(DisambiguationQuestion(diff))
