"""The round-trip property: journal → replay → identical outcome.

For every workflow mode the pipeline supports (FULL / TOP_BOTTOM /
LINEAR disambiguation, ACL and route-map kinds, snippet reuse, faulty-LLM
retries, and the punt path), recording a session journal and replaying
it must reproduce the identical event stream — same rendered
configuration hashes, same ``UpdateReport`` fields — with **zero** live
LLM or oracle calls.
"""

import pytest

from repro import obs
from repro.config import parse_config, render_config
from repro.core import ClarifySession, DisambiguationMode, ScriptedOracle
from repro.core.errors import SynthesisPunt
from repro.llm import FaultyLLM, SimulatedLLM
from repro.obs.replay import replay_journal

ISP_OUT = """
ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
ip prefix-list D1 seq 30 permit 1.0.0.0/20 ge 24
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
"""

PAPER_INTENT = (
    "Write a route-map stanza that permits routes containing the prefix "
    "100.0.0.0/16 with mask length less than or equal to 23 and tagged "
    "with the community 300:3. Their MED value should be set to 55."
)

ACL_INTENT = (
    "Add a rule that denies tcp traffic from 10.0.0.0/8 to host "
    "2.2.2.2 on destination port 22."
)


def assert_round_trips(record):
    """Record a session under a journal, replay it, compare everything."""
    journal = obs.JournalRecorder()
    with obs.scope(journal=journal):
        sessions, reports = record()
    result = replay_journal(journal.events)
    assert result.ok, (
        result.divergence.render() if result.divergence else "diverged"
    )
    assert result.llm_calls_served + result.answers_served >= 0
    flat_reports = [r for r in reports if r is not None]
    assert len(result.reports) == len(flat_reports)
    for recorded, replayed in zip(flat_reports, result.reports):
        assert replayed.kind == recorded.kind
        assert replayed.target == recorded.target
        assert replayed.position == recorded.position
        assert replayed.llm_calls == recorded.llm_calls
        assert replayed.questions == recorded.questions
        assert replayed.attempts == recorded.attempts
        assert replayed.overlaps == recorded.overlaps
        assert replayed.diff == recorded.diff
        assert replayed.gate_warnings == recorded.gate_warnings
    return result


@pytest.mark.parametrize(
    "mode",
    [
        DisambiguationMode.FULL,
        DisambiguationMode.TOP_BOTTOM,
        DisambiguationMode.LINEAR,
    ],
)
def test_route_map_round_trip_every_mode(mode):
    def record():
        session = ClarifySession(
            store=parse_config(ISP_OUT),
            oracle=ScriptedOracle([1, 1, 1, 1]),
            mode=mode,
        )
        report = session.request(PAPER_INTENT, "ISP_OUT")
        return [session], [report]

    result = assert_round_trips(record)
    assert result.cycles == 1
    assert result.llm_calls_served == 3


def test_acl_round_trip():
    def record():
        session = ClarifySession(oracle=ScriptedOracle([]))
        report = session.request(ACL_INTENT, "EDGE_IN")
        return [session], [report]

    result = assert_round_trips(record)
    assert result.reports[0].kind == "acl"


def test_incremental_growth_round_trip():
    def record():
        session = ClarifySession(oracle=ScriptedOracle([2, 2, 2, 2]))
        r1 = session.request(
            "Write a route-map stanza that denies routes originating "
            "from AS 32.",
            "OUT",
        )
        r2 = session.request(
            "Write a route-map stanza that permits routes with "
            "local-preference 300.",
            "OUT",
        )
        return [session], [r1, r2]

    result = assert_round_trips(record)
    assert result.cycles == 2


def test_reuse_round_trip():
    def record():
        session = ClarifySession(
            store=parse_config(ISP_OUT), oracle=ScriptedOracle([1] * 8)
        )
        report = session.request(PAPER_INTENT, "ISP_OUT")
        reused = session.reuse(report.snippet, "ISP_OUT_2")
        return [session], [report, reused]

    result = assert_round_trips(record)
    assert result.cycles == 2
    # The reuse cycle consumed zero recorded LLM calls.
    assert result.llm_calls_served == 3


def test_multi_session_round_trip():
    def record():
        a = ClarifySession(oracle=ScriptedOracle([1] * 4))
        b = ClarifySession(
            store=parse_config(ISP_OUT), oracle=ScriptedOracle([1] * 4)
        )
        ra = a.request(ACL_INTENT, "EDGE_IN")
        rb = b.request(PAPER_INTENT, "ISP_OUT")
        return [a, b], [ra, rb]

    result = assert_round_trips(record)
    assert result.cycles == 2


def test_faulty_llm_retries_round_trip():
    def record():
        llm = FaultyLLM(SimulatedLLM(), error_rate=0.6, seed=3)
        session = ClarifySession(
            llm=llm, oracle=ScriptedOracle([1] * 5), max_attempts=10
        )
        report = session.request(PAPER_INTENT, "ISP_OUT")
        return [session], [report]

    result = assert_round_trips(record)
    # The retries (and their verdicts) are part of the recorded stream,
    # so a replay reproduces the exact retry trajectory.
    assert result.reports[0].attempts >= 1


def test_punt_round_trip():
    journal = obs.JournalRecorder()
    with obs.scope(journal=journal):
        llm = FaultyLLM(SimulatedLLM(), error_rate=1.0, seed=3)
        session = ClarifySession(llm=llm, max_attempts=3)
        with pytest.raises(SynthesisPunt):
            session.request(PAPER_INTENT, "ISP_OUT")
    types = [e.type for e in journal.events]
    assert "synthesis.punt" in types
    assert "cycle.error" in types
    result = replay_journal(journal.events)
    assert result.ok, (
        result.divergence.render() if result.divergence else "diverged"
    )
    assert result.reports == []  # the cycle never completed


def test_replayed_final_config_hash_matches():
    journal = obs.JournalRecorder()
    with obs.scope(journal=journal):
        session = ClarifySession(
            store=parse_config(ISP_OUT), oracle=ScriptedOracle([1, 1])
        )
        session.request(PAPER_INTENT, "ISP_OUT")
        recorded_config = render_config(session.store)
    ends = [e for e in journal.events if e.type == "cycle.end"]
    assert ends[-1].data["config_sha256"] == obs.sha256_text(recorded_config)
    result = replay_journal(journal.events)
    assert result.ok
    replayed_ends = [
        e for e in result.replayed_events if e.type == "cycle.end"
    ]
    assert (
        replayed_ends[-1].data["config_sha256"]
        == obs.sha256_text(recorded_config)
    )


def test_journal_file_round_trip(tmp_path):
    path = tmp_path / "session.jsonl"
    with obs.JournalRecorder(str(path)) as journal:
        with obs.scope(journal=journal):
            session = ClarifySession(
                store=parse_config(ISP_OUT), oracle=ScriptedOracle([1, 1])
            )
            session.request(PAPER_INTENT, "ISP_OUT")
    events = obs.read_journal(str(path))
    assert events == journal.events
    assert replay_journal(events).ok
