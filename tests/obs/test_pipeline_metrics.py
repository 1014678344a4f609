"""End-to-end instrumentation: a traced Clarify cycle's metrics must
agree with the :class:`~repro.core.UpdateReport` bookkeeping, and every
layer must emit its spans."""

import pytest

from repro import ClarifySession, DisambiguationMode, ScriptedOracle, obs, parse_config
from repro.bgp import Network, simulate
from repro.core.errors import SynthesisPunt
from repro.core.disambiguator import disambiguate_prefix_list_entry
from repro.config.lists import PrefixListEntry
from repro.llm.faulty import FaultyLLM
from repro.llm.simulated import SimulatedLLM
from repro.netaddr import Ipv4Prefix

ISP_OUT = """
ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
"""

INTENT = (
    "Write a route-map stanza that permits routes containing the prefix "
    "100.0.0.0/16 with mask length less than or equal to 23 and tagged "
    "with the community 300:3. Their MED value should be set to 55."
)


@pytest.fixture(autouse=True)
def _clean_registry():
    obs.uninstall()
    yield
    obs.uninstall()


def traced_cycle(mode=DisambiguationMode.TOP_BOTTOM):
    with obs.recording() as rec:
        session = ClarifySession(
            store=parse_config(ISP_OUT),
            oracle=ScriptedOracle([1, 1, 1]),
            mode=mode,
        )
        report = session.request(INTENT, "ISP_OUT")
    return rec, session, report


class TestReportAgreement:
    """The acceptance check: metrics == UpdateReport for the same cycle."""

    def test_llm_calls_match(self):
        rec, session, report = traced_cycle()
        assert rec.counter("llm.calls") == report.llm_calls == 3

    def test_questions_match(self):
        rec, session, report = traced_cycle()
        assert rec.counter("disambiguation.questions") == report.questions == 1

    def test_attempts_match(self):
        rec, session, report = traced_cycle()
        assert rec.counter("synthesis.attempts") == report.attempts == 1

    def test_session_totals_match(self):
        rec, session, report = traced_cycle()
        assert rec.counter("llm.calls") == session.total_llm_calls
        assert rec.counter("disambiguation.questions") == session.total_questions
        assert rec.counter("clarify.spec_reviews") == session.spec_reviews

    def test_full_mode_question_count_still_matches(self):
        rec, session, report = traced_cycle(mode=DisambiguationMode.FULL)
        assert rec.counter("disambiguation.questions") == report.questions

    def test_per_task_call_breakdown_sums_to_total(self):
        rec, _, report = traced_cycle()
        per_task = sum(
            value
            for name, value in rec.counters.items()
            if name.startswith("llm.calls.")
        )
        assert per_task == rec.counter("llm.calls") == report.llm_calls


class TestSpanTree:
    def test_root_span_is_the_request(self):
        rec, _, _ = traced_cycle()
        assert [root.name for root in rec.roots] == ["clarify.request"]

    def test_cycle_stages_appear_in_order(self):
        rec, _, _ = traced_cycle()
        root = rec.roots[0]
        child_names = [child.name for child in root.children]
        assert child_names == [
            "synthesis.synthesize",
            "clarify.rename",
            "disambiguate.stanza",
            "clarify.diff",
            "lint.gate",
        ]

    def test_llm_calls_nest_under_synthesis(self):
        rec, _, _ = traced_cycle()
        synth = rec.find("synthesis.synthesize")[0]
        assert len(synth.find("llm.complete")) == 3
        assert len(rec.find("verify.route_map")) == 1

    def test_every_span_is_closed_with_a_duration(self):
        rec, _, _ = traced_cycle()
        for root in rec.roots:
            for span in root.walk():
                assert span.duration_s is not None and span.duration_s >= 0

    def test_request_annotations_mirror_the_report(self):
        rec, _, report = traced_cycle()
        attrs = rec.roots[0].attrs
        assert attrs["llm_calls"] == report.llm_calls
        assert attrs["questions"] == report.questions
        assert attrs["position"] == report.position


class TestLayerCounters:
    def test_analysis_layer_counts_space_operations(self):
        rec, _, _ = traced_cycle()
        assert rec.counter("routespace.guards") > 0
        assert rec.counter("routespace.intersections") > 0
        assert rec.counter("analysis.compares") > 0

    def test_verify_counts_one_passing_check(self):
        rec, _, _ = traced_cycle()
        assert rec.counter("verify.checks") == 1
        assert rec.counter("verify.failures") == 0
        assert rec.counter("synthesis.retries") == 0

    def test_disambiguation_histograms(self):
        rec, _, report = traced_cycle()
        overlaps = rec.histogram("disambiguation.overlaps")
        assert overlaps.count == 1
        assert overlaps.max == len(report.overlaps)
        depth = rec.histogram("disambiguation.search_depth")
        assert depth.total == report.questions


class TestFaultInjection:
    def test_punt_records_retries_and_faults(self):
        faulty = FaultyLLM(SimulatedLLM(), error_rate=1.0, seed=0)
        with obs.recording() as rec:
            session = ClarifySession(
                store=parse_config(ISP_OUT),
                llm=faulty,
                oracle=ScriptedOracle([1]),
            )
            with pytest.raises(SynthesisPunt):
                session.request(INTENT, "ISP_OUT")
        assert rec.counter("synthesis.attempts") == 3
        assert rec.counter("synthesis.retries") == 3
        assert rec.counter("synthesis.punts") == 1
        assert rec.counter("llm.faults_injected") == faulty.injected_faults >= 1
        # Failed attempts are visible in the span tree with their outcome.
        outcomes = {
            span.attrs.get("outcome") for span in rec.find("synthesis.attempt")
        }
        assert outcomes <= {"parse-error", "rejected"}


class TestReuseAndLists:
    def test_reuse_costs_no_llm_calls(self):
        with obs.recording() as rec:
            session = ClarifySession(
                store=parse_config(ISP_OUT),
                oracle=ScriptedOracle([1, 1, 1]),
                mode=DisambiguationMode.TOP_BOTTOM,
            )
            report = session.request(INTENT, "ISP_OUT")
            calls_before = rec.counter("llm.calls")
            reuse = session.reuse(report.snippet, "OTHER_MAP")
        assert rec.counter("llm.calls") == calls_before
        assert rec.counter("clarify.reuses") == 1
        assert rec.find("clarify.reuse")[0].attrs["position"] == reuse.position

    def test_list_insertion_emits_its_own_namespace(self):
        store = parse_config(ISP_OUT)
        entry = PrefixListEntry(
            seq=0, action="permit", prefix=Ipv4Prefix.parse("10.1.0.0/16")
        )
        with obs.recording() as rec:
            result = disambiguate_prefix_list_entry(
                store, "D1", entry, ScriptedOracle([1, 1, 1])
            )
        assert rec.counter("listinsert.runs") == 1
        assert rec.counter("listinsert.questions") == result.question_count
        assert rec.histogram("listinsert.overlaps").count == 1


class TestBgpSimulation:
    def test_simulate_records_iterations(self):
        net = Network()
        net.add_router("A", 65001)
        net.add_router("B", 65002)
        net.connect("A", "B")
        net.router("A").originate("10.1.0.0/16")
        with obs.recording() as rec:
            simulate(net)
        assert rec.counter("bgp.simulations") == 1
        hist = rec.histogram("bgp.iterations")
        assert hist.count == 1 and hist.min >= 1
        span = rec.find("bgp.simulate")[0]
        assert span.attrs["routers"] == 2
        assert span.attrs["iterations"] == hist.max
