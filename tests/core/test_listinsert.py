"""Tests for the §7 extension: disambiguated list-entry insertion."""

import pytest

from repro.config import parse_config
from repro.config.lists import AsPathEntry, CommunityListEntry, PrefixListEntry
from repro.core import CountingOracle, IntentOracle, ScriptedOracle
from repro.analysis import (
    AsPathListPolicy,
    CommunityListPolicy,
    PrefixListPolicy,
    compare_policies,
    overlapping_entries,
)
from repro.core.disambiguator import (
    DisambiguationMode,
    disambiguate_as_path_entry,
    disambiguate_community_entry,
    disambiguate_prefix_list_entry,
)
from repro.netaddr import Ipv4Prefix


def first_difference(kind, list_a, list_b):
    differences = compare_policies(kind(list_a), kind(list_b), 1)
    return differences[0] if differences else None


def pl_entry(action, prefix, ge=None, le=None, seq=5):
    return PrefixListEntry(seq, action, Ipv4Prefix.parse(prefix), ge=ge, le=le)


STORE_TEXT = """
ip prefix-list EDGE seq 10 deny 10.1.0.0/16 le 32
ip prefix-list EDGE seq 20 permit 10.0.0.0/8 le 24
ip as-path access-list PATHS deny _666_
ip as-path access-list PATHS permit _100_
ip community-list expanded COMMS deny ^65000:1$
ip community-list expanded COMMS permit ^65000:
"""


class TestComparePrefixLists:
    def test_equivalent_lists(self):
        store = parse_config(STORE_TEXT)
        pl = store.prefix_list("EDGE")
        assert compare_policies(PrefixListPolicy(pl), PrefixListPolicy(pl)) == []

    def test_order_difference_found(self):
        a = parse_config(
            "ip prefix-list L seq 10 deny 10.1.0.0/16 le 32\n"
            "ip prefix-list L seq 20 permit 10.0.0.0/8 le 32\n"
        ).prefix_list("L")
        b = parse_config(
            "ip prefix-list L seq 10 permit 10.0.0.0/8 le 32\n"
            "ip prefix-list L seq 20 deny 10.1.0.0/16 le 32\n"
        ).prefix_list("L")
        diff = first_difference(PrefixListPolicy, a, b)
        assert diff is not None
        network = diff.subject
        assert Ipv4Prefix.parse("10.1.0.0/16").contains_prefix(network)
        assert {diff.result_a.action, diff.result_b.action} == {"permit", "deny"}
        assert "Network:" in diff.render()


class TestPrefixListInsertion:
    def test_overlaps_detected(self):
        store = parse_config(STORE_TEXT)
        entry = pl_entry("permit", "10.1.2.0/24", le=32)
        overlaps = overlapping_entries(
            PrefixListPolicy(store.prefix_list("EDGE")), entry
        )
        assert overlaps == [0, 1]

    def test_exception_above_the_deny(self):
        # Intent: 10.1.2.0/24 should be permitted even though 10.1/16 is
        # denied -> the new entry must land above the deny.
        store = parse_config(STORE_TEXT)
        entry = pl_entry("permit", "10.1.2.0/24", le=32)

        def intended(network):
            if Ipv4Prefix.parse("10.1.2.0/24").contains_prefix(network):
                return ("permit",)
            if Ipv4Prefix.parse("10.1.0.0/16").contains_prefix(network):
                return ("deny",)
            if (
                Ipv4Prefix.parse("10.0.0.0/8").contains_prefix(network)
                and network.length <= 24
            ):
                return ("permit",)
            return ("deny",)

        oracle = CountingOracle(IntentOracle(intended))
        result = disambiguate_prefix_list_entry(store, "EDGE", entry, oracle)
        assert result.position == 0
        updated = result.store.prefix_list("EDGE")
        assert updated.permits(Ipv4Prefix.parse("10.1.2.0/25"))
        assert not updated.permits(Ipv4Prefix.parse("10.1.3.0/24"))
        assert result.question_count >= 1

    def test_shadowed_placement_below(self):
        # Intent: the deny keeps winning; the new permit goes below it.
        store = parse_config(STORE_TEXT)
        entry = pl_entry("permit", "10.1.2.0/24", le=32)

        def intended(network):
            if Ipv4Prefix.parse("10.1.0.0/16").contains_prefix(network):
                return ("deny",)
            if Ipv4Prefix.parse("10.1.2.0/24").contains_prefix(network):
                return ("permit",)  # unreachable; kept for clarity
            if (
                Ipv4Prefix.parse("10.0.0.0/8").contains_prefix(network)
                and network.length <= 24
            ):
                return ("permit",)
            return ("deny",)

        oracle = CountingOracle(IntentOracle(intended))
        result = disambiguate_prefix_list_entry(store, "EDGE", entry, oracle)
        assert result.position >= 1
        updated = result.store.prefix_list("EDGE")
        assert not updated.permits(Ipv4Prefix.parse("10.1.2.0/25"))

    def test_fresh_list_no_questions(self):
        store = parse_config("")
        entry = pl_entry("permit", "10.0.0.0/8", le=24)
        oracle = CountingOracle(ScriptedOracle([]))
        result = disambiguate_prefix_list_entry(store, "NEW", entry, oracle)
        assert result.question_count == 0
        assert result.store.prefix_list("NEW").permits(
            Ipv4Prefix.parse("10.5.0.0/24")
        )

    def test_non_overlapping_appends(self):
        store = parse_config(STORE_TEXT)
        entry = pl_entry("permit", "99.0.0.0/8")
        oracle = CountingOracle(ScriptedOracle([]))
        result = disambiguate_prefix_list_entry(store, "EDGE", entry, oracle)
        assert result.overlaps == ()
        assert result.question_count == 0
        assert result.position == 2

    def test_top_bottom_mode(self):
        store = parse_config(STORE_TEXT)
        entry = pl_entry("permit", "10.1.2.0/24", le=32)
        oracle = CountingOracle(ScriptedOracle([1]))
        result = disambiguate_prefix_list_entry(
            store, "EDGE", entry, oracle, DisambiguationMode.TOP_BOTTOM
        )
        assert result.position == 0
        assert result.question_count == 1


class TestAsPathInsertion:
    def test_compare_finds_order_difference(self):
        a = parse_config(
            "ip as-path access-list L deny _666_\n"
            "ip as-path access-list L permit _100_\n"
        ).as_path_list("L")
        b = parse_config(
            "ip as-path access-list L permit _100_\n"
            "ip as-path access-list L deny _666_\n"
        ).as_path_list("L")
        diff = first_difference(AsPathListPolicy, a, b)
        assert diff is not None
        path = diff.subject
        assert 100 in path and 666 in path

    def test_deny_exception(self):
        # New entry: permit paths through AS 666 if they end at AS 42 --
        # must land above the blanket deny of AS 666.
        store = parse_config(STORE_TEXT)
        entry = AsPathEntry("permit", "_666 42$")

        def intended(path):
            rendered = " ".join(str(a) for a in path)
            if rendered.endswith("666 42") or rendered == "666 42":
                return ("permit",)
            if 666 in path:
                return ("deny",)
            if 100 in path:
                return ("permit",)
            return ("deny",)

        oracle = CountingOracle(IntentOracle(intended))
        result = disambiguate_as_path_entry(store, "PATHS", entry, oracle)
        assert result.position == 0
        updated = result.store.as_path_list("PATHS")
        from repro.route import BgpRoute

        assert updated.permits(BgpRoute.build("1.0.0.0/8", as_path=[666, 42]))
        assert not updated.permits(BgpRoute.build("1.0.0.0/8", as_path=[666, 43]))


class TestCommunityInsertion:
    def test_compare_finds_order_difference(self):
        a = parse_config(
            "ip community-list expanded L deny ^65000:1$\n"
            "ip community-list expanded L permit ^65000:\n"
        ).community_list("L")
        b = parse_config(
            "ip community-list expanded L permit ^65000:\n"
            "ip community-list expanded L deny ^65000:1$\n"
        ).community_list("L")
        diff = first_difference(CommunityListPolicy, a, b)
        assert diff is not None
        assert any("65000:1" == c for c in diff.subject)

    def test_exception_above_the_deny(self):
        # permit 65000:1 when 65000:99 is also present -> above the deny.
        store = parse_config(STORE_TEXT)
        entry = CommunityListEntry("permit", regex="^65000:99$")

        def intended(communities):
            has = lambda c: c in communities
            if has("65000:99"):
                return ("permit",)
            if has("65000:1"):
                return ("deny",)
            if any(c.startswith("65000:") for c in communities):
                return ("permit",)
            return ("deny",)

        oracle = CountingOracle(IntentOracle(intended))
        result = disambiguate_community_entry(store, "COMMS", entry, oracle)
        updated = result.store.community_list("COMMS")
        from repro.route import BgpRoute

        assert updated.permits(
            BgpRoute.build("1.0.0.0/8", communities=["65000:99"])
        )

    def test_kind_mismatch_rejected(self):
        store = parse_config(STORE_TEXT)
        entry = CommunityListEntry("permit", communities=("65000:5",))
        with pytest.raises(ValueError):
            disambiguate_community_entry(
                store, "COMMS", entry, ScriptedOracle([1, 1, 1])
            )

    def test_standard_list_insertion(self):
        store = parse_config(
            "ip community-list standard STD permit 65000:1 65000:2"
        )
        entry = CommunityListEntry("deny", communities=("65000:1",))

        def intended(communities):
            if "65000:1" in communities:
                return ("deny",)
            return ("deny",)  # nothing else is permitted by STD alone

        oracle = CountingOracle(IntentOracle(intended))
        result = disambiguate_community_entry(store, "STD", entry, oracle)
        updated = result.store.community_list("STD")
        from repro.route import BgpRoute

        assert not updated.permits(
            BgpRoute.build("1.0.0.0/8", communities=["65000:1", "65000:2"])
        )
