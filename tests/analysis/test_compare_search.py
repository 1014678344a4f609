"""Tests for differential comparison and spec search.

The central test reproduces the paper's §2.2 walkthrough: inserting the
synthesised stanza at the top vs the bottom of ISP_OUT must yield a
differential route shaped like the paper's example (network 100.0.0.0/16,
AS path ending in 32, community 300:3), with OPTION 1 = permit + metric 55
and OPTION 2 = deny.
"""

from repro.analysis import (
    AclPolicy,
    RouteMapPolicy,
    compare_filters,
    compare_route_policies,
    eval_route_map,
    search_policy,
)
from repro.analysis.headerspace import PacketRegion, PacketSpace
from repro.analysis.routespace import RouteRegion, RouteSpace
from repro.analysis.prefixspace import PrefixAtom, PrefixSpace
from repro.config import parse_config
from repro.netaddr import IntervalSet, Ipv4Prefix

TOP_INSERTED = """
ip as-path access-list D0 permit _32$
ip community-list expanded D2 permit _300:3_
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
ip prefix-list D1 seq 30 permit 1.0.0.0/20 ge 24
ip prefix-list D3 permit 100.0.0.0/16 le 23
route-map ISP_OUT permit 10
 match community D2
 match ip address prefix-list D3
 set metric 55
route-map ISP_OUT deny 20
 match as-path D0
route-map ISP_OUT deny 30
 match ip address prefix-list D1
route-map ISP_OUT permit 40
 match local-preference 300
"""

BOTTOM_INSERTED = """
ip as-path access-list D0 permit _32$
ip community-list expanded D2 permit _300:3_
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
ip prefix-list D1 seq 30 permit 1.0.0.0/20 ge 24
ip prefix-list D3 permit 100.0.0.0/16 le 23
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
route-map ISP_OUT permit 40
 match community D2
 match ip address prefix-list D3
 set metric 55
"""


class TestPaperDifferentialExample:
    def test_top_vs_bottom_insertion_differs(self):
        store_a = parse_config(TOP_INSERTED)
        store_b = parse_config(BOTTOM_INSERTED)
        diffs = compare_route_policies(
            store_a.route_map("ISP_OUT"),
            store_b.route_map("ISP_OUT"),
            store_a,
            store_b,
        )
        assert diffs
        # The paper's example: a route matching both the new stanza and an
        # original deny stanza.  At the top it is permitted with metric 55;
        # at the bottom the deny wins.
        shaped = [
            d
            for d in diffs
            if d.result_a.action == "permit" and d.result_b.action == "deny"
        ]
        assert shaped
        example = shaped[0]
        assert example.result_a.output.metric == 55
        assert "300:3" in example.route.communities
        # The route is permitted by stanza 10 of (a) and denied by (b).
        assert example.result_a.stanza_seq == 10

    def test_differences_are_real(self):
        store_a = parse_config(TOP_INSERTED)
        store_b = parse_config(BOTTOM_INSERTED)
        map_a = store_a.route_map("ISP_OUT")
        map_b = store_b.route_map("ISP_OUT")
        for diff in compare_route_policies(map_a, map_b, store_a, store_b):
            ra = eval_route_map(map_a, store_a, diff.route)
            rb = eval_route_map(map_b, store_b, diff.route)
            assert ra.behaviour_key() != rb.behaviour_key()
            assert ra.behaviour_key() == diff.result_a.behaviour_key()
            assert rb.behaviour_key() == diff.result_b.behaviour_key()

    def test_render_format(self):
        store_a = parse_config(TOP_INSERTED)
        store_b = parse_config(BOTTOM_INSERTED)
        diffs = compare_route_policies(
            store_a.route_map("ISP_OUT"),
            store_b.route_map("ISP_OUT"),
            store_a,
            store_b,
            max_differences=1,
        )
        text = diffs[0].render()
        assert "OPTION 1:" in text
        assert "OPTION 2:" in text
        assert "Network:" in text

    def test_identical_policies_have_no_differences(self):
        store = parse_config(TOP_INSERTED)
        rm = store.route_map("ISP_OUT")
        assert compare_route_policies(rm, rm, store) == []


class TestTransformCoincidence:
    def test_set_metric_vs_nothing_found_even_with_overlap(self):
        # Both stanzas permit the same space; one sets metric 55.  A naive
        # witness (metric defaults to 0) still differs, but a region that
        # *requires* metric 55 must be recognised as behaviourally equal.
        text_a = """
route-map RM permit 10
 match metric 55
 set metric 55
"""
        text_b = """
route-map RM permit 10
 match metric 55
"""
        store_a = parse_config(text_a)
        store_b = parse_config(text_b)
        diffs = compare_route_policies(
            store_a.route_map("RM"), store_b.route_map("RM"), store_a, store_b
        )
        assert diffs == []

    def test_set_metric_vs_nothing_differs_on_open_region(self):
        store_a = parse_config("route-map RM permit 10\n set metric 55")
        store_b = parse_config("route-map RM permit 10")
        diffs = compare_route_policies(
            store_a.route_map("RM"), store_b.route_map("RM"), store_a, store_b
        )
        assert diffs
        assert diffs[0].result_a.output.metric == 55
        assert diffs[0].result_b.output.metric != 55

    def test_set_community_replace_vs_nothing(self):
        # A route already carrying exactly the replaced communities would
        # coincide; the comparator must find a distinguishing route.
        store_a = parse_config("route-map RM permit 10\n set community 9:9")
        store_b = parse_config("route-map RM permit 10")
        diffs = compare_route_policies(
            store_a.route_map("RM"), store_b.route_map("RM"), store_a, store_b
        )
        assert diffs
        d = diffs[0]
        assert d.result_a.output.communities != d.result_b.output.communities

    def test_prepend_always_differs(self):
        store_a = parse_config("route-map RM permit 10\n set as-path prepend 65000")
        store_b = parse_config("route-map RM permit 10")
        diffs = compare_route_policies(
            store_a.route_map("RM"), store_b.route_map("RM"), store_a, store_b
        )
        assert diffs
        assert diffs[0].result_a.output.asns()[:1] == [65000]


class TestCompareFilters:
    def test_acl_rule_order_difference(self):
        text_a = """
ip access-list extended A
 10 deny tcp 10.0.0.0 0.255.255.255 any eq 22
 20 permit tcp any any
"""
        text_b = """
ip access-list extended B
 10 permit tcp any any
 20 deny tcp 10.0.0.0 0.255.255.255 any eq 22
"""
        acl_a = parse_config(text_a).acl("A")
        acl_b = parse_config(text_b).acl("B")
        diffs = compare_filters(acl_a, acl_b)
        assert diffs
        packet = diffs[0].packet
        assert packet.dst_port == 22
        assert str(packet.src_ip).startswith("10.")
        assert {diffs[0].result_a.action, diffs[0].result_b.action} == {
            "permit",
            "deny",
        }

    def test_equivalent_acls(self):
        text = """
ip access-list extended A
 10 permit tcp any any
"""
        acl = parse_config(text).acl("A")
        assert compare_filters(acl, acl) == []


class TestSearch:
    def setup_method(self):
        self.store = parse_config(BOTTOM_INSERTED)
        self.rm = self.store.route_map("ISP_OUT")

    def test_search_permit_in_constrained_space(self):
        space = RouteSpace.of(
            RouteRegion(local_preference=IntervalSet.single(300))
        )
        route = search_policy(RouteMapPolicy(self.rm, self.store), space, "permit")
        assert route is not None
        assert route.local_preference == 300
        assert eval_route_map(self.rm, self.store, route).permitted()

    def test_search_deny(self):
        space = RouteSpace.of(
            RouteRegion(
                prefix=PrefixSpace.of_atom(
                    PrefixAtom(Ipv4Prefix.parse("10.0.0.0/8"), 8, 24)
                )
            )
        )
        route = search_policy(RouteMapPolicy(self.rm, self.store), space, "deny")
        assert route is not None
        assert not eval_route_map(self.rm, self.store, route).permitted()

    def test_search_unsatisfiable(self):
        # Routes with local-preference 300 not originating anywhere: the
        # route-map permits them, so searching for a deny on a space where
        # every route is permitted must fail.
        space = RouteSpace.of(
            RouteRegion(
                prefix=PrefixSpace.exact(Ipv4Prefix.parse("42.0.0.0/8")),
                local_preference=IntervalSet.single(300),
                as_path_forbidden=frozenset({"_32$"}),
            )
        )
        route = search_policy(RouteMapPolicy(self.rm, self.store), space, "deny")
        assert route is None

    def test_search_filters(self):
        text = """
ip access-list extended A
 10 deny tcp 10.0.0.0 0.255.255.255 any eq 22
 20 permit tcp any any
"""
        acl = parse_config(text).acl("A")
        space = PacketSpace.of(PacketRegion(dst_ports=IntervalSet.single(22)))
        denied = search_policy(AclPolicy(acl), space, "deny")
        assert denied is not None
        assert denied.dst_port == 22
        permitted = search_policy(AclPolicy(acl), space, "permit")
        assert permitted is not None
        assert not str(permitted.src_ip).startswith("10.")
