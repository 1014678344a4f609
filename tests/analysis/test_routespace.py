"""Tests for symbolic route spaces: guards, reachability, witnesses."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    RouteRegion,
    RouteSpace,
    route_map_reachable_spaces,
    stanza_guard_space,
)
from repro.analysis.routespace import (
    AsPathSpace,
    CommunitySpace,
    as_path_list_dnf,
    community_list_dnf,
    prefix_list_space,
)
from repro.config import parse_config
from repro.netaddr import IntervalSet, Ipv4Prefix
from repro.regexlib.cisco import (
    as_path_matches,
    community_matches,
    literal_community_pattern,
)
from repro.route import BgpRoute

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


def routes_for_probing():
    return [
        BgpRoute.build("10.5.0.0/24", local_preference=300),
        BgpRoute.build("10.5.0.0/25"),
        BgpRoute.build("20.0.1.0/24", as_path=[32]),
        BgpRoute.build("1.0.0.0/24", local_preference=300),
        BgpRoute.build("1.0.0.0/20"),
        BgpRoute.build("50.0.0.0/8", as_path=[100, 32], local_preference=300),
        BgpRoute.build("50.0.0.0/8", as_path=[32, 100]),
        BgpRoute.build("50.0.0.0/8", local_preference=300),
        BgpRoute.build("50.0.0.0/8", communities=["300:3"]),
        BgpRoute.build("100.0.0.0/16", as_path=[32], communities=["300:3"]),
    ]


class TestPrefixListSpace:
    def test_permitted_space_matches_concrete(self):
        store = parse_config(ISP_OUT)
        pl = store.prefix_list("D1")
        space = prefix_list_space(pl)
        for text in [
            "10.0.0.0/8",
            "10.5.0.0/24",
            "10.5.0.0/25",
            "20.0.0.0/16",
            "20.0.1.0/30",
            "1.0.0.0/20",
            "1.0.1.0/24",
            "1.0.0.0/32",
            "99.0.0.0/8",
        ]:
            network = Ipv4Prefix.parse(text)
            assert space.contains(network) == pl.permits(network), text

    def test_deny_entries_shadow(self):
        text = """
ip prefix-list L seq 10 deny 10.1.0.0/16 le 32
ip prefix-list L seq 20 permit 10.0.0.0/8 le 32
"""
        store = parse_config(text)
        pl = store.prefix_list("L")
        space = prefix_list_space(pl)
        for probe in ["10.1.0.0/16", "10.1.2.0/24", "10.2.0.0/16", "10.0.0.0/8"]:
            network = Ipv4Prefix.parse(probe)
            assert space.contains(network) == pl.permits(network), probe


class TestListDnf:
    def test_community_list_with_deny(self):
        text = """
ip community-list expanded C deny ^300:1$
ip community-list expanded C permit ^300:
"""
        store = parse_config(text)
        dnf = community_list_dnf(store.community_list("C"))
        assert dnf == [(frozenset({"^300:"}), frozenset({"^300:1$"}))]

    def test_standard_community_list_expansion(self):
        text = "ip community-list standard S permit 100:1 100:2"
        store = parse_config(text)
        dnf = community_list_dnf(store.community_list("S"))
        assert len(dnf) == 1
        required, forbidden = dnf[0]
        assert len(required) == 2
        assert not forbidden

    def test_as_path_list_with_deny(self):
        text = """
ip as-path access-list A deny _100_
ip as-path access-list A permit .*
"""
        store = parse_config(text)
        dnf = as_path_list_dnf(store.as_path_list("A"))
        assert dnf == [(frozenset({".*"}), frozenset({"_100_"}))]


_COMMUNITIES = ("65000:1", "65000:2", "65000:3", "65001:1")

#: Per kind: the patterns spaces draw from, the sample inputs, and
#: whether one pattern holds on one input.
_PATTERN_KINDS = {
    "community": (
        CommunitySpace,
        [literal_community_pattern(c) for c in _COMMUNITIES] + ["^65000:"],
        [
            frozenset(chosen)
            for size in range(3)
            for chosen in itertools.combinations(_COMMUNITIES, size)
        ],
        lambda pattern, sample: any(community_matches(pattern, c) for c in sample),
    ),
    "as-path": (
        AsPathSpace,
        ["_100_", "^100_", "_200$", "^$", ".*"],
        [(), (100,), (200,), (100, 200), (200, 100), (300,)],
        as_path_matches,
    ),
}


def _holds(space, matches, sample):
    return any(
        all(matches(p, sample) for p in required)
        and not any(matches(p, sample) for p in forbidden)
        for required, forbidden in space.terms
    )


class TestPatternSpaceTerms:
    @pytest.mark.parametrize("kind", sorted(_PATTERN_KINDS))
    def test_results_hold_no_empty_or_repeated_term(self, kind):
        space_type, patterns, samples, matches = _PATTERN_KINDS[kind]
        rng = random.Random(f"1421:{kind}")
        spaces = [space_type.universe()]
        for _ in range(5):
            guard = space_type.requiring(rng.sample(patterns, rng.randint(1, 3)))
            spaces += [guard, guard.complement()]
        members = {id(space): [_holds(space, matches, s) for s in samples] for space in spaces}
        for a in spaces:
            in_a = members[id(a)]
            checks = [(a.complement(), [not x for x in in_a])]
            for b in spaces:
                in_b = members[id(b)]
                checks.append((a.intersect(b), [x and y for x, y in zip(in_a, in_b)]))
                checks.append((a.subtract(b), [x and not y for x, y in zip(in_a, in_b)]))
            for result, expected in checks:
                keys = [(frozenset(req), frozenset(forb)) for req, forb in result.terms]
                assert all(req.isdisjoint(forb) for req, forb in keys), result
                assert len(set(keys)) == len(keys), result
                assert [_holds(result, matches, s) for s in samples] == expected, result


class TestStanzaGuards:
    def test_guard_agrees_with_concrete_matching(self):
        store = parse_config(ISP_OUT)
        rm = store.route_map("ISP_OUT")
        from repro.analysis.evaluate import stanza_matches

        for stanza in rm.stanzas:
            guard = stanza_guard_space(stanza, store)
            for route in routes_for_probing():
                assert guard.contains(route) == stanza_matches(
                    stanza, route, store
                ), (stanza.seq, route.network)

    def test_guard_witness_is_in_guard(self):
        store = parse_config(ISP_OUT)
        rm = store.route_map("ISP_OUT")
        from repro.analysis.evaluate import stanza_matches

        for stanza in rm.stanzas:
            guard = stanza_guard_space(stanza, store)
            witness = guard.witness()
            assert witness is not None
            assert stanza_matches(stanza, witness, store)


class TestReachableSpaces:
    def test_reaches_agree_with_evaluator(self):
        store = parse_config(ISP_OUT)
        rm = store.route_map("ISP_OUT")
        from repro.analysis.evaluate import eval_route_map

        reaches = route_map_reachable_spaces(rm, store, include_implicit_deny=True)
        for route in routes_for_probing():
            result = eval_route_map(rm, store, route)
            for stanza, space in reaches:
                seq = stanza.seq if stanza is not None else None
                expected = result.stanza_seq == seq
                assert space.contains(route) == expected, (seq, route.network)

    def test_reach_witnesses_hit_their_stanza(self):
        store = parse_config(ISP_OUT)
        rm = store.route_map("ISP_OUT")
        from repro.analysis.evaluate import eval_route_map

        reaches = route_map_reachable_spaces(rm, store, include_implicit_deny=True)
        for stanza, space in reaches:
            witness = space.witness()
            assert witness is not None
            result = eval_route_map(rm, store, witness)
            expected_seq = stanza.seq if stanza is not None else None
            assert result.stanza_seq == expected_seq


class TestRouteRegion:
    def test_witness_prefers_defaults(self):
        region = RouteRegion()
        witness = region.witness()
        assert witness.local_preference == 100
        assert witness.metric == 0

    def test_witness_respects_constraints(self):
        region = RouteRegion(
            communities_required=frozenset({"_300:3_"}),
            as_path_required=frozenset({"_32$"}),
            local_preference=IntervalSet.single(300),
        )
        witness = region.witness()
        assert witness is not None
        assert region.contains(witness)
        assert witness.local_preference == 300
        assert witness.asns()[-1] == 32

    def test_unsatisfiable_community_constraint(self):
        region = RouteRegion(
            communities_required=frozenset({"^300:3$"}),
            communities_forbidden=frozenset({"^300:"}),
        )
        assert region.is_empty()
        assert region.witness() is None

    def test_unsatisfiable_as_path_constraint(self):
        region = RouteRegion(
            as_path_required=frozenset({"^$"}),
            as_path_forbidden=frozenset({"^$"}),
        )
        assert region.is_empty()

    def test_negation_covers_complement(self):
        region = RouteRegion(
            communities_required=frozenset({"_300:3_"}),
            local_preference=IntervalSet.single(300),
        )
        negation = RouteSpace(region.negation_regions())
        probes = [
            BgpRoute.build("1.0.0.0/8", communities=["300:3"], local_preference=300),
            BgpRoute.build("1.0.0.0/8", communities=["300:3"]),
            BgpRoute.build("1.0.0.0/8", local_preference=300),
            BgpRoute.build("1.0.0.0/8"),
        ]
        for route in probes:
            assert negation.contains(route) != region.contains(route)

    def test_space_subtract(self):
        everything = RouteSpace.universe()
        lp300 = RouteSpace.of(RouteRegion(local_preference=IntervalSet.single(300)))
        rest = everything.subtract(lp300)
        assert not rest.contains(BgpRoute.build("1.0.0.0/8", local_preference=300))
        assert rest.contains(BgpRoute.build("1.0.0.0/8", local_preference=100))

    @given(st.integers(0, 1000), st.integers(0, 1000))
    @settings(max_examples=30)
    def test_scalar_region_intersection(self, a, b):
        ra = RouteRegion(metric=IntervalSet.closed(0, a))
        rb = RouteRegion(metric=IntervalSet.closed(b, 2000))
        both = ra.intersect(rb)
        route = BgpRoute.build("1.0.0.0/8", metric=min(a, b))
        assert both.contains(route) == (b <= min(a, b) <= a)
