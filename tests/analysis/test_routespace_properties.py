"""Property tests: symbolic route-space algebra vs concrete evaluation.

Guards are generated over a finite probe domain that covers every field
kind (prefixes, communities, AS paths, scalars); each symbolic operation
(intersection, negation, subtraction, reachability) is checked against
exhaustive concrete probing.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.evaluate import eval_route_map, stanza_matches
from repro.analysis.prefixspace import PrefixAtom, PrefixSpace
from repro.analysis.routespace import (
    U32,
    RouteRegion,
    RouteSpace,
    route_map_reachable_spaces,
    stanza_guard_space,
)
from repro.config import parse_config
from repro.netaddr import IntervalSet, Ipv4Prefix
from repro.regexlib.cisco import as_path_matches, literal_community_pattern
from repro.route import BgpRoute

LISTS_TEXT = """
ip prefix-list PL_A seq 5 permit 10.0.0.0/8 le 16
ip prefix-list PL_B seq 5 deny 10.1.0.0/16
ip prefix-list PL_B seq 10 permit 10.0.0.0/8 le 24
ip community-list expanded CL_X permit _65000:1_
ip community-list expanded CL_Y deny ^65000:2$
ip community-list expanded CL_Y permit ^65000:
ip as-path access-list AL_P permit _100$
ip as-path access-list AL_Q deny _666_
ip as-path access-list AL_Q permit .*
"""

MATCH_CLAUSES = [
    " match ip address prefix-list PL_A",
    " match ip address prefix-list PL_B",
    " match community CL_X",
    " match community CL_Y",
    " match as-path AL_P",
    " match as-path AL_Q",
    " match local-preference 300",
    " match metric 5",
]


def probe_routes():
    networks = ["10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16", "10.1.2.0/24", "99.0.0.0/8"]
    community_sets = [(), ("65000:1",), ("65000:2",), ("65000:1", "65000:3")]
    paths = [(), (100,), (7, 100), (100, 7), (666, 100)]
    lps = [100, 300]
    routes = []
    for network, communities, path in itertools.product(
        networks, community_sets, paths
    ):
        routes.append(
            BgpRoute.build(
                network,
                as_path=path,
                communities=communities,
                local_preference=100,
            )
        )
    routes.append(BgpRoute.build("10.0.0.0/8", local_preference=300))
    routes.append(BgpRoute.build("10.0.0.0/8", metric=5))
    return routes


PROBES = probe_routes()


@st.composite
def stanzas(draw):
    clauses = draw(st.lists(st.sampled_from(MATCH_CLAUSES), max_size=2, unique=True))
    action = draw(st.sampled_from(["permit", "deny"]))
    text = LISTS_TEXT + f"route-map RM {action} 10\n" + "\n".join(clauses)
    store = parse_config(text)
    return store, store.route_map("RM").stanzas[0]


class TestGuardSemantics:
    @given(stanzas())
    @settings(max_examples=80, deadline=None)
    def test_guard_space_matches_concrete(self, case):
        store, stanza = case
        guard = stanza_guard_space(stanza, store)
        for route in PROBES:
            assert guard.contains(route) == stanza_matches(stanza, route, store)

    @given(stanzas())
    @settings(max_examples=60, deadline=None)
    def test_complement_partitions_probes(self, case):
        store, stanza = case
        guard = stanza_guard_space(stanza, store)
        complement = guard.complement()
        for route in PROBES:
            assert guard.contains(route) != complement.contains(route)

    @given(stanzas(), stanzas())
    @settings(max_examples=60, deadline=None)
    def test_intersection_matches_conjunction(self, case_a, case_b):
        store_a, stanza_a = case_a
        store_b, stanza_b = case_b
        guard_a = stanza_guard_space(stanza_a, store_a)
        guard_b = stanza_guard_space(stanza_b, store_b)
        both = guard_a.intersect(guard_b)
        for route in PROBES:
            expected = guard_a.contains(route) and guard_b.contains(route)
            assert both.contains(route) == expected

    @given(stanzas(), stanzas())
    @settings(max_examples=40, deadline=None)
    def test_emptiness_agrees_with_probing_one_way(self, case_a, case_b):
        # Symbolic emptiness is exact, probing is not exhaustive over the
        # infinite domain: empty => no probe inside.
        store_a, stanza_a = case_a
        store_b, stanza_b = case_b
        both = stanza_guard_space(stanza_a, store_a).intersect(
            stanza_guard_space(stanza_b, store_b)
        )
        if both.is_empty():
            for route in PROBES:
                assert not both.contains(route)

    @given(stanzas(), stanzas())
    @settings(max_examples=40, deadline=None)
    def test_nonempty_witness_is_contained(self, case_a, case_b):
        store_a, stanza_a = case_a
        store_b, stanza_b = case_b
        both = stanza_guard_space(stanza_a, store_a).intersect(
            stanza_guard_space(stanza_b, store_b)
        )
        witness = both.witness()
        if witness is not None:
            assert both.contains(witness)
            assert stanza_matches(stanza_a, witness, store_a)
            assert stanza_matches(stanza_b, witness, store_b)


@st.composite
def multi_stanza_maps(draw):
    count = draw(st.integers(1, 4))
    lines = [LISTS_TEXT]
    for idx in range(count):
        action = draw(st.sampled_from(["permit", "deny"]))
        lines.append(f"route-map RM {action} {10 * (idx + 1)}")
        clauses = draw(
            st.lists(st.sampled_from(MATCH_CLAUSES), max_size=2, unique=True)
        )
        lines.extend(clauses)
    store = parse_config("\n".join(lines))
    return store, store.route_map("RM")


class TestReachabilitySemantics:
    @given(multi_stanza_maps())
    @settings(max_examples=40, deadline=None)
    def test_reaches_partition_probe_routes(self, case):
        store, rm = case
        reaches = route_map_reachable_spaces(rm, store, include_implicit_deny=True)
        for route in PROBES:
            containing = [
                (stanza.seq if stanza else None)
                for stanza, space in reaches
                if space.contains(route)
            ]
            assert len(containing) == 1, (route, containing)
            assert containing[0] == eval_route_map(rm, store, route).stanza_seq


# ----------------------------------------------------- membership oracle
#
# Spaces of up to 4 regions over a small alphabet, checked operation by
# operation against RouteRegion.contains on a finite sample that holds a
# route for every combination of the alphabet's predicates, so that
# emptiness and inclusion are decided exactly on the sample as well.
# A region is a conjunction of per-field tests, so its members over the
# product sample are the product of its per-field members; each field's
# members come from RouteRegion.contains on the region restricted to that
# field, and a random subset of routes checks the product against
# RouteRegion.contains on whole routes.

_ATOMS = (
    PrefixAtom(Ipv4Prefix.parse("10.0.0.0/8"), 8, 16),
    PrefixAtom(Ipv4Prefix.parse("10.1.0.0/16"), 16, 16),
    PrefixAtom(Ipv4Prefix.parse("10.1.0.0/16"), 24, 32),
    PrefixAtom(Ipv4Prefix.parse("10.1.2.0/24"), 24, 24),
    PrefixAtom(Ipv4Prefix.parse("10.2.0.0/16"), 16, 24),
)
_PREFIX_SPACES = (
    [PrefixSpace.universe()]
    + [PrefixSpace.of_atom(atom) for atom in _ATOMS]
    + [PrefixSpace.of_atom(_ATOMS[1]).union(PrefixSpace.of_atom(_ATOMS[4]))]
)
_COMMUNITIES = ("65000:1", "65000:2", "65000:3", "65001:1")
#: The three communities as literal patterns, plus one expanded regex
#: that matches the first and the fourth community.
_COMMUNITY_PATTERNS = tuple(
    literal_community_pattern(c) for c in _COMMUNITIES[:3]
) + ("^6500[01]:1$",)
_AS_PATH_PATTERNS = ("_100_", "^200_", "_300$")
_SCALARS = {"local_preference": (100, 300), "metric": (0, 5)}


def _representatives(candidates, key):
    """One candidate per distinct ``key``: a route for every class."""
    out = {}
    for candidate in candidates:
        out.setdefault(key(candidate), candidate)
    return list(out.values())


def _networks():
    bases = ["0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24",
             "10.1.3.0/24", "10.2.0.0/16", "10.3.0.0/16", "99.0.0.0/8"]
    candidates = [
        Ipv4Prefix.canonical(Ipv4Prefix.parse(base).network, length)
        for base in bases
        for length in range(0, 33, 4)
        if length >= Ipv4Prefix.parse(base).length
    ]
    return _representatives(
        candidates, lambda n: tuple(atom.contains(n) for atom in _ATOMS)
    )


def _as_paths():
    candidates = [
        path
        for length in range(4)
        for path in itertools.product((100, 200, 300), repeat=length)
    ]
    return _representatives(
        candidates,
        lambda path: tuple(as_path_matches(p, path) for p in _AS_PATH_PATTERNS),
    )


#: Per-field samples; a route of the product sample takes one of each.
FIELDS = {
    "prefix": _networks(),
    "communities": [
        frozenset(c for bit, c in enumerate(_COMMUNITIES) if mask >> bit & 1)
        for mask in range(1 << len(_COMMUNITIES))
    ],
    "as_path": _as_paths(),
    "local_preference": [100, 300, 7],
    "metric": [0, 5, 7],
}
_FIELD_NAMES = tuple(FIELDS)
_SIZES = tuple(len(FIELDS[name]) for name in _FIELD_NAMES)
SAMPLE = 1
for _size in _SIZES:
    SAMPLE *= _size
ALL = (1 << SAMPLE) - 1


def _route(values):
    network, communities, path, lp, metric = values
    return BgpRoute.build(
        str(network), as_path=path, communities=communities,
        local_preference=lp, metric=metric,
    )


def _coordinates(index):
    out = []
    for size in reversed(_SIZES):
        out.append(index % size)
        index //= size
    return tuple(reversed(out))


def _field_masks():
    """``[field][value] -> mask`` of sample routes with that field value."""
    masks = [[0] * size for size in _SIZES]
    for index in range(SAMPLE):
        for field, value in enumerate(_coordinates(index)):
            masks[field][value] |= 1 << index
    return masks


FIELD_MASKS = _field_masks()


def _field_routes():
    """``[field][value] -> route``: the first sample route, one field varied."""
    base = [FIELDS[name][0] for name in _FIELD_NAMES]
    out = []
    for field, name in enumerate(_FIELD_NAMES):
        routes = []
        for value in FIELDS[name]:
            values = list(base)
            values[field] = value
            routes.append(_route(values))
        out.append(routes)
    return out


FIELD_ROUTES = _field_routes()


def _restricted(region, field):
    """``region`` with every field but ``field`` left unconstrained."""
    if field == "prefix":
        return RouteRegion(prefix=region.prefix)
    if field == "communities":
        return RouteRegion(
            communities_required=region.communities_required,
            communities_forbidden=region.communities_forbidden,
        )
    if field == "as_path":
        return RouteRegion(
            as_path_required=region.as_path_required,
            as_path_forbidden=region.as_path_forbidden,
        )
    return RouteRegion(**{field: getattr(region, field)})


def region_members(region):
    mask = ALL
    for field, name in enumerate(_FIELD_NAMES):
        only = _restricted(region, name)
        field_mask = 0
        for route, unit in zip(FIELD_ROUTES[field], FIELD_MASKS[field]):
            if only.contains(route):
                field_mask |= unit
        mask &= field_mask
    return mask


def members(space):
    mask = 0
    for region in space.regions:
        mask |= region_members(region)
    return mask


@st.composite
def regions(draw):
    def patterns(alphabet):
        return frozenset(draw(st.lists(st.sampled_from(alphabet), max_size=2)))

    def scalar(values):
        chosen = draw(st.sampled_from([None, (values[0],), (values[1],), values]))
        if chosen is None:
            return U32
        out = IntervalSet.empty()
        for value in chosen:
            out = out.union(IntervalSet.single(value))
        return out

    return RouteRegion(
        prefix=draw(st.sampled_from(_PREFIX_SPACES)),
        communities_required=patterns(_COMMUNITY_PATTERNS),
        communities_forbidden=patterns(_COMMUNITY_PATTERNS),
        as_path_required=patterns(_AS_PATH_PATTERNS),
        as_path_forbidden=patterns(_AS_PATH_PATTERNS),
        local_preference=scalar(_SCALARS["local_preference"]),
        metric=scalar(_SCALARS["metric"]),
    )


def route_spaces():
    return st.lists(regions(), max_size=4).map(lambda rs: RouteSpace(tuple(rs)))


class TestMembershipOracle:
    def test_sample_has_a_route_per_class(self):
        # Every combination of the alphabet's community and AS-path
        # predicates that some route realises is realised in the sample.
        assert len(FIELDS["communities"]) == 16
        assert len(FIELDS["as_path"]) == 8
        assert len(FIELDS["prefix"]) >= len(_ATOMS) + 2

    @given(regions(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_region_members_match_whole_route_membership(self, region, rng):
        mask = region_members(region)
        for index in rng.sample(range(SAMPLE), 40):
            values = [FIELDS[n][i] for n, i in zip(_FIELD_NAMES, _coordinates(index))]
            assert bool(mask >> index & 1) == region.contains(_route(values))

    @given(route_spaces(), route_spaces())
    @settings(max_examples=40, deadline=None)
    def test_every_operation_matches_membership(self, x, y):
        mx, my = members(x), members(y)
        results = {
            "x": (x, mx),
            "union": (x.union(y), mx | my),
            "intersect": (x.intersect(y), mx & my),
            "subtract": (x.subtract(y), mx & ~my),
            "complement": (x.complement(), ALL & ~mx),
        }
        for name, (space, expected) in results.items():
            assert members(space) == expected, name
            assert space.is_empty() == (expected == 0), name
            witness = space.witness()
            assert (witness is None) == (expected == 0), name
            if witness is not None:
                assert space.contains(witness), name
        assert x.is_subset_of(y) == (mx & ~my == 0)
        assert y.is_subset_of(x) == (my & ~mx == 0)
