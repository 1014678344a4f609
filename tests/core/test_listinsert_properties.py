"""Property tests for list-entry insertion (§7 extension): placement
found by disambiguation is behaviourally equivalent to the intended one."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.lists import PrefixList, PrefixListEntry
from repro.config.store import ConfigStore
from repro.core import CountingOracle, IntentOracle
from repro.core.disambiguator import disambiguate_prefix_list_entry
from repro.core.insertion import insert_prefix_list_entry
from repro.netaddr import Ipv4Address, Ipv4Prefix


def block(index: int) -> Ipv4Prefix:
    """Nested /8../16 prefixes under 10.0.0.0/8 for rich overlaps."""
    return Ipv4Prefix.canonical(
        Ipv4Address((10 << 24) | (index << 16)), 16 if index else 8
    )


@st.composite
def cases(draw):
    n = draw(st.integers(1, 5))
    entries = []
    for idx in range(n):
        which = draw(st.integers(0, 3))
        prefix = block(which)
        le = draw(st.sampled_from([24, 32, None]))
        entries.append(
            PrefixListEntry(
                seq=10 * (idx + 1),
                action=draw(st.sampled_from(["permit", "deny"])),
                prefix=prefix,
                le=le,
            )
        )
    target = PrefixList("L", tuple(entries))
    new_entry = PrefixListEntry(
        seq=0,
        action=draw(st.sampled_from(["permit", "deny"])),
        prefix=block(draw(st.integers(0, 3))),
        le=draw(st.sampled_from([24, 32, None])),
    )
    position = draw(st.integers(0, n))
    return target, new_entry, position


def probe_networks():
    probes = []
    for index in range(0, 4):
        base = block(index)
        probes.append(base)
        for length in (16, 20, 24, 28, 32):
            if length >= base.length:
                probes.append(Ipv4Prefix.canonical(base.network, length))
    probes.append(Ipv4Prefix.parse("99.0.0.0/8"))
    return probes


PROBES = probe_networks()


class TestPrefixListPlacementProperty:
    @given(cases())
    @settings(max_examples=60, deadline=None)
    def test_found_placement_matches_reference(self, case):
        target, entry, position = case
        reference = insert_prefix_list_entry(target, entry, position)

        def intended(network):
            return ("permit" if reference.permits(network) else "deny",)

        store = ConfigStore()
        store.add_prefix_list(target)
        oracle = CountingOracle(IntentOracle(intended))
        result = disambiguate_prefix_list_entry(store, "L", entry, oracle)
        produced = result.store.prefix_list("L")
        for network in PROBES:
            assert produced.permits(network) == reference.permits(network), (
                network,
                result.position,
                position,
            )

    @given(cases())
    @settings(max_examples=40, deadline=None)
    def test_question_count_bounded(self, case):
        import math

        target, entry, position = case
        reference = insert_prefix_list_entry(target, entry, position)

        def intended(network):
            return ("permit" if reference.permits(network) else "deny",)

        store = ConfigStore()
        store.add_prefix_list(target)
        oracle = CountingOracle(IntentOracle(intended))
        result = disambiguate_prefix_list_entry(store, "L", entry, oracle)
        k = len(result.overlaps)
        bound = math.ceil(math.log2(k + 1)) if k else 0
        assert result.question_count <= bound
