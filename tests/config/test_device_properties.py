"""Property tests: random device configurations round-trip exactly, and
mutated device files fail only with :class:`ConfigParseError`."""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.device import (
    BgpConfig,
    BgpNeighbor,
    DeviceConfig,
    Interface,
    NetworkStatement,
    parse_device,
    render_device,
)
from repro.config.parser import ConfigParseError
from repro.config.routemap import RouteMap, RouteMapStanza
from repro.config.store import ConfigStore
from repro.evalcase.devices import figure3_device_files
from repro.netaddr import Ipv4Address, Ipv4Prefix

hostnames = st.from_regex(r"[a-z][a-z0-9-]{0,12}", fullmatch=True)
map_names = st.sampled_from(["RM_A", "RM_B", "RM_C"])


@st.composite
def addresses(draw):
    return Ipv4Address(draw(st.integers(0, 0xFFFFFFFF)))


@st.composite
def interfaces(draw, index):
    has_address = draw(st.booleans())
    if not has_address:
        # The prefix length is only expressible alongside an address.
        return Interface(name=f"Gi0/{index}")
    return Interface(
        name=f"Gi0/{index}",
        address=draw(addresses()),
        prefix_length=draw(st.integers(0, 32)),
    )


@st.composite
def devices(draw):
    store = ConfigStore()
    for name in ("RM_A", "RM_B", "RM_C"):
        store.add_route_map(
            RouteMap(name, (RouteMapStanza(10, draw(st.sampled_from(["permit", "deny"]))),))
        )
    device = DeviceConfig(hostname=draw(hostnames), store=store)
    for index in range(draw(st.integers(0, 3))):
        device.interfaces.append(draw(interfaces(index)))
    neighbor_count = draw(st.integers(0, 3))
    neighbors = []
    seen = set()
    for _ in range(neighbor_count):
        address = draw(addresses())
        if address in seen:
            continue
        seen.add(address)
        neighbors.append(
            BgpNeighbor(
                address=address,
                remote_as=draw(st.integers(1, 4294967295)),
                import_chain=tuple(draw(st.lists(map_names, max_size=2))),
                export_chain=tuple(draw(st.lists(map_names, max_size=2))),
            )
        )
    statements = []
    for _ in range(draw(st.integers(0, 2))):
        length = draw(st.integers(0, 32))
        prefix = Ipv4Prefix.canonical(draw(addresses()), length)
        statements.append(
            NetworkStatement(prefix, draw(st.one_of(st.none(), map_names)))
        )
    device.bgp = BgpConfig(
        asn=draw(st.integers(1, 4294967295)),
        router_id=draw(st.one_of(st.none(), addresses())),
        networks=tuple(statements),
        neighbors=tuple(sorted(neighbors, key=lambda n: n.address)),
    )
    return device


class TestDeviceRoundTrip:
    @given(devices())
    @settings(max_examples=80, deadline=None)
    def test_render_parse_round_trip(self, device):
        text = render_device(device)
        reparsed = parse_device(text)
        assert reparsed.hostname == device.hostname
        assert reparsed.interfaces == device.interfaces
        assert reparsed.bgp == device.bgp
        assert render_device(reparsed) == text


@functools.lru_cache(maxsize=None)
def figure3_lines():
    """Each Figure 3 device file as a tuple of lines, and every token."""
    files = tuple(
        tuple(text.splitlines())
        for _, text in sorted(figure3_device_files().items())
    )
    tokens = sorted({tok for lines in files for line in lines for tok in line.split()})
    return files, tokens


@st.composite
def mutated_device_files(draw):
    """A Figure 3 device file with one to three tokens dropped,
    duplicated or replaced by another token of the files."""
    files, tokens = figure3_lines()
    lines = list(draw(st.sampled_from(files)))
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, len(lines) - 1))
        words = lines[index].split()
        if not words:
            continue
        indent = lines[index][: len(lines[index]) - len(lines[index].lstrip())]
        at = draw(st.integers(0, len(words) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "replace"]))
        if op == "drop":
            del words[at]
        elif op == "duplicate":
            words.insert(at, words[at])
        else:
            words[at] = draw(st.sampled_from(tokens))
        lines[index] = indent + " ".join(words)
    return "\n".join(lines)


class TestMutatedDeviceFiles:
    @given(mutated_device_files())
    @settings(max_examples=100, deadline=None)
    def test_only_config_parse_errors(self, text):
        try:
            parse_device(text)
        except ConfigParseError:
            pass
