"""Device-level configuration files.

The paper's pipeline ultimately reads and writes whole router
configurations (Batfish parses "the configurations that could be
parsed", §3.1; the campus corpus is "1421 device configurations").  This
module models the device level of the IOS subset:

* ``hostname``;
* ``interface`` blocks with an address and optional ``ip access-group``
  attachments;
* a ``router bgp`` block with a router-id, ``network`` originations
  (optionally tagged through a route-map), and per-neighbor route-map
  policies — repeated ``route-map ... in/out`` lines build the
  per-neighbor *chain* the cloud study observed (§3.1).

Policy objects (route-maps, ACLs, lists) inside the file are parsed by
the existing statement parser; :func:`parse_device` splices both levels
together, and :func:`render_device` writes a file the parser round-trips.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.config.parser import ConfigParseError, parse_config
from repro.config.render import render_config
from repro.config.store import ConfigStore
from repro.netaddr import Ipv4Address, Ipv4Prefix


@dataclasses.dataclass(frozen=True)
class Interface:
    """One interface: an address plus optional ACL attachments."""

    name: str
    address: Optional[Ipv4Address] = None
    prefix_length: int = 24
    acl_in: Optional[str] = None
    acl_out: Optional[str] = None

    def network(self) -> Optional[Ipv4Prefix]:
        if self.address is None:
            return None
        return Ipv4Prefix.canonical(self.address, self.prefix_length)


@dataclasses.dataclass(frozen=True)
class BgpNeighbor:
    """One BGP neighbor with its route-map chains."""

    address: Ipv4Address
    remote_as: int
    import_chain: Tuple[str, ...] = ()
    export_chain: Tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class NetworkStatement:
    """One ``network`` origination, optionally through a route-map."""

    prefix: Ipv4Prefix
    route_map: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class BgpConfig:
    """The ``router bgp`` block."""

    asn: int
    router_id: Optional[Ipv4Address] = None
    networks: Tuple[NetworkStatement, ...] = ()
    neighbors: Tuple[BgpNeighbor, ...] = ()


@dataclasses.dataclass
class DeviceConfig:
    """One device: hostname, interfaces, BGP, and its policy objects."""

    hostname: str
    interfaces: List[Interface] = dataclasses.field(default_factory=list)
    bgp: Optional[BgpConfig] = None
    store: ConfigStore = dataclasses.field(default_factory=ConfigStore)

    def interface_addresses(self) -> List[Ipv4Address]:
        return [i.address for i in self.interfaces if i.address is not None]

    def validate(self) -> None:
        """Check that every referenced policy object exists."""
        for interface in self.interfaces:
            for acl_name in (interface.acl_in, interface.acl_out):
                if acl_name is not None:
                    self.store.acl(acl_name)
        if self.bgp is not None:
            for statement in self.bgp.networks:
                if statement.route_map is not None:
                    self.store.route_map(statement.route_map)
            for neighbor in self.bgp.neighbors:
                for name in neighbor.import_chain + neighbor.export_chain:
                    self.store.route_map(name)


# ------------------------------------------------------------------ parse


def _mask_to_length(mask: Ipv4Address) -> int:
    value = mask.value
    length = bin(value).count("1")
    expected = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
    if value != expected:
        raise ValueError(f"non-contiguous netmask {mask}")
    return length


def parse_device(text: str) -> DeviceConfig:
    """Parse one device configuration file.

    Every malformed file, including one that attaches a policy object it
    does not define, raises :class:`ConfigParseError` with the number of
    the offending line.
    """
    device_lines: List[Tuple[int, str]] = []
    # Device lines stay behind as blanks, so the statement parser's line
    # numbers are the file's.
    policy_lines: List[str] = []
    in_device = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not raw.startswith(" "):
            in_device = stripped.split()[:1] in (
                ["hostname"],
                ["interface"],
            ) or stripped.startswith("router bgp")
        if in_device and stripped and not stripped.startswith("!"):
            device_lines.append((line_no, stripped))
            raw = ""
        policy_lines.append(raw)

    store = parse_config("\n".join(policy_lines))
    device = DeviceConfig(hostname="", store=store)
    _parse_device_blocks(device, device_lines)
    if not device.hostname:
        raise ConfigParseError(0, "", "device file has no hostname")
    return device


def _parse_device_blocks(
    device: DeviceConfig, lines: List[Tuple[int, str]]
) -> None:
    index = 0
    bgp_asn: Optional[int] = None
    bgp_router_id: Optional[Ipv4Address] = None
    networks: List[NetworkStatement] = []
    neighbors: Dict[str, dict] = {}

    def error(line_no: int, line: str, message: str) -> ConfigParseError:
        return ConfigParseError(line_no, line, message)

    def defined(
        line_no: int, line: str, find: Callable[[str], object], name: str
    ) -> str:
        try:
            find(name)
        except KeyError as exc:
            raise error(line_no, line, exc.args[0]) from None
        return name

    current_interface: Optional[dict] = None
    in_bgp = False

    def flush_interface() -> None:
        nonlocal current_interface
        if current_interface is not None:
            device.interfaces.append(Interface(**current_interface))
            current_interface = None

    for line_no, line in lines:
        words = line.split()
        if words[0] == "hostname":
            if len(words) != 2:
                raise error(line_no, line, "expected 'hostname NAME'")
            device.hostname = words[1]
            flush_interface()
            in_bgp = False
        elif words[0] == "interface":
            flush_interface()
            in_bgp = False
            if len(words) != 2:
                raise error(line_no, line, "expected 'interface NAME'")
            current_interface = {"name": words[1]}
        elif words[0] == "router" and words[1:2] == ["bgp"]:
            flush_interface()
            in_bgp = True
            if len(words) != 3 or not words[2].isdecimal():
                raise error(line_no, line, "expected 'router bgp ASN'")
            bgp_asn = int(words[2])
        elif current_interface is not None and words[0] == "ip":
            if words[1:2] == ["address"] and len(words) == 4:
                try:
                    address = Ipv4Address.parse(words[2])
                    length = _mask_to_length(Ipv4Address.parse(words[3]))
                except ValueError as exc:
                    raise error(line_no, line, str(exc)) from None
                current_interface["address"] = address
                current_interface["prefix_length"] = length
            elif words[1:2] == ["access-group"] and len(words) == 4:
                direction = words[3]
                if direction not in ("in", "out"):
                    raise error(line_no, line, "access-group needs in/out")
                current_interface[f"acl_{direction}"] = defined(
                    line_no, line, device.store.acl, words[2]
                )
            else:
                raise error(line_no, line, "unknown interface statement")
        elif in_bgp:
            if words[0] == "bgp" and words[1:2] == ["router-id"]:
                try:
                    bgp_router_id = Ipv4Address.parse(words[2])
                except (IndexError, ValueError) as exc:
                    raise error(line_no, line, str(exc)) from None
            elif words[0] == "network":
                # network A.B.C.D mask M.M.M.M [route-map NAME]
                if len(words) < 4 or words[2] != "mask":
                    raise error(
                        line_no, line, "expected 'network A.B.C.D mask M.M.M.M'"
                    )
                try:
                    address = Ipv4Address.parse(words[1])
                    length = _mask_to_length(Ipv4Address.parse(words[3]))
                    prefix = Ipv4Prefix.canonical(address, length)
                except ValueError as exc:
                    raise error(line_no, line, str(exc)) from None
                route_map = None
                if len(words) == 6 and words[4] == "route-map":
                    route_map = defined(
                        line_no, line, device.store.route_map, words[5]
                    )
                elif len(words) != 4:
                    raise error(line_no, line, "bad network statement")
                networks.append(NetworkStatement(prefix, route_map))
            elif words[0] == "neighbor":
                if len(words) < 4:
                    raise error(line_no, line, "truncated neighbor statement")
                entry = neighbors.get(words[1])
                if entry is None:
                    try:
                        address = Ipv4Address.parse(words[1])
                    except ValueError as exc:
                        raise error(line_no, line, str(exc)) from None
                    entry = neighbors[words[1]] = {
                        "address": address,
                        "line": (line_no, line),
                        "remote_as": None,
                        "in": [],
                        "out": [],
                    }
                if words[2] == "remote-as" and words[3].isdecimal():
                    entry["remote_as"] = int(words[3])
                elif words[2] == "route-map" and len(words) == 5:
                    direction = words[4]
                    if direction not in ("in", "out"):
                        raise error(line_no, line, "route-map needs in/out")
                    entry[direction].append(
                        defined(line_no, line, device.store.route_map, words[3])
                    )
                else:
                    raise error(line_no, line, "unknown neighbor statement")
            else:
                raise error(line_no, line, "unknown router bgp statement")
        else:
            raise error(line_no, line, f"unexpected statement {words[0]!r}")
    flush_interface()

    if bgp_asn is not None:
        parsed_neighbors = []
        for text, entry in neighbors.items():
            if entry["remote_as"] is None:
                raise error(*entry["line"], f"neighbor {text} has no remote-as")
            parsed_neighbors.append(
                BgpNeighbor(
                    address=entry["address"],
                    remote_as=entry["remote_as"],
                    import_chain=tuple(entry["in"]),
                    export_chain=tuple(entry["out"]),
                )
            )
        device.bgp = BgpConfig(
            asn=bgp_asn,
            router_id=bgp_router_id,
            networks=tuple(networks),
            neighbors=tuple(sorted(parsed_neighbors, key=lambda n: n.address)),
        )


# ----------------------------------------------------------------- render


def _length_to_mask(length: int) -> str:
    value = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
    return str(Ipv4Address(value))


def render_device(device: DeviceConfig) -> str:
    """Render a device configuration file (round-trips via parse)."""
    blocks: List[str] = [f"hostname {device.hostname}"]
    for interface in device.interfaces:
        lines = [f"interface {interface.name}"]
        if interface.address is not None:
            mask = _length_to_mask(interface.prefix_length)
            lines.append(f" ip address {interface.address} {mask}")
        if interface.acl_in:
            lines.append(f" ip access-group {interface.acl_in} in")
        if interface.acl_out:
            lines.append(f" ip access-group {interface.acl_out} out")
        blocks.append("\n".join(lines))
    policy_text = render_config(device.store)
    if policy_text:
        blocks.append(policy_text)
    if device.bgp is not None:
        lines = [f"router bgp {device.bgp.asn}"]
        if device.bgp.router_id is not None:
            lines.append(f" bgp router-id {device.bgp.router_id}")
        for statement in device.bgp.networks:
            entry = (
                f" network {statement.prefix.network} mask "
                f"{_length_to_mask(statement.prefix.length)}"
            )
            if statement.route_map:
                entry += f" route-map {statement.route_map}"
            lines.append(entry)
        for neighbor in device.bgp.neighbors:
            lines.append(
                f" neighbor {neighbor.address} remote-as {neighbor.remote_as}"
            )
            for name in neighbor.import_chain:
                lines.append(f" neighbor {neighbor.address} route-map {name} in")
            for name in neighbor.export_chain:
                lines.append(f" neighbor {neighbor.address} route-map {name} out")
        blocks.append("\n".join(lines))
    return "\n!\n".join(blocks) + "\n"


__all__ = [
    "BgpConfig",
    "BgpNeighbor",
    "DeviceConfig",
    "Interface",
    "NetworkStatement",
    "parse_device",
    "render_device",
]
