"""Tests for device-level configuration parsing and rendering."""

import pytest

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
from repro.netaddr import Ipv4Address, Ipv4Prefix

DEVICE_TEXT = """\
hostname R1
!
interface GigabitEthernet0/0
 ip address 10.10.0.1 255.255.255.0
 ip access-group EDGE_IN in
!
interface GigabitEthernet0/1
 ip address 10.20.0.1 255.255.255.252
!
ip access-list extended EDGE_IN
 10 permit tcp any any
!
ip prefix-list NETS seq 5 permit 200.0.0.0/16
!
route-map TO_ISP permit 10
 match ip address prefix-list NETS
route-map TAG_LOCAL permit 10
 set community 65010:1 additive
!
router bgp 65010
 bgp router-id 1.1.1.1
 network 200.0.0.0 mask 255.255.0.0 route-map TAG_LOCAL
 neighbor 10.10.0.2 remote-as 100
 neighbor 10.10.0.2 route-map TO_ISP out
 neighbor 10.20.0.2 remote-as 65020
"""


class TestParseDevice:
    def test_full_device(self):
        device = parse_device(DEVICE_TEXT)
        assert device.hostname == "R1"
        assert len(device.interfaces) == 2
        gi0 = device.interfaces[0]
        assert gi0.name == "GigabitEthernet0/0"
        assert str(gi0.address) == "10.10.0.1"
        assert gi0.prefix_length == 24
        assert gi0.acl_in == "EDGE_IN"
        assert gi0.acl_out is None
        assert device.interfaces[1].prefix_length == 30

        bgp = device.bgp
        assert bgp.asn == 65010
        assert str(bgp.router_id) == "1.1.1.1"
        assert bgp.networks == (
            NetworkStatement(Ipv4Prefix.parse("200.0.0.0/16"), "TAG_LOCAL"),
        )
        assert len(bgp.neighbors) == 2
        isp = next(n for n in bgp.neighbors if n.remote_as == 100)
        assert isp.export_chain == ("TO_ISP",)
        assert isp.import_chain == ()

        assert device.store.has_acl("EDGE_IN")
        assert device.store.has_route_map("TO_ISP")

    def test_round_trip(self):
        device = parse_device(DEVICE_TEXT)
        rendered = render_device(device)
        reparsed = parse_device(rendered)
        assert reparsed.hostname == device.hostname
        assert reparsed.interfaces == device.interfaces
        assert reparsed.bgp == device.bgp
        assert render_device(reparsed) == rendered

    def test_interface_network(self):
        device = parse_device(DEVICE_TEXT)
        assert str(device.interfaces[0].network()) == "10.10.0.0/24"

    @pytest.mark.parametrize(
        "text",
        [
            "interface X\n ip address 1.2.3.4 255.255.255.0",  # no hostname
            "hostname R\ninterface X\n ip address 1.2.3.4 255.0.255.0",
            "hostname R\ninterface X\n ip wibble",
            "hostname R\nrouter bgp banana",
            "hostname R\nrouter bgp 1\n network 10.0.0.0",
            "hostname R\nrouter bgp 1\n neighbor 1.1.1.1 colour blue",
            "hostname R\nrouter bgp 1\n neighbor 1.1.1.1 route-map X sideways",
            "hostname R\nrouter bgp 1\n neighbor 1.1.1.1 route-map NOPE in",
            "hostname R\ninterface X\n ip access-group A sideways",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ConfigParseError):
            parse_device(text)

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            (
                "hostname R1\ninterface e0\n ip access-group NOPE in",
                3,
                "undefined access-list 'NOPE'",
            ),
            (
                "hostname R1\nrouter bgp 1\n neighbor 1.1.1.1 remote-as 2\n"
                " neighbor 1.1.1.1 route-map X in",
                4,
                "undefined route-map 'X'",
            ),
            ("hostname R1\ninterface e0\n ip", 3, "unknown interface statement"),
            (
                "hostname R1\nrouter bgp 1\n neighbor 1.2.3 remote-as 5",
                3,
                "invalid IPv4 address",
            ),
            (
                "hostname R1\ninterface e0\n!\nroute-map X allow 10",
                4,
                "action must be",
            ),
            # str.isdigit() holds for "²", which int() refuses.
            ("hostname R1\nrouter bgp \u00b2", 2, "expected 'router bgp ASN'"),
            (
                "hostname R1\nrouter bgp 1\n neighbor 1.1.1.1 remote-as \u00b2",
                3,
                "unknown neighbor statement",
            ),
        ],
        ids=[
            "dangling-acl",
            "dangling-route-map",
            "bare-ip",
            "bad-neighbor",
            "policy-line",
            "superscript-asn",
            "superscript-remote-as",
        ],
    )
    def test_malformed_input_names_its_line(self, text, line_no, message):
        with pytest.raises(ConfigParseError, match=message) as caught:
            parse_device(text)
        assert caught.value.line_no == line_no

    def test_neighbor_without_remote_as_rejected(self):
        text = (
            "hostname R\n"
            "route-map X permit 10\n"
            "router bgp 1\n"
            " neighbor 1.1.1.1 route-map X in\n"
        )
        with pytest.raises(ConfigParseError):
            parse_device(text)

    def test_dangling_acl_attachment_rejected(self):
        text = (
            "hostname R\n"
            "interface X\n"
            " ip access-group NOPE in\n"
        )
        with pytest.raises(ConfigParseError, match="line 3"):
            parse_device(text)


class TestRenderDevice:
    def test_render_minimal(self):
        device = DeviceConfig(hostname="LEAF")
        device.interfaces.append(
            Interface("Gi0", Ipv4Address.parse("10.0.0.1"), 24)
        )
        device.bgp = BgpConfig(
            asn=65001,
            neighbors=(
                BgpNeighbor(Ipv4Address.parse("10.0.0.2"), 65002),
            ),
        )
        text = render_device(device)
        assert "hostname LEAF" in text
        assert "ip address 10.0.0.1 255.255.255.0" in text
        assert "neighbor 10.0.0.2 remote-as 65002" in text
        reparsed = parse_device(text)
        assert reparsed.bgp == device.bgp
