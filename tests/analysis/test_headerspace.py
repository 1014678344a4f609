"""Tests for symbolic packet spaces and ACL reachability."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import PacketRegion, PacketSpace, acl_reachable_spaces
from repro.analysis.headerspace import (
    HeaderSpaceError,
    acl_rule_region,
    wildcard_to_intervals,
)
from repro.config import parse_config
from repro.netaddr import IntervalSet, Ipv4Address, Ipv4Wildcard
from repro.route import Packet

ACL_TEXT = """
ip access-list extended FILTER
 10 deny tcp 10.0.0.0 0.255.255.255 any eq 22
 20 permit tcp 10.0.0.0 0.255.255.255 any
 30 permit udp any any range 5000 6000
 40 permit tcp any any established
"""


def probe_packets():
    return [
        Packet.build("10.1.1.1", "8.8.8.8", dst_port=22),
        Packet.build("10.1.1.1", "8.8.8.8", dst_port=80),
        Packet.build("11.1.1.1", "8.8.8.8", dst_port=80),
        Packet.build("11.1.1.1", "8.8.8.8", dst_port=80, tcp_established=True),
        Packet.build("9.9.9.9", "8.8.8.8", protocol=17, dst_port=5500),
        Packet.build("9.9.9.9", "8.8.8.8", protocol=17, dst_port=80),
        Packet.build("9.9.9.9", "8.8.8.8", protocol=1),
    ]


class TestWildcardToIntervals:
    def test_prefix_like(self):
        wc = Ipv4Wildcard(
            Ipv4Address.parse("10.0.0.0"), Ipv4Address.parse("0.255.255.255")
        )
        intervals = wildcard_to_intervals(wc)
        assert intervals.min() == Ipv4Address.parse("10.0.0.0").value
        assert intervals.max() == Ipv4Address.parse("10.255.255.255").value
        assert intervals.size() == 1 << 24

    def test_host(self):
        wc = Ipv4Wildcard.host(Ipv4Address.parse("1.2.3.4"))
        intervals = wildcard_to_intervals(wc)
        assert intervals.size() == 1
        assert intervals.contains(Ipv4Address.parse("1.2.3.4").value)

    def test_scattered_bits(self):
        # Wildcard on one non-trailing bit: two intervals.
        wc = Ipv4Wildcard(
            Ipv4Address.parse("10.0.0.0"), Ipv4Address.parse("0.1.0.255")
        )
        intervals = wildcard_to_intervals(wc)
        assert intervals.size() == 2 * 256
        assert intervals.contains(Ipv4Address.parse("10.0.0.77").value)
        assert intervals.contains(Ipv4Address.parse("10.1.0.77").value)
        assert not intervals.contains(Ipv4Address.parse("10.2.0.77").value)

    def test_pathological_mask_refused(self):
        wc = Ipv4Wildcard(
            Ipv4Address.parse("0.0.0.0"), Ipv4Address.parse("85.85.85.0")
        )
        with pytest.raises(HeaderSpaceError):
            wildcard_to_intervals(wc)


class TestPacketRegion:
    def test_rule_region_agrees_with_concrete_matching(self):
        acl = parse_config(ACL_TEXT).acl("FILTER")
        for rule in acl.rules:
            region = acl_rule_region(rule)
            for packet in probe_packets():
                assert region.contains(packet) == rule.matches(packet), (
                    rule.seq,
                    packet,
                )

    def test_witness_in_region(self):
        acl = parse_config(ACL_TEXT).acl("FILTER")
        for rule in acl.rules:
            region = acl_rule_region(rule)
            witness = region.witness()
            assert witness is not None
            assert rule.matches(witness)

    def test_established_only_region_needs_tcp(self):
        region = PacketRegion(
            protocol=IntervalSet.single(17), established=frozenset((True,))
        )
        assert region.is_empty()

    def test_established_witness_is_tcp(self):
        region = PacketRegion(established=frozenset((True,)))
        witness = region.witness()
        assert witness.protocol == 6
        assert witness.tcp_established


class TestAclReachability:
    def test_reaches_agree_with_evaluator(self):
        from repro.analysis import eval_acl

        acl = parse_config(ACL_TEXT).acl("FILTER")
        reaches = acl_reachable_spaces(acl, include_implicit_deny=True)
        for packet in probe_packets():
            result = eval_acl(acl, packet)
            for rule, space in reaches:
                seq = rule.seq if rule is not None else None
                assert space.contains(packet) == (result.rule_seq == seq), (
                    seq,
                    packet,
                )

    def test_reach_witnesses_hit_their_rule(self):
        from repro.analysis import eval_acl

        acl = parse_config(ACL_TEXT).acl("FILTER")
        for rule, space in acl_reachable_spaces(acl, include_implicit_deny=True):
            witness = space.witness()
            assert witness is not None
            result = eval_acl(acl, witness)
            assert result.rule_seq == (rule.seq if rule is not None else None)

    def test_shadowed_rule_has_empty_reach(self):
        text = """
ip access-list extended SHADOW
 10 permit tcp any any
 20 deny tcp host 1.1.1.1 any
"""
        acl = parse_config(text).acl("SHADOW")
        reaches = dict(
            (rule.seq if rule else None, space)
            for rule, space in acl_reachable_spaces(acl)
        )
        assert reaches[20].is_empty()


class TestPacketSpaceProperties:
    @st.composite
    @staticmethod
    def small_regions(draw):
        lo = draw(st.integers(0, 200))
        hi = draw(st.integers(lo, 200))
        plo = draw(st.integers(0, 100))
        phi = draw(st.integers(plo, 100))
        return PacketRegion(
            src=IntervalSet.closed(lo, hi), dst_ports=IntervalSet.closed(plo, phi)
        )

    @given(small_regions(), small_regions())
    @settings(max_examples=30)
    def test_intersection_semantics(self, a, b):
        space = PacketSpace.of(a).intersect(PacketSpace.of(b))
        for src in (0, 50, 150, 200):
            for port in (0, 50, 100):
                packet = Packet(
                    src_ip=Ipv4Address(src),
                    dst_ip=Ipv4Address(0),
                    dst_port=port,
                )
                expected = a.contains(packet) and b.contains(packet)
                assert space.contains(packet) == expected

    @given(small_regions())
    @settings(max_examples=30)
    def test_complement_semantics(self, a):
        space = PacketSpace.of(a).complement()
        for src in (0, 50, 150, 200, 201):
            for port in (0, 50, 100, 101):
                packet = Packet(
                    src_ip=Ipv4Address(src),
                    dst_ip=Ipv4Address(0),
                    dst_port=port,
                )
                assert space.contains(packet) != a.contains(packet)
