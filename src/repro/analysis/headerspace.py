"""Symbolic packet (header) spaces for ACL analysis.

Packets are simpler than routes: every field is a finite integer domain,
so a :class:`PacketRegion` is a product of interval sets plus a tri-state
TCP-established constraint, and all operations are exact — no automaton
search needed.

The region algebra runs on top of the :mod:`repro.perf.cache` layer:
regions are hash-consed (one canonical object per distinct constraint,
with a cached hash and an identity-first equality), and the expensive
operations — ``intersect``, ``subtract_region``, ``is_empty``,
``witness`` — are memoized in bounded LRU tables.  On top of that,
:func:`regions_disjoint` gives a cheap disjointness pre-check
(field-wise interval bounding tests) that lets first-match reachability
and the overlap detector skip the full algebra for regions that cannot
overlap.  ``docs/PERFORMANCE.md`` describes the caching model; the
differential tests in ``tests/perf/`` pin the memoized engine to the
uncached semantics.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.firstmatch import reachable_cells
from repro.perf import cache as _perf
from repro.perf import kernels as _kernels
from repro.config.acl import (
    FULL_PORT_RANGE,
    FULL_PROTOCOL_RANGE,
    Acl,
    AclRule,
)
from repro.netaddr import IntervalSet, Ipv4Address, Ipv4Wildcard
from repro.route.packet import PROTOCOL_NUMBERS, Packet

U32 = IntervalSet.closed(0, 0xFFFFFFFF)
BOTH = frozenset((True, False))
_TCP = PROTOCOL_NUMBERS["tcp"]
_UDP = PROTOCOL_NUMBERS["udp"]

#: Refuse to expand wildcard masks with more scattered don't-care bits
#: than this (2^10 intervals); real configurations use prefix-like masks.
_MAX_SCATTERED_BITS = 10


class HeaderSpaceError(RuntimeError):
    """Raised for wildcard masks too pathological to expand exactly."""


#: Hash-cons table for regions and LRU memos for the region algebra
#: (stats surface as ``cache.hits`` / ``cache.misses`` obs counters).
_REGION_INTERNER = _perf.Interner("headerspace.regions")
_R_INTERSECT = _perf.Memo("headerspace.intersect")
_R_SUBTRACT = _perf.Memo("headerspace.subtract_region")
_R_EMPTY = _perf.Memo("headerspace.is_empty")
_R_WITNESS = _perf.Memo("headerspace.witness")


def intern_region(region: "PacketRegion") -> "PacketRegion":
    """The canonical shared object for this region's constraint."""
    return _REGION_INTERNER.intern(region)


#: Below this many region pairs, the batched kernel screens cost more
#: (encoding every field, then one matrix per field) than per-pair
#: ``regions_disjoint`` calls save.
_MATRIX_MIN_PAIRS = 128

#: The interval-bearing PacketRegion fields, in canonical order.
_REGION_FIELDS = ("src", "dst", "protocol", "src_ports", "dst_ports")


def _established_mask(region: "PacketRegion") -> int:
    # bit 0: True in established, bit 1: False in established.
    return (1 if True in region.established else 0) | (
        2 if False in region.established else 0
    )


def regions_disjoint_matrix(
    a_regions: Sequence["PacketRegion"],
    b_regions: Sequence["PacketRegion"],
) -> List[bytearray]:
    """Exact batched :func:`regions_disjoint` over the cross product.

    ``out[i][j]`` is 1 iff ``regions_disjoint(a_regions[i],
    b_regions[j])``.  Each field is flattened once per side
    (:func:`repro.perf.kernels.encode`) and swept with the batch
    disjointness kernel, replacing ``len(a) * len(b)`` memo-keyed
    ``IntervalSet.intersect`` calls with array sweeps; the
    established/TCP coupling is combined per pair exactly as
    :func:`regions_disjoint` does.
    """
    enc_a = [
        _kernels.encode([getattr(r, field) for r in a_regions])
        for field in _REGION_FIELDS
    ]
    if b_regions is a_regions:
        enc_b = enc_a
    else:
        enc_b = [
            _kernels.encode([getattr(r, field) for r in b_regions])
            for field in _REGION_FIELDS
        ]
    field_disjoint = [
        _kernels.disjoint_matrix(ea, eb) for ea, eb in zip(enc_a, enc_b)
    ]
    tcp_a = _kernels.contains_vector(enc_a[2], _TCP)
    tcp_b = tcp_a if enc_b is enc_a else _kernels.contains_vector(enc_b[2], _TCP)
    est_a = [_established_mask(r) for r in a_regions]
    est_b = est_a if b_regions is a_regions else [
        _established_mask(r) for r in b_regions
    ]
    out: List[bytearray] = []
    n_b = len(b_regions)
    for i in range(len(a_regions)):
        row = bytearray(n_b)
        rows = [matrix[i] for matrix in field_disjoint]
        mask_i = est_a[i]
        tcp_i = tcp_a[i]
        for j in range(n_b):
            pair_est = mask_i & est_b[j]
            if (
                pair_est == 0
                or rows[0][j]
                or rows[1][j]
                or rows[2][j]
                or rows[3][j]
                or rows[4][j]
                or (pair_est == 1 and not (tcp_i and tcp_b[j]))
            ):
                row[j] = 1
        out.append(row)
    return out


def regions_subsume_matrix(
    a_regions: Sequence["PacketRegion"],
    b_regions: Sequence["PacketRegion"],
) -> List[bytearray]:
    """Exact batched containment: ``out[i][j]`` is 1 iff
    ``b_regions[j].subsumes(a_regions[i])`` (every packet of ``a_i`` is
    in ``b_j``).

    The field-wise interval containments run as batch kernels over the
    flattened encodings; the established/TCP coupling mirrors
    :meth:`PacketRegion.subsumes` exactly, case for case.
    """
    enc_a = [
        _kernels.encode([getattr(r, field) for r in a_regions])
        for field in _REGION_FIELDS
    ]
    if b_regions is a_regions:
        enc_b = enc_a
    else:
        enc_b = [
            _kernels.encode([getattr(r, field) for r in b_regions])
            for field in _REGION_FIELDS
        ]
    field_subset = [
        _kernels.subset_matrix(ea, eb) for ea, eb in zip(enc_a, enc_b)
    ]
    tcp_a = _kernels.contains_vector(enc_a[2], _TCP)
    tcp_b = tcp_a if enc_b is enc_a else _kernels.contains_vector(enc_b[2], _TCP)
    est_a = [_established_mask(r) for r in a_regions]
    est_b = est_a if b_regions is a_regions else [
        _established_mask(r) for r in b_regions
    ]
    empty_a = [r.is_empty() for r in a_regions]
    empty_b = empty_a if b_regions is a_regions else [
        r.is_empty() for r in b_regions
    ]
    sub_src, sub_dst, sub_pr, sub_sp, sub_dp = field_subset
    out: List[bytearray] = []
    n_b = len(b_regions)
    for i in range(len(a_regions)):
        row = bytearray(n_b)
        mask_i = est_a[i]
        tcp_i = tcp_a[i]
        for j in range(n_b):
            if empty_a[i]:
                row[j] = 1
                continue
            if empty_b[j]:
                continue
            if not (
                sub_src[i][j]
                and sub_dst[i][j]
                and sub_sp[i][j]
                and sub_dp[i][j]
            ):
                continue
            # The non-established part spans a_i's whole protocol set.
            if (mask_i & 2) and (not (est_b[j] & 2) or not sub_pr[i][j]):
                continue
            # The established part is TCP-only.
            if (mask_i & 1) and tcp_i and not ((est_b[j] & 1) and tcp_b[j]):
                continue
            row[j] = 1
        out.append(row)
    return out


def regions_disjoint(a: "PacketRegion", b: "PacketRegion") -> bool:
    """Exactly ``a.intersect(b).is_empty()``, without building the region.

    The field-wise interval intersections bail out at the first empty
    one (each with a bounding-box fast path underneath), so provably
    disjoint regions cost a handful of comparisons.  This is the cheap
    pre-check first-match reachability and the overlap detector use to
    skip the full subtraction/intersection algebra.
    """
    established = a.established & b.established
    if not established:
        return True
    protocol = a.protocol.intersect(b.protocol)
    if not protocol.intervals:
        return True
    if not a.src.intersect(b.src).intervals:
        return True
    if not a.dst.intersect(b.dst).intervals:
        return True
    if not a.src_ports.intersect(b.src_ports).intervals:
        return True
    if not a.dst_ports.intersect(b.dst_ports).intervals:
        return True
    return established == _ESTABLISHED_ONLY and not protocol.contains(_TCP)


_ESTABLISHED_ONLY = frozenset((True,))


def wildcard_to_intervals(wc: Ipv4Wildcard) -> IntervalSet:
    """The exact set of addresses a wildcard matcher accepts."""
    if wc.is_prefix_like():
        prefix = wc.to_prefix()
        return IntervalSet.closed(
            prefix.first_address().value, prefix.last_address().value
        )
    wildcard = wc.wildcard.value
    trailing = 0
    while wildcard & (1 << trailing):
        trailing += 1
    run = (1 << trailing) - 1
    scattered = [
        bit
        for bit in range(trailing, 32)
        if wildcard & (1 << bit)
    ]
    if len(scattered) > _MAX_SCATTERED_BITS:
        raise HeaderSpaceError(
            f"wildcard {wc} has {len(scattered)} scattered don't-care bits; "
            "exact expansion refused"
        )
    base = wc.address.value
    pairs = []
    for combo in range(1 << len(scattered)):
        value = base
        for idx, bit in enumerate(scattered):
            if combo & (1 << idx):
                value |= 1 << bit
        pairs.append((value, value | run))
    return IntervalSet.from_pairs(pairs)


@dataclasses.dataclass(frozen=True)
class PacketRegion:
    """A conjunctive constraint over every ACL-matchable packet field."""

    src: IntervalSet = U32
    dst: IntervalSet = U32
    protocol: IntervalSet = FULL_PROTOCOL_RANGE
    src_ports: IntervalSet = FULL_PORT_RANGE
    dst_ports: IntervalSet = FULL_PORT_RANGE
    established: FrozenSet[bool] = BOTH

    # Hash-consed: equality hits the identity fast path for interned
    # regions, and the (expensive, six-field) hash is computed once.

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is PacketRegion:
            return (
                self.src == other.src
                and self.dst == other.dst
                and self.protocol == other.protocol
                and self.src_ports == other.src_ports
                and self.dst_ports == other.dst_ports
                and self.established == other.established
            )
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            value = hash(
                (
                    self.src,
                    self.dst,
                    self.protocol,
                    self.src_ports,
                    self.dst_ports,
                    self.established,
                )
            )
            object.__setattr__(self, "_hash", value)
            return value

    def intersect(self, other: "PacketRegion") -> "PacketRegion":
        if self is other:
            return self
        return _R_INTERSECT.lookup((self, other), lambda: self._intersect(other))

    def _intersect(self, other: "PacketRegion") -> "PacketRegion":
        return intern_region(
            PacketRegion(
                src=self.src.intersect(other.src),
                dst=self.dst.intersect(other.dst),
                protocol=self.protocol.intersect(other.protocol),
                src_ports=self.src_ports.intersect(other.src_ports),
                dst_ports=self.dst_ports.intersect(other.dst_ports),
                established=self.established & other.established,
            )
        )

    def is_empty(self) -> bool:
        return _R_EMPTY.lookup(self, self._is_empty)

    def _is_empty(self) -> bool:
        if (
            self.src.is_empty()
            or self.dst.is_empty()
            or self.protocol.is_empty()
            or self.src_ports.is_empty()
            or self.dst_ports.is_empty()
            or not self.established
        ):
            return True
        # "Established" packets are TCP by definition (the packet model
        # enforces this), so an established-only region needs TCP.
        if self.established == frozenset((True,)) and not self.protocol.contains(
            _TCP
        ):
            return True
        return False

    def subsumes(self, other: "PacketRegion") -> bool:
        """Exact containment: every packet of ``other`` is in this region.

        Field-wise interval containment plus the established/TCP
        coupling: a region's packets split into an ``established=False``
        part (constrained by the full protocol set) and an
        ``established=True`` part (necessarily TCP), and each nonempty
        part must fit.  This decides subset questions between single
        regions without any subtraction; the property tests check it
        against the carving-based definition.
        """
        if other.is_empty():
            return True
        if self.is_empty():
            return False
        if not (
            other.src.is_subset_of(self.src)
            and other.dst.is_subset_of(self.dst)
            and other.src_ports.is_subset_of(self.src_ports)
            and other.dst_ports.is_subset_of(self.dst_ports)
        ):
            return False
        if False in other.established:
            # The non-established part spans other's whole protocol set.
            if False not in self.established:
                return False
            if not other.protocol.is_subset_of(self.protocol):
                return False
        if True in other.established and other.protocol.contains(_TCP):
            # The established part is TCP-only.
            if True not in self.established:
                return False
            if not self.protocol.contains(_TCP):
                return False
        return True

    def subtract_region(self, other: "PacketRegion") -> Tuple["PacketRegion", ...]:
        """Exact difference as *disjoint* pieces (hyper-rectangle carving).

        Returns ``(self,)`` untouched when the regions are disjoint
        (decided by the cheap :func:`regions_disjoint` pre-check), and
        at most one piece per field otherwise — the key to keeping
        first-match reachability linear on real ACLs instead of the
        exponential growth DNF complements would cause.
        """
        if regions_disjoint(self, other):
            return (self,)
        return _R_SUBTRACT.lookup(
            (self, other), lambda: self._subtract_region(other)
        )

    def _subtract_region(self, other: "PacketRegion") -> Tuple["PacketRegion", ...]:
        pieces: List[PacketRegion] = []
        current = self
        for field, _universe in (
            ("src", U32),
            ("dst", U32),
            ("protocol", FULL_PROTOCOL_RANGE),
            ("src_ports", FULL_PORT_RANGE),
            ("dst_ports", FULL_PORT_RANGE),
        ):
            mine: IntervalSet = getattr(current, field)
            theirs: IntervalSet = getattr(other, field)
            outside = mine.subtract(theirs)
            if not outside.is_empty():
                pieces.append(
                    intern_region(
                        dataclasses.replace(current, **{field: outside})
                    )
                )
            current = dataclasses.replace(
                current, **{field: mine.intersect(theirs)}
            )
        missing = current.established - other.established
        if missing:
            pieces.append(
                intern_region(
                    dataclasses.replace(current, established=missing)
                )
            )
        return tuple(pieces)

    def contains(self, packet: Packet) -> bool:
        """Field-wise membership.

        Port fields are treated as formal fields present on every packet
        (rule regions for portless protocols leave them unconstrained, so
        this agrees with concrete ACL evaluation on every rule region, and
        the boolean algebra stays exact).
        """
        return (
            self.src.contains(packet.src_ip.value)
            and self.dst.contains(packet.dst_ip.value)
            and self.protocol.contains(packet.protocol)
            and self.src_ports.contains(packet.src_port)
            and self.dst_ports.contains(packet.dst_port)
            and packet.tcp_established in self.established
        )

    def witness(self) -> Optional[Packet]:
        return _R_WITNESS.lookup(self, self._witness)

    def _witness(self) -> Optional[Packet]:
        if self.is_empty():
            return None
        must_be_established = self.established == frozenset((True,))
        if must_be_established or self.protocol.contains(_TCP):
            protocol = _TCP
        elif self.protocol.contains(_UDP):
            protocol = _UDP
        else:
            protocol = self.protocol.min()
        return Packet(
            src_ip=Ipv4Address(self.src.min()),
            dst_ip=Ipv4Address(self.dst.min()),
            protocol=protocol,
            src_port=self.src_ports.min(),
            dst_port=self.dst_ports.min(),
            tcp_established=must_be_established,
        )

    def __str__(self) -> str:
        parts = []
        for field, universe in (
            ("src", U32),
            ("dst", U32),
            ("protocol", FULL_PROTOCOL_RANGE),
            ("src_ports", FULL_PORT_RANGE),
            ("dst_ports", FULL_PORT_RANGE),
        ):
            value = getattr(self, field)
            if value != universe:
                parts.append(f"{field} in {value}")
        if self.established != BOTH:
            parts.append(f"established in {sorted(self.established)}")
        return " & ".join(parts) if parts else "true"


def _dedupe(regions: Sequence[PacketRegion]) -> Tuple[PacketRegion, ...]:
    # Hash-based, order-preserving dedupe: canonical region hashing makes
    # this linear where the old list scan was quadratic in region count.
    kept: List[PacketRegion] = []
    seen = set()
    for region in regions:
        if region in seen or region.is_empty():
            continue
        seen.add(region)
        kept.append(region)
    return tuple(kept)


@dataclasses.dataclass(frozen=True)
class PacketSpace:
    """A finite union of :class:`PacketRegion`."""

    regions: Tuple[PacketRegion, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", _dedupe(self.regions))

    @classmethod
    def empty(cls) -> "PacketSpace":
        return cls(())

    @classmethod
    def universe(cls) -> "PacketSpace":
        return cls((PacketRegion(),))

    @classmethod
    def of(cls, region: PacketRegion) -> "PacketSpace":
        return cls((region,))

    def union(self, other: "PacketSpace") -> "PacketSpace":
        return PacketSpace(self.regions + other.regions)

    def intersect(self, other: "PacketSpace") -> "PacketSpace":
        obs.count("headerspace.intersections")
        mine, theirs = self.regions, other.regions
        if len(mine) * len(theirs) >= _MATRIX_MIN_PAIRS:
            # Batch-screen the cross product: products the kernel proves
            # empty would be dropped by _dedupe anyway, so skipping them
            # changes nothing but the work done.
            disjoint = regions_disjoint_matrix(mine, theirs)
            out = [
                a.intersect(b)
                for i, a in enumerate(mine)
                for j, b in enumerate(theirs)
                if not disjoint[i][j]
            ]
        else:
            out = [a.intersect(b) for a in mine for b in theirs]
        return PacketSpace(tuple(out))

    def complement(self) -> "PacketSpace":
        return PacketSpace.universe().subtract(self)

    def subtract(self, other: "PacketSpace") -> "PacketSpace":
        """Exact difference via disjoint rectangle carving (stays small)."""
        obs.count("headerspace.subtractions")
        remaining = list(self.regions)
        for taken in other.regions:
            if len(remaining) >= _MATRIX_MIN_PAIRS:
                # Batch-screen the column: regions provably disjoint from
                # ``taken`` pass through untouched — exactly the
                # ``(self,)`` fast path of subtract_region.
                disjoint = regions_disjoint_matrix(remaining, (taken,))
                carved: List[PacketRegion] = []
                for index, region in enumerate(remaining):
                    if disjoint[index][0]:
                        carved.append(region)
                    else:
                        carved.extend(region.subtract_region(taken))
                remaining = carved
            else:
                remaining = [
                    piece
                    for region in remaining
                    for piece in region.subtract_region(taken)
                ]
            if not remaining:
                break
        return PacketSpace(tuple(remaining))

    def is_empty(self) -> bool:
        return not self.regions

    def is_subset_of(self, other: "PacketSpace") -> bool:
        if not self.regions:
            return True
        if len(other.regions) == 1:
            # Exact: a union is inside a single region iff every piece is.
            target = other.regions[0]
            return all(target.subsumes(region) for region in self.regions)
        if all(
            any(target.subsumes(region) for target in other.regions)
            for region in self.regions
        ):
            # Sufficient only (a piece may straddle several targets), so
            # a failure still falls through to the exact subtraction.
            return True
        return self.subtract(other).is_empty()

    def contains(self, packet: Packet) -> bool:
        return any(region.contains(packet) for region in self.regions)

    def witness(self) -> Optional[Packet]:
        for region in self.regions:
            packet = region.witness()
            if packet is not None:
                return packet
        return None

    def __len__(self) -> int:
        return len(self.regions)


def acl_rule_region(rule: AclRule) -> PacketRegion:
    """The packets one ACL rule matches."""
    carries_ports = rule.protocol.carries_ports()
    return intern_region(
        PacketRegion(
            src=wildcard_to_intervals(rule.src),
            dst=wildcard_to_intervals(rule.dst),
            protocol=rule.protocol.to_intervals(),
            src_ports=(
                rule.src_ports.to_intervals() if carries_ports else FULL_PORT_RANGE
            ),
            dst_ports=(
                rule.dst_ports.to_intervals() if carries_ports else FULL_PORT_RANGE
            ),
            established=frozenset((True,)) if rule.established else BOTH,
        )
    )


def acl_guard_space(rule: AclRule) -> PacketSpace:
    obs.count("headerspace.guards")
    return PacketSpace.of(acl_rule_region(rule))


def acl_reachable_spaces(
    acl: Acl, include_implicit_deny: bool = False
) -> List[Tuple[Optional[AclRule], PacketSpace]]:
    """Per-rule spaces of packets that reach and match each rule.

    The first-match walk (:func:`repro.analysis.firstmatch.reachable_cells`)
    threads one residual space through the rule list and subtracts each
    rule's guard from it exactly once.  Residual regions provably
    disjoint from a guard (:func:`regions_disjoint`, interval bounding
    tests) pass through the subtraction untouched, and repeated
    guard/residual pairs hit the memoized region algebra — together these
    keep the walk near-linear on real ACLs.
    """
    cells = reachable_cells(acl.rules, acl_guard_space, PacketSpace.universe())
    return cells if include_implicit_deny else cells[:-1]


__all__ = [
    "HeaderSpaceError",
    "PacketRegion",
    "PacketSpace",
    "acl_guard_space",
    "acl_reachable_spaces",
    "acl_rule_region",
    "intern_region",
    "regions_disjoint",
    "regions_disjoint_matrix",
    "regions_subsume_matrix",
    "wildcard_to_intervals",
]
