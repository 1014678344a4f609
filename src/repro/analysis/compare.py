"""Differential comparison of two policies (``compareRoutePolicies``).

Given two route-maps (or two ACLs, or two prefix-, AS-path or community
lists) this module finds concrete inputs on which they behave
differently, together with both outcomes — exactly the differential
examples Clarify shows the user (§2.2 of the paper).

Each policy kind is a :class:`~repro.analysis.firstmatch.FirstMatchPolicy`
here, and the shared first-match engine does the comparison: it
intersects the per-entry *reachable* spaces of the two policies, and
within one intersection cell each policy's outcome is fixed, so a
behavioural difference is decidable per cell.  When two route-map
stanzas both permit, the observable difference lives in the transforms;
a cell witness whose outputs coincide by accident (e.g. the input metric
already equals the ``set metric`` value) is *de-coincided* by nudging
unconstrained fields while staying inside the cell.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro import obs
from repro.analysis.evaluate import (
    AclResult,
    RouteMapResult,
    eval_acl,
    eval_route_map,
)
from repro.analysis.firstmatch import (
    DENY,
    PERMIT,
    FirstMatchPolicy,
    compare_policies,
)
from repro.analysis.headerspace import (
    PacketSpace,
    acl_guard_space,
    acl_reachable_spaces,
)
from repro.analysis.prefixspace import PrefixSpace
from repro.analysis.routespace import (
    AsPathSpace,
    CommunitySpace,
    RouteRegion,
    RouteSpace,
    as_path_entry_space,
    community_entry_space,
    prefix_entry_space,
    route_map_reachable_spaces,
    stanza_guard_space,
)
from repro.config.acl import Acl, AclRule
from repro.config.routemap import RouteMap, RouteMapStanza
from repro.config.sets import (
    SetAsPathPrepend,
    SetCommunity,
    SetLocalPreference,
    SetMetric,
    SetNextHop,
    SetTag,
    SetWeight,
)
from repro.config.store import ConfigStore
from repro.netaddr import IntervalSet, Ipv4Address, Ipv4Prefix
from repro.regexlib.cisco import community_matches, find_community, render_as_path
from repro.route import BgpRoute, Packet


def _options(subject: str, result_a, result_b) -> str:
    """The paper's §2.2 display: the input and both options."""
    return (
        subject
        + "\n\nOPTION 1:\n\n"
        + result_a.render()
        + "\n\nOPTION 2:\n\n"
        + result_b.render()
    )


@dataclasses.dataclass(frozen=True)
class BehaviorDifference:
    """One route on which two route-maps disagree, with both outcomes."""

    route: BgpRoute
    result_a: RouteMapResult
    result_b: RouteMapResult

    @property
    def subject(self) -> BgpRoute:
        """The differential input (uniform across difference kinds)."""
        return self.route

    def render(self) -> str:
        return _options(self.route.render(), self.result_a, self.result_b)


@dataclasses.dataclass(frozen=True)
class PacketDifference:
    """One packet on which two ACLs disagree, with both outcomes."""

    packet: Packet
    result_a: AclResult
    result_b: AclResult

    @property
    def subject(self) -> Packet:
        """The differential input (uniform across difference kinds)."""
        return self.packet

    def render(self) -> str:
        return _options(self.packet.render(), self.result_a, self.result_b)


@dataclasses.dataclass(frozen=True)
class ListEntryResult:
    """The outcome of matching one input against a list."""

    action: str

    def behaviour_key(self) -> tuple:
        return (self.action,)

    def render(self, indent: str = "") -> str:
        return f"{indent}ACTION: {self.action}"


@dataclasses.dataclass(frozen=True)
class ListEntryDifference:
    """One concrete input on which two candidate lists disagree."""

    #: A human-readable label for the input kind ("Network", "AS Path",
    #: "Communities").
    label: str
    subject: object
    result_a: ListEntryResult
    result_b: ListEntryResult

    def render(self) -> str:
        return _options(
            f"{self.label}: {self._subject_text()}", self.result_a, self.result_b
        )

    def _subject_text(self) -> str:
        if isinstance(self.subject, (list, tuple)):
            return render_as_path(self.subject) or "(empty)"
        if isinstance(self.subject, frozenset):
            return ", ".join(sorted(self.subject)) or "(none)"
        return str(self.subject)


# --------------------------------------------------- transform summaries


def transform_summary(stanza: RouteMapStanza) -> Dict[str, object]:
    """A canonical description of a permit stanza's output function.

    Two permit stanzas with equal summaries produce identical outputs on
    every input; the verifier also uses this to compare a stanza's set
    clauses against a specification's ``set`` object.
    """
    summary: Dict[str, object] = {}
    for clause in stanza.sets:
        if isinstance(clause, SetMetric):
            summary["metric"] = clause.value
        elif isinstance(clause, SetLocalPreference):
            summary["local_preference"] = clause.value
        elif isinstance(clause, SetTag):
            summary["tag"] = clause.value
        elif isinstance(clause, SetWeight):
            summary["weight"] = clause.value
        elif isinstance(clause, SetNextHop):
            summary["next_hop"] = str(clause.address)
        elif isinstance(clause, SetCommunity):
            summary["community"] = (
                tuple(sorted(clause.communities)),
                clause.additive,
            )
        elif isinstance(clause, SetAsPathPrepend):
            summary["prepend"] = clause.asns
    return summary


_SCALAR_REGION_FIELDS = {"metric", "local_preference", "tag"}


def _decoincide(
    route: BgpRoute,
    cell: RouteRegion,
    summary_a: Dict[str, object],
    summary_b: Dict[str, object],
) -> Optional[BgpRoute]:
    """Nudge ``route`` inside ``cell`` so differing transforms become visible.

    Returns a replacement route, or None if no nudge can expose a
    difference (meaning the two stanzas genuinely coincide on the cell).
    """
    for field in sorted(set(summary_a) | set(summary_b)):
        in_a, in_b = field in summary_a, field in summary_b
        if in_a and in_b:
            # Both set the field; outputs are input-independent, so if they
            # coincided on the witness they coincide everywhere.
            continue
        present = summary_a.get(field, summary_b.get(field))
        if field in _SCALAR_REGION_FIELDS:
            allowed: IntervalSet = getattr(cell, field)
            candidates = allowed.subtract(IntervalSet.single(int(present)))
            if candidates.is_empty():
                continue
            return route.with_updates(**{field: candidates.min()})
        if field == "weight":
            new_weight = 0 if int(present) != 0 else 1
            return route.with_updates(weight=new_weight)
        if field == "next_hop":
            current = str(route.next_hop)
            fresh = "0.0.0.2" if current == str(present) else current
            if fresh == current:
                continue
            return route.with_updates(next_hop=Ipv4Address.parse(fresh))
        if field == "community":
            nudged = _decoincide_communities(route, cell, present)
            if nudged is not None:
                return nudged
        if field == "prepend":
            # Prepending always changes the AS path; a coincident witness is
            # impossible, so nothing to do here.
            continue
    return None


def _decoincide_communities(
    route: BgpRoute, cell: RouteRegion, present: object
) -> Optional[BgpRoute]:
    """Add a community that stays in-cell but distinguishes replace/none."""
    communities, additive = present  # type: ignore[misc]
    forbidden = list(cell.communities_forbidden)
    # The fresh community must avoid the cell's forbidden patterns and not
    # already be produced by the transform.
    taken = set(communities) | set(route.communities)
    for candidate_seed in range(64000, 64050):
        candidate = f"{candidate_seed}:99"
        if candidate in taken:
            continue
        if any(community_matches(p, candidate) for p in forbidden):
            continue
        nudged = route.with_updates(
            communities=frozenset(route.communities) | {candidate}
        )
        if cell.contains(nudged):
            return nudged
    found = find_community([], forbidden)
    if found is not None and found not in taken:
        nudged = route.with_updates(
            communities=frozenset(route.communities) | {found}
        )
        if cell.contains(nudged):
            return nudged
    return None


# ---------------------------------------------------------- policy kinds


@dataclasses.dataclass(frozen=True)
class RouteMapPolicy(FirstMatchPolicy):
    """A route-map over BGP routes; its lists resolve in ``store``."""

    route_map: RouteMap
    store: ConfigStore

    @property
    def entries(self) -> Sequence[RouteMapStanza]:
        return self.route_map.stanzas

    def universe(self) -> RouteSpace:
        return RouteSpace.universe()

    def guard(self, stanza: RouteMapStanza) -> RouteSpace:
        return stanza_guard_space(stanza, self.store)

    def reachable(self):
        # The same walk, entered through the module's public function so
        # that spans and profiles attribute it to route-space analysis.
        return route_map_reachable_spaces(
            self.route_map, self.store, include_implicit_deny=True
        )

    def outcome(self, stanza: Optional[RouteMapStanza]):
        if stanza is None or stanza.action != PERMIT:
            return DENY
        return (PERMIT, transform_summary(stanza))

    def evaluate(self, route: BgpRoute) -> RouteMapResult:
        return eval_route_map(self.route_map, self.store, route)

    def nudge(self, route, cell, stanza_a, stanza_b) -> Optional[BgpRoute]:
        if stanza_a is None or stanza_b is None:
            return None
        return _decoincide(
            route, cell, transform_summary(stanza_a), transform_summary(stanza_b)
        )

    def difference(self, route, result_a, result_b) -> BehaviorDifference:
        return BehaviorDifference(route, result_a, result_b)


@dataclasses.dataclass(frozen=True)
class AclPolicy(FirstMatchPolicy):
    """An extended ACL over packets."""

    acl: Acl

    @property
    def entries(self) -> Sequence[AclRule]:
        return self.acl.rules

    def universe(self) -> PacketSpace:
        return PacketSpace.universe()

    def guard(self, rule: AclRule) -> PacketSpace:
        return acl_guard_space(rule)

    def reachable(self):
        # As for route-maps: the walk, through the public entry point.
        return acl_reachable_spaces(self.acl, include_implicit_deny=True)

    def evaluate(self, packet: Packet) -> AclResult:
        return eval_acl(self.acl, packet)

    def difference(self, packet, result_a, result_b) -> PacketDifference:
        return PacketDifference(packet, result_a, result_b)


@dataclasses.dataclass(frozen=True)
class _ListPolicy(FirstMatchPolicy):
    """A §7 list: the outcome is the action of the first entry matched."""

    target: object
    #: How a question introduces the differential input.
    label = ""

    @property
    def entries(self):
        return self.target.entries

    def permits(self, subject) -> bool:
        raise NotImplementedError

    def evaluate(self, subject) -> ListEntryResult:
        return ListEntryResult(PERMIT if self.permits(subject) else DENY)

    def difference(self, subject, result_a, result_b) -> ListEntryDifference:
        return ListEntryDifference(self.label, subject, result_a, result_b)


class PrefixListPolicy(_ListPolicy):
    """A prefix-list over networks."""

    label = "Network"

    def universe(self) -> PrefixSpace:
        return PrefixSpace.universe()

    def guard(self, entry) -> PrefixSpace:
        return prefix_entry_space(entry)

    def cells(self, space: PrefixSpace):
        return space.atoms

    def permits(self, network: Ipv4Prefix) -> bool:
        return self.target.permits(network)


class AsPathListPolicy(_ListPolicy):
    """An as-path access-list over AS paths."""

    label = "AS Path"

    def universe(self) -> AsPathSpace:
        return AsPathSpace.universe()

    def guard(self, entry) -> AsPathSpace:
        return as_path_entry_space(entry)

    def permits(self, path: Sequence[int]) -> bool:
        return self.target.permits(BgpRoute.build("0.0.0.0/0", as_path=path))


class CommunityListPolicy(_ListPolicy):
    """A community-list (standard or expanded) over community sets."""

    label = "Communities"

    def universe(self) -> CommunitySpace:
        return CommunitySpace.universe()

    def guard(self, entry) -> CommunitySpace:
        return community_entry_space(entry)

    def permits(self, communities: FrozenSet[str]) -> bool:
        route = BgpRoute.build("0.0.0.0/0", communities=communities)
        return self.target.permits(route)


# ------------------------------------------------------------ entry points


def compare_route_policies(
    map_a: RouteMap,
    map_b: RouteMap,
    store: ConfigStore,
    store_b: Optional[ConfigStore] = None,
    max_differences: Optional[int] = None,
) -> List[BehaviorDifference]:
    """Find routes on which the two route-maps behave differently.

    Mirrors Batfish's ``compareRoutePolicies``: the result is a list of
    concrete differential examples (possibly empty when the policies are
    behaviourally equivalent).  ``max_differences`` stops the search early
    — the disambiguator only needs one example per question.
    """
    with obs.span("analysis.compare_route_policies", policy=map_a.name) as sp:
        obs.count("analysis.compares")
        store_b = store_b if store_b is not None else store
        differences = compare_policies(
            RouteMapPolicy(map_a, store),
            RouteMapPolicy(map_b, store_b),
            max_differences,
        )
        sp.annotate(differences=len(differences))
        return differences


def compare_filters(
    acl_a: Acl,
    acl_b: Acl,
    max_differences: Optional[int] = None,
) -> List[PacketDifference]:
    """Find packets on which the two ACLs disagree (permit vs deny)."""
    with obs.span("analysis.compare_filters", acl=acl_a.name) as sp:
        obs.count("analysis.compares")
        differences = compare_policies(
            AclPolicy(acl_a), AclPolicy(acl_b), max_differences
        )
        sp.annotate(differences=len(differences))
        return differences


__all__ = [
    "AclPolicy",
    "AsPathListPolicy",
    "BehaviorDifference",
    "CommunityListPolicy",
    "ListEntryDifference",
    "ListEntryResult",
    "PacketDifference",
    "PrefixListPolicy",
    "RouteMapPolicy",
    "compare_filters",
    "compare_route_policies",
]
