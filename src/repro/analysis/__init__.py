"""The symbolic analysis engine (our Batfish equivalent).

This package provides the behavioural analyses the paper obtains from
Batfish:

* :mod:`repro.analysis.evaluate` — concrete first-match evaluation of
  route-maps on routes and ACLs on packets;
* :mod:`repro.analysis.prefixspace` — the prefix+length-range region
  algebra underlying symbolic prefix-list reasoning;
* :mod:`repro.analysis.routespace` / :mod:`repro.analysis.headerspace` —
  symbolic route and packet spaces (unions of per-field product regions)
  with guard translation and per-stanza reachable-space computation;
* :mod:`repro.analysis.firstmatch` — the first-match engine every policy
  kind runs on: the reachable-cells walk, ``compare_policies``,
  ``overlapping_entries`` and ``search_policy`` (``searchRoutePolicies``
  / ``searchFilters``: spec-conformance checks with counterexamples);
* :mod:`repro.analysis.compare` — the five policy kinds on that engine,
  and ``compare_route_policies`` / ``compare_filters``: differential
  witnesses between two policies, the primitive the disambiguator is
  built on.
"""

from repro.analysis.compare import (
    AclPolicy,
    AsPathListPolicy,
    BehaviorDifference,
    CommunityListPolicy,
    PacketDifference,
    PrefixListPolicy,
    RouteMapPolicy,
    compare_filters,
    compare_route_policies,
)
from repro.analysis.evaluate import (
    AclResult,
    RouteMapResult,
    eval_acl,
    eval_route_map,
)
from repro.analysis.firstmatch import (
    FirstMatchPolicy,
    compare_policies,
    overlapping_entries,
    search_policy,
)
from repro.analysis.headerspace import (
    PacketRegion,
    PacketSpace,
    acl_guard_space,
    acl_reachable_spaces,
)
from repro.analysis.prefixspace import PrefixAtom, PrefixSpace
from repro.analysis.routespace import (
    RouteRegion,
    RouteSpace,
    stanza_guard_space,
    route_map_reachable_spaces,
)

__all__ = [
    "AclPolicy",
    "AclResult",
    "AsPathListPolicy",
    "BehaviorDifference",
    "CommunityListPolicy",
    "FirstMatchPolicy",
    "PacketDifference",
    "PacketRegion",
    "PacketSpace",
    "PrefixAtom",
    "PrefixListPolicy",
    "PrefixSpace",
    "RouteMapPolicy",
    "RouteMapResult",
    "RouteRegion",
    "RouteSpace",
    "acl_guard_space",
    "acl_reachable_spaces",
    "compare_filters",
    "compare_policies",
    "compare_route_policies",
    "eval_acl",
    "eval_route_map",
    "overlapping_entries",
    "search_policy",
    "stanza_guard_space",
    "route_map_reachable_spaces",
]
