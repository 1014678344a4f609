"""Ancillary match lists: prefix-lists, community-lists, AS-path lists.

Each list type carries its concrete matching semantics (the semantics the
BGP simulator and differential-example validation use); the symbolic
analysis in :mod:`repro.analysis` mirrors these definitions.

Semantics notes
---------------
* **Prefix lists** follow IOS rules: an entry ``permit P/len [ge G] [le L]``
  matches a route whose network falls inside ``P/len`` and whose own
  length is ``len`` exactly (no ge/le), in ``[G, 32]`` (ge only), in
  ``[len, L]`` (le only), or in ``[G, L]`` (both).  First matching entry
  wins; a list with no matching entry denies.
* **Expanded community lists** hold regexes.  We adopt the
  has-community interpretation (as Batfish does for patterns like
  ``_300:3_``): an entry matches if *any* community on the route matches
  its regex.
* **Standard community lists** hold sets of literal communities; an entry
  matches if the route carries *all* of them.
* **AS-path access lists** hold regexes matched against the flattened
  AS path rendered as space-separated ASNs.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Tuple

from repro.netaddr import Ipv4Prefix
from repro.regexlib.cisco import as_path_matches, community_matches
from repro.route import BgpRoute

PERMIT = "permit"
DENY = "deny"


def _check_action(action: str) -> None:
    if action not in (PERMIT, DENY):
        raise ValueError(f"action must be 'permit' or 'deny', got {action!r}")


# --------------------------------------------------------------- prefix lists


@dataclasses.dataclass(frozen=True)
class PrefixListEntry:
    """One ``ip prefix-list`` entry."""

    seq: int
    action: str
    prefix: Ipv4Prefix
    ge: Optional[int] = None
    le: Optional[int] = None

    def __post_init__(self) -> None:
        _check_action(self.action)
        if self.ge is not None and not self.prefix.length <= self.ge <= 32:
            raise ValueError(
                f"ge {self.ge} out of range for {self.prefix} (seq {self.seq})"
            )
        if self.le is not None and not self.prefix.length <= self.le <= 32:
            raise ValueError(
                f"le {self.le} out of range for {self.prefix} (seq {self.seq})"
            )
        if self.ge is not None and self.le is not None and self.ge > self.le:
            raise ValueError(f"ge {self.ge} > le {self.le} (seq {self.seq})")

    def length_bounds(self) -> Tuple[int, int]:
        """The inclusive [lo, hi] route-length range this entry matches."""
        if self.ge is None and self.le is None:
            return (self.prefix.length, self.prefix.length)
        if self.ge is not None and self.le is not None:
            return (self.ge, self.le)
        if self.ge is not None:
            return (self.ge, 32)
        return (self.prefix.length, self.le)

    def matches(self, network: Ipv4Prefix) -> bool:
        lo, hi = self.length_bounds()
        return self.prefix.contains_prefix(network) and lo <= network.length <= hi


@dataclasses.dataclass(frozen=True)
class PrefixList:
    """An ``ip prefix-list``: ordered entries, first match wins."""

    name: str
    entries: Tuple[PrefixListEntry, ...]

    def permits(self, network: Ipv4Prefix) -> bool:
        for entry in self.entries:
            if entry.matches(network):
                return entry.action == PERMIT
        return False


# ------------------------------------------------------------ community lists


@dataclasses.dataclass(frozen=True)
class CommunityListEntry:
    """One community-list entry.

    For expanded lists ``regex`` is set; for standard lists
    ``communities`` holds the literal communities that must all be
    present.
    """

    action: str
    regex: Optional[str] = None
    communities: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_action(self.action)
        if (self.regex is None) == (not self.communities):
            raise ValueError(
                "exactly one of regex / communities must be provided"
            )

    def matches(self, route_communities: Iterable[str]) -> bool:
        if self.regex is not None:
            return any(
                community_matches(self.regex, c) for c in route_communities
            )
        held = set(route_communities)
        return all(c in held for c in self.communities)


@dataclasses.dataclass(frozen=True)
class CommunityList:
    """An ``ip community-list`` (standard or expanded)."""

    name: str
    entries: Tuple[CommunityListEntry, ...]
    expanded: bool = True

    def permits(self, route: BgpRoute) -> bool:
        for entry in self.entries:
            if entry.matches(route.communities):
                return entry.action == PERMIT
        return False


# -------------------------------------------------------------- as-path lists


@dataclasses.dataclass(frozen=True)
class AsPathEntry:
    """One ``ip as-path access-list`` entry."""

    action: str
    regex: str

    def __post_init__(self) -> None:
        _check_action(self.action)

    def matches(self, route: BgpRoute) -> bool:
        return as_path_matches(self.regex, route.asns())


@dataclasses.dataclass(frozen=True)
class AsPathAccessList:
    """An ``ip as-path access-list``: ordered regexes, first match wins."""

    name: str
    entries: Tuple[AsPathEntry, ...]

    def permits(self, route: BgpRoute) -> bool:
        for entry in self.entries:
            if entry.matches(route):
                return entry.action == PERMIT
        return False


__all__ = [
    "PERMIT",
    "DENY",
    "AsPathAccessList",
    "AsPathEntry",
    "CommunityList",
    "CommunityListEntry",
    "PrefixList",
    "PrefixListEntry",
]
