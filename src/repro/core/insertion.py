"""Snippet insertion: merging lists and splicing the new stanza/rule.

The snippet arrives as its own little :class:`ConfigStore` (one stanza
under a fresh route-map name, plus the ancillary lists it references).
Insertion merges the lists into the target configuration — the caller
renames them first via :func:`repro.config.names.rename_snippet_lists` —
and splices the stanza into the target route-map at a given position,
renumbering sequence numbers (Fig. 2).  The §7 list entries are spliced
into their prefix-, AS-path or community list the same way.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.config.acl import Acl, AclRule
from repro.config.lists import (
    AsPathAccessList,
    AsPathEntry,
    CommunityList,
    CommunityListEntry,
    PrefixList,
    PrefixListEntry,
)
from repro.config.routemap import RouteMap, RouteMapStanza
from repro.config.store import ConfigStore


def snippet_stanza(snippet: ConfigStore) -> RouteMapStanza:
    """The single stanza of a verified route-map snippet."""
    route_maps = list(snippet.route_maps())
    if len(route_maps) != 1 or len(route_maps[0].stanzas) != 1:
        raise ValueError("snippet must define exactly one one-stanza route-map")
    return route_maps[0].stanzas[0]


def snippet_rule(snippet: ConfigStore) -> AclRule:
    """The single rule of a verified ACL snippet."""
    acls = list(snippet.acls())
    if len(acls) != 1 or len(acls[0].rules) != 1:
        raise ValueError("snippet must define exactly one one-rule ACL")
    return acls[0].rules[0]


def merge_snippet_lists(store: ConfigStore, snippet: ConfigStore) -> ConfigStore:
    """A copy of ``store`` plus the snippet's (already renamed) lists."""
    merged = store.copy()
    for pl in snippet.prefix_lists():
        merged.add_prefix_list(pl)
    for cl in snippet.community_lists():
        merged.add_community_list(cl)
    for al in snippet.as_path_lists():
        merged.add_as_path_list(al)
    return merged


def insert_stanza_into_store(
    store: ConfigStore,
    route_map_name: str,
    snippet: ConfigStore,
    position: int,
) -> Tuple[ConfigStore, RouteMap]:
    """Insert the snippet's stanza into ``route_map_name`` at ``position``.

    Creates the route-map if it does not exist yet (the incremental
    from-scratch workflow of §5 starts with empty route-maps).  Returns
    the new store and the updated route-map.
    """
    merged = merge_snippet_lists(store, snippet)
    if merged.has_route_map(route_map_name):
        target = merged.route_map(route_map_name)
    else:
        target = RouteMap(route_map_name, ())
    updated = target.insert(snippet_stanza(snippet), position)
    merged.add_route_map(updated, replace=True)
    return merged, updated


def insert_rule_into_acl(
    store: ConfigStore,
    acl_name: str,
    snippet: ConfigStore,
    position: int,
) -> Tuple[ConfigStore, Acl]:
    """Insert the snippet's rule into ``acl_name`` at ``position``."""
    merged = merge_snippet_lists(store, snippet)
    if merged.has_acl(acl_name):
        target = merged.acl(acl_name)
    else:
        target = Acl(acl_name, ())
    updated = target.insert(snippet_rule(snippet), position)
    merged.add_acl(updated, replace=True)
    return merged, updated


def insert_prefix_list_entry(
    pl: PrefixList, entry: PrefixListEntry, position: int
) -> PrefixList:
    """Insert ``entry`` before index ``position``, resequencing by 10s."""
    entries = list(pl.entries)
    entries.insert(position, entry)
    resequenced = tuple(
        dataclasses.replace(e, seq=10 * (idx + 1))
        for idx, e in enumerate(entries)
    )
    return PrefixList(pl.name, resequenced)


def insert_as_path_entry(
    al: AsPathAccessList, entry: AsPathEntry, position: int
) -> AsPathAccessList:
    entries = list(al.entries)
    entries.insert(position, entry)
    return AsPathAccessList(al.name, tuple(entries))


def insert_community_entry(
    cl: CommunityList, entry: CommunityListEntry, position: int
) -> CommunityList:
    if (entry.regex is not None) != cl.expanded and cl.entries:
        raise ValueError(
            f"entry kind does not match {('expanded' if cl.expanded else 'standard')} "
            f"community-list {cl.name}"
        )
    entries = list(cl.entries)
    entries.insert(position, entry)
    return CommunityList(cl.name, tuple(entries), expanded=cl.expanded)


__all__ = [
    "insert_as_path_entry",
    "insert_community_entry",
    "insert_prefix_list_entry",
    "insert_rule_into_acl",
    "insert_stanza_into_store",
    "merge_snippet_lists",
    "snippet_rule",
    "snippet_stanza",
]
