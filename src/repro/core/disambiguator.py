"""The disambiguator (§4): where does the new rule go?

Algorithm, following the paper:

1. Collect the existing rules whose match space *overlaps* the new
   rule's (there exists an input matching both) — only relative order
   with these rules can change behaviour.
2. Binary-search the insertion slot: pick the middle overlapping rule,
   build the two candidate policies with the new rule immediately before
   vs immediately after it, and ask the user to choose between the
   behaviours on a differential example.  Each answer halves the
   candidate range, so the user is queried a logarithmic number of
   times.
3. If the before/after candidates for some overlapping rule are
   behaviourally equivalent (an overlap in match space with no observable
   consequence), that rule is dropped from the candidate set without
   consuming a user question.

The algorithm places an entry in any first-match policy: route-map
stanzas and ACL rules (§4), and the paper's §7 extension, entries of
prefix-lists, community-lists and AS-path lists, where a question shows
a concrete network, community set or AS path.  Each kind brings its
overlap finder and comparator (:mod:`repro.analysis.firstmatch`) and its
candidate construction (:mod:`repro.core.insertion`); one placement
routine, :func:`_disambiguate`, does the rest.

Three modes are provided: ``FULL`` implements the paper's §4 algorithm
over every insertion point; ``TOP_BOTTOM`` reproduces the prototype's
restriction to inserting at the top or the bottom (§2.2), asking at most
one question; ``LINEAR`` is an ablation baseline.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.compare import (
    AclPolicy,
    AsPathListPolicy,
    CommunityListPolicy,
    PrefixListPolicy,
    RouteMapPolicy,
    compare_filters,
    compare_route_policies,
)
from repro.analysis.firstmatch import compare_policies, overlapping_entries
from repro.config.acl import Acl
from repro.config.lists import (
    AsPathAccessList,
    AsPathEntry,
    CommunityList,
    CommunityListEntry,
    PrefixList,
    PrefixListEntry,
)
from repro.config.routemap import RouteMap
from repro.config.store import ConfigStore
from repro.core.budget import check_budget
from repro.core.insertion import (
    insert_as_path_entry,
    insert_community_entry,
    insert_prefix_list_entry,
    insert_rule_into_acl,
    insert_stanza_into_store,
    merge_snippet_lists,
    snippet_rule,
    snippet_stanza,
)
from repro.core.oracle import DisambiguationQuestion, UserOracle


class DisambiguationMode(enum.Enum):
    """Which insertion points the disambiguator considers and how.

    ``FULL`` is the §4 algorithm (binary search over every insertion
    point); ``TOP_BOTTOM`` is the paper's prototype restriction (§2.2);
    ``LINEAR`` is an ablation baseline that scans the overlapping rules
    top-down with one question each.
    """

    FULL = "full"
    TOP_BOTTOM = "top-bottom"
    LINEAR = "linear"


@dataclasses.dataclass(frozen=True)
class DisambiguationResult:
    """The outcome of one disambiguation run."""

    #: Final insertion position (index into the policy's entry list).
    position: int
    #: The questions the user was asked, in order.
    questions: Tuple[DisambiguationQuestion, ...]
    #: Indices of existing entries overlapping the new one.
    overlaps: Tuple[int, ...]
    #: The updated store after insertion.
    store: ConfigStore

    @property
    def question_count(self) -> int:
        return len(self.questions)


#: ``build(position)``: the candidate ``(store, policy)`` with the new
#: entry inserted before index ``position``.
Build = Callable[[int], Tuple[ConfigStore, object]]
#: ``diff(a, b)``: one differential example between two candidates, or
#: None when they behave identically.
Diff = Callable[[object, object], Optional[object]]


# ------------------------------------------------------------- placement


def _disambiguate(
    span: str,
    counters: str,
    target: str,
    size: int,
    find_overlaps: Callable[[], List[int]],
    build: Build,
    diff: Diff,
    oracle: UserOracle,
    mode: DisambiguationMode,
) -> DisambiguationResult:
    """Place one new entry in a policy of ``size`` entries and insert it.

    Runs under the obs span ``span`` and counts under ``counters``
    (``disambiguation`` for §4, ``listinsert`` for the §7 lists).
    """
    with obs.span(span, target=target, mode=mode.value) as sp:
        overlaps = find_overlaps()
        if mode is DisambiguationMode.TOP_BOTTOM:
            position, questions = _top_bottom(size, build, diff, oracle)
        else:
            position, questions = _search_slot(
                overlaps,
                size,
                build,
                diff,
                oracle,
                linear=mode is DisambiguationMode.LINEAR,
            )
        final_store, _policy = build(position)
        _record_run(sp, counters, overlaps, questions, position)
        return DisambiguationResult(
            position=position,
            questions=tuple(questions),
            overlaps=tuple(overlaps),
            store=final_store,
        )


def _search_slot(
    overlaps: Sequence[int],
    size: int,
    build: Build,
    diff: Diff,
    oracle: UserOracle,
    linear: bool,
) -> Tuple[int, List[DisambiguationQuestion]]:
    """Search the insertion slot; returns (position, questions).

    ``overlaps`` are indices of overlapping entries in the original
    policy; the slots are 0..len(active) where slot j means "immediately
    before active[j]" (and the last slot means "after the last active
    overlap").  The binary search probes the middle slot, so each answer
    halves the range; the ``linear`` ablation probes the overlaps
    top-down and stops at the first "before", asking up to ``k``
    questions against binary search's ``ceil(log2(k+1))``.

    Deadline-aware: before building each candidate pair the ambient
    :class:`~repro.core.budget.TimeBudget` is checked;
    :class:`~repro.core.errors.DeadlineExceeded` carries the number of
    questions already asked, and the caller's store is left untouched
    (a graceful partial result — see :mod:`repro.core.budget`).
    """
    active = list(overlaps)
    questions: List[DisambiguationQuestion] = []
    lo, hi = 0, len(active)
    while lo < hi:
        check_budget("disambiguation", questions_asked=len(questions))
        probe = lo if linear else (lo + hi) // 2
        before = build(_slot_to_position(active, probe, size))
        after = build(_slot_to_position(active, probe + 1, size))
        obs.count("disambiguation.candidates", 2)
        difference = diff(before, after)
        if difference is None:
            # Relative order with active[probe] is unobservable: discard it.
            obs.count("disambiguation.pruned")
            del active[probe]
            hi -= 1
            continue
        question = DisambiguationQuestion(difference)
        choice = oracle.choose(question)
        questions.append(question)
        _record_question(question, choice)
        if choice == 1:
            hi = probe
        else:
            lo = probe + 1
    return _slot_to_position(active, lo, size), questions


def _slot_to_position(active: List[int], slot: int, size: int) -> int:
    if not active:
        # No (remaining) overlaps: every position is equivalent; the tool
        # appends at the bottom, leaving existing behaviour untouched.
        return size
    if slot < len(active):
        return active[slot]
    return active[-1] + 1


def _top_bottom(
    size: int, build: Build, diff: Diff, oracle: UserOracle
) -> Tuple[int, List[DisambiguationQuestion]]:
    """The prototype's two-candidate mode (§2.2): top or bottom only."""
    if size == 0:
        return 0, []
    top_candidate = build(0)
    bottom_candidate = build(size)
    obs.count("disambiguation.candidates", 2)
    difference = diff(top_candidate, bottom_candidate)
    if difference is None:
        obs.count("disambiguation.pruned")
        return size, []
    question = DisambiguationQuestion(difference)
    choice = oracle.choose(question)
    _record_question(question, choice)
    return (0 if choice == 1 else size), [question]


def _record_question(question: DisambiguationQuestion, choice: int) -> None:
    """Journal one differential question and the oracle/user's answer."""
    if obs.journal_enabled():
        obs.event(
            "disambiguation.question",
            question=question.render(),
            answer=choice,
        )


def _record_run(sp, counters, overlaps, questions, position) -> None:
    """Metric bookkeeping shared by every disambiguation entry point."""
    obs.count(f"{counters}.runs")
    obs.count(f"{counters}.questions", len(questions))
    obs.observe(f"{counters}.overlaps", len(overlaps))
    if counters == "disambiguation":
        obs.observe("disambiguation.search_depth", len(questions))
    sp.annotate(
        overlaps=len(overlaps), questions=len(questions), position=position
    )


def _first(differences: List[object]) -> Optional[object]:
    return differences[0] if differences else None


# ------------------------------------------------------------ route maps


def route_map_overlaps(
    route_map: RouteMap, store: ConfigStore, snippet: ConfigStore
) -> List[int]:
    """Indices of stanzas whose match space overlaps the new stanza's."""
    merged = merge_snippet_lists(store, snippet)
    return overlapping_entries(
        RouteMapPolicy(route_map, merged), snippet_stanza(snippet)
    )


def disambiguate_stanza(
    store: ConfigStore,
    route_map_name: str,
    snippet: ConfigStore,
    oracle: UserOracle,
    mode: DisambiguationMode = DisambiguationMode.FULL,
) -> DisambiguationResult:
    """Determine where the snippet's stanza belongs and insert it.

    The snippet's ancillary lists must already be renamed to avoid
    collisions (see :func:`repro.config.names.rename_snippet_lists`);
    :class:`repro.core.workflow.ClarifySession` does this automatically.
    """
    target = (
        store.route_map(route_map_name)
        if store.has_route_map(route_map_name)
        else RouteMap(route_map_name, ())
    )
    return _disambiguate(
        "disambiguate.stanza",
        "disambiguation",
        route_map_name,
        len(target.stanzas),
        lambda: route_map_overlaps(target, store, snippet),
        lambda position: insert_stanza_into_store(
            store, route_map_name, snippet, position
        ),
        lambda a, b: _first(
            compare_route_policies(a[1], b[1], a[0], b[0], max_differences=1)
        ),
        oracle,
        mode,
    )


# ------------------------------------------------------------------ ACLs


def acl_overlaps(acl: Acl, snippet: ConfigStore) -> List[int]:
    """Indices of ACL rules whose match space overlaps the new rule's."""
    return overlapping_entries(AclPolicy(acl), snippet_rule(snippet))


def disambiguate_acl_rule(
    store: ConfigStore,
    acl_name: str,
    snippet: ConfigStore,
    oracle: UserOracle,
    mode: DisambiguationMode = DisambiguationMode.FULL,
) -> DisambiguationResult:
    """Determine where the snippet's ACL rule belongs and insert it."""
    target = store.acl(acl_name) if store.has_acl(acl_name) else Acl(acl_name, ())
    return _disambiguate(
        "disambiguate.acl",
        "disambiguation",
        acl_name,
        len(target.rules),
        lambda: acl_overlaps(target, snippet),
        lambda position: insert_rule_into_acl(store, acl_name, snippet, position),
        lambda a, b: _first(compare_filters(a[1], b[1], max_differences=1)),
        oracle,
        mode,
    )


# ----------------------------------------------------------------- lists


def _disambiguate_list_entry(
    span, store, target, entry, insert, add, policy, oracle, mode
) -> DisambiguationResult:
    """Place ``entry`` in the list ``target`` (a §7 insertion).

    ``insert`` splices an entry into a list, ``add`` is the store's
    ``add_*_list`` method and ``policy`` the list's first-match kind.
    """

    def build(position: int):
        updated = insert(target, entry, position)
        out = store.copy()
        add(out, updated, replace=True)
        return out, updated

    return _disambiguate(
        span,
        "listinsert",
        target.name,
        len(target.entries),
        lambda: overlapping_entries(policy(target), entry),
        build,
        lambda a, b: _first(compare_policies(policy(a[1]), policy(b[1]), 1)),
        oracle,
        mode,
    )


def disambiguate_prefix_list_entry(
    store: ConfigStore,
    list_name: str,
    entry: PrefixListEntry,
    oracle: UserOracle,
    mode: DisambiguationMode = DisambiguationMode.FULL,
) -> DisambiguationResult:
    """Insert a prefix-list entry, disambiguating its position (§7)."""
    target = (
        store.prefix_list(list_name)
        if store.has_prefix_list(list_name)
        else PrefixList(list_name, ())
    )
    return _disambiguate_list_entry(
        "listinsert.prefix_list",
        store,
        target,
        entry,
        insert_prefix_list_entry,
        ConfigStore.add_prefix_list,
        PrefixListPolicy,
        oracle,
        mode,
    )


def disambiguate_as_path_entry(
    store: ConfigStore,
    list_name: str,
    entry: AsPathEntry,
    oracle: UserOracle,
    mode: DisambiguationMode = DisambiguationMode.FULL,
) -> DisambiguationResult:
    """Insert an as-path access-list entry, disambiguating its position."""
    target = (
        store.as_path_list(list_name)
        if store.has_as_path_list(list_name)
        else AsPathAccessList(list_name, ())
    )
    return _disambiguate_list_entry(
        "listinsert.as_path",
        store,
        target,
        entry,
        insert_as_path_entry,
        ConfigStore.add_as_path_list,
        AsPathListPolicy,
        oracle,
        mode,
    )


def disambiguate_community_entry(
    store: ConfigStore,
    list_name: str,
    entry: CommunityListEntry,
    oracle: UserOracle,
    mode: DisambiguationMode = DisambiguationMode.FULL,
) -> DisambiguationResult:
    """Insert a community-list entry, disambiguating its position."""
    target = (
        store.community_list(list_name)
        if store.has_community_list(list_name)
        else CommunityList(list_name, (), expanded=entry.regex is not None)
    )
    return _disambiguate_list_entry(
        "listinsert.community",
        store,
        target,
        entry,
        insert_community_entry,
        ConfigStore.add_community_list,
        CommunityListPolicy,
        oracle,
        mode,
    )


__all__ = [
    "DisambiguationMode",
    "DisambiguationQuestion",
    "DisambiguationResult",
    "acl_overlaps",
    "disambiguate_acl_rule",
    "disambiguate_as_path_entry",
    "disambiguate_community_entry",
    "disambiguate_prefix_list_entry",
    "disambiguate_stanza",
    "route_map_overlaps",
]
