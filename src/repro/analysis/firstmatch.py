"""One first-match engine behind every policy kind.

A first-match policy is an ordered list of entries plus the implicit
deny: the first entry whose guard holds decides the outcome.
Route-maps, ACLs, prefix-lists, AS-path lists and community lists are
all such policies (PAPER.md §4, and §7 for the lists); they differ only
in their input domain.  A kind describes itself by subclassing
:class:`FirstMatchPolicy`:

* guard translation: :meth:`~FirstMatchPolicy.universe` and
  :meth:`~FirstMatchPolicy.guard` give each entry's match space in the
  kind's symbolic algebra (route, packet, prefix or pattern spaces);
* the outcome key of an entry: its action, plus the transform of a
  route-map permit;
* the concrete evaluator, on which every symbolic witness is replayed
  before it is reported;
* the difference object that renders a differential input.

This module implements the shared steps once, for every kind:

* :func:`reachable_cells`: the incremental first-match walk, with one
  residual space threaded through the entries and each guard subtracted
  once;
* :func:`compare_policies`: differential examples between two policies
  (Batfish's ``compareRoutePolicies`` / ``compareFilters``).  Cells
  with differing outcomes are intersected pairwise, and one witness per
  pair is replayed on both policies;
* :func:`overlapping_entries`: the existing entries whose guard overlaps
  a new entry's, which are the disambiguator's candidates (§4);
* :func:`search_policy`: a concrete input that the policy handles with a
  given action (``searchRoutePolicies`` / ``searchFilters``), the spec
  check.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

PERMIT = "permit"
DENY = "deny"

#: One reachable cell: the entry (None for the implicit deny) and the
#: inputs that reach and match it.
Cell = Tuple[Optional[Any], Any]


def reachable_cells(
    entries: Iterable[Any], guard: Callable[[Any], Any], universe: Any
) -> List[Cell]:
    """``(entry, space)`` per entry, then ``(None, space)`` for the implicit deny.

    Each space holds the inputs that reach ``entry`` and match it, so
    together the spaces partition ``universe``.  ``guard`` maps an entry
    to its match space.
    """
    remaining = universe
    out: List[Cell] = []
    for entry in entries:
        matched = guard(entry)
        out.append((entry, matched.intersect(remaining)))
        remaining = remaining.subtract(matched)
    out.append((None, remaining))
    return out


class FirstMatchPolicy:
    """One first-match policy as the engine sees it; subclass per kind."""

    #: The ordered entries; the implicit deny follows the last.
    entries: Sequence[Any]

    def universe(self) -> Any:
        """Every input of the kind's domain."""
        raise NotImplementedError

    def guard(self, entry: Any) -> Any:
        """The inputs ``entry`` matches."""
        raise NotImplementedError

    def evaluate(self, subject: Any) -> Any:
        """The concrete outcome on ``subject``; it has a ``behaviour_key()``."""
        raise NotImplementedError

    def difference(self, subject: Any, result_a: Any, result_b: Any) -> Any:
        """The reported difference, with a ``subject`` and a ``render()``."""
        raise NotImplementedError

    def reachable(self) -> List[Cell]:
        return reachable_cells(self.entries, self.guard, self.universe())

    def action(self, entry: Optional[Any]) -> str:
        return entry.action if entry is not None else DENY

    def outcome(self, entry: Optional[Any]) -> Any:
        """Equal keys mean equal behaviour on every input the entries match."""
        return self.action(entry)

    def cells(self, space: Any) -> Sequence[Any]:
        """The conjunctive pieces of ``space``, each with a ``witness()``."""
        return space.regions

    def nudge(
        self, subject: Any, cell: Any, entry_a: Any, entry_b: Any
    ) -> Optional[Any]:
        """Another input in ``cell`` on which the outcomes may differ.

        Called when both policies happen to agree on ``cell``'s witness
        even though the two entries' outcome keys differ.
        """
        return None


def compare_policies(
    policy_a: FirstMatchPolicy,
    policy_b: FirstMatchPolicy,
    max_differences: Optional[int] = None,
) -> List[Any]:
    """Inputs on which the two policies behave differently, one per cell pair.

    ``max_differences`` stops early; the disambiguator needs one example
    per question.  An empty list means the policies are equivalent.
    """
    reaches_a = policy_a.reachable()
    reaches_b = [
        (policy_b.outcome(entry), entry, space)
        for entry, space in policy_b.reachable()
    ]
    differences: List[Any] = []
    seen = set()
    for entry_a, space_a in reaches_a:
        outcome_a = policy_a.outcome(entry_a)
        for outcome_b, entry_b, space_b in reaches_b:
            if outcome_a == outcome_b:
                continue
            for cell in policy_a.cells(space_a.intersect(space_b)):
                difference = _cell_difference(
                    policy_a, policy_b, cell, entry_a, entry_b
                )
                if difference is None or difference.subject in seen:
                    continue
                seen.add(difference.subject)
                differences.append(difference)
                if (
                    max_differences is not None
                    and len(differences) >= max_differences
                ):
                    return differences
                break  # one example per pair of cells is enough
    return differences


def _cell_difference(
    policy_a: FirstMatchPolicy,
    policy_b: FirstMatchPolicy,
    cell: Any,
    entry_a: Any,
    entry_b: Any,
) -> Optional[Any]:
    subject = cell.witness()
    if subject is None:
        return None
    result_a = policy_a.evaluate(subject)
    result_b = policy_b.evaluate(subject)
    if result_a.behaviour_key() != result_b.behaviour_key():
        return policy_a.difference(subject, result_a, result_b)
    nudged = policy_a.nudge(subject, cell, entry_a, entry_b)
    if nudged is None:
        return None
    result_a = policy_a.evaluate(nudged)
    result_b = policy_b.evaluate(nudged)
    if result_a.behaviour_key() != result_b.behaviour_key():
        return policy_a.difference(nudged, result_a, result_b)
    return None


def overlapping_entries(policy: FirstMatchPolicy, entry: Any) -> List[int]:
    """Indices of the policy's entries whose guard overlaps ``entry``'s.

    Only the new entry's order relative to these can change behaviour.
    """
    new_guard = policy.guard(entry)
    return [
        index
        for index, existing in enumerate(policy.entries)
        if not policy.guard(existing).intersect(new_guard).is_empty()
    ]


def search_policy(
    policy: FirstMatchPolicy,
    input_space: Optional[Any] = None,
    action: str = PERMIT,
) -> Optional[Any]:
    """An input in ``input_space`` that ``policy`` handles with ``action``.

    ``input_space`` defaults to the kind's universe.  The witness is
    replayed on the concrete evaluator before it is returned, so a
    returned input is real; None means there is none.
    """
    if action not in (PERMIT, DENY):
        raise ValueError(f"action must be permit or deny, got {action!r}")
    space = input_space if input_space is not None else policy.universe()
    for entry, reach in policy.reachable():
        if policy.action(entry) != action:
            continue
        witness = reach.intersect(space).witness()
        if witness is None:
            continue
        if policy.evaluate(witness).action == action:
            return witness
    return None


__all__ = [
    "DENY",
    "FirstMatchPolicy",
    "PERMIT",
    "compare_policies",
    "overlapping_entries",
    "reachable_cells",
    "search_policy",
]
