"""Route-maps: ordered stanzas with match and set clauses."""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.config.lists import DENY, PERMIT
from repro.config.matches import MatchClause
from repro.config.sets import SetClause

#: IOS convention: stanza sequence numbers step by 10 so insertions fit.
SEQ_STEP = 10


@dataclasses.dataclass(frozen=True)
class RouteMapStanza:
    """One ``route-map <name> <action> <seq>`` stanza."""

    seq: int
    action: str
    matches: Tuple[MatchClause, ...] = ()
    sets: Tuple[SetClause, ...] = ()

    def __post_init__(self) -> None:
        if self.action not in (PERMIT, DENY):
            raise ValueError(
                f"action must be 'permit' or 'deny', got {self.action!r}"
            )

    def with_seq(self, seq: int) -> "RouteMapStanza":
        return dataclasses.replace(self, seq=seq)


@dataclasses.dataclass(frozen=True)
class RouteMap:
    """A named, ordered sequence of stanzas.

    Stanzas are evaluated in order; a route is handled by the first stanza
    whose match clauses all succeed.  Routes matching no stanza are denied
    (the implicit termination rule the paper describes).
    """

    name: str
    stanzas: Tuple[RouteMapStanza, ...] = ()

    def __post_init__(self) -> None:
        seqs = [s.seq for s in self.stanzas]
        if seqs != sorted(seqs) or len(set(seqs)) != len(seqs):
            raise ValueError(
                f"route-map {self.name}: stanza sequence numbers must be "
                f"strictly increasing, got {seqs}"
            )

    def stanza_at(self, seq: int) -> RouteMapStanza:
        for stanza in self.stanzas:
            if stanza.seq == seq:
                return stanza
        raise KeyError(f"route-map {self.name} has no stanza {seq}")

    def index_of(self, seq: int) -> int:
        for idx, stanza in enumerate(self.stanzas):
            if stanza.seq == seq:
                return idx
        raise KeyError(f"route-map {self.name} has no stanza {seq}")

    def insert(self, stanza: RouteMapStanza, position: int) -> "RouteMap":
        """A new route-map with ``stanza`` inserted before index ``position``.

        Sequence numbers are renumbered in steps of 10, preserving order —
        the same normalisation a human operator performs when a stanza no
        longer fits between existing numbers.
        """
        if not 0 <= position <= len(self.stanzas):
            raise ValueError(
                f"insertion position {position} out of range "
                f"(0..{len(self.stanzas)})"
            )
        combined: List[RouteMapStanza] = list(self.stanzas)
        combined.insert(position, stanza)
        renumbered = tuple(
            s.with_seq(SEQ_STEP * (idx + 1)) for idx, s in enumerate(combined)
        )
        return RouteMap(self.name, renumbered)

    def append(self, stanza: RouteMapStanza) -> "RouteMap":
        return self.insert(stanza, len(self.stanzas))

    def prepend(self, stanza: RouteMapStanza) -> "RouteMap":
        return self.insert(stanza, 0)

    def with_name(self, name: str) -> "RouteMap":
        return dataclasses.replace(self, name=name)

    def __len__(self) -> int:
        return len(self.stanzas)


__all__ = ["RouteMap", "RouteMapStanza", "SEQ_STEP"]
