"""The symbolic domain for BGP network prefixes.

A prefix-list entry ``permit P/len ge G le L`` matches the set of route
networks that lie inside ``P/len`` and whose own prefix length falls in a
range.  :class:`PrefixAtom` captures exactly that shape — a covering
prefix plus an inclusive length window — and :class:`PrefixSpace` is a
finite union of atoms closed under intersection and complement, which is
all the guard algebra needs.

The complement of an atom decomposes into at most ``2 * len(P) + 2``
atoms: the *sibling* subtrees that diverge from ``P`` at each bit, the
shorter prefixes along the path to ``P``, and the in-``P`` length windows
outside ``[lo, hi]``.  The property tests in ``tests/analysis`` check
this decomposition against brute-force enumeration on small universes.

Subtraction *carves*: ``atom - taken`` is exactly the non-empty
intersections of ``atom`` with ``taken.complement_atoms()``, in that
order, but only the complement atoms on the path between the two
covering prefixes can meet ``atom``, so :func:`_carve` generates those
directly instead of building the complement.  Atom order is part of the
output: :meth:`PrefixSpace.witness` returns the first atom's witness,
which is the example a disambiguation question shows.

A space records when its atoms are known to be pairwise disjoint (a
single atom, a complement, a carved disjoint space, the intersection of
two disjoint spaces).  Those results skip the pairwise absorption sweep,
which could not remove or reorder anything in them.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.netaddr import Ipv4Prefix


@dataclasses.dataclass(frozen=True)
class PrefixAtom:
    """Networks within ``covering`` whose length lies in ``[lo, hi]``."""

    covering: Ipv4Prefix
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not self.covering.length <= self.lo <= self.hi <= 32:
            raise ValueError(
                f"invalid length window [{self.lo}, {self.hi}] for "
                f"{self.covering}"
            )

    @classmethod
    def universe(cls) -> "PrefixAtom":
        return cls(Ipv4Prefix.parse("0.0.0.0/0"), 0, 32)

    @classmethod
    def exact(cls, prefix: Ipv4Prefix) -> "PrefixAtom":
        return cls(prefix, prefix.length, prefix.length)

    def contains(self, network: Ipv4Prefix) -> bool:
        return (
            self.lo <= network.length <= self.hi
            and self.covering.contains_prefix(network)
        )

    def subsumes(self, other: "PrefixAtom") -> bool:
        """True if every network in ``other`` is in this atom."""
        return (
            self.covering.contains_prefix(other.covering)
            and self.lo <= other.lo
            and other.hi <= self.hi
        )

    def intersect(self, other: "PrefixAtom") -> Optional["PrefixAtom"]:
        if self.covering.contains_prefix(other.covering):
            covering = other.covering
        elif other.covering.contains_prefix(self.covering):
            covering = self.covering
        else:
            return None
        lo = max(self.lo, other.lo, covering.length)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return PrefixAtom(covering, lo, hi)

    def complement_atoms(self) -> Tuple["PrefixAtom", ...]:
        """Atoms whose union is exactly the complement of this atom."""
        out: List[PrefixAtom] = []
        covering = self.covering
        # (a) subtrees diverging from the covering prefix at each bit.
        for depth in range(covering.length):
            sibling = covering.truncate(depth + 1).sibling()
            out.append(PrefixAtom(sibling, depth + 1, 32))
        # (b) strictly shorter prefixes along the path to the covering
        # prefix (they agree on their own bits but are not "within" it).
        for length in range(covering.length):
            out.append(PrefixAtom(covering.truncate(length), length, length))
        # (c) networks inside the covering prefix with lengths outside
        # the [lo, hi] window.
        if self.lo > covering.length:
            out.append(PrefixAtom(covering, covering.length, self.lo - 1))
        if self.hi < 32:
            out.append(PrefixAtom(covering, self.hi + 1, 32))
        return tuple(out)

    def witness(self) -> Ipv4Prefix:
        """An arbitrary network in this atom (the all-zero extension)."""
        return Ipv4Prefix.canonical(self.covering.network, self.lo)

    def __str__(self) -> str:
        if self.lo == self.hi == self.covering.length:
            return str(self.covering)
        return f"{self.covering}:{self.lo}-{self.hi}"


def _carve(atom: PrefixAtom, taken: PrefixAtom) -> Tuple[PrefixAtom, ...]:
    """``atom`` minus ``taken``, as pairwise-disjoint atoms.

    Exactly the non-``None`` ``atom.intersect(c)`` for ``c`` in
    ``taken.complement_atoms()``, in that order: ``(atom,)`` when the
    covering prefixes diverge, ``()`` when ``taken`` subsumes ``atom``.
    """
    covering, target = atom.covering, taken.covering
    if covering.contains_prefix(target):
        deeper = target
    elif target.contains_prefix(covering):
        deeper = covering
    else:
        return (atom,)
    out: List[PrefixAtom] = []
    # (a) subtrees diverging from the path to ``target`` below
    # ``covering`` (none unless ``target`` is the deeper prefix).
    for length in range(covering.length + 1, min(target.length, atom.hi) + 1):
        sibling = target.truncate(length).sibling()
        out.append(PrefixAtom(sibling, max(atom.lo, length), atom.hi))
    # (b) the prefixes on that path, shorter than ``target``.
    for length in range(atom.lo, min(target.length, atom.hi + 1)):
        out.append(PrefixAtom.exact(target.truncate(length)))
    # (c) networks in ``deeper`` at lengths outside ``taken``'s window.
    if taken.lo > target.length:
        lo, hi = max(atom.lo, target.length), min(atom.hi, taken.lo - 1)
        if lo <= hi:
            out.append(PrefixAtom(deeper, lo, hi))
    if taken.hi < 32:
        lo = max(atom.lo, taken.hi + 1)
        if lo <= atom.hi:
            out.append(PrefixAtom(deeper, lo, atom.hi))
    return tuple(out)


def _carve_all(
    atoms: Tuple[PrefixAtom, ...], taken: Sequence[PrefixAtom]
) -> Tuple[PrefixAtom, ...]:
    """Carve every atom of ``taken`` out of ``atoms``, keeping their order."""
    for cut in taken:
        if not atoms:
            break
        atoms = tuple(piece for atom in atoms for piece in _carve(atom, cut))
    return atoms


def _absorb(atoms: Sequence[PrefixAtom]) -> Tuple[PrefixAtom, ...]:
    """Drop atoms subsumed by other atoms (keeps the union small)."""
    kept: List[PrefixAtom] = []
    for atom in atoms:
        if any(other.subsumes(atom) for other in kept):
            continue
        kept = [other for other in kept if not atom.subsumes(other)]
        kept.append(atom)
    return tuple(kept)


@dataclasses.dataclass(frozen=True)
class PrefixSpace:
    """A finite union of :class:`PrefixAtom` (not necessarily disjoint)."""

    atoms: Tuple[PrefixAtom, ...] = ()
    #: The atoms are known to be pairwise disjoint.  Set only by the
    #: operations whose results are disjoint by construction; it is not
    #: part of the space's value (equality and hash ignore it).
    _disjoint: bool = dataclasses.field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self._disjoint:
            atoms = _absorb(self.atoms)
            object.__setattr__(self, "atoms", atoms)
            object.__setattr__(self, "_disjoint", len(atoms) < 2)

    @classmethod
    def empty(cls) -> "PrefixSpace":
        return cls(())

    @classmethod
    def universe(cls) -> "PrefixSpace":
        return cls((PrefixAtom.universe(),))

    @classmethod
    def of_atom(cls, atom: PrefixAtom) -> "PrefixSpace":
        return cls((atom,))

    @classmethod
    def exact(cls, prefix: Ipv4Prefix) -> "PrefixSpace":
        return cls((PrefixAtom.exact(prefix),))

    def is_empty(self) -> bool:
        return not self.atoms

    def is_universe(self) -> bool:
        return any(atom == PrefixAtom.universe() for atom in self.atoms)

    def bounds(self) -> Optional[Tuple[int, int]]:
        """Inclusive address range covering every network in the space.

        A network in an atom lies inside the atom's covering prefix, so
        two spaces whose bounds do not overlap are certainly disjoint —
        the bounding-box pre-check the route-space subtraction uses to
        skip untouched regions.  Returns ``None`` when empty.
        """
        if not self.atoms:
            return None
        lo = min(atom.covering.first_address().value for atom in self.atoms)
        hi = max(atom.covering.last_address().value for atom in self.atoms)
        return lo, hi

    def contains(self, network: Ipv4Prefix) -> bool:
        return any(atom.contains(network) for atom in self.atoms)

    def union(self, other: "PrefixSpace") -> "PrefixSpace":
        if not other.atoms:
            return self
        if not self.atoms:
            return other
        return PrefixSpace(self.atoms + other.atoms)

    def intersect(self, other: "PrefixSpace") -> "PrefixSpace":
        out: List[PrefixAtom] = []
        for a in self.atoms:
            for b in other.atoms:
                got = a.intersect(b)
                if got is not None:
                    out.append(got)
        return PrefixSpace(
            tuple(out), _disjoint=self._disjoint and other._disjoint
        )

    def complement(self) -> "PrefixSpace":
        atoms = _carve_all((PrefixAtom.universe(),), self.atoms)
        return PrefixSpace(atoms, _disjoint=True)

    def subtract(self, other: "PrefixSpace") -> "PrefixSpace":
        atoms = _carve_all(self.atoms, other.atoms)
        return PrefixSpace(atoms, _disjoint=self._disjoint)

    def is_subset_of(self, other: "PrefixSpace") -> bool:
        return self.subtract(other).is_empty()

    def witness(self) -> Optional[Ipv4Prefix]:
        if self.is_empty():
            return None
        return self.atoms[0].witness()

    def __str__(self) -> str:
        if self.is_empty():
            return "{}"
        return " u ".join(str(atom) for atom in self.atoms)


__all__ = ["PrefixAtom", "PrefixSpace"]
