"""Symbolic route spaces: unions of per-field product regions.

A :class:`RouteRegion` constrains every matchable field of a BGP route:

* the network prefix, as a :class:`~repro.analysis.prefixspace.PrefixSpace`;
* the community set, as *required* regexes (at least one community must
  match each) and *forbidden* regexes (no community may match any);
* the AS path, as required/forbidden regexes over the rendered path;
* local preference, metric, and tag as integer interval sets.

A :class:`RouteSpace` is a finite union of regions.  Stanza guards
translate into spaces; first-match semantics is captured by subtracting
earlier guards (:func:`route_map_reachable_spaces`).  Emptiness of the
regex constraints is decided with the automaton product search in
:mod:`repro.regexlib`, memoised because guards repeat the same small
pattern sets.

Like the header-space engine, regions are hash-consed through
:mod:`repro.perf.cache`: regions are interned (equality usually decides
by identity), ``intersect`` / ``is_empty`` / ``negation_regions`` /
``witness`` and the regex witness searches are memoized in bounded,
oldest-first tables, and subtraction skips
regions that a cheap field-wise pre-check
(:func:`regions_cheaply_disjoint`) proves untouched before any product
construction or automaton search runs.  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.firstmatch import Cell, reachable_cells
from repro.analysis.prefixspace import PrefixAtom, PrefixSpace
from repro.config.lists import (
    PERMIT,
    AsPathAccessList,
    AsPathEntry,
    CommunityList,
    CommunityListEntry,
    PrefixList,
    PrefixListEntry,
)
from repro.config.matches import (
    MatchAsPath,
    MatchClause,
    MatchCommunity,
    MatchLocalPreference,
    MatchMetric,
    MatchPrefixList,
    MatchTag,
)
from repro.config.routemap import RouteMap, RouteMapStanza
from repro.config.store import ConfigStore
from repro.netaddr import IntervalSet
from repro.perf import cache as _perf
from repro.regexlib.cisco import (
    as_path_matches,
    community_matches,
    find_as_path,
    find_community,
    literal_community_pattern,
)
from repro.regexlib.nfa import compile_regex, find_word
from repro.route import BgpRoute
from repro.route.bgproute import DEFAULT_LOCAL_PREFERENCE, DEFAULT_METRIC

U32 = IntervalSet.closed(0, 0xFFFFFFFF)

#: Fields whose symbolic domain is an interval set, with their universes.
SCALAR_UNIVERSES: Dict[str, IntervalSet] = {
    "local_preference": U32,
    "metric": U32,
    "tag": U32,
}


class AnalysisError(RuntimeError):
    """Raised when a constraint is outside the engine's decidable fragment."""


# ----------------------------------------------------------- regex caching

#: Regex witness searches, keyed by ``(required, forbidden)`` pattern
#: tuples: guards repeat the same small pattern sets.
_COMMUNITY_WITNESS = _perf.Memo("routespace.community_witness")
_AS_PATH_WORD = _perf.Memo("routespace.as_path_word")


def _community_witness(
    required: Tuple[str, ...], forbidden: Tuple[str, ...]
) -> Optional[Tuple[str, ...]]:
    """One community per required pattern, each avoiding all forbidden.

    Returns None when some required pattern is unsatisfiable against the
    forbidden set.  The union of the returned communities satisfies the
    whole constraint (each witness individually avoids every forbidden
    pattern).
    """

    def search() -> Optional[Tuple[str, ...]]:
        witnesses = []
        for pattern in required:
            witness = find_community([pattern], list(forbidden))
            if witness is None:
                return None
            witnesses.append(witness)
        return tuple(witnesses)

    return _COMMUNITY_WITNESS.lookup((required, forbidden), search)


def _as_path_word(
    required: Tuple[str, ...], forbidden: Tuple[str, ...]
) -> Optional[str]:
    def search() -> Optional[str]:
        pos = [compile_regex(p) for p in required]
        neg = [compile_regex(p) for p in forbidden]
        return find_word(pos, neg)

    return _AS_PATH_WORD.lookup((required, forbidden), search)


# ----------------------------------------------------------------- regions


#: Hash-cons table for regions (each region is its own result) and memos
#: for the region algebra (stats surface as ``cache.*`` counters; see
#: ``docs/PERFORMANCE.md``).
_REGIONS = _perf.Memo("routespace.regions", max_size=1 << 17)
_R_INTERSECT = _perf.Memo("routespace.intersect")
_R_NEGATE = _perf.Memo("routespace.negation")
_R_EMPTY = _perf.Memo("routespace.is_empty")
_R_WITNESS = _perf.Memo("routespace.witness")


def intern_route_region(region: "RouteRegion") -> "RouteRegion":
    """Return the canonical shared object for ``region``."""
    return _REGIONS.lookup(region, lambda: region)


def regions_cheaply_disjoint(a: "RouteRegion", b: "RouteRegion") -> bool:
    """Sound, incomplete disjointness: True proves the intersection empty.

    Used by :meth:`RouteSpace.subtract` to keep regions untouched without
    building the product region or running the automaton search.  The
    checks mirror :meth:`RouteRegion.obviously_empty` on the would-be
    intersection: a pattern required on one side and forbidden on the
    other, an empty scalar interval intersection, or prefix spaces whose
    address bounding boxes cannot overlap.
    """
    if a.communities_required & b.communities_forbidden:
        return True
    if b.communities_required & a.communities_forbidden:
        return True
    if a.as_path_required & b.as_path_forbidden:
        return True
    if b.as_path_required & a.as_path_forbidden:
        return True
    for field in SCALAR_UNIVERSES:
        if getattr(a, field).intersect(getattr(b, field)).is_empty():
            return True
    bounds_a = a.prefix.bounds()
    bounds_b = b.prefix.bounds()
    if bounds_a is None or bounds_b is None:
        return True
    return bounds_a[1] < bounds_b[0] or bounds_b[1] < bounds_a[0]


def spaces_cheaply_disjoint_matrix(
    spaces: Sequence["RouteSpace"],
) -> List[bytearray]:
    """Batched all-pairs :func:`regions_cheaply_disjoint` pre-check.

    ``out[i][j]`` is 1 iff every region product of ``spaces[i]`` and
    ``spaces[j]`` is provably disjoint — exactly
    ``all(regions_cheaply_disjoint(ra, rb) for ra in spaces[i].regions
    for rb in spaces[j].regions)``, which is what the overlap detector's
    stanza pre-check asks per pair.  All regions of all spaces are
    flattened and their scalar fields encoded **once**
    (:func:`repro.perf.kernels.encode`), so the interval part of the
    check runs as array sweeps instead of ``O(pairs * fields)``
    memo-keyed ``IntervalSet.intersect`` calls; the pattern-clash and
    prefix-bounds parts stay per-product (they are set/None tests).
    """
    from repro.perf import kernels as _kernels

    regions: List[RouteRegion] = []
    slices: List[Tuple[int, int]] = []
    for space in spaces:
        start = len(regions)
        regions.extend(space.regions)
        slices.append((start, len(regions)))
    count = len(spaces)
    if not regions:
        return [bytearray([1] * count) for _ in range(count)]
    encoded = [
        _kernels.encode([getattr(r, field) for r in regions])
        for field in SCALAR_UNIVERSES
    ]
    scalar_disjoint = [
        _kernels.disjoint_matrix(enc, enc) for enc in encoded
    ]
    bounds = [region.prefix.bounds() for region in regions]

    def product_disjoint(x: int, y: int) -> bool:
        rx, ry = regions[x], regions[y]
        if rx.communities_required & ry.communities_forbidden:
            return True
        if ry.communities_required & rx.communities_forbidden:
            return True
        if rx.as_path_required & ry.as_path_forbidden:
            return True
        if ry.as_path_required & rx.as_path_forbidden:
            return True
        if any(matrix[x][y] for matrix in scalar_disjoint):
            return True
        bounds_x, bounds_y = bounds[x], bounds[y]
        if bounds_x is None or bounds_y is None:
            return True
        return bounds_x[1] < bounds_y[0] or bounds_y[1] < bounds_x[0]

    out: List[bytearray] = []
    for i in range(count):
        row = bytearray(count)
        lo_i, hi_i = slices[i]
        for j in range(count):
            lo_j, hi_j = slices[j]
            row[j] = (
                1
                if all(
                    product_disjoint(x, y)
                    for x in range(lo_i, hi_i)
                    for y in range(lo_j, hi_j)
                )
                else 0
            )
        out.append(row)
    return out


@dataclasses.dataclass(frozen=True)
class RouteRegion:
    """A conjunctive constraint over every matchable route field."""

    prefix: PrefixSpace = dataclasses.field(default_factory=PrefixSpace.universe)
    communities_required: FrozenSet[str] = frozenset()
    communities_forbidden: FrozenSet[str] = frozenset()
    as_path_required: FrozenSet[str] = frozenset()
    as_path_forbidden: FrozenSet[str] = frozenset()
    local_preference: IntervalSet = U32
    metric: IntervalSet = U32
    tag: IntervalSet = U32

    # Equality is structural with an identity fast path (regions flowing
    # through the algebra are interned, so ``is`` usually decides), and
    # the hash is computed once per object — the fields cascade into
    # prefix atoms, frozensets, and interval tuples, so a recomputed
    # hash per memo lookup would dominate the lookup itself.

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is RouteRegion:
            return (
                self.prefix == other.prefix
                and self.communities_required == other.communities_required
                and self.communities_forbidden == other.communities_forbidden
                and self.as_path_required == other.as_path_required
                and self.as_path_forbidden == other.as_path_forbidden
                and self.local_preference == other.local_preference
                and self.metric == other.metric
                and self.tag == other.tag
            )
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            value = hash(
                (
                    self.prefix,
                    self.communities_required,
                    self.communities_forbidden,
                    self.as_path_required,
                    self.as_path_forbidden,
                    self.local_preference,
                    self.metric,
                    self.tag,
                )
            )
            object.__setattr__(self, "_hash", value)
            return value

    # ------------------------------------------------------------ algebra

    def intersect(self, other: "RouteRegion") -> "RouteRegion":
        if self is other:
            return self
        return _R_INTERSECT.lookup(
            (self, other), lambda: self._intersect(other)
        )

    def _intersect(self, other: "RouteRegion") -> "RouteRegion":
        return intern_route_region(RouteRegion(
            prefix=self.prefix.intersect(other.prefix),
            communities_required=self.communities_required
            | other.communities_required,
            communities_forbidden=self.communities_forbidden
            | other.communities_forbidden,
            as_path_required=self.as_path_required | other.as_path_required,
            as_path_forbidden=self.as_path_forbidden | other.as_path_forbidden,
            local_preference=self.local_preference.intersect(
                other.local_preference
            ),
            metric=self.metric.intersect(other.metric),
            tag=self.tag.intersect(other.tag),
        ))

    def negation_regions(self) -> Tuple["RouteRegion", ...]:
        """Regions whose union is the complement of this region."""
        return _R_NEGATE.lookup(self, self._negation_regions)

    def _negation_regions(self) -> Tuple["RouteRegion", ...]:
        out: List[RouteRegion] = []
        if not self.prefix.is_universe():
            out.append(RouteRegion(prefix=self.prefix.complement()))
        for pattern in sorted(self.communities_required):
            out.append(RouteRegion(communities_forbidden=frozenset((pattern,))))
        for pattern in sorted(self.communities_forbidden):
            out.append(RouteRegion(communities_required=frozenset((pattern,))))
        for pattern in sorted(self.as_path_required):
            out.append(RouteRegion(as_path_forbidden=frozenset((pattern,))))
        for pattern in sorted(self.as_path_forbidden):
            out.append(RouteRegion(as_path_required=frozenset((pattern,))))
        for field, universe in SCALAR_UNIVERSES.items():
            value: IntervalSet = getattr(self, field)
            if value != universe:
                out.append(
                    RouteRegion(**{field: value.complement(universe)})
                )
        return tuple(intern_route_region(region) for region in out)

    def obviously_empty(self) -> bool:
        """Cheap emptiness checks, no automaton search."""
        if self.prefix.is_empty():
            return True
        for field in SCALAR_UNIVERSES:
            if getattr(self, field).is_empty():
                return True
        if self.communities_required & self.communities_forbidden:
            return True
        if self.as_path_required & self.as_path_forbidden:
            return True
        return False

    def is_empty(self) -> bool:
        return _R_EMPTY.lookup(self, self._is_empty)

    def _is_empty(self) -> bool:
        if self.obviously_empty():
            return True
        if (
            _community_witness(
                tuple(sorted(self.communities_required)),
                tuple(sorted(self.communities_forbidden)),
            )
            is None
        ):
            return True
        word = _as_path_word(
            tuple(sorted(self.as_path_required)),
            tuple(sorted(self.as_path_forbidden)),
        )
        return word is None

    def subsumes(self, other: "RouteRegion") -> bool:
        """Sound but incomplete: True implies ``other`` is inside this region."""
        return (
            self.communities_required <= other.communities_required
            and self.communities_forbidden <= other.communities_forbidden
            and self.as_path_required <= other.as_path_required
            and self.as_path_forbidden <= other.as_path_forbidden
            and other.prefix.is_subset_of(self.prefix)
            and all(
                getattr(other, f).is_subset_of(getattr(self, f))
                for f in SCALAR_UNIVERSES
            )
        )

    # ----------------------------------------------------------- concrete

    def contains(self, route: BgpRoute) -> bool:
        if not self.prefix.contains(route.network):
            return False
        for pattern in self.communities_required:
            if not any(community_matches(pattern, c) for c in route.communities):
                return False
        for pattern in self.communities_forbidden:
            if any(community_matches(pattern, c) for c in route.communities):
                return False
        asns = route.asns()
        for pattern in self.as_path_required:
            if not as_path_matches(pattern, asns):
                return False
        for pattern in self.as_path_forbidden:
            if as_path_matches(pattern, asns):
                return False
        return (
            self.local_preference.contains(route.local_preference)
            and self.metric.contains(route.metric)
            and self.tag.contains(route.tag)
        )

    def witness(self) -> Optional[BgpRoute]:
        """A concrete route in this region, or None when empty.

        Prefers Batfish-style defaults (local preference 100, metric 0)
        when they satisfy the constraint, so differential examples look
        like the ones in the paper.
        """
        return _R_WITNESS.lookup(self, self._witness)

    def _witness(self) -> Optional[BgpRoute]:
        if self.obviously_empty():
            return None
        network = self.prefix.witness()
        communities = _community_witness(
            tuple(sorted(self.communities_required)),
            tuple(sorted(self.communities_forbidden)),
        )
        if communities is None:
            return None
        word = _as_path_word(
            tuple(sorted(self.as_path_required)),
            tuple(sorted(self.as_path_forbidden)),
        )
        if word is None:
            return None
        as_path = _word_to_as_path(
            word,
            tuple(sorted(self.as_path_required)),
            tuple(sorted(self.as_path_forbidden)),
        )

        def pick(field: str, preferred: int) -> int:
            values: IntervalSet = getattr(self, field)
            if values.contains(preferred):
                return preferred
            return values.min()

        return BgpRoute.build(
            network=str(network),
            as_path=as_path,
            communities=communities,
            local_preference=pick("local_preference", DEFAULT_LOCAL_PREFERENCE),
            metric=pick("metric", DEFAULT_METRIC),
            tag=pick("tag", 0),
        )

    def __str__(self) -> str:
        parts = []
        if not self.prefix.is_universe():
            parts.append(f"prefix in {self.prefix}")
        for name, value in (
            ("community", self.communities_required),
            ("!community", self.communities_forbidden),
            ("as-path", self.as_path_required),
            ("!as-path", self.as_path_forbidden),
        ):
            for pattern in sorted(value):
                parts.append(f"{name}~{pattern}")
        for field, universe in SCALAR_UNIVERSES.items():
            value = getattr(self, field)
            if value != universe:
                parts.append(f"{field} in {value}")
        return " & ".join(parts) if parts else "true"


def _word_to_as_path(
    word: str, required: Tuple[str, ...], forbidden: Tuple[str, ...]
) -> List[int]:
    """Turn an automaton witness word into a concrete AS path."""
    from repro.regexlib.cisco import parse_as_path_witness, render_as_path

    path = parse_as_path_witness(word)
    if path is None:
        raise AnalysisError(
            f"AS-path witness {word!r} cannot be read as an ASN sequence; "
            "patterns must constrain digits and delimiters only"
        )
    rendered = render_as_path(path)
    if not all(as_path_matches(p, path) for p in required) or any(
        as_path_matches(p, path) for p in forbidden
    ):
        raise AnalysisError(
            f"AS-path witness {rendered!r} does not satisfy "
            f"required={required} forbidden={forbidden}"
        )
    return path


# ------------------------------------------------------------------ spaces


def _dedupe(regions: Sequence[RouteRegion]) -> Tuple[RouteRegion, ...]:
    # Exact duplicates first: interning makes the membership test a hash
    # probe, and the subsumption loop below is quadratic in what is
    # left.  Dropping a duplicate is output-preserving because subsumes
    # is reflexive — the original loop always skipped later copies.
    seen = set()
    unique: List[RouteRegion] = []
    for region in regions:
        if region.obviously_empty():
            continue
        region = intern_route_region(region)
        if region in seen:
            continue
        seen.add(region)
        unique.append(region)
    kept: List[RouteRegion] = []
    for region in unique:
        if any(other.subsumes(region) for other in kept):
            continue
        kept = [other for other in kept if not region.subsumes(other)]
        kept.append(region)
    return tuple(kept)


@dataclasses.dataclass(frozen=True)
class RouteSpace:
    """A finite union of :class:`RouteRegion`."""

    regions: Tuple[RouteRegion, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", _dedupe(self.regions))

    @classmethod
    def empty(cls) -> "RouteSpace":
        return cls(())

    @classmethod
    def universe(cls) -> "RouteSpace":
        return cls((RouteRegion(),))

    @classmethod
    def of(cls, region: RouteRegion) -> "RouteSpace":
        return cls((region,))

    def union(self, other: "RouteSpace") -> "RouteSpace":
        return RouteSpace(self.regions + other.regions)

    def intersect(self, other: "RouteSpace") -> "RouteSpace":
        obs.count("routespace.intersections")
        out = [
            a.intersect(b) for a in self.regions for b in other.regions
        ]
        return RouteSpace(tuple(out))

    def complement(self) -> "RouteSpace":
        result = RouteSpace.universe()
        for region in self.regions:
            negated = RouteSpace(region.negation_regions())
            result = result.intersect(negated)
            if result.is_trivially_empty():
                break
        return result

    def subtract(self, other: "RouteSpace") -> "RouteSpace":
        """Region-wise difference with a disjointness fast path.

        Regions that do not intersect the subtrahend are kept untouched
        (the common case when stanza guards are disjoint), so first-match
        reachability stays small on wide route-maps.
        """
        obs.count("routespace.subtractions")
        remaining = list(self.regions)
        for taken in other.regions:
            carved: List[RouteRegion] = []
            for region in remaining:
                if regions_cheaply_disjoint(region, taken):
                    carved.append(region)
                    continue
                if region.intersect(taken).is_empty():
                    carved.append(region)
                    continue
                carved.extend(
                    region.intersect(negated)
                    for negated in taken.negation_regions()
                )
            remaining = [r for r in carved if not r.obviously_empty()]
            if not remaining:
                break
        return RouteSpace(tuple(remaining))

    def is_trivially_empty(self) -> bool:
        return not self.regions

    def is_empty(self) -> bool:
        return all(region.is_empty() for region in self.regions)

    def is_subset_of(self, other: "RouteSpace") -> bool:
        return self.subtract(other).is_empty()

    def contains(self, route: BgpRoute) -> bool:
        return any(region.contains(route) for region in self.regions)

    def witness(self) -> Optional[BgpRoute]:
        for region in self.regions:
            route = region.witness()
            if route is not None:
                return route
        return None

    def __len__(self) -> int:
        return len(self.regions)

    def __str__(self) -> str:
        if not self.regions:
            return "false"
        return " | ".join(f"({region})" for region in self.regions)


# ------------------------------------------------------- pattern spaces


#: One conjunction of a pattern space: (required, forbidden) patterns.
_Term = Tuple[Tuple[str, ...], Tuple[str, ...]]


def _merge(left: Tuple[str, ...], right: Tuple[str, ...]) -> Tuple[str, ...]:
    return left + tuple(pattern for pattern in right if pattern not in left)


@dataclasses.dataclass(frozen=True)
class PatternSpace:
    """A union of conjunctions over one regex-matched field (a DNF).

    A term ``(required, forbidden)`` holds the inputs that match every
    required pattern and no forbidden one.  Patterns keep the order in
    which entries list them, so the terms of a subtraction, and with them
    the witness a comparison finds first, follow the configuration and not
    hash order.  A subclass fixes the field through :meth:`term_witness`.
    """

    terms: Tuple[_Term, ...]

    @classmethod
    def universe(cls) -> "PatternSpace":
        return cls((((), ()),))

    @classmethod
    def requiring(cls, patterns: Sequence[str]) -> "PatternSpace":
        return cls(((tuple(dict.fromkeys(patterns)), ()),))

    def term_witness(
        self, required: Tuple[str, ...], forbidden: Tuple[str, ...]
    ) -> Optional[object]:
        """An input for one term (patterns sorted), or None when empty."""
        raise NotImplementedError

    def intersect(self, other: "PatternSpace") -> "PatternSpace":
        """The pairwise term products, without empty or repeated ones.

        A product that requires and forbids one pattern has no input, and
        one with the pattern sets of an earlier product has its witness
        (:meth:`witness` sorts the patterns), so neither can change what
        a search finds.  Kept, they would multiply the terms of every
        residual by each entry's pattern count.
        """
        terms: Dict[Tuple[FrozenSet[str], FrozenSet[str]], _Term] = {}
        for req_a, forb_a in self.terms:
            for req_b, forb_b in other.terms:
                required = _merge(req_a, req_b)
                forbidden = _merge(forb_a, forb_b)
                key = (frozenset(required), frozenset(forbidden))
                if key[0].isdisjoint(key[1]):
                    terms.setdefault(key, (required, forbidden))
        return type(self)(tuple(terms.values()))

    def complement(self) -> "PatternSpace":
        out = type(self).universe()
        for required, forbidden in self.terms:
            negation = tuple(((), (p,)) for p in required) + tuple(
                ((p,), ()) for p in forbidden
            )
            out = out.intersect(type(self)(negation))
        return out

    def subtract(self, other: "PatternSpace") -> "PatternSpace":
        return self.intersect(other.complement())

    @property
    def regions(self) -> Tuple["PatternSpace", ...]:
        """One single-term space per term."""
        return tuple(type(self)((term,)) for term in self.terms)

    def witness(self) -> Optional[object]:
        for required, forbidden in self.terms:
            found = self.term_witness(
                tuple(sorted(required)), tuple(sorted(forbidden))
            )
            if found is not None:
                return found
        return None

    def is_empty(self) -> bool:
        return self.witness() is None


class CommunitySpace(PatternSpace):
    """Community sets; a witness holds one community per required pattern."""

    def term_witness(
        self, required: Tuple[str, ...], forbidden: Tuple[str, ...]
    ) -> Optional[FrozenSet[str]]:
        found = _community_witness(required, forbidden)
        return frozenset(found) if found is not None else None


class AsPathSpace(PatternSpace):
    """AS paths; a witness is one ASN tuple."""

    def term_witness(
        self, required: Tuple[str, ...], forbidden: Tuple[str, ...]
    ) -> Optional[Tuple[int, ...]]:
        path = find_as_path(required, forbidden)
        return tuple(path) if path is not None else None


# ----------------------------------------------- guard translation (lists)


def prefix_entry_space(entry: PrefixListEntry) -> PrefixSpace:
    """The networks one prefix-list entry matches."""
    lo, hi = entry.length_bounds()
    return PrefixSpace.of_atom(PrefixAtom(entry.prefix, lo, hi))


def community_entry_space(entry: CommunityListEntry) -> CommunitySpace:
    """The community sets one community-list entry matches."""
    if entry.regex is not None:
        return CommunitySpace.requiring((entry.regex,))
    return CommunitySpace.requiring(
        [literal_community_pattern(c) for c in entry.communities]
    )


def as_path_entry_space(entry: AsPathEntry) -> AsPathSpace:
    """The AS paths one as-path access-list entry matches."""
    return AsPathSpace.requiring((entry.regex,))


def prefix_list_space(pl: PrefixList) -> PrefixSpace:
    """The set of networks a prefix-list permits (first match wins)."""
    remaining = PrefixSpace.universe()
    permitted = PrefixSpace.empty()
    for entry in pl.entries:
        atom_space = prefix_entry_space(entry)
        if entry.action == PERMIT:
            permitted = permitted.union(atom_space.intersect(remaining))
        remaining = remaining.subtract(atom_space)
        if remaining.is_empty():
            break
    return permitted


#: A DNF community/as-path condition: (required, forbidden) pattern pairs.
_Dnf = List[Tuple[FrozenSet[str], FrozenSet[str]]]


def _permitted_dnf(cells: List[Cell]) -> _Dnf:
    return [
        (frozenset(required), frozenset(forbidden))
        for entry, space in cells
        if entry is not None and entry.action == PERMIT
        for required, forbidden in space.terms
    ]


def community_list_dnf(cl: CommunityList) -> _Dnf:
    """DNF of "this community list permits the route"."""
    return _permitted_dnf(
        reachable_cells(cl.entries, community_entry_space, CommunitySpace.universe())
    )


def as_path_list_dnf(al: AsPathAccessList) -> _Dnf:
    """DNF of "this as-path access-list permits the route"."""
    return _permitted_dnf(
        reachable_cells(al.entries, as_path_entry_space, AsPathSpace.universe())
    )


# ---------------------------------------------- guard translation (clauses)


def clause_space(clause: MatchClause, store: ConfigStore) -> RouteSpace:
    """The set of routes a single match clause accepts."""
    if isinstance(clause, MatchPrefixList):
        space = PrefixSpace.empty()
        for name in clause.names:
            space = space.union(prefix_list_space(store.prefix_list(name)))
        return RouteSpace.of(RouteRegion(prefix=space))
    if isinstance(clause, MatchCommunity):
        regions = []
        for name in clause.names:
            for required, forbidden in community_list_dnf(
                store.community_list(name)
            ):
                regions.append(
                    RouteRegion(
                        communities_required=required,
                        communities_forbidden=forbidden,
                    )
                )
        return RouteSpace(tuple(regions))
    if isinstance(clause, MatchAsPath):
        regions = []
        for name in clause.names:
            for required, forbidden in as_path_list_dnf(
                store.as_path_list(name)
            ):
                regions.append(
                    RouteRegion(
                        as_path_required=required,
                        as_path_forbidden=forbidden,
                    )
                )
        return RouteSpace(tuple(regions))
    if isinstance(clause, MatchLocalPreference):
        return RouteSpace.of(
            RouteRegion(local_preference=IntervalSet.single(clause.value))
        )
    if isinstance(clause, MatchMetric):
        return RouteSpace.of(RouteRegion(metric=IntervalSet.single(clause.value)))
    if isinstance(clause, MatchTag):
        return RouteSpace.of(RouteRegion(tag=IntervalSet.single(clause.value)))
    raise TypeError(f"unknown match clause: {clause!r}")


def stanza_guard_space(stanza: RouteMapStanza, store: ConfigStore) -> RouteSpace:
    """The set of routes a stanza matches (clauses are conjunctive)."""
    obs.count("routespace.guards")
    space = RouteSpace.universe()
    for clause in stanza.matches:
        space = space.intersect(clause_space(clause, store))
        if space.is_trivially_empty():
            break
    return space


def route_map_reachable_spaces(
    route_map: RouteMap,
    store: ConfigStore,
    include_implicit_deny: bool = False,
) -> List[Tuple[Optional[RouteMapStanza], RouteSpace]]:
    """Per-stanza spaces of routes that *reach and match* each stanza.

    The returned spaces partition the route universe restricted to matched
    routes; with ``include_implicit_deny`` a final ``(None, space)`` entry
    holds the routes falling through to the implicit deny.
    """
    cells = reachable_cells(
        route_map.stanzas,
        lambda stanza: stanza_guard_space(stanza, store),
        RouteSpace.universe(),
    )
    return cells if include_implicit_deny else cells[:-1]


__all__ = [
    "AnalysisError",
    "AsPathSpace",
    "CommunitySpace",
    "PatternSpace",
    "RouteRegion",
    "RouteSpace",
    "as_path_entry_space",
    "as_path_list_dnf",
    "clause_space",
    "community_entry_space",
    "community_list_dnf",
    "intern_route_region",
    "prefix_entry_space",
    "prefix_list_space",
    "regions_cheaply_disjoint",
    "route_map_reachable_spaces",
    "spaces_cheaply_disjoint_matrix",
    "stanza_guard_space",
]
