"""Closed integer intervals and canonical unions of them.

:class:`IntervalSet` is the symbolic domain for every scalar field in the
analysis engine: TCP/UDP ports, IP protocol numbers, BGP local preference,
MED, tag, weight, and (as 32-bit integers) address ranges.  It supports the
operations the route-space and header-space algebras need: intersection,
union, complement within a bounded universe, emptiness, and picking a
concrete witness value.

The representation is canonical (sorted, disjoint, non-adjacent intervals),
so structural equality coincides with set equality — a property the tests
and hypothesis properties rely on.

Interval sets are additionally **hash-consed** through the
:mod:`repro.perf.cache` layer: results of the algebra are interned so
structurally equal sets collapse to one object (equality then hits the
identity fast path), hashes are computed once per object, and the binary
operations ``intersect``/``complement`` (and ``subtract``, which is a
complement) are memoized in bounded, oldest-first tables.  The §3
overlap study performs hundreds of thousands of these operations over a
small universe of distinct sets, so the memo hit rate is high; see
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.perf import cache as _perf


@dataclasses.dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[lo, hi]`` over the integers; empty if lo > hi."""

    lo: int
    hi: int

    def is_empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def __str__(self) -> str:
        if self.is_empty():
            return "[]"
        if self.lo == self.hi:
            return f"[{self.lo}]"
        return f"[{self.lo}, {self.hi}]"


def _normalise(intervals: Iterable[Interval]) -> Tuple[Interval, ...]:
    """Sort, drop empties, and merge overlapping/adjacent intervals."""
    pending = sorted(iv for iv in intervals if not iv.is_empty())
    merged: List[Interval] = []
    for iv in pending:
        if merged and iv.lo <= merged[-1].hi + 1:
            last = merged[-1]
            if iv.hi > last.hi:
                merged[-1] = Interval(last.lo, iv.hi)
        else:
            merged.append(iv)
    return tuple(merged)


#: Hash-cons table for canonical sets (each set is its own result) and
#: memos for the binary operations (see module docstring; stats surface
#: as ``cache.*``).
_SETS = _perf.Memo("intervals.sets", max_size=1 << 17)
_INTERSECT_MEMO = _perf.Memo("intervals.intersect")
_COMPLEMENT_MEMO = _perf.Memo("intervals.complement")


def _perf_intern(value: "IntervalSet") -> "IntervalSet":
    return _SETS.lookup(value, lambda: value)


@dataclasses.dataclass(frozen=True)
class IntervalSet:
    """A canonical, immutable union of closed integer intervals."""

    intervals: Tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", _normalise(self.intervals))

    # Equality is structural with an identity fast path (interned sets
    # are shared, so ``is`` usually decides), and the hash is computed
    # once per object — these two together make memo-table keys cheap.

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is IntervalSet:
            return self.intervals == other.intervals
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            value = hash(self.intervals)
            object.__setattr__(self, "_hash", value)
            return value

    @classmethod
    def _from_canonical(cls, intervals: Tuple[Interval, ...]) -> "IntervalSet":
        """Build from intervals already sorted, disjoint, non-adjacent.

        Internal constructor for the algebra below, whose outputs are
        canonical by construction — skipping ``_normalise`` avoids a
        sort per operation in the hottest loops.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "intervals", intervals)
        return _perf_intern(out)

    # ---------------------------------------------------------------- build

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def single(cls, value: int) -> "IntervalSet":
        return cls((Interval(value, value),))

    @classmethod
    def closed(cls, lo: int, hi: int) -> "IntervalSet":
        return cls((Interval(lo, hi),))

    @classmethod
    def of(cls, *values: int) -> "IntervalSet":
        return cls(tuple(Interval(v, v) for v in values))

    @classmethod
    def from_pairs(cls, pairs: Sequence[Tuple[int, int]]) -> "IntervalSet":
        return cls(tuple(Interval(lo, hi) for lo, hi in pairs))

    # ---------------------------------------------------------------- query

    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, value: int) -> bool:
        # Intervals are sorted; binary search keeps large sets fast.
        lo, hi = 0, len(self.intervals) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            iv = self.intervals[mid]
            if value < iv.lo:
                hi = mid - 1
            elif value > iv.hi:
                lo = mid + 1
            else:
                return True
        return False

    def min(self) -> int:
        if self.is_empty():
            raise ValueError("empty interval set has no minimum")
        return self.intervals[0].lo

    def max(self) -> int:
        if self.is_empty():
            raise ValueError("empty interval set has no maximum")
        return self.intervals[-1].hi

    def size(self) -> int:
        """Number of integers in the set."""
        return sum(iv.hi - iv.lo + 1 for iv in self.intervals)

    def witness(self) -> Optional[int]:
        """An arbitrary member, or None if empty."""
        if self.is_empty():
            return None
        return self.intervals[0].lo

    def __iter__(self) -> Iterator[int]:
        for iv in self.intervals:
            yield from range(iv.lo, iv.hi + 1)

    def __bool__(self) -> bool:
        return not self.is_empty()

    # ------------------------------------------------------------- algebra

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        if self is other:
            return self
        a, b = self.intervals, other.intervals
        # Disjoint bounding boxes (or an empty operand) need no work —
        # this is the "cannot overlap" pre-check the reachability and
        # overlap engines rely on to skip untouched regions.
        if not a or not b or a[-1].hi < b[0].lo or b[-1].hi < a[0].lo:
            return EMPTY_SET
        return _INTERSECT_MEMO.lookup((self, other), lambda: self._intersect(other))

    def _intersect(self, other: "IntervalSet") -> "IntervalSet":
        result: List[Interval] = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            overlap = a[i].intersect(b[j])
            if not overlap.is_empty():
                result.append(overlap)
            if a[i].hi < b[j].hi:
                i += 1
            else:
                j += 1
        # Intersecting two canonical sets yields a canonical one: pieces
        # stay sorted and inherit a >=2 gap from whichever operand
        # separated them.
        return IntervalSet._from_canonical(tuple(result))

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if self is other or other.is_empty():
            return self
        if self.is_empty():
            return other
        return IntervalSet(self.intervals + other.intervals)

    def complement(self, universe: "IntervalSet") -> "IntervalSet":
        """The members of ``universe`` not in this set."""
        if self.is_empty():
            return universe
        return _COMPLEMENT_MEMO.lookup(
            (self, universe), lambda: self._complement(universe)
        )

    def _complement(self, universe: "IntervalSet") -> "IntervalSet":
        gaps: List[Interval] = []
        for uiv in universe.intervals:
            cursor = uiv.lo
            for iv in self.intervals:
                if iv.hi < cursor:
                    continue
                if iv.lo > uiv.hi:
                    break
                if iv.lo > cursor:
                    gaps.append(Interval(cursor, iv.lo - 1))
                cursor = max(cursor, iv.hi + 1)
                if cursor > uiv.hi:
                    break
            if cursor <= uiv.hi:
                gaps.append(Interval(cursor, uiv.hi))
        # Gaps of a canonical set within a canonical universe are again
        # sorted, disjoint, and separated by the intervals they skirt.
        return IntervalSet._from_canonical(tuple(gaps))

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        if self is other or self.is_empty():
            return EMPTY_SET
        if other.is_empty():
            return self
        return other.complement(self)

    def is_subset_of(self, other: "IntervalSet") -> bool:
        if self is other or self.is_empty():
            return True
        if other.is_empty():
            return False
        # Necessary bounding-box condition decides most negatives cheaply.
        if self.intervals[0].lo < other.intervals[0].lo:
            return False
        if self.intervals[-1].hi > other.intervals[-1].hi:
            return False
        return self.subtract(other).is_empty()

    def __str__(self) -> str:
        if self.is_empty():
            return "{}"
        return " u ".join(str(iv) for iv in self.intervals)


#: The canonical empty set, shared by every fast path above.
EMPTY_SET = IntervalSet(())
