"""Batch kernels over flattened ``IntervalSet`` encodings.

The region algebras spend their §3/§5 hot loops asking the same three
questions about *many* interval-set pairs at once: is the intersection
empty, is one set contained in the other, and what is the intersection
or difference.  Asked one pair at a time those questions pay per-call
Python overhead (memo-key hashing, ``Interval`` object churn) that
dwarfs the comparisons themselves.  This module batches them:

* :func:`encode` flattens a sequence of canonical
  :class:`~repro.netaddr.intervals.IntervalSet` values into a
  :class:`FlatSets` — contiguous sorted-endpoint ``array('I')`` (or
  ``array('q')`` when endpoints exceed 32 bits) arrays plus per-set
  offsets and bounding boxes;
* :func:`disjoint_matrix` / :func:`subset_matrix` answer the pairwise
  questions for whole cross products, deciding almost every cell from
  the bounding boxes and falling back to an exact two-pointer merge
  sweep over the flat arrays only for multi-interval sets whose boxes
  overlap;
* :func:`intersect_many` / :func:`subtract_many` compute element-wise
  set algebra without constructing intermediate ``Interval`` objects.

Every kernel is **exactly** equivalent to the corresponding
``IntervalSet`` operation — the differential suite in
``tests/perf/test_kernels.py`` pins that over randomized-but-seeded
populations, on both matrix paths.

The matrix kernels pick one of two paths per call from the matrix
shape.  When the short side, ``min(len(a), len(b))``, reaches
:data:`NUMPY_MIN_SIDE` and numpy imports, numpy vectorizes the
bounding-box passes; otherwise pure-stdlib loops run the same logic
with early exits.  Thin matrices, such as a few regions screened
against a long residual, are faster in the loops, because numpy's
fixed cost per call exceeds the work it replaces.  numpy is imported
by the first matrix that takes its path, so a process that builds none
never loads it.
"""

from __future__ import annotations

from array import array
from typing import Any, List, Optional, Sequence, Tuple

from repro.netaddr.intervals import EMPTY_SET, Interval, IntervalSet

#: A boolean matrix as rows of 0/1 bytes: ``matrix[i][j]``.
Matrix = List[bytearray]

#: The short side from which the numpy path runs.  Timed per call on
#: both paths over the matrices an overlap-audit pass asks for (2-vCPU
#: host), the loops win up to short side 12 and numpy from 13 on: 45
#: against 86 µs at 16, 57 against 133 µs at 17-24.  acl-edit's
#: matrices, short side 2-8, are all faster in the loops.
#: ``tools/profile_regions.py``, which times both paths at sides 8, 16
#: and 32, puts the crossover between 8 and 16; at 16 both agree.
NUMPY_MIN_SIDE = 16


def _numpy_for(a: FlatSets, b: FlatSets) -> Any:
    """numpy when the ``a`` x ``b`` matrix should take its path, else None."""
    if min(len(a), len(b)) < NUMPY_MIN_SIDE:
        return None
    try:
        import numpy
    except ImportError:
        return None
    return numpy


# ---------------------------------------------------------------- encoding


class FlatSets:
    """N interval sets as flat sorted-endpoint arrays.

    ``los[offsets[i]:offsets[i+1]]`` / ``his[...]`` are set *i*'s
    interval endpoints; ``box_lo[i]``/``box_hi[i]`` is its bounding box
    (``(1, 0)`` for the empty set, so the box itself reads as empty).
    The typecode is ``'I'`` when every endpoint fits an unsigned 32-bit
    word (addresses, ports, protocols — the practical universes) and
    ``'q'`` otherwise.
    """

    __slots__ = ("offsets", "los", "his", "box_lo", "box_hi", "_arrays")

    def __init__(
        self,
        offsets: "array[int]",
        los: "array[int]",
        his: "array[int]",
        box_lo: "array[int]",
        box_hi: "array[int]",
    ) -> None:
        self.offsets = offsets
        self.los = los
        self.his = his
        self.box_lo = box_lo
        self.box_hi = box_hi
        self._arrays: Optional[Tuple[Any, Any, Any]] = None

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def size(self, index: int) -> int:
        """Number of intervals in set ``index``."""
        return self.offsets[index + 1] - self.offsets[index]

    def decode(self, index: int) -> IntervalSet:
        """Set ``index`` back as a canonical :class:`IntervalSet`."""
        lo, hi = self.offsets[index], self.offsets[index + 1]
        return IntervalSet._from_canonical(
            tuple(
                Interval(self.los[k], self.his[k]) for k in range(lo, hi)
            )
        )

    def numpy_arrays(self, np: Any) -> Tuple[Any, Any, Any]:
        """``(box_lo, box_hi, sizes)`` as numpy arrays, built once."""
        if self._arrays is None:
            box_lo = np.frombuffer(self.box_lo, dtype=np.int64)
            box_hi = np.frombuffer(self.box_hi, dtype=np.int64)
            offsets = np.frombuffer(self.offsets, dtype=np.uint32).astype(
                np.int64
            )
            self._arrays = (box_lo, box_hi, offsets[1:] - offsets[:-1])
        return self._arrays


def encode(sets: Sequence[IntervalSet]) -> FlatSets:
    """Flatten canonical interval sets into a :class:`FlatSets`."""
    offsets = array("I", [0])
    los: List[int] = []
    his: List[int] = []
    box_lo = array("q")
    box_hi = array("q")
    total = 0
    unsigned = True
    for value in sets:
        intervals = value.intervals
        total += len(intervals)
        offsets.append(total)
        for iv in intervals:
            los.append(iv.lo)
            his.append(iv.hi)
            if iv.lo < 0 or iv.hi > 0xFFFFFFFF:
                unsigned = False
        if intervals:
            box_lo.append(intervals[0].lo)
            box_hi.append(intervals[-1].hi)
        else:
            box_lo.append(1)
            box_hi.append(0)
    code = "I" if unsigned else "q"
    return FlatSets(offsets, array(code, los), array(code, his), box_lo, box_hi)


# ------------------------------------------------------- pairwise sweeps


def _pair_disjoint(a: FlatSets, i: int, b: FlatSets, j: int) -> bool:
    """Exact ``a[i].intersect(b[j]).is_empty()`` over the flat arrays."""
    ka, ea = a.offsets[i], a.offsets[i + 1]
    kb, eb = b.offsets[j], b.offsets[j + 1]
    alos, ahis, blos, bhis = a.los, a.his, b.los, b.his
    while ka < ea and kb < eb:
        if ahis[ka] < blos[kb]:
            ka += 1
        elif bhis[kb] < alos[ka]:
            kb += 1
        else:
            return False
    return True


def _pair_subset(a: FlatSets, i: int, b: FlatSets, j: int) -> bool:
    """Exact ``a[i].is_subset_of(b[j])`` over the flat arrays.

    Canonical sets are disjoint and non-adjacent, so an interval of
    ``a[i]`` is covered iff a *single* interval of ``b[j]`` contains it.
    """
    ka, ea = a.offsets[i], a.offsets[i + 1]
    kb, eb = b.offsets[j], b.offsets[j + 1]
    alos, ahis, blos, bhis = a.los, a.his, b.los, b.his
    while ka < ea:
        lo, hi = alos[ka], ahis[ka]
        while kb < eb and bhis[kb] < lo:
            kb += 1
        if kb >= eb or blos[kb] > lo or bhis[kb] < hi:
            return False
        ka += 1
    return True


def _pair_intersect(
    a: FlatSets, i: int, b: FlatSets, j: int
) -> Tuple[Interval, ...]:
    """Canonical intervals of ``a[i] & b[j]`` via one merge sweep."""
    ka, ea = a.offsets[i], a.offsets[i + 1]
    kb, eb = b.offsets[j], b.offsets[j + 1]
    alos, ahis, blos, bhis = a.los, a.his, b.los, b.his
    out: List[Interval] = []
    while ka < ea and kb < eb:
        lo = max(alos[ka], blos[kb])
        hi = min(ahis[ka], bhis[kb])
        if lo <= hi:
            out.append(Interval(lo, hi))
        if ahis[ka] < bhis[kb]:
            ka += 1
        else:
            kb += 1
    return tuple(out)


def _pair_subtract(
    a: FlatSets, i: int, b: FlatSets, j: int
) -> Tuple[Interval, ...]:
    """Canonical intervals of ``a[i] - b[j]`` via one merge sweep."""
    ka, ea = a.offsets[i], a.offsets[i + 1]
    kb, eb = b.offsets[j], b.offsets[j + 1]
    alos, ahis, blos, bhis = a.los, a.his, b.los, b.his
    out: List[Interval] = []
    while ka < ea:
        cursor = alos[ka]
        hi = ahis[ka]
        while kb < eb and bhis[kb] < cursor:
            kb += 1
        kj = kb
        while kj < eb and blos[kj] <= hi:
            if blos[kj] > cursor:
                out.append(Interval(cursor, blos[kj] - 1))
            cursor = max(cursor, bhis[kj] + 1)
            if cursor > hi:
                break
            kj += 1
        if cursor <= hi:
            out.append(Interval(cursor, hi))
        ka += 1
    return tuple(out)


# ------------------------------------------------------------ the kernels


def disjoint_matrix(a: FlatSets, b: FlatSets) -> Matrix:
    """Exact pairwise emptiness: ``out[i][j] == a[i].intersect(b[j]).is_empty()``.

    Bounding boxes decide disjointness soundly; box-overlapping pairs of
    *single-interval* sets are definitely not disjoint (closed intervals
    intersect iff their boxes do); only multi-interval pairs with
    overlapping boxes run the per-pair merge sweep.
    """
    np = _numpy_for(a, b)
    if np is None:
        return _disjoint_matrix_py(a, b)
    return _disjoint_matrix_np(np, a, b)


def _disjoint_matrix_py(a: FlatSets, b: FlatSets) -> Matrix:
    n_b = len(b)
    out: Matrix = []
    for i in range(len(a)):
        row = bytearray(n_b)
        a_size = a.size(i)
        if a_size == 0:
            for j in range(n_b):
                row[j] = 1
            out.append(row)
            continue
        a_lo, a_hi = a.box_lo[i], a.box_hi[i]
        for j in range(n_b):
            b_size = b.size(j)
            if b_size == 0 or a_hi < b.box_lo[j] or b.box_hi[j] < a_lo:
                row[j] = 1
            elif a_size == 1 and b_size == 1:
                row[j] = 0
            else:
                row[j] = 1 if _pair_disjoint(a, i, b, j) else 0
        out.append(row)
    return out


def _disjoint_matrix_np(np: Any, a: FlatSets, b: FlatSets) -> Matrix:
    a_lo, a_hi, a_sizes = a.numpy_arrays(np)
    b_lo, b_hi, b_sizes = b.numpy_arrays(np)
    box_disjoint = (a_hi[:, None] < b_lo[None, :]) | (
        b_hi[None, :] < a_lo[:, None]
    )
    empty = (a_sizes[:, None] == 0) | (b_sizes[None, :] == 0)
    disjoint = box_disjoint | empty
    both_single = (a_sizes[:, None] == 1) & (b_sizes[None, :] == 1)
    undecided = ~disjoint & ~both_single
    result = disjoint.astype(np.uint8)
    for i, j in np.argwhere(undecided):
        if _pair_disjoint(a, int(i), b, int(j)):
            result[i, j] = 1
    return [bytearray(result[i].tobytes()) for i in range(len(a))]


def subset_matrix(a: FlatSets, b: FlatSets) -> Matrix:
    """Exact pairwise containment: ``out[i][j] == a[i].is_subset_of(b[j])``.

    The empty set is a subset of everything; a nonempty set whose box
    pokes outside the target's box is not contained; a box inside a
    *single-interval* target is definitely contained; the rest run the
    per-pair merge sweep.
    """
    np = _numpy_for(a, b)
    if np is None:
        return _subset_matrix_py(a, b)
    return _subset_matrix_np(np, a, b)


def _subset_matrix_py(a: FlatSets, b: FlatSets) -> Matrix:
    n_b = len(b)
    out: Matrix = []
    for i in range(len(a)):
        row = bytearray(n_b)
        a_size = a.size(i)
        if a_size == 0:
            for j in range(n_b):
                row[j] = 1
            out.append(row)
            continue
        a_lo, a_hi = a.box_lo[i], a.box_hi[i]
        for j in range(n_b):
            b_size = b.size(j)
            if b_size == 0 or a_lo < b.box_lo[j] or a_hi > b.box_hi[j]:
                row[j] = 0
            elif b_size == 1:
                row[j] = 1
            else:
                row[j] = 1 if _pair_subset(a, i, b, j) else 0
        out.append(row)
    return out


def _subset_matrix_np(np: Any, a: FlatSets, b: FlatSets) -> Matrix:
    a_lo, a_hi, a_sizes = a.numpy_arrays(np)
    b_lo, b_hi, b_sizes = b.numpy_arrays(np)
    a_empty = a_sizes[:, None] == 0
    box_inside = (
        (a_lo[:, None] >= b_lo[None, :])
        & (a_hi[:, None] <= b_hi[None, :])
        & ~a_empty
        & (b_sizes[None, :] > 0)
    )
    decided_yes = a_empty | (box_inside & (b_sizes[None, :] == 1))
    undecided = box_inside & (b_sizes[None, :] > 1)
    result = decided_yes.astype(np.uint8)
    for i, j in np.argwhere(undecided):
        if _pair_subset(a, int(i), b, int(j)):
            result[i, j] = 1
    return [bytearray(result[i].tobytes()) for i in range(len(a))]


def contains_vector(sets: FlatSets, value: int) -> List[bool]:
    """Exact per-set membership: ``out[i] == sets[i].contains(value)``."""
    out: List[bool] = []
    los, his = sets.los, sets.his
    for i in range(len(sets)):
        lo, hi = sets.offsets[i], sets.offsets[i + 1] - 1
        found = False
        while lo <= hi:
            mid = (lo + hi) // 2
            if value < los[mid]:
                hi = mid - 1
            elif value > his[mid]:
                lo = mid + 1
            else:
                found = True
                break
        out.append(found)
    return out


def intersect_many(a: FlatSets, b: FlatSets) -> List[IntervalSet]:
    """Element-wise ``a[i].intersect(b[i])`` (lengths must match)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    skip = _box_disjoint_vector(a, b)
    out: List[IntervalSet] = []
    for i in range(len(a)):
        if skip[i]:
            out.append(EMPTY_SET)
        else:
            out.append(
                IntervalSet._from_canonical(_pair_intersect(a, i, b, i))
            )
    return out


def subtract_many(a: FlatSets, b: FlatSets) -> List[IntervalSet]:
    """Element-wise ``a[i].subtract(b[i])`` (lengths must match)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    skip = _box_disjoint_vector(a, b)
    out: List[IntervalSet] = []
    for i in range(len(a)):
        if skip[i]:
            # Disjoint operands: the difference is a[i] unchanged.
            out.append(a.decode(i))
        else:
            out.append(
                IntervalSet._from_canonical(_pair_subtract(a, i, b, i))
            )
    return out


def _box_disjoint_vector(a: FlatSets, b: FlatSets) -> List[bool]:
    """Element-wise sound disjointness from the bounding boxes alone."""
    return [
        a.size(i) == 0
        or b.size(i) == 0
        or a.box_hi[i] < b.box_lo[i]
        or b.box_hi[i] < a.box_lo[i]
        for i in range(len(a))
    ]


__all__ = [
    "NUMPY_MIN_SIDE",
    "FlatSets",
    "Matrix",
    "contains_vector",
    "disjoint_matrix",
    "encode",
    "intersect_many",
    "subset_matrix",
    "subtract_many",
]
