"""Differential tests for the batch interval kernels.

Every kernel in :mod:`repro.perf.kernels` claims *exact* equivalence
with the corresponding :class:`~repro.netaddr.intervals.IntervalSet`
operation.  This suite pins that claim over randomized-but-seeded
populations laced with the adversarial edges (empty sets, adjacent
intervals, single points, full-range sets), on matrices whose short
side falls below, at and above :data:`~repro.perf.kernels.NUMPY_MIN_SIDE`,
and on both paths: once with numpy importable (when it is installed)
and once with its import blocked, which leaves only the pure-stdlib
loops.
"""

import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.netaddr.intervals import EMPTY_SET, IntervalSet
from repro.perf import kernels
from repro.perf.kernels import NUMPY_MIN_SIDE

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Universe the random populations draw from; small enough that random
#: sets collide, overlap, and contain each other often.
UNIVERSE_HI = 200

#: Hand-picked sets hitting the edges random draws may miss.
EDGE_SETS = [
    EMPTY_SET,
    IntervalSet.single(0),
    IntervalSet.single(UNIVERSE_HI),
    IntervalSet.closed(0, UNIVERSE_HI),  # full range
    IntervalSet.from_pairs([(0, 9), (10, 19)]),  # adjacent: coalesces
    IntervalSet.from_pairs([(0, 9), (11, 19)]),  # one-apart gap
    IntervalSet.from_pairs([(5, 5), (7, 7), (9, 9)]),  # point cloud
    IntervalSet.from_pairs([(0, 99), (150, UNIVERSE_HI)]),
]


def random_sets(seed, count=40):
    """Seeded random interval sets, edge cases prepended."""
    rng = random.Random(seed)
    out = list(EDGE_SETS)
    while len(out) < count + len(EDGE_SETS):
        pairs = []
        for _ in range(rng.randint(0, 4)):
            lo = rng.randint(0, UNIVERSE_HI)
            hi = min(UNIVERSE_HI, lo + rng.randint(0, 40))
            pairs.append((lo, hi))
        out.append(IntervalSet.from_pairs(pairs))
    return out


#: ``(rows, columns)`` of the matrices under test: thin and square, with
#: the short side below, at and above the numpy threshold.
SHAPES = [
    (2, 48),
    (48, 2),
    (NUMPY_MIN_SIDE - 1, NUMPY_MIN_SIDE - 1),
    (NUMPY_MIN_SIDE, 48),
    (NUMPY_MIN_SIDE, NUMPY_MIN_SIDE),
    (48, 48),
]


def shaped_populations(seed):
    """``(a, b)`` drawn from two seeded populations, one pair per shape."""
    rng = random.Random(seed)
    rows, columns = random_sets(seed), random_sets(seed + 100)
    return [
        (rng.sample(rows, n_rows), rng.sample(columns, n_columns))
        for n_rows, n_columns in SHAPES
    ]


@pytest.fixture(params=["numpy", "py"])
def backend(request, monkeypatch):
    """``numpy``: as installed; ``py``: numpy's import blocked."""
    if request.param == "py":
        monkeypatch.setitem(sys.modules, "numpy", None)
    return request.param


class TestEncoding:
    def test_decode_roundtrips(self, backend):
        sets = random_sets(1)
        flat = kernels.encode(sets)
        assert len(flat) == len(sets)
        for i, value in enumerate(sets):
            assert flat.decode(i) == value
            assert flat.size(i) == len(value.intervals)

    def test_wide_endpoints_widen_the_typecode(self):
        narrow = kernels.encode([IntervalSet.closed(0, 0xFFFFFFFF)])
        wide = kernels.encode([IntervalSet.closed(0, 0x1_0000_0000)])
        assert narrow.los.typecode == "I"
        assert wide.los.typecode == "q"
        assert wide.decode(0) == IntervalSet.closed(0, 0x1_0000_0000)

    def test_empty_set_box_is_empty(self):
        flat = kernels.encode([EMPTY_SET])
        assert flat.box_lo[0] > flat.box_hi[0]


class TestMatrices:
    def test_disjoint_matrix_matches_intersect(self, backend):
        for a, b in shaped_populations(2):
            matrix = kernels.disjoint_matrix(kernels.encode(a), kernels.encode(b))
            for i, va in enumerate(a):
                for j, vb in enumerate(b):
                    expected = va.intersect(vb).is_empty()
                    assert bool(matrix[i][j]) == expected, (len(a), len(b), i, j)

    def test_subset_matrix_matches_is_subset_of(self, backend):
        for a, b in shaped_populations(4):
            matrix = kernels.subset_matrix(kernels.encode(a), kernels.encode(b))
            for i, va in enumerate(a):
                for j, vb in enumerate(b):
                    expected = va.is_subset_of(vb)
                    assert bool(matrix[i][j]) == expected, (len(a), len(b), i, j)

    def test_self_products(self, backend):
        # The overlap hot path runs a set against itself.
        for sets, _ in shaped_populations(6):
            flat = kernels.encode(sets)
            disjoint = kernels.disjoint_matrix(flat, flat)
            subset = kernels.subset_matrix(flat, flat)
            for i, value in enumerate(sets):
                assert bool(disjoint[i][i]) == value.is_empty()
                assert subset[i][i] == 1  # every set contains itself


class TestElementwise:
    def test_intersect_many_matches(self, backend):
        a = random_sets(7)
        b = list(reversed(random_sets(8, count=len(a) - len(EDGE_SETS))))
        flat_a, flat_b = kernels.encode(a), kernels.encode(b)
        result = kernels.intersect_many(flat_a, flat_b)
        assert result == [va.intersect(vb) for va, vb in zip(a, b)]

    def test_subtract_many_matches(self, backend):
        a = random_sets(9)
        b = list(reversed(random_sets(10, count=len(a) - len(EDGE_SETS))))
        flat_a, flat_b = kernels.encode(a), kernels.encode(b)
        result = kernels.subtract_many(flat_a, flat_b)
        assert result == [va.subtract(vb) for va, vb in zip(a, b)]

    def test_length_mismatch_rejected(self, backend):
        two = kernels.encode([EMPTY_SET, EMPTY_SET])
        one = kernels.encode([EMPTY_SET])
        with pytest.raises(ValueError, match="length mismatch"):
            kernels.intersect_many(two, one)
        with pytest.raises(ValueError, match="length mismatch"):
            kernels.subtract_many(two, one)

    def test_contains_vector_matches(self, backend):
        sets = random_sets(11)
        flat = kernels.encode(sets)
        for value in (0, 5, 10, 100, UNIVERSE_HI):
            got = kernels.contains_vector(flat, value)
            assert got == [s.contains(value) for s in sets], value


class TestBackendSelection:
    def test_short_side_picks_the_path(self, backend):
        pick = kernels._numpy_for  # None selects the loops
        thin = kernels.encode(random_sets(12)[: NUMPY_MIN_SIDE - 1])
        square = kernels.encode(random_sets(13)[:NUMPY_MIN_SIDE])
        assert pick(thin, square) is None
        assert pick(square, thin) is None
        if backend == "py":
            assert pick(square, square) is None
        else:
            pytest.importorskip("numpy")
            assert pick(square, square) is not None

    def test_backends_agree_on_matrices(self):
        numpy = pytest.importorskip("numpy")
        sets = random_sets(12)
        assert len(sets) > NUMPY_MIN_SIDE
        flat = kernels.encode(sets)
        assert kernels._disjoint_matrix_py(flat, flat) == kernels._disjoint_matrix_np(
            numpy, flat, flat
        )
        assert kernels._subset_matrix_py(flat, flat) == kernels._subset_matrix_np(
            numpy, flat, flat
        )

    def test_thin_matrices_leave_numpy_unloaded(self):
        # One edit's rules against an ACL's: a fresh interpreter that
        # imports the serving stack and asks for such a matrix never
        # loads numpy.
        script = (
            "import sys\n"
            "import repro.serve\n"
            "from repro.netaddr.intervals import IntervalSet\n"
            "from repro.perf import kernels\n"
            "acl = kernels.encode([IntervalSet.closed(i, i + 3) for i in range(200)])\n"
            "edit = kernels.encode([IntervalSet.closed(i, i + 3) for i in range(2)])\n"
            "kernels.disjoint_matrix(acl, edit)\n"
            "print('numpy' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"
