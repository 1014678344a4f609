#!/usr/bin/env python3
"""Microbenchmark the batch interval kernels against per-pair baselines.

Times both matrix paths of :mod:`repro.perf.kernels`, the pure-stdlib
loops (``_disjoint_matrix_py``, ``_subset_matrix_py``) and, when numpy
imports, the numpy path (``_disjoint_matrix_np``, ``_subset_matrix_np``),
on square populations of side 8, 16, 32 and ``--sets``.  Each timed call
encodes its population first, as the hot paths do per matrix, so the
``sides`` rows show the crossover that ``kernels.NUMPY_MIN_SIDE``
encodes.  At ``--sets`` the block also times the public kernels
against the equivalent per-pair ``IntervalSet`` loops run under
``perf.disabled()`` (so the baseline pays the real per-call algebra,
not a memo lookup).  The equivalence of every output is asserted as
the benchmark runs — a kernel that drifted from the algebra fails here
before it misleads anyone with a fast wrong answer.

The resulting ``kernels`` block is merged into
``benchmarks/BENCH_perf.json`` (atomic replace, other keys preserved).

Usage::

    PYTHONPATH=src python tools/profile_regions.py [--sets N]
        [--repeat R] [--seed S] [--output PATH] [--dry-run]
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Sequence

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from repro import perf  # noqa: E402
from repro.netaddr.intervals import IntervalSet  # noqa: E402
from repro.perf import kernels  # noqa: E402

#: Square matrix sides timed on both paths, besides ``--sets``.
SIDES = (8, 16, 32)

#: Calls per timed sample are scaled so each sample covers about this
#: many matrix cells, which keeps the small sides above timer noise.
CELLS_PER_SAMPLE = 4096

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "BENCH_perf.json",
)


def build_population(seed: int, count: int) -> List[IntervalSet]:
    """Seeded interval sets shaped like ACL rule address fields.

    Nine in ten are one prefix block inside 10.0.0.0/8, one interval
    each, as ``acl_rule_region`` yields from a prefix or a port range;
    the rest are a block with a sub-block carved out, as residual
    regions carry.  The first set is empty.
    """
    rng = random.Random(seed)
    sets: List[IntervalSet] = [IntervalSet.empty()]
    while len(sets) < count:
        length = rng.randint(8, 30)
        size = 1 << (32 - length)
        lo = (10 << 24) + rng.randrange(0, 1 << 24, min(size, 1 << 24))
        block = IntervalSet.closed(lo, lo + size - 1)
        if rng.random() < 0.9:
            sets.append(block)
        else:
            hole = max(1, size >> rng.randint(1, 4))
            start = lo + rng.randrange(0, size, hole)
            sets.append(block.subtract(IntervalSet.closed(start, start + hole - 1)))
    return sets


def best_of(repeat: int, fn: Callable[[], Any], number: int = 1) -> float:
    """The fastest of ``repeat`` samples of ``number`` calls, per call (s)."""
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - started) / number)
    return best


def baseline_results(sets: Sequence[IntervalSet]) -> Dict[str, Any]:
    """The per-pair loop answers, for equivalence checks."""
    n = len(sets)
    half = n // 2
    return {
        "disjoint": [
            [int(sets[i].intersect(sets[j]).is_empty()) for j in range(n)]
            for i in range(n)
        ],
        "subset": [
            [int(sets[i].is_subset_of(sets[j])) for j in range(n)]
            for i in range(n)
        ],
        "intersect": [
            sets[i].intersect(sets[i + half]) for i in range(half)
        ],
        "subtract": [
            sets[i].subtract(sets[i + half]) for i in range(half)
        ],
    }


def time_baselines(sets: Sequence[IntervalSet], repeat: int) -> Dict[str, float]:
    """Per-pair ``IntervalSet`` loop timings with the cache layer off."""
    n = len(sets)
    half = n // 2
    with perf.disabled():
        return {
            "disjoint_matrix_s": best_of(
                repeat,
                lambda: [
                    sets[i].intersect(sets[j]).is_empty()
                    for i in range(n)
                    for j in range(n)
                ],
            ),
            "subset_matrix_s": best_of(
                repeat,
                lambda: [
                    sets[i].is_subset_of(sets[j])
                    for i in range(n)
                    for j in range(n)
                ],
            ),
            "intersect_many_s": best_of(
                repeat,
                lambda: [
                    sets[i].intersect(sets[i + half]) for i in range(half)
                ],
            ),
            "subtract_many_s": best_of(
                repeat,
                lambda: [
                    sets[i].subtract(sets[i + half]) for i in range(half)
                ],
            ),
        }


def matrix_paths() -> Dict[str, Dict[str, Callable[..., kernels.Matrix]]]:
    """Both implementations of each matrix kernel this process can run."""
    paths: Dict[str, Dict[str, Callable[..., kernels.Matrix]]] = {
        "py": {
            "disjoint": kernels._disjoint_matrix_py,
            "subset": kernels._subset_matrix_py,
        }
    }
    try:
        import numpy
    except ImportError:
        return paths
    paths["numpy"] = {
        "disjoint": functools.partial(kernels._disjoint_matrix_np, numpy),
        "subset": functools.partial(kernels._subset_matrix_np, numpy),
    }
    return paths


def square(
    matrix: Callable[..., kernels.Matrix], sets: Sequence[IntervalSet]
) -> kernels.Matrix:
    """``matrix`` of ``sets`` against themselves, freshly encoded."""
    flat = kernels.encode(sets)
    return matrix(flat, flat)


def time_sides(
    sets: Sequence[IntervalSet], repeat: int, expected: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Per-call matrix timings on every path for each square side."""
    rows: List[Dict[str, Any]] = []
    sides = sorted({side for side in SIDES if side < len(sets)} | {len(sets)})
    for side in sides:
        head = sets[:side]
        number = max(1, CELLS_PER_SAMPLE // (side * side))
        row: Dict[str, Any] = {"side": side}
        for path, matrices in matrix_paths().items():
            timings: Dict[str, float] = {}
            for name, matrix in matrices.items():
                want = [values[:side] for values in expected[name][:side]]
                got = [list(values) for values in square(matrix, head)]
                assert got == want, (path, name, side)
                timings[f"{name}_matrix_s"] = best_of(
                    repeat, functools.partial(square, matrix, head), number
                )
            row[path] = timings
        rows.append(row)
    return rows


def time_kernels(
    sets: Sequence[IntervalSet],
    repeat: int,
    expected: Dict[str, Any],
) -> Dict[str, float]:
    """The public kernels' timings; asserts exact equivalence."""
    half = len(sets) // 2
    flat = kernels.encode(sets)
    front = kernels.encode(sets[:half])
    back = kernels.encode(sets[half : half * 2])

    disjoint = kernels.disjoint_matrix(flat, flat)
    subset = kernels.subset_matrix(flat, flat)
    assert [list(row) for row in disjoint] == expected["disjoint"]
    assert [list(row) for row in subset] == expected["subset"]
    intersected = kernels.intersect_many(front, back)
    subtracted = kernels.subtract_many(front, back)
    assert intersected == expected["intersect"], "intersect_many diverged"
    assert subtracted == expected["subtract"], "subtract_many diverged"

    return {
        "encode_s": best_of(repeat, lambda: kernels.encode(sets)),
        "disjoint_matrix_s": best_of(
            repeat, lambda: kernels.disjoint_matrix(flat, flat)
        ),
        "subset_matrix_s": best_of(
            repeat, lambda: kernels.subset_matrix(flat, flat)
        ),
        "intersect_many_s": best_of(
            repeat, lambda: kernels.intersect_many(front, back)
        ),
        "subtract_many_s": best_of(
            repeat, lambda: kernels.subtract_many(front, back)
        ),
    }


def profile(seed: int, count: int, repeat: int) -> Dict[str, Any]:
    """The full ``kernels`` block: population, baselines, paths by side."""
    sets = build_population(seed, count)
    with perf.disabled():
        expected = baseline_results(sets)
    baselines = time_baselines(sets, repeat)
    timings = time_kernels(sets, repeat, expected)
    # The matrix question the hot paths actually ask, including the
    # one-off encode, against the same question asked per pair.
    batched = timings["encode_s"] + timings["disjoint_matrix_s"]
    timings["disjoint_speedup"] = round(
        baselines["disjoint_matrix_s"] / max(batched, 1e-9), 2
    )
    return {
        "population": {"seed": seed, "sets": count, "repeat": repeat},
        "numpy_min_side": kernels.NUMPY_MIN_SIDE,
        "baseline": baselines,
        "kernels": timings,
        "sides": time_sides(sets, repeat, expected),
    }


def merge_into_snapshot(path: str, block: Dict[str, Any]) -> None:
    """Write ``block`` under the ``kernels`` key of ``path`` atomically."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except FileNotFoundError:
        snapshot = {}
    snapshot["kernels"] = block
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def main(argv: Sequence[str]) -> int:
    """CLI entry point; see the module docstring for usage."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sets", type=int, default=96, help="population size (default: 96)"
    )
    parser.add_argument(
        "--repeat", type=int, default=5, help="best-of repetitions (default: 5)"
    )
    parser.add_argument(
        "--seed", type=int, default=1421, help="population seed (default: 1421)"
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help="snapshot to merge the kernels block into (default: %(default)s)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the block without touching the snapshot",
    )
    args = parser.parse_args(argv)
    if args.sets < 4 or args.sets % 2:
        print("error: --sets must be an even number >= 4", file=sys.stderr)
        return 2
    block = profile(args.seed, args.sets, args.repeat)
    print(json.dumps(block, indent=2))
    if not args.dry_run:
        merge_into_snapshot(args.output, block)
        print(f"merged kernels block into {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
