"""The perf-regression gate: diff two metric snapshots.

The benchmark harness writes a metric snapshot
(:func:`repro.obs.export.snapshot`) to ``benchmarks/BENCH_obs.json`` on
every run; a blessed copy lives in ``benchmarks/BASELINE_obs.json``.
This module compares the two:

* **counters** are behaviour, not timing — the benchmark workload is
  deterministic, so every counter (LLM calls, questions asked, verifier
  attempts, lint warnings, …) must match the baseline exactly;
* **histogram counts** are likewise exact;
* **timings** — the ``span.*`` histograms produced by a
  ``time_spans=True`` recorder — are noisy, so their mean and p95 are
  *ratio*-bounded: only getting :data:`TIMING_MAX_RATIO` times slower
  than the baseline counts as a regression (getting faster never does).

The result is a :class:`RegressionReport` of :class:`DeltaRow` entries
with text/JSON renderings; ``clarify bench-check`` exits nonzero when
any row regressed.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional

#: Histogram-name prefix identifying timing data (see
#: ``Recorder(time_spans=True)``).
TIMING_PREFIX = "span."

STATUS_OK = "ok"
STATUS_REGRESSION = "regression"
STATUS_WARNING = "warning"
STATUS_ADDED = "added"
STATUS_REMOVED = "removed"


class SnapshotError(ValueError):
    """A snapshot file is missing, unreadable, or malformed."""


#: How much slower than the baseline a ``span.*`` histogram's mean or
#: p95 may get before it regresses.  Counters always compare exactly.
TIMING_MAX_RATIO = 1.5


@dataclasses.dataclass(frozen=True)
class DeltaRow:
    """One compared metric: baseline vs current and the verdict."""

    name: str
    kind: str  # "counter" | "histogram" | "timing"
    status: str
    baseline: Optional[float]
    current: Optional[float]
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class RegressionReport:
    """Everything :func:`compare_snapshots` found."""

    rows: List[DeltaRow]
    #: Timing regressions were downgraded to warnings.
    timing_warn_only: bool = False

    @property
    def regressions(self) -> List[DeltaRow]:
        return [r for r in self.rows if r.status == STATUS_REGRESSION]

    @property
    def warnings(self) -> List[DeltaRow]:
        return [r for r in self.rows if r.status == STATUS_WARNING]

    @property
    def ok(self) -> bool:
        return not self.regressions


def load_snapshot(path: str) -> Dict[str, Any]:
    """Read one metric-snapshot JSON file, validating its shape."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"snapshot {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "counters" not in data:
        raise SnapshotError(
            f"snapshot {path} has no 'counters' key — not a metric snapshot?"
        )
    return data


def _schema_of(data: Dict[str, Any]) -> Optional[Any]:
    """A snapshot's schema version (``schema_version``, falling back to
    the pre-v3 ``version`` key; ``None`` for versionless snapshots)."""
    return data.get("schema_version", data.get("version"))


def check_schema_match(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> None:
    """Refuse to diff snapshots written under different schemas.

    A cross-version comparison would surface as a wall of spurious
    tolerance rows; failing fast with the actual versions tells the
    operator to regenerate the baseline instead.
    """
    base_schema = _schema_of(baseline)
    cur_schema = _schema_of(current)
    if base_schema != cur_schema:
        raise SnapshotError(
            f"schema_version mismatch: baseline {base_schema!r} vs "
            f"current {cur_schema!r} — regenerate the baseline under "
            f"the current schema instead of diffing across versions"
        )


def _compare_counters(base: Dict[str, Any], cur: Dict[str, Any]) -> List[DeltaRow]:
    rows: List[DeltaRow] = []
    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            rows.append(
                DeltaRow(
                    name,
                    "counter",
                    STATUS_REMOVED,
                    float(base[name]),
                    None,
                    "counter present in baseline but not in this run",
                )
            )
            continue
        if name not in base:
            rows.append(
                DeltaRow(
                    name,
                    "counter",
                    STATUS_ADDED,
                    None,
                    float(cur[name]),
                    "new counter, not in baseline",
                )
            )
            continue
        b, c = float(base[name]), float(cur[name])
        if b == c:
            rows.append(DeltaRow(name, "counter", STATUS_OK, b, c))
        else:
            rows.append(
                DeltaRow(
                    name,
                    "counter",
                    STATUS_REGRESSION,
                    b,
                    c,
                    f"counter changed {b:g} -> {c:g}",
                )
            )
    return rows


def _timing_stats(name: str, hist: Dict[str, Any]) -> Dict[str, Optional[float]]:
    from repro.obs.metrics import Histogram

    try:
        h = Histogram.from_dict(hist)
    except (TypeError, ValueError, AttributeError) as exc:
        raise SnapshotError(
            f"histogram {name!r} is malformed: {exc}"
        ) from exc
    return {"mean": h.mean, "p95": h.quantile(0.95)}


def _histogram_dict(name: str, value: Any) -> Dict[str, Any]:
    """Validate one snapshot histogram entry's shape."""
    if not isinstance(value, dict):
        raise SnapshotError(
            f"histogram {name!r} is malformed: expected a dict, "
            f"got {type(value).__name__}"
        )
    return value


def _histogram_count(name: str, value: Dict[str, Any]) -> int:
    """A histogram entry's observation count, validated."""
    try:
        return int(value.get("count", 0))
    except (TypeError, ValueError) as exc:
        raise SnapshotError(
            f"histogram {name!r} is malformed: bad count: {exc}"
        ) from exc


def _compare_histograms(
    base: Dict[str, Any], cur: Dict[str, Any], timing_warn_only: bool
) -> List[DeltaRow]:
    rows: List[DeltaRow] = []
    for name in sorted(set(base) | set(cur)):
        timing = name.startswith(TIMING_PREFIX)
        kind = "timing" if timing else "histogram"
        if name in base:
            _histogram_dict(name, base[name])
        if name in cur:
            _histogram_dict(name, cur[name])
        if name not in cur:
            rows.append(
                DeltaRow(
                    name,
                    kind,
                    STATUS_REMOVED,
                    float(_histogram_count(name, base[name])),
                    None,
                    "histogram present in baseline but not in this run",
                )
            )
            continue
        if name not in base:
            rows.append(
                DeltaRow(
                    name,
                    kind,
                    STATUS_ADDED,
                    None,
                    float(_histogram_count(name, cur[name])),
                    "new histogram, not in baseline",
                )
            )
            continue
        b_count = _histogram_count(name, base[name])
        c_count = _histogram_count(name, cur[name])
        if timing:
            rows.extend(
                _compare_timing(name, base[name], cur[name], timing_warn_only)
            )
            continue
        if b_count == c_count:
            rows.append(
                DeltaRow(name, kind, STATUS_OK, float(b_count), float(c_count))
            )
        else:
            rows.append(
                DeltaRow(
                    name,
                    kind,
                    STATUS_REGRESSION,
                    float(b_count),
                    float(c_count),
                    f"observation count changed {b_count} -> {c_count}",
                )
            )
    return rows


def _compare_timing(
    name: str, base: Dict[str, Any], cur: Dict[str, Any], warn_only: bool
) -> List[DeltaRow]:
    rows: List[DeltaRow] = []
    b_stats = _timing_stats(name, base)
    c_stats = _timing_stats(name, cur)
    bad_status = STATUS_WARNING if warn_only else STATUS_REGRESSION
    for stat in ("mean", "p95"):
        b, c = b_stats[stat], c_stats[stat]
        row_name = f"{name}.{stat}"
        if b is None or c is None:
            # Version-1 baselines carry no samples: p95 is unknowable.
            rows.append(
                DeltaRow(
                    row_name,
                    "timing",
                    STATUS_OK,
                    b,
                    c,
                    "no samples recorded; skipped",
                )
            )
            continue
        if b <= 0.0:
            rows.append(DeltaRow(row_name, "timing", STATUS_OK, b, c))
            continue
        ratio = c / b
        if ratio <= TIMING_MAX_RATIO:
            rows.append(DeltaRow(row_name, "timing", STATUS_OK, b, c))
        else:
            rows.append(
                DeltaRow(
                    row_name,
                    "timing",
                    bad_status,
                    b,
                    c,
                    f"{ratio:.2f}x slower than baseline "
                    f"(bound {TIMING_MAX_RATIO:g}x)",
                )
            )
    return rows


def compare_snapshots(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    timing_warn_only: bool = False,
) -> RegressionReport:
    """Diff two metric snapshots.

    ``timing_warn_only`` downgrades timing regressions to warnings (for
    shared CI runners, where wall-clock noise swamps real signal).

    Raises :class:`SnapshotError` when the two snapshots were written
    under different schema versions (see :func:`check_schema_match`) or
    when a histogram entry is malformed — both are artifact problems,
    not regressions, and must not be reported as tolerance rows.
    """
    check_schema_match(baseline, current)
    rows = _compare_counters(
        baseline.get("counters", {}), current.get("counters", {})
    )
    rows.extend(
        _compare_histograms(
            baseline.get("histograms", {}),
            current.get("histograms", {}),
            timing_warn_only,
        )
    )
    return RegressionReport(rows=rows, timing_warn_only=timing_warn_only)


# ------------------------------------------------------------- rendering


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if float(value).is_integer() and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.4g}"


def render_text(report: RegressionReport, verbose: bool = False) -> str:
    """The delta table as aligned text; quiet rows elided by default."""
    shown = [
        row
        for row in report.rows
        if verbose or row.status != STATUS_OK
    ]
    lines: List[str] = []
    if shown:
        name_w = max(len(r.name) for r in shown)
        stat_w = max(len(r.status) for r in shown)
        for row in shown:
            line = (
                f"{row.status:<{stat_w}}  {row.name:<{name_w}}  "
                f"{_fmt(row.baseline)} -> {_fmt(row.current)}"
            )
            if row.detail:
                line += f"  ({row.detail})"
            lines.append(line)
    n_reg = len(report.regressions)
    n_warn = len(report.warnings)
    lines.append(
        f"{len(report.rows)} metrics compared: "
        f"{n_reg} regression{'s' if n_reg != 1 else ''}, "
        f"{n_warn} warning{'s' if n_warn != 1 else ''}"
    )
    return "\n".join(lines)


def render_json(report: RegressionReport) -> str:
    return json.dumps(
        {
            "ok": report.ok,
            "tolerances": {
                "timing_max_ratio": TIMING_MAX_RATIO,
                "timing_warn_only": report.timing_warn_only,
            },
            "regressions": len(report.regressions),
            "warnings": len(report.warnings),
            "rows": [row.to_dict() for row in report.rows],
        },
        indent=2,
        sort_keys=True,
    )


__all__ = [
    "DeltaRow",
    "RegressionReport",
    "SnapshotError",
    "TIMING_MAX_RATIO",
    "TIMING_PREFIX",
    "check_schema_match",
    "compare_snapshots",
    "load_snapshot",
    "render_json",
    "render_text",
]
