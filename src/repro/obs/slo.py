"""Declarative SLOs with multi-window burn-rate evaluation.

An *objective* declares what fraction of requests must be *good*:

* ``latency`` — good means the wide event's ``timings.latency_s`` is at
  or under ``threshold_s``;
* ``availability`` — good means the outcome is not in
  ``error_outcomes``.

A *window* is a trailing event count with a maximum tolerated **burn
rate** — the rate at which the error budget (``1 - objective``) is being
spent: ``burn = bad_fraction / (1 - objective)``.  Burn 1.0 spends the
budget exactly at the objective's rate; burn 10 spends it ten times too
fast.  Following the SRE multi-window pattern, an objective **alerts**
only when *every* window is over its bound — the short window proves the
problem is current, the long window proves it is sustained, and neither
alone flaps.

Configs are plain JSON (see :func:`load_config` for the schema and
:func:`default_config` for the built-in defaults ``clarify loadgen``
evaluates).  ``clarify loadgen`` exits 1 when an objective alerts.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Version of the SLO config / report schema.
SLO_SCHEMA_VERSION = 1

#: Outcomes that count against availability unless the config overrides.
DEFAULT_ERROR_OUTCOMES = ("error", "internal-error")

_KINDS = ("latency", "availability")


class SLOConfigError(ValueError):
    """An SLO config file is missing, unreadable, or malformed."""


@dataclasses.dataclass(frozen=True)
class Objective:
    """One declared objective: a good-event predicate plus a target."""

    name: str
    kind: str
    objective: float
    threshold_s: Optional[float] = None
    error_outcomes: Tuple[str, ...] = DEFAULT_ERROR_OUTCOMES

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SLOConfigError(
                f"objective {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {_KINDS})"
            )
        if not 0.0 < self.objective < 1.0:
            raise SLOConfigError(
                f"objective {self.name!r}: objective must be in (0, 1), "
                f"got {self.objective!r}"
            )
        if self.kind == "latency" and (
            self.threshold_s is None or self.threshold_s <= 0
        ):
            raise SLOConfigError(
                f"objective {self.name!r}: latency objectives need a "
                f"positive threshold_s"
            )

    def is_good(self, event: Dict[str, Any]) -> bool:
        """Whether one wide event counts as good under this objective."""
        if self.kind == "latency":
            timings = event.get("timings", {})
            latency = float(timings.get("latency_s", 0.0))
            assert self.threshold_s is not None  # __post_init__ invariant
            return latency <= self.threshold_s
        return str(event.get("outcome", "")) not in self.error_outcomes


@dataclasses.dataclass(frozen=True)
class Window:
    """A trailing event-count window and its tolerated burn rate."""

    name: str
    events: int
    max_burn_rate: float

    def __post_init__(self) -> None:
        if self.events < 1:
            raise SLOConfigError(
                f"window {self.name!r}: events must be at least 1"
            )
        if self.max_burn_rate <= 0:
            raise SLOConfigError(
                f"window {self.name!r}: max_burn_rate must be positive"
            )


@dataclasses.dataclass(frozen=True)
class SLOConfig:
    """The full declaration: objectives × windows."""

    objectives: Tuple[Objective, ...]
    windows: Tuple[Window, ...]

    def __post_init__(self) -> None:
        if not self.objectives:
            raise SLOConfigError("config declares no objectives")
        if not self.windows:
            raise SLOConfigError("config declares no windows")


def default_config() -> SLOConfig:
    """The built-in objectives ``clarify loadgen`` evaluates by default.

    Latency: 90% of requests under 2s end to end.  Availability: 99%
    of requests resolve without an error outcome.  Windows: a short
    (32-event, burn ≤ 14) and a long (256-event, burn ≤ 6) pair.
    """
    return SLOConfig(
        objectives=(
            Objective(
                name="latency-p90-2s",
                kind="latency",
                objective=0.90,
                threshold_s=2.0,
            ),
            Objective(
                name="availability-99",
                kind="availability",
                objective=0.99,
            ),
        ),
        windows=(
            Window(name="short", events=32, max_burn_rate=14.0),
            Window(name="long", events=256, max_burn_rate=6.0),
        ),
    )


def config_from_dict(data: Dict[str, Any]) -> SLOConfig:
    """Build an :class:`SLOConfig` from parsed JSON, validating it."""
    version = data.get("schema_version", SLO_SCHEMA_VERSION)
    if version != SLO_SCHEMA_VERSION:
        raise SLOConfigError(
            f"unsupported SLO schema_version {version!r} "
            f"(supported: {SLO_SCHEMA_VERSION})"
        )
    try:
        objectives = tuple(
            Objective(
                name=str(obj["name"]),
                kind=str(obj["kind"]),
                objective=float(obj["objective"]),
                threshold_s=(
                    float(obj["threshold_s"])
                    if obj.get("threshold_s") is not None
                    else None
                ),
                error_outcomes=tuple(
                    obj.get("error_outcomes", DEFAULT_ERROR_OUTCOMES)
                ),
            )
            for obj in data.get("objectives", ())
        )
        windows = tuple(
            Window(
                name=str(win["name"]),
                events=int(win["events"]),
                max_burn_rate=float(win["max_burn_rate"]),
            )
            for win in data.get("windows", ())
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SLOConfigError):
            raise
        raise SLOConfigError(f"malformed SLO config: {exc}") from exc
    return SLOConfig(objectives=objectives, windows=windows)


def load_config(path: str) -> SLOConfig:
    """Read and validate one SLO config JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SLOConfigError(f"cannot read SLO config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SLOConfigError(
            f"SLO config {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise SLOConfigError(f"SLO config {path} is not a JSON object")
    return config_from_dict(data)


@dataclasses.dataclass(frozen=True)
class WindowBurn:
    """One objective's burn rate over one window."""

    window: str
    events: int
    bad: int
    bad_fraction: float
    burn_rate: float
    max_burn_rate: float

    @property
    def breaching(self) -> bool:
        return self.burn_rate > self.max_burn_rate

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["breaching"] = self.breaching
        return data


@dataclasses.dataclass(frozen=True)
class ObjectiveReport:
    """One objective's verdict: per-window burns and the alert state."""

    name: str
    kind: str
    objective: float
    windows: Tuple[WindowBurn, ...]

    @property
    def alerting(self) -> bool:
        """True when every evaluated window is over its burn bound."""
        return bool(self.windows) and all(w.breaching for w in self.windows)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "alerting": self.alerting,
            "windows": [w.to_dict() for w in self.windows],
        }


@dataclasses.dataclass(frozen=True)
class SLOReport:
    """The full evaluation over one wide-event stream."""

    schema_version: int
    events: int
    objectives: Tuple[ObjectiveReport, ...]

    @property
    def ok(self) -> bool:
        return not any(obj.alerting for obj in self.objectives)

    @property
    def alerting(self) -> List[str]:
        return [obj.name for obj in self.objectives if obj.alerting]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "events": self.events,
            "ok": self.ok,
            "alerting": self.alerting,
            "objectives": [obj.to_dict() for obj in self.objectives],
        }


def _window_burn(
    objective: Objective, window: Window, events: Sequence[Dict[str, Any]]
) -> WindowBurn:
    tail = events[-window.events :] if window.events < len(events) else events
    bad = sum(1 for event in tail if not objective.is_good(event))
    count = len(tail)
    bad_fraction = bad / count if count else 0.0
    budget = 1.0 - objective.objective
    burn = bad_fraction / budget if budget > 0 else float("inf")
    return WindowBurn(
        window=window.name,
        events=count,
        bad=bad,
        bad_fraction=bad_fraction,
        burn_rate=burn,
        max_burn_rate=window.max_burn_rate,
    )


def evaluate(
    events: Sequence[Dict[str, Any]],
    config: Optional[SLOConfig] = None,
) -> SLOReport:
    """Evaluate every objective over the trailing windows of ``events``.

    ``events`` is a wide-event sequence in arrival order (each window is
    the trailing slice).  With no events every burn rate is zero and the
    report is trivially ok.
    """
    cfg = config if config is not None else default_config()
    ordered = list(events)
    reports = tuple(
        ObjectiveReport(
            name=objective.name,
            kind=objective.kind,
            objective=objective.objective,
            windows=tuple(
                _window_burn(objective, window, ordered)
                for window in cfg.windows
            ),
        )
        for objective in cfg.objectives
    )
    return SLOReport(
        schema_version=SLO_SCHEMA_VERSION,
        events=len(ordered),
        objectives=reports,
    )


__all__ = [
    "DEFAULT_ERROR_OUTCOMES",
    "Objective",
    "ObjectiveReport",
    "SLOConfig",
    "SLOConfigError",
    "SLOReport",
    "SLO_SCHEMA_VERSION",
    "Window",
    "WindowBurn",
    "config_from_dict",
    "default_config",
    "evaluate",
    "load_config",
]
