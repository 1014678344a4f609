#!/usr/bin/env python3
"""A concurrency lint for the serving and LLM layers.

The serving layer's throughput rests on two invariants that ordinary
tests rarely catch regressing:

``CC001``
    No blocking call (LLM completion, sleep, socket/HTTP I/O) may run
    *lexically inside* a ``with <lock>`` block.  A blocked holder stalls
    every other thread contending for that lock — the exact serial
    collapse the dedup layer exists to avoid.  ``Condition``
    methods (``wait``/``wait_for``/``notify``...) are exempt: waiting
    releases the lock by design.

``CC002``
    Code under the scanned targets must not call the process-global
    ``install_journal``/``uninstall_journal``.
    Concurrent sessions each own a journal; the scoped, thread-local
    ``obs.journaling(...)`` context is the supported route — a global
    journal interleaves events across sessions and breaks replay.

``CC003``
    Campaign pool-worker code (``src/repro/perf``) must never touch the
    global telemetry hub or journal directly (``install_hub``,
    ``get_hub``, ``begin_request``, ``journaling``...).  Pool workers
    run in forked children whose counters flow through a private
    per-chunk :class:`repro.obs.Recorder` and are re-published by the
    parent; a worker reaching for the hub would double-count or write
    to a hub the parent never reads.  The contextvar-scoped
    ``telemetry.tracing``/``telemetry.current_trace`` are exempt —
    propagating the originating trace is the supported route.

The scan is lexical (AST-based, no control-flow analysis), which keeps
it fast and deterministic; the rare intentional exception can carry a
``# cc: allow`` comment on the offending line.

Usage::

    python tools/check_concurrency.py [paths...]

With no arguments it scans the default targets.  Exit status 0 when
clean, 1 when any finding survives.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import sys
from typing import Iterable, List, Sequence, Tuple

#: Directories scanned when no paths are given (repo-root relative).
#: ``src/repro/obs`` is included for the telemetry hub and metrics
#: endpoint, which sit on the serving hot path; ``src/repro/perf`` for
#: the campaign pool workers (CC003).
DEFAULT_TARGETS = (
    "src/repro/serve",
    "src/repro/llm",
    "src/repro/obs",
    "src/repro/perf",
)

#: Path fragments that mark a module as campaign pool-worker code; the
#: CC003 rule applies only to these.
POOL_WORKER_FRAGMENTS = ("repro/perf",)

#: Callable names considered blocking when invoked under a lock.  The
#: list is deliberately short and high-signal: LLM completions, sleeps,
#: and the socket/HTTP primitives the remote backend uses.
BLOCKING_NAMES = frozenset(
    {
        "complete",
        "sleep",
        "urlopen",
        "getresponse",
        "recv",
        "sendall",
        "create_connection",
    }
)

#: ``Condition`` methods that legitimately run while holding the lock.
CONDITION_METHODS = frozenset(
    {"wait", "wait_for", "notify", "notify_all"}
)

#: Substrings that mark a ``with`` context expression as a lock.
LOCKISH = ("lock", "cond", "mutex", "sem")

#: Process-global journal installers (CC002).
GLOBAL_JOURNAL_NAMES = frozenset({"install_journal", "uninstall_journal"})

#: Global telemetry-hub / journal touchpoints forbidden to pool-worker
#: code (CC003).  ``tracing``/``current_trace`` are deliberately absent:
#: they are contextvar-scoped and safe in workers.
GLOBAL_TELEMETRY_NAMES = frozenset(
    {
        "install_hub",
        "uninstall_hub",
        "get_hub",
        "hub_active",
        "begin_request",
        "finish_request",
        "journaling",
        "install_journal",
        "uninstall_journal",
    }
)

ALLOW_MARKER = "# cc: allow"


@dataclasses.dataclass(frozen=True)
class Finding:
    """One concurrency-lint finding."""

    label: str
    lineno: int
    code: str
    message: str

    def render(self) -> str:
        """One-line ``path:line: CODE message`` form."""
        return f"{self.label}:{self.lineno}: {self.code} {self.message}"


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _is_lockish(expr: ast.expr) -> bool:
    try:
        text = ast.unparse(expr).lower()
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return False
    return any(marker in text for marker in LOCKISH)


class _Scanner(ast.NodeVisitor):
    """Collects findings; tracks lexical ``with <lock>`` nesting."""

    def __init__(
        self,
        label: str,
        source_lines: Sequence[str],
        pool_worker: bool = False,
    ) -> None:
        self.label = label
        self.lines = source_lines
        self.pool_worker = pool_worker
        self.findings: List[Finding] = []
        self._lock_depth = 0

    def _allowed(self, lineno: int) -> bool:
        if 1 <= lineno <= len(self.lines):
            return ALLOW_MARKER in self.lines[lineno - 1]
        return False

    def _add(self, node: ast.AST, code: str, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if not self._allowed(lineno):
            self.findings.append(Finding(self.label, lineno, code, message))

    def _visit_with(self, node: ast.AST, items: Sequence[ast.withitem]) -> None:
        locked = any(_is_lockish(item.context_expr) for item in items)
        if locked:
            self._lock_depth += 1
        self.generic_visit(node)
        if locked:
            self._lock_depth -= 1

    def visit_With(self, node: ast.With) -> None:
        """Track lock nesting through ``with`` blocks."""
        self._visit_with(node, node.items)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        """Track lock nesting through ``async with`` blocks."""
        self._visit_with(node, node.items)

    def visit_Call(self, node: ast.Call) -> None:
        """Flag global-journal installs and blocking calls under locks."""
        name = _call_name(node)
        if name in GLOBAL_JOURNAL_NAMES:
            self._add(
                node,
                "CC002",
                f"{name}() installs a process-global journal; use the "
                f"scoped obs.journaling(...) context instead",
            )
        if (
            self._lock_depth > 0
            and name in BLOCKING_NAMES
            and name not in CONDITION_METHODS
        ):
            self._add(
                node,
                "CC001",
                f"blocking call {name}() lexically inside a 'with <lock>' "
                f"block; move the call outside the critical section",
            )
        if self.pool_worker and name in GLOBAL_TELEMETRY_NAMES:
            self._add(
                node,
                "CC003",
                f"pool-worker code calls {name}(); campaign workers must "
                f"not touch the global telemetry hub or journal — record "
                f"into the private chunk recorder and let the parent "
                f"re-publish",
            )
        self.generic_visit(node)


def scan_source(
    label: str, text: str, pool_worker: bool = False
) -> List[Finding]:
    """Scan one module's source; returns findings sorted by line."""
    tree = ast.parse(text, filename=label)
    scanner = _Scanner(label, text.splitlines(), pool_worker=pool_worker)
    scanner.visit(tree)
    return sorted(scanner.findings, key=lambda f: (f.lineno, f.code))


def _is_pool_worker_path(path: str) -> bool:
    normalised = os.path.abspath(path).replace(os.sep, "/")
    return any(fragment in normalised for fragment in POOL_WORKER_FRAGMENTS)


def _python_files(paths: Iterable[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        for root, _dirs, names in os.walk(path):
            for name in sorted(names):
                if name.endswith(".py"):
                    files.append(os.path.join(root, name))
    return sorted(files)


def scan_paths(paths: Sequence[str]) -> Tuple[List[Finding], int]:
    """Scan files/directories; returns (findings, files scanned)."""
    findings: List[Finding] = []
    files = _python_files(paths)
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            findings.extend(
                scan_source(
                    path,
                    handle.read(),
                    pool_worker=_is_pool_worker_path(path),
                )
            )
    return findings, len(files)


def main(argv: Sequence[str]) -> int:
    """CLI entry point; see the module docstring for usage."""
    targets = list(argv) or [
        os.path.join(_repo_root(), target) for target in DEFAULT_TARGETS
    ]
    missing = [t for t in targets if not os.path.exists(t)]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    findings, scanned = scan_paths(targets)
    for finding in findings:
        print(finding.render())
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"check_concurrency: {scanned} file(s) scanned, {status}")
    return 1 if findings else 0


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
