"""The network-wide analyzer: incremental, parallel, counter-threaded.

:class:`NetwideAnalyzer` composes the layers of :mod:`repro.lint.netwide`
into one pass:

1. path-level ACL conflicts over the BGP-simulated forwarding paths
   (``NW001``/``NW002``),
2. route-map chain cancellation along propagation paths
   (``NW003``/``NW004``),
3. cross-device drift of same-named lists (``NW005``/``NW006``),
4. end-to-end reachability contracts (``NW007``/``NW008``).

It is **incremental**: per-path results are cached under a key that
includes the content fingerprints of every device on the path, so after
an update that touches one device only the paths crossing that device
are re-analyzed (``netwide.paths.cached`` vs ``netwide.paths.analyzed``
counters make this observable), and the fingerprint-keyed permit-space
memos of :mod:`repro.lint.netwide.spaces` survive untouched for every
other device.  It is **parallel**: uncached paths can fan across the
:mod:`repro.perf.campaign` process pool, with the serial fallback
producing byte-identical reports.

Device sets without a simulatable BGP topology (e.g. the §3 campus and
cloud overlap corpora, which attach ACLs but speak no BGP) degrade to
the drift layer; contracts on such a set are reported as unverifiable
errors rather than silently skipped.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.config.device import DeviceConfig
from repro.lint.diagnostics import Diagnostic, LintReport, Severity, SourceLocation
from repro.lint.netwide.checks import (
    CONFLICT_CODES,
    DRIFT_CODES,
    analyze_drift,
    analyze_path,
    analyze_route_propagation,
)
from repro.lint.netwide.contracts import Contract, check_contracts
from repro.lint.netwide.model import (
    ForwardingPath,
    Topology,
    build_topology,
    extract_paths,
    topology_capable,
)
from repro.lint.netwide.spaces import device_fingerprint

#: One cached path analysis: keyed by the path identity *and* the
#: fingerprints of every device it crosses.
_PathKey = Tuple[object, ...]


class NetwideAnalyzer:
    """Whole-network analysis with per-path incremental caching.

    One analyzer instance amortises repeated analyses of an evolving
    network — the netwide insertion gate holds one across a session.
    ``max_cached_paths`` bounds the per-instance LRU.
    """

    def __init__(self, max_cached_paths: int = 4096) -> None:
        self._path_cache: "OrderedDict[_PathKey, Tuple[Diagnostic, ...]]" = (
            OrderedDict()
        )
        self._max_cached_paths = max_cached_paths

    def analyze(
        self,
        devices: Sequence[DeviceConfig],
        contracts: Sequence[Contract] = (),
        workers: Optional[int] = None,
        chunks: Optional[int] = None,
    ) -> LintReport:
        """Run every layer over ``devices`` and return the normalized report.

        ``workers > 1`` fans uncached path analyses across the campaign
        process pool (``chunks`` as in
        :func:`repro.perf.campaign.run_campaign`); the serial default
        produces an identical report.
        """
        with obs.span("netwide.analyze", devices=len(devices)) as sp:
            fps = {d.hostname: device_fingerprint(d) for d in devices}
            findings: List[Diagnostic] = []
            capable = topology_capable(devices)
            if capable:
                topo = build_topology(devices)
                findings.extend(
                    self._analyze_paths(topo, devices, fps, workers, chunks)
                )
                findings.extend(analyze_route_propagation(topo, fps))
                if contracts:
                    obs.count("netwide.contracts.checked", len(contracts))
                    violations = check_contracts(topo, contracts)
                    obs.count("netwide.contracts.violated", len(violations))
                    findings.extend(violations)
            elif contracts:
                obs.count("netwide.contracts.checked", len(contracts))
                obs.count("netwide.contracts.violated", len(contracts))
                findings.extend(_unverifiable(contract) for contract in contracts)
            findings.extend(analyze_drift(devices, fps))
            report = LintReport.of(findings).normalized()
            conflicts = sum(
                1 for d in report if d.code in CONFLICT_CODES
            )
            drift = sum(1 for d in report if d.code in DRIFT_CODES)
            obs.count("netwide.conflicts", conflicts)
            obs.count("netwide.drift", drift)
            sp.annotate(
                findings=len(report), conflicts=conflicts, topology=capable
            )
            return report

    def _analyze_paths(
        self,
        topo: Topology,
        devices: Sequence[DeviceConfig],
        fps: Dict[str, str],
        workers: Optional[int],
        chunks: Optional[int],
    ) -> List[Diagnostic]:
        paths = extract_paths(topo)
        obs.count("netwide.paths", len(paths))
        keyed = [(self._path_key(path, fps), path) for path in paths]
        # Findings for this run are assembled from a local map, never
        # read back from the LRU — an LRU smaller than one run's path
        # count may evict entries mid-run without affecting the report.
        this_run: Dict[_PathKey, Tuple[Diagnostic, ...]] = {}
        todo = []
        for key, path in keyed:
            if key in self._path_cache:
                self._path_cache.move_to_end(key)
                this_run[key] = self._path_cache[key]
            else:
                todo.append((key, path))
        obs.count("netwide.paths.cached", len(keyed) - len(todo))
        obs.count("netwide.paths.analyzed", len(todo))
        if todo:
            if workers is not None and workers > 1:
                from repro.perf.campaign import netwide_path_campaign

                outcome = netwide_path_campaign(
                    [path for _, path in todo],
                    devices,
                    workers=workers,
                    chunks=chunks,
                )
                computed = list(outcome.results)
            else:
                devices_map = {d.hostname: d for d in devices}
                computed = [
                    analyze_path(path, devices_map) for _, path in todo
                ]
            for (key, _), diagnostics in zip(todo, computed):
                this_run[key] = tuple(diagnostics)
                self._remember(key, tuple(diagnostics))
        findings: List[Diagnostic] = []
        for key, _ in keyed:
            findings.extend(this_run[key])
        return findings

    def _path_key(
        self, path: ForwardingPath, fps: Dict[str, str]
    ) -> _PathKey:
        return (
            str(path.prefix),
            path.devices,
            path.filters,
            tuple(fps[name] for name in path.devices),
        )

    def _remember(
        self, key: _PathKey, diagnostics: Tuple[Diagnostic, ...]
    ) -> None:
        self._path_cache[key] = diagnostics
        self._path_cache.move_to_end(key)
        while len(self._path_cache) > self._max_cached_paths:
            self._path_cache.popitem(last=False)


def _unverifiable(contract: Contract) -> Diagnostic:
    return Diagnostic(
        code="NW007",
        severity=Severity.ERROR,
        location=SourceLocation(
            "contract",
            f"{contract.source}~>{contract.prefix}",
            device=contract.source,
        ),
        message=(
            f"cannot check {contract.render()!r}: the device set has no "
            f"simulatable BGP topology"
        ),
        suggestion="run contracts against a fully BGP-configured device set",
    )


def analyze_network(
    devices: Sequence[DeviceConfig],
    contracts: Sequence[Contract] = (),
    workers: Optional[int] = None,
    chunks: Optional[int] = None,
) -> LintReport:
    """One-shot convenience: a fresh :class:`NetwideAnalyzer` run once."""
    return NetwideAnalyzer().analyze(
        devices, contracts=contracts, workers=workers, chunks=chunks
    )


__all__ = ["NetwideAnalyzer", "analyze_network"]
