"""Analyzer-level tests: incrementality, pooled identity, determinism."""

from repro import obs
from repro.config.acl import Acl, AclRule, ProtocolSpec
from repro.lint.netwide import analyze as analyze_module
from repro.lint.netwide import (
    NetwideAnalyzer,
    analyze_network,
    default_contracts,
    seed_devices,
)
from repro.lint.reporters import render_json
from repro.netaddr import Ipv4Wildcard


def _counters(analyzer, devices, **kwargs):
    with obs.recording() as recorder:
        analyzer.analyze(devices, **kwargs)
    return {
        name: recorder.counter(name)
        for name in (
            "netwide.paths",
            "netwide.paths.cached",
            "netwide.paths.analyzed",
        )
    }


class TestIncremental:
    def test_repeat_analysis_is_fully_cached(self):
        analyzer = NetwideAnalyzer()
        devices = seed_devices()
        first = _counters(analyzer, devices)
        assert first["netwide.paths"] == 8
        assert first["netwide.paths.analyzed"] == 8
        assert first["netwide.paths.cached"] == 0
        again = _counters(analyzer, devices)
        assert again["netwide.paths.cached"] == 8
        assert again["netwide.paths.analyzed"] == 0

    def test_single_device_edit_reanalyzes_only_affected_paths(self):
        analyzer = NetwideAnalyzer()
        devices = seed_devices()
        _counters(analyzer, devices)
        core = next(d for d in devices if d.hostname == "CORE")
        # Any content change moves CORE's fingerprint — even an ACL
        # nothing references.
        core.store.add_acl(
            Acl(
                "TOUCHED",
                (AclRule(10, "permit", ProtocolSpec("ip"),
                         Ipv4Wildcard.any(), Ipv4Wildcard.any()),),
            )
        )
        after = _counters(analyzer, devices)
        # The two LAB-branch paths (EDGE<->LAB via AGG) avoid CORE and
        # stay cached; the six paths crossing CORE re-run.
        assert after["netwide.paths.cached"] == 2
        assert after["netwide.paths.analyzed"] == 6

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(analyze_module, "MAX_CACHED_PATHS", 3)
        analyzer = NetwideAnalyzer()
        report = analyzer.analyze(seed_devices())
        assert len(analyzer._path_cache) == 3
        # Evicting mid-run leaves the report whole.
        assert render_json(report) == render_json(
            analyze_network(seed_devices())
        )


class TestPooledIdentity:
    def test_pooled_report_identical_to_serial(self):
        devices = seed_devices(
            inject_shadow=True, inject_drift=True, inject_route_shadow=True
        )
        contracts = default_contracts()
        serial = analyze_network(devices, contracts=contracts)
        pooled = analyze_network(
            devices, contracts=contracts, workers=2, chunks=2
        )
        assert render_json(serial) == render_json(pooled)


class TestDeterminism:
    def test_fresh_runs_render_byte_identical(self):
        kwargs = dict(
            inject_shadow=True, inject_drift=True, inject_route_shadow=True
        )
        first = render_json(
            analyze_network(seed_devices(**kwargs), default_contracts())
        )
        second = render_json(
            analyze_network(seed_devices(**kwargs), default_contracts())
        )
        assert first == second

    def test_report_sorted_code_primary(self):
        report = analyze_network(
            seed_devices(
                inject_shadow=True,
                inject_drift=True,
                inject_route_shadow=True,
            ),
            default_contracts(),
        )
        codes = [d.code for d in report]
        assert codes == sorted(codes)
        assert len(codes) >= 3  # NW001 + NW003 + NW005 at least


class TestDegradedModes:
    def test_no_topology_runs_drift_only(self):
        from repro.config.device import DeviceConfig

        devices = [DeviceConfig(hostname="A"), DeviceConfig(hostname="B")]
        with obs.recording() as recorder:
            report = analyze_network(devices)
        assert len(report) == 0
        assert recorder.counter("netwide.paths") == 0

    def test_contracts_without_topology_are_unverifiable_errors(self):
        from repro.config.device import DeviceConfig

        report = analyze_network(
            [DeviceConfig(hostname="A")], contracts=default_contracts()
        )
        assert [d.code for d in report] == ["NW007"] * 3
        assert all("cannot check" in d.message for d in report)
