"""Tests for the ``clarify netlint`` subcommand."""

import json

from repro.cli import main


class TestSeededDemo:
    def test_clean_topology_exits_zero(self, capsys):
        assert main(["netlint"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_injected_shadow_fails_with_witness(self, capsys):
        assert main(["netlint", "--inject-shadow"]) == 1
        out = capsys.readouterr().out
        assert "error NW001" in out
        assert "CORE_IN" in out
        assert "witness:" in out

    def test_injected_drift_warns_but_passes_error_threshold(self, capsys):
        assert main(["netlint", "--inject-drift"]) == 0
        assert "NW005" in capsys.readouterr().out
        assert main(["netlint", "--inject-drift", "--fail-on", "warning"]) == 1

    def test_route_shadow_with_contracts(self, capsys):
        code = main(
            ["netlint", "--inject-route-shadow", "--contracts", "default"]
        )
        out = capsys.readouterr().out
        assert code == 1  # the broken must-reach contract is an error
        assert "NW003" in out
        assert "NW007" in out

    def test_json_format(self, capsys):
        assert main(["netlint", "--inject-shadow", "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["counts_by_code"].get("NW001", 0) >= 1

    def test_workers_match_serial(self, capsys):
        assert (
            main(["netlint", "--inject-shadow", "--format", "json"]) == 1
        )
        serial = capsys.readouterr().out
        assert (
            main(
                [
                    "netlint",
                    "--inject-shadow",
                    "--format",
                    "json",
                    "--workers",
                    "2",
                    "--chunks",
                    "2",
                ]
            )
            == 1
        )
        assert capsys.readouterr().out == serial


class TestBaselineFlow:
    def test_output_then_baseline_roundtrip(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert (
            main(["netlint", "--format", "json", "--output", str(report)])
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "netlint",
                    "--format",
                    "json",
                    "--baseline",
                    str(report),
                ]
            )
            == 0
        )

    def test_baseline_mismatch_exits_three(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert (
            main(["netlint", "--format", "json", "--output", str(report)])
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "netlint",
                "--inject-shadow",
                "--format",
                "json",
                "--baseline",
                str(report),
                "--fail-on",
                "none",
            ]
        )
        assert code == 3
        assert "BASELINE MISMATCH" in capsys.readouterr().err

    def test_shipped_baseline_matches(self, capsys):
        code = main(
            [
                "netlint",
                "--contracts",
                "examples/netwide.contracts",
                "--format",
                "json",
                "--title",
                "seeded demo topology (5 devices)",
                "--baseline",
                "benchmarks/BASELINE_netlint.json",
            ]
        )
        assert code == 0


class TestDeviceFilesAndCorpora:
    def test_device_files(self, tmp_path, capsys):
        from repro.config.device import render_device
        from repro.lint.netwide import seed_devices

        paths = []
        for device in seed_devices(inject_shadow=True):
            path = tmp_path / f"{device.hostname}.ios"
            path.write_text(render_device(device))
            paths.append(str(path))
        assert main(["netlint", "--devices", *paths]) == 1
        assert "NW001" in capsys.readouterr().out

    def test_unparseable_device_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "R1.ios"
        path.write_text("hostname R1\ninterface e0\n ip access-group NOPE in\n")
        assert main(["netlint", "--devices", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"{path}: line 3: undefined access-list 'NOPE'"
        )

    def test_corpus_drift_only(self, capsys):
        code = main(
            [
                "netlint",
                "--corpus",
                "cloud",
                "--scale",
                "0.05",
                "--seed",
                "2025",
            ]
        )
        assert code == 0
