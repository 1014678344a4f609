"""Tests for ``tools/check_concurrency.py`` (the CC001/CC003 AST lint)."""

import importlib.util
import pathlib
import sys
import textwrap

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "check_concurrency.py"

spec = importlib.util.spec_from_file_location("check_concurrency", TOOL)
cc = importlib.util.module_from_spec(spec)
sys.modules["check_concurrency"] = cc
spec.loader.exec_module(cc)


def scan(source, pool_worker=False):
    return cc.scan_source(
        "<test>", textwrap.dedent(source), pool_worker=pool_worker
    )


class TestCC001:
    def test_blocking_call_under_lock_flagged(self):
        findings = scan(
            """
            def f(self, prompt):
                with self._lock:
                    return self._inner.complete(prompt)
            """
        )
        assert [f.code for f in findings] == ["CC001"]
        assert "complete()" in findings[0].message

    def test_sleep_under_lock_flagged(self):
        findings = scan(
            """
            import time
            def f(lock):
                with lock:
                    time.sleep(1)
            """
        )
        assert [f.code for f in findings] == ["CC001"]

    def test_blocking_call_outside_lock_clean(self):
        findings = scan(
            """
            def f(self, prompt):
                with self._lock:
                    ticket = self._claim(prompt)
                return self._inner.complete(prompt)
            """
        )
        assert findings == []

    def test_non_lock_context_clean(self):
        findings = scan(
            """
            def f(path, client, prompt):
                with open(path) as handle:
                    handle.write(client.complete(prompt))
            """
        )
        assert findings == []

    def test_condition_wait_exempt(self):
        findings = scan(
            """
            def f(self):
                with self._cond:
                    self._cond.wait_for(lambda: self.ready)
                    self._cond.notify_all()
            """
        )
        assert findings == []

    def test_lock_depth_unwinds_after_with(self):
        findings = scan(
            """
            def f(self, prompt):
                with self._lock:
                    pass
                self._inner.complete(prompt)
            """
        )
        assert findings == []

    def test_nested_locks_still_flag(self):
        findings = scan(
            """
            def f(self, prompt):
                with self._lock:
                    with self._cond:
                        self._inner.complete(prompt)
            """
        )
        assert [f.code for f in findings] == ["CC001"]

    def test_allow_marker_suppresses(self):
        findings = scan(
            """
            def f(self, prompt):
                with self._lock:
                    return self._inner.complete(prompt)  # cc: allow
            """
        )
        assert findings == []


class TestCC003:
    def test_hub_touchpoints_flagged_in_pool_worker_code(self):
        for name in ("install_hub", "begin_request", "recording"):
            findings = scan(
                f"""
                from repro.obs import telemetry
                def f(arg):
                    telemetry.{name}(arg)
                """,
                pool_worker=True,
            )
            codes = [finding.code for finding in findings]
            assert "CC003" in codes, name

    def test_same_calls_clean_outside_pool_worker_code(self):
        findings = scan(
            """
            from repro.obs import telemetry
            def f(arg):
                telemetry.install_hub(arg)
            """
        )
        assert findings == []

    def test_scoped_tracing_exempt_in_pool_worker_code(self):
        # Contextvar-scoped trace propagation and the chunk's private
        # recorder are the supported route for workers; only the
        # process-wide sinks and setting a journal are banned.
        findings = scan(
            """
            from repro import obs
            from repro.obs import telemetry
            def f(trace, recorder, fn):
                with obs.scope(trace=trace, recorder=recorder):
                    return fn(), telemetry.current_trace()
            """,
            pool_worker=True,
        )
        assert findings == []

    def test_setting_a_journal_flagged_in_pool_worker_code(self):
        findings = scan(
            """
            from repro import obs
            def f(trace, journal):
                with obs.scope(trace=trace, journal=journal):
                    pass
            """,
            pool_worker=True,
        )
        assert [f.code for f in findings] == ["CC003"]
        assert "scope(journal=...)" in findings[0].message

    def test_allow_marker_suppresses(self):
        findings = scan(
            """
            from repro import obs
            def f():
                return obs.install_hub()  # cc: allow
            """,
            pool_worker=True,
        )
        assert findings == []

    def test_perf_paths_classified_as_pool_worker(self):
        assert cc._is_pool_worker_path("src/repro/perf/pool.py")
        assert cc._is_pool_worker_path("src/repro/perf/campaign.py")
        assert not cc._is_pool_worker_path("src/repro/serve/session.py")


class TestDriver:
    def test_current_tree_is_clean(self):
        findings, scanned = cc.scan_paths(
            [str(REPO_ROOT / t) for t in cc.DEFAULT_TARGETS]
        )
        assert scanned > 0
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert cc.main([str(clean)]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "def f(lock, c, p):\n    with lock:\n        c.complete(p)\n"
        )
        assert cc.main([str(dirty)]) == 1
        assert "CC001" in capsys.readouterr().out
        assert cc.main([str(tmp_path / "missing.py")]) == 2

    def test_findings_sorted_by_line(self):
        findings = scan(
            """
            from repro import obs
            def f(self, p, hub):
                with self._lock:
                    self._inner.complete(p)
                obs.install_hub(hub)
            """,
            pool_worker=True,
        )
        assert [f.code for f in findings] == ["CC001", "CC003"]
        assert findings[0].lineno < findings[1].lineno
