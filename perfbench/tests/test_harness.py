"""Tests of the benchmark harness itself (not of the Clarify library).

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
They use small op lists (``seconds=1``), so the whole file runs in well
under a minute.
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing, workloads  # noqa: E402
from repro.serve import ServeResponse  # noqa: E402
from repro.synth import generate_campus_corpus, generate_cloud_corpus  # noqa: E402


@pytest.fixture(scope="module")
def cloud():
    return generate_cloud_corpus()


@pytest.fixture(scope="module")
def campus():
    return generate_campus_corpus(total_acls=600)


# ------------------------------------------------------------- op lists


def test_same_seed_gives_the_same_op_list(cloud, campus):
    assert workloads.rm_edit_plans(7, 2, cloud) == workloads.rm_edit_plans(
        7, 2, generate_cloud_corpus()
    )
    assert workloads.acl_edit_plans(7, 2, campus) == workloads.acl_edit_plans(7, 2, campus)
    assert workloads.rm_edit_plans(7, 2, cloud) != workloads.rm_edit_plans(8, 2, cloud)


def test_prepared_op_list_digest_is_stable(tmp_path):
    first = workloads.prepare_rm_edit(3, 1, str(tmp_path))
    second = workloads.prepare_rm_edit(3, 1, str(tmp_path))
    try:
        assert first.digest() == second.digest()
    finally:
        first.close()
        second.close()


def test_draws_follow_the_corpus_archetype_mix(campus):
    plans = workloads.acl_edit_plans(1, 20, campus)
    names = [plan.target.rsplit("_", 1)[0] for plan in plans]
    share = names.count("CAMPUS_CLEAN") / len(names)
    assert abs(share - 0.623) < 0.01


# ----------------------------------------------------------- percentiles


def _brute_force_percentile(values, pct):
    """The smallest sample with at least pct% of the samples at or below it."""
    for candidate in sorted(values):
        if 100 * sum(1 for value in values if value <= candidate) >= pct * len(values):
            return candidate
    raise AssertionError("unreachable")


def test_percentile_matches_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        values = [rng.choice((rng.random(), rng.randrange(5))) for _ in range(rng.randrange(20, 160))]
        for pct in (50, 90):
            if len(values) - math.ceil(pct * len(values) / 100) < workloads.MIN_BEYOND:
                with pytest.raises(ValueError):
                    workloads.percentile(values, pct)
            else:
                assert workloads.percentile(values, pct) == _brute_force_percentile(values, pct)


def test_percentile_refuses_a_thin_tail():
    assert workloads.percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        workloads.percentile(list(range(99)), 90)


# --------------------------------------------------------- output checks


def test_tampered_edit_outcome_fails_the_check():
    good = ServeResponse(session="s", seq=0, outcome="applied", questions=2, overlaps=(1, 2, 3))
    assert workloads.edit_ok(good)
    assert not workloads.edit_ok(ServeResponse(session="s", seq=0, outcome="needs-clarification"))
    # 3 overlaps allow ceil(log2(4)) = 2 questions, not 3.
    too_many = ServeResponse(session="s", seq=0, outcome="applied", questions=3, overlaps=(1, 2, 3))
    assert not workloads.edit_ok(too_many)


def test_tampered_audit_report_fails_the_checks():
    corpus = generate_campus_corpus(seed=5, total_acls=300)
    from repro.overlap.detector import acl_overlap_report, route_map_overlap_report

    acl_reports = [acl_overlap_report(acl) for acl in corpus.acls]
    rm_reports = [route_map_overlap_report(rm, corpus.store) for rm in corpus.route_maps]
    audit = workloads.CampusAudit(5, corpus, [], 300)
    assert workloads.acl_reports_ok(acl_reports)
    assert workloads.route_map_reports_ok(rm_reports)
    assert audit.stats_ok(acl_reports, rm_reports)

    shadowed = next(i for i, r in enumerate(acl_reports) if r.name.startswith("CAMPUS_SHAD_L"))
    tampered = list(acl_reports)
    tampered[shadowed] = acl_reports[shadowed].__class__(
        name=acl_reports[shadowed].name, rule_count=acl_reports[shadowed].rule_count, pairs=()
    )
    assert not workloads.acl_reports_ok(tampered)
    assert not audit.stats_ok(tampered, rm_reports)
    assert not audit.stats_ok(acl_reports, rm_reports[1:])


# ------------------------------------------------- passes and invariants


def _rm_pass(tmp_path, clients, around=None, tracer=None):
    prepared = workloads.prepare_rm_edit(2, 2, str(tmp_path))
    try:
        if tracer is None:
            return prepared.run_pass(clients=clients)
        with tracer.installed():
            return prepared.run_pass(clients=clients, around_op=tracer.op)
    finally:
        prepared.close()


def test_one_and_two_clients_give_the_same_fingerprint(tmp_path):
    one = _rm_pass(tmp_path, clients=1)
    two = _rm_pass(tmp_path, clients=2)
    assert one.failed == two.failed == 0
    assert one.fingerprint == two.fingerprint


def test_acl_edit_fingerprint_is_schedule_independent(tmp_path):
    prepared = workloads.prepare_acl_edit(4, 1, str(tmp_path))
    try:
        one = prepared.run_pass(clients=1)
        two = prepared.run_pass(clients=2)
    finally:
        prepared.close()
    assert one.failed == two.failed == 0
    assert one.fingerprint == two.fingerprint


def test_traced_fingerprint_equals_untraced(tmp_path):
    untraced = _rm_pass(tmp_path, clients=2)
    tracer = tracing.Tracer()
    traced = _rm_pass(tmp_path, clients=2, tracer=tracer)
    assert traced.fingerprint == untraced.fingerprint
    ledger = tracer.ledger(queue_wait_s=sum(op.queue_wait for op in traced.ops))
    assert set(ledger.op_wall) == {op.op_id for op in traced.ops}
    assert ledger.layer("prefixspace") > 0
    assert ledger.layer("headerspace") == 0


def test_ledger_closes_only_with_every_layer_wrapped(tmp_path, monkeypatch):
    def traced_pass():
        tracer = tracing.Tracer()
        with tracer.installed():
            result = prepared.run_pass(around_op=tracer.op)
        return tracer.ledger(queue_wait_s=sum(op.queue_wait for op in result.ops))

    prepared = workloads.prepare_acl_edit(4, 2, str(tmp_path))
    try:
        full = traced_pass()
        # Unwrapped, the journal's writes land in the envelopes around them.
        monkeypatch.delitem(tracing.LAYERS, "journal")
        partial = traced_pass()
    finally:
        prepared.close()
    assert full.closes()
    assert not partial.closes()


def test_pooled_audit_matches_in_process_audit(tmp_path):
    prepared = workloads.prepare_overlap_audit(9, 1, str(tmp_path))
    try:
        pooled = prepared.run_pass()
        inline = prepared.run_pass(pool="serial")
        two_clients = prepared.run_pass(clients=2)
    finally:
        prepared.close()
    assert prepared.clients == workloads.AUDIT_CLIENTS == 1
    assert pooled.failed == inline.failed == two_clients.failed == 0
    assert pooled.checks_ok and inline.checks_ok and two_clients.checks_ok
    assert pooled.fingerprint == inline.fingerprint == two_clients.fingerprint


# ------------------------------------------------------------------ CLI


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rm-edit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pinned_entries_name_known_workloads():
    pinned = json.loads((ROOT / "perfbench" / "pinned.json").read_text())
    assert set(pinned) == set(workloads.WORKLOADS)
    assert all(len(fingerprint) == 64 for fingerprint in pinned.values())
