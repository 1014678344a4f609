"""The ``clarify`` command-line front end.

Subcommands::

    clarify add        one incremental update (interactive disambiguation)
    clarify overlaps   the §3 overlap analysis over a config file
    clarify compare    differential examples between two route-maps
    clarify eval       the §5 evaluation (Figure 4 + global policies)
    clarify list-add   one prefix-list insertion (the §7 extension)
    clarify trace      one instrumented cycle: span tree + metric summary
    clarify campaign   a §3 overlap study (or the §5 evaluation) across
                       a process pool; --workers 1 runs it in-process
    clarify lint       symbolic static analysis: shadowed/conflicting
                       rules, dangling references, naming drift
    clarify netlint    network-wide static analysis over a device set
    clarify replay     re-drive a recorded journal with zero LLM calls
                       and verify it matches byte for byte
    clarify bench-check  diff a benchmark metric snapshot against the
                       committed baseline (the perf-regression gate)
    clarify serve      serve many sessions concurrently over a JSONL
                       stdin/stdout request loop (admission control,
                       per-request deadlines, LLM deduplication); with
                       --metrics-port, a live /metrics endpoint and a
                       wide-event request log
    clarify loadgen    drive the serving layer with a deterministic
                       seeded campus/cloud intent mix; optionally run
                       the differential checks (serial, cache,
                       telemetry, shard) and SLO burn rates
    clarify tail       follow a wide-event request log and print rolling
                       p50/p95 latency and error rate

``clarify add`` reads an existing IOS configuration, runs the full
Clarify cycle for an English intent, asks the differential questions on
stdin, and prints the updated configuration to stdout.  ``add``,
``trace``, and ``eval`` accept ``--journal PATH`` to record a replayable
session journal (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import tempfile
from typing import Any, Callable, Dict, List, Optional

from repro.config import parse_config, render_config
from repro.core import ClarifySession, DisambiguationMode, ScriptedOracle
from repro.core.errors import ClarifyError
from repro.core.oracle import DisambiguationQuestion
from repro.llm.simulated import SimulatedLLM

#: The §2 walkthrough scenario, used by ``clarify trace`` when no
#: configuration/intent is supplied (same inputs as the paper's Fig. 2).
WALKTHROUGH_CONFIG = """
ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
ip prefix-list D1 seq 30 permit 1.0.0.0/20 ge 24
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
"""

WALKTHROUGH_INTENT = (
    "Write a route-map stanza that permits routes containing the prefix "
    "100.0.0.0/16 with mask length less than or equal to 23 and tagged "
    "with the community 300:3. Their MED value should be set to 55."
)

WALKTHROUGH_TARGET = "ISP_OUT"


class StdioOracle:
    """Asks differential questions on the terminal."""

    def __init__(self, out=sys.stdout, inp=sys.stdin) -> None:
        self._out = out
        self._in = inp

    def choose(self, question: DisambiguationQuestion) -> int:
        self._out.write(question.render() + "\n")
        self._out.flush()
        while True:
            line = self._in.readline()
            if not line:
                raise ClarifyError("no answer on stdin")
            answer = line.strip()
            if answer in ("1", "2"):
                return int(answer)
            self._out.write("Please answer 1 or 2: ")
            self._out.flush()


def _read_config(path: Optional[str]):
    if path is None:
        return parse_config("")
    with open(path) as handle:
        return parse_config(handle.read())


@contextlib.contextmanager
def _journal_scope(path: Optional[str]):
    """Record a session journal to ``path`` for the enclosed block."""
    from repro import obs

    if path is None:
        yield None
        return
    with obs.JournalRecorder(path) as journal, obs.scope(journal=journal):
        yield journal


def _answers(text: str) -> List[int]:
    """Parse ``--answers``: comma-separated 1s and 2s, else a usage error."""
    answers = [answer.strip() for answer in text.split(",")]
    if not all(answer in ("1", "2") for answer in answers):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated 1s and 2s, got {text!r}"
        )
    return [int(answer) for answer in answers]


def _deadline(text: str) -> float:
    """Parse ``--deadline``: finite seconds above 0, else a usage error."""
    from repro.serve.service import deadline_seconds

    try:
        return deadline_seconds(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds above 0, got {text!r}"
        ) from None


def _mode(args: argparse.Namespace) -> DisambiguationMode:
    """The disambiguation mode ``--top-bottom`` selects."""
    if args.top_bottom:
        return DisambiguationMode.TOP_BOTTOM
    return DisambiguationMode.FULL


def _campus_size(scale: float) -> Dict[str, int]:
    """``generate_campus_corpus`` sizes for ``scale`` times the paper's."""
    from repro.synth.campus import TOTAL_ACLS, TOTAL_ROUTE_MAPS

    return {
        "total_acls": max(1, round(TOTAL_ACLS * scale)),
        "route_maps": max(1, round(TOTAL_ROUTE_MAPS * scale)),
    }


def _corpus(which: str, seed: int, scale: float):
    """Generate the ``campus`` or ``cloud`` §3 corpus at ``scale``."""
    if which == "cloud":
        from repro.synth import generate_cloud_corpus

        return generate_cloud_corpus(seed=seed, scale=scale)
    from repro.synth import generate_campus_corpus

    return generate_campus_corpus(seed=seed, **_campus_size(scale))


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` plus a newline to ``path`` (temp file + rename)."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def cmd_add(args: argparse.Namespace) -> int:
    store = _read_config(args.config)
    oracle = ScriptedOracle(args.answers) if args.answers else StdioOracle()
    with _journal_scope(args.journal):
        session = ClarifySession(
            store=store, llm=SimulatedLLM(), oracle=oracle, mode=_mode(args)
        )
        try:
            report = session.request(args.intent, args.target)
        except (ClarifyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(
        f"! inserted at position {report.position} "
        f"({report.llm_calls} LLM calls, {report.questions} questions)",
        file=sys.stderr,
    )
    if args.diff:
        print(report.diff)
    else:
        print(render_config(session.store))
    return 0


def cmd_overlaps(args: argparse.Namespace) -> int:
    from repro.overlap import (
        AclCorpusStats,
        RouteMapCorpusStats,
        acl_overlap_report,
        route_map_overlap_report,
    )

    store = _read_config(args.config)
    acl_reports = [
        acl_overlap_report(acl, with_witnesses=args.verbose)
        for acl in store.acls()
    ]
    rm_reports = [
        route_map_overlap_report(rm, store, with_witnesses=args.verbose)
        for rm in store.route_maps()
    ]
    if acl_reports:
        print(AclCorpusStats.collect(acl_reports).render())
    if rm_reports:
        print(RouteMapCorpusStats.collect(rm_reports).render())
    if args.verbose:
        for report in acl_reports + rm_reports:
            for pair in report.pairs:
                kind = "conflict" if pair.conflicting else "overlap"
                extra = " (subset)" if pair.subset else ""
                print(f"{report.name}: {pair.seq_a} ~ {pair.seq_b}: {kind}{extra}")
                if pair.witness is not None:
                    print(pair.witness.render(indent="    "))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis import compare_route_policies

    store_a = _read_config(args.config_a)
    store_b = _read_config(args.config_b)
    differences = compare_route_policies(
        store_a.route_map(args.name),
        store_b.route_map(args.name),
        store_a,
        store_b,
        max_differences=args.limit,
    )
    if not differences:
        print("the two route-maps are behaviourally equivalent")
        return 0
    for idx, diff in enumerate(differences, start=1):
        print(f"=== difference {idx} ===")
        print(diff.render())
        print()
    return 2


def cmd_eval(args: argparse.Namespace) -> int:
    from repro.evalcase import build_figure3, figure4_rows

    with _journal_scope(args.journal):
        if args.from_configs:
            from repro.evalcase.devices import build_figure3_from_files

            result = build_figure3_from_files()
            print("(network reassembled from rendered device files)")
        else:
            result = build_figure3()
    print("Figure 4: router statistics")
    print(f"{'Router':<8}{'#Route-maps':<14}{'#LLM calls':<12}{'#Disambiguation'}")
    for name, maps, calls, interactions in figure4_rows(result.stats):
        print(f"{name:<8}{maps:<14}{calls:<12}{interactions}")
    print()
    print("Global policies:")
    ok = True
    for policy, holds in result.policy_results.items():
        print(f"  {policy}: {'PASS' if holds else 'FAIL'}")
        ok = ok and holds
    return 0 if ok else 1


def cmd_list_add(args: argparse.Namespace) -> int:
    """Disambiguated insertion into a prefix-list (the §7 extension)."""
    from repro.config.lists import PrefixListEntry
    from repro.core.disambiguator import disambiguate_prefix_list_entry
    from repro.core.workflow import check_target
    from repro.netaddr import Ipv4Prefix

    store = _read_config(args.config)
    try:
        entry = PrefixListEntry(
            seq=0,
            action=args.action,
            prefix=Ipv4Prefix.parse(args.prefix),
            ge=args.ge,
            le=args.le,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    oracle = ScriptedOracle(args.answers) if args.answers else StdioOracle()
    try:
        check_target(args.target)
        result = disambiguate_prefix_list_entry(
            store, args.target, entry, oracle
        )
    except ClarifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"! inserted at position {result.position} "
        f"({result.question_count} questions)",
        file=sys.stderr,
    )
    print(render_config(result.store))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one Clarify cycle under a recorder; print spans + metrics.

    With no arguments this traces the paper's §2 walkthrough (the
    ``ISP_OUT`` policy and intent), so it doubles as an instrumentation
    smoke test: the cross-check section asserts that the recorded
    counters agree with the cycle's :class:`~repro.core.UpdateReport`.
    """
    from repro import obs
    from repro.core import FirstOptionOracle

    if args.config:
        store = _read_config(args.config)
    else:
        store = parse_config(WALKTHROUGH_CONFIG)
    intent = args.intent if args.intent else WALKTHROUGH_INTENT
    oracle = (
        ScriptedOracle(args.answers) if args.answers else FirstOptionOracle()
    )
    recorder = obs.Recorder()
    with _journal_scope(args.journal), obs.recording(recorder):
        session = ClarifySession(
            store=store, llm=SimulatedLLM(), oracle=oracle, mode=_mode(args)
        )
        try:
            report = session.request(intent, args.target)
        except (ClarifyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.json:
        print(obs.to_json(recorder))
        return 0
    print("== span tree ==")
    print(obs.render_span_tree(recorder.roots))
    print()
    print("== metrics ==")
    print(obs.render_metrics(recorder))
    print()
    print("== cross-check vs UpdateReport ==")
    checks = (
        ("llm calls", report.llm_calls, recorder.counter("llm.calls")),
        ("questions", report.questions, recorder.counter("disambiguation.questions")),
        ("attempts", report.attempts, recorder.counter("synthesis.attempts")),
    )
    ok = True
    for label, from_report, from_metrics in checks:
        match = from_report == from_metrics
        ok = ok and match
        print(
            f"{label}: report={from_report} metrics={from_metrics} "
            f"{'OK' if match else 'MISMATCH'}"
        )
    return 0 if ok else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run a §3 overlap study (or the §5 evaluation) as a parallel campaign.

    With ``--benchmark`` the study runs twice — serial, then across the
    worker pool — asserting identical results and reporting both times.
    """
    import time

    from repro.perf import campaign

    def run(worker_count: Optional[int]):
        if args.which == "campus":
            acl_stats, rm_stats, _, _ = campaign.campus_overlap_study(
                workers=worker_count,
                chunks=args.chunks,
                seed=args.seed if args.seed is not None else 1421,
                **_campus_size(args.scale),
            )
            return acl_stats, rm_stats
        if args.which == "cloud":
            acl_stats, rm_stats, _ = campaign.cloud_overlap_study(
                workers=worker_count,
                chunks=args.chunks,
                seed=args.seed if args.seed is not None else 2025,
                scale=args.scale,
            )
            return acl_stats, rm_stats
        return campaign.evaluation_campaign(
            runs=args.runs, workers=worker_count, chunks=args.chunks
        ).results

    def render(outcome) -> None:
        if args.which == "eval":
            rows, policies = outcome[0]
            print("Figure 4: router statistics")
            for name, maps, calls, interactions in rows:
                print(f"  {name}: {maps} route-maps, {calls} LLM calls, "
                      f"{interactions} disambiguations")
            for policy, holds in policies.items():
                print(f"  {policy}: {'PASS' if holds else 'FAIL'}")
            return
        acl_stats, rm_stats = outcome
        print(acl_stats.render())
        print()
        print(rm_stats.render())

    if args.benchmark:
        start = time.perf_counter()
        serial_outcome = run(1)
        serial_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        parallel_outcome = run(args.workers)
        parallel_elapsed = time.perf_counter() - start
        if serial_outcome != parallel_outcome:
            print("error: serial and parallel results differ", file=sys.stderr)
            return 2
        render(parallel_outcome)
        print()
        print(f"serial:   {serial_elapsed:.2f}s")
        print(
            f"parallel: {parallel_elapsed:.2f}s "
            f"({args.workers or campaign.default_workers()} workers)"
        )
        return 0

    render(run(args.workers))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Lint a configuration (or a §3 corpus) with the symbolic checks.

    Exit status is 0 when no diagnostic reaches the ``--fail-on``
    threshold (and, in corpus mode, the archetype cross-check matches),
    1 otherwise.
    """
    from repro.lint import lint_campus_corpus, lint_store, render_json, render_text
    from repro.lint.diagnostics import Severity

    select = args.select.split(",") if args.select else None
    threshold = (
        None if args.fail_on == "none" else Severity.parse(args.fail_on)
    )
    with_witnesses = not args.no_witness

    if args.corpus == "campus":
        result = lint_campus_corpus(
            _corpus("campus", args.seed, args.scale),
            with_witnesses=with_witnesses,
        )
        print(result.render())
        return 0 if result.matches_expected else 1
    if args.corpus == "cloud":
        store = _corpus("cloud", args.seed, args.scale).store
        title = "cloud corpus"
    elif args.config:
        store = _read_config(args.config)
        title = args.config
    else:
        store = parse_config(WALKTHROUGH_CONFIG)
        title = "walkthrough (§2 ISP_OUT sample)"

    report = lint_store(store, select=select, with_witnesses=with_witnesses)
    if args.format == "json":
        print(render_json(report, title=title))
    else:
        print(render_text(report, title=title))
    return 1 if report.fails(threshold) else 0


def cmd_netlint(args: argparse.Namespace) -> int:
    """Network-wide static analysis over a whole device set.

    Exit status: 0 clean, 1 when a finding reaches the ``--fail-on``
    threshold, 2 when a ``--devices`` file does not parse, 3 when
    ``--baseline`` is given and the rendered JSON report differs from
    the blessed baseline byte for byte.
    """
    from repro.config.device import parse_device
    from repro.config.parser import ConfigParseError
    from repro.lint import render_json, render_text
    from repro.lint.diagnostics import Severity
    from repro.lint.netwide import (
        analyze_network,
        default_contracts,
        load_contracts,
        seed_devices,
    )

    threshold = (
        None if args.fail_on == "none" else Severity.parse(args.fail_on)
    )

    if args.devices:
        devices = []
        for path in args.devices:
            with open(path) as handle:
                text = handle.read()
            try:
                devices.append(parse_device(text))
            except ConfigParseError as exc:
                print(f"{path}: {exc}", file=sys.stderr)
                return 2
        title = f"{len(devices)} device file(s)"
    elif args.corpus:
        corpus = _corpus(args.corpus, args.seed, args.scale)
        devices = corpus.devices(args.device_count)
        title = f"{args.corpus} corpus ({len(devices)} devices)"
    else:
        devices = seed_devices(
            inject_shadow=args.inject_shadow,
            inject_drift=args.inject_drift,
            inject_route_shadow=args.inject_route_shadow,
        )
        title = f"seeded demo topology ({len(devices)} devices)"

    contracts = ()
    if args.contracts == "default":
        contracts = default_contracts()
    elif args.contracts:
        contracts = load_contracts(args.contracts)

    report = analyze_network(
        devices,
        contracts=contracts,
        workers=args.workers,
        chunks=args.chunks,
    )
    if args.title:
        title = args.title
    rendered_json = render_json(report, title=title)
    if args.format == "json":
        print(rendered_json)
    else:
        print(render_text(report, title=title))

    if args.output:
        _write_atomic(args.output, rendered_json)

    if args.baseline:
        try:
            with open(args.baseline) as handle:
                blessed = handle.read()
        except OSError as exc:
            print(f"error: cannot read baseline: {exc}", file=sys.stderr)
            return 3
        if blessed.rstrip("\n") != rendered_json.rstrip("\n"):
            print(
                f"BASELINE MISMATCH: report differs from {args.baseline}; "
                "regenerate with --output if the change is intended",
                file=sys.stderr,
            )
            return 3

    return 1 if report.fails(threshold) else 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-drive a recorded journal and verify it matches byte for byte.

    Exit status: 0 when the replayed session reproduces the journal
    exactly (same configs, diffs, verdicts, questions — all with zero
    LLM or oracle calls), 2 on divergence, 1 on a malformed journal.
    """
    import json as _json

    from repro import obs
    from repro.obs.replay import ReplayError, replay_journal

    try:
        events = obs.read_journal(args.journal)
    except (OSError, obs.JournalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        result = replay_journal(events)
    except (ReplayError, ClarifyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        payload = {
            "ok": result.ok,
            "cycles": result.cycles,
            "events": len(result.recorded_events),
            "matched_events": result.matched_events,
            "llm_calls_served": result.llm_calls_served,
            "answers_served": result.answers_served,
        }
        if result.divergence is not None:
            payload["divergence"] = {
                "seq": result.divergence.seq,
                "kind": result.divergence.kind,
                "detail": result.divergence.detail,
            }
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0 if result.ok else 2
    print(
        f"replayed {result.cycles} cycle{'s' if result.cycles != 1 else ''} "
        f"({result.llm_calls_served} recorded LLM responses, "
        f"{result.answers_served} recorded answers, 0 live calls)"
    )
    if result.ok:
        print(
            f"journal verified: all {len(result.recorded_events)} events "
            "reproduced exactly"
        )
        return 0
    print(
        f"DIVERGED: {result.matched_events}/{len(result.recorded_events)} "
        "events matched",
        file=sys.stderr,
    )
    if args.divergence and result.divergence is not None:
        print(result.divergence.render(), file=sys.stderr)
    else:
        print("(re-run with --divergence for the first mismatch)", file=sys.stderr)
    return 2


def cmd_bench_check(args: argparse.Namespace) -> int:
    """Diff a benchmark metric snapshot against the committed baseline.

    Counter mismatches are behavioural regressions and always fail;
    ``span.*`` timing regressions fail unless ``--timing-warn-only``.
    Exit status: 0 clean, 2 on regression, 1 on unreadable snapshots.
    """
    from repro.obs import regress

    try:
        baseline = regress.load_snapshot(args.baseline)
        current = regress.load_snapshot(args.current)
        report = regress.compare_snapshots(
            baseline, current, timing_warn_only=args.timing_warn_only
        )
    except regress.SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(regress.render_json(report))
    else:
        print(regress.render_text(report, verbose=args.verbose))
    return 0 if report.ok else 2


def _serve_loop(ops: Dict[str, Callable[[dict], Any]]) -> None:
    """Answer the JSONL commands on stdin, one reply line each, until
    ``quit`` or end of input (the protocol is tabled in docs/SERVING.md).

    ``ops`` maps an op to its handler, which returns the reply: a
    payload dict, a :class:`~repro.serve.service.ServeResponse`, or a
    :class:`~repro.serve.service.Ticket` of either.  An untagged command
    is answered before the next line is read; a tagged ticket is
    answered from the thread that resolves it.  Every reply echoes the
    command's ``tag`` and goes through one locked writer.
    """
    import json as _json
    import threading

    from repro.serve.service import AdmissionError, ServeResponse, Ticket

    out = sys.stdout
    out_lock = threading.Lock()

    def reply(tag: Any, payload: Any) -> None:
        if isinstance(payload, ServeResponse):
            payload = dict(payload.to_dict(), ok=payload.ok, op="request")
        if tag is not None:
            payload = dict(payload, tag=tag)
        line = _json.dumps(payload, sort_keys=True) + "\n"
        with out_lock:
            out.write(line)
            out.flush()

    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            command = _json.loads(line)
            if not isinstance(command, dict):
                raise ValueError("not a JSON object")
        except (ValueError, RecursionError) as exc:
            reply(None, {"ok": False, "error": f"bad command: {exc}"})
            continue
        tag, op = command.get("tag"), command.get("op")
        if op == "quit":
            reply(tag, {"ok": True, "op": "quit"})
            break
        handler = ops.get(op) if isinstance(op, str) else None
        if handler is None:
            reply(tag, {"ok": False, "error": f"unknown op {op!r}"})
            continue
        try:
            result = handler(command)
        except AdmissionError as exc:
            result = exc.response()
        except (KeyError, ValueError, TypeError, ClarifyError) as exc:
            result = {"ok": False, "op": op, "error": str(exc)}
        if not isinstance(result, Ticket):
            reply(tag, result)
        elif tag is None:
            reply(None, result.wait())
        else:
            result.then(functools.partial(reply, tag))


def _serve_router(args: argparse.Namespace) -> int:
    """``clarify serve --shards N``: the same loop over the shard router
    (:mod:`repro.serve.shard`), plus the chaos ops ``kill-shard`` (a
    SIGKILL) and ``restart-shard`` (a respawn with ``--restore``)."""
    from repro.serve.service import ServeRequest, command_field
    from repro.serve.shard import ShardedCluster

    for flag, value in (
        ("--restore", args.restore or None),
        ("--cache-dir", args.cache_dir),
        ("--metrics-port", args.metrics_port),
        ("--event-log", args.event_log),
    ):
        if value is not None:
            print(
                f"clarify serve: error: {flag} does not work with --shards",
                file=sys.stderr,
            )
            return 2
    cluster = ShardedCluster(
        shards=args.shards,
        workers_per_shard=args.workers,
        store_root=args.store_dir,
        high_water=args.high_water or 32,
        max_attempts=args.max_attempts,
        backend=args.backend,
    )

    def kill(command: dict) -> dict:
        shard = command_field(command, "shard", int)
        cluster.kill_shard(shard)
        return {"ok": True, "op": "kill-shard", "shard": shard}

    def restart(command: dict) -> dict:
        shard = command_field(command, "shard", int)
        restored = cluster.restart_shard(shard)
        return {"ok": True, "op": "restart-shard", "shard": shard, "restored": restored}

    def stats(command: dict) -> dict:
        return {
            "ok": True,
            "op": "stats",
            "shards": cluster.stats(),
            "rejected": cluster.rejected,
            "kills": cluster.kills,
            "restored": cluster.restored_sessions,
            "store_root": cluster.store_root,
        }

    print(
        f"router: {args.shards} shard(s) under {cluster.store_root}",
        file=sys.stderr,
    )
    sys.stderr.flush()
    with cluster:
        _serve_loop(
            {
                "open": lambda command: cluster.open(
                    command_field(command, "session", str),
                    command_field(command, "config", str, ""),
                ),
                "request": lambda command: cluster.submit(
                    ServeRequest.from_command(command, args.deadline)
                ),
                "close": lambda command: cluster.close_session(
                    command_field(command, "session", str)
                ),
                "stats": stats,
                "kill-shard": kill,
                "restart-shard": restart,
            }
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve Clarify sessions over the JSONL stdin/stdout protocol that
    docs/SERVING.md tables: the serving layer without a network, with
    the admission control, deadlines and per-session FIFO that
    ``clarify loadgen`` hammers.

    ``--store-dir`` keeps every session's journal in a
    :class:`~repro.serve.store.DurableSessionStore` and ``--restore``
    rebuilds the open sessions from it; a re-sent ``seq`` that resolved
    before a crash is answered from the journal.  ``--metrics-port``
    serves ``/metrics`` and ``/healthz`` on loopback, and ``--event-log``
    appends one wide event per request.  With ``--shards N`` this
    process is the shard router instead (``_serve_router``).
    """
    from repro import obs
    from repro.obs import telemetry as tele
    from repro.serve import ClarifyService, ServeRequest, SessionManager
    from repro.serve.loadgen import build_llm_stack
    from repro.serve.service import ServeResponse, command_field
    from repro.serve.store import DurableSessionStore

    if args.shards > 1:
        return _serve_router(args)

    metrics_port = args.metrics_port
    event_log = args.event_log or None
    telemetry_on = metrics_port is not None or event_log is not None

    stack = build_llm_stack(backend=args.backend, cache_dir=args.cache_dir)
    store = DurableSessionStore(args.store_dir) if args.store_dir else None
    manager = SessionManager(
        llm=stack.client,
        max_attempts=args.max_attempts,
        session_store=store,
    )
    restored_ids: List[str] = []
    if args.restore:
        if store is None:
            print("error: --restore requires --store-dir", file=sys.stderr)
            return 1
        restored_ids = manager.restore_all()
        print(
            f"restored {len(restored_ids)} session(s) from {args.store_dir}",
            file=sys.stderr,
        )
        sys.stderr.flush()

    recorder = None
    hub = None
    server = None
    exit_stack = contextlib.ExitStack()
    if store is not None:
        # Runs after the service has drained.  Sessions outlive a clean
        # shutdown: only an explicit "close" op tombstones them, and
        # journals are fsynced per event, so this only closes files.
        exit_stack.callback(store.shutdown)
    if telemetry_on:
        # Spans stay off: the hub still gets every span's duration, and
        # span trees grow without bound under a long-lived server.
        recorder = obs.Recorder(capture_spans=False)
        exit_stack.enter_context(obs.recording(recorder))
        hub = tele.install_hub(tele.TelemetryHub(sink=event_log))
        exit_stack.callback(hub.close)
        exit_stack.callback(tele.uninstall_hub)
        if metrics_port is not None:
            server = exit_stack.enter_context(
                tele.MetricsServer(port=metrics_port, recorder_fn=lambda: recorder)
            )
            print(
                f"telemetry: /metrics on 127.0.0.1:{server.port}",
                file=sys.stderr,
            )
            sys.stderr.flush()

    with exit_stack, ClarifyService(
        manager,
        workers=args.workers,
        high_water=64 if args.high_water is None else args.high_water,
    ) as service:

        def open_session(command: dict) -> dict:
            session = command_field(command, "session", str)
            config = command_field(command, "config", str, "")
            existing = manager.get(session) if command.get("idempotent") else None
            # A router re-send after a restore finds the session live,
            # rebuilt from its journal.
            managed = existing or manager.open(session, config)
            payload = {
                "ok": True,
                "op": "open",
                "session": managed.session_id,
                "config_sha256": managed.config_sha256(),
            }
            if existing is not None:
                payload["recovered"] = True
            return payload

        def request(command: dict) -> Any:
            request = ServeRequest.from_command(command, args.deadline)
            handle = manager.get(request.session)
            if request.seq is not None and handle is not None:
                replayed = handle.replayed_response(request.seq)
                if replayed is not None:
                    # Resolved before the crash; answer from the journal
                    # instead of running a second time.
                    assert isinstance(replayed, ServeResponse)
                    return dict(
                        replayed.to_dict(),
                        ok=replayed.ok,
                        op="request",
                        recovered=True,
                    )
            if command.get("tag") is None:
                return service.call(request)
            # Admission and the session's sequence number follow stdin
            # order; the request's own thread writes the reply.
            return service.submit(request)

        def close(command: dict) -> dict:
            session = command_field(command, "session", str)
            return {"ok": manager.close(session), "op": "close", "session": session}

        def stats(command: dict) -> dict:
            payload = {
                "ok": True,
                "op": "stats",
                "sessions": len(manager),
                "depth": service.depth(),
                "rejected": service.rejected,
                "restored": len(restored_ids),
                "backend": stack.backend,
                "upstream_llm_calls": stack.upstream_calls,
                "cache": stack.cached.stats() if stack.cached else None,
            }
            if store is not None:
                payload["store_dir"] = args.store_dir
            if telemetry_on:
                payload["telemetry"] = {
                    "metrics_port": server.port if server is not None else None,
                    "event_log": event_log,
                    "wide_events": hub.finished if hub else 0,
                    "completed": manager.completed_counts(),
                }
            return payload

        _serve_loop(
            {"open": open_session, "request": request, "close": close, "stats": stats}
        )
    if store is None:
        manager.close_all()
    return 0


def cmd_tail(args: argparse.Namespace) -> int:
    """Follow a wide-event request log with rolling latency/error stats.

    Prints one line per wide event (outcome, latency, trace id) plus a
    rolling-window summary every ``--every`` events.  With ``--follow``
    the log is tailed live until ``--idle-timeout`` seconds pass with no
    new events.  Exit status: 0 normally, 1 when the log is unreadable.
    """
    from repro.obs import telemetry as tele

    stats = tele.RollingStats(window=args.window)
    try:
        if args.follow:
            events = tele.follow_events(
                args.event_log, idle_timeout_s=args.idle_timeout
            )
        else:
            events = tele.iter_events(args.event_log)
        seen = 0
        for event in events:
            stats.add(event)
            seen += 1
            timings = event.get("timings", {})
            latency = float(timings.get("latency_s", 0.0))
            print(
                f"{event.get('request_id', '?'):<18} "
                f"{event.get('outcome', '?'):<18} "
                f"{latency * 1000:8.1f}ms  trace={event.get('trace_id', '?')}"
            )
            if args.every and seen % args.every == 0:
                summary = stats.summary()
                print(
                    f"-- last {summary['events']}/{summary['window']}: "
                    f"p50 {summary['p50_s'] * 1000:.1f}ms  "
                    f"p95 {summary['p95_s'] * 1000:.1f}ms  "
                    f"error-rate {summary['error_rate']:.3f}"
                )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = stats.summary()
    print(
        f"tail: {summary['events']} event(s) in window "
        f"(p50 {summary['p50_s'] * 1000:.1f}ms  "
        f"p95 {summary['p95_s'] * 1000:.1f}ms  "
        f"error-rate {summary['error_rate']:.3f})"
    )
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Run a seeded load campaign against the serving layer.

    Each ``--check`` adds the legs of one differential check
    (:func:`repro.serve.loadgen.run_checks`); the printed report is the
    base configuration's leg.  Exit status: 0 clean; 1 when any ticket
    never resolved, any request ended in ``internal-error``, an SLO
    objective is alerting, or a check failed.
    """
    import json as _json

    from repro import obs
    from repro.obs import slo as slo_mod
    from repro.serve import run_checks

    slo_config = None
    if args.slo:
        try:
            slo_config = slo_mod.load_config(args.slo)
        except (OSError, slo_mod.SLOConfigError) as exc:
            print(f"error: cannot load SLO config: {exc}", file=sys.stderr)
            return 1

    try:
        run = run_checks(
            args.check or (),
            args.sessions,
            args.requests_per_session,
            workers=args.workers,
            seed=args.seed,
            telemetry=not args.no_telemetry,
            cache_dir=args.cache_dir,
            store_root=args.store_dir,
            max_attempts=args.max_attempts,
            backend=args.backend,
            fault_rate=args.fault_rate,
            deadline_s=args.deadline,
            high_water=args.high_water,
            netwide=args.netwide,
            event_log=args.event_log,
            slo=slo_config,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = run.report
    failures = run.failures
    if report.unresolved:
        failures.append(f"{report.unresolved} request(s) never resolved")
    internal = report.outcomes.get("internal-error", 0)
    if internal:
        failures.append(f"{internal} internal-error outcome(s)")

    slo_alerting: List[str] = []
    slo_block = report.telemetry.get("slo") if report.telemetry else None
    if slo_block and slo_block.get("alerting"):
        slo_alerting = list(slo_block["alerting"])
        failures.append(
            "SLO burn-rate alert: " + ", ".join(slo_alerting)
        )

    # schema_version 2 added the meta run-metadata block and the
    # telemetry/slo sections; 3 replaced the per-check sections with
    # the legs block.  "version" is kept for old tooling.
    payload = {
        "schema_version": 3,
        "version": 3,
        "meta": obs.run_metadata(),
        "loadgen": report.to_dict(),
        "legs": run.to_dict(),
    }
    if args.output:
        _write_atomic(args.output, _json.dumps(payload, indent=1, sort_keys=True))

    if args.json:
        print(_json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(
            f"loadgen: {report.requests} requests over {report.sessions} "
            f"sessions, {report.workers} workers, seed {report.seed} "
            f"({run.campaigns} campaign(s))"
        )
        print(
            f"  wall {report.wall_s:.2f}s  "
            f"throughput {report.throughput_rps:.1f} req/s"
        )
        quant = report.latency_quantiles
        print(
            f"  latency p50 {quant['p50'] * 1000:.1f}ms  "
            f"p95 {quant['p95'] * 1000:.1f}ms  "
            f"p99 {quant['p99'] * 1000:.1f}ms"
        )
        print(f"  outcomes {report.outcomes}")
        print(
            f"  dedup {report.dedup}  injected_faults "
            f"{report.injected_faults}  rejected "
            f"{report.rejected_submissions}"
        )
        if report.netwide:
            print(f"  netwide {report.netwide}")
        for name, result in run.checks.items():
            status = "OK" if result.ok else "FAILED"
            print(f"  check {name} {status}: {result.summary}")
        if report.telemetry.get("enabled"):
            coverage = report.telemetry.get("trace_coverage", {})
            print(
                f"  telemetry: {report.telemetry.get('wide_events', 0)} "
                f"wide events, trace coverage "
                f"{'complete' if coverage.get('complete') else 'INCOMPLETE'}"
            )
            if slo_block is not None:
                verdict = (
                    "alerting: " + ", ".join(slo_alerting)
                    if slo_alerting
                    else "ok"
                )
                print(f"  slo: {verdict}")
    for failure in failures:
        print(f"LOADGEN FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clarify",
        description="LLM-based incremental network configuration synthesis "
        "with intent disambiguation (HotNets '25 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags that several subcommands share, each declared once here and
    # handed to its subcommands as an argparse parent.
    def shared() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False)

    journal = shared()
    journal.add_argument(
        "--journal",
        metavar="PATH",
        help="record a replayable session journal (JSONL) to PATH",
    )
    answers = shared()
    answers.add_argument(
        "--answers",
        type=_answers,
        help="comma-separated scripted answers, each 1 or 2 (default: ask "
        "on stdin; trace answers 1 to every question)",
    )
    top_bottom = shared()
    top_bottom.add_argument(
        "--top-bottom",
        action="store_true",
        help="use the prototype's top/bottom-only disambiguation",
    )
    report_format = shared()
    report_format.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: %(default)s)",
    )
    output = shared()
    output.add_argument(
        "--output",
        metavar="PATH",
        help="write the JSON report to PATH (atomic replace)",
    )
    linting = shared()
    linting.add_argument(
        "--corpus",
        choices=("campus", "cloud"),
        help="analyze a generated §3 corpus instead of files; lint's campus "
        "mode cross-checks recovered archetype counts against the "
        "generator, netlint sees no BGP topology (drift-only analysis)",
    )
    linting.add_argument(
        "--seed", type=int, default=2025, help="corpus generator seed"
    )
    linting.add_argument(
        "--scale", type=float, default=0.01, help="corpus size scale factor"
    )
    linting.add_argument(
        "--fail-on",
        choices=("error", "warning", "info", "none"),
        default="error",
        help="exit 1 when a finding at or above this severity is present "
        "(default: %(default)s)",
    )
    serving = shared()
    serving.add_argument(
        "--workers",
        type=int,
        default=4,
        help="Clarify cycles run at once, per shard with serve --shards "
        "(default: %(default)s)",
    )
    serving.add_argument(
        "--deadline",
        type=_deadline,
        default=None,
        help="per-request time budget in seconds, a finite number above 0 "
        "(default: none)",
    )
    serving.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="synthesis retry threshold per request (default: %(default)s)",
    )
    serving.add_argument(
        "--backend",
        default="simulated",
        help="LLM backend spec: 'simulated', 'remote', or a comma-separated "
        "fallback chain like 'remote,simulated' (default: %(default)s)",
    )
    serving.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="durable response cache directory (memoizes verified-pure "
        "responses across runs)",
    )
    serving.add_argument(
        "--event-log",
        metavar="PATH",
        help="append one wide event per request as JSONL to PATH; follow "
        "it with clarify tail",
    )

    p_add = sub.add_parser(
        "add",
        parents=[answers, top_bottom, journal],
        help="run one incremental update",
    )
    p_add.add_argument("intent", help="the English intent for the new stanza")
    p_add.add_argument("--config", help="existing IOS configuration file")
    p_add.add_argument(
        "--target", required=True, help="route-map or ACL to update"
    )
    p_add.add_argument(
        "--diff",
        action="store_true",
        help="print a unified diff of the change instead of the full config",
    )
    p_add.set_defaults(func=cmd_add)

    p_overlaps = sub.add_parser("overlaps", help="run the §3 overlap analysis")
    p_overlaps.add_argument("--config", required=True)
    p_overlaps.add_argument("--verbose", action="store_true")
    p_overlaps.set_defaults(func=cmd_overlaps)

    p_compare = sub.add_parser(
        "compare", help="differential examples between two route-maps"
    )
    p_compare.add_argument("--config-a", required=True)
    p_compare.add_argument("--config-b", required=True)
    p_compare.add_argument("--name", required=True, help="route-map name")
    p_compare.add_argument("--limit", type=int, default=3)
    p_compare.set_defaults(func=cmd_compare)

    p_eval = sub.add_parser(
        "eval", parents=[journal], help="run the §5 evaluation (Figure 4)"
    )
    p_eval.add_argument(
        "--from-configs",
        action="store_true",
        help="re-check the policies on a network reassembled from rendered "
        "device configuration files",
    )
    p_eval.set_defaults(func=cmd_eval)

    p_list = sub.add_parser(
        "list-add",
        parents=[answers],
        help="insert a prefix-list entry with disambiguation (§7 extension)",
    )
    p_list.add_argument("--config", help="existing IOS configuration file")
    p_list.add_argument("--target", required=True, help="prefix-list name")
    p_list.add_argument("--action", choices=("permit", "deny"), required=True)
    p_list.add_argument("--prefix", required=True, help="e.g. 10.1.2.0/24")
    p_list.add_argument("--ge", type=int)
    p_list.add_argument("--le", type=int)
    p_list.set_defaults(func=cmd_list_add)

    p_trace = sub.add_parser(
        "trace",
        parents=[answers, top_bottom, journal],
        help="run one instrumented Clarify cycle and print the span tree "
        "plus metric summary (defaults to the §2 walkthrough)",
    )
    p_trace.add_argument(
        "intent",
        nargs="?",
        help="English intent for the new stanza (default: the §2 walkthrough)",
    )
    p_trace.add_argument(
        "--config",
        help="existing IOS configuration file (default: the §2 ISP_OUT sample)",
    )
    p_trace.add_argument(
        "--target",
        default=WALKTHROUGH_TARGET,
        help="route-map or ACL to update (default: %(default)s)",
    )
    p_trace.add_argument(
        "--json",
        action="store_true",
        help="emit the trace snapshot as JSON instead of text",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_campaign = sub.add_parser(
        "campaign",
        help="fan a §3 overlap study or the §5 evaluation across a "
        "process pool (deterministic results and counters)",
    )
    p_campaign.add_argument("which", choices=("campus", "cloud", "eval"))
    p_campaign.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: the CPU count; 1 runs in-process)",
    )
    p_campaign.add_argument(
        "--chunks",
        type=int,
        default=None,
        help="chunk count (default: the worker count); fix it to make "
        "the cache.* counters machine-independent",
    )
    p_campaign.add_argument("--seed", type=int, default=None)
    p_campaign.add_argument("--scale", type=float, default=1.0)
    p_campaign.add_argument(
        "--runs", type=int, default=1, help="eval repetitions (eval only)"
    )
    p_campaign.add_argument(
        "--benchmark",
        action="store_true",
        help="time serial vs parallel and assert identical results",
    )
    p_campaign.set_defaults(func=cmd_campaign)

    p_lint = sub.add_parser(
        "lint",
        parents=[linting, report_format],
        help="symbolic static analysis of a configuration or §3 corpus",
    )
    p_lint.add_argument(
        "--config",
        help="IOS configuration file to lint (default: the §2 ISP_OUT sample)",
    )
    p_lint.add_argument(
        "--select",
        help="comma-separated diagnostic codes to run (e.g. RM001,AC001)",
    )
    p_lint.add_argument(
        "--no-witness",
        action="store_true",
        help="skip witness extraction (faster on large corpora)",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_netlint = sub.add_parser(
        "netlint",
        parents=[linting, report_format, output],
        help="network-wide static analysis: cross-device conflicts, "
        "drift, and reachability contracts with symbolic witnesses",
    )
    p_netlint.add_argument(
        "--devices",
        nargs="+",
        metavar="FILE",
        help="device configuration files forming the network (default: "
        "the seeded demo topology)",
    )
    p_netlint.add_argument(
        "--device-count",
        type=int,
        default=24,
        help="devices to materialise from the corpus (default: 24)",
    )
    p_netlint.add_argument(
        "--inject-shadow",
        action="store_true",
        help="demo: inject a cross-device ACL shadow into the seeded "
        "topology (NW001)",
    )
    p_netlint.add_argument(
        "--inject-drift",
        action="store_true",
        help="demo: inject same-named ACL drift into the seeded topology "
        "(NW005)",
    )
    p_netlint.add_argument(
        "--inject-route-shadow",
        action="store_true",
        help="demo: inject a route-map chain cancellation into the seeded "
        "topology (NW003 + NW007)",
    )
    p_netlint.add_argument(
        "--contracts",
        metavar="FILE",
        help="reachability contract file ('SRC ~> PREFIX must-reach'); "
        "the literal value 'default' loads the demo topology's contracts",
    )
    p_netlint.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan path analysis across a process pool (default: serial)",
    )
    p_netlint.add_argument(
        "--chunks",
        type=int,
        default=None,
        help="chunk count for the pool (default: calibrated)",
    )
    p_netlint.add_argument(
        "--baseline",
        metavar="PATH",
        help="compare the JSON report against a blessed baseline file; "
        "exit 3 on any byte difference",
    )
    p_netlint.add_argument("--title", help="report title override")
    p_netlint.set_defaults(func=cmd_netlint)

    p_replay = sub.add_parser(
        "replay",
        help="re-drive a recorded session journal with zero LLM calls "
        "and verify it reproduces exactly",
    )
    p_replay.add_argument("journal", help="journal file (JSONL) to replay")
    p_replay.add_argument(
        "--divergence",
        action="store_true",
        help="on mismatch, print the first diverging event in full",
    )
    p_replay.add_argument(
        "--json",
        action="store_true",
        help="emit the replay verdict as JSON",
    )
    p_replay.set_defaults(func=cmd_replay)

    p_bench = sub.add_parser(
        "bench-check",
        parents=[report_format],
        help="compare a benchmark metric snapshot against the committed "
        "baseline (perf-regression gate)",
    )
    p_bench.add_argument(
        "--baseline",
        default="benchmarks/BASELINE_obs.json",
        help="blessed snapshot to compare against (default: %(default)s)",
    )
    p_bench.add_argument(
        "--current",
        default="benchmarks/BENCH_obs.json",
        help="snapshot from the run under test (default: %(default)s)",
    )
    p_bench.add_argument(
        "--timing-warn-only",
        action="store_true",
        help="report timing regressions as warnings instead of failures "
        "(for noisy shared runners)",
    )
    p_bench.add_argument(
        "--verbose",
        action="store_true",
        help="show every compared metric, not just the interesting rows",
    )
    p_bench.set_defaults(func=cmd_bench_check)

    p_serve = sub.add_parser(
        "serve",
        parents=[serving],
        help="serve many Clarify sessions concurrently over a JSONL "
        "stdin/stdout request loop",
    )
    p_serve.add_argument(
        "--high-water",
        type=int,
        default=None,
        help="admitted-but-unfinished requests at which new ones are "
        "rejected with a retry-after (default: 64; 32 per shard with "
        "--shards)",
    )
    p_serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a live Prometheus /metrics + /healthz endpoint on "
        "127.0.0.1:PORT (0 picks a free port, announced on stderr)",
    )
    p_serve.add_argument(
        "--store-dir",
        metavar="DIR",
        help="durable session store: fsynced per-session journals plus a "
        "manifest under DIR, restorable after a crash",
    )
    p_serve.add_argument(
        "--restore",
        action="store_true",
        help="with --store-dir, rebuild every previously open session "
        "from its journal (deterministic replay) before serving",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run as a router over N shard serve processes placed by a "
        "consistent-hash ring (each shard gets its own store under "
        "--store-dir and runs --workers cycles at once); adds "
        "kill-shard/restart-shard chaos ops",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_tail = sub.add_parser(
        "tail",
        help="follow a wide-event request log and print rolling "
        "p50/p95 latency and error rate",
    )
    p_tail.add_argument(
        "event_log",
        help="wide-event JSONL file written by clarify serve --event-log "
        "or clarify loadgen --event-log",
    )
    p_tail.add_argument(
        "--window",
        type=int,
        default=128,
        help="rolling-window size in events (default: %(default)s)",
    )
    p_tail.add_argument(
        "--every",
        type=int,
        default=16,
        metavar="N",
        help="print a rolling summary every N events (0 disables; "
        "default: %(default)s)",
    )
    p_tail.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing the log for new events instead of stopping "
        "at end of file",
    )
    p_tail.add_argument(
        "--idle-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="with --follow, stop after this long with no new events "
        "(default: %(default)s)",
    )
    p_tail.set_defaults(func=cmd_tail)

    from repro.serve.loadgen import (
        CHECKS,
        SHARDS,
        TELEMETRY_BOUND,
        TELEMETRY_PAIRS,
    )

    p_loadgen = sub.add_parser(
        "loadgen",
        parents=[serving, output],
        help="drive the serving layer with a deterministic seeded "
        "campus/cloud intent mix and report throughput + latency",
    )
    p_loadgen.add_argument(
        "--sessions", type=int, default=16, help="sessions to open (default: 16)"
    )
    p_loadgen.add_argument(
        "--requests-per-session",
        type=int,
        default=2,
        help="intents per session (default: 2)",
    )
    p_loadgen.add_argument(
        "--seed", type=int, default=2025, help="workload seed (default: 2025)"
    )
    p_loadgen.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="FaultyLLM chaos rate in [0, 1] (default: off)",
    )
    p_loadgen.add_argument(
        "--high-water",
        type=int,
        default=64,
        help="admitted-but-unfinished requests at which new ones are "
        "rejected (default: 64)",
    )
    p_loadgen.add_argument(
        "--netwide",
        action="store_true",
        help="attach the network-wide advisory gate to every session "
        "(edits embedded onto the demo topology's EDGE router) and "
        "report the netwide.* conflict counters as a quality axis",
    )
    p_loadgen.add_argument(
        "--check",
        action="append",
        choices=CHECKS,
        help="also run the legs of a differential check (repeatable): "
        "serial = 1 vs --workers workers; cache = uncached, cold and warm "
        "response cache (in --cache-dir or a fresh temp directory) with "
        f"falling upstream calls; telemetry = {TELEMETRY_PAIRS} off/on "
        f"pairs within a {TELEMETRY_BOUND:g}x p50 ratio; shard = serial, "
        f"pooled, {SHARDS} shard processes, and {SHARDS} shards with one "
        "SIGKILLed and restored.  Every leg's outcome fingerprint must "
        "match",
    )
    p_loadgen.add_argument(
        "--store-dir",
        metavar="DIR",
        help="root directory for the shard check's durable session "
        "stores (default: a fresh temp directory)",
    )
    p_loadgen.add_argument(
        "--no-telemetry",
        action="store_true",
        help="run without the telemetry hub (no wide events, no SLO "
        "evaluation, no trace-coverage check)",
    )
    p_loadgen.add_argument(
        "--slo",
        metavar="PATH",
        help="evaluate burn rates against the SLO config at PATH instead "
        "of the built-in default objectives; an alerting objective fails "
        "the run",
    )
    p_loadgen.add_argument(
        "--json",
        action="store_true",
        help="print the report as JSON instead of the text summary",
    )
    p_loadgen.set_defaults(func=cmd_loadgen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
