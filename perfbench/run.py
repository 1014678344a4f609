"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rm-edit --seed 1421 --seconds 20 --trace 0

``--seconds`` sizes the op list, which is a pure function of workload,
seed and seconds; a 2-vCPU machine needs about that long to run it.
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same op list untraced and then traced, prints the per-layer ledger and
the per-layer metrics, and writes the spans under ``.perfbench_run/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every output check passed.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1421)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared_metrics(trace):
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _pinned_fingerprint(workloads, args):
    """The outcome fingerprint pinned for the default seed at the
    reference size, or None for other runs."""
    if (args.seed, args.seconds) != (workloads.DEFAULT_SEED, workloads.REFERENCE_SECONDS):
        return None
    with open(HERE / "pinned.json") as handle:
        return json.load(handle)[args.workload]


def _peak_rss_mb(workloads):
    """The largest VmHWM among this process and its live pool workers."""
    peaks = [workloads.vm_hwm_mb()]
    for child in multiprocessing.active_children():
        try:
            peaks.append(workloads.vm_hwm_mb(str(child.pid)))
        except OSError:  # the worker exited meanwhile
            pass
    return max(peaks)


def _end_to_end(workloads, result, setup_s, peak_rss_mb):
    latencies = [op.latency for op in result.ops]
    asked = [op.first_question for op in result.ops if op.first_question is not None]
    return {
        "latency_p50_s": workloads.percentile(latencies, 50),
        "latency_p90_s": workloads.percentile(latencies, 90),
        "first_question_p50_s": workloads.percentile(asked, 50),
        "throughput_per_s": result.work / result.wall,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def _per_layer(workloads, tracing, ledger, traced, baseline, pooled, corpus_s):
    per_op = 1.0 / len(traced.ops)
    counters = traced.counters
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    metrics = {
        "serve.queue_wait_s": statistics.fmean(op.queue_wait for op in traced.ops),
        "serve.cpu_share": sum(ledger.op_cpu.values()) / ledger.wall,
        "llm.calls": ledger.count("TranscribingClient.complete") * per_op,
        "disambiguator.questions": sum(op.key.get("questions", 0) for op in traced.ops) * per_op,
        "compare.calls": ledger.count("compare_route_policies", "compare_filters") * per_op,
        "prefixspace.subtract_calls": ledger.count("PrefixSpace.subtract") * per_op,
        "prefixspace.complement_calls": ledger.count("PrefixSpace.complement") * per_op,
        "prefixspace.spaces_built": ledger.count("PrefixSpace.__post_init__") * per_op,
        "headerspace.reachable_calls": ledger.count("acl_reachable_spaces") * per_op,
        "kernels.calls": ledger.count(*(name for _, name in tracing.LAYERS["kernels"])) * per_op,
        "cache.hits": hits * per_op,
        "cache.misses": misses * per_op,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "journal.events": ledger.count("JournalRecorder.event") * per_op,
        "campaign.chunks": counters.get("campaign.chunks", 0) * per_op,
        "pool.overhead_s": 0.0,
        "synth.corpus_s": corpus_s,
        "gc.pause_s": ledger.gc_pause_s * per_op,
        "trace.overhead": statistics.median(ledger.op_wall.values())
        / statistics.median(op.latency for op in baseline.ops),
        "ledger.unattributed_share": abs(ledger.unattributed_share()),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = ledger.layer(layer) * per_op
    if pooled is not None:
        # The pooled wall time beyond the traced task time shared over the
        # workers: pickling, pipes and waiting for the slowest chunk.
        task_s = ledger.inclusive_s.get("overlap", 0.0)
        metrics["pool.overhead_s"] = (pooled.wall - task_s / workloads.WORKERS) * per_op
    return metrics


def _print_ledger(ledger):
    print(f"ledger: {len(ledger.op_wall)} ops, {ledger.wall:.3f} s op wall")
    for layer, seconds, share in ledger.shares():
        print(f"ledger: {layer:<14} {seconds:10.4f} s {share:8.2%}")
    print(f"ledger: {'queue wait':<14} {ledger.queue_wait_s:10.4f} s "
          f"{ledger.queue_wait_s / ledger.wall:8.2%}")
    print(f"ledger: {'unattributed':<14} {ledger.wall - ledger.attributed():10.4f} s "
          f"{ledger.unattributed_share():8.2%}")


def _run(args, workloads, tracing, import_s, scratch):
    prepare = workloads.WORKLOADS[args.workload]
    setup_times, corpus_times, digests = [], [], set()
    prepared = None
    for _ in range(SETUP_REPEATS):
        if prepared is not None:
            prepared.close()
            prepared = None
        gc.collect()
        started = time.perf_counter()
        prepared = prepare(args.seed, args.seconds, scratch)
        setup_times.append(time.perf_counter() - started)
        corpus_times.append(prepared.corpus_s)
        digests.add(prepared.digest())
    if len(digests) != 1:
        raise AssertionError("the op list differs between set-ups of one seed")
    (op_list_digest,) = digests
    setup_s = import_s + statistics.median(setup_times)
    print(
        f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"ops={prepared.op_count} clients={prepared.clients} "
        f"campaign={prepared.campaign or 'none'} op-list={op_list_digest[:16]}"
    )
    pinned = _pinned_fingerprint(workloads, args)
    checks = []
    gc.collect()

    if not args.trace:
        result = prepared.run_pass()
        passes = [result]
        metrics = _end_to_end(workloads, result, setup_s, _peak_rss_mb(workloads))
        fingerprint = result.fingerprint
    else:
        pooled = prepared.run_pass() if prepared.campaign else None
        # Pool workers are forked processes the tracer cannot see, so the
        # audit's baseline and traced passes run the same chunks in-process.
        inline = {"pool": "serial"} if prepared.campaign else {}
        baseline = prepared.run_pass(**inline)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = prepared.run_pass(around_op=tracer.op, **inline)
        ledger = tracer.ledger(queue_wait_s=sum(op.queue_wait for op in traced.ops))
        spans_dir = ROOT / ".perfbench_run" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(str(spans_dir / f"{args.workload}-seed{args.seed}.jsonl.gz"))
        _print_ledger(ledger)
        passes = [p for p in (pooled, baseline, traced) if p is not None]
        metrics = _per_layer(
            workloads, tracing, ledger, traced, baseline, pooled, statistics.median(corpus_times)
        )
        fingerprint = baseline.fingerprint
        checks.append(("traced fingerprint equals untraced", traced.fingerprint == fingerprint))
        if pooled is not None:
            checks.append(("pooled fingerprint equals in-process", pooled.fingerprint == fingerprint))
        checks.append(
            (f"unattributed share within {tracing.MAX_UNATTRIBUTED:.0%}", ledger.closes())
        )
    prepared.close()

    failed = sum(p.failed for p in passes)
    checks.append(("every op passed its output check", failed == 0))
    checks.append(("run-level output checks", all(p.checks_ok for p in passes)))
    if pinned is not None:
        checks.append(("fingerprint matches pinned.json", fingerprint == pinned))
    print(f"perfbench: fingerprint={fingerprint}")
    for label, ok in checks:
        print(f"perfbench: check {'ok ' if ok else 'FAILED'} {label}")

    declared = _declared_metrics(args.trace)
    if set(metrics) != set(declared):
        raise AssertionError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")
    correct = all(ok for _, ok in checks)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(len(p.ops) for p in passes),
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()
                },
            }
        )
    )
    return 0 if correct else 1


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no Clarify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import tracing, workloads

    import_s = time.perf_counter() - STARTED
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_run" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workloads, tracing, import_s, str(scratch))
    finally:
        from repro.perf import pool

        pool.shutdown_shared_pool()
        for child in multiprocessing.active_children():
            child.join(timeout=10)
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
