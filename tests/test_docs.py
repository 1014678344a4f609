"""Docs lint: every ``repro.*`` path and ``clarify`` subcommand the
documentation mentions must actually exist.

Checks five things across ``README.md`` and ``docs/*.md``:

1. import lines inside ```python blocks resolve (module imports, and
   every imported name is an attribute or submodule);
2. inline-code dotted references like ``repro.config.device.parse_device``
   resolve to a module or a module attribute;
3. ``clarify <subcommand>`` invocations inside ```bash blocks (and in
   inline code) name real subcommands of the CLI parser;
4. every ``--flag`` those bash invocations pass (``\\`` line
   continuations folded) is accepted by that subcommand's parser;
5. every ``CLARIFY_*`` / ``ANTHROPIC_*`` / ``REPRO_*`` environment
   variable the docs mention is actually read somewhere under ``src/``.

Plus per-doc coverage floors (SERVING.md, LLM_BACKENDS.md) and a
README index-completeness check over ``docs/*.md``.
"""

import argparse
import importlib
import pathlib
import re

import pytest

from repro.cli import build_parser

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO_ROOT / "README.md"] + list((REPO_ROOT / "docs").glob("*.md"))
)

FENCE_RE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)
IMPORT_FROM_RE = re.compile(r"^\s*from\s+(repro[\w.]*)\s+import\s+(.+)$")
IMPORT_RE = re.compile(r"^\s*import\s+(repro[\w.]*)\s*$")
DOTTED_REF_RE = re.compile(r"`(repro(?:\.\w+)+)(?:\(\))?`")
CLARIFY_RE = re.compile(r"^\s*clarify\s+([\w-]+)")
FLAG_RE = re.compile(r"(--[\w-]+)")
ENV_VAR_RE = re.compile(r"\b((?:CLARIFY|ANTHROPIC|REPRO)_[A-Z0-9_]+)\b")


def fenced_blocks(text, language):
    return [
        body for lang, body in FENCE_RE.findall(text) if lang == language
    ]


def resolves(dotted):
    """True if ``dotted`` is an importable module or a module attribute."""
    try:
        importlib.import_module(dotted)
        return True
    except ImportError:
        pass
    if "." not in dotted:
        return False
    parent, _, attr = dotted.rpartition(".")
    try:
        module = importlib.import_module(parent)
    except ImportError:
        return False
    return hasattr(module, attr)


def subparsers():
    parser = build_parser()
    action = next(
        a
        for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return dict(action.choices)


def subcommands():
    return set(subparsers())


def subcommand_flags(name):
    """Every ``--flag`` the named subcommand accepts."""
    return {
        option
        for action in subparsers()[name]._actions
        for option in action.option_strings
        if option.startswith("--")
    }


def clarify_invocations(text):
    """``(subcommand, [flags])`` per ``clarify`` call in bash blocks.

    Shell ``\\`` line continuations are folded first, so flags on
    wrapped lines count against the command that opened them.
    """
    invocations = []
    for block in fenced_blocks(text, "bash"):
        folded = re.sub(r"\\\n", " ", block)
        for line in folded.splitlines():
            line = line.split("#")[0]
            match = re.search(r"\bclarify\s+([\w-]+)", line)
            if match:
                invocations.append(
                    (match.group(1), FLAG_RE.findall(line[match.end():]))
                )
    return invocations


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[p.name for p in DOC_FILES]
)
class TestDocsLint:
    def test_python_block_imports_resolve(self, doc):
        errors = []
        for block in fenced_blocks(doc.read_text(), "python"):
            for line in block.splitlines():
                match = IMPORT_FROM_RE.match(line)
                if match:
                    module_name, names = match.groups()
                    try:
                        module = importlib.import_module(module_name)
                    except ImportError:
                        errors.append(f"{line.strip()}: no module {module_name}")
                        continue
                    for name in names.split(","):
                        name = name.strip().split(" as ")[0]
                        if not name or name == "(":
                            continue
                        if not (
                            hasattr(module, name)
                            or resolves(f"{module_name}.{name}")
                        ):
                            errors.append(
                                f"{line.strip()}: {module_name} has no {name}"
                            )
                    continue
                match = IMPORT_RE.match(line)
                if match and not resolves(match.group(1)):
                    errors.append(f"{line.strip()}: does not import")
        assert not errors, f"{doc.name}:\n" + "\n".join(errors)

    def test_dotted_references_resolve(self, doc):
        stale = sorted(
            {
                ref
                for ref in DOTTED_REF_RE.findall(doc.read_text())
                if not resolves(ref)
            }
        )
        assert not stale, f"{doc.name} references unknown paths: {stale}"

    def test_clarify_subcommands_exist(self, doc):
        known = subcommands()
        text = doc.read_text()
        used = set()
        for block in fenced_blocks(text, "bash"):
            for line in block.splitlines():
                match = CLARIFY_RE.match(line)
                if match:
                    used.add(match.group(1))
        for inline in re.findall(r"`clarify\s+([\w-]+)[^`]*`", text):
            used.add(inline)
        unknown = sorted(used - known)
        assert not unknown, f"{doc.name} uses unknown subcommands: {unknown}"

    def test_clarify_flags_exist(self, doc):
        """Every --flag a bash example passes is accepted by the parser."""
        known = subcommands()
        errors = []
        for sub, flags in clarify_invocations(doc.read_text()):
            if sub not in known:
                continue  # test_clarify_subcommands_exist reports these
            unknown = sorted(set(flags) - subcommand_flags(sub))
            if unknown:
                errors.append(f"clarify {sub}: unknown flags {unknown}")
        assert not errors, f"{doc.name}:\n" + "\n".join(errors)

    def test_env_vars_are_read_by_the_source(self, doc):
        """Every env var the docs mention is read somewhere in src/."""
        mentioned = set(ENV_VAR_RE.findall(doc.read_text()))
        if not mentioned:
            return
        source = "\n".join(
            path.read_text()
            for path in (REPO_ROOT / "src").rglob("*.py")
        )
        unread = sorted(var for var in mentioned if var not in source)
        assert not unread, (
            f"{doc.name} mentions env vars never read in src/: {unread}"
        )


def test_doc_set_is_present():
    names = {path.name for path in DOC_FILES}
    assert {
        "README.md",
        "ARCHITECTURE.md",
        "OBSERVABILITY.md",
        "TUTORIAL.md",
        "PERFORMANCE.md",
        "SERVING.md",
        "LLM_BACKENDS.md",
    } <= names


def test_readme_layout_indexes_every_doc():
    """The README repository-layout block lists every file in docs/."""
    readme = (REPO_ROOT / "README.md").read_text()
    missing = sorted(
        f"docs/{path.name}"
        for path in (REPO_ROOT / "docs").glob("*.md")
        if f"docs/{path.name}" not in readme
    )
    assert not missing, f"README.md does not mention: {missing}"


def test_serving_doc_covers_the_layer():
    text = (REPO_ROOT / "docs" / "SERVING.md").read_text()
    for needle in (
        "admission control",
        "SessionManager",
        "ClarifyService",
        "DedupClient",
        "TimeBudget",
        "loadgen",
        "LLM_BACKENDS.md",
    ):
        assert needle in text, f"SERVING.md does not mention {needle}"


def test_lint_doc_covers_netwide():
    text = (REPO_ROOT / "docs" / "LINT.md").read_text()
    for needle in (
        "NW001",
        "NW002",
        "NW003",
        "NW004",
        "NW005",
        "NW006",
        "NW007",
        "NW008",
        "NetwideAnalyzer",
        "NetwideGate",
        "must-not-reach",
        "netwide.paths.cached",
        "--contracts",
        "--inject-shadow",
        "--baseline",
        "benchmarks/BASELINE_netlint.json",
        "examples/netwide.contracts",
    ):
        assert needle in text, f"LINT.md does not mention {needle}"


def test_serving_doc_covers_netwide_and_concurrency_lint():
    text = (REPO_ROOT / "docs" / "SERVING.md").read_text()
    for needle in (
        "--netwide",
        "NetwideGate",
        "check_concurrency",
        "LINT.md",
    ):
        assert needle in text, f"SERVING.md does not mention {needle}"


def test_serving_doc_covers_sharding_and_durability():
    text = (REPO_ROOT / "docs" / "SERVING.md").read_text()
    for needle in (
        "SessionStore",
        "DurableSessionStore",
        "sessions.manifest.jsonl",
        "fsync",
        "complete-cycle prefix",
        "RestoreError",
        "recovered",
        "HashRing",
        "ShardedCluster",
        "virtual nodes",
        "kill-shard",
        "restart-shard",
        "--store-dir",
        "--restore",
        "--shards",
        "--check shard",
        "BENCH_shard.json",
        "exactly-once",
    ):
        assert needle in text, f"SERVING.md does not mention {needle}"


def test_observability_doc_covers_serving_telemetry():
    text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
    for needle in (
        "Serving telemetry",
        "TraceContext",
        "trace_id",
        "request_id",
        "wide-event",
        "x-clarify-trace-id",
        "schema_version",
        "check_schema_match",
        "/metrics",
        "/healthz",
        "burn",
        "max_burn_rate",
        "--metrics-port",
        "--event-log",
        "--slo",
        "--check telemetry",
        "--no-telemetry",
        "clarify tail",
        "telemetry_smoke",
    ):
        assert needle in text, f"OBSERVABILITY.md does not mention {needle}"


def test_serving_doc_links_serving_telemetry():
    text = (REPO_ROOT / "docs" / "SERVING.md").read_text()
    for needle in (
        "Serving telemetry",
        "--metrics-port",
        "--event-log",
        "request_id",
        "trace_id",
        "clarify tail",
        "--slo",
        "--check telemetry",
    ):
        assert needle in text, f"SERVING.md does not mention {needle}"


def test_performance_doc_covers_perf_layer():
    text = (REPO_ROOT / "docs" / "PERFORMANCE.md").read_text()
    for needle in (
        "PersistentPool",
        "fork",
        "copy-on-write",
        "calibration",
        "NUMPY_MIN_SIDE",
        "persistent",
        "serial",
        "FlatSets",
        "disjoint_matrix",
        "subset_matrix",
        "intersect_many",
        "subtract_many",
        "CC003",
        "profile_regions",
        "test_bench_perf_campaign_identity",
        "parallel_2worker_s",
        "reachable_cells",
    ):
        assert needle in text, f"PERFORMANCE.md does not mention {needle}"


def test_llm_backends_doc_covers_the_tier():
    text = (REPO_ROOT / "docs" / "LLM_BACKENDS.md").read_text()
    for needle in (
        "SimulatedLLM",
        "RemoteLLMClient",
        "BackendRouter",
        "CachedClient",
        "DedupClient",
        "FaultyLLM",
        "cache_safe",
        "RetryPolicy",
        "no jitter",
        "CLARIFY_LLM_API_KEY",
        "ANTHROPIC_API_KEY",
        "CLARIFY_LLM_BASE_URL",
        "CLARIFY_LLM_MODEL",
        "DeadlineExceeded",
        "--backend",
        "--cache-dir",
        "--check cache",
    ):
        assert needle in text, f"LLM_BACKENDS.md does not mention {needle}"
