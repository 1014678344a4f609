"""The LLM substrate.

The paper uses GPT-4 for three tasks: classifying a user query as ACL or
route-map synthesis, translating the English intent into one Cisco IOS
stanza, and extracting a JSON specification from the intent.  This
package provides the full client hierarchy (see
``docs/LLM_BACKENDS.md``), from deterministic simulation to real HTTP
backends:

* :class:`~repro.llm.client.LLMClient` — the provider-agnostic interface
  (swap in a real API client by implementing ``complete``);
* :mod:`~repro.llm.prompts` — the system prompts and few-shot example
  database the paper retrieves per query type (Fig. 1, step 2);
* :class:`~repro.llm.simulated.SimulatedLLM` — a deterministic rule-based
  stand-in for GPT-4 (see DESIGN.md, substitution table);
* :class:`~repro.llm.faulty.FaultyLLM` — a fault-injection wrapper used to
  exercise the verification/retry loop;
* :class:`~repro.llm.transcript.TranscribingClient` — call logging and the
  per-task statistics behind Figure 4's "#LLM calls" column;
* :class:`~repro.llm.dedup.DedupClient` — thread-safe deduplication of
  identical in-flight requests (one upstream call, fanned-out response),
  used by the :mod:`repro.serve` layer to serve concurrent sessions;
* :class:`~repro.llm.respcache.CachedClient` — a durable on-disk response
  cache keyed by canonical prompt hash, memoizing only verified-pure
  responses (never :class:`~repro.llm.faulty.FaultyLLM` output);
* :class:`~repro.llm.remote.RemoteLLMClient` — a real HTTP backend
  (anthropic-style messages API) with bounded deterministic retry,
  deadline-capped attempt timeouts, and an injectable transport so CI
  stays hermetic;
* :class:`~repro.llm.router.BackendRouter` — ordered fallback chains
  (``remote → simulated``) with per-backend health/latency counters, and
  :func:`~repro.llm.router.build_backend` to construct a stack from a
  ``--backend`` spec string;
* :mod:`~repro.llm.errors` — the retryable/terminal backend error
  taxonomy the retry loop and router dispatch on.
"""

from repro.llm.client import LLMClient
from repro.llm.dedup import DedupClient
from repro.llm.errors import (
    BackendError,
    RetryableBackendError,
    TerminalBackendError,
)
from repro.llm.faulty import FaultyLLM
from repro.llm.intents import (
    AclIntent,
    IntentParseError,
    RouteMapIntent,
    parse_acl_intent,
    parse_route_map_intent,
)
from repro.llm.prompts import PromptDatabase, TaskKind
from repro.llm.remote import RemoteLLMClient, RetryPolicy
from repro.llm.respcache import CachedClient, ResponseCache, cache_safe_of
from repro.llm.router import BackendRouter, build_backend
from repro.llm.simulated import SimulatedLLM
from repro.llm.transcript import (
    CallRecord,
    DEFAULT_MAX_RECORDS,
    TranscribingClient,
)

__all__ = [
    "AclIntent",
    "BackendError",
    "BackendRouter",
    "CachedClient",
    "CallRecord",
    "DEFAULT_MAX_RECORDS",
    "DedupClient",
    "FaultyLLM",
    "IntentParseError",
    "LLMClient",
    "PromptDatabase",
    "RemoteLLMClient",
    "ResponseCache",
    "RetryPolicy",
    "RetryableBackendError",
    "RouteMapIntent",
    "SimulatedLLM",
    "TaskKind",
    "TerminalBackendError",
    "TranscribingClient",
    "build_backend",
    "cache_safe_of",
    "parse_acl_intent",
    "parse_route_map_intent",
]
