"""The Clarify session: the full cyclic workflow of Fig. 1.

A :class:`ClarifySession` owns a device's configuration store, an LLM
client (wrapped for transcripting), and a user oracle (wrapped for
question counting).  Each :meth:`ClarifySession.request` runs one cycle:
classify → retrieve prompts → synthesise+verify (with a user spec
confirmation, §2.1) → rename lists → disambiguate → insert, and returns
an :class:`UpdateReport` with the bookkeeping Figure 4 aggregates.

:meth:`ClarifySession.reuse` inserts an already-synthesised snippet into
another route-map or ACL without new LLM calls — the paper's
"some route-maps were reused because similar policies were applied on
interfaces, reducing the number of LLM calls" (§5).

Concurrency (re-entrancy audit, see ``docs/SERVING.md``): a
:class:`ClarifySession` is **not** thread-safe — ``request``/``reuse``
read and replace ``self.store`` and append to ``self.history``, so two
concurrent cycles on one session would race.  Callers running many
sessions concurrently must serialise the cycles of each session
(:class:`repro.serve.SessionManager` does, with per-session FIFO
ordering); *distinct* sessions may run in parallel freely: the only
mutable state they share is the LLM client (thread-safe by contract —
see :mod:`repro.llm.dedup`), the process-wide obs recorder (locked), and
the journal in the request scope (per thread, so each worker journals
its own session).  Until an update's disambiguation completes, ``self.store`` is
never mutated — a cycle that fails (punt, deadline, error) leaves the
session exactly as it was.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

if TYPE_CHECKING:  # imported only for annotations; avoids a heavy import
    from repro.lint.netwide.gate import NetwideGate

from repro import obs
from repro.config.diff import config_diff
from repro.core.budget import TimeBudget, budget_scope
from repro.config.names import rename_snippet_lists
from repro.config.render import render_config
from repro.config.store import ConfigStore
from repro.core.disambiguator import (
    DisambiguationMode,
    disambiguate_acl_rule,
    disambiguate_stanza,
)
from repro.core.errors import ClarifyError
from repro.core.oracle import CountingOracle, FirstOptionOracle, UserOracle
from repro.core.synthesis import ROUTE_MAP, SynthesisPipeline
from repro.lint.gate import gate_insertion
from repro.llm.client import LLMClient
from repro.llm.simulated import SimulatedLLM
from repro.llm.transcript import TranscribingClient

#: Process-wide session identity, recorded in journal events so a replay
#: can group the cycles of multi-session journals (e.g. ``clarify eval``).
_SESSION_IDS = itertools.count(1)


def check_target(target: str) -> None:
    """Refuse a target name that would not render as one config token.

    An empty name renders ``route-map  permit 10``, one with a space a
    line the parser refuses, and one with a newline two lines: a caller
    could inject configuration through it.
    """
    if target.split() != [target]:
        raise ClarifyError(
            f"target must be one word without whitespace, got {target!r}"
        )


def _journal_cycle_error(exc: ClarifyError) -> None:
    """Emit ``cycle.error`` with enough data to rebuild the outcome.

    ``attempts`` (:class:`~repro.core.errors.SynthesisPunt`) and
    ``questions`` (:class:`~repro.core.errors.DeadlineExceeded`) are
    stamped only when the exception carries them, so journals recorded
    before schema version 2 still replay without divergence.  The
    durable session store (:mod:`repro.serve.store`) reads these fields
    to reconstruct a failed request's :class:`ServeResponse` after a
    crash.
    """
    data: Dict[str, Any] = {"error": type(exc).__name__, "message": str(exc)}
    attempts = getattr(exc, "attempts", None)
    if attempts is not None:
        data["attempts"] = attempts
    questions = getattr(exc, "questions_asked", None)
    if questions is not None:
        data["questions"] = questions
    obs.event("cycle.error", **data)


@dataclasses.dataclass(frozen=True)
class UpdateReport:
    """What one Clarify cycle did."""

    kind: str
    target: str
    position: int
    llm_calls: int
    questions: int
    attempts: int
    overlaps: Tuple[int, ...]
    #: The verified, pre-rename snippet (reusable via ``reuse``).
    snippet: ConfigStore
    #: Unified diff of the device configuration this update applied.
    diff: str = ""
    #: Advisory lint-gate warnings (empty when the gate is off or clean).
    gate_warnings: Tuple[str, ...] = ()


class ClarifySession:
    """One interactive Clarify session over one device configuration."""

    def __init__(
        self,
        store: Optional[ConfigStore] = None,
        llm: Optional[LLMClient] = None,
        oracle: Optional[UserOracle] = None,
        mode: DisambiguationMode = DisambiguationMode.FULL,
        max_attempts: int = 3,
        lint_gate: bool = True,
        netwide_gate: Optional["NetwideGate"] = None,
        session_id: Optional[int] = None,
    ) -> None:
        self.store = store if store is not None else ConfigStore()
        #: Run the advisory :mod:`repro.lint` gate around each insertion.
        self.lint_gate = lint_gate
        #: Optional whole-network advisory gate (:mod:`repro.lint.netwide`):
        #: embeds the session store into a device set and reports the
        #: network-wide findings an update introduces, alongside the
        #: per-device gate's warnings.
        self.netwide_gate = netwide_gate
        self.llm = TranscribingClient(llm if llm is not None else SimulatedLLM())
        self.oracle = CountingOracle(
            oracle if oracle is not None else FirstOptionOracle()
        )
        self.mode = mode
        self.max_attempts = max_attempts
        self.pipeline = SynthesisPipeline(self.llm, max_attempts=max_attempts)
        #: Identity used to group this session's cycles in journal events.
        #: Allocated process-wide by default; the serving layer passes an
        #: explicit id so serial and pooled runs label cycles identically.
        self.session_id = (
            session_id if session_id is not None else next(_SESSION_IDS)
        )
        #: Specs shown to the user for manual confirmation (§2.1).
        self.spec_reviews = 0
        #: Audit trail: one :class:`UpdateReport` per applied update.
        self.history: list = []

    # ------------------------------------------------------------- cycles

    def request(
        self,
        intent_text: str,
        target: str,
        oracle: Optional[UserOracle] = None,
        budget: Optional[TimeBudget] = None,
    ) -> UpdateReport:
        """Run one full Clarify cycle for an English intent.

        ``target`` names the route-map or ACL the new stanza/rule should
        be added to (created on first use).  ``oracle`` overrides the
        session oracle for this request's disambiguation questions (the
        question count still accumulates on the session).  ``budget``
        installs a time budget for the cycle: expiry mid-synthesis punts
        with the failures so far, expiry mid-disambiguation raises
        :class:`~repro.core.errors.DeadlineExceeded` — in both cases the
        session's store is untouched.  The session's store is updated in
        place on success.
        """
        with budget_scope(budget), obs.span(
            "clarify.request", target=target
        ) as sp:
            obs.count("clarify.cycles")
            self._journal_cycle_start("request", target, intent=intent_text)
            try:
                check_target(target)
                calls_before = self.llm.call_count()
                result = self.pipeline.synthesize(intent_text)
                self.spec_reviews += 1
                obs.count("clarify.spec_reviews")
                report = self._insert(
                    result.kind,
                    result.snippet,
                    target,
                    oracle,
                    llm_calls=self.llm.call_count() - calls_before,
                    attempts=result.attempts,
                )
            except ClarifyError as exc:
                _journal_cycle_error(exc)
                raise
            sp.annotate(
                kind=report.kind,
                position=report.position,
                llm_calls=report.llm_calls,
                questions=report.questions,
                attempts=report.attempts,
            )
            return report

    def reuse(
        self,
        snippet: ConfigStore,
        target: str,
        oracle: Optional[UserOracle] = None,
        kind: str = ROUTE_MAP,
        budget: Optional[TimeBudget] = None,
    ) -> UpdateReport:
        """Insert an already-synthesised snippet into another target."""
        with budget_scope(budget), obs.span(
            "clarify.reuse", target=target, kind=kind
        ) as sp:
            obs.count("clarify.reuses")
            self._journal_cycle_start(
                "reuse", target, kind=kind, snippet=snippet
            )
            try:
                check_target(target)
                report = self._insert(
                    kind, snippet, target, oracle, llm_calls=0, attempts=0
                )
            except ClarifyError as exc:
                _journal_cycle_error(exc)
                raise
            sp.annotate(position=report.position, questions=report.questions)
            return report

    def _journal_cycle_start(
        self,
        op: str,
        target: str,
        intent: Optional[str] = None,
        kind: Optional[str] = None,
        snippet: Optional[ConfigStore] = None,
    ) -> None:
        """Record the inputs a replay needs to re-drive this cycle."""
        if not obs.journal_enabled():
            return
        config_text = render_config(self.store)
        data = {
            "op": op,
            "target": target,
            "session": self.session_id,
            "mode": self.mode.value,
            "max_attempts": self.max_attempts,
            "lint_gate": self.lint_gate,
            "config": config_text,
            "config_sha256": obs.sha256_text(config_text),
        }
        if intent is not None:
            data["intent"] = intent
        if kind is not None:
            data["kind"] = kind
        if snippet is not None:
            data["snippet"] = render_config(snippet)
        obs.event("cycle.start", **data)

    def _insert(
        self,
        kind: str,
        snippet: ConfigStore,
        target: str,
        oracle: Optional[UserOracle],
        llm_calls: int,
        attempts: int,
    ) -> UpdateReport:
        questions_before = self.oracle.question_count
        answering = self.oracle if oracle is None else _CountInto(self.oracle, oracle)
        with obs.span("clarify.rename"):
            renamed = rename_snippet_lists(snippet, self.store)
        before = self.store
        if kind == ROUTE_MAP:
            outcome = disambiguate_stanza(
                self.store, target, renamed, answering, self.mode
            )
        else:
            outcome = disambiguate_acl_rule(
                self.store, target, renamed, answering, self.mode
            )
        self.store = outcome.store
        with obs.span("clarify.diff"):
            diff_text = config_diff(before, self.store)
        gate_warnings: Tuple[str, ...] = ()
        if self.lint_gate:
            gate = gate_insertion(
                before, self.store, kind, target, outcome.position
            )
            gate_warnings = gate.warnings
        if self.netwide_gate is not None:
            gate_warnings = gate_warnings + self.netwide_gate.check(
                before, self.store
            )
        report = UpdateReport(
            kind=kind,
            target=target,
            position=outcome.position,
            llm_calls=llm_calls,
            questions=self.oracle.question_count - questions_before,
            attempts=attempts,
            overlaps=outcome.overlaps,
            snippet=snippet,
            diff=diff_text,
            gate_warnings=gate_warnings,
        )
        self.history.append(report)
        if obs.journal_enabled():
            obs.event(
                "insertion.decision",
                kind=kind,
                target=target,
                position=outcome.position,
                overlaps=list(outcome.overlaps),
            )
            final_config = render_config(self.store)
            obs.event(
                "cycle.end",
                report={
                    "kind": report.kind,
                    "target": report.target,
                    "position": report.position,
                    "llm_calls": report.llm_calls,
                    "questions": report.questions,
                    "attempts": report.attempts,
                    "overlaps": list(report.overlaps),
                    "gate_warnings": list(report.gate_warnings),
                },
                diff_sha256=obs.sha256_text(report.diff),
                config_sha256=obs.sha256_text(final_config),
            )
        return report

    # -------------------------------------------------------------- stats

    @property
    def total_llm_calls(self) -> int:
        return self.llm.call_count()

    @property
    def total_questions(self) -> int:
        return self.oracle.question_count

    @property
    def total_interactions(self) -> int:
        """Spec confirmations plus disambiguation questions (Fig. 4)."""
        return self.spec_reviews + self.oracle.question_count


class _CountInto:
    """Answer with ``answerer`` but record on the session's counter."""

    def __init__(self, counter: CountingOracle, answerer: UserOracle) -> None:
        self._counter = counter
        self._answerer = answerer

    def choose(self, question):
        answer = self._answerer.choose(question)
        self._counter.questions.append(question)
        self._counter.answers.append(answer)
        return answer


__all__ = ["ClarifySession", "UpdateReport", "check_target"]
