"""User oracles: who answers the disambiguator's questions.

The disambiguator presents a differential example — one concrete input
and the two candidate behaviours — and asks which behaviour is intended.
In production the answer comes from a human; in tests and in the Fig. 4
evaluation it comes from an oracle that knows the intended semantics.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Protocol, Sequence, Union

from repro.analysis.compare import (
    BehaviorDifference,
    ListEntryDifference,
    PacketDifference,
)
from repro.core.errors import DisambiguationError

Difference = Union[BehaviorDifference, PacketDifference, ListEntryDifference]


@dataclasses.dataclass(frozen=True)
class DisambiguationQuestion:
    """One question shown to the user: a differential example."""

    difference: Difference

    def render(self) -> str:
        return (
            "The new rule's position changes behaviour on this input:\n\n"
            + self.difference.render()
            + "\n\nWhich behaviour do you want? [1/2]"
        )


class UserOracle(Protocol):
    """Anything that can answer disambiguation questions."""

    def choose(self, question: DisambiguationQuestion) -> int:
        """Return 1 to keep OPTION 1's behaviour, 2 for OPTION 2's."""
        ...


class ScriptedOracle:
    """Answers from a fixed list of choices (for tests and replays)."""

    def __init__(self, choices: Sequence[int]) -> None:
        for choice in choices:
            if choice not in (1, 2):
                raise ValueError(f"choices must be 1 or 2, got {choice!r}")
        self._choices = list(choices)
        self._cursor = 0

    def choose(self, question: DisambiguationQuestion) -> int:
        if self._cursor >= len(self._choices):
            raise DisambiguationError(
                "scripted oracle ran out of answers "
                f"(asked {self._cursor + 1} questions)"
            )
        choice = self._choices[self._cursor]
        self._cursor += 1
        return choice


class FirstOptionOracle:
    """Always prefers OPTION 1 (useful for smoke tests)."""

    def choose(self, question: DisambiguationQuestion) -> int:
        return 1


class IntentOracle:
    """Answers according to a ground-truth behaviour function.

    ``intended`` maps the differential input (a route or packet) to the
    behaviour key the user wants — typically obtained by evaluating a
    reference policy, as the Fig. 4 evaluation does.  If neither option
    matches the intended behaviour the oracle raises: the candidate set
    does not contain the user's intent, which is a pipeline bug.
    """

    def __init__(self, intended: Callable[[object], tuple]) -> None:
        self._intended = intended

    def choose(self, question: DisambiguationQuestion) -> int:
        difference = question.difference
        subject = difference.subject
        want = self._intended(subject)
        if difference.result_a.behaviour_key() == want:
            return 1
        if difference.result_b.behaviour_key() == want:
            return 2
        raise DisambiguationError(
            f"neither option implements the intended behaviour {want!r} "
            f"on {subject}"
        )


class CountingOracle:
    """Wraps an oracle, counting questions and recording a transcript.

    The question count is Figure 4's "#Disambiguation" column.
    """

    def __init__(self, inner: UserOracle) -> None:
        self._inner = inner
        self.questions: List[DisambiguationQuestion] = []
        self.answers: List[int] = []

    def choose(self, question: DisambiguationQuestion) -> int:
        answer = self._inner.choose(question)
        self.questions.append(question)
        self.answers.append(answer)
        return answer

    @property
    def question_count(self) -> int:
        return len(self.questions)

    def reset(self) -> None:
        self.questions.clear()
        self.answers.clear()


__all__ = [
    "CountingOracle",
    "DisambiguationQuestion",
    "FirstOptionOracle",
    "IntentOracle",
    "ScriptedOracle",
    "UserOracle",
]
