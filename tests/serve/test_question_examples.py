"""The differential example each disambiguation question shows, pinned.

``ServeResponse.outcome_key``, and so every loadgen and perfbench
fingerprint, covers insertion positions and question counts but not the
example a question shows the user.  That example is a cell witness: it
moves whenever the prefix-space algebra cuts or orders atoms
differently, while every fingerprint stays put.  This test runs a seeded
mix of route-map edits through a ``SessionManager`` and compares a
digest of every question's rendered text (``BgpRoute.render`` sorts the
communities, so the text does not depend on ``PYTHONHASHSEED``).
"""

import hashlib
import random

from repro.config import parse_config
from repro.config.store import ConfigStore, copy_route_map_closure
from repro.serve import ClarifyService, ServeRequest, SessionManager
from repro.serve.loadgen import CAMPUS_CONFIG, CAMPUS_TARGET, generate_workload
from repro.synth import generate_cloud_corpus

SEED = 1421

#: Sessions of the loadgen campaign; its campus ones edit route-maps.
LOADGEN_SESSIONS = 16

#: §3.1 cloud route-maps, each edited with a campus session's intents.
CORPUS_SESSIONS = 6

QUESTIONS = 44
DIGEST = "56b62cd9c35a456ce4290c37829f290a4d54e8b930d543f05de95050b36a5b19"


class RecordingOracle:
    """Answers option 1, like ``FirstOptionOracle``, and records the
    text of every question."""

    def __init__(self, shown):
        self.shown = shown

    def choose(self, question):
        self.shown.append(question.render())
        return 1


def _sessions():
    """``(session id, config store, target, intents)`` per edit script."""
    campus = [
        spec
        for spec in generate_workload(LOADGEN_SESSIONS, seed=SEED)
        if spec.archetype == "campus"
    ]
    out = [
        (spec.session_id, parse_config(CAMPUS_CONFIG), CAMPUS_TARGET, spec.intents)
        for spec in campus
    ]
    corpus = generate_cloud_corpus()
    chosen = random.Random(SEED).sample(corpus.route_maps, CORPUS_SESSIONS)
    for index, route_map in enumerate(chosen):
        store = ConfigStore()
        copy_route_map_closure(corpus.store, store, route_map)
        intents = campus[index % len(campus)].intents
        out.append((f"corpus-{index}", store, route_map.name, intents))
    return out


def test_question_examples_are_unchanged():
    shown = []
    texts = []
    manager = SessionManager(oracle_factory=lambda: RecordingOracle(shown))
    with ClarifyService(manager, workers=1) as service:
        for session_id, store, target, intents in _sessions():
            manager.open(session_id, store=store)
            for seq, intent in enumerate(intents):
                shown.clear()
                response = service.call(ServeRequest(session_id, intent, target))
                assert response.outcome == "applied", (session_id, seq)
                assert response.questions == len(shown)
                texts.extend(
                    f"{session_id}#{seq}.{index}\n{text}\n"
                    for index, text in enumerate(shown)
                )
    assert len(texts) == QUESTIONS
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == DIGEST
