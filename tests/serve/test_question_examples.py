"""The differential example each disambiguation question shows, pinned.

``ServeResponse.outcome_key``, and so every loadgen and perfbench
fingerprint, covers insertion positions and question counts but not the
example a question shows the user.  That example is a cell witness: it
moves whenever the prefix-space algebra cuts or orders atoms
differently, while every fingerprint stays put.  The first test runs a
seeded mix of route-map edits through a ``SessionManager`` and compares a
digest of every question's rendered text (``BgpRoute.render`` sorts the
communities, so the text does not depend on ``PYTHONHASHSEED``).

The others pin the same for every policy kind and every
:class:`DisambiguationMode`: ACL rules inserted into §3.2 campus ACLs,
the route-map mix, and prefix-, AS-path- and community-list entries, all
answered from a seeded sequence; and the full difference lists
``compare_route_policies`` / ``compare_filters`` return on corpus pairs.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.analysis import compare_filters, compare_route_policies
from repro.config import parse_config
from repro.config.acl import Acl, AclRule, PortSpec, ProtocolSpec
from repro.config.lists import (
    AsPathAccessList,
    AsPathEntry,
    CommunityList,
    CommunityListEntry,
    PrefixList,
    PrefixListEntry,
)
from repro.config.names import rename_snippet_lists
from repro.config.routemap import RouteMap
from repro.config.store import ConfigStore, copy_route_map_closure
from repro.core import (
    DisambiguationMode,
    SynthesisPipeline,
    disambiguate_acl_rule,
    disambiguate_as_path_entry,
    disambiguate_community_entry,
    disambiguate_prefix_list_entry,
    disambiguate_stanza,
)
from repro.llm.simulated import SimulatedLLM
from repro.netaddr import Ipv4Address, Ipv4Prefix, Ipv4Wildcard
from repro.serve import ClarifyService, ServeRequest, SessionManager
from repro.serve.loadgen import CAMPUS_CONFIG, CAMPUS_TARGET, generate_workload
from repro.synth import generate_campus_corpus, generate_cloud_corpus

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


# ------------------------------------------------ every kind, every mode
#
# The blocks below drive each disambiguator directly, in every mode, with
# answers drawn from a seeded sequence so that both branches of the
# binary search run.  Each digest covers the chosen positions as well as
# the rendered questions.

MODES = (
    DisambiguationMode.FULL,
    DisambiguationMode.LINEAR,
    DisambiguationMode.TOP_BOTTOM,
)


class SeededOracle:
    """Answers 1 or 2 from a seeded sequence, recording every question."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.shown = []

    def choose(self, question):
        self.shown.append(question.render())
        return self.rng.choice((1, 2))


def _transcript(label, result, oracle):
    """One insertion's position, overlaps and questions as text."""
    assert result.question_count == len(oracle.shown)
    lines = [f"{label} @{result.position} overlaps={list(result.overlaps)}"]
    lines.extend(oracle.shown)
    oracle.shown.clear()
    return "\n".join(lines) + "\n"


def _digest(texts):
    return hashlib.sha256("".join(texts).encode()).hexdigest()


# (a) ACL insertions into seeded §3.2 campus ACLs ----------------------

#: Campus ACLs sampled from the overlapping archetypes, and new rules per ACL.
ACL_SAMPLE = 8
RULES_PER_ACL = 3
_PORTS = (22, 80, 443, 8080)


def _narrow(wildcard, rng, other):
    """A host inside ``wildcard``; ``other``'s block when ``wildcard`` is any."""
    if wildcard.wildcard.value == 0xFFFFFFFF:
        wildcard = other
        if wildcard.wildcard.value == 0xFFFFFFFF:
            return Ipv4Wildcard.host(Ipv4Address((10 << 24) | rng.randrange(1, 1 << 16)))
    offset = rng.randrange(0, wildcard.wildcard.value + 1) if wildcard.wildcard.value else 0
    return Ipv4Wildcard.host(Ipv4Address(wildcard.address.value + offset))


def _overlapping_rule(acl, rng):
    """A rule overlapping a rule of ``acl``: one host pair inside it, or
    one side left open so that it overlaps many rules.  Blocks the chosen
    rule leaves open come from a second rule."""
    rule = rng.choice(acl.rules)
    other = rng.choice(acl.rules)
    protocol = rule.protocol if rule.protocol.name in ("tcp", "udp") else ProtocolSpec("tcp")
    if rule.protocol.carries_ports() and rule.dst_ports.op == "eq":
        port = rule.dst_ports
    else:
        port = PortSpec("eq", (rng.choice(_PORTS),))
    wide = rng.choice(("src", "dst", None))
    return AclRule(
        seq=10,
        action=rng.choice(("permit", "deny")),
        protocol=protocol,
        src=Ipv4Wildcard.any() if wide == "src" else _narrow(rule.src, rng, other.src),
        dst=Ipv4Wildcard.any() if wide == "dst" else _narrow(rule.dst, rng, other.dst),
        dst_ports=port,
    )


def _acl_cases():
    """``(ACL, new rules)`` for a seeded sample of overlapping campus ACLs."""
    corpus = generate_campus_corpus(seed=SEED, total_acls=120)
    rng = random.Random(SEED)
    candidates = [acl for acl in corpus.acls if not acl.name.startswith("CAMPUS_CLEAN")]
    return [
        (acl, [_overlapping_rule(acl, rng) for _ in range(RULES_PER_ACL)])
        for acl in rng.sample(candidates, ACL_SAMPLE)
    ]


ACL_PINS = {
    DisambiguationMode.FULL: (22, "5593db5491fa1382373f315dd15544832893ea3341fcdd6148f030259ada0532"),
    DisambiguationMode.LINEAR: (17, "ab71409d8e5999547bbcbbf9bd507fd6a14e8c8145ec621c411758af0437ed66"),
    DisambiguationMode.TOP_BOTTOM: (16, "2f0e809efdb3484f36d4f9663845e4a17c47ac0acf5052410e82b3d1690fb9e0"),
}


@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
def test_acl_questions_are_unchanged(mode):
    oracle = SeededOracle(SEED)
    texts = []
    questions = 0
    for acl, rules in _acl_cases():
        store = ConfigStore()
        store.add_acl(acl)
        for index, rule in enumerate(rules):
            snippet = ConfigStore()
            snippet.add_acl(Acl("NEW", (rule,)))
            result = disambiguate_acl_rule(store, acl.name, snippet, oracle, mode)
            assert result.overlaps, (acl.name, index)
            questions += result.question_count
            texts.append(_transcript(f"{acl.name}#{index}", result, oracle))
            store = result.store
    assert (questions, _digest(texts)) == ACL_PINS[mode]


# (b) the route-map mix of the test above, in every mode -----------------


def _route_map_snippets():
    """``(session id, store, target, verified snippets)`` per edit script."""
    pipeline = SynthesisPipeline(SimulatedLLM())
    return [
        (session_id, store, target, [pipeline.synthesize(i).snippet for i in intents])
        for session_id, store, target, intents in _sessions()
    ]


ROUTE_MAP_PINS = {
    DisambiguationMode.FULL: (35, "0474b0cfa477e52cd3e2019d431885018a2312ed068b7661bc4744111c191b4d"),
    DisambiguationMode.LINEAR: (31, "51cc45476c6dabcdd4dbb7b1627368c950a0ec587d44123b27b8910d20e08bcd"),
    DisambiguationMode.TOP_BOTTOM: (24, "22d5f3c5f3e967baf70e345a4362c15cd455331eaa8860dae03556ad7879c3f5"),
}


@pytest.fixture(scope="module")
def route_map_snippets():
    return _route_map_snippets()


@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
def test_route_map_questions_are_unchanged(mode, route_map_snippets):
    oracle = SeededOracle(SEED)
    texts = []
    questions = 0
    for session_id, store, target, snippets in route_map_snippets:
        for index, snippet in enumerate(snippets):
            renamed = rename_snippet_lists(snippet, store)
            result = disambiguate_stanza(store, target, renamed, oracle, mode)
            questions += result.question_count
            texts.append(_transcript(f"{session_id}#{index}", result, oracle))
            store = result.store
    assert (questions, _digest(texts)) == ROUTE_MAP_PINS[mode]


# (c) prefix-list, AS-path-list and community-list insertions ------------

_BLOCKS = ("10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16", "10.1.2.0/24", "10.1.2.128/25")
_BOUNDS = ((None, None), (None, 24), (None, 32), (16, 24), (20, None))


def _prefix_entry(rng):
    prefix = Ipv4Prefix.parse(rng.choice(_BLOCKS))
    ge, le = rng.choice(_BOUNDS)
    if ge is not None and ge < prefix.length:
        ge = None
    if le is not None and le < max(prefix.length, ge or 0):
        le = None
    return PrefixListEntry(5, rng.choice(("permit", "deny")), prefix, ge=ge, le=le)


_AS_PATH_PATTERNS = ("_100_", "^100_", "_200$", "_666_", "^200 100$", "_100 200_", ".*", "^$")


def _as_path_entry(rng):
    return AsPathEntry(rng.choice(("permit", "deny")), rng.choice(_AS_PATH_PATTERNS))


_COMMUNITY_PATTERNS = ("^65000:", "^65000:1$", "_65000:2_", ":1$", "^65001:", "^6500[01]:3$")
_COMMUNITIES = ("65000:1", "65000:2", "65000:3", "65001:1")


def _expanded_entry(rng):
    return CommunityListEntry(rng.choice(("permit", "deny")), regex=rng.choice(_COMMUNITY_PATTERNS))


def _standard_entry(rng, most=2):
    """Literal communities in draw order, which is often not sorted."""
    chosen = tuple(rng.sample(_COMMUNITIES, rng.randint(1, most)))
    return CommunityListEntry(rng.choice(("permit", "deny")), communities=chosen)


def _wide_standard_entry(rng):
    """Up to three communities: each multiplies the residual's terms."""
    return _standard_entry(rng, most=3)


def _list_store(kind, draw_entry, rng, entries):
    store = ConfigStore()
    drawn = tuple(draw_entry(rng) for _ in range(entries))
    if kind == "prefix":
        store.add_prefix_list(
            PrefixList("L", tuple(
                dataclasses.replace(entry, seq=10 * (i + 1)) for i, entry in enumerate(drawn)
            ))
        )
    elif kind == "as-path":
        store.add_as_path_list(AsPathAccessList("L", drawn))
    else:
        store.add_community_list(CommunityList("L", drawn, expanded=kind == "expanded"))
    return store


_LIST_INSERT = {
    "prefix": (_prefix_entry, disambiguate_prefix_list_entry),
    "as-path": (_as_path_entry, disambiguate_as_path_entry),
    "expanded": (_expanded_entry, disambiguate_community_entry),
    "standard": (_standard_entry, disambiguate_community_entry),
    "standard-wide": (_wide_standard_entry, disambiguate_community_entry),
}

#: Lists per kind, existing entries per list, and insertions per list.
LISTS, LIST_ENTRIES, LIST_INSERTS = 4, 3, 2

#: Kinds drawn in another shape: standard lists of up to three
#: communities an entry, each of which multiplies the terms of the
#: residual that follows its entry.
LIST_SHAPES = {"standard-wide": (2, 5, 3)}

LIST_PINS = {
    ("as-path", DisambiguationMode.FULL): (6, "589fdaf561700fe76233f39249c1abceb2756aa3e6f57cca6565598c5970abf8"),
    ("as-path", DisambiguationMode.LINEAR): (6, "5a965707a0a38ce4d48de34645435a9e4b6da99ae76a97b6a7bd51930bf2fa8f"),
    ("as-path", DisambiguationMode.TOP_BOTTOM): (5, "888229a786af34e3433f67f9ef3b1528b2d22e8533782f6f759b434251575477"),
    ("expanded", DisambiguationMode.FULL): (8, "e1f39835f24cfba5ff4bdd725895a1e30e86103ce594e83ae224b4fb9529fb25"),
    ("expanded", DisambiguationMode.LINEAR): (7, "0e6e500b1f51bbaf8d8d193b4725af15be481fbd5956c5ef4fe695e1476286f9"),
    ("expanded", DisambiguationMode.TOP_BOTTOM): (7, "61dcdd79e4fe6a1d7228e7c7ac016254541101497654aa78de61ca2194807007"),
    ("prefix", DisambiguationMode.FULL): (4, "27d208f50ec848aa0f11d968d6e0080b0c58716aaefbe1ff51faafc72274eeba"),
    ("prefix", DisambiguationMode.LINEAR): (4, "27d208f50ec848aa0f11d968d6e0080b0c58716aaefbe1ff51faafc72274eeba"),
    ("prefix", DisambiguationMode.TOP_BOTTOM): (4, "1162b364e114c75c24ef1a883c870a36bc21e4cfbbacdf8fbf7a05d97903aa91"),
    ("standard", DisambiguationMode.FULL): (5, "d940a8f522d5e42a41bcd9a4b8ef07e07a77a820e62ca44af81126add1930aff"),
    ("standard", DisambiguationMode.LINEAR): (3, "2de525d84057015ceeb30b7184ef38528ccc31fe8ce959e48c948938d67bdb5a"),
    ("standard", DisambiguationMode.TOP_BOTTOM): (3, "9bf778aae5ffa89929cc40642027b56649c7c08aa254102a94f4e15c0d334473"),
    ("standard-wide", DisambiguationMode.FULL): (4, "a91debf1cad544784df88b2329c2128d998e5ca89ac882cd794f66b11cc83761"),
}


def test_standard_sample_has_unsorted_entries():
    rng = random.Random(SEED)
    drawn = [_standard_entry(rng).communities for _ in range(12)]
    assert any(list(c) != sorted(c) for c in drawn)


@pytest.mark.parametrize(
    ("kind", "mode"), list(LIST_PINS), ids=[f"{mode.value}-{kind}" for kind, mode in LIST_PINS]
)
def test_list_questions_are_unchanged(kind, mode):
    draw_entry, insert = _LIST_INSERT[kind]
    lists, entries, inserts = LIST_SHAPES.get(kind, (LISTS, LIST_ENTRIES, LIST_INSERTS))
    rng = random.Random(f"{SEED}:{kind}")
    oracle = SeededOracle(SEED)
    texts = []
    questions = 0
    for number in range(lists):
        store = _list_store(kind, draw_entry, rng, entries)
        for index in range(inserts):
            result = insert(store, "L", draw_entry(rng), oracle, mode)
            questions += result.question_count
            texts.append(_transcript(f"{kind}{number}#{index}", result, oracle))
            store = result.store
    assert (questions, _digest(texts)) == LIST_PINS[(kind, mode)]


# (d) full difference lists on corpus policy pairs ------------------------

COMPARE_PINS = {
    "route-maps": (21, "9c4404f454ee951fe6358326c3c4affca77bac81b716b07a695e8c10b3404e40"),
    "acls": (129, "8ba14e371cb34c69070a395a8b35df5dad216b1e3c753bb8055bf0346d372059"),
}


def _reversed(entries):
    """``entries`` in reverse order, renumbered."""
    return tuple(
        dataclasses.replace(entry, seq=10 * (index + 1))
        for index, entry in enumerate(reversed(entries))
    )


def test_route_map_difference_lists_are_unchanged():
    corpus = generate_cloud_corpus()
    rng = random.Random(SEED)
    maps = [rm for rm in corpus.route_maps if len(rm.stanzas) > 1]
    pairs = [tuple(rng.sample(corpus.route_maps, 2)) for _ in range(3)]
    pairs += [(rm, RouteMap(rm.name, _reversed(rm.stanzas))) for rm in rng.sample(maps, 3)]
    texts = []
    total = 0
    for map_a, map_b in pairs:
        differences = compare_route_policies(map_a, map_b, corpus.store)
        total += len(differences)
        texts.append(f"{map_a.name} vs {map_b.name}: {len(differences)}\n")
        texts.extend(d.render() + "\n" for d in differences)
    assert (total, _digest(texts)) == COMPARE_PINS["route-maps"]


def test_acl_difference_lists_are_unchanged():
    corpus = generate_campus_corpus(seed=SEED, total_acls=120)
    rng = random.Random(SEED)
    overlapping = [acl for acl in corpus.acls if not acl.name.startswith("CAMPUS_CLEAN")]
    pairs = [tuple(rng.sample(overlapping, 2)) for _ in range(3)]
    pairs += [
        (acl, Acl(acl.name, _reversed(acl.rules))) for acl in rng.sample(overlapping, 3)
    ]
    texts = []
    total = 0
    for acl_a, acl_b in pairs:
        differences = compare_filters(acl_a, acl_b)
        total += len(differences)
        texts.append(f"{acl_a.name} vs {acl_b.name}: {len(differences)}\n")
        texts.extend(d.render() + "\n" for d in differences)
    assert (total, _digest(texts)) == COMPARE_PINS["acls"]
