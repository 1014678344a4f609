"""Corpus mode: lint the §3 synthetic corpora and cross-check shares.

The campus generator (:mod:`repro.synth.campus`) builds ACLs from five
archetypes with exact counts (:class:`~repro.synth.campus.ArchetypeCounts`).
The linter sees only the finished configurations, so re-deriving the
archetype of every ACL from its diagnostics alone — and matching the
generator's counts exactly — is an end-to-end cross-check of the whole
symbolic stack:

* ``shadowed`` ACLs (specific permits, then ``deny ip any any``) show up
  as one **AC004** generalization per permit and nothing else;
* ``crossing`` ACLs show up as one **AC003** correlation per
  (permit, deny) pair and nothing else;
* ``clean`` ACLs produce zero overlap diagnostics;
* the light/heavy split falls out of the pair counts (threshold 20,
  §3.2's "more than 20 conflicts").

Only the overlap codes participate (``RM001``/``RM002``/``AC001``..
``AC004``) — style checks like RM003 say nothing about archetypes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.config.acl import Acl
from repro.lint.acl_checks import check_overlap_pairs, check_unreachable_aces
from repro.lint.diagnostics import LintReport
from repro.lint.registry import CheckRegistry, lint_store
from repro.synth.campus import ArchetypeCounts, CampusCorpus

#: §3.2's split between light and heavy conflict counts.
HEAVY_THRESHOLD = 20

#: The diagnostic codes that encode overlap structure.
OVERLAP_CODES = ("RM001", "RM002", "AC001", "AC002", "AC003", "AC004")

CLEAN = "clean"
SHADOWED_LIGHT = "shadowed-light"
SHADOWED_HEAVY = "shadowed-heavy"
CROSSING_LIGHT = "crossing-light"
CROSSING_HEAVY = "crossing-heavy"
MIXED = "mixed"


@dataclasses.dataclass(frozen=True)
class AclClassification:
    """One ACL's archetype as recovered from its diagnostics."""

    name: str
    archetype: str
    conflict_pairs: int
    diagnostics: LintReport


def classify_acl(acl: Acl, with_witnesses: bool = False) -> AclClassification:
    """Recover an ACL's §3 archetype from lint diagnostics alone."""
    diagnostics = LintReport.of(
        check_unreachable_aces(acl, with_witnesses=with_witnesses)
        + check_overlap_pairs(acl, with_witnesses=with_witnesses)
    )
    counts = diagnostics.counts_by_code()
    crossings = counts.get("AC003", 0)
    subsets = counts.get("AC004", 0)
    dead = counts.get("AC001", 0) + counts.get("AC002", 0)
    if crossings and not subsets and not dead:
        archetype = (
            CROSSING_HEAVY if crossings > HEAVY_THRESHOLD else CROSSING_LIGHT
        )
        pairs = crossings
    elif subsets and not crossings and not dead:
        archetype = (
            SHADOWED_HEAVY if subsets > HEAVY_THRESHOLD else SHADOWED_LIGHT
        )
        pairs = subsets
    elif not counts:
        archetype, pairs = CLEAN, 0
    else:
        archetype, pairs = MIXED, crossings + subsets + dead
    return AclClassification(
        name=acl.name,
        archetype=archetype,
        conflict_pairs=pairs,
        diagnostics=diagnostics,
    )


@dataclasses.dataclass(frozen=True)
class CorpusLintResult:
    """Linting one synthetic corpus, with the archetype cross-check."""

    total_acls: int
    observed: Dict[str, int]
    expected: Optional[ArchetypeCounts]
    classifications: Tuple[AclClassification, ...]
    route_map_report: LintReport

    @property
    def matches_expected(self) -> bool:
        """Whether recovered archetype counts equal the generator's."""
        if self.expected is None:
            return False
        return (
            self.observed.get(CLEAN, 0) == self.expected.clean
            and self.observed.get(SHADOWED_LIGHT, 0)
            == self.expected.shadowed_light
            and self.observed.get(SHADOWED_HEAVY, 0)
            == self.expected.shadowed_heavy
            and self.observed.get(CROSSING_LIGHT, 0)
            == self.expected.crossing_light
            and self.observed.get(CROSSING_HEAVY, 0)
            == self.expected.crossing_heavy
            and self.observed.get(MIXED, 0) == 0
        )

    def render(self) -> str:
        lines = [f"{self.total_acls} ACLs classified from diagnostics:"]
        order = (
            CLEAN,
            SHADOWED_LIGHT,
            SHADOWED_HEAVY,
            CROSSING_LIGHT,
            CROSSING_HEAVY,
            MIXED,
        )
        expected_map: Dict[str, Optional[int]] = {key: None for key in order}
        if self.expected is not None:
            expected_map.update(
                {
                    CLEAN: self.expected.clean,
                    SHADOWED_LIGHT: self.expected.shadowed_light,
                    SHADOWED_HEAVY: self.expected.shadowed_heavy,
                    CROSSING_LIGHT: self.expected.crossing_light,
                    CROSSING_HEAVY: self.expected.crossing_heavy,
                    MIXED: 0,
                }
            )
        for key in order:
            observed = self.observed.get(key, 0)
            expected = expected_map[key]
            if observed == 0 and not expected:
                continue
            suffix = "" if expected is None else f" (expected {expected})"
            lines.append(f"  {key:<15} {observed}{suffix}")
        if self.expected is not None:
            verdict = "MATCH" if self.matches_expected else "MISMATCH"
            lines.append(f"archetype cross-check: {verdict}")
        if self.route_map_report:
            lines.append(
                f"route-map findings: {len(self.route_map_report)}"
            )
            for diagnostic in self.route_map_report:
                lines.append("  " + diagnostic.render())
        else:
            lines.append("route-map findings: none")
        return "\n".join(lines)


def lint_campus_corpus(
    corpus: CampusCorpus,
    registry: Optional[CheckRegistry] = None,
    with_witnesses: bool = False,
) -> CorpusLintResult:
    """Lint a campus corpus and cross-check the archetype shares."""
    observed: Dict[str, int] = {}
    classifications = []
    for acl in corpus.acls:
        classification = classify_acl(acl, with_witnesses=with_witnesses)
        observed[classification.archetype] = (
            observed.get(classification.archetype, 0) + 1
        )
        classifications.append(classification)
    route_map_report = lint_store(
        corpus.store,
        registry=registry,
        select=("RM001", "RM002"),
        with_witnesses=with_witnesses,
    )
    return CorpusLintResult(
        total_acls=len(corpus.acls),
        observed=observed,
        expected=ArchetypeCounts.for_total(len(corpus.acls)),
        classifications=tuple(classifications),
        route_map_report=route_map_report,
    )


__all__ = [
    "AclClassification",
    "CLEAN",
    "CROSSING_HEAVY",
    "CROSSING_LIGHT",
    "CorpusLintResult",
    "HEAVY_THRESHOLD",
    "MIXED",
    "OVERLAP_CODES",
    "SHADOWED_HEAVY",
    "SHADOWED_LIGHT",
    "classify_acl",
    "lint_campus_corpus",
]
