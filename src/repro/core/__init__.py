"""Clarify: incremental synthesis with verification and disambiguation.

This package is the paper's primary contribution (Fig. 1):

1. the user's English intent is classified (ACL vs route-map) and the
   matching prompts/examples are retrieved (:mod:`repro.core.synthesis`);
2. the LLM synthesises one stanza in isolation, which is verified against
   an LLM-extracted JSON specification with counterexample feedback and a
   retry threshold (:mod:`repro.core.spec`, :mod:`repro.core.verify`);
3. the **disambiguator** decides where the stanza belongs in the existing
   policy by binary-searching the overlapping stanzas and asking the user
   differential questions (:mod:`repro.core.disambiguator`,
   :mod:`repro.core.oracle`);
4. the stanza is inserted with ancillary-list renaming and stanza
   renumbering (:mod:`repro.core.insertion`).

:class:`~repro.core.workflow.ClarifySession` ties the loop together.
"""

from repro.core.budget import (
    TimeBudget,
    budget_scope,
    check_budget,
    current_budget,
)
from repro.core.disambiguator import (
    DisambiguationMode,
    DisambiguationQuestion,
    DisambiguationResult,
    disambiguate_acl_rule,
    disambiguate_as_path_entry,
    disambiguate_community_entry,
    disambiguate_prefix_list_entry,
    disambiguate_stanza,
)
from repro.core.errors import (
    ClarifyError,
    DeadlineExceeded,
    DisambiguationError,
    SpecError,
    SynthesisPunt,
)
from repro.core.insertion import (
    insert_rule_into_acl,
    insert_stanza_into_store,
)
from repro.core.oracle import (
    CountingOracle,
    FirstOptionOracle,
    IntentOracle,
    ScriptedOracle,
    UserOracle,
)
from repro.core.spec import AclSpec, RouteMapSpec
from repro.core.synthesis import SynthesisPipeline, SynthesisResult
from repro.core.verify import (
    VerificationResult,
    verify_acl_snippet,
    verify_route_map_snippet,
)
from repro.core.workflow import ClarifySession, UpdateReport

__all__ = [
    "AclSpec",
    "ClarifyError",
    "ClarifySession",
    "CountingOracle",
    "DeadlineExceeded",
    "DisambiguationError",
    "DisambiguationMode",
    "DisambiguationQuestion",
    "DisambiguationResult",
    "FirstOptionOracle",
    "IntentOracle",
    "RouteMapSpec",
    "ScriptedOracle",
    "SpecError",
    "SynthesisPipeline",
    "SynthesisPunt",
    "SynthesisResult",
    "TimeBudget",
    "UpdateReport",
    "UserOracle",
    "VerificationResult",
    "budget_scope",
    "check_budget",
    "current_budget",
    "disambiguate_acl_rule",
    "disambiguate_as_path_entry",
    "disambiguate_community_entry",
    "disambiguate_prefix_list_entry",
    "disambiguate_stanza",
    "insert_rule_into_acl",
    "insert_stanza_into_store",
    "verify_acl_snippet",
    "verify_route_map_snippet",
]
