#!/usr/bin/env python3
"""The paper's §7 extension: disambiguated insertion into ancillary lists.

Prefix-lists, community-lists, and AS-path lists are themselves
first-match policies, so inserting a new entry has the same ambiguity
problem as inserting a stanza.  This example adds a permit exception to
a prefix-list that denies a covering range — the exception only works if
it lands *above* the deny, and the disambiguator asks exactly one
question to find that out.

Run:  python examples/list_insertion.py
"""

from repro.config import parse_config, render_config
from repro.config.lists import PrefixListEntry
from repro.core import CountingOracle, IntentOracle
from repro.core.disambiguator import disambiguate_prefix_list_entry
from repro.netaddr import Ipv4Prefix

EXISTING = """\
ip prefix-list EDGE seq 10 deny 10.1.0.0/16 le 32
ip prefix-list EDGE seq 20 permit 10.0.0.0/8 le 24
"""

NEW_ENTRY = PrefixListEntry(
    seq=0, action="permit", prefix=Ipv4Prefix.parse("10.1.2.0/24"), le=32
)


def operator_intent(network: Ipv4Prefix) -> tuple:
    """Ground truth: 10.1.2.0/24 is an exception to the 10.1/16 deny."""
    if Ipv4Prefix.parse("10.1.2.0/24").contains_prefix(network):
        return ("permit",)
    if Ipv4Prefix.parse("10.1.0.0/16").contains_prefix(network):
        return ("deny",)
    if (
        Ipv4Prefix.parse("10.0.0.0/8").contains_prefix(network)
        and network.length <= 24
    ):
        return ("permit",)
    return ("deny",)


def main() -> None:
    store = parse_config(EXISTING)
    print("Existing prefix-list:\n")
    print(EXISTING)
    print(f"New entry: permit {NEW_ENTRY.prefix} le {NEW_ENTRY.le}\n")

    oracle = CountingOracle(IntentOracle(operator_intent))
    result = disambiguate_prefix_list_entry(store, "EDGE", NEW_ENTRY, oracle)

    print(f"overlapping entries (indices): {list(result.overlaps)}")
    print(f"questions asked: {result.question_count}")
    for question in result.questions:
        print("\nThe disambiguator asked:\n")
        print(question.render())
    print(f"\nentry inserted at position {result.position}\n")
    print(render_config(result.store))

    updated = result.store.prefix_list("EDGE")
    print("\nBehaviour checks:")
    for text in ["10.1.2.0/25", "10.1.3.0/24", "10.5.0.0/24"]:
        network = Ipv4Prefix.parse(text)
        print(f"  {text:<14} -> {'permit' if updated.permits(network) else 'deny'}")


if __name__ == "__main__":
    main()
