"""Unit and property tests for the prefix-space algebra."""

import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.prefixspace import PrefixAtom, PrefixSpace, _carve
from repro.netaddr import Ipv4Address, Ipv4Prefix


def atom(prefix, lo=None, hi=None):
    p = Ipv4Prefix.parse(prefix)
    return PrefixAtom(p, lo if lo is not None else p.length, hi if hi is not None else 32)


@st.composite
def prefixes(draw):
    length = draw(st.integers(0, 8))
    # Keep networks inside a small universe so brute-force checks are cheap.
    bits = draw(st.integers(0, (1 << length) - 1)) if length else 0
    value = bits << (32 - length) if length else 0
    return Ipv4Prefix(Ipv4Address(value), length)


@st.composite
def atoms(draw):
    covering = draw(prefixes())
    lo = draw(st.integers(covering.length, 8))
    hi = draw(st.integers(lo, 8))
    return PrefixAtom(covering, lo, hi)


def all_test_networks():
    """Every prefix of length <= 8 inside the top 256 /8 blocks... kept tiny."""
    out = []
    for length in range(0, 9):
        step = 1 << (32 - length) if length else 1 << 32
        count = 1 << length
        for i in range(count):
            out.append(Ipv4Prefix(Ipv4Address(i * (1 << (32 - length))), length))
    return out


TEST_NETWORKS = all_test_networks()


class TestPrefixAtom:
    def test_contains_respects_length_window(self):
        a = atom("10.0.0.0/8", 8, 24)
        assert a.contains(Ipv4Prefix.parse("10.0.0.0/8"))
        assert a.contains(Ipv4Prefix.parse("10.1.0.0/16"))
        assert not a.contains(Ipv4Prefix.parse("10.1.2.128/25"))
        assert not a.contains(Ipv4Prefix.parse("11.0.0.0/8"))
        assert not a.contains(Ipv4Prefix.parse("0.0.0.0/0"))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            atom("10.0.0.0/8", 4, 24)
        with pytest.raises(ValueError):
            atom("10.0.0.0/8", 24, 16)

    def test_intersect_nested(self):
        outer = atom("10.0.0.0/8", 8, 24)
        inner = atom("10.1.0.0/16", 16, 32)
        got = outer.intersect(inner)
        assert got == PrefixAtom(Ipv4Prefix.parse("10.1.0.0/16"), 16, 24)

    def test_intersect_disjoint(self):
        assert atom("10.0.0.0/8").intersect(atom("11.0.0.0/8")) is None

    def test_intersect_window_miss(self):
        a = atom("10.0.0.0/8", 8, 15)
        b = atom("10.1.0.0/16", 16, 32)
        assert a.intersect(b) is None

    def test_witness_in_atom(self):
        a = atom("10.0.0.0/8", 12, 24)
        assert a.contains(a.witness())

    def test_universe_contains_everything(self):
        for network in ["0.0.0.0/0", "10.0.0.0/8", "255.255.255.255/32"]:
            assert PrefixAtom.universe().contains(Ipv4Prefix.parse(network))

    @given(atoms())
    @settings(max_examples=50)
    def test_complement_is_exact(self, a):
        complement = a.complement_atoms()
        for network in TEST_NETWORKS:
            in_atom = a.contains(network)
            in_complement = any(c.contains(network) for c in complement)
            assert in_atom != in_complement, (a, network)


class TestPrefixSpace:
    def test_empty_and_universe(self):
        assert PrefixSpace.empty().is_empty()
        assert PrefixSpace.universe().is_universe()
        assert PrefixSpace.universe().complement().is_empty()

    def test_absorption(self):
        space = PrefixSpace((atom("10.0.0.0/8", 8, 32), atom("10.1.0.0/16", 16, 24)))
        assert len(space.atoms) == 1

    def test_subtract(self):
        space = PrefixSpace.of_atom(atom("10.0.0.0/8", 8, 32))
        space = space.subtract(PrefixSpace.of_atom(atom("10.1.0.0/16", 16, 32)))
        assert space.contains(Ipv4Prefix.parse("10.0.0.0/8"))
        assert space.contains(Ipv4Prefix.parse("10.2.0.0/16"))
        assert not space.contains(Ipv4Prefix.parse("10.1.0.0/16"))
        assert not space.contains(Ipv4Prefix.parse("10.1.2.0/24"))

    def test_subset(self):
        inner = PrefixSpace.of_atom(atom("10.1.0.0/16", 16, 24))
        outer = PrefixSpace.of_atom(atom("10.0.0.0/8", 8, 32))
        assert inner.is_subset_of(outer)
        assert not outer.is_subset_of(inner)

    def test_witness(self):
        assert PrefixSpace.empty().witness() is None
        space = PrefixSpace.of_atom(atom("10.0.0.0/8", 12, 24))
        assert space.contains(space.witness())

    @given(atoms(), atoms())
    @settings(max_examples=50)
    def test_intersection_semantics(self, a, b):
        space = PrefixSpace.of_atom(a).intersect(PrefixSpace.of_atom(b))
        for network in TEST_NETWORKS:
            expected = a.contains(network) and b.contains(network)
            assert space.contains(network) == expected

    @given(atoms(), atoms())
    @settings(max_examples=50)
    def test_union_semantics(self, a, b):
        space = PrefixSpace.of_atom(a).union(PrefixSpace.of_atom(b))
        for network in TEST_NETWORKS:
            expected = a.contains(network) or b.contains(network)
            assert space.contains(network) == expected

    @given(atoms(), atoms())
    @settings(max_examples=30)
    def test_subtraction_semantics(self, a, b):
        space = PrefixSpace.of_atom(a).subtract(PrefixSpace.of_atom(b))
        for network in TEST_NETWORKS:
            expected = a.contains(network) and not b.contains(network)
            assert space.contains(network) == expected


# ------------------------------------------------- multi-atom brute force

#: A small universe whose windows reach /32: every network inside BLOCK
#: at lengths /20-/32, the shorter prefixes on the path to BLOCK, and the
#: siblings of those and of BLOCK.  Every atom drawn from it, and every
#: atom the algebra derives from those, has one of these coverings, so
#: inside a sibling's subtree membership depends on the length alone: one
#: descendant per sibling and length stands for all of them, and the
#: probes decide set equality exactly.
BLOCK = Ipv4Prefix.parse("10.1.16.0/20")
PATH = [BLOCK.truncate(length) for length in range(BLOCK.length)]
SIBLINGS = [BLOCK.truncate(length).sibling() for length in range(1, BLOCK.length + 1)]
OUTSIDE = (
    PATH
    + SIBLINGS
    + [
        Ipv4Prefix(s.network, length)
        for s in SIBLINGS
        for length in range(s.length + 1, 33)
    ]
)
INSIDE = [
    Ipv4Prefix(Ipv4Address(BLOCK.network.value + (i << (32 - length))), length)
    for length in range(BLOCK.length, 33)
    for i in range(1 << (length - BLOCK.length))
]
#: Bit of the first network inside BLOCK at each length (INSIDE lists
#: one length after another, each in address order).
LAYER = {
    length: len(OUTSIDE) + (1 << (length - BLOCK.length)) - 1
    for length in range(BLOCK.length, 33)
}
ALL = (1 << (len(OUTSIDE) + len(INSIDE))) - 1


@functools.lru_cache(maxsize=None)
def atom_members(a):
    """Bitmap of the probes in atom ``a``: OUTSIDE by ``contains``, INSIDE
    as one run of bits per length."""
    bits = sum(1 << i for i, p in enumerate(OUTSIDE) if a.contains(p))
    for length in range(max(a.lo, BLOCK.length), a.hi + 1):
        if a.covering.contains_prefix(BLOCK):
            first, count = 0, 1 << (length - BLOCK.length)
        elif BLOCK.contains_prefix(a.covering):
            offset = a.covering.network.value - BLOCK.network.value
            first, count = offset >> (32 - length), 1 << (length - a.covering.length)
        else:
            continue
        bits |= ((1 << count) - 1) << (LAYER[length] + first)
    return bits


def members(space):
    return functools.reduce(operator.or_, map(atom_members, space.atoms), 0)


@st.composite
def block_atoms(draw):
    covering = draw(
        st.one_of(
            st.sampled_from(PATH + [BLOCK]),
            st.sampled_from(SIBLINGS),
            st.builds(
                lambda length, bits: Ipv4Prefix.canonical(
                    Ipv4Address(BLOCK.network.value | bits), length
                ),
                st.integers(BLOCK.length, 32),
                st.integers(0, (1 << (32 - BLOCK.length)) - 1),
            ),
        )
    )
    lo = draw(st.integers(covering.length, 32))
    hi = draw(st.integers(lo, 32))
    return PrefixAtom(covering, lo, hi)


def spaces():
    return st.lists(block_atoms(), max_size=6).map(lambda atoms: PrefixSpace(tuple(atoms)))


def reference_complement(space):
    """The complement as the intersection of every atom's complement."""
    result = PrefixSpace.universe()
    for a in space.atoms:
        result = result.intersect(PrefixSpace(a.complement_atoms()))
    return result


def reference_carve(a, taken):
    return tuple(
        got for got in (a.intersect(c) for c in taken.complement_atoms()) if got is not None
    )


def assert_disjoint_if_recorded(space):
    if space._disjoint:
        for i, a in enumerate(space.atoms):
            for b in space.atoms[i + 1:]:
                assert a.intersect(b) is None, space


class TestMultiAtomOracle:
    @given(block_atoms())
    @settings(max_examples=25, deadline=None)
    def test_member_bitmap_is_brute_force(self, a):
        probes = OUTSIDE + INSIDE
        assert atom_members(a) == sum(1 << i for i, p in enumerate(probes) if a.contains(p))

    @given(spaces(), spaces())
    @settings(max_examples=60, deadline=None)
    def test_every_operation_matches_enumeration(self, x, y):
        mx, my = members(x), members(y)
        results = {
            "union": (x.union(y), mx | my),
            "intersect": (x.intersect(y), mx & my),
            "subtract": (x.subtract(y), mx & ~my),
            "complement": (x.complement(), ALL & ~mx),
        }
        for name, (space, expected) in results.items():
            assert members(space) == expected, name
            assert_disjoint_if_recorded(space)
        assert x.is_subset_of(y) == (mx & ~my == 0)
        assert x.intersect(y).is_subset_of(x)
        assert_disjoint_if_recorded(x.intersect(y).subtract(x.complement()))

    @given(spaces(), spaces())
    @settings(max_examples=60, deadline=None)
    def test_atoms_and_order_match_the_complement_reference(self, x, y):
        assert x.complement().atoms == reference_complement(x).atoms
        assert x.subtract(y).atoms == x.intersect(reference_complement(y)).atoms
        if x.atoms:
            assert x.witness() == x.atoms[0].witness()

    @given(block_atoms(), block_atoms())
    @settings(max_examples=300, deadline=None)
    def test_carve_matches_reference(self, a, taken):
        assert _carve(a, taken) == reference_carve(a, taken)

    @pytest.mark.parametrize(
        "a, taken",
        [
            (atom("10.1.16.0/20", 20, 32), atom("10.1.17.0/24", 24, 28)),  # taken inside
            (atom("10.1.17.0/24", 26, 30), atom("10.0.0.0/8", 8, 28)),  # atom inside
            (atom("10.1.17.0/24", 26, 30), atom("10.0.0.0/8", 20, 30)),  # subsumed
            (atom("10.1.17.0/24", 24, 30), atom("10.1.17.0/24", 26, 28)),  # same covering
            (atom("10.1.16.0/20", 20, 32), atom("10.1.17.7/32", 32, 32)),  # meet at /32
            (atom("10.1.16.0/20", 28, 32), atom("10.1.17.0/24", 32, 32)),  # meet at /32
            (atom("10.1.17.7/32", 32, 32), atom("10.1.16.0/20", 28, 32)),  # /32 subsumed
            (atom("10.1.16.0/20", 32, 32), atom("10.1.17.0/24", 24, 31)),  # windows miss
            (atom("10.1.17.0/24", 30, 32), atom("10.1.18.0/24", 24, 32)),  # coverings diverge
        ],
    )
    def test_carve_edge_cases(self, a, taken):
        got = _carve(a, taken)
        assert got == reference_carve(a, taken)
        if taken.subsumes(a):
            assert got == ()
        if a.intersect(taken) is None and not a.covering.contains_prefix(taken.covering):
            assert got == (a,)

    def test_disjoint_record_is_not_part_of_the_value(self):
        carved = PrefixSpace.universe().subtract(PrefixSpace.exact(BLOCK))
        built = PrefixSpace(carved.atoms + carved.atoms[:1])
        assert carved._disjoint and not built._disjoint
        assert carved == built and hash(carved) == hash(built)
        assert repr(carved) == repr(PrefixSpace(carved.atoms))
