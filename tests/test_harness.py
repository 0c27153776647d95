"""Tests for enumeration, distributions, oracles, and the check registry."""

import doctest
import hashlib
import json
import math
import os
from collections import Counter
from functools import cache, partial
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxcodes import harness, perm_a, perm_b, perm_d, qpoly


def test_doctests():
    assert doctest.testmod(harness).failed == 0


def test_group_order():
    assert harness.group_order("A", 5) == 120
    assert harness.group_order("B", 3) == 48
    assert harness.group_order("D", 4) == 192
    for family, n in (("A", 5), ("B", 3), ("D", 4)):
        assert len(list(harness.enumerate_group(family, n))) == harness.group_order(
            family, n
        )


def test_check_group_bounds():
    for family, n in (("X", 3), ("A", 0), ("A", 10), ("B", 9), ("D", 9), ("D", 1)):
        with pytest.raises(ValueError):
            harness.check_group(family, n)
        with pytest.raises(ValueError):
            list(harness.enumerate_group(family, n))
    # the permutation modules themselves accept rank 1 even-signed input
    assert perm_d.ecode_encode((1,)) == (1,)


def test_unrank_rank_round_trip():
    for family, n in (("A", 4), ("B", 3), ("D", 3)):
        order = harness.group_order(family, n)
        seen = set()
        for r in range(order):
            el = harness.unrank(family, n, r)
            assert harness.rank(family, n, el) == r
            seen.add(el)
        assert len(seen) == order
    # rank 0 carries the all-ones code, which decodes to the reversal
    assert harness.unrank("A", 3, 0) == (3, 2, 1)
    assert harness.unrank("A", 3, harness.rank("A", 3, (1, 2, 3))) == (1, 2, 3)
    with pytest.raises(ValueError):
        harness.unrank("A", 3, 6)
    with pytest.raises(ValueError):
        harness.unrank("A", 3, -1)
    # a rank is a plain int: neither a float nor a bool passes for one
    with pytest.raises(ValueError):
        harness.unrank("B", 3, 1.5)
    with pytest.raises(ValueError):
        harness.unrank("B", 3, True)


def test_rank_rejects_wrong_length_and_non_members():
    for family, n, element in (
        ("A", 3, (1, 2)),
        ("A", 3, (1, 1, 1)),
        ("A", 3, (1, 2, -3)),
        ("B", 2, (1, 2, 3)),
        ("B", 2, (0, 1)),
        ("D", 3, (-1, 2, 3)),
    ):
        with pytest.raises(ValueError):
            harness.rank(family, n, element)
    with pytest.raises(ValueError):
        harness.cayley_distance("B", 3, "T^B", (1, 2))


def test_ranker_core_matches_enumeration_order():
    # the rank of an element is, by definition, its index in enumerate_group;
    # the rank tables give it too, from the element's two halves, on every
    # group the BFS admits
    groups = [
        (family, n) for family, top in (("A", 8), ("B", 6), ("D", 6))
        for n in range(harness._MIN_N[family], top + 1)
    ]
    for family, n in groups:
        core = partial(harness.rank, family, n)
        elements = list(harness.enumerate_group(family, n))
        ranks = list(map(core, elements))
        assert ranks == list(range(harness.group_order(family, n)))
        k, head, tail = harness._rank_tables(family, n)
        assert k == (n + 1) // 2
        assert [head[s[:k]] + tail[s[k:]] for s in elements] == ranks


def test_enumerate_group_slicing():
    full = list(harness.enumerate_group("B", 2))
    assert full == [harness.unrank("B", 2, r) for r in range(8)]
    assert list(harness.enumerate_group("B", 2, start=3, stop=6)) == full[3:6]
    # rank order on whole groups, and the chunks a w-worker sweep takes
    for family, ns in (("A", range(1, 6)), ("B", range(1, 6)), ("D", range(2, 6))):
        for n in ns:
            order = harness.group_order(family, n)
            full = list(harness.enumerate_group(family, n))
            assert full == [harness.unrank(family, n, r) for r in range(order)]
            for w in (2, 3):
                bounds = [order * k // w for k in range(w + 1)]
                chunks = [
                    list(harness.enumerate_group(family, n, a, b))
                    for a, b in zip(bounds, bounds[1:])
                ]
                assert sum(chunks, []) == full


def assert_enumeration_is_unrank(family, n):
    """The head/tail tables give the decoder's element at every rank, on the
    whole group and on ranges that are empty, start inside a tail or on a
    tail boundary, and end inside a tail or on the last rank."""
    order = harness.group_order(family, n)
    full = [harness.unrank(family, n, r) for r in range(order)]
    assert list(harness.enumerate_group(family, n)) == full
    size, tails = harness._unrank_tables(family, n)
    assert size * len(tails) == order
    ranges = [
        (0, 0), (order, order), (size + 1, size + 1),  # empty
        (1, size + 1),  # inside the first tail to inside the second
        (size, 2 * size),  # one whole tail, boundary to boundary
        (size - 1, order),  # the last head of a tail to the last rank
        (order - size, order),  # the last tail
        (order - 1, order),  # the last rank alone
    ]
    for start, stop in ranges:
        if 0 <= start <= stop <= order:
            assert list(harness.enumerate_group(family, n, start, stop)) == (
                full[start:stop]
            ), (family, n, start, stop)


def test_unrank_tables_match_the_decoder():
    for family, ns in (("A", range(1, 8)), ("B", range(1, 7)), ("D", range(2, 7))):
        for n in ns:
            assert_enumeration_is_unrank(family, n)


@pytest.mark.skipif(
    os.environ.get("COXCODES_ACCEPT_B7") != "1",
    reason="set COXCODES_ACCEPT_B7=1 to unrank all of A8, B7 and D7",
)
def test_unrank_tables_match_the_decoder_on_the_largest_groups():
    for family, n in (("A", 8), ("B", 7), ("D", 7)):
        assert_enumeration_is_unrank(family, n)


def assert_d_is_the_even_half_of_b(n):
    """B's ranks 2r and 2r + 1 differ in the sign of place 1 alone, so
    exactly one of them is even-signed, and it is D's element of rank r."""
    for r in range(harness.group_order("D", n)):
        pair = [harness.unrank("B", n, 2 * r + i) for i in (0, 1)]
        even = [s for s in pair if perm_d.is_even_signed(s)]
        assert even == [harness.unrank("D", n, r)], (n, r)
        assert harness.rank("D", n, even[0]) == r == harness.rank("B", n, even[0]) // 2


def test_d_rank_is_b_rank_halved():
    for n in range(2, 7):
        assert_d_is_the_even_half_of_b(n)


@pytest.mark.skipif(
    os.environ.get("COXCODES_ACCEPT_B7") != "1",
    reason="set COXCODES_ACCEPT_B7=1 to rank all of D7 in D and B",
)
def test_d_rank_is_b_rank_halved_on_d7():
    assert_d_is_the_even_half_of_b(7)


def test_corrupted_head_word_is_caught(monkeypatch):
    unrank_tables = harness._unrank_tables

    def corrupted(family, n):
        # the last tail's list of head words, with its first word repeated
        # over its last, in a copy of the tables
        size, tails = unrank_tables(family, n)
        fixed, heads = tails[-1]
        heads = list(heads)
        heads[-1] = heads[0]
        return size, tails[:-1] + [(fixed, heads)]

    monkeypatch.setattr(harness, "_unrank_tables", corrupted)
    for family, n in (("A", 4), ("B", 3), ("D", 4)):
        with pytest.raises(AssertionError):
            assert_enumeration_is_unrank(family, n)


def decoded_tables(family, n):
    """The unrank tables as decoding gives them: for every tail code, its
    tail word and the head word of every head code under it."""
    decode = harness._DECODERS[family]
    heads, tails = harness._split_codes(family, n)
    k = len(heads[0])
    return len(heads), [
        (decode(heads[0] + t)[k:], [decode(h + t)[:k] for h in heads])
        for t in tails
    ]


def test_relabelled_tables_equal_the_decoded_ones():
    # every head list is the list on 1..k relabelled, with place 1 flipped in
    # D under a tail of odd bars; each equals what the decoder gives
    groups = [(family, n) for family, ns in (
        ("A", range(1, 9)), ("B", range(1, 7)), ("D", range(2, 8))) for n in ns]
    for family, n in groups:
        assert harness._unrank_tables(family, n) == decoded_tables(family, n), (
            family, n)


# the statistics each family's sweep counts by their split form, the reader
# that _SPLITS maps their kernel to
SPLIT_NAMES = {
    "A": {"inv", "rl-min", "lr-max", "nmin", "Lmap", "Rmil", "sor", "cyc", "Cyc"},
    "B": {"inv_B", "nmin_B", "nmax_B", "rl-min_B", "lr-max_B", "N", "Lmap_B",
          "Rmil_B", "sor_B", "cyc_B", "Cyc_B", "l'_B"},
    "D": {"inv_D", "nmin_D", "N", "sor_D"},
}
SPLIT_KERNELS = set(harness._SPLITS)


def test_every_split_reader_reads_a_registry_kernel():
    # a renamed or replaced kernel leaves no reader behind: each key of
    # _SPLITS is an entry of some family's registries
    entries = {f for table in (harness.INTEGER_STATISTICS, harness.SET_STATISTICS)
               for stats in table.values() for f in stats.values()}
    assert SPLIT_KERNELS <= entries


def assert_split_forms_equal_their_kernels(family, n):
    """Each split statistic's values, head part plus tail part, equal its
    kernel's on every element, over the whole group and over ranges that
    start and end inside a tail."""
    stats = harness._statistics(
        family, harness.INTEGER_STATISTICS, harness.SET_STATISTICS
    )
    split = {name for name, f in stats.items() if f in SPLIT_KERNELS}
    assert split == SPLIT_NAMES[family]
    order = harness.group_order(family, n)
    size = harness._unrank_tables(family, n)[0]
    elements = list(harness.enumerate_group(family, n))
    names = sorted(split)
    expected = [list(map(stats[name], elements)) for name in names]
    for start, stop in ((0, order), (1, order - 1), (size - 1, size + 1),
                        (order, order)):
        if 0 <= start <= stop <= order:
            got = [[] for _ in names]
            for _, _, columns in harness._blocks(family, n, names, start, stop):
                for column, values in zip(got, columns):
                    column.extend(values)
            for name, column, values in zip(names, got, expected):
                assert column == values[start:stop], (family, n, name, start)


def test_split_forms_equal_their_kernels():
    for family, ns in (("A", range(1, 9)), ("B", range(1, 7)), ("D", range(2, 7))):
        for n in ns:
            assert_split_forms_equal_their_kernels(family, n)


@pytest.mark.skipif(
    os.environ.get("COXCODES_ACCEPT_B7") != "1",
    reason="set COXCODES_ACCEPT_B7=1 to prove the split forms on B7 and D7",
)
def test_split_forms_equal_their_kernels_on_b7_and_d7():
    for family, n in (("B", 7), ("D", 7)):
        assert_split_forms_equal_their_kernels(family, n)


def test_cycle_statistics_match_the_signed_cycle_decomposition():
    # the reference for the cycle kernels and for their split form: the
    # balanced cycles of signed_cycle_decomposition, a walk of its own, give
    # cyc_B as their count, Cyc_B as their minima and l'_B as n less the
    # count, on every element of A1-A7 and B1-B6, both as each kernel gives
    # them and as the sweep counts them
    for family, ns in (("A", range(1, 8)), ("B", range(1, 7))):
        names = sorted(SPLIT_NAMES[family] & {"cyc", "Cyc", "cyc_B", "Cyc_B", "l'_B"})
        stats = harness._statistics(
            family, harness.INTEGER_STATISTICS, harness.SET_STATISTICS
        )
        for n in ns:
            order = harness.group_order(family, n)
            for _, block, columns in harness._blocks(family, n, names, 0, order, True):
                for s, values in zip(block, zip(*columns)):
                    minima = tuple(c.values[0] for c in
                                   perm_b.signed_cycle_decomposition(s) if c.balanced)
                    expected = {"cyc": len(minima), "cyc_B": len(minima),
                                "Cyc": minima, "Cyc_B": minima, "l'_B": n - len(minima)}
                    for name, value in zip(names, values):
                        assert value == stats[name](s) == expected[name], (name, s)


def break_split(monkeypatch, kernel, at):
    """Break the kernel's reader for each tail where at(heads, fixed) holds:
    entry 1 of a copy of its column goes past every value the kernel takes,
    100 added, or for a set value the member 100."""
    split = harness._SPLITS[kernel]

    def broken(f, heads, fixed, cache):
        column, part = split(f, heads, fixed, cache)
        if at(heads, fixed):
            column = list(column)
            column[1] = column[1] + ((100,) if isinstance(column[1], tuple) else 100)
        return column, part

    monkeypatch.setitem(harness._SPLITS, kernel, broken)


def test_broken_split_part_is_caught_and_its_witness_reproduces(monkeypatch):
    # one head entry of inv_D's split, raised past every value inv_D takes:
    # the sweep counts values no element has by its kernel, so only a witness
    # judged by the values the sweep counted exists, and unrank replays it
    size, tails = harness._unrank_tables("D", 5)
    first = tails[0][1]  # the first tail's head list
    break_split(monkeypatch, perm_d.inv_d, lambda heads, _: heads is first)
    report = harness.run_check("type-d-mahonian", 5)
    assert not report.passed
    ce = report.counterexample
    assert set(ce) == {"groups", "key", "count", "expected", "rank", "element"}
    assert ce["groups"] == [["inv_D"], "gf_type_d_univariate"]
    assert ce["expected"] == 0
    element = harness.unrank("D", 5, ce["rank"])
    assert element == tuple(ce["element"])
    assert ce["key"] == [perm_d.inv_d(element) + 100]
    assert ce["rank"] % size == 1 and tails[ce["rank"] // size][1] is first
    assert harness.sweep("D", 5, ["inv_D"])[tuple(ce["key"])] == ce["count"]
    # the pointwise checks read inv_D as the sweep reads it, so the same
    # broken entry fails them at the first element it reaches
    for name, image in (("oracle-length-d", "distance over S^D"),
                        ("type-d-transport", "image_value")):
        report = harness.run_check(name, 5)
        assert not report.passed, name
        ce = report.counterexample
        assert replays("D", 5, ce)
        assert ce["rank"] % size == 1 and tails[ce["rank"] // size][1] is first
        got = ce["inv_D" if image.startswith("distance") else "source_value"]
        element = tuple(ce["element"])
        assert got == perm_d.inv_d(element) + 100 and ce[image] == got - 100, name
    # the set-valued place columns, broken the same way on B4 (the member
    # 100 in entry 1 of the first head list's column), fail each check that
    # reads them at a rank that unrank replays
    size, tails = harness._unrank_tables("B", 4)
    first = tails[0][1]
    for name, kernel, ranks in (("Rmil_B", perm_b.rmil_b_set, (265, 289, 1)),
                                ("Lmap_B", perm_b.lmap_b_set, (194, 193, 1))):
        with monkeypatch.context() as patch:
            break_split(patch, kernel, lambda heads, _: heads is first)
            for check, r in zip(("type-b-set-pairs", "type-b-triples",
                                 "type-b-transport"), ranks):
                ce = harness.run_check(check, 4).counterexample
                assert ce is not None and ce["rank"] == r, (name, check)
                assert replays("B", 4, ce), (name, check)
            assert 100 in ce["source_value"], name
    # a replaced registry entry takes the per-element path, which the broken
    # part does not reach
    kernel = harness.INTEGER_STATISTICS["D"]["inv_D"]
    monkeypatch.setitem(harness.INTEGER_STATISTICS["D"], "inv_D", lambda s: kernel(s))
    for name in ("type-d-mahonian", "oracle-length-d", "type-d-transport"):
        assert harness.run_check(name, 5).passed, name


# each check that reads a cycle statistic off the split, with its family, n
# and that statistic
_CYCLE_CHECKS = [
    ("type-a-gf", "A", 5, "cyc"),
    ("type-b-gf", "B", 4, "l'_B"),
    ("type-b-set-pairs", "B", 4, "Cyc_B"),
    ("oracle-reflection-length-b", "B", 4, "l'_B"),
]


@pytest.mark.parametrize("mutant", ["column entry", "chain parity"])
def test_broken_cycle_split_is_caught_and_its_witness_reproduces(monkeypatch, mutant):
    # the split of the cycle statistics, broken in one of two ways: entry 1
    # of each cycle column read with the first tail's head list gains 100 (a
    # set: the member 100), or under the first tail the chain that leaves
    # head place 1 gains one bar, so its letter is barred in the
    # relabelling.  Each check that reads a cycle statistic off the split
    # fails, the BFS over T^B, which shares no code with the split, among
    # them, and every counterexample's rank unranks to its element
    cycle_tail = harness._cycle_tail
    first = {}  # family -> the first tail's (fixed, heads)

    def broken_tail(f, g, fixed):
        part, word = cycle_tail(f, g, fixed)
        if any(g + fixed == h[0] + t for t, h in first.values()):
            word = (-word[0],) + word[1:]
        return part, word

    if mutant == "column entry":
        for kernel in (perm_b.cyc_b, perm_b.cyc_b_set, perm_b.reflection_length_b):
            break_split(monkeypatch, kernel, lambda heads, _: any(
                heads is h for _, h in first.values()))
    else:
        monkeypatch.setattr(harness, "_cycle_tail", broken_tail)
    for check, family, n, name in _CYCLE_CHECKS:
        first[family] = harness._unrank_tables(family, n)[1][0]
        report = harness.run_check(check, n)
        assert not report.passed, check
        ce = report.counterexample
        assert replays(family, n, ce), check
        if check.startswith("oracle"):  # it stops in the first tail
            assert ce["rank"] < harness._unrank_tables(family, n)[0]
            expected = perm_b.reflection_length_b(tuple(ce["element"]))
            assert ce["distance over T^B"] == expected != ce[name]
        else:  # the witness has a value tuple the group over-counts
            group = ce["groups"][0]
            assert name in group and ce["count"] > ce["expected"], check
            key = tuple(tuple(v) if isinstance(v, list) else v for v in ce["key"])
            assert harness.sweep(family, n, group)[key] == ce["count"], check
    # a replaced registry entry takes the per-element path, which the broken
    # split does not reach
    for _, family, _, name in _CYCLE_CHECKS:
        table = harness.INTEGER_STATISTICS
        if name not in table[family]:
            table = harness.SET_STATISTICS
        kernel = table[family][name]
        monkeypatch.setitem(table[family], name, lambda s, kernel=kernel: kernel(s))
    for check, _, n, _ in _CYCLE_CHECKS:
        assert harness.run_check(check, n).passed, check


def test_enumerate_group_refuses_non_integer_bounds():
    # a bool is no rank, as for unrank: True used to start at rank 1; the
    # call itself refuses, before any element is asked for
    for bounds in ((True,), (0, True), (False, 6), ("1",), (0, "6"), (1.0,), (0, 2.5)):
        with pytest.raises(ValueError):
            harness.enumerate_group("A", 3, *bounds)
    for family, n in (("X", 3), ("A", 10)):
        with pytest.raises(ValueError):
            harness.enumerate_group(family, n)
    assert list(harness.enumerate_group("A", 3, 0, None)) == list(
        harness.enumerate_group("A", 3)
    )


def test_statistic_resolution():
    name, fn = harness.integer_statistic("A", "inv")
    assert name == "inv" and fn((2, 1)) == 1
    # aliases map onto canonical names
    assert harness.integer_statistic("A", "rl_min")[0] == "rl-min"
    assert harness.integer_statistic("B", "lp_B")[0] == "l'_B"
    assert harness.integer_statistic("D", "ñ'_D")[0] == "lt'_D"
    assert harness.integer_statistic("D", "sorp_D")[0] == "sor'_D"
    assert harness.set_statistic("B", "Cyc_B")[0] == "Cyc_B"
    with pytest.raises(ValueError) as err:
        harness.integer_statistic("A", "sor_B")
    assert "inv" in str(err.value)  # the error lists the valid choices
    with pytest.raises(ValueError):
        harness.set_statistic("D", "Lmap")
    # a name that is no str, even an unhashable one, is refused as unknown
    for name in (["inv"], {"inv": 1}, None, 1):
        with pytest.raises(ValueError, match="unknown statistic"):
            harness.integer_statistic("A", name)
        with pytest.raises(ValueError, match="unknown statistic"):
            harness.set_statistic("B", name)
        with pytest.raises(ValueError, match="unknown statistic"):
            harness.sweep("A", 3, [name])


def test_sweep_error_lists_every_statistic_it_takes():
    with pytest.raises(ValueError) as err:
        harness.sweep("A", 3, ["Cycc"])
    assert str(err.value) == (
        "unknown statistic 'Cycc' for family A; choose from: "
        "Cyc, Lmap, Rmil, cyc, inv, lr-max, nmin, rl-min, sor"
    )


def test_family_without_set_statistics_says_so():
    with pytest.raises(ValueError) as err:
        harness.set_statistic("D", "Lmap")
    assert str(err.value) == "family D has no set statistics"


def test_statistic_names():
    assert "sor" in harness.integer_statistic_names("A")
    assert "nmin_B" in harness.integer_statistic_names("B")
    assert "lt'_D" in harness.integer_statistic_names("D")
    assert "N" in harness.integer_statistic_names("D")
    assert harness.set_statistic_names("D") == []


def test_unknown_family_is_refused_by_every_lookup():
    lookups = [
        harness.integer_statistic_names, harness.set_statistic_names,
        partial(harness.integer_statistic, name="inv"),
        partial(harness.set_statistic, name="Cyc"),
        partial(harness.check_group, n=3),
    ]
    for lookup in lookups:
        with pytest.raises(ValueError) as err:
            lookup("X")
        assert str(err.value) == "unknown family 'X'; choose one of A, B, D"


def test_sweep_counts_value_tuples():
    counts = harness.sweep("B", 3, ["inv_B", "lp_B", "Rmil_B"])
    assert counts == Counter(
        (
            perm_b.inv_b(s),
            perm_b.reflection_length_b(s),
            tuple(sorted(perm_b.rmil_b_set(s))),
        )
        for s in harness.enumerate_group("B", 3)
    )
    with pytest.raises(ValueError):
        harness.sweep("B", 3, [])
    with pytest.raises(ValueError):
        harness.sweep("B", 3, ["inv"])


def test_set_pair_distribution():
    dist = harness.sweep("A", 2, ["Cyc", "Lmap"])
    assert dist == {((1, 2), (1, 2)): 1, ((1,), (1,)): 1}
    total = sum(harness.sweep("B", 2, ["Cyc_B", "Lmap_B"]).values())
    assert total == 8


def test_sweep_groups_count_marginals_of_the_union():
    # B5 spans 80 tails of 48 elements; two workers split it in the middle
    names = ["inv_B", "lp_B", "Rmil_B"]
    full = harness.sweep("B", 5, names)
    groups = [("inv_B", "lp_B"), ("Rmil_B",), ("lp_B", "inv_B")]
    expected = []
    for group in groups:
        marginal = Counter()
        for key, count in full.items():
            marginal[tuple(key[names.index(name)] for name in group)] += count
        expected.append(marginal)
    for workers in (1, 2):
        assert harness._sweep("B", 5, groups, workers) == expected


@pytest.mark.parametrize("family, n, names", [
    ("A", 6, ("inv", "sor", "Lmap", "Cyc", "cyc")),
    ("B", 5, ("inv_B", "l'_B", "Rmil_B", "Cyc_B", "sor_B", "cyc_B")),
    ("D", 5, ("nmin_D", "sor_D", "N", "lt'_D")),
])
def test_sweep_ranges_split_inside_a_tail_add_up(monkeypatch, family, n, names):
    # two workers split every group on a tail boundary, so split here at m
    # inside a tail, split and per-element statistics mixed: the two ranges'
    # counts add up to the whole group's, and no block is longer than a tail.
    # A block is measured by its columns: a sweep that reads no element
    # leaves the elements unjoined
    size = harness._unrank_tables(family, n)[0]
    order = harness.group_order(family, n)
    m = order // 2 + 1
    assert m % size != 0
    lengths = []
    blocks = harness._blocks

    def logged(*args):
        for block in blocks(*args):
            lengths.append(len(block[2][0]))
            yield block

    monkeypatch.setattr(harness, "_blocks", logged)
    places = (tuple(range(len(names))), (2, 0), (1,))
    whole = harness._sweep_range(family, n, names, places, 0, order)
    assert lengths == [size] * (order // size)
    lengths.clear()
    low = harness._sweep_range(family, n, names, places, 0, m)
    high = harness._sweep_range(family, n, names, places, m, order)
    assert [a + b for a, b in zip(low, high)] == whole
    assert max(lengths) <= size and sum(lengths) == order
    assert m % size in lengths and size - m % size in lengths


def test_sweep_refuses_a_bare_name():
    # a str is a sequence of letters, none of them the name that was meant;
    # a set would put its names in key positions that follow the hash seed
    for names in ("inv", {"inv", "cyc", "sor"}, frozenset({"inv"}), {"inv": 1}):
        with pytest.raises(ValueError, match="sequence of names"):
            harness.sweep("A", 3, names)


def test_bad_worker_counts_rejected():
    for workers in (0, -1):
        with pytest.raises(ValueError):
            harness.sweep("A", 3, ["inv"], workers)
        with pytest.raises(ValueError):
            harness.joint_distribution("A", 3, "inv", "sor", workers)
        with pytest.raises(ValueError):
            harness.run_check("type-a-gf", 3, workers)


def test_distribution_checks_parallel_match_sequential():
    for name, n in (
        ("type-a-gf", 4),
        ("type-b-gf", 3),
        ("type-a-four-pairs", 4),
        ("type-b-four-pairs", 3),
        ("type-a-set-pairs", 4),
        ("type-b-set-pairs", 3),
        ("type-a-triples", 4),
        ("type-b-triples", 3),
        ("type-d-bivariate", 3),
        ("type-d-mahonian", 4),
    ):
        seq = harness.run_check(name, n, workers=1).to_dict()
        assert seq["passed"]
        assert harness.run_check(name, n, workers=2).to_dict() == seq


# one statistic of each distribution check, broken on a single element: an
# integer statistic is off by one there, a set statistic gains or loses 1
_BROKEN = [
    ("type-a-gf", 4, "rl-min"),
    ("type-a-set-pairs", 4, "Lmap"),
    ("type-a-triples", 4, "Rmil"),
    ("type-a-four-pairs", 4, "lr-max"),
    ("type-b-gf", 3, "l'_B"),
    ("type-b-set-pairs", 3, "Rmil_B"),
    ("type-b-triples", 3, "inv_B"),
    ("type-b-four-pairs", 3, "nmax_B"),
    ("type-d-bivariate", 3, "nmin_D"),
    ("type-d-mahonian", 4, "sor_D"),
]


def break_statistic(monkeypatch, name, n, stat) -> str:
    """Break stat on the element of rank order // 2 + 1, as _BROKEN says,
    and return the family of the named check."""
    family = harness.run_check(name, n).family
    target = harness.unrank(family, n, harness.group_order(family, n) // 2 + 1)
    if stat in harness.INTEGER_STATISTICS[family]:
        f = harness.INTEGER_STATISTICS[family][stat]
        monkeypatch.setitem(
            harness.INTEGER_STATISTICS[family], stat, lambda s: f(s) + (s == target)
        )
    else:
        f = harness.SET_STATISTICS[family][stat]
        monkeypatch.setitem(
            harness.SET_STATISTICS[family], stat,
            lambda s: tuple(sorted(set(f(s)) ^ {1})) if s == target else f(s),
        )
    return family


@pytest.mark.parametrize("name, n, stat", _BROKEN, ids=[c[0] for c in _BROKEN])
def test_every_distribution_check_can_fail(monkeypatch, name, n, stat):
    family = break_statistic(monkeypatch, name, n, stat)
    report = harness.run_check(name, n)
    assert not report.passed
    ce = report.counterexample
    assert set(ce) == {"groups", "key", "count", "expected", "rank", "element"}
    assert ce["count"] > ce["expected"]
    # the witness reproduces: its rank unranks to it, and the named group
    # counts ce["count"] elements with its value tuple
    assert harness.unrank(family, n, ce["rank"]) == tuple(ce["element"])
    key = tuple(tuple(v) if isinstance(v, list) else v for v in ce["key"])
    group = ce["groups"][0]
    assert harness.sweep(family, n, group)[key] == ce["count"]
    stats = harness._statistics(
        family, harness.INTEGER_STATISTICS, harness.SET_STATISTICS
    )
    assert tuple(stats[name](tuple(ce["element"])) for name in group) == key


def test_every_check_walks_the_group_once(monkeypatch):
    # every walk over the group is a run of the block walker, _blocks: a
    # pointwise check runs it only inside the one runner, _scan, and a
    # distribution check only in its sweep, unless it fails: then its
    # witness is one more scan
    calls = []

    def logged(label, f):
        def wrapper(*args, **kwargs):
            calls.append(label)
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "_blocks", logged("walk", harness._blocks))
    monkeypatch.setattr(harness, "_scan", logged("scan", harness._scan))
    distribution = {name for name, _, _ in _BROKEN}  # all ten of them
    for name in harness.CHECKS:
        calls.clear()
        assert harness.run_check(name, 4).passed, name
        pointwise = name not in distribution
        assert calls == (["scan", "walk"] if pointwise else ["walk"]), name
    for name, n, stat in _BROKEN:
        with monkeypatch.context() as broken:
            break_statistic(broken, name, n, stat)
            calls.clear()
            assert not harness.run_check(name, n).passed, name
            assert calls == ["walk", "scan", "walk"], name


def test_unsorted_set_value_is_caught(monkeypatch):
    # set values are compared as the kernels' tuples, so a kernel that gives
    # one element's members out of order falsifies the check
    cyc_b = harness.SET_STATISTICS["B"]["Cyc_B"]
    target = (2, 1, 3)  # balanced cycles (1 2) and (3)
    assert cyc_b(target) == (1, 3)
    monkeypatch.setitem(
        harness.SET_STATISTICS["B"], "Cyc_B",
        lambda s: cyc_b(s)[::-1] if s == target else cyc_b(s),
    )
    report = harness.run_check("type-b-set-pairs", 3)
    assert not report.passed
    assert report.counterexample == {
        "groups": [["Lmap_B", "Cyc_B"], ["Cyc_B", "Lmap_B"]],
        "key": [[1, 3], [3, 1]], "count": 1, "expected": 0,
        "rank": 16, "element": [2, 1, 3],
    }


def test_formula_over_counting_everywhere_gives_no_witness(monkeypatch):
    # a product formula larger than the group falls short of no group's count
    # at any key, so no element can witness the difference
    formula = qpoly.gf_type_a(3) + qpoly.monomial(q=9, t=9)
    monkeypatch.setattr(qpoly, "gf_type_a", lambda n: formula)
    report = harness.run_check("type-a-gf", 3)
    assert not report.passed
    assert report.counterexample == {
        "groups": [["inv", "rl-min"], "gf_type_a"],
        "key": [9, 9], "count": 0, "expected": 1,
    }


# the checks whose reports the three report pins hash: the eight distribution
# checks other than the triples, the triples, and the eleven pointwise checks
# in name order, so that no change of enumeration order leaks into checked or
# details
DISTRIBUTION_CHECKS = (
    "type-a-gf", "type-a-set-pairs", "type-a-four-pairs",
    "type-b-gf", "type-b-set-pairs", "type-b-four-pairs",
    "type-d-bivariate", "type-d-mahonian",
)
TRIPLES_CHECKS = ("type-a-triples", "type-b-triples")
POINTWISE_CHECKS = (
    "codes-a", "codes-b", "codes-d",
    "oracle-length-b", "oracle-length-d",
    "oracle-reflection-length-b", "oracle-reflection-length-d",
    "type-a-transport", "type-b-transport",
    "type-d-sor-prime", "type-d-transport",
)
REPORT_DIGESTS = Path(__file__).with_name("report_digests.json")


@cache
def report_json(name, n, workers):
    """The JSON of one report, computed once per test session and shared by
    the report pins and the per-report digests."""
    return json.dumps(harness.run_check(name, n, workers).to_dict())


def pinned_reports(names):
    """(check, n, workers) for the named checks, for every n up to A7, B5 and
    D6 with 1 and 2 workers."""
    for name in names:
        family = json.loads(report_json(name, 3, 1))["family"]
        top = {"A": 7, "B": 5, "D": 6}[family]
        for n in range(harness._MIN_N[family], top + 1):
            for workers in (1, 2):
                yield name, n, workers


def reports_sha256(names):
    """One hash of the JSON of every pinned report of the named checks."""
    digest = hashlib.sha256()
    for key in pinned_reports(names):
        digest.update(report_json(*key).encode())
    return digest.hexdigest()


def test_distribution_reports_keep_their_bytes():
    assert reports_sha256(DISTRIBUTION_CHECKS) == (
        "ff289bf256d1a65c5a1cff01bba8df0dfa9cea0420aa9083e67346a8df3597af"
    )


def test_triples_reports_keep_their_bytes():
    assert reports_sha256(TRIPLES_CHECKS) == (
        "e4fe40cdbd41b01ab632faba5a558c91af0d84c55daf4228f116725bf491daf2"
    )


def test_pointwise_reports_keep_their_bytes():
    assert reports_sha256(POINTWISE_CHECKS) == (
        "fff56fc871c2e4fa89a293819e05ecc103ab83f32a64cb8a0e8b1105c7689c1a"
    )


def test_each_pinned_report_keeps_its_digest():
    # one digest per report, so that a moved pin names its reports
    expected = json.loads(REPORT_DIGESTS.read_text())
    got = {
        f"{name} n={n} workers={workers}": hashlib.sha256(
            report_json(name, n, workers).encode()
        ).hexdigest()
        for name, n, workers in pinned_reports(
            DISTRIBUTION_CHECKS + TRIPLES_CHECKS + POINTWISE_CHECKS
        )
    }
    moved = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    assert not moved, f"reports whose digest moved: {moved}"


def test_set_statistic_sweeps_keep_their_values():
    # passing reports carry no set values, so this pins each kernel's
    # canonical form: the sweep of all set statistics, A1-A7 then B1-B5
    digest = hashlib.sha256()
    for family, top in (("A", 7), ("B", 5)):
        for n in range(1, top + 1):
            names = list(harness.SET_STATISTICS[family])
            counts = harness.sweep(family, n, names)
            digest.update(repr(sorted(counts.items())).encode())
    assert digest.hexdigest() == (
        "4b3aa693f03042cc10bae68e3782179fd1bc0e58e9e2bd2d8364cbf4addbdb7d"
    )


def test_joint_distribution_anchor():
    dist = harness.joint_distribution("A", 3, "inv", "rl-min")
    assert dist == qpoly.gf_type_a(3)
    # q tracks the first statistic, t the second
    assert harness.joint_distribution("A", 3, "rl-min", "inv") != dist
    assert dist.evaluate(1, 1) == 6


def test_joint_distribution_parallel_matches_sequential():
    seq = harness.joint_distribution("B", 4, "inv_B", "nmin_B", workers=1)
    par = harness.joint_distribution("B", 4, "inv_B", "nmin_B", workers=3)
    assert seq == par
    assert seq.text() == par.text()


def test_verify_transport():
    report = harness.run_check("type-a-transport", 4)
    assert report.passed and report.checked == 24
    assert report.counterexample is None
    assert report.family == "A"
    doc = report.to_dict()
    json.dumps(doc)  # serializable
    assert doc["check"] == "type-a-transport"


def test_bijection_registry():
    assert sorted(harness.BIJECTIONS) == ["phi", "psi", "rho"]
    family, forward, backward, int_pairs, set_pairs = harness.BIJECTIONS["rho"]
    assert family == "D"
    assert ("inv_D", "sor_D") in int_pairs


def test_generating_set_sizes():
    # each set: its size, and the statistic under which its members, and no
    # other elements, have length 1 (the word length its oracle checks)
    sets = {
        ("A", "T^A"): (lambda n: math.comb(n, 2), lambda s: len(s) - perm_a.cyc(s)),
        ("B", "T^B"): (lambda n: n * n, perm_b.reflection_length_b),
        ("B", "S^B"): (lambda n: n, perm_b.inv_b),
        ("D", "T^D"): (lambda n: n * n - 1, perm_d.reflection_length_d),
        ("D", "S^D"): (lambda n: n, perm_d.inv_d),
    }
    for (family, name), (size, length) in sets.items():
        for n in range(harness._MIN_N[family], 6):
            gens = harness.generating_set(family, n, name)
            assert len(gens) == size(n)
            assert len(set(gens)) == len(gens)
            group = harness.enumerate_group(family, n)
            assert set(gens) == {s for s in group if length(s) == 1}
        # each generator is its own inverse, so every set is closed under
        # inversion, on which the BFS word lengths of A and B rely
        for n in range(harness._MIN_N[family], harness._MAX_N[family] + 1):
            ident = harness.identity_of(family, n)
            gens = harness.generating_set(family, n, name)
            assert all(perm_b.compose(g, g) == ident for g in gens)
    n = 4
    with pytest.raises(ValueError):
        harness.generating_set("B", n, "T^A")
    with pytest.raises(ValueError):
        harness.generating_set("A", n, "S^A")


def test_cayley_distance_golden():
    assert harness.cayley_distance("B", 3, "T^B", (2, 1, 3)) == 1
    assert harness.cayley_distance("D", 5, "T^D", (-2, -4, 5, -1, -3)) == 4
    assert harness.cayley_distance("A", 4, "T^A", (1, 2, 3, 4)) == 0


def test_cayley_tables_match_statistics():
    # word length over the full generating family vs the closed formulas
    for n in range(1, 4):
        table = harness.cayley_distance_table("B", n, "T^B")
        for s in harness.enumerate_group("B", n):
            assert table[harness.rank("B", n, s)] == perm_b.reflection_length_b(s)
        table = harness.cayley_distance_table("B", n, "S^B")
        for s in harness.enumerate_group("B", n):
            assert table[harness.rank("B", n, s)] == perm_b.inv_b(s)
    for n in range(2, 4):
        table = harness.cayley_distance_table("D", n, "T^D")
        for s in harness.enumerate_group("D", n):
            assert table[harness.rank("D", n, s)] == perm_d.reflection_length_d(s)
        table = harness.cayley_distance_table("D", n, "S^D")
        for s in harness.enumerate_group("D", n):
            assert table[harness.rank("D", n, s)] == perm_d.inv_d(s)


def reference_distances(family, n, set_name):
    """Word lengths by a plain BFS keyed by element, listed in rank order."""
    gens = harness.generating_set(family, n, set_name)
    ident = harness.identity_of(family, n)
    dist = {ident: 0}
    frontier = [ident]
    while frontier:
        next_frontier = []
        for el in frontier:
            for g in gens:
                image = perm_b.compose(el, g)
                if image not in dist:
                    dist[image] = dist[el] + 1
                    next_frontier.append(image)
        frontier = next_frontier
    return tuple(dist[el] for el in harness.enumerate_group(family, n))


def test_cayley_tables_match_plain_bfs():
    # the smallest rank of each family too, where a BFS step reads n = 1
    # words, and A4 and A6 beside A5, so that A has both parities of the
    # head/tail split the BFS ranks by
    cases = [
        (family, n, set_name)
        for family, n in (("A", 1), ("B", 1), ("D", 2), ("A", 4), ("A", 5), ("A", 6),
                          ("B", 4), ("B", 5), ("D", 4), ("D", 5))
        for set_name in harness.GENERATING_SET_NAMES[family]
    ]
    for family, n, set_name in cases + [("B", 6, "S^B")]:
        assert harness.cayley_distance_table(family, n, set_name) == (
            reference_distances(family, n, set_name)
        )


def replays(family, n, counterexample) -> bool:
    """Whether a pointwise counterexample's rank unranks to its element."""
    element = harness.unrank(family, n, counterexample["rank"])
    return element == tuple(counterexample["element"])


def test_broken_rank_table_makes_its_oracle_fail(monkeypatch):
    rank_tables = harness._rank_tables

    def shifted(family, n):
        # the identity's tail entry, off by one, in a copy of the tables
        k, head, tail = rank_tables(family, n)
        tail = dict(tail)
        tail[tuple(range(k + 1, n + 1))] += 1
        return k, head, tail

    monkeypatch.setattr(harness, "_rank_tables", shifted)
    harness.cayley_distance_table.cache_clear()
    try:
        table = harness.cayley_distance_table("B", 4, "S^B")
        report = harness.run_check("oracle-length-b", 4)
    finally:
        harness.cayley_distance_table.cache_clear()
    assert table != reference_distances("B", 4, "S^B")
    assert not report.passed
    ce = report.counterexample
    assert set(ce) == {"rank", "element", "inv_B", "distance over S^B"}
    assert replays("B", 4, ce)
    assert ce["inv_B"] == perm_b.inv_b(tuple(ce["element"]))
    assert ce["distance over S^B"] != ce["inv_B"]


def test_dropped_generator_makes_its_oracle_fail(monkeypatch):
    # S^B without (-1, 1) reaches no barred element, so the BFS leaves them
    # unreached (255) and the oracle meets one at rank 1
    pairs = harness._GENERATOR_PAIRS["S^B"]
    monkeypatch.setitem(harness._GENERATOR_PAIRS, "S^B", lambda n: pairs(n)[1:])
    harness.cayley_distance_table.cache_clear()
    try:
        report = harness.run_check("oracle-length-b", 4)
    finally:
        harness.cayley_distance_table.cache_clear()
    assert not report.passed and report.checked == 2
    assert report.counterexample == {
        "rank": 1, "element": [-4, 3, 2, 1], "inv_B": 7, "distance over S^B": 255,
    }
    assert replays("B", 4, report.counterexample)


def test_hot_paths_never_call_public_rank(monkeypatch):
    def refuse(*args):
        raise AssertionError("public rank called")

    monkeypatch.setattr(harness, "rank", refuse)
    harness.cayley_distance_table.cache_clear()
    names = [
        name for name in harness.CHECKS
        if name.startswith("oracle-") or name.endswith("-transport")
    ]
    assert len(names) == 7
    for name in names:
        assert harness.run_check(name, 4).passed, name


def test_non_injective_bijection_is_caught(monkeypatch):
    family, psi, psi_inverse, int_pairs, set_pairs = harness.BIJECTIONS["psi"]
    first, second = harness.unrank("B", 4, 0), harness.unrank("B", 4, 1)
    monkeypatch.setitem(
        harness.BIJECTIONS, "psi",
        (family, lambda s: psi(first if s == second else s), psi_inverse,
         int_pairs, set_pairs),
    )
    report = harness.run_check("type-b-transport", 4)
    assert not report.passed
    assert report.counterexample == {
        "rank": 1,
        "element": list(second),
        "image": list(psi(first)),
        "reason": "duplicate image",
    }
    assert replays("B", 4, report.counterexample)


def test_duplicate_of_the_first_element_is_caught(monkeypatch):
    family, psi, psi_inverse, int_pairs, set_pairs = harness.BIJECTIONS["psi"]
    order = harness.group_order("B", 4)
    first, last = harness.unrank("B", 4, 0), harness.unrank("B", 4, order - 1)
    monkeypatch.setitem(
        harness.BIJECTIONS, "psi",
        (family, lambda s: psi(first if s == last else s), psi_inverse,
         int_pairs, set_pairs),
    )
    report = harness.run_check("type-b-transport", 4)
    assert not report.passed and report.checked == order
    assert report.counterexample == {
        "rank": order - 1,
        "element": list(last),
        "image": list(psi(first)),
        "reason": "duplicate image",
    }
    assert replays("B", 4, report.counterexample)


def test_image_of_a_later_element_is_a_duplicate_at_the_first(monkeypatch):
    # the stored inverse returns the later element, a member with the same
    # image, so the collision is caught at its first member
    family, psi, psi_inverse, int_pairs, set_pairs = harness.BIJECTIONS["psi"]
    first, second = harness.unrank("B", 4, 0), harness.unrank("B", 4, 1)
    monkeypatch.setitem(
        harness.BIJECTIONS, "psi",
        (family, lambda s: psi(second if s == first else s), psi_inverse,
         int_pairs, set_pairs),
    )
    report = harness.run_check("type-b-transport", 4)
    assert not report.passed and report.checked == 1
    assert report.counterexample == {
        "rank": 0,
        "element": list(first),
        "image": list(psi(second)),
        "reason": "duplicate image",
    }
    assert replays("B", 4, report.counterexample)


@pytest.mark.parametrize("bijection, n, r, image", [
    ("phi", 3, 2, (2, 1)),  # a permutation, but of the wrong length
    ("psi", 4, 7, (2, -2, 3, 4)),  # repeats an absolute value
    ("rho", 3, 5, (1, 1, 1)),  # repeats one letter
])
def test_non_member_image_is_caught(monkeypatch, bijection, n, r, image):
    family, func, func_inverse, int_pairs, set_pairs = harness.BIJECTIONS[bijection]
    target = harness.unrank(family, n, r)
    monkeypatch.setitem(
        harness.BIJECTIONS, bijection,
        (family, lambda s: image if s == target else func(s), func_inverse,
         int_pairs, set_pairs),
    )
    report = harness.run_check(f"type-{family.lower()}-transport", n)
    assert not report.passed
    assert report.counterexample == {
        "rank": r,
        "element": list(target),
        "image": list(image),
        "reason": "image not in group",
    }
    assert replays(family, n, report.counterexample)


def test_parallel_workers_capped_at_cpu_count(monkeypatch):
    import concurrent.futures

    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    expected = harness.sweep("B", 5, ["inv_B", "nmin_B"])
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert harness.sweep("B", 5, ["inv_B", "nmin_B"], workers=64) == expected
    assert pools == [2]
    # an unknown CPU count runs the sweep in this process
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness.sweep("B", 5, ["inv_B", "nmin_B"], workers=64) == expected
    assert pools == [2]


# each oracle with its family, statistic and generating set
_ORACLES = [
    ("oracle-length-b", "B", "inv_B", "S^B"),
    ("oracle-length-d", "D", "inv_D", "S^D"),
    ("oracle-reflection-length-b", "B", "l'_B", "T^B"),
    ("oracle-reflection-length-d", "D", "lt'_D", "T^D"),
]


@pytest.mark.parametrize(
    "name, family, stat, set_name", _ORACLES, ids=[c[0] for c in _ORACLES]
)
def test_broken_length_makes_its_oracle_fail(monkeypatch, name, family, stat, set_name):
    kernel = harness.INTEGER_STATISTICS[family][stat]
    assert break_statistic(monkeypatch, name, 4, stat) == family
    r = harness.group_order(family, 4) // 2 + 1
    target = harness.unrank(family, 4, r)
    report = harness.run_check(name, 4)
    assert not report.passed
    assert report.counterexample == {
        "rank": r,
        "element": list(target),
        stat: kernel(target) + 1,
        f"distance over {set_name}": kernel(target),
    }
    assert replays(family, 4, report.counterexample)


def test_bfs_refuses_large_groups():
    with pytest.raises(ValueError):
        harness.cayley_distance_table("B", 7, "T^B")


def test_verify_report_constructor():
    by_place = harness.VerifyReport("c", "B", 3, True, 48)
    by_name = harness.VerifyReport(
        name="c", family="B", n=3, passed=True, checked=48
    )
    assert by_place.to_dict() == by_name.to_dict() == {
        "check": "c", "family": "B", "n": 3, "passed": True, "checked": 48,
        "counterexample": None, "details": {},
    }
    assert by_place.details is not by_name.details
    report = harness.VerifyReport("c", "A", 1, False, 1, {"element": [1]}, {"k": "v"})
    assert report.counterexample == {"element": [1]}
    assert report.details == {"k": "v"}


def test_run_check():
    # distribution checks count each element once per joint they build
    report = harness.run_check("type-a-gf", 4)
    assert report.passed and report.checked == 48
    report = harness.run_check("type-d-bivariate", 2)
    assert report.passed and report.checked == 8
    assert report.details["product_formula"] == "1 + 2*q*t + q^2*t"
    assert report.details["joint(inv_D, nmin_D)"] == "1 + 2*q*t + q^2*t"
    with pytest.raises(ValueError) as err:
        harness.run_check("no-such-check", 3)
    assert "type-a-gf" in str(err.value)
    for name in (["type-a-gf"], {"type-a-gf": 1}, None):
        with pytest.raises(ValueError, match="unknown check"):
            harness.run_check(name, 3)


def test_check_registry_names():
    expected = {
        "type-a-gf",
        "type-a-transport",
        "type-a-set-pairs",
        "type-a-triples",
        "type-a-four-pairs",
        "type-b-gf",
        "type-b-transport",
        "type-b-set-pairs",
        "type-b-triples",
        "type-b-four-pairs",
        "type-d-sor-prime",
        "type-d-bivariate",
        "type-d-mahonian",
        "type-d-transport",
        "oracle-reflection-length-b",
        "oracle-reflection-length-d",
        "oracle-length-b",
        "oracle-length-d",
        "codes-a",
        "codes-b",
        "codes-d",
    }
    assert set(harness.CHECKS) == expected


families_and_n = st.sampled_from(
    [
        (family, n) for family in harness.FAMILIES
        for n in range(harness._MIN_N[family], harness._MAX_N[family] + 1)
    ]
)


@given(families_and_n, st.integers(0, 10**6))
def test_unrank_rank_random(fam_n, seed):
    family, n = fam_n
    order = harness.group_order(family, n)
    r = seed % order
    el = harness.unrank(family, n, r)
    assert harness.rank(family, n, el) == r


def test_every_check_refuses_out_of_range_n(monkeypatch):
    families = {name: harness.run_check(name, 3).family for name in harness.CHECKS}

    def refuse(code):
        raise AssertionError(f"decoded {code} outside the supported ranks")

    # a check that walks codes before it validates n fails here, not hangs
    for family, pairs in harness._CODE_PAIRS.items():
        monkeypatch.setitem(
            harness._CODE_PAIRS, family,
            [(label, encode, refuse) for label, encode, _ in pairs],
        )
    for name, family in families.items():
        for n in (harness._MIN_N[family] - 1, harness._MAX_N[family] + 1, True):
            with pytest.raises(ValueError):
                harness.run_check(name, n)


def test_broken_sor_prime_makes_its_check_fail(monkeypatch):
    sor_d_prime = perm_d.sor_d_prime
    target = harness.unrank("D", 4, 77)
    monkeypatch.setitem(
        harness.INTEGER_STATISTICS["D"], "sor'_D",
        lambda s: sor_d_prime(s) + (s == target),
    )
    report = harness.run_check("type-d-sor-prime", 4)
    assert not report.passed
    assert report.checked == 78
    assert report.counterexample == {
        "rank": 77, "element": [1, 3, 2, 4], "sor_D": 1, "sor'_D": 2,
    }
    assert replays("D", 4, report.counterexample)


def test_broken_walk_makes_the_sorting_checks_fail(monkeypatch):
    # the shared walk counts one bar too many on a single element of D4 (and
    # so of B4): sor_B and sor_D read that count, sor'_D sums the F-code's
    # factor weights and does not.  The sweep's sorting split walks only
    # head list words joined to a tail and never reads the count, so the
    # walk reaches the checks through wrapped registry entries, which take
    # the per-element path
    walk = perm_b._sorting_code
    target = harness.unrank("D", 4, 97)

    def broken(s, even):
        code, bars = walk(s, even)
        return code, bars + (s == target)

    monkeypatch.setattr(perm_b, "_sorting_code", broken)
    for family, name, kernel in (("B", "sor_B", perm_b.sor_b),
                                 ("D", "sor_D", perm_d.sor_d)):
        monkeypatch.setitem(harness.INTEGER_STATISTICS[family], name,
                            lambda s, kernel=kernel: kernel(s))
    for name in ("type-b-gf", "type-d-mahonian"):
        assert not harness.run_check(name, 4).passed
    report = harness.run_check("type-d-sor-prime", 4)
    assert not report.passed
    assert report.counterexample == {
        "rank": 97, "element": [-3, 4, 2, -1], "sor_D": 3, "sor'_D": 5,
    }
    assert replays("D", 4, report.counterexample)


def test_broken_sorting_column_is_caught_and_its_witness_reproduces(monkeypatch):
    # one entry of one sorting column, the one the first tail reads, raised
    # past every value the kernel takes: each check that reads the sorting
    # index off the split fails at rank 1, and unrank replays its witness
    for family, n, name, kernel, checks in (
        ("D", 5, "sor_D", perm_d.sor_d, ("type-d-mahonian", "type-d-sor-prime")),
        ("B", 4, "sor_B", perm_b.sor_b, ("type-b-gf",)),
    ):
        fixed = harness._unrank_tables(family, n)[1][0][0]  # the first tail
        break_split(monkeypatch, kernel, lambda _, t, fixed=fixed: t == fixed)
        element = harness.unrank(family, n, 1)
        for check in checks:
            report = harness.run_check(check, n)
            assert not report.passed, check
            ce = report.counterexample
            assert ce["rank"] == 1 and replays(family, n, ce), check
            if check == "type-d-sor-prime":
                assert ce == {"rank": 1, "element": list(element),
                              "sor_D": kernel(element) + 100,
                              "sor'_D": perm_d.sor_d_prime(element)}
                continue
            group = ce["groups"][0]
            assert ce["expected"] == 0 and name in group, check
            assert ce["key"][group.index(name)] == kernel(element) + 100, check


def test_broken_encoder_makes_codes_check_fail(monkeypatch):
    pairs = list(harness._CODE_PAIRS["B"])
    label, encode, decode = pairs[1]
    target = harness.unrank("B", 3, 20)
    pairs[1] = (
        label, lambda s: encode(s)[::-1] if s == target else encode(s), decode
    )
    monkeypatch.setitem(harness._CODE_PAIRS, "B", pairs)
    report = harness.run_check("codes-b", 3)
    assert not report.passed
    assert report.checked == 104
    assert report.counterexample == {
        "rank": 17,
        "code": list(encode(target)),
        "pair": "acode",
        "reason": "encode(decode(code)) != code",
    }
    # a code-side fault gives the code of its rank: the signed Lehmer code of
    # the element of that rank
    ce = report.counterexample
    assert perm_b.lehmer_b_encode(harness.unrank("B", 3, ce["rank"])) == tuple(
        ce["code"]
    )


@pytest.mark.parametrize("family, r, checked, code, label", [
    ("A", 17, 104, [1, 2, 3, 3], "acode"),
    ("D", 20, 82, [1, 1, -3, 1], "fcode"),
])
def test_broken_decoder_makes_codes_check_fail(
    monkeypatch, family, r, checked, code, label
):
    # the second pair's decoder reverses its word on the code of rank r
    pairs = list(harness._CODE_PAIRS[family])
    name, encode, decode = pairs[1]
    target = tuple(code)
    pairs[1] = (
        name, encode, lambda c: decode(c)[::-1] if c == target else decode(c)
    )
    monkeypatch.setitem(harness._CODE_PAIRS, family, pairs)
    report = harness.run_check(f"codes-{family.lower()}", 4)
    assert not report.passed
    assert report.checked == checked
    assert report.counterexample == {
        "rank": r,
        "code": code,
        "pair": label,
        "reason": "encode(decode(code)) != code",
    }
    # the code of that rank is the signed Lehmer code of its element, on D
    # with c_1 unsigned, since c_1 carries no digit there
    lehmer = perm_b.lehmer_b_encode(harness.unrank(family, 4, r))
    assert (abs(lehmer[0]), *lehmer[1:]) == target


def test_transport_statistic_mismatch_keeps_the_image(monkeypatch):
    sor = harness.INTEGER_STATISTICS["A"]["sor"]
    monkeypatch.setitem(
        harness.INTEGER_STATISTICS["A"], "sor", lambda s: sor(s) + (s == (2, 1, 3))
    )
    report = harness.run_check("type-a-transport", 3)
    assert not report.passed and report.checked == 5
    assert report.counterexample == {
        "rank": 4,
        "element": [2, 1, 3],
        "image": [2, 1, 3],
        "statistic": "inv -> sor",
        "source_value": 1,
        "image_value": 2,
    }
    assert replays("A", 3, report.counterexample)
    monkeypatch.undo()
    cyc_b = harness.SET_STATISTICS["B"]["Cyc_B"]
    image = (-2, -1, 3)  # the image of (-2, 1, 3), rank 17
    monkeypatch.setitem(
        harness.SET_STATISTICS["B"], "Cyc_B",
        lambda w: cyc_b(w) + (9,) if w == image else cyc_b(w),
    )
    report = harness.run_check("type-b-transport", 3)
    assert not report.passed and report.checked == 18
    assert report.counterexample == {
        "rank": 17,
        "element": [-2, 1, 3],
        "image": [-2, -1, 3],
        "statistic": "Rmil_B -> Cyc_B",
        "source_value": [1, 3],
        "image_value": [1, 3, 9],
    }
    assert replays("B", 3, report.counterexample)


def test_wrong_inverse_is_caught(monkeypatch):
    family, phi, _, int_pairs, set_pairs = harness.BIJECTIONS["phi"]
    monkeypatch.setitem(
        harness.BIJECTIONS, "phi", (family, phi, lambda s: s, int_pairs, set_pairs)
    )
    report = harness.run_check("type-a-transport", 4)
    assert not report.passed and report.checked == 1
    assert report.counterexample == {
        "rank": 0,
        "element": [4, 3, 2, 1],
        "image": [4, 1, 2, 3],
        "inverse": [4, 1, 2, 3],
        "reason": "inverse mismatch",
    }
    assert replays("A", 4, report.counterexample)
