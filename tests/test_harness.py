"""Tests for enumeration, distributions, oracles, and the check registry."""

import doctest
import hashlib
import json
import math
import os
import random
import re
from collections import Counter
from functools import cache, partial
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxcodes import harness, perm_a, perm_b, perm_d, qpoly

# the whole-group tests on A8, B7 and D7, which tier-1 skips for time
ACCEPT_B7 = pytest.mark.skipif(
    os.environ.get("COXCODES_ACCEPT_B7") != "1",
    reason="set COXCODES_ACCEPT_B7=1 to run the tests on A8, B7 and D7",
)


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


def test_group_order_is_the_order_formula_up_to_the_cap():
    # the codes checks' proof counts the codes against group_order
    formulas = {"A": lambda n: math.factorial(n),
                "B": lambda n: 2 ** n * math.factorial(n),
                "D": lambda n: 2 ** (n - 1) * math.factorial(n)}
    for family, order in formulas.items():
        for n in range(harness._MIN_N[family], harness._MAX_N[family] + 1):
            assert harness.group_order(family, n) == order(n), (family, n)


def test_split_codes_are_distinct_and_as_many_as_the_elements():
    # the other premise of the codes checks' proof: the codes they take, the
    # head codes joined to the tail codes, are pairwise distinct and number
    # group_order
    for family, ns in (("A", range(1, 7)), ("B", range(1, 6)), ("D", range(2, 6))):
        for n in ns:
            heads, tails = harness._split_codes(family, n)
            codes = {h + t for t in tails for h in heads}
            assert len(codes) == len(heads) * len(tails), (family, n)
            assert len(codes) == harness.group_order(family, n), (family, n)


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
    # a set name is checked before the table's cache hashes it
    for name in (["T^B"], "T^A", None):
        with pytest.raises(ValueError, match="unknown generating set"):
            harness.cayley_distance("B", 3, name, (1, 2, 3))


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


@ACCEPT_B7
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


@ACCEPT_B7
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
    # each head list is decoded once, under the first tail whose first head
    # word names it, and shared by every tail that names it: keying the lists
    # by that word never merges two lists that the decoder tells apart
    groups = [(family, n) for family, ns in (
        ("A", range(1, 9)), ("B", range(1, 7)), ("D", range(2, 8))) for n in ns]
    for family, n in groups:
        assert harness._unrank_tables(family, n) == decoded_tables(family, n), (
            family, n)


def test_head_lists_are_shared_per_value_set_and_parity():
    # the tables keep one head list per set of k values a tail leaves, and in
    # D one per such set and bar parity, which _rank_tables and the readers'
    # per-list caches rely on; a list per tail would keep every value
    for family in harness.FAMILIES:
        for n in range(harness._MIN_N[family], harness._MAX_N[family] + 1):
            lists = {id(heads) for _, heads in harness._unrank_tables(family, n)[1]}
            sets = math.comb(n, (n + 1) // 2)
            assert len(lists) == (2 * sets if family == "D" else sets), (family, n)


# the statistics each family's sweep counts by their split form, the reader
# that _SPLITS maps their kernel to
SPLIT_NAMES = {
    "A": {"inv", "rl-min", "lr-max", "nmin", "Lmap", "Rmil", "sor", "cyc", "Cyc"},
    "B": {"inv_B", "nmin_B", "nmax_B", "rl-min_B", "lr-max_B", "N", "Lmap_B",
          "Rmil_B", "sor_B", "cyc_B", "Cyc_B", "l'_B"},
    "D": {"inv_D", "nmin_D", "N", "sor_D", "lt'_D"},
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


@ACCEPT_B7
def test_split_forms_equal_their_kernels_on_b7_and_d7():
    for family, n in (("B", 7), ("D", 7)):
        assert_split_forms_equal_their_kernels(family, n)


def test_split_at_reads_the_sweep_columns_at_every_rank(monkeypatch):
    # the image side of a transport check reads its statistics at a rank
    # through _split_at; every registry entry's value there is _blocks's, in
    # an order of ranks that meets the tails out of turn.  The entries are
    # the registries' and a wrapped integer and set entry, which, like
    # sor'_D, have no split reader, all read through one _split_at, so
    # their readers share one cache and a key that two of them collide on
    # shows
    for family, ns in (("A", range(1, 7)), ("B", range(1, 6)), ("D", range(2, 6))):
        inv = next(iter(harness.INTEGER_STATISTICS[family].values()))
        monkeypatch.setitem(harness.INTEGER_STATISTICS[family], "wrapped",
                            lambda s, f=inv: f(s))
        monkeypatch.setitem(harness.SET_STATISTICS[family], "Wrapped",
                            lambda s: perm_b.cyc_b_set(s))
        stats = harness._statistics(
            family, harness.INTEGER_STATISTICS, harness.SET_STATISTICS
        )
        names = sorted(stats)
        assert set(names) - SPLIT_NAMES[family] == {"wrapped", "Wrapped"} | (
            {"sor'_D"} if family == "D" else set())
        for n in ns:
            order = harness.group_order(family, n)
            columns = [[] for _ in names]
            for _, _, values in harness._blocks(family, n, names, 0, order):
                for column, v in zip(columns, values):
                    column.extend(v)
            at = harness._split_at(family, n, names)
            got = [at(r) for r in reversed(range(order))][::-1]
            for name, column, values in zip(names, columns, zip(*got)):
                assert list(values) == column, (family, n, name)


# the groups at the rank cap and one below it in B and D, where tier-1 proves
# no split reader on the whole group
CAP_GROUPS = (("A", 9), ("B", 7), ("B", 8), ("D", 7), ("D", 8))


def assert_sampled_ranks_read_their_kernels(family, n):
    """At 200 ranks drawn with a fixed seed, the unrank tables give the
    decoder's element and _split_at, reading every registry entry in one
    call and so through one cache, gives each entry's kernel's value on
    that element."""
    size, tails = harness._unrank_tables(family, n)
    ranks = random.Random(2026).sample(range(harness.group_order(family, n)), 200)
    elements = [harness.unrank(family, n, r) for r in ranks]
    for r, element in zip(ranks, elements):
        fixed, heads = tails[r // size]
        assert heads[r % size] + fixed == element, (family, n, r)
    stats = harness._statistics(
        family, harness.INTEGER_STATISTICS, harness.SET_STATISTICS
    )
    at = harness._split_at(family, n, list(stats))
    got = [at(r) for r in ranks]
    for (name, f), column in zip(stats.items(), zip(*got)):
        assert list(column) == list(map(f, elements)), (family, n, name)


def test_split_readers_and_tables_at_the_cap():
    for family, n in CAP_GROUPS:
        assert_sampled_ranks_read_their_kernels(family, n)


def test_a_fault_on_four_letter_tails_shows_only_at_the_cap(monkeypatch):
    # a place-split integer column with every entry after the first one too
    # large on tails of 4 letters with a bar, which only B8 and D8 have: the
    # whole-group proof never meets it, the sampled test at the cap does
    place_split = harness._place_split

    def broken(f, heads, fixed, cache):
        column = place_split(f, heads, fixed, cache)
        if len(fixed) == 4 and min(fixed) < 0 and not isinstance(column[0], tuple):
            column = [column[0], *(v + 1 for v in column[1:])]
        return column

    for kernel, reader in list(harness._SPLITS.items()):
        if reader is place_split:
            monkeypatch.setitem(harness._SPLITS, kernel, broken)
    test_split_forms_equal_their_kernels()
    for family, n in (("B", 8), ("D", 8)):
        with pytest.raises(AssertionError, match=f"'inv_{family}'"):
            assert_sampled_ranks_read_their_kernels(family, n)


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
            for _, block, columns in harness._blocks(family, n, names, 0, order):
                for s, values in zip(block, zip(*columns)):
                    minima = tuple(c.values[0] for c in
                                   perm_b.signed_cycle_decomposition(s) if c.balanced)
                    expected = {"cyc": len(minima), "cyc_B": len(minima),
                                "Cyc": minima, "Cyc_B": minima, "l'_B": n - len(minima)}
                    for name, value in zip(names, values):
                        assert value == stats[name](s) == expected[name], (name, s)


def test_a_d_sweep_reads_lt_d_off_the_walk(monkeypatch):
    # lt'_D's kernel runs the even walk (perm_b._sorting_code with even
    # set); the sweep reads it off the sorting walk's word, so the kernel
    # runs once per tail, for the part, and once per k-word, not once per
    # element.  The plain walk, which the sorting and word readers share,
    # runs once per tail for them and once for a kernel's part, plus once
    # per k-word: in a B sweep of sor_B and l'_B, and on the image side of
    # a transport check, which reads sor_B and Cyc_B at ranks out of turn
    walk, evens = perm_b._sorting_code, []

    def counted(s, even):
        evens.append(even)
        return walk(s, even)

    monkeypatch.setattr(perm_b, "_sorting_code", counted)
    assert harness.run_check("type-d-bivariate", 6).passed
    tails = harness._unrank_tables("D", 6)[1]
    k = len(tails[0][1][0])
    assert evens.count(True) <= len(tails) + 2 ** k * math.factorial(k)
    tails = harness._unrank_tables("B", 6)[1]
    k = len(tails[0][1][0])
    for check in ("type-b-gf", "type-b-transport"):
        evens.clear()
        assert harness.run_check(check, 6).passed
        walks = evens.count(False)
        assert walks <= 2 * len(tails) + 2 ** k * math.factorial(k), (check, walks)


def test_a_walk_kept_past_its_tail_shows(monkeypatch):
    # the sorting and word readers share each tail's walk (_sorting_tail);
    # a walk kept for the first tail of each head list, and not for each
    # tail, relabels every later tail's heads by a stale word, which the
    # whole-group proof catches on the first walk reader it reads
    sorting_tail = harness._sorting_tail

    def kept(g, fixed, cache):
        return sorting_tail(g, cache.setdefault((kept, g), fixed), cache)

    monkeypatch.setattr(harness, "_sorting_tail", kept)
    for family, n, name in (("A", 5, "Cyc"), ("B", 4, "Cyc_B"), ("D", 4, "lt'_D")):
        where = re.escape(repr((family, n, name, 0)))
        with pytest.raises(AssertionError, match=where):
            assert_split_forms_equal_their_kernels(family, n)


def test_enumerate_group_refuses_non_integer_bounds():
    # a bool is no rank, as for unrank: True used to start at rank 1; the
    # call itself refuses, before any element is asked for
    for bounds in ((True,), (0, True), (False, 6), ("1",), (0, "6"), (1.0,), (0, 2.5)):
        with pytest.raises(ValueError):
            harness.enumerate_group("A", 3, *bounds)
    # integer bounds must satisfy 0 <= start <= stop <= order
    for bounds in ((4, 2), (0, 7), (-1, 2)):
        with pytest.raises(ValueError, match="bad range"):
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
        partial(harness.group_order, n=3),
        partial(harness.unrank, n=3, r=0),
        partial(harness.sweep, n=3, names=["inv"]),
        partial(harness.joint_distribution, n=3, stat1="inv", stat2="sor"),
    ]
    # a family that is no str, even an unhashable one, is refused as unknown
    for family in ("X", ["A"], {}, None):
        for lookup in lookups:
            with pytest.raises(ValueError) as err:
                lookup(family)
            assert str(err.value) == f"unknown family {family!r}; choose one of A, B, D"


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


@ACCEPT_B7
def test_codes_and_transport_pass_on_b7_d7_and_a8():
    # a codes check takes two tests per code pair and code, a transport
    # check one per element
    for family, n in (("B", 7), ("D", 7), ("A", 8)):
        order = harness.group_order(family, n)
        pairs = len(harness._CODE_PAIRS[family])
        for check, checked in ((f"codes-{family.lower()}", 2 * pairs * order),
                               (f"type-{family.lower()}-transport", order)):
            report = harness.run_check(check, n)
            assert report.passed, report.counterexample
            assert report.checked == checked, check


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


def test_bfs_refuses_large_groups():
    with pytest.raises(ValueError):
        harness.cayley_distance_table("B", 7, "T^B")


@pytest.mark.parametrize("args", [
    ("B", 3.0, "T^B"), ("B", True, "S^B"), (["B"], 3, "T^B"), ("B", 3, ["T^B"]),
], ids=["float-n", "bool-n", "list-family", "list-set-name"])
def test_bfs_refuses_bad_arguments_whatever_the_cache_holds(args):
    # the arguments are checked before the cache is consulted, so a cached
    # table of equal-hashing arguments (3 for 3.0, 1 for True) is not given
    # back, and an unhashable one is refused as a bad one, not hashed
    for warm in (False, True):
        harness.cayley_distance_table.cache_clear()
        if warm:
            harness.cayley_distance_table("B", 3, "T^B")
            harness.cayley_distance_table("B", 1, "S^B")
        with pytest.raises(ValueError):
            harness.cayley_distance_table(*args)


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


# The mutation table.  Each mutant is one fault, placed by mutate(monkeypatch,
# family, n) in the group of the row that runs it; MUTATIONS lists every
# (check, n, mutant) the harness must catch, with the pin of its report, and
# one judge runs them all.


def family_of(check):
    """The family a check's name carries: type-b-gf, oracle-length-d and
    codes-a name B, D and A."""
    return next(part.upper() for part in check.split("-") if len(part) == 1)


def break_readers(monkeypatch, kernels, at):
    """Break each kernel's _SPLITS reader for each tail where at(heads, fixed)
    holds: entry 1 of a copy of its column goes past every value the kernel
    takes, 100 added, or for a set value the member 100."""
    for kernel in kernels:
        def broken(f, heads, fixed, cache, read=harness._SPLITS[kernel]):
            column = read(f, heads, fixed, cache)
            if at(heads, fixed):
                column, value = list(column), column[1]
                column[1] = value + ((100,) if isinstance(value, tuple) else 100)
            return column

        monkeypatch.setitem(harness._SPLITS, kernel, broken)


def broken_entry(*kernels, tail_only=False):
    """The mutant that breaks the kernels' readers in the group's first tail
    and, unless tail_only, in every tail that shares its head list."""
    def mutate(monkeypatch, family, n):
        first_fixed, first_heads = harness._unrank_tables(family, n)[1][0]
        break_readers(monkeypatch, kernels, (lambda _, fixed: fixed == first_fixed)
                      if tail_only else (lambda heads, _: heads is first_heads))
    return mutate


def barred_first_chain(monkeypatch, family, n):
    # under the first tail, the walk's word gains one bar at place 1, so the
    # head letter it relabels is barred in the relabelling
    first = harness._unrank_tables(family, n)[1][0][0]
    sorting_tail = harness._sorting_tail

    def broken(g, fixed, cache):
        code, word = sorting_tail(g, fixed, cache)
        return code, (-word[0],) + word[1:] if fixed == first else word

    monkeypatch.setattr(harness, "_sorting_tail", broken)


def wrong_at(monkeypatch, family, stat, target, wrong):
    """Replace the registry entry stat by one that gives wrong(value) on the
    element target and the kernel's value elsewhere."""
    table = harness.INTEGER_STATISTICS
    if stat not in table[family]:
        table = harness.SET_STATISTICS
    f = table[family][stat]
    monkeypatch.setitem(table[family], stat,
                        lambda s: wrong(f(s)) if s == target else f(s))


def off_at_middle(stat):
    """The mutant that puts stat off on the element of rank order // 2 + 1:
    an integer statistic by one, a set statistic gaining or losing 1."""
    def mutate(monkeypatch, family, n):
        middle = harness.unrank(family, n, harness.group_order(family, n) // 2 + 1)
        wrong_at(monkeypatch, family, stat, middle, lambda v: (
            tuple(sorted(set(v) ^ {1})) if isinstance(v, tuple) else v + 1))
    return mutate


def extra_bar_in_walk(monkeypatch, family, n):
    # the shared selection-sort walk counts one bar too many on one element
    # of D4 (and so of B4): sor_B and sor_D read that count, sor'_D sums the
    # F-code's factor weights and does not.  The sweep's sorting split never
    # reads the count, so the walk reaches the checks through wrapped
    # registry entries, which take the per-element path
    walk = perm_b._sorting_code

    def broken(s, even):
        code, bars = walk(s, even)
        return code, bars + (s == (-3, 4, 2, -1))

    monkeypatch.setattr(perm_b, "_sorting_code", broken)
    for table, stat in ((harness.INTEGER_STATISTICS["B"], "sor_B"),
                        (harness.INTEGER_STATISTICS["D"], "sor_D")):
        monkeypatch.setitem(table, stat, lambda s, f=table[stat]: f(s))


def uncached_bfs(monkeypatch):
    """Let the oracles run the BFS without its cache, so that a table built
    from patched inputs is neither met in the cache nor left there."""
    monkeypatch.setattr(harness, "cayley_distance_table",
                        harness.cayley_distance_table.__wrapped__)


def shifted_rank_table(monkeypatch, family, n):
    # the identity's tail entry, off by one, in a copy of the tables
    rank_tables = harness._rank_tables

    def shifted(family, n):
        k, head, tail = rank_tables(family, n)
        tail = dict(tail)
        tail[tuple(range(k + 1, n + 1))] += 1
        return k, head, tail

    monkeypatch.setattr(harness, "_rank_tables", shifted)
    uncached_bfs(monkeypatch)


def dropped_generator(monkeypatch, family, n):
    # S^B without (-1, 1) reaches no barred element, so the BFS leaves them
    # unreached (255)
    pairs = harness._GENERATOR_PAIRS["S^B"]
    monkeypatch.setitem(harness._GENERATOR_PAIRS, "S^B", lambda n: pairs(n)[1:])
    uncached_bfs(monkeypatch)


def bijection_of(family):
    return next(name for name, row in harness.BIJECTIONS.items() if row[0] == family)


def remapped(r, image):
    """The mutant whose bijection maps the element of rank r (counted from
    the end if negative) to image, or to its image of the element of rank
    image if that is an int."""
    def mutate(monkeypatch, family, n):
        name = bijection_of(family)
        _, f, f_inverse, *pairs = harness.BIJECTIONS[name]
        ranks = range(harness.group_order(family, n))
        target = harness.unrank(family, n, ranks[r])
        wrong = f(harness.unrank(family, n, image)) if isinstance(image, int) else image
        monkeypatch.setitem(harness.BIJECTIONS, name, (
            family, lambda s: wrong if s == target else f(s), f_inverse, *pairs))
    return mutate


def identity_inverse(monkeypatch, family, n):
    name = bijection_of(family)
    _, f, _, *pairs = harness.BIJECTIONS[name]
    monkeypatch.setitem(harness.BIJECTIONS, name, (family, f, lambda s: s, *pairs))


def wrong_word(index, side, at, wrong):
    """The mutant whose code pair index gives wrong(word) for its word on one
    input: the encoder's (side 1) on the element of rank at, or the
    decoder's (side 2) on the code at."""
    def mutate(monkeypatch, family, n):
        pairs = list(harness._CODE_PAIRS[family])
        pair = list(pairs[index])
        f, target = pair[side], harness.unrank(family, n, at) if side == 1 else at
        pair[side] = lambda x: wrong(f(x)) if x == target else f(x)
        pairs[index] = tuple(pair)
        monkeypatch.setitem(harness._CODE_PAIRS, family, pairs)
    return mutate


def reversed_word(side, at):
    """The mutant whose second code pair reverses its word on one input."""
    return wrong_word(1, side, at, lambda word: word[::-1])


MUTANTS = {
    # a split reader's column, broken where the sweep and the pointwise
    # checks read it
    "inv-d-split-entry": broken_entry(perm_d.inv_d),
    "rmil-b-split-entry": broken_entry(perm_b.rmil_b_set),
    "lmap-b-split-entry": broken_entry(perm_b.lmap_b_set),
    "cycle-column-entry": broken_entry(
        perm_b.cyc_b, perm_b.cyc_b_set, perm_b.reflection_length_b,
        perm_d.reflection_length_d),
    "cycle-chain-parity": barred_first_chain,
    "sorting-column-entry": broken_entry(perm_b.sor_b, perm_d.sor_d, tail_only=True),
    # a statistic's registry entry, wrong on one element
    **{f"{stat}-off-at-middle": off_at_middle(stat) for stat in (
        "rl-min", "Lmap", "Rmil", "lr-max", "l'_B", "Rmil_B", "inv_B", "nmax_B",
        "nmin_D", "sor_D", "inv_D", "lt'_D")},
    # set values are compared as the kernels' tuples, so members given out
    # of order falsify the check
    "unsorted-cyc-b": lambda monkeypatch, family, n: wrong_at(
        monkeypatch, family, "Cyc_B", (2, 1, 3), lambda v: v[::-1]),
    "sor-prime-d-off": lambda monkeypatch, family, n: wrong_at(
        monkeypatch, family, "sor'_D", harness.unrank(family, n, 77), lambda v: v + 1),
    "extra-bar-in-walk": extra_bar_in_walk,
    # a product formula larger than the group: it falls short of no group's
    # count at any key, so no element can witness the difference
    "formula-over-counting": lambda monkeypatch, family, n: monkeypatch.setattr(
        qpoly, "gf_type_a",
        lambda n, gf=qpoly.gf_type_a: gf(n) + qpoly.monomial(q=9, t=9)),
    # the BFS oracle's own inputs
    "shifted-rank-table": shifted_rank_table,
    "dropped-generator": dropped_generator,
    # a bijection that is not one, or that moves a statistic
    "duplicate-image": remapped(1, 0),
    "last-duplicates-first": remapped(-1, 0),
    # the stored inverse returns the later element, a member with the same
    # image, so the collision is caught at its first member
    "first-duplicates-second": remapped(0, 1),
    "short-image": remapped(2, (2, 1)),
    "repeated-absolute-value": remapped(7, (2, -2, 3, 4)),
    "repeated-letter": remapped(5, (1, 1, 1)),
    "image-sor-off": lambda monkeypatch, family, n: wrong_at(
        monkeypatch, family, "sor", (2, 1, 3), lambda v: v + 1),
    "image-cyc-b-gains-9": lambda monkeypatch, family, n: wrong_at(
        monkeypatch, family, "Cyc_B", (-2, -1, 3), lambda v: v + (9,)),
    "identity-inverse": identity_inverse,
    # a code pair that does not invert
    "acode-encoder-reversed": reversed_word(1, 20),
    "acode-decoder-reversed": reversed_word(2, (1, 2, 3, 3)),
    "fcode-decoder-reversed": reversed_word(2, (1, 1, -3, 1)),
    # the first pair decodes the code of rank 0 to a non-member, which no
    # encoder may see: the validating ones refuse it with ValueError
    "decoder-non-member": wrong_word(0, 2, (1, 1, 1), lambda word: (1, 1, 1)),
}


# every (check, n, mutant) the harness must catch, with the (checked,
# counterexample) pair of the report it gives
MUTATIONS = [
    # split mutants: each check that reads the broken column fails
    ("type-d-mahonian", 5, "inv-d-split-entry", (3840, {
        "groups": [["inv_D"], "gf_type_d_univariate"], "key": [108], "count": 1,
        "expected": 0, "rank": 193, "element": [4, 5, 3, 1, 2]})),
    ("oracle-length-d", 5, "inv-d-split-entry", (2, {
        "rank": 1, "element": [4, 5, 3, 2, 1], "inv_D": 109, "distance over S^D": 9})),
    ("type-d-transport", 5, "inv-d-split-entry", (2, {
        "rank": 1, "element": [4, 5, 3, 2, 1], "image": [4, 5, 2, 3, 1],
        "statistic": "inv_D -> sor_D", "source_value": 109, "image_value": 9})),
    ("type-b-set-pairs", 4, "rmil-b-split-entry", (2304, {
        "groups": [["Cyc_B", "Rmil_B"], ["Cyc_B", "Lmap_B"]], "key": [[], [100]],
        "count": 1, "expected": 0, "rank": 265, "element": [-4, 3, -1, -2]})),
    ("type-b-triples", 4, "rmil-b-split-entry", (768, {
        "groups": [["sor_B", "Lmap_B", "Cyc_B"], ["inv_B", "Lmap_B", "Rmil_B"]],
        "key": [6, [], [1, 2]], "count": 1, "expected": 0, "rank": 289,
        "element": [-4, 2, 1, -3]})),
    ("type-b-transport", 4, "rmil-b-split-entry", (2, {
        "rank": 1, "element": [-4, 3, 2, 1], "image": [-4, 1, 2, -3],
        "statistic": "Rmil_B -> Cyc_B", "source_value": [100, 1], "image_value": [1]})),
    ("type-b-set-pairs", 4, "lmap-b-split-entry", (2304, {
        "groups": [["Cyc_B", "Rmil_B"], ["Cyc_B", "Lmap_B"]], "key": [[], []],
        "count": 38, "expected": 35, "rank": 194, "element": [3, 4, 2, -1]})),
    ("type-b-triples", 4, "lmap-b-split-entry", (768, {
        "groups": [["sor_B", "Lmap_B", "Cyc_B"], ["inv_B", "Lmap_B", "Rmil_B"]],
        "key": [5, [100], [1, 2]], "count": 1, "expected": 0, "rank": 193,
        "element": [-4, 3, 2, -1]})),
    ("type-b-transport", 4, "lmap-b-split-entry", (2, {
        "rank": 1, "element": [-4, 3, 2, 1], "image": [-4, 1, 2, -3],
        "statistic": "Lmap_B -> Lmap_B", "source_value": [100], "image_value": []})),
    ("type-a-gf", 5, "cycle-column-entry", (240, {
        "groups": [["sor", "cyc"], "gf_type_a"], "key": [6, 103], "count": 1,
        "expected": 0, "rank": 25, "element": [4, 5, 3, 1, 2]})),
    ("type-b-gf", 4, "cycle-column-entry", (768, {
        "groups": [["sor_B", "l'_B"], "gf_type_b"], "key": [5, 102], "count": 1,
        "expected": 0, "rank": 193, "element": [-4, 3, 2, -1]})),
    ("type-b-set-pairs", 4, "cycle-column-entry", (2304, {
        "groups": [["Cyc_B", "Rmil_B"], ["Cyc_B", "Lmap_B"]], "key": [[], []],
        "count": 37, "expected": 35, "rank": 194, "element": [3, 4, 2, -1]})),
    ("oracle-reflection-length-b", 4, "cycle-column-entry", (2, {
        "rank": 1, "element": [-4, 3, 2, 1], "l'_B": 103, "distance over T^B": 3})),
    ("type-d-bivariate", 4, "cycle-column-entry", (384, {
        "groups": [["sor_D", "lt'_D"], "gf_type_d_bivariate"], "key": [4, 102],
        "count": 1, "expected": 0, "rank": 25, "element": [3, 4, 1, 2]})),
    ("oracle-reflection-length-d", 4, "cycle-column-entry", (2, {
        "rank": 1, "element": [3, 4, 2, 1], "lt'_D": 103, "distance over T^D": 3})),
    # on A the barred letter shifts cyc alike for every head of the tail, a
    # shift the tail part absorbs, so only Cyc's members show it
    ("type-a-set-pairs", 5, "cycle-chain-parity", (720, {
        "groups": [["Cyc", "Rmil"], ["Cyc", "Lmap"]], "key": [[1], [1, 2]],
        "count": 6, "expected": 5, "rank": 26, "element": [5, 3, 4, 1, 2]})),
    ("type-b-gf", 4, "cycle-chain-parity", (768, {
        "groups": [["sor_B", "l'_B"], "gf_type_b"], "key": [4, 1], "count": 3,
        "expected": 2, "rank": 1, "element": [-4, 3, 2, 1]})),
    ("type-b-set-pairs", 4, "cycle-chain-parity", (2304, {
        "groups": [["Cyc_B", "Rmil_B"], ["Cyc_B", "Lmap_B"]], "key": [[], []],
        "count": 38, "expected": 37, "rank": 194, "element": [3, 4, 2, -1]})),
    ("oracle-reflection-length-b", 4, "cycle-chain-parity", (2, {
        "rank": 1, "element": [-4, 3, 2, 1], "l'_B": 1, "distance over T^B": 3})),
    ("type-d-mahonian", 5, "sorting-column-entry", (3840, {
        "groups": [["sor_D"], "gf_type_d_univariate"], "key": [107], "count": 1,
        "expected": 0, "rank": 1, "element": [4, 5, 3, 2, 1]})),
    ("type-d-sor-prime", 5, "sorting-column-entry", (2, {
        "rank": 1, "element": [4, 5, 3, 2, 1], "sor_D": 107, "sor'_D": 7})),
    ("type-b-gf", 4, "sorting-column-entry", (768, {
        "groups": [["sor_B", "l'_B"], "gf_type_b"], "key": [106, 3], "count": 1,
        "expected": 0, "rank": 1, "element": [-4, 3, 2, 1]})),
    # the image side of a transport check reads the columns at the image's
    # rank: the first element whose image lies where the break is fails
    ("type-b-transport", 4, "sorting-column-entry", (62, {
        "rank": 61, "element": [-4, -1, 3, 2], "image": [-4, 3, 2, 1],
        "statistic": "inv_B -> sor_B", "source_value": 6, "image_value": 106})),
    ("type-b-transport", 4, "cycle-column-entry", (10, {
        "rank": 9, "element": [-4, 2, 3, 1], "image": [-4, 3, 1, -2],
        "statistic": "Rmil_B -> Cyc_B", "source_value": [1],
        "image_value": [1, 100]})),
    ("type-d-transport", 4, "cycle-column-entry", (2, {
        "rank": 1, "element": [3, 4, 2, 1], "image": [3, 4, 2, 1],
        "statistic": "nmin_D -> lt'_D", "source_value": 3, "image_value": 103})),
    # statistic mutants
    ("type-a-gf", 4, "rl-min-off-at-middle", (48, {
        "groups": [["inv", "rl-min"], "gf_type_a"], "key": [3, 3], "count": 2,
        "expected": 1, "rank": 13, "element": [2, 4, 1, 3]})),
    ("type-a-set-pairs", 4, "Lmap-off-at-middle", (144, {
        "groups": [["Cyc", "Rmil"], ["Cyc", "Lmap"]], "key": [[1], [1, 2]], "count": 2,
        "expected": 1, "rank": 6, "element": [4, 3, 1, 2]})),
    ("type-a-triples", 4, "Rmil-off-at-middle", (48, {
        "groups": [["sor", "Lmap", "Cyc"], ["inv", "Lmap", "Rmil"]],
        "key": [3, [1, 2], [1, 3]], "count": 1, "expected": 0, "rank": 3,
        "element": [2, 4, 3, 1]})),
    ("type-a-four-pairs", 4, "lr-max-off-at-middle", (96, {
        "groups": [["inv", "lr-max"], ["sor", "cyc"]], "key": [3, 3], "count": 2,
        "expected": 1, "rank": 5, "element": [2, 3, 4, 1]})),
    ("type-b-gf", 3, "l'_B-off-at-middle", (96, {
        "groups": [["sor_B", "l'_B"], "gf_type_b"], "key": [3, 2], "count": 5,
        "expected": 4, "rank": 8, "element": [3, 1, 2]})),
    ("oracle-reflection-length-b", 4, "l'_B-off-at-middle", (194, {
        "rank": 193, "element": [-4, 3, 2, -1], "l'_B": 3, "distance over T^B": 2})),
    ("type-b-set-pairs", 3, "Rmil_B-off-at-middle", (288, {
        "groups": [["Cyc_B", "Rmil_B"], ["Cyc_B", "Lmap_B"]], "key": [[1, 2], [1]],
        "count": 3, "expected": 2, "rank": 0, "element": [3, 2, 1]})),
    ("type-b-triples", 3, "inv_B-off-at-middle", (96, {
        "groups": [["sor_B", "Lmap_B", "Cyc_B"], ["inv_B", "Lmap_B", "Rmil_B"]],
        "key": [5, [], []], "count": 1, "expected": 0, "rank": 37,
        "element": [-3, -1, -2]})),
    ("oracle-length-b", 4, "inv_B-off-at-middle", (194, {
        "rank": 193, "element": [-4, 3, 2, -1], "inv_B": 9, "distance over S^B": 8})),
    ("type-b-four-pairs", 3, "nmax_B-off-at-middle", (192, {
        "groups": [["inv_B", "nmax_B"], ["sor_B", "l'_B"]], "key": [5, 4], "count": 1,
        "expected": 0, "rank": 25, "element": [-3, 2, -1]})),
    ("type-d-bivariate", 3, "nmin_D-off-at-middle", (48, {
        "groups": [["inv_D", "nmin_D"], "gf_type_d_bivariate"], "key": [2, 3],
        "count": 1, "expected": 0, "rank": 13, "element": [-2, 3, -1]})),
    ("type-d-mahonian", 4, "sor_D-off-at-middle", (384, {
        "groups": [["sor_D"], "gf_type_d_univariate"], "key": [6], "count": 31,
        "expected": 30, "rank": 12, "element": [-4, 3, -2, 1]})),
    ("oracle-length-d", 4, "inv_D-off-at-middle", (98, {
        "rank": 97, "element": [-3, 4, 2, -1], "inv_D": 6, "distance over S^D": 5})),
    ("oracle-reflection-length-d", 4, "lt'_D-off-at-middle", (98, {
        "rank": 97, "element": [-3, 4, 2, -1], "lt'_D": 4, "distance over T^D": 3})),
    ("type-b-set-pairs", 3, "unsorted-cyc-b", (288, {
        "groups": [["Lmap_B", "Cyc_B"], ["Cyc_B", "Lmap_B"]], "key": [[1, 3], [3, 1]],
        "count": 1, "expected": 0, "rank": 16, "element": [2, 1, 3]})),
    ("type-d-sor-prime", 4, "sor-prime-d-off", (78, {
        "rank": 77, "element": [1, 3, 2, 4], "sor_D": 1, "sor'_D": 2})),
    ("type-b-gf", 4, "extra-bar-in-walk", (768, {
        "groups": [["sor_B", "l'_B"], "gf_type_b"], "key": [6, 3], "count": 20,
        "expected": 19, "rank": 1, "element": [-4, 3, 2, 1]})),
    ("type-d-mahonian", 4, "extra-bar-in-walk", (384, {
        "groups": [["sor_D"], "gf_type_d_univariate"], "key": [3], "count": 17,
        "expected": 16, "rank": 4, "element": [4, 2, 3, 1]})),
    ("type-d-sor-prime", 4, "extra-bar-in-walk", (98, {
        "rank": 97, "element": [-3, 4, 2, -1], "sor_D": 3, "sor'_D": 5})),
    ("type-a-gf", 3, "formula-over-counting", (12, {
        "groups": [["inv", "rl-min"], "gf_type_a"], "key": [9, 9], "count": 0,
        "expected": 1})),
    # the BFS oracle's inputs
    ("oracle-length-b", 4, "shifted-rank-table", (161, {
        "rank": 160, "element": [2, 1, 3, 4], "inv_B": 1, "distance over S^B": 255})),
    ("oracle-length-b", 4, "dropped-generator", (2, {
        "rank": 1, "element": [-4, 3, 2, 1], "inv_B": 7, "distance over S^B": 255})),
    # bijection mutants
    ("type-b-transport", 4, "duplicate-image", (2, {
        "rank": 1, "element": [-4, 3, 2, 1], "image": [4, 1, 2, 3],
        "reason": "duplicate image"})),
    ("type-b-transport", 4, "last-duplicates-first", (384, {
        "rank": 383, "element": [-1, -2, -3, -4], "image": [4, 1, 2, 3],
        "reason": "duplicate image"})),
    ("type-b-transport", 4, "first-duplicates-second", (1, {
        "rank": 0, "element": [4, 3, 2, 1], "image": [-4, 1, 2, -3],
        "reason": "duplicate image"})),
    ("type-a-transport", 3, "short-image", (3, {
        "rank": 2, "element": [3, 1, 2], "image": [2, 1],
        "reason": "image not in group"})),
    ("type-b-transport", 4, "repeated-absolute-value", (8, {
        "rank": 7, "element": [-3, -4, 2, 1], "image": [2, -2, 3, 4],
        "reason": "image not in group"})),
    ("type-d-transport", 3, "repeated-letter", (6, {
        "rank": 5, "element": [1, 3, 2], "image": [1, 1, 1],
        "reason": "image not in group"})),
    ("type-a-transport", 3, "image-sor-off", (5, {
        "rank": 4, "element": [2, 1, 3], "image": [2, 1, 3], "statistic": "inv -> sor",
        "source_value": 1, "image_value": 2})),
    ("type-b-transport", 3, "image-cyc-b-gains-9", (18, {
        "rank": 17, "element": [-2, 1, 3], "image": [-2, -1, 3],
        "statistic": "Rmil_B -> Cyc_B", "source_value": [1, 3],
        "image_value": [1, 3, 9]})),
    ("type-a-transport", 4, "identity-inverse", (1, {
        "rank": 0, "element": [4, 3, 2, 1], "image": [4, 1, 2, 3],
        "inverse": [4, 1, 2, 3], "reason": "inverse mismatch"})),
    # code mutants: a code-side witness is the code of its rank; each pair
    # takes its member test and then its round trip, so checked counts two
    # tests per pair before the failing one
    ("codes-b", 3, "acode-encoder-reversed", (106, {
        "rank": 17, "code": [-1, 1, 3], "pair": "acode",
        "reason": "encode(decode(code)) != code"})),
    ("codes-a", 4, "acode-decoder-reversed", (106, {
        "rank": 17, "code": [1, 2, 3, 3], "pair": "acode",
        "reason": "encode(decode(code)) != code"})),
    ("codes-d", 4, "fcode-decoder-reversed", (84, {
        "rank": 20, "code": [1, 1, -3, 1], "pair": "fcode",
        "reason": "encode(decode(code)) != code"})),
    *[(check, 3, "decoder-non-member", (1, {
        "rank": 0, "code": [1, 1, 1], "pair": pair,
        "reason": "decode(code) not in group"}))
      for check, pair in (("codes-a", "lehmer"), ("codes-b", "lehmer"),
                          ("codes-d", "ecode"))],
]


def judge(monkeypatch, check, n, mutant, pin):
    """Run the row's check under its mutant: it fails with the pinned report,
    and the witness replays by its kind."""
    family = family_of(check)
    MUTANTS[mutant](monkeypatch, family, n)
    report = harness.run_check(check, n)
    assert report.passed is False
    assert (report.checked, report.counterexample) == pin
    ce = report.counterexample
    if "rank" not in ce:  # a formula no group reaches: the pin alone judges it
        return
    r = ce["rank"]
    if "code" in ce:
        # a code-side witness is the code of its rank: the signed Lehmer code
        # of the element of that rank, on D with c_1 unsigned, since c_1
        # carries no digit there
        code = perm_b.lehmer_b_encode(harness.unrank(family, n, r))
        if family == "D":
            code = (abs(code[0]), *code[1:])
        assert code == tuple(ce["code"])
    else:
        assert harness.unrank(family, n, r) == tuple(ce["element"])
    if "image" in ce:
        # the image is the bijection's on the element, and a statistic's
        # values are read as the sweep counts them: the source's at the rank,
        # the image's at the image's rank
        func = harness.BIJECTIONS[bijection_of(family)][1]
        assert list(func(tuple(ce["element"]))) == ce["image"]
        if "statistic" in ce:
            source, image = ce["statistic"].split(" -> ")
            at = harness.rank(family, n, ce["image"])
            for name, s, value in ((source, r, ce["source_value"]),
                                   (image, at, ce["image_value"])):
                [(_, _, [column])] = harness._blocks(family, n, [name], s, s + 1)
                assert harness._plain(column[0]) == value
    if "groups" in ce:
        # the group's values at that rank, as the sweep counts them, are the
        # key, and the sweep counts count elements with it
        group = ce["groups"][0]
        key = tuple(tuple(v) if isinstance(v, list) else v for v in ce["key"])
        [(_, _, columns)] = harness._blocks(family, n, group, r, r + 1)
        assert tuple(column[0] for column in columns) == key
        assert harness.sweep(family, n, group)[key] == ce["count"]


def statistic_off_in_a_distribution(row):
    """A row that puts one statistic off on one element under a distribution
    check: these ten rows keep a test of their own, named by the check."""
    return row[2].endswith("-off-at-middle") and "groups" in row[3][1]


_OTHER_ROWS = [row for row in MUTATIONS if not statistic_off_in_a_distribution(row)]
_DISTRIBUTION_ROWS = [row for row in MUTATIONS if statistic_off_in_a_distribution(row)]


@pytest.mark.parametrize(
    "check, n, mutant, pin", _OTHER_ROWS, ids=[f"{c}-{m}" for c, _, m, _ in _OTHER_ROWS]
)
def test_mutant_is_caught_and_its_witness_replays(monkeypatch, check, n, mutant, pin):
    judge(monkeypatch, check, n, mutant, pin)


@pytest.mark.parametrize(
    "check, n, mutant, pin", _DISTRIBUTION_ROWS, ids=[row[0] for row in _DISTRIBUTION_ROWS]
)
def test_every_distribution_check_can_fail(monkeypatch, check, n, mutant, pin):
    judge(monkeypatch, check, n, mutant, pin)


def test_every_check_has_a_mutant():
    # a new check cannot land without a row, nor a mutant stay without one
    assert {row[0] for row in MUTATIONS} == set(harness.CHECKS)
    assert {row[2] for row in MUTATIONS} == set(MUTANTS)


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
    failing = [row for row in MUTATIONS if "groups" in row[3][1]]
    distribution = {check for check, *_ in failing}  # all ten of them
    for name in harness.CHECKS:
        calls.clear()
        assert harness.run_check(name, 4).passed, name
        pointwise = name not in distribution
        assert calls == (["scan", "walk"] if pointwise else ["walk"]), name
    for check, n, mutant, _ in failing:
        with monkeypatch.context() as broken:
            MUTANTS[mutant](broken, family_of(check), n)
            calls.clear()
            assert not harness.run_check(check, n).passed, (check, mutant)
            assert calls == ["walk", "scan", "walk"], (check, mutant)


def split_entries():
    """(family, table, name) of each _SPLITS key's first registry entry, A
    before B before D."""
    entries = {}
    for family in harness.FAMILIES:
        for table in (harness.INTEGER_STATISTICS, harness.SET_STATISTICS):
            for name, f in table[family].items():
                if f in harness._SPLITS:
                    entries.setdefault(f, (family, table, name))
    return list(entries.values())


SPLIT_ENTRIES = split_entries()


@pytest.mark.parametrize("family, table, name", SPLIT_ENTRIES,
                         ids=[f"{family}-{name}" for family, _, name in SPLIT_ENTRIES])
def test_a_wrapped_entry_never_reaches_a_broken_reader(
    monkeypatch, family, table, name
):
    # a replaced or wrapped registry entry is no key of _SPLITS, so
    # _element_split reads it per element, and a reader broken on every
    # tail does not reach it
    n, kernel = 4, table[family][name]
    order = harness.group_order(family, n)
    expected = list(map(kernel, harness.enumerate_group(family, n)))

    def column():
        return [v for _, _, (values,) in harness._blocks(family, n, [name], 0, order)
                for v in values]

    break_readers(monkeypatch, [kernel], lambda heads, fixed: True)
    assert column() != expected  # the break reaches the entry itself
    monkeypatch.setitem(table[family], name, lambda s: kernel(s))
    assert column() == expected


INTEGER_SPLIT_ENTRIES = [entry for entry in SPLIT_ENTRIES
                         if entry[1] is harness.INTEGER_STATISTICS]


@pytest.mark.parametrize(
    "family, table, name", INTEGER_SPLIT_ENTRIES,
    ids=[f"{family}-{name}" for family, _, name in INTEGER_SPLIT_ENTRIES])
def test_a_column_shifted_per_tail_still_reads_the_kernel(
    monkeypatch, family, table, name
):
    # the part is read off the kernel (_read), so a reader's column need be
    # right only up to a constant per tail: each entry shifted by the tail's
    # index + 1, the sweep still counts the kernel's values on the group
    n, kernel = {"A": 5, "B": 4, "D": 4}[family], table[family][name]
    order = harness.group_order(family, n)
    index = {fixed: i for i, (fixed, _) in enumerate(harness._unrank_tables(family, n)[1])}
    read, shifted = harness._SPLITS[kernel], set()

    def shift(f, heads, fixed, cache):
        shifted.add(fixed)
        return [v + index[fixed] + 1 for v in read(f, heads, fixed, cache)]

    monkeypatch.setitem(harness._SPLITS, kernel, shift)
    values = [v for _, _, (column,) in harness._blocks(family, n, [name], 0, order)
              for v in column]
    assert shifted == set(index)  # the shifted reader read every tail
    assert values == list(map(kernel, harness.enumerate_group(family, n)))
