"""Tests for enumeration, distributions, oracles, and the check registry."""

import doctest
import json
import math
import os
from collections import Counter

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
    # the rank of an element is, by definition, its index in enumerate_group
    for family, n in (("A", 7), ("B", 6), ("D", 6)):
        core = harness._ranker(family, n)
        ranks = [core(el) for el in harness.enumerate_group(family, n)]
        assert ranks == list(range(harness.group_order(family, n)))


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


def test_statistic_names():
    assert "sor" in harness.integer_statistic_names("A")
    assert "nmin_B" in harness.integer_statistic_names("B")
    assert "lt'_D" in harness.integer_statistic_names("D")
    assert harness.set_statistic_names("D") == []


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


def test_sweep_groups_count_marginals_of_the_union():
    # B5 spans several evaluation blocks; two workers split it in the middle
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
        ("type-d-bivariate", 3),
        ("type-d-mahonian", 4),
    ):
        seq = harness.run_check(name, n, workers=1).to_dict()
        assert seq["passed"]
        assert harness.run_check(name, n, workers=2).to_dict() == seq


def test_broken_statistic_makes_its_check_fail(monkeypatch):
    nmax_b = harness.INTEGER_STATISTICS["B"]["nmax_B"]
    monkeypatch.setitem(
        harness.INTEGER_STATISTICS["B"], "nmax_B", lambda s: nmax_b(s) + 1
    )
    assert not harness.run_check("type-b-four-pairs", 3).passed
    monkeypatch.undo()
    lmap_b = harness.SET_STATISTICS["B"]["Lmap_B"]
    monkeypatch.setitem(
        harness.SET_STATISTICS["B"], "Lmap_B", lambda w: lmap_b(w) - {1}
    )
    report = harness.run_check("type-b-set-pairs", 3)
    assert not report.passed
    assert set(report.counterexample) == {"pair", "sets", "count", "expected"}
    assert report.counterexample["count"] != report.counterexample["expected"]


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


def test_set_pair_distribution():
    dist = harness.set_pair_distribution("A", 2, "Cyc", "Lmap")
    assert dist == {((1, 2), (1, 2)): 1, ((1,), (1,)): 1}
    total = sum(harness.set_pair_distribution("B", 2, "Cyc_B", "Lmap_B").values())
    assert total == 8


def test_verify_transport():
    report = harness.verify_transport("phi", 4)
    assert report.passed and report.checked == 24
    assert report.counterexample is None
    assert report.family == "A"
    doc = report.to_dict()
    json.dumps(doc)  # serializable
    assert doc["check"] == "transport-phi"
    with pytest.raises(ValueError):
        harness.verify_transport("tau", 3)


def test_bijection_registry():
    assert sorted(harness.BIJECTIONS) == ["phi", "psi", "rho"]
    family, forward, backward, int_pairs, set_pairs = harness.BIJECTIONS["rho"]
    assert family == "D"
    assert ("inv_D", "sor_D") in int_pairs


def test_generating_set_sizes():
    n = 4
    assert len(harness.generating_set("A", n, "T^A")) == math.comb(n, 2)
    assert len(harness.generating_set("B", n, "T^B")) == n * n
    assert len(harness.generating_set("B", n, "S^B")) == n
    assert len(harness.generating_set("D", n, "T^D")) == n * n - 1
    assert len(harness.generating_set("D", n, "S^D")) == n
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
    for family, n in (("A", 5), ("B", 4), ("B", 5), ("D", 4), ("D", 5)):
        for set_name in harness.GENERATING_SET_NAMES[family]:
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
        "element": list(second),
        "image": list(psi(first)),
        "reason": "duplicate image",
    }


@pytest.mark.parametrize("bijection, n, r, image", [
    ("phi", 3, 2, (2, 1)),  # a permutation, but of the wrong length
    ("psi", 4, 7, (2, -2, 3, 4)),  # the rank core gives it a member's rank
    ("rho", 3, 5, (1, 1, 1)),  # the E-code core raises on it
])
def test_non_member_image_is_caught(monkeypatch, bijection, n, r, image):
    family, func, func_inverse, int_pairs, set_pairs = harness.BIJECTIONS[bijection]
    target = harness.unrank(family, n, r)
    monkeypatch.setitem(
        harness.BIJECTIONS, bijection,
        (family, lambda s: image if s == target else func(s), func_inverse,
         int_pairs, set_pairs),
    )
    report = harness.verify_transport(bijection, n)
    assert not report.passed
    assert report.counterexample == {
        "element": list(target),
        "image": list(image),
        "reason": "image not in group",
    }


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


def test_broken_length_makes_its_oracle_fail(monkeypatch):
    inv_b = harness.INTEGER_STATISTICS["B"]["inv_B"]
    target = harness.unrank("B", 4, 100)
    monkeypatch.setitem(
        harness.INTEGER_STATISTICS["B"], "inv_B",
        lambda s: inv_b(s) + (s == target),
    )
    report = harness.run_check("oracle-length-b", 4)
    assert not report.passed
    assert report.counterexample == {
        "element": list(target),
        "inv_B": inv_b(target) + 1,
        "distance over S^B": inv_b(target),
    }


def test_bfs_refuses_large_groups():
    with pytest.raises(ValueError):
        harness.cayley_distance_table("B", 7, "T^B")


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


def test_check_registry_names():
    expected = {
        "type-a-gf",
        "type-a-transport",
        "type-a-set-pairs",
        "type-a-four-pairs",
        "type-b-gf",
        "type-b-transport",
        "type-b-set-pairs",
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
    [("A", n) for n in range(1, 6)]
    + [("B", n) for n in range(1, 4)]
    + [("D", n) for n in range(2, 4)]
)


@given(families_and_n, st.integers(0, 10**6))
def test_unrank_rank_random(fam_n, seed):
    family, n = fam_n
    order = harness.group_order(family, n)
    r = seed % order
    el = harness.unrank(family, n, r)
    assert harness.rank(family, n, el) == r
