"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime against the stated budget (visible with pytest -s or -rA).

Every check is exact integer arithmetic over exhaustively enumerated groups;
there are no tolerances.  The one expensive optional sweep (hyperoctahedral
rank 7, 645120 elements) is gated behind COXCODES_ACCEPT_B7=1.
"""

import os
import time
from contextlib import contextmanager

import pytest

from coxcodes import harness, perm_b, perm_d, qpoly

# the sweep of rank 7, which tier-1 skips for time
ACCEPT_B7 = pytest.mark.skipif(
    os.environ.get("COXCODES_ACCEPT_B7") != "1",
    reason="set COXCODES_ACCEPT_B7=1 to sweep all 645120 elements of rank 7",
)


@contextmanager
def criterion(num, label, budget):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"criterion {num:02d} FAIL {label} ({elapsed:.2f}s, budget {budget:g}s)")
        raise
    elapsed = time.perf_counter() - start
    line = f"criterion {num:02d} %s {label} ({elapsed:.2f}s, budget {budget:g}s)"
    if elapsed >= budget:
        print(line % "FAIL")
        raise AssertionError(
            f"criterion {num} exceeded its budget: {elapsed:.2f}s >= {budget}s"
        )
    print(line % "PASS")


def ok(report):
    assert report.passed, (
        f"{report.name} falsified at n={report.n}: {report.counterexample}"
    )


def test_criterion_01_type_a_generating_function():
    with criterion(1, "type A bivariate generating function, n=1..8", 5):
        for n in range(1, 9):
            ok(harness.run_check("type-a-gf", n))


def test_criterion_02_phi_transport():
    with criterion(2, "phi transports statistics and is bijective, n=1..7", 5):
        for n in range(1, 8):
            ok(harness.run_check("type-a-transport", n))


def test_criterion_03_type_a_six_set_pairs():
    with criterion(3, "six equal set-pair distributions on S_n, n=1..6", 10):
        for n in range(1, 7):
            ok(harness.run_check("type-a-set-pairs", n))


def test_criterion_04_type_b_generating_function():
    with criterion(4, "type B bivariate generating function, n=1..6", 30):
        for n in range(1, 7):
            ok(harness.run_check("type-b-gf", n))


@ACCEPT_B7
def test_criterion_04_type_b_rank_7_optional():
    with criterion(4, "type B generating function at rank 7 (optional)", 300):
        ok(harness.run_check("type-b-gf", 7))


def test_criterion_05_psi_transport():
    with criterion(5, "psi transports statistics and is bijective, n=1..5", 10):
        for n in range(1, 6):
            ok(harness.run_check("type-b-transport", n))


def test_criterion_06_type_b_six_set_pairs():
    with criterion(6, "six equal set-pair distributions on B_n, n=1..5", 30):
        for n in range(1, 6):
            ok(harness.run_check("type-b-set-pairs", n))


def test_criterion_07_type_b_four_pairs():
    with criterion(7, "four equidistributed statistic pairs on B_n, n=1..6", 30):
        for n in range(1, 7):
            ok(harness.run_check("type-b-four-pairs", n))


def test_criterion_08_sorting_equals_cosorting():
    with criterion(8, "sorting index equals co-sorting index on D_n, n=2..7", 120):
        for n in range(2, 8):
            ok(harness.run_check("type-d-sor-prime", n))


def test_criterion_09_type_d_bivariate():
    with criterion(9, "type D bivariate generating function, n=2..6", 60):
        anchor = harness.run_check("type-d-bivariate", 2)
        ok(anchor)
        assert anchor.details["product_formula"] == "1 + 2*q*t + q^2*t"
        for n in range(3, 7):
            ok(harness.run_check("type-d-bivariate", n))


def test_criterion_10_type_d_mahonian():
    with criterion(10, "type D distributions are Mahonian, n=2..7", 120):
        for n in range(2, 8):
            ok(harness.run_check("type-d-mahonian", n))


def test_criterion_11_rho_transport():
    with criterion(11, "rho transports statistics and is bijective, n=2..6", 60):
        for n in range(2, 7):
            ok(harness.run_check("type-d-transport", n))


def test_criterion_12_word_length_oracles():
    with criterion(12, "closed formulas match Cayley graph distances, n<=5", 30):
        for n in range(1, 6):
            ok(harness.run_check("oracle-reflection-length-b", n))
        for n in range(2, 6):
            ok(harness.run_check("oracle-reflection-length-d", n))
        # the reflection length formula is n minus the balanced cycle count
        for n in range(1, 5):
            for s in harness.enumerate_group("B", n):
                assert perm_b.reflection_length_b(s) == n - perm_b.cyc_b(s)


def test_criterion_13_code_round_trips():
    with criterion(13, "all five code pairs invert over full domains", 60):
        for n in range(1, 7):
            ok(harness.run_check("codes-a", n))
        for n in range(1, 6):
            ok(harness.run_check("codes-b", n))
        for n in range(2, 6):
            ok(harness.run_check("codes-d", n))


def test_criterion_14_worked_examples():
    with criterion(14, "frozen worked examples", 5):
        from coxcodes import perm_a

        assert perm_a.bcode_encode((2, 4, 5, 1, 3)) == (1, 1, 3, 2, 3)
        assert perm_a.sor((2, 4, 5, 1, 3)) == 5
        assert perm_b.sor_b((5, -4, -3, 1, -2)) == 16
        assert perm_b.bcode_b_encode((3, -1, -6, -5, 4, 2)) == (1, -1, 1, -4, -4, -3)
        big = (5, -7, 1, -4, 9, -2, -6, 3, 8)
        assert perm_b.lehmer_b_encode(big) == (1, -2, 1, -2, 5, -2, -5, 3, 8)
        assert sorted(perm_b.rmil_b_set(big)) == [1, 3, 8]
        assert sorted(perm_b.lmap_b_set(big)) == [1, 5]
        assert perm_b.acode_b_decode((1, 1, -3, -2, 3)) == (2, -4, 5, 1, -3)
        assert perm_d.ecode_encode((2, -4, 5, 1, -3)) == (1, 1, -3, -2, 3)
        assert perm_d.fcode_encode((-2, -4, 5, -1, -3)) == (1, 1, -3, -2, 3)
        assert perm_d.cosort_factorization((-2, -4, 5, -1, -3)) == (
            (1, 2),
            (-3, 3),
            (-2, 4),
            (3, 5),
        )
        assert qpoly.gf_type_d_bivariate(2).text() == "1 + 2*q*t + q^2*t"


def test_criterion_15_type_a_triples():
    with criterion(15, "(inv, Lmap, Rmil) ~ (sor, Lmap, Cyc) on S_n, n=1..8", 30):
        for n in range(1, 9):
            ok(harness.run_check("type-a-triples", n))


def test_criterion_16_type_b_triples():
    label = "(inv_B, Lmap_B, Rmil_B) ~ (sor_B, Lmap_B, Cyc_B) on B_n, n=1..6"
    with criterion(16, label, 30):
        for n in range(1, 7):
            ok(harness.run_check("type-b-triples", n))
