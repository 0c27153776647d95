"""Tests for exact bivariate polynomial counting."""

import doctest
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxcodes import qpoly
from coxcodes.qpoly import QT


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.integers(0, 9),
    max_size=8,
).map(QT)


def test_doctests():
    assert doctest.testmod(qpoly).failed == 0


def test_constructor_normalizes():
    assert QT({(0, 0): 1, (1, 1): 0}) == QT({(0, 0): 1})
    assert not QT({})
    assert bool(qpoly.one())
    with pytest.raises(ValueError):
        QT({(0, 0): -1})
    with pytest.raises(ValueError):
        QT({(-1, 0): 1})


def test_arithmetic():
    p = qpoly.monomial(q=1, t=1) + qpoly.one()
    assert p.text() == "1 + q*t"
    sq = p * p
    assert sq.text() == "1 + 2*q*t + q^2*t^2"
    assert sq.coefficient(1, 1) == 2
    assert sq.coefficient(5, 0) == 0
    assert (p * qpoly.zero()) == qpoly.zero()
    assert (p + qpoly.zero()) == p


def test_text_canonical():
    assert qpoly.zero().text() == "0"
    assert qpoly.one().text() == "1"
    assert qpoly.monomial(coeff=3).text() == "3"
    assert qpoly.monomial(q=2, coeff=1).text() == "q^2"
    assert qpoly.monomial(t=1, coeff=2).text() == "2*t"
    # terms sorted by t-degree then q-degree
    p = QT({(2, 0): 1, (0, 1): 1, (1, 0): 1})
    assert p.text() == "q + q^2 + t"


def test_evaluate_and_counts():
    p = qpoly.gf_type_a(4)
    assert p.evaluate(1, 1) == math.factorial(4)
    assert qpoly.gf_type_b(4).evaluate(1, 1) == 2**4 * math.factorial(4)
    assert qpoly.gf_type_d_bivariate(4).evaluate(1, 1) == 2**3 * math.factorial(4)
    assert qpoly.gf_type_d_univariate(4).evaluate(1, 1) == 2**3 * math.factorial(4)


def test_q_int():
    assert qpoly.q_int(1).text() == "1"
    assert qpoly.q_int(3).text() == "1 + q + q^2"
    assert qpoly.q_int(0) == qpoly.zero()


def test_gf_small_expansions():
    assert qpoly.gf_type_a(1).text() == "t"
    assert qpoly.gf_type_a(2).text() == "q*t + t^2"
    assert qpoly.gf_type_b(1).text() == "1 + q*t"
    assert qpoly.gf_type_b(2).text() == (
        "1 + 2*q*t + q^2*t + q^3*t + q^2*t^2 + q^3*t^2 + q^4*t^2"
    )
    assert qpoly.gf_type_d_bivariate(2).text() == "1 + 2*q*t + q^2*t"
    assert qpoly.gf_type_d_univariate(2).eval_t1().text() == "1 + 2*q + q^2"


def test_gf_domains():
    with pytest.raises(ValueError):
        qpoly.gf_type_a(0)
    with pytest.raises(ValueError):
        qpoly.gf_type_b(0)
    with pytest.raises(ValueError):
        qpoly.gf_type_d_bivariate(1)
    with pytest.raises(ValueError):
        qpoly.gf_type_d_univariate(0)


@pytest.mark.parametrize(
    "terms", [{(0, 0): 1.5}, {(1.5, 0): 1}, {(0, 2.0): 1}, {(True, 0): 2}, {(0, 0): True}]
)
def test_constructor_refuses_non_integers(terms):
    with pytest.raises(ValueError, match="non-integer term"):
        QT(terms)


@pytest.mark.parametrize("bad", [True, False, 2.5, 3.0, "3", None])
def test_formulas_refuse_non_integer_ranks(bad):
    formulas = [qpoly.q_int, qpoly.gf_type_a, qpoly.gf_type_b,
                qpoly.gf_type_d_bivariate, qpoly.gf_type_d_univariate]
    for formula in formulas:
        with pytest.raises(ValueError, match="integer"):
            formula(bad)


def test_univariate_is_t1_specialization():
    for n in range(2, 9):
        collapsed = qpoly.gf_type_d_bivariate(n).eval_t1()
        assert collapsed == qpoly.gf_type_d_univariate(n).eval_t1()


def test_terms_sorted():
    p = qpoly.gf_type_b(3)
    ts = p.terms()
    assert ts == sorted(ts, key=lambda e: (e[1], e[0]))
    assert sum(c for _, _, c in ts) == 48


@given(small_polys, small_polys, small_polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_polys, small_polys, st.integers(0, 3), st.integers(0, 3))
def test_evaluate_is_homomorphism(a, b, q, t):
    assert (a + b).evaluate(q, t) == a.evaluate(q, t) + b.evaluate(q, t)
    assert (a * b).evaluate(q, t) == a.evaluate(q, t) * b.evaluate(q, t)


@given(small_polys, small_polys)
def test_eval_t1_is_homomorphism(a, b):
    assert (a + b).eval_t1() == a.eval_t1() + b.eval_t1()
    assert (a * b).eval_t1() == a.eval_t1() * b.eval_t1()
