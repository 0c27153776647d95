"""Unit and property tests for the signed permutation module."""

import doctest
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxcodes import perm_a, perm_b


def all_signed(n):
    for base in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(v * e for v, e in zip(base, signs))


def all_codes_b(n):
    return itertools.product(
        *([c for c in range(-i, i + 1) if c != 0] for i in range(1, n + 1))
    )


@st.composite
def signed_perms(draw, min_n=1, max_n=12):
    n = draw(st.integers(min_n, max_n))
    base = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return tuple(v * e for v, e in zip(base, signs))


def reference_inv_b(s):
    """inv_b by its definition: pairs i < j with s(i) > s(j), plus pairs
    i <= j with -s(i) > s(j)."""
    n = len(s)
    return sum(s[i] > s[j] for i in range(n) for j in range(i + 1, n)) + sum(
        -s[i] > s[j] for i in range(n) for j in range(i, n)
    )


def reference_lehmer_b(s):
    """The signed Lehmer code by its definition: |c_i| = #{j <= i : |s(j)| <=
    |s(i)|}, with the sign of s(i)."""
    out = []
    for i in range(len(s)):
        c = sum(1 for j in range(i + 1) if abs(s[j]) <= abs(s[i]))
        out.append(c if s[i] > 0 else -c)
    return tuple(out)


def recursive_bcode(s):
    """Independent oracle: peel the letter of largest magnitude, recurse.

    With the big letter at place t, removing it leaves a signed permutation
    of one fewer letter whose last place inherits s(n) (sign flipped when
    the big letter was negative), and the peeled code entry is +-t.
    """
    n = len(s)
    if n == 1:
        return tuple(s)
    w = list(s)
    t = next(i for i in range(1, n + 1) if abs(w[i - 1]) == n)
    entry = t if w[t - 1] > 0 else -t
    if t < n:
        w[t - 1] = w[n - 1] if w[t - 1] > 0 else -w[n - 1]
    return recursive_bcode(tuple(w[: n - 1])) + (entry,)


def test_doctests():
    assert doctest.testmod(perm_b).failed == 0


def test_validate_signed():
    assert perm_b.validate_signed([2, -1]) == (2, -1)
    with pytest.raises(ValueError):
        perm_b.validate_signed([1, -1])
    with pytest.raises(ValueError):
        perm_b.validate_signed([0, 1])
    with pytest.raises(ValueError):
        perm_b.validate_signed([3, 1])
    assert not perm_b.is_signed_permutation((-2, True))
    with pytest.raises(ValueError):
        perm_b.validate_code_b((True, -2))


def test_compose_and_inverse():
    s = (2, -4, 5, 1, -3)
    assert perm_b.inverse(s) == (4, 1, -5, -2, 3)
    assert perm_b.compose(s, perm_b.inverse(s)) == perm_b.identity(5)
    assert perm_b.compose(perm_b.inverse(s), s) == perm_b.identity(5)


def test_apply_transposition():
    e = perm_b.identity(5)
    assert perm_b.apply_transposition(e, 2, 4) == (1, 4, 3, 2, 5)
    assert perm_b.apply_transposition(e, -2, 4) == (1, -4, 3, -2, 5)
    assert perm_b.apply_transposition(e, -4, 4) == (1, 2, 3, -4, 5)
    assert perm_b.apply_transposition(e, 4, 4) == e
    with pytest.raises(ValueError):
        perm_b.apply_transposition(e, 0, 3)
    with pytest.raises(ValueError):
        perm_b.apply_transposition(e, 5, 3)


def test_inv_b_golden():
    assert perm_b.inv_b((2, -4, 5, 1, -3)) == 13
    assert perm_b.inv_b(perm_b.identity(4)) == 0
    # single negative letter: diagonal pair only
    assert perm_b.inv_b((-1,)) == 1


def test_inv_b_matches_unsigned_on_positive():
    for n in range(1, 6):
        for s in itertools.permutations(range(1, n + 1)):
            assert perm_b.inv_b(s) == perm_a.inv(s)


def test_sort_factorization_golden():
    s = (5, -4, -3, 1, -2)
    assert perm_b.selection_sort_factorization(s) == (
        (-1, 2),
        (-3, 3),
        (-2, 4),
        (1, 5),
    )
    assert perm_b.sor_b(s) == 16
    assert perm_b.sor_b(perm_b.identity(5)) == 0


def test_sort_factorization_reconstructs():
    for n in range(1, 5):
        for s in all_signed(n):
            factors = perm_b.selection_sort_factorization(s)
            js = [j for _, j in factors]
            assert js == sorted(js) and len(set(js)) == len(js)
            acc = perm_b.identity(n)
            for a, j in factors:  # successive right multiplications
                acc = perm_b.apply_transposition(acc, a, j)
            assert acc == s


def test_signed_cycles():
    cycles = perm_b.signed_cycle_decomposition((-6, -7, 4, -3, 5, 1, -2))
    assert [c.values for c in cycles] == [(1, 6), (2, 7), (3, 4), (5,)]
    assert [c.balanced for c in cycles] == [False, True, False, True]
    assert perm_b.cyc_b((-6, -7, 4, -3, 5, 1, -2)) == 2
    assert sorted(perm_b.cyc_b_set((-6, -7, 4, -3, 5, 1, -2))) == [2, 5]
    assert perm_b.reflection_length_b((-6, -7, 4, -3, 5, 1, -2)) == 5


def test_kernels_match_reference_definitions_exhaustive():
    # the one-pass kernels against the definitions they compute; A_n and D_n
    # are subsets of B_n
    for n in range(1, 7):
        for s in all_signed(n):
            assert perm_b.inv_b(s) == reference_inv_b(s)
            assert perm_b.lehmer_b_encode(s) == reference_lehmer_b(s)
            assert perm_b.sor_b(s) == sum(
                perm_b.factor_weight_b(a, j)
                for a, j in perm_b.selection_sort_factorization(s)
            )
            minima = [
                c.values[0] for c in perm_b.signed_cycle_decomposition(s) if c.balanced
            ]
            assert perm_b.cyc_b(s) == len(minima)
            assert perm_b.cyc_b_set(s) == frozenset(minima)
            assert perm_b.reflection_length_b(s) == n - len(minima)


def test_set_statistics_golden():
    s = (5, -7, 1, -4, 9, -2, -6, 3, 8)
    assert sorted(perm_b.rmil_b_set(s)) == [1, 3, 8]
    assert sorted(perm_b.lmap_b_set(s)) == [1, 5]
    assert perm_b.rl_min_b(s) == 3
    assert perm_b.lr_max_b(s) == 2
    assert perm_b.neg_count(s) == 4
    assert perm_b.nmin_b(s) == 9 - 3
    assert perm_b.nmax_b(s) == 9 - 2


def test_nmin_nmax_complement_exhaustive():
    for n in range(1, 5):
        for s in all_signed(n):
            assert perm_b.nmin_b(s) == n - perm_b.rl_min_b(s)
            assert perm_b.nmax_b(s) == n - perm_b.lr_max_b(s)
            # nmin and nmax swap under inversion
            assert perm_b.nmin_b(s) == perm_b.nmax_b(perm_b.inverse(s))


def test_lehmer_b_golden():
    s = (5, -7, 1, -4, 9, -2, -6, 3, 8)
    code = (1, -2, 1, -2, 5, -2, -5, 3, 8)
    assert perm_b.lehmer_b_encode(s) == code
    assert perm_b.lehmer_b_decode(code) == s
    with pytest.raises(ValueError):
        perm_b.lehmer_b_decode((0,))
    with pytest.raises(ValueError):
        perm_b.lehmer_b_decode((1, 3))


def test_acode_b_golden():
    assert perm_b.acode_b_encode((2, -4, 5, 1, -3)) == (1, 1, -3, -2, 3)
    assert perm_b.acode_b_decode((1, 1, -3, -2, 3)) == (2, -4, 5, 1, -3)


def test_bcode_b_golden():
    s = (3, -1, -6, -5, 4, 2)
    assert perm_b.bcode_b_encode(s) == (1, -1, 1, -4, -4, -3)
    assert perm_b.bcode_b_decode((1, -1, 1, -4, -4, -3)) == s
    assert perm_b.sor_b(s) == 27
    assert perm_b.bcode_b_decode((1, 1, -3, -2, 3)) == (2, -4, 5, -1, -3)


def test_bcode_b_matches_recursive_oracle():
    for n in range(1, 6):
        for s in all_signed(n):
            assert perm_b.bcode_b_encode(s) == recursive_bcode(s)


def test_psi_golden():
    assert perm_b.psi((2, -4, 5, 1, -3)) == (2, -4, 5, -1, -3)
    assert perm_b.psi_inverse((2, -4, 5, -1, -3)) == (2, -4, 5, 1, -3)


def test_code_round_trips_exhaustive():
    for n in range(1, 5):
        for s in all_signed(n):
            assert perm_b.lehmer_b_decode(perm_b.lehmer_b_encode(s)) == s
            assert perm_b.acode_b_decode(perm_b.acode_b_encode(s)) == s
            assert perm_b.bcode_b_decode(perm_b.bcode_b_encode(s)) == s
        for code in all_codes_b(n):
            assert perm_b.lehmer_b_encode(perm_b.lehmer_b_decode(code)) == code
            assert perm_b.acode_b_encode(perm_b.acode_b_decode(code)) == code
            assert perm_b.bcode_b_encode(perm_b.bcode_b_decode(code)) == code


def test_statistics_from_codes_exhaustive():
    for n in range(1, 5):
        for s in all_signed(n):
            a = perm_b.acode_b_encode(s)
            assert perm_b.inv_b(s) == sum(
                i - ai - (1 if ai < 0 else 0) for i, ai in enumerate(a, 1)
            )
            assert perm_b.nmin_b(s) == n - len(perm_a.max_set(a))
            b = perm_b.bcode_b_encode(s)
            assert perm_b.sor_b(s) == sum(
                i - bi - (1 if bi < 0 else 0) for i, bi in enumerate(b, 1)
            )
            assert perm_b.reflection_length_b(s) == n - len(perm_a.max_set(b))


def test_set_statistics_from_codes_exhaustive():
    for n in range(1, 5):
        for s in all_signed(n):
            a = perm_b.acode_b_encode(s)
            assert perm_b.rmil_b_set(s) == perm_a.max_set(a)
            assert perm_b.lmap_b_set(s) == perm_b.rmil_b_set(a)
            b = perm_b.bcode_b_encode(s)
            assert perm_b.cyc_b_set(s) == perm_a.max_set(b)
            assert perm_b.lmap_b_set(s) == perm_b.rmil_b_set(b)


def test_psi_transport_exhaustive():
    for n in range(1, 5):
        count = 0
        images = set()
        for s in all_signed(n):
            count += 1
            t = perm_b.psi(s)
            images.add(t)
            assert perm_b.inv_b(s) == perm_b.sor_b(t)
            assert perm_b.lmap_b_set(s) == perm_b.lmap_b_set(t)
            assert perm_b.rmil_b_set(s) == perm_b.cyc_b_set(t)
            assert perm_b.psi_inverse(t) == s
        assert len(images) == count


@given(signed_perms())
def test_round_trips_random(s):
    assert perm_b.lehmer_b_decode(perm_b.lehmer_b_encode(s)) == s
    assert perm_b.acode_b_decode(perm_b.acode_b_encode(s)) == s
    assert perm_b.bcode_b_decode(perm_b.bcode_b_encode(s)) == s


@given(signed_perms())
def test_bcode_b_oracle_random(s):
    assert perm_b.bcode_b_encode(s) == recursive_bcode(s)


@given(signed_perms())
def test_psi_transport_random(s):
    t = perm_b.psi(s)
    assert perm_b.inv_b(s) == perm_b.sor_b(t)
    assert perm_b.lmap_b_set(s) == perm_b.lmap_b_set(t)
    assert perm_b.rmil_b_set(s) == perm_b.cyc_b_set(t)
    assert perm_b.psi_inverse(t) == s


@given(signed_perms())
def test_code_formulas_random(s):
    n = len(s)
    a = perm_b.acode_b_encode(s)
    b = perm_b.bcode_b_encode(s)
    assert perm_b.inv_b(s) == sum(
        i - ai - (1 if ai < 0 else 0) for i, ai in enumerate(a, 1)
    )
    assert perm_b.sor_b(s) == sum(
        i - bi - (1 if bi < 0 else 0) for i, bi in enumerate(b, 1)
    )
    assert perm_b.reflection_length_b(s) == n - len(perm_a.max_set(b))
