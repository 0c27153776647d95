"""Unit and property tests for the signed permutation module."""

import doctest
import enum
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxcodes import perm_a, perm_b, perm_d


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


def reference_cyc_b(s):
    """Minima of the cycles of |s| that hold an even number of barred values;
    v is barred when -v occurs in s."""
    barred = {-x for x in s if x < 0}
    out = set()
    for i in range(1, len(s) + 1):
        orbit = [i]
        while abs(s[orbit[-1] - 1]) != i:
            orbit.append(abs(s[orbit[-1] - 1]))
        if min(orbit) == i and len(barred.intersection(orbit)) % 2 == 0:
            out.add(i)
    return out


def reference_lmap_b(w):
    """Places i whose letter exceeds the absolute value of every earlier
    letter, and 0 when there is none."""
    return {
        i for i in range(1, len(w) + 1)
        if w[i - 1] > max((abs(x) for x in w[:i - 1]), default=0)
    }


def reference_rmil_b(w):
    """Positive letters smaller in absolute value than every later letter."""
    return {
        x for i, x in enumerate(w) if x > 0 and all(x < abs(y) for y in w[i + 1:])
    }


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


def reference_sorting_index(s, multiply, weight):
    """A sorting index by its definition: for j = n down to 1, find the letter
    +-j at place p and right-multiply by the generator that brings +j home,
    (p, j) for j and (-p, j) for -j, adding the generator's weight."""
    total = 0
    for j in range(len(s), 0, -1):
        p = s.index(j) + 1 if j in s else -(s.index(-j) + 1)
        if p != j:
            s = multiply(s, p, j)
            total += weight(p, j)
    assert s == perm_b.identity(len(s))
    return total


def test_doctests():
    assert doctest.testmod(perm_b).failed == 0


class Letter(enum.IntEnum):
    ONE = 1
    MINUS_TWO = -2


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
    assert perm_b.validate_code_b([1, -2, 3]) == (1, -2, 3)
    code = perm_b.validate_code_b((Letter.ONE, Letter.MINUS_TWO))
    assert code == (1, -2) and type(code[1]) is Letter


@pytest.mark.parametrize("images, verdict", [
    ((True,), False),
    ((1.0,), False),
    ((Letter.ONE, Letter.MINUS_TWO), True),
    ((0, 1), False),
    ((1, 3), False),
    ((1, -3), False),
    ((-2, 1), True),
    ([2, -1], True),
])
def test_is_signed_permutation_edge_cases(images, verdict):
    assert perm_b.is_signed_permutation(images) is verdict


@pytest.mark.parametrize("code, message", [
    ((True,), "code entry c_1=True outside [-1, 1] minus 0"),
    ((1, 1.0), "code entry c_2=1.0 outside [-2, 2] minus 0"),
    ((1, 0), "code entry c_2=0 outside [-2, 2] minus 0"),
    ((1, 3), "code entry c_2=3 outside [-2, 2] minus 0"),
    ((1, -3), "code entry c_2=-3 outside [-2, 2] minus 0"),
    ([1, -2, 4], "code entry c_3=4 outside [-3, 3] minus 0"),
])
def test_validate_code_b_edge_cases(code, message):
    with pytest.raises(ValueError) as info:
        perm_b.validate_code_b(code)
    assert str(info.value) == message


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
    # bool and float compare equal to letters but are refused
    for a, j in ((True, 2), (1.0, 2), (1, 2.0), (-2.0, 2)):
        with pytest.raises(ValueError):
            perm_b.apply_transposition(e, a, j)


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


def test_sort_factorization_is_the_bcode_exhaustive():
    # the B-code of s is the code of its selection-sort factorization: the
    # factors are its entries (b, j) with b != j
    for n in range(1, 7):
        for s in all_signed(n):
            assert perm_b.selection_sort_factorization(s) == tuple(
                (b, j) for j, b in enumerate(perm_b.bcode_b_encode(s), 1) if b != j
            )


def test_signed_cycles():
    cycles = perm_b.signed_cycle_decomposition((-6, -7, 4, -3, 5, 1, -2))
    assert [c.values for c in cycles] == [(1, 6), (2, 7), (3, 4), (5,)]
    assert [c.balanced for c in cycles] == [False, True, False, True]
    assert repr(cycles[0]) == "SignedCycle(values=(1, 6), barred=frozenset({6}))"
    assert hash(cycles[0]) == hash(((1, 6), frozenset({6})))
    with pytest.raises(AttributeError):
        cycles[0].values = (1,)
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
            assert perm_b.cyc_b_set(s) == tuple(minima)
            assert perm_b.reflection_length_b(s) == n - len(minima)


def test_set_kernels_return_increasing_tuples_exhaustive():
    # a tuple is canonical only because the kernel sorts: each must equal its
    # definition's members in increasing order (a list or frozenset never
    # equals a tuple)
    kernels = [
        (perm_b.cyc_b_set, reference_cyc_b),
        (perm_b.lmap_b_set, reference_lmap_b),
        (perm_b.rmil_b_set, reference_rmil_b),
    ]
    for n in range(1, 7):
        for s in all_signed(n):
            for kernel, reference in kernels:
                assert kernel(s) == tuple(sorted(reference(s)))


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


def naive_nmin_b(s):
    """Letters x with x > |y| for some later letter y, plus the bars."""
    n = len(s)
    beating = sum(any(s[i] > abs(s[j]) for j in range(i + 1, n)) for i in range(n))
    return beating + sum(1 for x in s if x < 0)


def naive_nmax_b(s):
    """Positive letters x with |y| > x for some earlier letter y, plus the bars."""
    beaten = sum(x > 0 and any(abs(y) > x for y in s[:i]) for i, x in enumerate(s))
    return beaten + sum(1 for x in s if x < 0)


def test_nmin_nmax_match_naive_definitions_exhaustive():
    for n in range(1, 7):
        for s in all_signed(n):
            assert perm_b.nmin_b(s) == naive_nmin_b(s), s
            assert perm_b.nmax_b(s) == naive_nmax_b(s), s


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
    # the cycle walk and the selection-sort walk, each against the oracle
    for n in range(1, 7):
        for s in all_signed(n):
            b = recursive_bcode(s)
            assert perm_b.bcode_b_encode(s) == b
            walk = list(range(1, n + 1))
            for a, j in perm_b.selection_sort_factorization(s):
                walk[j - 1] = a
            assert tuple(walk) == b


def test_sorting_indices_match_step_by_step_sorting():
    # sor, sor_B and sor_D sort with the sign change (-j, j), sor'_D with the
    # composite that also flips place 1
    ref = reference_sorting_index
    transposition, generator = perm_b.apply_transposition, perm_d.apply_generator
    w_b, w_d = perm_b.factor_weight_b, perm_d.factor_weight_d
    for n in range(1, 8):
        for s in itertools.permutations(range(1, n + 1)):
            assert perm_a.sor(s) == ref(s, transposition, w_b)
    for n in range(1, 7):
        for s in all_signed(n):
            assert perm_b.sor_b(s) == ref(s, transposition, w_b)
            if n > 1 and perm_d.is_even_signed(s):
                assert perm_d.sor_d(s) == ref(s, transposition, w_d)
                assert perm_d.sor_d_prime(s) == ref(s, generator, w_d)


def test_psi_golden():
    assert perm_b.psi((2, -4, 5, 1, -3)) == (2, -4, 5, -1, -3)
    assert perm_b.psi_inverse((2, -4, 5, -1, -3)) == (2, -4, 5, 1, -3)


def test_psi_refuses_non_members():
    for bad in ((1, 1, 1), (0, 1), (1, 3), (2, -2), (1, True)):
        with pytest.raises(ValueError):
            perm_b.psi(bad)
    for s in all_signed(3):
        assert perm_b.psi(s) == perm_b._psi(s)


def test_psi_inverse_refuses_non_members():
    for bad in ((1, 1, 1), (0, 1), (1, 3), (2, -2), (1.0,)):
        with pytest.raises(ValueError):
            perm_b.psi_inverse(bad)
    for s in all_signed(3):
        assert perm_b.psi_inverse(s) == perm_b._psi_inverse(s)


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
