"""Unit and property tests for the even-signed permutation module."""

import doctest
import enum
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxcodes import perm_b, perm_d


def all_even_signed(n):
    for base in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            if signs.count(-1) % 2 == 0:
                yield tuple(v * e for v, e in zip(base, signs))


def all_codes_d(n):
    return itertools.product(
        (1,), *([c for c in range(-i, i + 1) if c != 0] for i in range(2, n + 1))
    )


@st.composite
def even_signed_perms(draw, min_n=2, max_n=12):
    n = draw(st.integers(min_n, max_n))
    base = draw(st.permutations(list(range(1, n + 1))))
    signs = [draw(st.sampled_from((1, -1))) for _ in range(n)]
    if signs.count(-1) % 2:
        signs[0] = -signs[0]
    return tuple(v * e for v, e in zip(base, signs))


def test_doctests():
    assert doctest.testmod(perm_d).failed == 0


def test_validate_even_signed():
    assert perm_d.validate_even_signed([-2, -1]) == (-2, -1)
    with pytest.raises(ValueError):
        perm_d.validate_even_signed([-1, 2])
    with pytest.raises(ValueError):
        perm_d.validate_even_signed([1, 1])
    # the public encoders validate; (-1, 2, 3) once got the identity's code
    for encode in (perm_d.ecode_encode, perm_d.fcode_encode):
        for bad in ([-1, 2, 3], [1, 1], [2, 3]):
            with pytest.raises(ValueError):
                encode(bad)


def test_apply_generator():
    e = perm_b.identity(4)
    assert perm_d.apply_generator(e, 1, 3) == (3, 2, 1, 4)
    assert perm_d.apply_generator(e, -1, 3) == (-3, 2, -1, 4)
    # the composite move negates places 1 and j
    assert perm_d.apply_generator(e, -3, 3) == (-1, 2, -3, 4)
    assert perm_d.apply_generator((2, -4, 5, -1, -3), -5, 5) == (-2, -4, 5, -1, 3)
    # (j, j) is an accepted identity marker for 1 <= j <= n, and refused
    # past n like every other pair
    assert perm_d.apply_generator(e, 3, 3) == e
    assert perm_d.apply_generator(e, 1, 1) == e
    for a, j in ((7, 7), (5, 5), (0, 0), (-5, 5)):
        with pytest.raises(ValueError):
            perm_d.apply_generator(e, a, j)
    with pytest.raises(ValueError):
        perm_d.apply_generator(e, 4, 3)
    with pytest.raises(ValueError):
        perm_d.apply_generator(e, 0, 2)
    # (-1, 1) would flip place 1 twice: no composite exists at j = 1
    with pytest.raises(ValueError, match="no composite generator"):
        perm_d.apply_generator((1, 2), -1, 1)
    # bool and float compare equal to letters but are refused, the
    # composite and the identity marker included
    for a, j in ((True, 2), (1.0, 2), (-2.0, 2), (-2, 2.0), (3.0, 3), (True, True)):
        with pytest.raises(ValueError):
            perm_d.apply_generator(e, a, j)


def test_inv_d_golden():
    assert perm_d.inv_d((2, -4, 5, -1, -3)) == 11
    assert perm_d.inv_d(perm_b.identity(4)) == 0
    assert perm_d.inv_d((-2, -1)) == 1


def test_inv_d_is_b_minus_negatives():
    for n in range(2, 5):
        for s in all_even_signed(n):
            assert perm_d.inv_d(s) == perm_b.inv_b(s) - perm_b.neg_count(s)


def test_kernels_match_reference_definitions_exhaustive():
    for n in range(2, 7):
        for s in all_even_signed(n):
            assert perm_d.inv_d(s) == sum(
                (s[i] > s[j]) + (-s[i] > s[j])
                for i in range(n)
                for j in range(i + 1, n)
            )
            assert perm_d.sor_d(s) == sum(
                perm_d.factor_weight_d(a, j)
                for a, j in perm_b.selection_sort_factorization(s)
            )


def test_nmin_d_matches_its_definition_exhaustive():
    # the positive letters beating some later letter in absolute value, plus
    # the bars on letters other than 1, counted place by place
    for n in range(2, 7):
        for s in all_even_signed(n):
            beating = sum(
                1 for i, x in enumerate(s) if x > 0 and any(abs(y) < x for y in s[i + 1:])
            )
            bars = sum(1 for x in s if x < 0 and x != -1)
            assert perm_d.nmin_d(s) == beating + bars, s


def test_sor_d_golden():
    s = (-2, -4, 5, -1, -3)
    assert perm_d.sor_d(s) == 11
    assert perm_d.sor_d_prime(s) == 11
    assert perm_d.cosort_factorization(s) == ((1, 2), (-3, 3), (-2, 4), (3, 5))
    assert perm_d.sor_d(perm_b.identity(3)) == 0


def test_cosort_reconstructs():
    for n in range(2, 5):
        for s in all_even_signed(n):
            factors = perm_d.cosort_factorization(s)
            js = [j for _, j in factors]
            assert js == sorted(js) and len(set(js)) == len(js)
            acc = perm_b.identity(n)
            for a, j in factors:  # successive right multiplications
                acc = perm_d.apply_generator(acc, a, j)
            assert acc == s


def test_cosort_factorization_refuses_non_members():
    for s in ((-1, 2), (1, 1)):
        with pytest.raises(ValueError):
            perm_d.cosort_factorization(s)


def test_sor_d_prime_equals_sor_d_exhaustive():
    for n in range(2, 6):
        for s in all_even_signed(n):
            assert perm_d.sor_d_prime(s) == perm_d.sor_d(s)


def test_nmin_d_golden():
    assert perm_d.nmin_d((2, -4, 5, 1, -3)) == 4
    assert perm_d.nmin_d(perm_b.identity(4)) == 0


def test_reflection_length_golden():
    assert perm_d.reflection_length_d((-2, -4, 5, -1, -3)) == 4
    assert perm_d.reflection_length_d(perm_b.identity(4)) == 0


def test_ecode_golden():
    assert perm_d.ecode_encode((2, -4, 5, 1, -3)) == (1, 1, -3, -2, 3)
    assert perm_d.ecode_decode((1, 1, -3, -2, 3)) == (2, -4, 5, 1, -3)


def test_fcode_golden():
    assert perm_d.fcode_encode((-2, -4, 5, -1, -3)) == (1, 1, -3, -2, 3)
    assert perm_d.fcode_decode((1, 1, -3, -2, 3)) == (-2, -4, 5, -1, -3)


class Letter(enum.IntEnum):
    ONE = 1
    MINUS_TWO = -2


def test_validate_code_d():
    perm_d.validate_code_d((1, -2, 3))
    assert perm_d.validate_code_d([1, -2, 3]) == (1, -2, 3)
    code = perm_d.validate_code_d((Letter.ONE, Letter.MINUS_TWO))
    assert code == (1, -2) and type(code[1]) is Letter
    with pytest.raises(ValueError):
        perm_d.validate_code_d((2, 1))
    with pytest.raises(ValueError):
        perm_d.validate_code_d((1, 0))
    with pytest.raises(ValueError):
        perm_d.validate_code_d((1, 3))
    with pytest.raises(ValueError):
        perm_d.validate_code_d((1, True))


@pytest.mark.parametrize("code, message", [
    ((True,), "code entry c_1=True outside [-1, 1] minus 0"),
    ((1.0,), "code entry c_1=1.0 outside [-1, 1] minus 0"),
    ((0,), "code entry c_1=0 must be 1"),
    ((1, True), "code entry c_2=True outside [-2, 2] minus 0"),
    ((1, 2.0), "code entry c_2=2.0 outside [-2, 2] minus 0"),
    ((1, 0), "code entry c_2=0 outside [-2, 2] minus 0"),
    ((1, 3), "code entry c_2=3 outside [-2, 2] minus 0"),
    ((1, -3), "code entry c_2=-3 outside [-2, 2] minus 0"),
    ([1, -2, 4], "code entry c_3=4 outside [-3, 3] minus 0"),
])
def test_validate_code_d_edge_cases(code, message):
    with pytest.raises(ValueError) as info:
        perm_d.validate_code_d(code)
    assert str(info.value) == message


def test_rho_golden():
    assert perm_d.rho((2, -4, 5, 1, -3)) == (-2, -4, 5, -1, -3)
    assert perm_d.rho_inverse((-2, -4, 5, -1, -3)) == (2, -4, 5, 1, -3)


def test_rho_refuses_non_members():
    for bad in ((-1, 2), (2, 3, -1), (1, 1), (0, 1), (1, 3)):
        with pytest.raises(ValueError):
            perm_d.rho(bad)
    for s in all_even_signed(4):
        assert perm_d.rho(s) == perm_d._rho(s)


def test_rho_inverse_refuses_non_members():
    for bad in ((-1, 2), (-1,), (2, 2), (0, 1), (1, 3)):
        with pytest.raises(ValueError):
            perm_d.rho_inverse(bad)
    for s in all_even_signed(4):
        assert perm_d.rho_inverse(s) == perm_d._rho_inverse(s)


def test_code_round_trips_exhaustive():
    for n in range(2, 6):
        group = list(all_even_signed(n))
        for s in group:
            assert perm_d.ecode_decode(perm_d.ecode_encode(s)) == s
            assert perm_d.fcode_decode(perm_d.fcode_encode(s)) == s
        # decode is a bijection from the full code space onto the group
        seen_e = set()
        seen_f = set()
        for code in all_codes_d(n):
            e = perm_d.ecode_decode(code)
            f = perm_d.fcode_decode(code)
            assert perm_d.ecode_encode(e) == code
            assert perm_d.fcode_encode(f) == code
            seen_e.add(e)
            seen_f.add(f)
        assert len(seen_e) == len(group)
        assert len(seen_f) == len(group)


def test_statistics_from_codes_exhaustive():
    for n in range(2, 6):
        for s in all_even_signed(n):
            e = perm_d.ecode_encode(s)
            assert perm_d.inv_d(s) == sum(
                r - er - (2 if er < 0 else 0) for r, er in enumerate(e, 1)
            )
            assert perm_d.nmin_d(s) == n - sum(
                1 for r, er in enumerate(e, 1) if er == r
            )
            f = perm_d.fcode_encode(s)
            assert perm_d.sor_d(s) == sum(
                r - fr - (2 if fr < 0 else 0) for r, fr in enumerate(f, 1)
            )
            assert perm_d.reflection_length_d(s) == n - sum(
                1 for r, fr in enumerate(f, 1) if fr == r
            )


def test_rho_transport_exhaustive():
    for n in range(2, 6):
        count = 0
        images = set()
        for s in all_even_signed(n):
            count += 1
            t = perm_d.rho(s)
            images.add(t)
            assert perm_d.inv_d(s) == perm_d.sor_d(t)
            assert perm_d.nmin_d(s) == perm_d.reflection_length_d(t)
            assert perm_d.rho_inverse(t) == s
        assert len(images) == count


@given(even_signed_perms())
def test_round_trips_random(s):
    assert perm_d.ecode_decode(perm_d.ecode_encode(s)) == s
    assert perm_d.fcode_decode(perm_d.fcode_encode(s)) == s


@given(even_signed_perms())
def test_sor_d_prime_random(s):
    assert perm_d.sor_d_prime(s) == perm_d.sor_d(s)


@given(even_signed_perms())
def test_rho_transport_random(s):
    t = perm_d.rho(s)
    assert perm_d.inv_d(s) == perm_d.sor_d(t)
    assert perm_d.nmin_d(s) == perm_d.reflection_length_d(t)
    assert perm_d.rho_inverse(t) == s


@given(even_signed_perms())
def test_code_formulas_random(s):
    e = perm_d.ecode_encode(s)
    f = perm_d.fcode_encode(s)
    assert perm_d.inv_d(s) == sum(
        r - er - (2 if er < 0 else 0) for r, er in enumerate(e, 1)
    )
    assert perm_d.sor_d(s) == sum(
        r - fr - (2 if fr < 0 else 0) for r, fr in enumerate(f, 1)
    )
