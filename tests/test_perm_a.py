"""Unit and property tests for the unsigned permutation module."""

import doctest
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxcodes import perm_a, perm_b


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


perms = st.integers(1, 24).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(tuple)


def test_doctests():
    assert doctest.testmod(perm_a).failed == 0


def test_validate_permutation():
    assert perm_a.validate_permutation([2, 1]) == (2, 1)
    with pytest.raises(ValueError):
        perm_a.validate_permutation([1, 1, 3])
    with pytest.raises(ValueError):
        perm_a.validate_permutation([0, 1])
    with pytest.raises(ValueError):
        perm_a.validate_permutation([1, 4, 2])
    # bool is an int subclass, but True is not the letter 1
    assert not perm_a.is_permutation((2, True))
    with pytest.raises(ValueError):
        perm_a.validate_code((True, 2))


def test_compose_and_inverse():
    s = (3, 1, 5, 2, 4)
    assert perm_a.inverse(s) == (2, 4, 1, 5, 3)
    assert perm_a.compose(s, perm_a.inverse(s)) == perm_a.identity(5)
    assert perm_a.compose(perm_a.inverse(s), s) == perm_a.identity(5)
    # right-to-left: (p compose s)(i) = p(s(i))
    p = (2, 1, 3)
    s2 = (1, 3, 2)
    assert perm_a.compose(p, s2) == (2, 3, 1)
    with pytest.raises(ValueError):
        perm_a.compose((1, 2), (1, 2, 3))


def test_inv_counts_pairs():
    assert perm_a.inv((1, 2, 3)) == 0
    assert perm_a.inv((3, 2, 1)) == 3
    assert perm_a.inv((3, 1, 5, 2, 4)) == 4


def reference_inv(s):
    """inv by its definition: pairs i < j with s(i) > s(j)."""
    n = len(s)
    return sum(1 for i in range(n) for j in range(i + 1, n) if s[i] > s[j])


def reference_lehmer(s):
    """The Lehmer code by its definition: c_i = #{j <= i : s(j) <= s(i)}."""
    return tuple(sum(1 for j in range(i + 1) if s[j] <= s[i]) for i in range(len(s)))


def reference_rmil(word):
    """Letters smaller than every letter to their right."""
    n = len(word)
    return {
        word[i] for i in range(n) if all(word[i] < word[j] for j in range(i + 1, n))
    }


def reference_lmap(word):
    """Places whose letter is larger than every letter to their left."""
    return {i + 1 for i in range(len(word)) if all(word[i] > word[j] for j in range(i))}


def reference_rl_min(word):
    n = len(word)
    return sum(all(word[i] < word[j] for j in range(i + 1, n)) for i in range(n))


def reference_lr_max(word):
    return sum(all(word[i] > word[j] for j in range(i)) for i in range(len(word)))


def reference_nmin(s):
    """Letters that are larger than some letter to their right."""
    n = len(s)
    return sum(any(s[i] > s[j] for j in range(i + 1, n)) for i in range(n))


def reference_cycles(s):
    """Orbits of s, each read from its minimum, sorted by minimum."""
    out = set()
    for i in range(1, len(s) + 1):
        orbit = [i]
        while s[orbit[-1] - 1] != i:
            orbit.append(s[orbit[-1] - 1])
        k = orbit.index(min(orbit))
        out.add(tuple(orbit[k:] + orbit[:k]))
    return tuple(sorted(out))


def reference_sort_factors(s):
    """Selection sort from the right: swap each letter j home from its place i,
    recording (i, j); the factors multiply right to left back to s."""
    w = list(s)
    factors = []
    for j in range(len(w), 1, -1):
        i = w.index(j) + 1
        if i != j:
            factors.append((i, j))
            w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
    return tuple(reversed(factors))


def reference_acode(s):
    """c_i = #{j <= i : letter j sits at or left of letter i}."""
    place = {v: p for p, v in enumerate(s)}
    return tuple(
        sum(1 for j in range(1, i + 1) if place[j] <= place[i])
        for i in range(1, len(s) + 1)
    )


def reference_bcode(s):
    """c_i = the first value <= i met walking backwards along i's cycle."""
    out = []
    for i in range(1, len(s) + 1):
        x = s.index(i) + 1
        while x > i:
            x = s.index(x) + 1
        out.append(x)
    return tuple(out)


def test_kernels_match_reference_definitions_exhaustive():
    # every kernel here is a signed perm_b kernel run on unsigned words
    for n in range(1, 8):
        for s in all_perms(n):
            assert perm_a.inv(s) == reference_inv(s)
            assert perm_a.lehmer_encode(s) == reference_lehmer(s)
            assert perm_a.rmil_set(s) == tuple(sorted(reference_rmil(s)))
            assert perm_a.lmap_set(s) == tuple(sorted(reference_lmap(s)))
            assert perm_a.rl_min(s) == reference_rl_min(s)
            assert perm_a.lr_max(s) == reference_lr_max(s)
            assert perm_a.nmin(s) == reference_nmin(s)
            cycles = reference_cycles(s)
            assert perm_a.cycles(s) == cycles
            assert perm_a.cyc(s) == len(cycles)
            assert perm_a.cyc_set(s) == tuple(c[0] for c in cycles)
            factors = reference_sort_factors(s)
            assert perm_a.sort_factorization(s) == factors
            assert perm_a.sor(s) == sum(j - i for i, j in factors)
            assert perm_a.acode_encode(s) == reference_acode(s)
            assert perm_a.bcode_encode(s) == reference_bcode(s)


def test_word_statistics_match_reference_definitions_on_codes():
    # codes repeat letters; the paper reads Rmil and Lmap off them
    for n in range(1, 7):
        for code in itertools.product(*(range(1, i + 1) for i in range(1, n + 1))):
            assert perm_a.rmil_set(code) == tuple(sorted(reference_rmil(code)))
            assert perm_a.lmap_set(code) == tuple(sorted(reference_lmap(code)))
            assert perm_a.rl_min(code) == reference_rl_min(code)
            assert perm_a.lr_max(code) == reference_lr_max(code)


def test_cycles_canonical_form():
    assert perm_a.cycles((2, 4, 5, 1, 3)) == ((1, 2, 4), (3, 5))
    assert perm_a.cycles((1, 2, 3)) == ((1,), (2,), (3,))
    assert perm_a.cyc((2, 4, 5, 1, 3)) == 2
    assert sorted(perm_a.cyc_set((2, 4, 5, 1, 3))) == [1, 3]


def test_set_statistics_on_words():
    # words with repeats are allowed (codes)
    assert sorted(perm_a.rmil_set((1, 1, 3, 2, 4))) == [1, 2, 4]
    assert sorted(perm_a.lmap_set((2, 4, 1, 5, 3))) == [1, 2, 4]
    assert sorted(perm_a.rmil_set((2, 4, 5, 1, 3))) == [1, 3]
    assert sorted(perm_a.lmap_set((2, 4, 5, 1, 3))) == [1, 2, 3]
    assert perm_a.rl_min((2, 4, 5, 1, 3)) == 2
    assert perm_a.lr_max((2, 4, 5, 1, 3)) == 3
    assert perm_a.nmin((2, 4, 5, 1, 3)) == 3
    assert sorted(perm_a.max_set((1, 1, 3, 2, 3))) == [1, 3]


def test_lehmer_golden():
    assert perm_a.lehmer_encode((2, 4, 1, 5, 3)) == (1, 2, 1, 4, 3)
    assert perm_a.lehmer_decode((1, 2, 1, 4, 3)) == (2, 4, 1, 5, 3)
    with pytest.raises(ValueError):
        perm_a.lehmer_decode((1, 3))
    with pytest.raises(ValueError):
        perm_a.lehmer_decode((0,))


def test_acode_golden():
    assert perm_a.acode_encode((3, 1, 5, 2, 4)) == (1, 2, 1, 4, 3)
    assert perm_a.acode_decode((1, 2, 1, 4, 3)) == (3, 1, 5, 2, 4)


def test_bcode_golden():
    assert perm_a.bcode_encode((2, 4, 5, 1, 3)) == (1, 1, 3, 2, 3)
    assert perm_a.bcode_decode((1, 1, 3, 2, 3)) == (2, 4, 5, 1, 3)
    # identity: every entry is its own cycle minimum
    assert perm_a.bcode_encode((1, 2, 3)) == (1, 2, 3)


def test_sort_factorization_golden():
    assert perm_a.sort_factorization((2, 4, 5, 1, 3)) == ((1, 2), (2, 4), (3, 5))
    assert perm_a.sor((2, 4, 5, 1, 3)) == 5
    assert perm_a.sor(perm_a.identity(4)) == 0


def test_sort_factorization_reconstructs():
    for n in range(1, 7):
        for s in all_perms(n):
            factors = perm_a.sort_factorization(s)
            js = [j for _, j in factors]
            assert js == sorted(js) and len(set(js)) == len(js)
            acc = list(perm_a.identity(n))
            for i, j in factors:  # successive right multiplications
                acc[i - 1], acc[j - 1] = acc[j - 1], acc[i - 1]
            assert tuple(acc) == s
            # the factors are exactly the non-fixed B-code entries
            b = perm_a.bcode_encode(s)
            assert factors == tuple(
                (bi, i) for i, bi in enumerate(b, 1) if bi != i
            )


def test_encoders_refuse_non_members():
    # a signed word, a repeated letter or a letter out of range is no
    # permutation: each encoder refuses it, as phi does, where it used to
    # return a code ((2, -1) gave the Lehmer code (1, -1)); on permutations
    # each is its signed kernel
    for encode in (perm_a.lehmer_encode, perm_a.acode_encode, perm_a.bcode_encode):
        for bad in ((2, -1), (1, 1), (1, -2), (0, 1), (1, 3), (True,)):
            with pytest.raises(ValueError):
                encode(bad)
    for s in all_perms(4):
        assert perm_a.lehmer_encode(s) == perm_b.lehmer_b_encode(s)
        assert perm_a.acode_encode(s) == perm_b.acode_b_encode(s)
        assert perm_a.bcode_encode(s) == perm_b.bcode_b_encode(s)


def test_phi_golden():
    assert perm_a.phi((3, 1, 5, 2, 4)) == (3, 2, 5, 4, 1)
    assert perm_a.phi_inverse((3, 2, 5, 4, 1)) == (3, 1, 5, 2, 4)


def test_phi_refuses_non_members():
    # a signed word is no permutation, though perm_b.psi takes it
    for bad in ((-1, 2), (1, 1, 1), (0, 1), (1, 3)):
        with pytest.raises(ValueError):
            perm_a.phi(bad)
    for s in all_perms(4):
        assert perm_a.phi(s) == perm_b.psi(s)


def test_phi_inverse_refuses_non_members():
    for bad in ((-1, 2), (2, 2), (0, 1), (1, 3)):
        with pytest.raises(ValueError):
            perm_a.phi_inverse(bad)
    for s in all_perms(4):
        assert perm_a.phi_inverse(s) == perm_b.psi_inverse(s)


def test_code_round_trips_exhaustive():
    for n in range(1, 7):
        for s in all_perms(n):
            assert perm_a.lehmer_decode(perm_a.lehmer_encode(s)) == s
            assert perm_a.acode_decode(perm_a.acode_encode(s)) == s
            assert perm_a.bcode_decode(perm_a.bcode_encode(s)) == s
        for code in itertools.product(*(range(1, i + 1) for i in range(1, n + 1))):
            assert perm_a.lehmer_encode(perm_a.lehmer_decode(code)) == code
            assert perm_a.acode_encode(perm_a.acode_decode(code)) == code
            assert perm_a.bcode_encode(perm_a.bcode_decode(code)) == code


def test_statistics_from_codes_exhaustive():
    # inv and rl-min read off the A-code, sor and cyc off the B-code
    for n in range(1, 7):
        for s in all_perms(n):
            a = perm_a.acode_encode(s)
            assert perm_a.inv(s) == sum(i - ai for i, ai in enumerate(a, 1))
            assert perm_a.rl_min(s) == len(perm_a.max_set(a))
            b = perm_a.bcode_encode(s)
            assert perm_a.sor(s) == sum(i - bi for i, bi in enumerate(b, 1))
            assert perm_a.cyc(s) == len(perm_a.max_set(b))


def test_set_statistics_from_codes_exhaustive():
    for n in range(1, 7):
        for s in all_perms(n):
            a = perm_a.acode_encode(s)
            assert perm_a.rmil_set(s) == perm_a.max_set(a)
            assert perm_a.lmap_set(s) == perm_a.rmil_set(a)
            b = perm_a.bcode_encode(s)
            assert perm_a.cyc_set(s) == perm_a.max_set(b)
            assert perm_a.lmap_set(s) == perm_a.rmil_set(b)


def test_phi_transport_exhaustive():
    for n in range(1, 7):
        images = set()
        for s in all_perms(n):
            t = perm_a.phi(s)
            images.add(t)
            assert perm_a.inv(s) == perm_a.sor(t)
            assert perm_a.rl_min(s) == perm_a.cyc(t)
            assert perm_a.lmap_set(s) == perm_a.lmap_set(t)
            assert perm_a.rmil_set(s) == perm_a.cyc_set(t)
            assert perm_a.phi_inverse(t) == s
        assert len(images) == len(list(all_perms(n)))


@given(perms)
def test_round_trips_random(s):
    assert perm_a.lehmer_decode(perm_a.lehmer_encode(s)) == s
    assert perm_a.acode_decode(perm_a.acode_encode(s)) == s
    assert perm_a.bcode_decode(perm_a.bcode_encode(s)) == s


@given(perms)
def test_code_formulas_random(s):
    a = perm_a.acode_encode(s)
    b = perm_a.bcode_encode(s)
    assert perm_a.inv(s) == sum(i - ai for i, ai in enumerate(a, 1))
    assert perm_a.sor(s) == sum(i - bi for i, bi in enumerate(b, 1))


@given(perms)
def test_phi_transport_random(s):
    t = perm_a.phi(s)
    assert perm_a.inv(s) == perm_a.sor(t)
    assert perm_a.rl_min(s) == perm_a.cyc(t)
    assert perm_a.lmap_set(s) == perm_a.lmap_set(t)
    assert perm_a.phi_inverse(t) == s
