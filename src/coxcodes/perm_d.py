"""Even-signed permutations: two codes, the sorting index, and the co-sorting
index over the extended generator family.

Members are signed permutations with an even number of barred letters.  The
generator family used here contains the reflections (i, j) with 1 <= |i| < j
(as in the signed module) plus, for every j >= 2, the composite generator
written (-j, j): the double sign change flipping the letters at places j and
1 under right multiplication.  Generators are encoded as pairs (a, j); the
pair (-j, j) always means the composite, never the bare sign change, which
does not preserve evenness.

The weight of a factor (a, j) is j - a, minus 2 when a is barred.

One walk gives the B- and F-codes: perm_b._sorting_code, whose even flag makes
(-j, j) the composite, and perm_b._code_product decodes both.  The F-code is
the code of the co-sorting factorization, as the B-code is that of the sorting
one.  sor_D is read off the B-code as sor_B is, a barred entry taking 2 off;
sor'_D sums the factor weights over the F-code, so the two stay independent.
The E-code is decoded as the A-code with the type-D flip: the same flag on
perm_b._acode_b_decode flips the first letter before each barred insertion.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import perm_b
from .perm_b import SignedPerm, neg_count

SignedCode = tuple[int, ...]

__all__ = [
    "is_even_signed",
    "validate_even_signed",
    "apply_generator",
    "inv_d",
    "factor_weight_d",
    "sor_d",
    "cosort_factorization",
    "sor_d_prime",
    "nmin_d",
    "reflection_length_d",
    "validate_code_d",
    "ecode_encode",
    "ecode_decode",
    "fcode_encode",
    "fcode_decode",
    "rho",
    "rho_inverse",
]


def is_even_signed(images: Sequence[int]) -> bool:
    """True for a signed permutation with an even number of bars."""
    return perm_b.is_signed_permutation(images) and neg_count(images) % 2 == 0


def validate_even_signed(images: Iterable[int]) -> SignedPerm:
    s = perm_b.validate_signed(images)
    bars = neg_count(s)
    if bars % 2:
        raise ValueError(
            f"odd number of barred letters ({bars}), not even-signed: {list(s)}"
        )
    return s


def apply_generator(s: SignedPerm, a: int, j: int) -> SignedPerm:
    """Right-multiply by the generator (a, j); (-j, j) is the composite."""
    if type(a) is not int or type(j) is not int or not 1 <= j <= len(s):
        raise ValueError(f"not a generator for rank {len(s)}: ({a!r}, {j!r})")
    if a == -j:
        if j < 2:
            raise ValueError(f"no composite generator (-{j}, {j}) at rank {len(s)}")
        w = list(s)
        w[0] = -w[0]
        w[j - 1] = -w[j - 1]
        return tuple(w)
    if a == j:
        return tuple(s)
    if abs(a) >= j:
        raise ValueError(f"not a generator for rank {len(s)}: ({a}, {j})")
    return perm_b.apply_transposition(s, a, j)


def inv_d(s: SignedPerm) -> int:
    """Type-D inversion number: pairs i < j with s(i) > s(j) plus pairs
    i < j with -s(i) > s(j).

    >>> inv_d((2, -4, 5, 1, -3))
    11
    """
    return perm_b._pair_inversions(s)


def factor_weight_d(a: int, j: int) -> int:
    """Type-D weight of one factor: j - a, minus 2 when a is barred."""
    return j - a - (2 if a < 0 else 0)


def sor_d(s: SignedPerm) -> int:
    """Type-D sorting index: the total factor_weight_d over the signed sorting
    factorization of s (perm_b.selection_sort_factorization), read off the
    B-code b as the sum of j - b_j less twice the number of barred b_j.

    >>> sor_d((-2, -4, 5, -1, -3))
    11
    """
    b, bars = perm_b._sorting_code(s, False)
    n = len(b)
    return n * (n + 1) // 2 - sum(b) - 2 * bars


def cosort_factorization(s: SignedPerm) -> tuple[tuple[int, int], ...]:
    """The unique factorization over the even generator family with strictly
    increasing j >= 2.

    Co-sorting moves each letter j home by one generator: the reflection
    (i, j) when +-j sits away from place j, the composite (-j, j) when place j
    holds -j.  The factors are the F-code entries with a != j; they multiply
    right to left to give s back.

    Raises ValueError on anything but an even-signed permutation.
    """
    code = perm_b._sorting_code(validate_even_signed(s), True)[0]
    return tuple((a, j) for j, a in enumerate(code, 1) if a != j)


def sor_d_prime(s: SignedPerm) -> int:
    """Co-sorting index: total factor weight of cosort_factorization, summed
    over the F-code (an entry with a = j weighs 0).  s must be even-signed;
    it is not checked.

    >>> sor_d_prime((-2, -4, 5, -1, -3))
    11
    """
    code = perm_b._sorting_code(s, True)[0]
    return sum(factor_weight_d(a, j) for j, a in enumerate(code, 1))


def nmin_d(s: SignedPerm) -> int:
    """Positive letters beating some later letter in absolute value, plus
    the bars on letters other than 1.

    >>> nmin_d((2, -4, 5, 1, -3))
    4
    """
    return perm_b.nmin_b(s) - (-1 in s)


def reflection_length_d(s: SignedPerm) -> int:
    """Minimal generator word length: n minus the fixed entries of the F-code.
    s must be even-signed; it is not checked.

    >>> reflection_length_d((-2, -4, 5, -1, -3))
    4
    """
    f = perm_b._sorting_code(s, True)[0]
    return len(s) - sum(1 for r, fr in enumerate(f, 1) if fr == r)


def validate_code_d(code: Iterable[int]) -> SignedCode:
    """Check c_1 = 1 and c_i in [-i, i] minus 0 for i >= 2."""
    c = tuple(code)
    if c and c[0] != 1:
        raise ValueError(f"code entry c_1={c[0]} must be 1")
    return perm_b.validate_code_b(c)


def ecode_encode(s: SignedPerm) -> SignedCode:
    """Deletion code: peel letters n down to 2 out of the one-line word.

    If letter i stands (positively) at place p, record p and delete it; if
    -i stands at place p, record -p, delete it, and flip the sign of the
    first remaining letter.

    >>> ecode_encode((2, -4, 5, 1, -3))
    (1, 1, -3, -2, 3)

    Raises ValueError on anything but an even-signed permutation.
    """
    return _ecode_encode(validate_even_signed(s))


def _ecode_encode(s: SignedPerm) -> SignedCode:
    """ecode_encode of an element already known to be even-signed."""
    w = list(s)
    out = [0] * len(s)
    if out:
        out[0] = 1
    for i in range(len(s), 1, -1):
        if i in w:
            p = w.index(i) + 1
            out[i - 1] = p
            del w[p - 1]
        else:
            p = w.index(-i) + 1
            out[i - 1] = -p
            del w[p - 1]
            w[0] = -w[0]
    return tuple(out)


def ecode_decode(code: Sequence[int]) -> SignedPerm:
    """Inverse of ecode_encode; every valid code decodes to a member.

    >>> ecode_decode((1, 1, -3, -2, 3))
    (2, -4, 5, 1, -3)
    """
    return perm_b._acode_b_decode(validate_code_d(code), True)


def fcode_encode(s: SignedPerm) -> SignedCode:
    """Generator code: peel letters n down to 2 in place with one generator
    each, keeping the word length.

    If letter i stands at place p, record p and swap it home; if place i
    holds -i, record -i and apply the composite (-i, i); if -i stands at
    place p < i, record -p and apply the reflection (-p, i).

    >>> fcode_encode((-2, -4, 5, -1, -3))
    (1, 1, -3, -2, 3)

    Raises ValueError on anything but an even-signed permutation.
    """
    return perm_b._sorting_code(validate_even_signed(s), True)[0]


def fcode_decode(code: Sequence[int]) -> SignedPerm:
    """Inverse of fcode_encode: the left-to-right generator product
    (c_1, 1)(c_2, 2)...(c_n, n).

    >>> fcode_decode((1, 1, -3, -2, 3))
    (-2, -4, 5, -1, -3)
    """
    return perm_b._code_product(validate_code_d(code), True)


def rho(s: SignedPerm) -> SignedPerm:
    """Transport bijection: decode the deletion code as a generator code;
    raises ValueError on a non-member.

    Carries (inv_d, nmin_d) of s to (sor_d, reflection_length_d) of the image.

    >>> rho((2, -4, 5, 1, -3))
    (-2, -4, 5, -1, -3)
    """
    return _rho(validate_even_signed(s))


def _rho(s: SignedPerm) -> SignedPerm:
    """rho of an element already known to be even-signed."""
    return perm_b._code_product(_ecode_encode(s), True)


def rho_inverse(s: SignedPerm) -> SignedPerm:
    """Inverse of rho; raises ValueError on a non-member."""
    return _rho_inverse(validate_even_signed(s))


def _rho_inverse(s: SignedPerm) -> SignedPerm:
    """rho_inverse of an element already known to be even-signed."""
    return perm_b._acode_b_decode(perm_b._sorting_code(s, True)[0], True)
