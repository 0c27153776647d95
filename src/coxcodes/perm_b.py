"""Signed permutations: codes, the type-B sorting index, and reflection data.

A signed permutation of rank n is a tuple of images of 1..n whose absolute
values form a permutation; a negative image means the letter carries a bar.
As a function it extends to {-n..-1, 1..n} by s(-i) = -s(i).

Transpositions come in two shapes, written here as a pair (a, j) with j > 0:

* a > 0, a < j:   the reflection swapping a <-> j and -a <-> -j,
* a < 0, |a| <= j: the reflection swapping a <-> j and -a <-> -j, i.e. the
  barred form; (-j, j) is the sign change of j alone.

Right-multiplying by (a, j) with a > 0 swaps the letters at places a and j;
with a < 0 it swaps the letters at places |a| and j and flips both signs
(for a = -j it just flips the sign of the letter at place j).  Pairs with
a = j are accepted as identity markers but never produced.

The B-code is the code of the sorting factorization: entry j is the a of the
factor (a, j) that moves j home, or j.  One walk (_sorting_code) gives the B-
and F-codes, and its inverse (_code_product) decodes them.  The sorting
indices are read off the B-code (Petersen): sor_B is the sum of j - b_j less
the number of barred b_j.  bcode_b_encode stays the independent cycle walk
that tests compare against.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

SignedPerm = tuple[int, ...]
SignedCode = tuple[int, ...]

__all__ = [
    "identity",
    "is_signed_permutation",
    "validate_signed",
    "compose",
    "inverse",
    "apply_transposition",
    "neg_count",
    "inv_b",
    "selection_sort_factorization",
    "factor_weight_b",
    "sor_b",
    "SignedCycle",
    "signed_cycle_decomposition",
    "cyc_b",
    "cyc_b_set",
    "reflection_length_b",
    "lmap_b_set",
    "rmil_b_set",
    "rl_min_b",
    "lr_max_b",
    "nmin_b",
    "nmax_b",
    "validate_code_b",
    "lehmer_b_encode",
    "lehmer_b_decode",
    "acode_b_encode",
    "acode_b_decode",
    "bcode_b_encode",
    "bcode_b_decode",
    "psi",
    "psi_inverse",
]


def identity(n: int) -> SignedPerm:
    return tuple(range(1, n + 1))


def is_signed_permutation(images: Sequence[int]) -> bool:
    """True if the absolute values form a permutation and no entry is 0."""
    n = len(images)
    seen = [False] * (n + 1)
    for v in images:
        # a plain int passes the cheap type test first; bool is no letter,
        # an int subclass is one
        if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)):
            return False
        a = v if v >= 0 else -v
        if not 1 <= a <= n or seen[a]:
            return False
        seen[a] = True
    return True


def validate_signed(images: Iterable[int]) -> SignedPerm:
    s = tuple(images)
    if not is_signed_permutation(s):
        raise ValueError(
            f"not a signed permutation of 1..{len(s)}: {list(s)}"
        )
    return s


def compose(p: SignedPerm, s: SignedPerm) -> SignedPerm:
    """Right-to-left product: the result maps i to p(s(i))."""
    if len(p) != len(s):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(s)}")
    return tuple(p[x - 1] if x > 0 else -p[-x - 1] for x in s)


def inverse(s: SignedPerm) -> SignedPerm:
    """The inverse signed permutation.

    >>> inverse((2, -4, 5, 1, -3))
    (4, 1, -5, -2, 3)
    """
    out = [0] * len(s)
    for i, v in enumerate(s, 1):
        out[abs(v) - 1] = i if v > 0 else -i
    return tuple(out)


def apply_transposition(s: SignedPerm, a: int, j: int) -> SignedPerm:
    """Right-multiply s by the transposition (a, j); see the module docstring.

    >>> apply_transposition((1, 2), -1, 2)
    (-2, -1)
    """
    # bool and float are no letters, though they compare equal to one
    if type(a) is not int or type(j) is not int or not 0 < abs(a) <= j <= len(s):
        raise ValueError(f"not a transposition for rank {len(s)}: ({a!r}, {j!r})")
    if a == j:
        return tuple(s)
    w = list(s)
    if a > 0:
        w[a - 1], w[j - 1] = w[j - 1], w[a - 1]
    elif a == -j:
        w[j - 1] = -w[j - 1]
    else:
        i = -a
        w[i - 1], w[j - 1] = -w[j - 1], -w[i - 1]
    return tuple(w)


def neg_count(s: SignedPerm) -> int:
    """Number of barred letters."""
    return sum(1 for v in s if v < 0)


def inv_b(s: SignedPerm) -> int:
    """Type-B inversion number.

    Counts pairs i < j with s(i) > s(j) plus pairs i <= j with -s(i) > s(j).

    >>> inv_b((2, -4, 5, 1, -3))
    13
    """
    return _pair_inversions(s) + neg_count(s)  # i == j counts the bars


def _pair_inversions(s: SignedPerm) -> int:
    """Pairs i < j with s(i) > s(j), plus pairs i < j with -s(i) > s(j).

    This is the type-D inversion number; inv_b adds the bars.  One pass over
    a bitmask of the letters seen so far, letter y at bit y + n: the earlier
    letters above x are the set bits from x + n up, and those below -x the
    set bits under n - x; absolute values are distinct, so neither x nor -x
    is among them.
    """
    n = len(s)
    seen = 0
    total = 0
    for x in s:
        above = seen >> (x + n)
        below = seen & ((1 << (n - x)) - 1)
        total += above.bit_count() + below.bit_count()
        seen |= 1 << (x + n)
    return total


def selection_sort_factorization(
    s: SignedPerm,
) -> tuple[tuple[int, int], ...]:
    """The unique transposition factorization with strictly increasing j.

    Selection sort from the right moves each letter j home by one
    transposition (a, j); the factors are the entries of the sorting code
    with a != j.  They multiply right to left to give s back; no identity
    markers appear.
    """
    code = _sorting_code(s, False)[0]
    return tuple((a, j) for j, a in enumerate(code, 1) if a != j)


def _sorting_code(s: SignedPerm, even: bool) -> tuple[SignedCode, int]:
    """For j = n down to 1, the a of the generator (a, j) that moves letter j
    home, or j when j is already home; and the number of barred a.

    (-j, j) is the sign change of j, or with even set the composite that also
    flips place 1 (the type-D generator).  Without even this is the B-code,
    with it the F-code; the entries with a != j are the sorting and the
    co-sorting factorizations.

    >>> _sorting_code((3, -1, -6, -5, 4, 2), False)
    ((1, -1, 1, -4, -4, -3), 4)
    """
    w = list(s)
    n = len(w)
    place = [0] * (n + 1)
    for p, v in enumerate(w, 1):
        place[v if v > 0 else -v] = p
    bars = 0
    for j in range(n, 0, -1):
        x = w[j - 1]
        if x == j:
            continue
        i = place[j]
        # letters above j are home and place j is never read again, so it
        # takes code entry j and only the letter leaving it moves
        if i == j:  # -j at home
            if even:  # before the entry is written: place 1 may be place j
                w[0] = -w[0]
            w[j - 1] = -j
            bars += 1
        elif w[i - 1] == j:
            w[j - 1] = i
            w[i - 1] = x
            place[x if x > 0 else -x] = i
        else:
            w[j - 1] = -i
            bars += 1
            w[i - 1] = -x
            place[x if x > 0 else -x] = i
    return tuple(w), bars


def _code_product(c: SignedCode, even: bool) -> SignedPerm:
    """The product (c_1, 1)(c_2, 2)...(c_n, n), the inverse of _sorting_code
    with the same even flag; c must be a valid code."""
    w = list(range(1, len(c) + 1))
    for j, a in enumerate(c, 1):
        if a == j:
            continue
        if a > 0:
            w[a - 1], w[j - 1] = w[j - 1], w[a - 1]
        elif a == -j:
            w[j - 1] = -w[j - 1]
            if even:
                w[0] = -w[0]
        else:
            w[-a - 1], w[j - 1] = -w[j - 1], -w[-a - 1]
    return tuple(w)


def factor_weight_b(a: int, j: int) -> int:
    """Type-B weight of one factor: j - a, minus 1 when a is barred."""
    return j - a - (1 if a < 0 else 0)


def sor_b(s: SignedPerm) -> int:
    """Type-B sorting index: total factor weight of the sorting factorization,
    read off the B-code b as the sum of j - b_j less the number of barred b_j.

    >>> sor_b((5, -4, -3, 1, -2))
    16
    """
    b, bars = _sorting_code(s, False)
    n = len(b)
    return n * (n + 1) // 2 - sum(b) - bars


class SignedCycle(NamedTuple):
    """One cycle of |s| together with the set of its barred values."""

    values: tuple[int, ...]  # cycle of the underlying permutation, min first
    barred: frozenset[int]

    @property
    def balanced(self) -> bool:
        return len(self.barred) % 2 == 0


def signed_cycle_decomposition(s: SignedPerm) -> tuple[SignedCycle, ...]:
    """Cycles of the underlying permutation |s|, each with its barred values.

    A value v is barred when -v occurs in the one-line notation.  Cycles are
    minimum-first and sorted by minimum, fixed points included.
    """
    n = len(s)
    barred_values = {-v for v in s if v < 0}
    seen = [False] * (n + 1)
    out = []
    for i in range(1, n + 1):
        if seen[i]:
            continue
        c = []
        x = i
        while not seen[x]:
            seen[x] = True
            c.append(x)
            x = abs(s[x - 1])
        out.append(
            SignedCycle(tuple(c), frozenset(v for v in c if v in barred_values))
        )
    return tuple(out)


def _balanced_minima(s: SignedPerm) -> list[int]:
    """Minima of the balanced cycles of s, in increasing order.

    The same walk as signed_cycle_decomposition, counting bars on the way: the
    barred values of a cycle are the |s(x)| with s(x) < 0 for x in it.
    """
    n = len(s)
    seen = [False] * (n + 1)
    out = []
    for i in range(1, n + 1):
        if seen[i]:
            continue
        bars = 0
        x = i
        while not seen[x]:
            seen[x] = True
            x = s[x - 1]
            if x < 0:
                bars += 1
                x = -x
        if not bars % 2:
            out.append(i)
    return out


def cyc_b(s: SignedPerm) -> int:
    """Number of balanced cycles (even number of barred values)."""
    return len(_balanced_minima(s))


def cyc_b_set(s: SignedPerm) -> tuple[int, ...]:
    """Minima of the balanced cycles, in increasing order."""
    return tuple(_balanced_minima(s))


def reflection_length_b(s: SignedPerm) -> int:
    """Reflection length: n minus the number of balanced cycles."""
    return len(s) - cyc_b(s)


def lmap_b_set(word: Sequence[int]) -> tuple[int, ...]:
    """Places i whose letter exceeds the absolute value of every earlier letter,
    in increasing order.

    The letter must be positive; with nothing to the left that means > 0.
    Defined on arbitrary nonzero-integer words so it applies to codes.
    """
    out = []
    high = 0
    for i, x in enumerate(word, 1):
        if x > high:
            out.append(i)
        if abs(x) > high:
            high = abs(x)
    return tuple(out)


def rmil_b_set(word: Sequence[int]) -> tuple[int, ...]:
    """Positive letters smaller in absolute value than every later letter, in
    increasing order."""
    out = []  # read right to left, each letter found is below the last
    low = None
    for x in reversed(word):
        if x > 0 and (low is None or x < low):
            out.append(x)
        if low is None or abs(x) < low:
            low = abs(x)
    out.reverse()
    return tuple(out)


def rl_min_b(word: Sequence[int]) -> int:
    return len(rmil_b_set(word))


def lr_max_b(word: Sequence[int]) -> int:
    return len(lmap_b_set(word))


def nmin_b(s: SignedPerm) -> int:
    """n minus rl-min: the positive letters beating some later letter in
    absolute value, plus the bars.

    >>> nmin_b((2, -4, 5, 1, -3))
    4
    """
    return len(s) - rl_min_b(s)


def nmax_b(s: SignedPerm) -> int:
    """n minus lr-max: the positive letters beaten by some earlier absolute
    value, plus the bars."""
    return len(s) - lr_max_b(s)


def validate_code_b(code: Iterable[int]) -> SignedCode:
    """Check c_i in [-i, i] and c_i != 0 for every entry."""
    c = tuple(code)
    for i, ci in enumerate(c, 1):
        if (
            type(ci) is not int
            and (isinstance(ci, bool) or not isinstance(ci, int))
        ) or not -i <= ci <= i or not ci:
            raise ValueError(
                f"code entry c_{i}={ci} outside [-{i}, {i}] minus 0"
            )
    return c


def lehmer_b_encode(s: SignedPerm) -> SignedCode:
    """Signed Lehmer code: |c_i| = #{j <= i : |s(j)| <= |s(i)|}, sign of s(i).

    >>> lehmer_b_encode((5, -7, 1, -4, 9, -2, -6, 3, 8))
    (1, -2, 1, -2, 5, -2, -5, 3, 8)
    """
    # one pass over a bitmask of the absolute values seen so far: |c_i| is
    # the number of set bits at or below |s(i)|, its own bit included
    seen = 0
    out = []
    for x in s:
        a = x if x > 0 else -x
        seen |= 1 << a
        c = (seen & ((2 << a) - 1)).bit_count()
        out.append(c if x > 0 else -c)
    return tuple(out)


def lehmer_b_decode(code: Sequence[int]) -> SignedPerm:
    return _lehmer_b_decode(validate_code_b(code))


def _lehmer_b_decode(c: SignedCode) -> SignedPerm:
    """lehmer_b_decode of a code already known to be valid."""
    pool = list(range(1, len(c) + 1))
    out = [pool.pop(ci - 1) if ci > 0 else -pool.pop(-ci - 1) for ci in reversed(c)]
    out.reverse()
    return tuple(out)


def acode_b_encode(s: SignedPerm) -> SignedCode:
    """A-code: the signed Lehmer code of the inverse.

    >>> acode_b_encode((2, -4, 5, 1, -3))
    (1, 1, -3, -2, 3)
    """
    return lehmer_b_encode(inverse(s))


def acode_b_decode(code: Sequence[int]) -> SignedPerm:
    """Decode by insertion: entry c_i places letter i, signed like c_i.

    Insert i (barred when c_i < 0) so that it lands at place |c_i| of the
    growing word.

    >>> acode_b_decode((1, 1, -3, -2, 3))
    (2, -4, 5, 1, -3)
    """
    return _acode_b_decode(validate_code_b(code))


def _acode_b_decode(c: SignedCode, even: bool = False) -> SignedPerm:
    """acode_b_decode of a code already known to be valid; with even set the
    first letter flips before each barred insertion (the type-D E-code)."""
    w: list[int] = []
    for i, ci in enumerate(c, 1):
        if ci > 0:
            w.insert(ci - 1, i)
        else:
            if even:
                w[0] = -w[0]
            w.insert(-ci - 1, -i)
    return tuple(w)


def bcode_b_encode(s: SignedPerm) -> SignedCode:
    """B-code: walk i backwards along its cycle to the first value with
    absolute value <= i (applying the inverse at least once).

    >>> bcode_b_encode((3, -1, -6, -5, 4, 2))
    (1, -1, 1, -4, -4, -3)
    """
    t = inverse(s)
    out = []
    for i in range(1, len(s) + 1):
        x = t[i - 1]
        while abs(x) > i:
            x = t[x - 1] if x > 0 else -t[-x - 1]
        out.append(x)
    return tuple(out)


def bcode_b_decode(code: Sequence[int]) -> SignedPerm:
    """Inverse of bcode_b_encode: the product (c_1, 1)(c_2, 2)...(c_n, n).

    >>> bcode_b_decode((1, -1, 1, -4, -4, -3))
    (3, -1, -6, -5, 4, 2)
    """
    return _code_product(validate_code_b(code), False)


def psi(s: SignedPerm) -> SignedPerm:
    """Transport bijection: decode the A-code of s as a B-code; raises
    ValueError on a non-member.

    Carries (inv_b, lmap_b_set, rmil_b_set) of s to
    (sor_b, lmap_b_set, cyc_b_set) of the image.

    >>> psi((2, -4, 5, 1, -3))
    (2, -4, 5, -1, -3)
    """
    return _psi(validate_signed(s))


def _psi(s: SignedPerm) -> SignedPerm:
    """psi of an element already known to be a signed permutation."""
    return _code_product(acode_b_encode(s), False)


def psi_inverse(s: SignedPerm) -> SignedPerm:
    """Inverse of psi; raises ValueError on a non-member."""
    return _psi_inverse(validate_signed(s))


def _psi_inverse(s: SignedPerm) -> SignedPerm:
    """psi_inverse of an element already known to be a signed permutation."""
    return _acode_b_decode(bcode_b_encode(s))
