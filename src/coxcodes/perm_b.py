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
"""

from __future__ import annotations

from bisect import bisect, insort
from dataclasses import dataclass
from typing import Iterable, Sequence

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
        if isinstance(v, bool) or not isinstance(v, int):
            return False
        a = abs(v)
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
    if not 1 <= j <= len(s) or a == 0 or abs(a) > j:
        raise ValueError(f"not a transposition for rank {len(s)}: ({a}, {j})")
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

    This is the type-D inversion number; inv_b adds the bars.  One pass that
    keeps the letters seen so far sorted; absolute values are distinct, so
    neither s(j) nor -s(j) ties with an earlier letter.
    """
    seen: list[int] = []
    total = 0
    for j, x in enumerate(s):
        total += j - bisect(seen, x) + bisect(seen, -x)
        insort(seen, x)
    return total


def selection_sort_factorization(
    s: SignedPerm,
) -> tuple[tuple[int, int], ...]:
    """The unique transposition factorization with strictly increasing j.

    For j = n down to 1, if the letter at place j is not j, move j home by one
    transposition and record it.  The factors multiply right to left to give
    s back; no identity markers appear.
    """
    w = list(s)
    n = len(w)
    factors = []
    for j in range(n, 0, -1):
        if w[j - 1] == j:
            continue
        a = 0
        # letters above j are already home, so +-j sits at a place <= j
        for idx in range(j):
            if w[idx] == j:
                a = idx + 1
                break
            if w[idx] == -j:
                a = -(idx + 1)
                break
        factors.append((a, j))
        if a > 0:
            w[a - 1], w[j - 1] = w[j - 1], w[a - 1]
        elif a == -j:
            w[j - 1] = j
        else:
            i = -a
            w[i - 1], w[j - 1] = -w[j - 1], -w[i - 1]
    factors.reverse()
    return tuple(factors)


def factor_weight_b(a: int, j: int) -> int:
    """Type-B weight of one factor: j - a, minus 1 when a is barred."""
    return j - a - (1 if a < 0 else 0)


def sor_b(s: SignedPerm) -> int:
    """Type-B sorting index: total factor weight of the sorting factorization.

    >>> sor_b((5, -4, -3, 1, -2))
    16
    """
    return _sorting_weight(s, 1)


def _sorting_weight(s: SignedPerm, bar_weight: int) -> int:
    """Total weight of selection_sort_factorization(s) when a factor (a, j)
    weighs j - a, minus bar_weight when a is barred (1 in type B, 2 in D).

    Runs the same selection sort in one pass, finding +-j through an array of
    places instead of a scan, and sums the weights without building factors.
    """
    w = list(s)
    n = len(w)
    place = [0] * (n + 1)
    for p, v in enumerate(w, 1):
        place[v if v > 0 else -v] = p
    total = 0
    for j in range(n, 0, -1):
        x = w[j - 1]
        if x == j:
            continue
        i = place[j]
        # place j is never read again, so only the letter leaving it moves
        if i == j:  # -j at home: the sign change (-j, j)
            total += 2 * j - bar_weight
        elif w[i - 1] == j:  # factor (i, j)
            total += j - i
            w[i - 1] = x
            place[x if x > 0 else -x] = i
        else:  # -j at place i: factor (-i, j), flipping both letters
            total += j + i - bar_weight
            w[i - 1] = -x
            place[x if x > 0 else -x] = i
    return total


@dataclass(frozen=True)
class SignedCycle:
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


def cyc_b_set(s: SignedPerm) -> frozenset[int]:
    """Minima of the balanced cycles."""
    return frozenset(_balanced_minima(s))


def reflection_length_b(s: SignedPerm) -> int:
    """Reflection length: n minus the number of balanced cycles."""
    return len(s) - cyc_b(s)


def lmap_b_set(word: Sequence[int]) -> frozenset[int]:
    """Places i whose letter exceeds the absolute value of every earlier letter.

    The letter must be positive; with nothing to the left that means > 0.
    Defined on arbitrary nonzero-integer words so it applies to codes.
    """
    out = set()
    high = 0
    for i, x in enumerate(word, 1):
        if x > high:
            out.add(i)
        if abs(x) > high:
            high = abs(x)
    return frozenset(out)


def rmil_b_set(word: Sequence[int]) -> frozenset[int]:
    """Positive letters smaller in absolute value than every later letter."""
    out = set()
    low = None
    for x in reversed(word):
        if x > 0 and (low is None or x < low):
            out.add(x)
        if low is None or abs(x) < low:
            low = abs(x)
    return frozenset(out)


def rl_min_b(word: Sequence[int]) -> int:
    return len(rmil_b_set(word))


def lr_max_b(word: Sequence[int]) -> int:
    return len(lmap_b_set(word))


def nmin_b(s: SignedPerm) -> int:
    """Letters beating some later letter in absolute value, plus the bar count.

    >>> nmin_b((2, -4, 5, 1, -3))
    4
    """
    count = 0
    low = None
    for x in reversed(s):
        if low is not None and x > low:
            count += 1
        if low is None or abs(x) < low:
            low = abs(x)
    return count + neg_count(s)


def nmax_b(s: SignedPerm) -> int:
    """Positive letters beaten by some earlier absolute value, plus the bars."""
    count = 0
    high = 0
    for x in s:
        if 0 < x < high:
            count += 1
        if abs(x) > high:
            high = abs(x)
    return count + neg_count(s)


def validate_code_b(code: Iterable[int]) -> SignedCode:
    """Check c_i in [-i, i] and c_i != 0 for every entry."""
    c = tuple(code)
    for i, ci in enumerate(c, 1):
        if isinstance(ci, bool) or not isinstance(ci, int) or ci == 0 or abs(ci) > i:
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


def _acode_b_decode(c: SignedCode) -> SignedPerm:
    """acode_b_decode of a code already known to be valid."""
    w: list[int] = []
    for i, ci in enumerate(c, 1):
        w.insert(abs(ci) - 1, i if ci > 0 else -i)
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
    return _bcode_b_decode(validate_code_b(code))


def _bcode_b_decode(c: SignedCode) -> SignedPerm:
    """bcode_b_decode of a code already known to be valid."""
    w = list(range(1, len(c) + 1))
    for i, b in enumerate(c, 1):
        if b == i:
            continue
        if b > 0:
            w[b - 1], w[i - 1] = w[i - 1], w[b - 1]
        elif b == -i:
            w[i - 1] = -w[i - 1]
        else:
            a = -b
            w[a - 1], w[i - 1] = -w[i - 1], -w[a - 1]
    return tuple(w)


def psi(s: SignedPerm) -> SignedPerm:
    """Transport bijection: decode the A-code of s as a B-code.

    Carries (inv_b, lmap_b_set, rmil_b_set) of s to
    (sor_b, lmap_b_set, cyc_b_set) of the image.

    >>> psi((2, -4, 5, 1, -3))
    (2, -4, 5, -1, -3)
    """
    return _bcode_b_decode(acode_b_encode(s))


def psi_inverse(s: SignedPerm) -> SignedPerm:
    return _acode_b_decode(bcode_b_encode(s))
