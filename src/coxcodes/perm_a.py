"""Permutations of {1..n} in one-line notation: codes and the sorting index.

A permutation is a plain tuple of 1-based images, so ``p[i - 1]`` is the image
of ``i``.  Words (codes, or the one-line notation itself) are also tuples.
Composition is right-to-left throughout: ``compose(p, s)`` maps ``i`` to
``p(s(i))``, and a product of transpositions ``(a, b) (c, d)`` applies
``(c, d)`` first.

Functions assume valid input unless they say otherwise; ``validate_*`` helpers
are meant for boundaries (CLI parsing, decoding untrusted codes).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import perm_b

Perm = tuple[int, ...]
Code = tuple[int, ...]

__all__ = [
    "identity",
    "is_permutation",
    "validate_permutation",
    "compose",
    "inverse",
    "inv",
    "cycles",
    "cyc",
    "cyc_set",
    "rmil_set",
    "lmap_set",
    "rl_min",
    "lr_max",
    "nmin",
    "max_set",
    "validate_code",
    "lehmer_encode",
    "lehmer_decode",
    "acode_encode",
    "acode_decode",
    "bcode_encode",
    "bcode_decode",
    "sort_factorization",
    "sor",
    "phi",
    "phi_inverse",
]


def identity(n: int) -> Perm:
    """The identity permutation of {1..n}."""
    return tuple(range(1, n + 1))


def is_permutation(images: Sequence[int]) -> bool:
    """True if ``images`` is a bijection of {1..n} in one-line notation.

    >>> is_permutation((2, 4, 1, 5, 3))
    True
    >>> is_permutation((1, 1, 3))
    False
    """
    n = len(images)
    seen = [False] * (n + 1)
    for v in images:
        if isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= n or seen[v]:
            return False
        seen[v] = True
    return True


def validate_permutation(images: Iterable[int]) -> Perm:
    p = tuple(images)
    if not is_permutation(p):
        raise ValueError(f"not a permutation of 1..{len(p)}: {list(p)}")
    return p


def compose(p: Perm, s: Perm) -> Perm:
    """Right-to-left product: the result maps i to p(s(i))."""
    if len(p) != len(s):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(s)}")
    return tuple(p[x - 1] for x in s)


def inverse(s: Perm) -> Perm:
    """The inverse permutation.

    >>> inverse((3, 1, 5, 2, 4))
    (2, 4, 1, 5, 3)
    """
    out = [0] * len(s)
    for i, v in enumerate(s, 1):
        out[v - 1] = i
    return tuple(out)


def inv(s: Perm) -> int:
    """Number of inversions: pairs i < j with s(i) > s(j).

    >>> inv((3, 1, 5, 2, 4))
    4
    """
    # the signed pair count; on unsigned words -s(i) > s(j) never holds
    return perm_b._pair_inversions(s)


def cycles(s: Perm) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles of s, fixed points included.

    Each cycle is rotated minimum-first and cycles are sorted by minimum;
    reading a cycle (a b c) means s(a) = b, s(b) = c, s(c) = a.

    >>> cycles((2, 4, 5, 1, 3))
    ((1, 2, 4), (3, 5))
    """
    n = len(s)
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
            x = s[x - 1]
        out.append(tuple(c))
    return tuple(out)


def cyc(s: Perm) -> int:
    """Number of cycles, fixed points included."""
    return len(cycles(s))


def cyc_set(s: Perm) -> frozenset[int]:
    """Set of cycle minima of s."""
    return frozenset(c[0] for c in cycles(s))


def rmil_set(word: Sequence[int]) -> frozenset[int]:
    """Letters of the word that are smaller than every letter to their right.

    Defined on arbitrary words, not just permutations, so it applies to codes.

    >>> sorted(rmil_set((2, 4, 5, 1, 3)))
    [1, 3]
    """
    out = set()
    low = None
    for x in reversed(word):
        if low is None or x < low:
            out.add(x)
            low = x
    return frozenset(out)


def lmap_set(word: Sequence[int]) -> frozenset[int]:
    """Places i whose letter is larger than every letter to their left.

    >>> sorted(lmap_set((2, 4, 5, 1, 3)))
    [1, 2, 3]
    """
    out = set()
    high = None
    for i, x in enumerate(word, 1):
        if high is None or x > high:
            out.add(i)
            high = x
    return frozenset(out)


def rl_min(word: Sequence[int]) -> int:
    """Number of right-to-left minimum letters."""
    return len(rmil_set(word))


def lr_max(word: Sequence[int]) -> int:
    """Number of left-to-right maximum places."""
    return len(lmap_set(word))


def nmin(word: Sequence[int]) -> int:
    """Number of letters that are not right-to-left minima."""
    return len(word) - rl_min(word)


def max_set(code: Sequence[int]) -> frozenset[int]:
    """Places i where the code entry equals i (the fixed entries)."""
    return frozenset(i for i, c in enumerate(code, 1) if c == i)


def validate_code(code: Iterable[int]) -> Code:
    """Check 1 <= c_i <= i for every entry."""
    c = tuple(code)
    for i, ci in enumerate(c, 1):
        if isinstance(ci, bool) or not isinstance(ci, int) or not 1 <= ci <= i:
            raise ValueError(f"code entry c_{i}={ci} outside 1..{i}")
    return c


def lehmer_encode(s: Perm) -> Code:
    """Lehmer code: c_i = #{j <= i : s(j) <= s(i)}.

    >>> lehmer_encode((2, 4, 1, 5, 3))
    (1, 2, 1, 4, 3)
    """
    # the signed Lehmer code of an unsigned word
    return perm_b.lehmer_b_encode(s)


def lehmer_decode(code: Sequence[int]) -> Perm:
    """Inverse of lehmer_encode; raises ValueError on an out-of-range entry."""
    return _lehmer_decode(validate_code(code))


def _lehmer_decode(c: Code) -> Perm:
    """lehmer_decode of a code already known to be valid."""
    pool = list(range(1, len(c) + 1))
    # c_n pins s(n) among all n values, c_{n-1} among the rest, and so on.
    out = [pool.pop(ci - 1) for ci in reversed(c)]
    out.reverse()
    return tuple(out)


def acode_encode(s: Perm) -> Code:
    """A-code: the Lehmer code of the inverse permutation.

    >>> acode_encode((3, 1, 5, 2, 4))
    (1, 2, 1, 4, 3)
    """
    return lehmer_encode(inverse(s))


def acode_decode(code: Sequence[int]) -> Perm:
    return inverse(lehmer_decode(code))


def bcode_encode(s: Perm) -> Code:
    """B-code: c_i is the nearest cycle predecessor of i that is <= i.

    Walk i backwards along its cycle (apply the inverse repeatedly, at least
    once) and stop at the first value <= i.  Entry i equals i exactly when i
    is the minimum of its cycle.

    >>> bcode_encode((2, 4, 5, 1, 3))
    (1, 1, 3, 2, 3)
    """
    t = inverse(s)
    out = []
    for i in range(1, len(s) + 1):
        x = t[i - 1]
        while x > i:
            x = t[x - 1]
        out.append(x)
    return tuple(out)


def bcode_decode(code: Sequence[int]) -> Perm:
    """Inverse of bcode_encode.

    The code entries are read as the transposition product
    (c_1, 1)(c_2, 2)...(c_n, n), applied right to left; entries with c_i = i
    are identity factors.

    >>> bcode_decode((1, 1, 3, 2, 3))
    (2, 4, 5, 1, 3)
    """
    return _bcode_decode(validate_code(code))


def _bcode_decode(c: Code) -> Perm:
    """bcode_decode of a code already known to be valid."""
    w = list(range(1, len(c) + 1))
    # Prior factors only touch places < i, so letter i still sits at place i
    # and right-multiplying by (c_i, i) is a swap of places c_i and i.
    for i, b in enumerate(c, 1):
        if b != i:
            w[i - 1], w[b - 1] = w[b - 1], w[i - 1]
    return tuple(w)


def sort_factorization(s: Perm) -> tuple[tuple[int, int], ...]:
    """The unique transposition factorization with strictly increasing j.

    Selection sort: for j = n down to 2, if letter j is not home yet, swap it
    home and record (i, j) with i the place it came from.  The returned
    factors multiply right to left to give s back.

    >>> sort_factorization((2, 4, 5, 1, 3))
    ((1, 2), (2, 4), (3, 5))
    """
    w = list(s)
    n = len(w)
    pos = [0] * (n + 1)
    for idx, v in enumerate(w, 1):
        pos[v] = idx
    factors = []
    for j in range(n, 1, -1):
        if w[j - 1] == j:
            continue
        i = pos[j]
        factors.append((i, j))
        w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
        pos[w[i - 1]] = i
        pos[w[j - 1]] = j
    factors.reverse()
    return tuple(factors)


def sor(s: Perm) -> int:
    """Sorting index: sum of j - i over the sort_factorization factors.

    >>> sor((2, 4, 5, 1, 3))
    5
    """
    return sum(j - i for i, j in sort_factorization(s))


def phi(s: Perm) -> Perm:
    """Transport bijection: decode the A-code of s as a B-code.

    Carries (inv, rl_min) of s to (sor, cyc) of the image and preserves the
    left-to-right maximum place set.

    >>> phi((3, 1, 5, 2, 4))
    (3, 2, 5, 4, 1)
    """
    return _bcode_decode(acode_encode(s))


def phi_inverse(s: Perm) -> Perm:
    return acode_decode(bcode_encode(s))
