"""Permutations of {1..n} in one-line notation: codes and the sorting index.

A permutation is a plain tuple of 1-based images, so ``p[i - 1]`` is the image
of ``i``.  Words (codes, or the one-line notation itself) are also tuples.
Composition is right-to-left throughout: ``compose(p, s)`` maps ``i`` to
``p(s(i))``, and a product of transpositions ``(a, b) (c, d)`` applies
``(c, d)`` first.

This module is the unsigned view of the signed kernels in ``perm_b``: a
permutation is a signed permutation without bars, and on such words every
signed statistic, code and bijection restricts to its type-A form (inv_B
minus the bars is inv, sor_B is sor, cyc_B is cyc, psi is phi, and so on).
So most public names here are the ``perm_b`` kernels themselves.  Only what
differs in A has a body here: membership (no bars), the code range 1..i, the
decoders that check that range, max_set, and the cycle tuples.  ``nmin`` is
defined on permutations; on a word with repeated letters it counts the
letters larger than some later letter.

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

identity = perm_b.identity
compose = perm_b.compose
inverse = perm_b.inverse
# on unsigned words -s(i) > s(j) never holds, so only the plain pairs count
inv = perm_b._pair_inversions
# every cycle of an unsigned word is balanced
cyc = perm_b.cyc_b
cyc_set = perm_b.cyc_b_set
rmil_set = perm_b.rmil_b_set
lmap_set = perm_b.lmap_b_set
rl_min = perm_b.rl_min_b
lr_max = perm_b.lr_max_b
nmin = perm_b.nmin_b
lehmer_encode = perm_b.lehmer_b_encode
acode_encode = perm_b.acode_b_encode
bcode_encode = perm_b.bcode_b_encode
sort_factorization = perm_b.selection_sort_factorization
sor = perm_b.sor_b
phi = perm_b.psi
phi_inverse = perm_b.psi_inverse


def is_permutation(images: Sequence[int]) -> bool:
    """True if ``images`` is a bijection of {1..n} in one-line notation.

    >>> is_permutation((2, 4, 1, 5, 3))
    True
    >>> is_permutation((1, 1, 3))
    False
    """
    return perm_b.is_signed_permutation(images) and min(images, default=1) > 0


def validate_permutation(images: Iterable[int]) -> Perm:
    p = tuple(images)
    if not is_permutation(p):
        raise ValueError(f"not a permutation of 1..{len(p)}: {list(p)}")
    return p


def cycles(s: Perm) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles of s, fixed points included.

    Each cycle is rotated minimum-first and cycles are sorted by minimum;
    reading a cycle (a b c) means s(a) = b, s(b) = c, s(c) = a.

    >>> cycles((2, 4, 5, 1, 3))
    ((1, 2, 4), (3, 5))
    """
    return tuple(c.values for c in perm_b.signed_cycle_decomposition(s))


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


def lehmer_decode(code: Sequence[int]) -> Perm:
    """Inverse of lehmer_encode; raises ValueError on an out-of-range entry."""
    return perm_b._lehmer_b_decode(validate_code(code))


def acode_decode(code: Sequence[int]) -> Perm:
    """Inverse of acode_encode; raises ValueError on an out-of-range entry."""
    return perm_b._acode_b_decode(validate_code(code))


def bcode_decode(code: Sequence[int]) -> Perm:
    """Inverse of bcode_encode: the transposition product
    (c_1, 1)(c_2, 2)...(c_n, n); raises ValueError on an out-of-range entry.

    >>> bcode_decode((1, 1, 3, 2, 3))
    (2, 4, 5, 1, 3)
    """
    return perm_b._bcode_b_decode(validate_code(code))
