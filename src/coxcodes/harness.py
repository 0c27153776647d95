"""Exhaustive verification harness over the families A (permutations),
B (signed permutations), and D (even-signed permutations).

The signed Lehmer code (on A the Lehmer code) gives every element a rank
in a mixed-radix numeral system: code entry c_i is a digit, c_1 the least
significant.  Rank order is therefore the product order of the entries'
value lists with c_n outermost, which supports deterministic order, range
splitting, and flat arrays indexed by rank.  D is the even half of B: its
c_1 carries no digit, since place 1 takes the sign that makes the bars
even, so D's rank is B's rank halved.  unrank decodes one code;
enumerate_group decodes none per element: it joins head words (places
1..k, fixed by c_1..c_k) to tail words (places k+1..n, fixed by
c_{k+1}..c_n), tabulated once per group (_unrank_tables), each head list
decoded once and shared by every tail that leaves it the same letters
(in D, with the same bar parity).  One walker, _blocks, reads those tables
a tail at a time, for enumeration, for a sweep's columns and for every
scan.
Supported ranks: A up to 9, B up to 8, D from 2 up to 8; anything larger
is refused outright rather than truncated.

Public ``rank`` validates its input (length n, a member of the group) and
reads the code's digits back as unrank writes them.  The BFS behind the
oracle tables ranks by two lookups (``_rank_tables``) read off the unrank
tables, so the tables rank and unrank by one head/tail split, and walks s
by s -> g^-1 s; a depth is the word length of s because every generating
set is closed under inversion.  An oracle reads the distance table at the
rank its scan is at.  A transport check proves bijectivity by membership
and the stored inverse, and only then ranks the image by the same two
lookups, to read its statistics at that rank (_split_at).

Named checks (see CHECKS) re-prove the equidistribution and transport
identities by direct evaluation on every element; their results are report
payloads, never exceptions.  A distribution check (_check_joint, among them
the paper's type-A and type-B triple theorems) sweeps once over the union
of its groups' statistics, of any arity and kind, each counted off the same
tables by its kernel's reader (_read); ``checked`` is the number
of groups times the group order.  A failure gives ``groups`` (the group
and its reference: the first group or the formula), the value tuple
``key``, its ``count`` and ``expected``, and the ``rank`` and ``element``
of the lowest-rank element with the key.

The pointwise checks (transport, oracles, codes, type-d-sor-prime) and that
witness are cases of one runner, _scan, the only loop that judges an
element.  It reads _blocks in rank order: case(r, el, values) judges the
element el of rank r, values being its named statistics as the sweep
counts them, by tests that each give None or a fault; the scan stops at the
first fault and reports it with ``rank`` first, so unrank(family, n, rank)
gives the element back.  ``checked`` counts the tests taken, that one
included.  An oracle reads its table at r, and a codes check takes the
code of rank r (the code whose digits are r, split as _split_codes splits
it) and not el: a pair's member test and round trip on every code prove
the round trip on every element (_check_codes).  The runner is
sequential; workers reaches the sweeps only.
"""

from __future__ import annotations

import itertools
import os
from array import array
from collections import Counter
from functools import lru_cache, partial
from math import prod
from operator import add, itemgetter
from typing import Callable, Iterator, Sequence

from . import perm_a, perm_b, perm_d, qpoly
from .qpoly import QT

__all__ = [
    "FAMILIES",
    "check_group",
    "group_order",
    "identity_of",
    "unrank",
    "rank",
    "enumerate_group",
    "sweep",
    "integer_statistic",
    "set_statistic",
    "integer_statistic_names",
    "set_statistic_names",
    "joint_distribution",
    "VerifyReport",
    "BIJECTIONS",
    "generating_set",
    "GENERATING_SET_NAMES",
    "cayley_distance_table",
    "cayley_distance",
    "CHECKS",
    "run_check",
]

FAMILIES = ("A", "B", "D")

_MIN_N = {"A": 1, "B": 1, "D": 2}
_MAX_N = {"A": 9, "B": 8, "D": 8}

_BFS_LIMIT = 100_000


def _check_family(family) -> None:
    """Refuse an unknown family, one that is no str (even an unhashable one)
    among them."""
    if not isinstance(family, str) or family not in _MIN_N:
        raise ValueError(f"unknown family {family!r}; choose one of A, B, D")


def check_group(family: str, n: int) -> None:
    """Validate a family/rank pair, refusing anything out of range."""
    _check_family(family)
    if isinstance(n, bool) or not isinstance(n, int) or n < _MIN_N[family]:
        raise ValueError(f"family {family} needs n >= {_MIN_N[family]}, got {n}")
    if n > _MAX_N[family]:
        raise ValueError(
            f"family {family} supports n <= {_MAX_N[family]}; refusing n={n}"
        )


def group_order(family: str, n: int) -> int:
    check_group(family, n)
    return prod(map(len, _code_values(family, n)))


def identity_of(family: str, n: int) -> tuple[int, ...]:
    check_group(family, n)
    return tuple(range(1, n + 1))


@lru_cache(maxsize=None)
def _code_values(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    """The values of code entries c_1..c_n, each listed in digit order.

    Digit d of c_i is values[i - 1][d].  In B and D digits 0..i-1 are the
    entries 1..i and digits i..2i-1 the barred entries -1..-i; D fixes c_1 = 1.
    """
    if family == "A":
        return tuple(tuple(range(1, i + 1)) for i in range(1, n + 1))
    values = tuple(
        tuple(range(1, i + 1)) + tuple(range(-1, -i - 1, -1)) for i in range(1, n + 1)
    )
    return ((1,),) + values[1:] if family == "D" else values


def _lehmer_d_decode(c: tuple[int, ...]) -> tuple[int, ...]:
    """The member of D whose signed Lehmer code is c up to the sign of c_1:
    place 1 takes whichever sign makes the number of bars even, so D's rank
    is B's rank halved.

    >>> [unrank("D", 3, r) for r in range(4)]
    [(3, 2, 1), (2, 3, 1), (-3, -2, 1), (-2, -3, 1)]
    """
    s = perm_b._lehmer_b_decode(c)
    return (-s[0],) + s[1:] if perm_b.neg_count(s) % 2 else s


# Membership tests for rank's boundary, the validators the CLI checks its
# elements with, and the unchecked decoders of the ranking code, the signed
# Lehmer code in every family (on A the Lehmer code).  unrank and the unrank
# tables decode codes they build from the entry value lists, so valid by
# construction; rank encodes members only.
_MEMBERS = {
    "A": perm_a.is_permutation,
    "B": perm_b.is_signed_permutation,
    "D": perm_d.is_even_signed,
}
_VALIDATORS = {"A": perm_a.validate_permutation, "B": perm_b.validate_signed,
               "D": perm_d.validate_even_signed}
_DECODERS = {
    "A": perm_b._lehmer_b_decode,
    "B": perm_b._lehmer_b_decode,
    "D": _lehmer_d_decode,
}


def _rank_tables(family: str, n: int) -> tuple[int, dict, dict]:
    """Rank by two table lookups on a member s: (k, head, tail).

    The rank of s is head[s[:k]] + tail[s[k:]], read off _unrank_tables with
    the k of _split_codes.  The element of rank i * size + j is head word j
    of tail i joined to that tail, so tail i's entry is i * size, and a
    head's entry is its index j, the same for every tail that shares its head
    list.
    """
    size, tails = _unrank_tables(family, n)
    k = len(tails[0][1][0])  # a head word has the split's k letters
    head, tail = {}, {}
    for i, (fixed, heads) in enumerate(tails):
        tail[fixed] = i * size
        if heads[0] not in head:  # no head word is in two lists
            head.update(zip(heads, range(size)))
    return k, head, tail


def _split_codes(family: str, n: int) -> list[list[tuple[int, ...]]]:
    """[head codes, tail codes], each in rank order: with k = (n + 1) // 2,
    a head code is c_1..c_k, the least significant entries, and a tail code
    c_{k+1}..c_n, so the code of rank r is head code r % size joined to tail
    code r // size, size being the number of head codes."""
    v, k = _code_values(family, n), (n + 1) // 2
    # product() varies its last factor fastest, so with the entry lists
    # reversed it gives codes c_m..c_1 in rank order
    return [[c[::-1] for c in itertools.product(*p[::-1])] for p in (v[:k], v[k:])]


@lru_cache(maxsize=1)
def _unrank_tables(family: str, n: int) -> tuple[int, list]:
    """Unrank by concatenation: (heads per tail, tails in rank order).

    A code splits into its head and tail codes (_split_codes).  The signed
    Lehmer code fills places from the right, so the tail fixes places
    k+1..n and the head places 1..k: the element of rank r is head word
    r % size joined to tail r // size.  Each tail entry is (fixed, heads):
    fixed is what the tail decodes to, heads the head words of every head
    code in rank order.  The decoder fills places n..k+1 from the tail code,
    then places 1..k from the values V the tail leaves; D then flips place 1
    by the parity of all the bars.  So a head list depends on V and, in D,
    on the tail's bar parity alone, and the head word of h0 = head_codes[0],
    which has no bar, names both: its letters are V, and in D its place-1
    sign is that parity.  Each list is decoded once, from the first tail
    whose first head word names it, and serves every tail it names, so no
    head word is in two lists.  The cache keeps the last group's tables,
    which _blocks reads for enumeration, the sweep and every scan, unchanged.
    """
    decode = _DECODERS[family]
    head_codes, tail_codes = _split_codes(family, n)
    k = len(head_codes[0])
    lists: dict[tuple, list] = {}
    tails = []
    for t in tail_codes:
        first = decode(head_codes[0] + t)
        if first[:k] not in lists:
            lists[first[:k]] = [decode(h + t)[:k] for h in head_codes]
        tails.append((first[k:], lists[first[:k]]))
    return len(head_codes), tails


def unrank(family: str, n: int, r: int) -> tuple[int, ...]:
    """The element of rank r in the fixed enumeration order, decoded from its
    code; the reference for enumerate_group."""
    order = group_order(family, n)
    if isinstance(r, bool) or not isinstance(r, int) or not 0 <= r < order:
        raise ValueError(f"rank {r!r} outside 0..{order - 1}")
    code = []
    for values in _code_values(family, n):
        r, d = divmod(r, len(values))
        code.append(values[d])
    return _DECODERS[family](tuple(code))


def rank(family: str, n: int, element: Sequence[int]) -> int:
    """Position of an element in the fixed enumeration order.

    Raises ValueError unless the element has length n and belongs to the
    group.  unrank read backwards: the signed Lehmer code is a mixed-radix
    numeral from c_n down to c_1, entry c_i giving the digit of its index in
    _code_values; an entry of radix 1 (c_1 in A and D) has digit 0, so the
    sign that parity forces on D's place 1 does not count.
    """
    check_group(family, n)
    element = tuple(element)
    if len(element) != n or not _MEMBERS[family](element):
        raise ValueError(f"not an element of {family}{n}: {list(element)}")
    r = 0
    code = perm_b.lehmer_b_encode(element)
    for values, c in zip(reversed(_code_values(family, n)), reversed(code)):
        if len(values) > 1:
            r = r * len(values) + values.index(c)
    return r


def enumerate_group(
    family: str, n: int, start: int = 0, stop: int | None = None
) -> Iterator[tuple[int, ...]]:
    """A generator of the elements of ranks start..stop-1, once each, in order.

    Disjoint rank ranges give disjoint element streams.  The elements are
    those of _blocks, joined from the head and tail tables of _unrank_tables
    a tail at a time, and a range starts at its tail directly, so its start
    costs O(1).
    """
    order = group_order(family, n)
    if stop is None:
        stop = order
    for bound in (start, stop):
        if isinstance(bound, bool) or not isinstance(bound, int):
            raise ValueError(f"rank bound {bound!r} is not an integer")
    if not 0 <= start <= stop <= order:
        raise ValueError(f"bad range [{start}, {stop}) for order {order}")
    return (el for _, block, _ in _blocks(family, n, (), start, stop) for el in block)


# registry order is the order `coxcodes stats` prints, integer then set
INTEGER_STATISTICS: dict[str, dict[str, Callable]] = {
    "A": {
        "inv": perm_a.inv,
        "sor": perm_a.sor,
        "cyc": perm_a.cyc,
        "rl-min": perm_a.rl_min,
        "lr-max": perm_a.lr_max,
        "nmin": perm_a.nmin,
    },
    "B": {
        "inv_B": perm_b.inv_b,
        "sor_B": perm_b.sor_b,
        "l'_B": perm_b.reflection_length_b,
        "cyc_B": perm_b.cyc_b,
        "nmin_B": perm_b.nmin_b,
        "nmax_B": perm_b.nmax_b,
        "rl-min_B": perm_b.rl_min_b,
        "lr-max_B": perm_b.lr_max_b,
        "N": perm_b.neg_count,
    },
    "D": {
        "inv_D": perm_d.inv_d,
        "sor_D": perm_d.sor_d,
        "sor'_D": perm_d.sor_d_prime,
        "nmin_D": perm_d.nmin_d,
        "lt'_D": perm_d.reflection_length_d,
        "N": perm_b.neg_count,
    },
}

SET_STATISTICS: dict[str, dict[str, Callable]] = {
    "A": {
        "Cyc": perm_a.cyc_set,
        "Lmap": perm_a.lmap_set,
        "Rmil": perm_a.rmil_set,
    },
    "B": {
        "Cyc_B": perm_b.cyc_b_set,
        "Lmap_B": perm_b.lmap_b_set,
        "Rmil_B": perm_b.rmil_b_set,
    },
    "D": {},
}

# spellings accepted on input; canonical names are the registry keys
_STAT_ALIASES = {
    "rl_min": "rl-min",
    "lr_max": "lr-max",
    "rl_min_B": "rl-min_B",
    "lr_max_B": "lr-max_B",
    "lp_B": "l'_B",
    "sorp_D": "sor'_D",
    "ltp_D": "lt'_D",
    "ltilde'_D": "lt'_D",
    "ñ'_D": "lt'_D",
}


def _statistics(family: str, *tables) -> dict[str, Callable]:
    """The family's entries in the given registries; an unknown family is
    refused as check_group refuses it."""
    _check_family(family)
    return {k: f for table in tables for k, f in table[family].items()}


def _resolve(family: str, name: str, *tables) -> tuple[str, Callable]:
    """Resolve name over the family's entries in the given registries; a
    name that is no str is refused as an unknown one is."""
    stats = _statistics(family, *tables)
    canonical = _STAT_ALIASES.get(name, name) if isinstance(name, str) else None
    if canonical not in stats:
        choices = ", ".join(sorted(stats))
        raise ValueError(
            f"unknown statistic {name!r} for family {family}; choose from: {choices}"
        )
    return canonical, stats[canonical]


def integer_statistic(family: str, name: str) -> tuple[str, Callable]:
    """Resolve a counting statistic name to (canonical name, function)."""
    return _resolve(family, name, INTEGER_STATISTICS)


def set_statistic(family: str, name: str) -> tuple[str, Callable]:
    if not _statistics(family, SET_STATISTICS):
        raise ValueError(f"family {family} has no set statistics")
    return _resolve(family, name, SET_STATISTICS)


def integer_statistic_names(family: str) -> list[str]:
    return sorted(_statistics(family, INTEGER_STATISTICS))


def set_statistic_names(family: str) -> list[str]:
    return sorted(_statistics(family, SET_STATISTICS))


def _check_workers(workers) -> None:
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")


def _statistic_name(family: str, name: str) -> str:
    """Canonical name of an integer or set statistic of the family."""
    return _resolve(family, name, INTEGER_STATISTICS, SET_STATISTICS)[0]


def sweep(family: str, n: int, names: Sequence[str], workers: int = 1) -> Counter:
    """Count the tuple of the named statistics' values over the whole group.

    names is a sequence, such as a list or tuple, and orders every key.  The
    group is walked once, a tail at a time, and each named statistic
    (integer or set) is read off its kernel's reader (_read); a set value is
    the increasing tuple its kernel returns.
    With workers > 1 the rank range is split into one chunk per worker
    process, with no more processes than os.cpu_count() reports, and the
    chunks' counts are added; addition is associative and commutative, so
    the result is identical to the sequential run.

    >>> sorted(sweep("A", 2, ["inv", "Cyc"]).items())
    [((0, (1, 2)), 1), ((1, (1,)), 1)]
    """
    # a str splits into letters; a set orders its names by the hash seed
    if isinstance(names, str) or not isinstance(names, Sequence):
        raise ValueError(f"names must be a sequence of names, not {names!r}")
    return _sweep(family, n, [names], workers)[0]


def _sweep(family, n, groups, workers) -> list[Counter]:
    """One sweep over the union of the groups' statistics, counting the value
    tuple of each group of names separately, not the tuple of their union, so
    its memory is that of the groups' tables; sweep is the case of one group.

    Each statistic is counted as a head column plus a tail part over the
    split of _unrank_tables: its kernel's reader, a key of _SPLITS by one of
    the three proofs below or else _element_split, gives the column, and one
    rule gives the part (_read), f(g + t) less the column's first entry, for
    g = heads[0] and t the tail.  That rule is exact when the column is f up
    to a constant per tail: column[j] - column[0] = f(h_j + t) - f(g + t)
    for an integer f, and for a set f column[j] holds the members that h_j
    decides, which precede the tail's, the same for every head.  Each proof
    states that property.

    The place split (_place_split).  Write s = h + t (h on places 1..k) and
    t' for t with every letter barred.  Each such f sums (a set: unites)
    terms over places and pairs of places, where the terms within the head
    read the tail, and the other terms read the head, only by its set of
    absolute values:
    |s(i)| > s(j) for an inversion, s(i) > |s(q)| for q < i for lr-max,
    0 < s(i) < |s(q)| for q > i for rl-min, s(i) < 0 for N, s(i) = -1 in
    nmin_D, 1 per place for the n of nmin and nmax_B.  So the column
    f(h + t') has s's head terms, and its other terms, like s's, are the
    same for every head of the tail; it reads t only by the values it
    leaves, so one column serves every tail of a head list.  A set's f(h +
    t') holds only the members the head decides, no barred letter being a
    member, and they precede the tail's: Lmap's are head places, and a head
    letter in Rmil lies below every later letter's absolute value.  This
    partitions f's definition by places, with no code digit or product
    formula, so a formula check still tests the kernel, which a whole-group
    test proves the split equals.

    The sorting split (_sorting_split: sor, which is sor_B on A, sor_B and
    sor_D) sums a term j - c_j, less a bar cost of 1 (sor_D: 2) when c_j < 0,
    over the steps j = n..1 of the selection-sort walk (perm_b._sorting_code),
    and its steps j > k read the head only through each big letter's place
    and sign, a big letter being one with |x| > k.  A step moves the letter
    at place j to the place p of +-j and never writes places 1..k otherwise,
    so places k+1..n only ever hold tail letters, and a step at a tail place
    has a term that t alone fixes.  When +-j is at a head place p, c_j = +-p
    and the letter leaving place j, which t fixes, takes p with its sign
    flipped when c_j < 0: the steps at p form a chain started by the big
    letter x of h at p.  Its steps j, and its final small letter up to sign,
    depend on |x| and t alone, and negating x negates every sign in it.
    Small head letters stay put, and after step k + 1 places 1..k hold h
    with each big letter replaced by its chain's final letter, a k-word on
    which steps j <= k are f's own walk.  Take g = heads[0], whose letters
    g_p are those of h up to order and sign, and S_p the signed step sum of
    the chain that g_p starts in the walk on g + t.  Then f(s) = P + the
    sum over places q of h of -S_p * q where h holds g_p and
    S_p * (q - cost) where it holds -g_p (S_p = 0 for a small letter) +
    f(k-word), P being the sum of t's terms and, over the chain steps of
    that walk, of j less the cost for a barred c_j, the same for every
    head.  That one walk gives each S_p and the k-word of g, and h's k-word
    is h relabelled g_p -> word_p, -g_p -> -word_p, word being g's.  So the
    column, f on the k-words plus the chain terms, is f less P, and f on
    the k-words is one column per word, shared by the head lists
    (_relabelled_column).

    The word split (_word_split: cyc_B, Cyc_B and l'_B, which are cyc and
    Cyc on A, and lt'_D) reads the fixed entries b_j = j of that walk's code
    b, the B-code.  b_j = j exactly when j is the least letter of a balanced
    cycle (the cycle walk of perm_b.bcode_b_encode), so cyc_B(s) counts the
    fixed entries, Cyc_B(s) lists them, and l'_B(s) = n - cyc_B(s).  A chain
    step has |b_j| <= k < j, so it is never fixed; the other steps j > k
    depend on t alone, and steps j <= k are the walk of h's k-word w, as
    above.  So with c the number of fixed entries j > k,
    cyc_B(s) = cyc_B(w) + c, Cyc_B(s) is Cyc_B(w) followed by those j,
    still increasing, and l'_B(s) = l'_B(w) + (n - k - c).
    lt'_D(s) = n - 1 - #{j >= 2 : b_j = j}: the even walk, whose fixed
    entries lt'_D counts, differs from the plain walk only in the sign of
    the letter at place 1, so it has the same fixed entries j >= 2, and its
    entry 1 is 1 exactly when the bars are even, as on every member of D.
    h + t and g + t are both even, so h's letters differ from g's in an even
    number of signs, every w of a D tail has the bar parity of g's, and
    lt'_D(s) - lt'_D(w) is the same for every head.  The column is f on each
    head's w, h relabelled g_p -> word_p as above, word being g's
    (_sorting_tail, _relabelled_column), with no chain terms.  This reads
    the element's walk and evaluates each kernel on k-words, never a code
    digit, so the BFS oracles stay independent references for l'_B and
    lt'_D.
    sor'_D (whose composite generator flips place 1, a head place) has no
    split reader.
    """
    order = group_order(family, n)
    _check_workers(workers)
    groups = [tuple(_statistic_name(family, name) for name in g) for g in groups]
    if not all(groups):
        raise ValueError("a sweep needs at least one statistic")
    names = tuple(dict.fromkeys(name for g in groups for name in g))
    places = tuple(tuple(names.index(name) for name in g) for g in groups)
    # more processes than CPUs only add start-up and merge cost
    workers = min(workers, os.cpu_count() or 1)
    if workers == 1 or order < 4 * workers:
        return _sweep_range(family, n, names, places, 0, order)
    # imported here, not at the top, so that a CLI start does not pay for it
    from concurrent.futures import ProcessPoolExecutor

    bounds = [order * k // workers for k in range(workers + 1)]
    chunks = [
        (family, n, names, places, bounds[k], bounds[k + 1]) for k in range(workers)
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(_sweep_range, *zip(*chunks))
        totals = next(parts)
        for part in parts:
            for total, counts in zip(totals, part):
                total.update(counts)
    return totals


def _sweep_range(family, n, names, places, start, stop) -> list[Counter]:
    """The sweep over ranks start..stop-1; names are canonical, and they, not
    the statistic functions, are what crosses into a worker process."""
    counts = [Counter() for _ in places]
    for _, _, columns in _blocks(family, n, names, start, stop):
        for count, place in zip(counts, places):
            count.update(zip(*(columns[i] for i in place)))
    return counts


def _blocks(family, n, names, start, stop) -> Iterator[tuple[int, Iterator, list]]:
    """The one walk over the unrank tables: for each tail that the ranks
    start..stop-1 meet, in rank order, (r, block, columns), where r is the
    rank of the tail's first element in the range, block a lazy map joining
    its heads there, heads[lo:hi], to fixed, which a sweep never reads, and
    columns each named statistic's values on them, its reader's head column
    plus tail part (_tail_reader), as the sweep counts them.  A block holds
    at most the head-code count of elements."""
    size, tails = _unrank_tables(family, n)
    read = _tail_reader(family, n, names)
    for i in range(start // size, -(-stop // size)):
        fixed, heads = tails[i]
        lo, hi = max(start - i * size, 0), min(stop - i * size, size)
        columns = [list(map(add, c[lo:hi], itertools.repeat(p))) for c, p in read(i)]
        yield i * size + lo, map(add, heads[lo:hi], itertools.repeat(fixed)), columns


def _tail_reader(family, n, names) -> Callable[[int], list]:
    """The function of a tail index i giving each named statistic's
    (column, part) on tail i (_read), the one place where a kernel's reader
    is chosen, as _SPLITS.get(f, _element_split).  Its readers share one
    cache across tails, so the sorting and word readers share the tail's
    walk (_sorting_tail) and the per-list and per-word columns."""
    tails = _unrank_tables(family, n)[1]
    stats = _statistics(family, INTEGER_STATISTICS, SET_STATISTICS)
    readers = [(f, _SPLITS.get(f, _element_split)) for f in map(stats.get, names)]
    cache: dict = {}  # what the readers keep across tails, keyed per kernel,
    # and the last tail's walk (_sorting_tail)

    def read(i):
        fixed, heads = tails[i]
        return [_read(f, split, heads, fixed, cache) for f, split in readers]

    return read


def _read(f, split, heads, fixed, cache) -> tuple[Sequence, object]:
    """(column, part) of f on a tail, the column being f's reader's, split,
    and part f(g + fixed) less column[0], g = heads[0]: a set's part is the
    members of f(g + fixed) after column[0]'s.  column[j] + part is then f
    on heads[j] + fixed for every reader whose column is f up to a constant
    per tail, which _sweep proves of each one."""
    column = split(f, heads, fixed, cache)
    whole = f(heads[0] + fixed)
    part = whole[len(column[0]):] if isinstance(whole, tuple) else whole - column[0]
    return column, part


def _element_split(f, heads, fixed, cache) -> list:
    """The column of a kernel that _SPLITS maps to no reader, sor'_D and
    any replaced or wrapped registry entry: it is evaluated per element, f
    on each element h + fixed of the tail.  _blocks and _split_at take each
    kernel's reader as _SPLITS.get(f, _element_split)."""
    return list(map(f, map(add, heads, itertools.repeat(fixed))))


def _place_split(f, heads, fixed, cache) -> Sequence:
    """The column of a place-split kernel: f on each h + t', h in heads and
    t' the tail fixed with every letter barred (_element_split), kept per
    head list."""
    key = f, heads[0]
    if key not in cache:
        cache[key] = _element_split(f, heads, tuple(-abs(x) for x in fixed), cache)
    return cache[key]


def _relabelled_column(f, heads, word, cache) -> Sequence:
    """f on each head h relabelled letter by letter, g_p -> word_p and
    -g_p -> -word_p for g = heads[0].

    This rests on the decoder, which _unrank_tables decodes each list by:
    it takes a head's letters, by index, from the values V the tail leaves,
    so every head list is one list on 1..k relabelled i -> V[i - 1], sign
    kept, and in D place 1 flips too under a tail of odd bars, which the
    signs of g's letters tell apart.  So the relabelled list is that list
    relabelled by the k-word map that takes its first word to word, and one
    column serves every head list with g's signs and word; the word and
    sorting split proofs test this.  cache keeps each column, an
    integer one as a byte array (f on a k-word lies within +-k^2), and f on
    each k-word."""
    key = f, word, tuple(x < 0 for x in heads[0])
    if key not in cache:
        values = cache.setdefault(f, {})
        relabel = {}
        for x, y in zip(heads[0], word):
            relabel[x], relabel[-x] = y, -y
        column = []
        for h in heads:
            w = tuple(map(relabel.__getitem__, h))
            if w not in values:
                values[w] = f(w)
            column.append(values[w])
        cache[key] = column if isinstance(column[0], tuple) else array("b", column)
    return cache[key]


def _sorting_tail(g, fixed, cache) -> tuple[tuple, tuple]:
    """(code, word) of a tail: code the B-code of g + fixed
    (perm_b._sorting_code), word the k-word, k = len(g), that its steps
    n..k+1 leave in places 1..k, the product of code's first k entries.
    cache keeps the last tail's, so every walk reader of a tail shares one
    walk."""
    if cache.get(_sorting_tail, (None,))[0] != (g, fixed):
        code = perm_b._sorting_code(g + fixed, False)[0]
        word = perm_b._code_product(code[:len(g)], False)
        cache[_sorting_tail] = (g, fixed), code, word
    return cache[_sorting_tail][1:]


def _sorting_split(cost, f, heads, fixed, cache) -> Sequence[int]:
    """The column of a sorting index whose barred code entry costs cost.

    The tail's walk (_sorting_tail) on g + fixed, g = heads[0], leaves a
    k-word, word, in places 1..k, and steps[p - 1] is the signed count of
    its steps j > k at head place p, the step sum S of the chain that g_p
    starts.  The column is f on each head h relabelled (_relabelled_column)
    plus a chain term for each place q of h: -S * q where h holds g_p,
    S * (q - cost) where it holds -g_p.  cache also keeps, as byte arrays,
    the chain term per unit of S for each head of a head list; the chain
    terms are added per tail, into a fresh column kept as a 16-bit array."""
    g, k = heads[0], len(heads[0])
    code, word = _sorting_tail(g, fixed, cache)
    steps = [0] * k
    for c in code[k:]:
        if -k <= c <= k:
            steps[abs(c) - 1] += 1 if c > 0 else -1
    if (f, g) not in cache:
        at = [{x: q for q, x in enumerate(h, 1)} for h in heads]
        cache[f, g] = [array("b", [-p[x] if x in p else p[-x] - cost for p in at])
                       for x in g]
    column = _relabelled_column(f, heads, word, cache)
    for s, unit in zip(steps, cache[f, g]):
        if s:
            column = [c + s * u for c, u in zip(column, unit)]
    return array("h", column) if isinstance(column, list) else column


def _word_split(f, heads, fixed, cache) -> Sequence:
    """The column of a fixed-entry kernel: f on each head relabelled by the
    tail's word (_sorting_tail, _relabelled_column)."""
    return _relabelled_column(f, heads, _sorting_tail(heads[0], fixed, cache)[1], cache)


# each kernel whose split form is proven (see _sweep) -> its reader, called
# as reader(f, heads, fixed, cache) for a column that is f up to a constant
# per tail, to which _read adds the part; sor, cyc and Cyc of A are sor_b,
# cyc_b and cyc_b_set, and any other kernel, sor'_D among them, is read by
# _element_split
_SPLITS: dict[Callable, Callable] = {
    **dict.fromkeys((
        perm_a.inv, perm_b.inv_b, perm_d.inv_d, perm_b.neg_count, perm_b.lr_max_b,
        perm_b.rl_min_b, perm_b.nmin_b, perm_b.nmax_b, perm_d.nmin_d,
        perm_b.lmap_b_set, perm_b.rmil_b_set), _place_split),
    perm_b.sor_b: partial(_sorting_split, 1),
    perm_d.sor_d: partial(_sorting_split, 2),
    **dict.fromkeys((perm_b.cyc_b, perm_b.cyc_b_set, perm_b.reflection_length_b,
                     perm_d.reflection_length_d), _word_split),
}


def _split_at(family, n, names) -> Callable[[int], list]:
    """Random access to the named statistics, canonical names of any
    registry entries: the function of a rank r giving their values at r as
    the sweep counts them, column[r % size] + part of each one's reader on
    tail r // size (_tail_reader).  The readers run once per tail, when a
    rank first meets it, and its (column, part) list is kept: place and word
    columns are shared per head list or word, and a sorting or element
    column is the tail's own."""
    size = _unrank_tables(family, n)[0]
    read = lru_cache(maxsize=None)(_tail_reader(family, n, names))

    def values(r):
        i, j = divmod(r, size)
        return [column[j] + part for column, part in read(i)]

    return values


def _plain(value):
    """A statistic value in its report form: a set value's tuple as a list."""
    return list(value) if isinstance(value, tuple) else value


def joint_distribution(
    family: str, n: int, stat1: str, stat2: str, workers: int = 1
) -> QT:
    """Sum of q^stat1(s) * t^stat2(s) over the whole group: a two-name sweep."""
    names = [integer_statistic(family, stat)[0] for stat in (stat1, stat2)]
    return QT(sweep(family, n, names, workers))


class VerifyReport:
    """Outcome of one named check; failures are data, not exceptions."""

    def __init__(
        self,
        name: str,
        family: str,
        n: int,
        passed: bool,
        checked: int,
        counterexample: dict | None = None,
        details: dict | None = None,
    ) -> None:
        self.name = name
        self.family = family
        self.n = n
        self.passed = passed
        self.checked = checked
        self.counterexample = counterexample
        self.details = {} if details is None else details

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "family": self.family,
            "n": self.n,
            "passed": self.passed,
            "checked": self.checked,
            "counterexample": self.counterexample,
            "details": self.details,
        }


def _scan(family, n, case, details=None, names=()) -> VerifyReport:
    """The report of a pointwise check, the one walk over the group behind
    them all: for each rank r in order, case(r, el, values) gives None or a
    fault for each of its tests on the element el of rank r, values being
    the named statistics on el as the sweep counts them (_blocks).  The scan
    stops at the first fault, reported with "rank": r first, and checked
    counts the tests taken, that one included.  The report is unnamed:
    run_check alone names a report."""
    checked = 0
    order = group_order(family, n)
    for first, block, columns in _blocks(family, n, names, 0, order):
        rows = zip(*columns) if names else itertools.repeat(())
        for r, el, values in zip(itertools.count(first), block, rows):
            for fault in case(r, el, values):
                checked += 1
                if fault is not None:
                    fault = {"rank": r, **fault}
                    return VerifyReport("", family, n, False, checked, fault, details)
    return VerifyReport("", family, n, True, checked, None, details)


# bijection name -> (family, core, inverse core, [(source stat, image stat)],
#                    [(source set stat, image set stat)]); callers pass members
BIJECTIONS: dict[str, tuple] = {
    "phi": (
        "A",
        perm_b._psi,
        perm_b._psi_inverse,
        [("inv", "sor"), ("rl-min", "cyc")],
        [("Lmap", "Lmap")],
    ),
    "psi": (
        "B",
        perm_b._psi,
        perm_b._psi_inverse,
        [("inv_B", "sor_B")],
        [("Lmap_B", "Lmap_B"), ("Rmil_B", "Cyc_B")],
    ),
    "rho": (
        "D",
        perm_d._rho,
        perm_d._rho_inverse,
        [("inv_D", "sor_D"), ("nmin_D", "lt'_D")],
        [],
    ),
}


def _transport_pairs(bijection: str) -> list[tuple]:
    """The bijection's statistic pairs as (source name, image name, source
    function, image function), integer pairs first; the functions of a set
    pair return increasing tuples."""
    family, _, _, int_pairs, set_pairs = BIJECTIONS[bijection]
    stats = _statistics(family, INTEGER_STATISTICS, SET_STATISTICS)
    return [(a, b, stats[a], stats[b]) for a, b in int_pairs + set_pairs]


def _check_transport(bijection, n, workers=1):
    """Check pointwise statistic transport and bijectivity on the whole group.

    Each image must be a member of the group, be mapped back to its source
    by the stored inverse, and carry the image statistics of its source.  The
    first two make the map injective on a finite group, hence a bijection.  A
    failed inverse test is reported as a duplicate image when the stored
    inverse returns another member with the same image, and as an inverse
    mismatch otherwise.

    The statistics are read as the sweep counts them.  Once the image has
    passed both tests it is a member, so _rank_tables ranks it by two
    lookups (as a tuple, whatever sequence func returns), and every image
    statistic is read at that rank (_split_at).  The lookups come after the
    tests because they do not prove membership: a non-member's halves can
    both be keys.
    """
    family, func, inv_func = BIJECTIONS[bijection][:3]
    group_order(family, n)  # refuse a bad n before building any table
    pairs = _transport_pairs(bijection)
    member = _MEMBERS[family]
    k, head, tail = _rank_tables(family, n)
    read = _split_at(family, n, [b for _, b, *_ in pairs])

    def case(r, el, values):
        image = func(el)
        if len(image) != n or not member(image):
            fault = {"reason": "image not in group"}
        elif (back := inv_func(image)) != el:
            # another member with this image makes the map non-injective;
            # the kernels need a member
            if len(back) == n and member(back) and func(back) == image:
                fault = {"reason": "duplicate image"}
            else:
                fault = {"inverse": list(back), "reason": "inverse mismatch"}
        else:
            at = head[tuple(image[:k])] + tail[tuple(image[k:])]
            for (a, b, _, _), va, vb in zip(pairs, values, read(at)):
                if va != vb:
                    fault = {"statistic": f"{a} -> {b}",
                             "source_value": _plain(va),
                             "image_value": _plain(vb)}
                    break
            else:
                return (None,)
        return ({"element": list(el), "image": list(image), **fault},)

    pairs_text = ", ".join(f"{a} -> {b}" for a, b, _, _ in pairs)
    return _scan(
        family, n, case,
        {"bijection": bijection, "pairs": pairs_text}, [a for a, *_ in pairs],
    )


GENERATING_SET_NAMES = {
    "A": ("T^A",),
    "B": ("T^B", "S^B"),
    "D": ("T^D", "S^D"),
}


# Each generating set as its generator pairs (a, j) at rank n, in listing
# order: (a, j) is a signed reflection (perm_b), and (-j, j) in T^D the
# composite (perm_d).
_GENERATOR_PAIRS = {
    "T^A": lambda n: [(i, j) for j in range(2, n + 1) for i in range(1, j)],
    "T^B": lambda n: [
        (a, j) for j in range(1, n + 1) for a in (*range(1, j), *range(-1, -j - 1, -1))
    ],
    "S^B": lambda n: [(-1, 1)] + [(i, i + 1) for i in range(1, n)],
    "T^D": lambda n: [  # i and -i below j, then the composite (-j, j)
        (a, j) for j in range(2, n + 1)
        for i in range(1, j + 1) for a in (i, -i)[i == j:]
    ],
    "S^D": lambda n: [(-1, 2)] + [(i, i + 1) for i in range(1, n)],
}


def _check_set_name(family: str, name) -> None:
    """Refuse a name that is none of the family's generating sets; a name
    that is no str is compared, never hashed, so it is refused as well."""
    if name not in GENERATING_SET_NAMES[family]:
        raise ValueError(
            f"unknown generating set {name!r} for family {family}; choose from: "
            + ", ".join(GENERATING_SET_NAMES[family])
        )


def generating_set(family: str, n: int, name: str) -> tuple[tuple[int, ...], ...]:
    """The named generating set as a tuple of group elements.

    T^A: all transpositions.  T^B: all signed reflections.  S^B / S^D: the
    simple (Coxeter) generators.  T^D: the reflections (i, j) with
    1 <= |i| < j plus the composite generators (-j, j) for j >= 2.
    """
    check_group(family, n)
    _check_set_name(family, name)
    apply = perm_d.apply_generator if family == "D" else perm_b.apply_transposition
    ident = identity_of(family, n)
    return tuple(apply(ident, a, j) for a, j in _GENERATOR_PAIRS[name](n))


def cayley_distance_table(family: str, n: int, set_name: str) -> tuple[int, ...]:
    """Distances from the identity in the Cayley graph, indexed by rank, by
    a breadth-first search over the whole group (_cayley_distance_table)
    that refuses orders above 100000 elements and is cached per argument
    triple.  The arguments are checked before the cache is consulted: the
    cache would hash an unhashable one, and it keys n = 3.0 and True as 3
    and 1."""
    check_group(family, n)
    _check_set_name(family, set_name)
    return _cayley_distance_table(family, n, set_name)


@lru_cache(maxsize=None)
def _cayley_distance_table(family: str, n: int, set_name: str) -> tuple[int, ...]:
    """The search behind cayley_distance_table, on arguments it checked.

    A step by g takes s to g^-1 s: each letter x of s maps to g^-1(x), one
    lookup in a table of g^-1 indexed by signed letter (a barred letter
    indexes from the end), all n read at once by an itemgetter over s.  Each
    image is ranked by its two halves (_rank_tables), so no element is
    composed or encoded per edge.  A depth is the word length over the
    generators' inverses, the same as over the generators because every
    generating set is closed under inversion.
    Distances are kept in a rank-indexed bytearray (255 = not reached yet),
    which holds the diameters of every group the limit admits (at most
    n^2 = 36, for S^B on B6).
    """
    order = group_order(family, n)
    if order > _BFS_LIMIT:
        raise ValueError(
            f"group order {order} exceeds the BFS limit {_BFS_LIMIT}"
        )
    k, head, tail = _rank_tables(family, n)
    moves = []
    for g in generating_set(family, n, set_name):
        sub = [0] * (2 * n + 1)
        for x, y in enumerate(g, 1):  # g(x) = y, so g^-1 takes y to x
            sub[y], sub[-y] = x, -x
        moves.append(sub)
    # one itemgetter per frontier word reads its image out of each move's
    # table; with one index an itemgetter returns a bare value, not a tuple
    getter = itemgetter if n > 1 else lambda x: lambda sub: (sub[x],)
    dist = bytearray(b"\xff") * order
    ident = identity_of(family, n)
    dist[head[ident[:k]] + tail[ident[k:]]] = 0
    frontier = [ident]
    d = 0
    while frontier:
        d += 1
        next_frontier = []
        for t in frontier:
            image_of = getter(*t)
            for sub in moves:
                image = image_of(sub)
                r = head[image[:k]] + tail[image[k:]]
                if dist[r] == 255:
                    dist[r] = d
                    next_frontier.append(image)
        frontier = next_frontier
    return tuple(dist)


# cayley_distance_table keeps the lru_cache interface: cache_clear empties
# the cache, and __wrapped__ is the search without it
cayley_distance_table.cache_clear = _cayley_distance_table.cache_clear
cayley_distance_table.__wrapped__ = _cayley_distance_table.__wrapped__


def cayley_distance(
    family: str, n: int, set_name: str, element: Sequence[int]
) -> int:
    """Word length of an element over the named generating set; raises
    ValueError on a wrong length or a non-member, as rank does.

    >>> cayley_distance("B", 3, "T^B", (2, 1, 3))
    1
    """
    r = rank(family, n, element)
    return cayley_distance_table(family, n, set_name)[r]


# Every row of CHECKS calls one of the _check_* functions (_check_transport
# is above, by BIJECTIONS), each on one of two runners (_sweep, _scan).  They
# return unnamed reports, since run_check alone names a report, and take
# workers even where they run in one process.  They read statistics as the
# sweep does and look up the other functions they call at call time, so that
# a replaced registry entry or a wrapper put on a public function applies.


def _check_joint(family, groups, n, workers=1, formula=None):
    """The groups' distributions of value tuples must agree, and with formula
    given each must equal that product formula of qpoly instead.

    A group of one or two integer statistics is reported as its polynomial
    (one statistic at t = 1); the other groups are listed by name in one
    line.  A group that differs from its reference, the first group or the
    formula, gives the counterexample at the lowest key it over-counts (the
    lowest it differs at, if it over-counts none), with the lowest-rank
    element that has that key.
    """
    counts = _sweep(family, n, groups, workers)
    product = formula and getattr(qpoly, formula)(n)
    details, listed, counterexample = {}, [], None
    for g, count in zip(groups, counts):
        if len(g) > 2 or not set(g) <= INTEGER_STATISTICS[family].keys():
            listed.append(g)
        else:
            label = f"joint({g[0]}, {g[1]})" if len(g) == 2 else f"{g[0]} at t=1"
            details[label] = QT({(*k, 0)[:2]: c for k, c in count.items()}).text()
        expected = counts[0]
        if formula:  # the formula's terms keyed as g's value tuples
            expected = Counter()
            for q, t, c in product.terms():
                expected[(q, t)[:len(g)]] += c
        if counterexample is None and count != expected:
            keys = count.keys() | expected.keys()
            differ = [k for k in keys if count[k] != expected[k]]
            key = min(differ, key=lambda k: (count[k] < expected[k], k))
            # the lowest rank whose values, as the sweep counts them, are key
            witness = _scan(family, n, lambda r, el, values: (
                {"element": list(el)} if values == key else None,), names=g)
            counterexample = {
                "groups": [list(g), formula or list(groups[0])],
                "key": [_plain(v) for v in key],
                "count": count[key], "expected": expected[key],
                **(witness.counterexample or {}),
            }
    if listed:
        label = "pairs" if all(len(g) == 2 for g in listed) else "groups"
        details[label] = ", ".join(f"({', '.join(g)})" for g in listed)
    if formula:
        details["product_formula"] = product.text()
    checked = len(groups) * group_order(family, n)
    return VerifyReport(
        "", family, n, counterexample is None, checked, counterexample, details
    )


def _check_type_d_sor_prime(n, workers=1):
    def case(r, el, values):
        a, b = values
        return (None if a == b else {"element": list(el), "sor_D": a, "sor'_D": b},)

    return _scan("D", n, case, names=("sor_D", "sor'_D"))


def _check_oracle(family, set_name, stat_name, n, workers=1):
    table = cayley_distance_table(family, n, set_name)

    def case(r, el, values):
        (got,), expected = values, table[r]
        return (None if got == expected else {
            "element": list(el), stat_name: got, f"distance over {set_name}": expected
        },)

    details = {"generating_set": set_name, "statistic": stat_name}
    return _scan(family, n, case, details, (stat_name,))


_CODE_PAIRS = {
    "A": [
        ("lehmer", perm_a.lehmer_encode, perm_a.lehmer_decode),
        ("acode", perm_a.acode_encode, perm_a.acode_decode),
        ("bcode", perm_a.bcode_encode, perm_a.bcode_decode),
    ],
    "B": [
        ("lehmer", perm_b.lehmer_b_encode, perm_b.lehmer_b_decode),
        ("acode", perm_b.acode_b_encode, perm_b.acode_b_decode),
        ("bcode", perm_b.bcode_b_encode, perm_b.bcode_b_decode),
    ],
    "D": [
        ("ecode", perm_d.ecode_encode, perm_d.ecode_decode),
        ("fcode", perm_d.fcode_encode, perm_d.fcode_decode),
    ],
}


def _check_codes(family, n, workers=1):
    """Every code pair must be a bijection between the codes and the group,
    each side the other's inverse.

    At rank r the check takes the code whose digits are r (_split_codes) and,
    for each pair in turn, decodes it once and tests two things in this
    order: decode(code) has length n and is a member of the group, and
    encode(decode(code)) == code.  The member test comes first, so an
    encoder never sees a non-member.  Passing on every code proves the pair:
    the round trip makes decode injective on the codes, which are distinct
    and number group_order (_split_codes), so decode maps them onto the
    group, a bijection; encode is then its inverse there, and
    decode(encode(el)) == el follows for every element el, which is
    therefore not tested.  checked counts both tests, two per pair and code.
    """
    group_order(family, n)  # refuse a bad n before building any code
    pairs = _CODE_PAIRS[family]
    member = _MEMBERS[family]
    heads, tails = _split_codes(family, n)

    def case(r, el, values):
        code = heads[r % len(heads)] + tails[r // len(heads)]
        for label, encode, decode in pairs:
            decoded = decode(code)
            yield None if len(decoded) == n and member(decoded) else {
                "code": list(code), "pair": label,
                "reason": "decode(code) not in group",
            }
            yield None if encode(decoded) == code else {
                "code": list(code), "pair": label,
                "reason": "encode(decode(code)) != code",
            }

    return _scan(family, n, case)


CHECKS: dict[str, Callable[..., VerifyReport]] = {
    "type-a-gf": partial(
        _check_joint, "A", [("inv", "rl-min"), ("sor", "cyc")], formula="gf_type_a"
    ),
    "type-a-transport": partial(_check_transport, "phi"),
    "type-a-set-pairs": partial(
        _check_joint, "A", list(itertools.permutations(("Cyc", "Lmap", "Rmil"), 2))
    ),
    "type-a-triples": partial(
        _check_joint, "A", [("inv", "Lmap", "Rmil"), ("sor", "Lmap", "Cyc")]
    ),
    "type-a-four-pairs": partial(
        _check_joint, "A",
        [("sor", "cyc"), ("inv", "rl-min"), ("inv", "lr-max"), ("sor", "lr-max")],
    ),
    "type-b-gf": partial(
        _check_joint, "B", [("inv_B", "nmin_B"), ("sor_B", "l'_B")],
        formula="gf_type_b",
    ),
    "type-b-transport": partial(_check_transport, "psi"),
    "type-b-set-pairs": partial(
        _check_joint, "B",
        list(itertools.permutations(("Cyc_B", "Lmap_B", "Rmil_B"), 2)),
    ),
    "type-b-triples": partial(
        _check_joint, "B",
        [("inv_B", "Lmap_B", "Rmil_B"), ("sor_B", "Lmap_B", "Cyc_B")],
    ),
    "type-b-four-pairs": partial(
        _check_joint, "B",
        [("sor_B", "l'_B"), ("inv_B", "nmin_B"), ("inv_B", "nmax_B"),
         ("sor_B", "nmax_B")],
    ),
    "type-d-sor-prime": _check_type_d_sor_prime,
    "type-d-bivariate": partial(
        _check_joint, "D", [("inv_D", "nmin_D"), ("sor_D", "lt'_D")],
        formula="gf_type_d_bivariate",
    ),
    "type-d-mahonian": partial(
        _check_joint, "D", [("inv_D",), ("sor_D",)], formula="gf_type_d_univariate"
    ),
    "type-d-transport": partial(_check_transport, "rho"),
    "oracle-reflection-length-b": partial(_check_oracle, "B", "T^B", "l'_B"),
    "oracle-reflection-length-d": partial(_check_oracle, "D", "T^D", "lt'_D"),
    "oracle-length-b": partial(_check_oracle, "B", "S^B", "inv_B"),
    "oracle-length-d": partial(_check_oracle, "D", "S^D", "inv_D"),
    "codes-a": partial(_check_codes, "A"),
    "codes-b": partial(_check_codes, "B"),
    "codes-d": partial(_check_codes, "D"),
}


def run_check(name: str, n: int, workers: int = 1) -> VerifyReport:
    """Run a named check; unknown names (a non-str among them) and
    out-of-range n raise ValueError."""
    if not isinstance(name, str) or name not in CHECKS:
        raise ValueError(
            f"unknown check {name!r}; choose from: " + ", ".join(sorted(CHECKS))
        )
    _check_workers(workers)
    report = CHECKS[name](n, workers=workers)
    report.name = name
    return report
