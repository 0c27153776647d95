"""Exhaustive verification harness over the families A (permutations),
B (signed permutations), and D (even-signed permutations).

Groups are enumerated through the code bijections (Lehmer for A, signed
Lehmer for B, the deletion code for D), which gives every element a rank in
a mixed-radix numeral system: code entry c_i is a digit, c_1 the least
significant.  Rank order is therefore the product order of the entries'
value lists with c_n outermost, which supports deterministic order, range
splitting, and flat arrays indexed by rank.  Supported ranks: A up to 9,
B up to 8, D from 2 up to 8; anything larger is refused outright rather
than truncated.

Public ``rank`` validates its input: the length must be n and the element a
member of the group.  The loops that rank elements they built themselves
(the BFS oracle tables and the transport check) call the unchecked core
(``_ranker``) instead, and the oracles read the distance table in rank order
beside the enumeration, so they rank nothing at all.

Named checks (see CHECKS) re-prove the equidistribution and transport
identities by direct evaluation on every element; their results are report
payloads, never exceptions.  Each distribution check runs one sweep (see
sweep) over the union of the statistics it compares: the group is
enumerated once, every statistic is evaluated once per element, and each
joint distribution in the report is counted in that pass.  A report's
``checked`` counts element x pair comparisons (twice the group order for a
generating-function check), not elements enumerated.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from operator import getitem, itemgetter
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
    "set_pair_distribution",
    "VerifyReport",
    "verify_transport",
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


def check_group(family: str, n: int) -> None:
    """Validate a family/rank pair, refusing anything out of range."""
    if family not in _MIN_N:
        raise ValueError(f"unknown family {family!r}; choose one of A, B, D")
    if not isinstance(n, int) or n < _MIN_N[family]:
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


# Membership tests for rank's boundary, and the unchecked cores of each
# family's ranking code (the signed Lehmer code, which on A is the Lehmer
# code, and the deletion code).  Enumeration decodes codes it builds from the
# entry value lists, so they are valid by construction; the rank core encodes
# members only.  Bound once at import, so that a cached ranker keeps these
# very functions whatever is later put on the module attributes.
_MEMBERS = {
    "A": perm_a.is_permutation,
    "B": perm_b.is_signed_permutation,
    "D": perm_d.is_even_signed,
}
_DECODERS = {
    "A": perm_b._lehmer_b_decode,
    "B": perm_b._lehmer_b_decode,
    "D": perm_d._ecode_decode,
}
_ENCODERS = {
    "A": perm_b.lehmer_b_encode,
    "B": perm_b.lehmer_b_encode,
    "D": perm_d._ecode_encode,
}


@lru_cache(maxsize=None)
def _ranker(family: str, n: int) -> Callable[[Sequence[int]], int]:
    """The unchecked rank of a member of the group, as a function.

    The ranking code is a mixed-radix numeral: entry c_i is the digit
    c_i - 1 when positive and i - c_i - 1 when barred (its index in
    _code_values), in the place whose value is the product of the radices of
    c_1..c_{i-1}.  D's c_1 = 1 has radix 1, so no family needs a branch.
    Each entry's digit times its place value is tabulated by entry value (a
    barred value indexes from the end of a table twice the radix long, so the
    two ends never meet), and the rank is the sum of the looked-up terms.
    Anything but a member gives a meaningless rank or an exception.
    """
    encode = _ENCODERS[family]
    tables = []
    place = 1
    for values in _code_values(family, n):
        table = [0] * (2 * len(values) + 1)
        for digit, c in enumerate(values):
            table[c] = digit * place
        tables.append(table)
        place *= len(values)

    def core(element: Sequence[int]) -> int:
        return sum(map(getitem, tables, encode(element)))

    return core


def unrank(family: str, n: int, r: int) -> tuple[int, ...]:
    """The element of rank r in the fixed enumeration order."""
    order = group_order(family, n)
    if not 0 <= r < order:
        raise ValueError(f"rank {r} outside 0..{order - 1}")
    code = []
    for values in _code_values(family, n):
        r, d = divmod(r, len(values))
        code.append(values[d])
    return _DECODERS[family](tuple(code))


def rank(family: str, n: int, element: Sequence[int]) -> int:
    """Position of an element in the fixed enumeration order.

    Raises ValueError unless the element has length n and belongs to the
    group.  This is the checked boundary; loops over elements they generated
    themselves use the unchecked core _ranker(family, n).
    """
    check_group(family, n)
    element = tuple(element)
    if len(element) != n or not _MEMBERS[family](element):
        raise ValueError(f"not an element of {family}{n}: {list(element)}")
    return _ranker(family, n)(element)


def enumerate_group(
    family: str, n: int, start: int = 0, stop: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield elements of ranks start..stop-1, each exactly once, in order.

    Disjoint rank ranges give disjoint element streams, so a sweep can be
    split into independent chunks.
    """
    order = group_order(family, n)
    if stop is None:
        stop = order
    if not 0 <= start <= stop <= order:
        raise ValueError(f"bad range [{start}, {stop}) for order {order}")
    # product() varies its last factor fastest, so with the entry lists in
    # reverse it yields codes c_n..c_1 in rank order; islice reaches start by
    # skipping codes, which costs a chunk well under 1% of its sweep
    codes = itertools.product(*reversed(_code_values(family, n)))
    reverse = itemgetter(slice(None, None, -1))
    yield from map(_DECODERS[family], map(reverse, itertools.islice(codes, start, stop)))


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
        "nmin_B": perm_b.nmin_b,
        "nmax_B": perm_b.nmax_b,
        "l'_B": perm_b.reflection_length_b,
        "cyc_B": perm_b.cyc_b,
        "N": perm_b.neg_count,
        "rl-min_B": perm_b.rl_min_b,
        "lr-max_B": perm_b.lr_max_b,
    },
    "D": {
        "inv_D": perm_d.inv_d,
        "sor_D": perm_d.sor_d,
        "sor'_D": perm_d.sor_d_prime,
        "nmin_D": perm_d.nmin_d,
        "lt'_D": perm_d.reflection_length_d,
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


def _resolve(family: str, name: str, table) -> tuple[str, Callable]:
    if family not in table:
        raise ValueError(f"unknown family {family!r}; choose one of A, B, D")
    canonical = _STAT_ALIASES.get(name, name)
    stats = table[family]
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
    return _resolve(family, name, SET_STATISTICS)


def integer_statistic_names(family: str) -> list[str]:
    return sorted(INTEGER_STATISTICS[family])


def set_statistic_names(family: str) -> list[str]:
    return sorted(SET_STATISTICS[family])


def _check_workers(workers) -> None:
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")


def _statistic_name(family: str, name: str) -> str:
    """Canonical name of an integer or set statistic of the family."""
    if _STAT_ALIASES.get(name, name) in SET_STATISTICS[family]:
        return set_statistic(family, name)[0]
    return integer_statistic(family, name)[0]


def sweep(family: str, n: int, names: Sequence[str], workers: int = 1) -> Counter:
    """Count the tuple of the named statistics' values over the whole group.

    The group is enumerated once and each named statistic (integer or set)
    is evaluated once per element; set values are stored as sorted tuples.
    With workers > 1 the rank range is split into one chunk per worker
    process, with no more processes than os.cpu_count() reports, and the
    chunks' counts are added; addition is associative and
    commutative, so the result is identical to the sequential run.

    >>> sorted(sweep("A", 2, ["inv", "Cyc"]).items())
    [((0, (1, 2)), 1), ((1, (1,)), 1)]
    """
    return _sweep(family, n, [names], workers)[0]


# elements evaluated together: bounds a sweep's working memory, whatever the
# group order
_BLOCK = 1024


def _sweep(family, n, groups, workers) -> list[Counter]:
    """One sweep over the union of the groups' statistics, counting the value
    tuple of each group of names separately.

    A check that compares several pairs counts each pair here, not the tuple
    of their union, so its memory is that of its pair tables; sweep is the
    case of a single group.
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
    elements = enumerate_group(family, n, start, stop)
    while block := list(itertools.islice(elements, _BLOCK)):
        columns = []
        for name in names:
            if name in SET_STATISTICS[family]:
                values = map(SET_STATISTICS[family][name], block)
                columns.append(list(map(tuple, map(sorted, values))))
            else:
                columns.append(list(map(INTEGER_STATISTICS[family][name], block)))
        for count, place in zip(counts, places):
            count.update(zip(*(columns[i] for i in place)))
    return counts


def joint_distribution(
    family: str, n: int, stat1: str, stat2: str, workers: int = 1
) -> QT:
    """Sum of q^stat1(s) * t^stat2(s) over the whole group: a two-name sweep."""
    names = [integer_statistic(family, stat)[0] for stat in (stat1, stat2)]
    return QT(sweep(family, n, names, workers))


def set_pair_distribution(family: str, n: int, stat1: str, stat2: str) -> Counter:
    """Multiset of (stat1(s), stat2(s)) pairs, sets stored as sorted tuples."""
    names = [set_statistic(family, stat)[0] for stat in (stat1, stat2)]
    return sweep(family, n, names)


@dataclass
class VerifyReport:
    """Outcome of one named check; failures are data, not exceptions."""

    name: str
    family: str
    n: int
    passed: bool
    checked: int
    counterexample: dict | None = None
    details: dict = field(default_factory=dict)

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


# bijection name -> (family, function, [(source stat, image stat)],
#                    [(source set stat, image set stat)])
BIJECTIONS: dict[str, tuple] = {
    "phi": (
        "A",
        perm_a.phi,
        perm_a.phi_inverse,
        [("inv", "sor"), ("rl-min", "cyc")],
        [("Lmap", "Lmap")],
    ),
    "psi": (
        "B",
        perm_b.psi,
        perm_b.psi_inverse,
        [("inv_B", "sor_B")],
        [("Lmap_B", "Lmap_B"), ("Rmil_B", "Cyc_B")],
    ),
    "rho": (
        "D",
        perm_d.rho,
        perm_d.rho_inverse,
        [("inv_D", "sor_D"), ("nmin_D", "lt'_D")],
        [],
    ),
}


def verify_transport(bijection: str, n: int) -> VerifyReport:
    """Check pointwise statistic transport and bijectivity on the whole group.

    Each image must be a member of the group, have a rank no other image
    has, and carry the image statistics of its source.
    """
    if bijection not in BIJECTIONS:
        raise ValueError(
            f"unknown bijection {bijection!r}; choose from: "
            + ", ".join(sorted(BIJECTIONS))
        )
    family, func, _inv_func, int_pairs, set_pairs = BIJECTIONS[bijection]
    order = group_order(family, n)
    int_fns = [
        (a, b, integer_statistic(family, a)[1], integer_statistic(family, b)[1])
        for a, b in int_pairs
    ]
    set_fns = [
        (a, b, set_statistic(family, a)[1], set_statistic(family, b)[1])
        for a, b in set_pairs
    ]
    member = _MEMBERS[family]
    rank_of = _ranker(family, n)
    seen = bytearray(order)
    counterexample = None
    checked = 0
    for el in enumerate_group(family, n):
        image = func(el)
        checked += 1
        # the rank core gives a non-member the rank of some member, or raises
        if len(image) != n or not member(image):
            counterexample = {
                "element": list(el),
                "image": list(image),
                "reason": "image not in group",
            }
            break
        r = rank_of(image)
        if seen[r]:
            counterexample = {
                "element": list(el),
                "image": list(image),
                "reason": "duplicate image",
            }
            break
        seen[r] = 1
        bad = None
        for a, b, fa, fb in int_fns:
            va, vb = fa(el), fb(image)
            if va != vb:
                bad = {"statistic": f"{a} -> {b}", "source": va, "image": vb}
                break
        if bad is None:
            for a, b, fa, fb in set_fns:
                va, vb = sorted(fa(el)), sorted(fb(image))
                if va != vb:
                    bad = {"statistic": f"{a} -> {b}", "source": va, "image": vb}
                    break
        if bad is not None:
            counterexample = {
                "element": list(el),
                "image": list(image),
                **bad,
            }
            break
    pairs_text = ", ".join(f"{a} -> {b}" for a, b in int_pairs + set_pairs)
    return VerifyReport(
        name=f"transport-{bijection}",
        family=family,
        n=n,
        passed=counterexample is None,
        checked=checked,
        counterexample=counterexample,
        details={"bijection": bijection, "pairs": pairs_text},
    )


GENERATING_SET_NAMES = {
    "A": ("T^A",),
    "B": ("T^B", "S^B"),
    "D": ("T^D", "S^D"),
}


def generating_set(family: str, n: int, name: str) -> tuple[tuple[int, ...], ...]:
    """The named generating set as a tuple of group elements.

    T^A: all transpositions.  T^B: all signed reflections.  S^B / S^D: the
    simple (Coxeter) generators.  T^D: the reflections (i, j) with
    1 <= |i| < j plus the composite generators (-j, j) for j >= 2.
    """
    check_group(family, n)
    if name not in GENERATING_SET_NAMES.get(family, ()):
        raise ValueError(
            f"unknown generating set {name!r} for family {family}; choose from: "
            + ", ".join(GENERATING_SET_NAMES[family])
        )
    ident = identity_of(family, n)
    out = []
    if name == "T^A":
        for j in range(2, n + 1):
            for i in range(1, j):
                w = list(ident)
                w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
                out.append(tuple(w))
    elif name == "T^B":
        for j in range(1, n + 1):
            for i in range(1, j):
                out.append(perm_b.apply_transposition(ident, i, j))
            for i in range(1, j + 1):
                out.append(perm_b.apply_transposition(ident, -i, j))
    elif name == "S^B":
        out.append(perm_b.apply_transposition(ident, -1, 1))
        for i in range(1, n):
            out.append(perm_b.apply_transposition(ident, i, i + 1))
    elif name == "T^D":
        for j in range(2, n + 1):
            for i in range(1, j):
                out.append(perm_b.apply_transposition(ident, i, j))
                out.append(perm_b.apply_transposition(ident, -i, j))
            out.append(perm_d.apply_generator(ident, -j, j))
    else:  # S^D
        out.append(perm_b.apply_transposition(ident, -1, 2))
        for i in range(1, n):
            out.append(perm_b.apply_transposition(ident, i, i + 1))
    return tuple(out)


@lru_cache(maxsize=None)
def cayley_distance_table(family: str, n: int, set_name: str) -> tuple[int, ...]:
    """Distances from the identity in the Cayley graph, indexed by rank.

    Breadth-first search over the whole group; refuses orders above
    100000 elements.  Images are ranked by the unchecked core: composing
    members gives members.  Distances are kept in a rank-indexed bytearray
    (255 = not reached yet), which holds the diameters of every group the
    limit admits (at most n^2 = 36, for S^B on B6).
    """
    order = group_order(family, n)
    if order > _BFS_LIMIT:
        raise ValueError(
            f"group order {order} exceeds the BFS limit {_BFS_LIMIT}"
        )
    gens = generating_set(family, n, set_name)
    compose = perm_b.compose  # a permutation composes as a signed one
    rank_of = _ranker(family, n)
    dist = bytearray(b"\xff") * order
    ident = identity_of(family, n)
    dist[rank_of(ident)] = 0
    frontier = [ident]
    d = 0
    while frontier:
        d += 1
        next_frontier = []
        for el in frontier:
            for g in gens:
                image = compose(el, g)
                r = rank_of(image)
                if dist[r] == 255:
                    dist[r] = d
                    next_frontier.append(image)
        frontier = next_frontier
    return tuple(dist)


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


def _report(name, family, n, passed, checked, counterexample=None, details=None):
    return VerifyReport(
        name=name,
        family=family,
        n=n,
        passed=passed,
        checked=checked,
        counterexample=counterexample,
        details=details or {},
    )


def _check_gf(name, family, n, pair1, pair2, product, workers):
    d1, d2 = map(QT, _sweep(family, n, (pair1, pair2), workers))
    passed = d1 == d2 == product
    details = {
        f"joint({pair1[0]}, {pair1[1]})": d1.text(),
        f"joint({pair2[0]}, {pair2[1]})": d2.text(),
        "product_formula": product.text(),
    }
    return _report(name, family, n, passed, 2 * group_order(family, n), None, details)


def _check_type_a_gf(n, workers=1):
    return _check_gf(
        "type-a-gf", "A", n, ("inv", "rl-min"), ("sor", "cyc"),
        qpoly.gf_type_a(n), workers,
    )


def _check_type_b_gf(n, workers=1):
    return _check_gf(
        "type-b-gf", "B", n, ("inv_B", "nmin_B"), ("sor_B", "l'_B"),
        qpoly.gf_type_b(n), workers,
    )


def _check_type_d_bivariate(n, workers=1):
    return _check_gf(
        "type-d-bivariate", "D", n, ("inv_D", "nmin_D"), ("sor_D", "lt'_D"),
        qpoly.gf_type_d_bivariate(n), workers,
    )


def _check_type_d_mahonian(n, workers=1):
    # the report holds only the t = 1 specializations of the type-d-bivariate
    # joints, so their t-statistics nmin_D and lt'_D are never evaluated
    inv, sor = _sweep("D", n, [("inv_D",), ("sor_D",)], workers)
    d1 = QT({(q, 0): count for (q,), count in inv.items()})
    d2 = QT({(q, 0): count for (q,), count in sor.items()})
    product = qpoly.gf_type_d_univariate(n)
    passed = d1 == d2 == product
    details = {
        "inv_D at t=1": d1.text(),
        "sor_D at t=1": d2.text(),
        "product_formula": product.text(),
    }
    return _report(
        "type-d-mahonian", "D", n, passed, 2 * group_order("D", n), None, details
    )


def _check_four_pairs(name, family, n, pairs, workers):
    dists = list(zip(pairs, map(QT, _sweep(family, n, pairs, workers))))
    base = dists[0][1]
    passed = all(d == base for _, d in dists)
    details = {f"joint({a}, {b})": d.text() for (a, b), d in dists}
    return _report(
        name, family, n, passed, len(pairs) * group_order(family, n), None, details
    )


def _check_type_a_four_pairs(n, workers=1):
    pairs = [("sor", "cyc"), ("inv", "rl-min"), ("inv", "lr-max"), ("sor", "lr-max")]
    return _check_four_pairs("type-a-four-pairs", "A", n, pairs, workers)


def _check_type_b_four_pairs(n, workers=1):
    pairs = [
        ("sor_B", "l'_B"),
        ("inv_B", "nmin_B"),
        ("inv_B", "nmax_B"),
        ("sor_B", "nmax_B"),
    ]
    return _check_four_pairs("type-b-four-pairs", "B", n, pairs, workers)


def _check_set_pairs(name, family, n, stats, workers):
    pairs = [(a, b) for a in stats for b in stats if a != b]
    dists = list(zip(pairs, _sweep(family, n, pairs, workers)))
    base = dists[0][1]
    counterexample = None
    for p, d in dists[1:]:
        if d != base:
            keys = set(base) | set(d)
            key = min(k for k in keys if base.get(k, 0) != d.get(k, 0))
            counterexample = {
                "pair": f"({p[0]}, {p[1]}) vs ({pairs[0][0]}, {pairs[0][1]})",
                "sets": [list(key[0]), list(key[1])],
                "count": d.get(key, 0),
                "expected": base.get(key, 0),
            }
            break
    return _report(
        name,
        family,
        n,
        counterexample is None,
        len(pairs) * group_order(family, n),
        counterexample,
        {"pairs": ", ".join(f"({a}, {b})" for a, b in pairs)},
    )


def _check_type_a_set_pairs(n, workers=1):
    return _check_set_pairs(
        "type-a-set-pairs", "A", n, ("Cyc", "Lmap", "Rmil"), workers
    )


def _check_type_b_set_pairs(n, workers=1):
    return _check_set_pairs(
        "type-b-set-pairs", "B", n, ("Cyc_B", "Lmap_B", "Rmil_B"), workers
    )


def _check_type_d_sor_prime(n, workers=1):
    counterexample = None
    checked = 0
    for el in enumerate_group("D", n):
        checked += 1
        a = perm_d.sor_d(el)
        b = perm_d.sor_d_prime(el)
        if a != b:
            counterexample = {"element": list(el), "sor_D": a, "sor'_D": b}
            break
    return _report(
        "type-d-sor-prime", "D", n, counterexample is None, checked, counterexample
    )


def _check_transport(bijection):
    def run(n, workers=1):
        report = verify_transport(bijection, n)
        report.name = f"type-{BIJECTIONS[bijection][0].lower()}-transport"
        return report

    return run


def _check_oracle(name, family, set_name, stat_name):
    def run(n, workers=1):
        table = cayley_distance_table(family, n, set_name)
        _, stat = integer_statistic(family, stat_name)
        counterexample = None
        checked = 0
        # the table is indexed by rank, which is the enumeration order
        for el, expected in zip(enumerate_group(family, n), table):
            checked += 1
            got = stat(el)
            if got != expected:
                counterexample = {
                    "element": list(el),
                    stat_name: got,
                    f"distance over {set_name}": expected,
                }
                break
        return _report(
            name, family, n, counterexample is None, checked, counterexample,
            {"generating_set": set_name, "statistic": stat_name},
        )

    return run


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


def _check_codes(family):
    def run(n, workers=1):
        name = f"codes-{family.lower()}"
        pairs = _CODE_PAIRS[family]
        checked = 0
        for code in itertools.product(*_code_values(family, n)):
            for label, encode, decode in pairs:
                checked += 1
                if encode(decode(code)) != code:
                    return _report(
                        name, family, n, False, checked,
                        {"code": list(code), "pair": label,
                         "reason": "encode(decode(code)) != code"},
                    )
        for el in enumerate_group(family, n):
            for label, encode, decode in pairs:
                checked += 1
                if decode(encode(el)) != el:
                    return _report(
                        name, family, n, False, checked,
                        {"element": list(el), "pair": label,
                         "reason": "decode(encode(element)) != element"},
                    )
        return _report(name, family, n, True, checked)

    return run


CHECKS: dict[str, Callable[..., VerifyReport]] = {
    "type-a-gf": _check_type_a_gf,
    "type-a-transport": _check_transport("phi"),
    "type-a-set-pairs": _check_type_a_set_pairs,
    "type-a-four-pairs": _check_type_a_four_pairs,
    "type-b-gf": _check_type_b_gf,
    "type-b-transport": _check_transport("psi"),
    "type-b-set-pairs": _check_type_b_set_pairs,
    "type-b-four-pairs": _check_type_b_four_pairs,
    "type-d-sor-prime": _check_type_d_sor_prime,
    "type-d-bivariate": _check_type_d_bivariate,
    "type-d-mahonian": _check_type_d_mahonian,
    "type-d-transport": _check_transport("rho"),
    "oracle-reflection-length-b": _check_oracle(
        "oracle-reflection-length-b", "B", "T^B", "l'_B"
    ),
    "oracle-reflection-length-d": _check_oracle(
        "oracle-reflection-length-d", "D", "T^D", "lt'_D"
    ),
    "oracle-length-b": _check_oracle("oracle-length-b", "B", "S^B", "inv_B"),
    "oracle-length-d": _check_oracle("oracle-length-d", "D", "S^D", "inv_D"),
    "codes-a": _check_codes("A"),
    "codes-b": _check_codes("B"),
    "codes-d": _check_codes("D"),
}


def run_check(name: str, n: int, workers: int = 1) -> VerifyReport:
    """Run a named check; unknown names and out-of-range n raise ValueError."""
    if name not in CHECKS:
        raise ValueError(
            f"unknown check {name!r}; choose from: " + ", ".join(sorted(CHECKS))
        )
    _check_workers(workers)
    return CHECKS[name](n, workers=workers)
