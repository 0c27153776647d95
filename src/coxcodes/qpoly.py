"""Sparse bivariate polynomials in q and t with nonnegative integer counts.

Coefficients are exact Python integers (arbitrary precision, so sums never
wrap); negative coefficients are rejected outright and no subtraction is
offered, because every polynomial here is a generating function counting
group elements.  Addition is the merge operation for split enumeration
ranges: it is associative and commutative with zero() as identity, so any
chunking of a sum gives the identical polynomial.

The canonical text form lists terms by ascending (t-exponent, q-exponent),
for example ``1 + 2*q*t + q^2*t``.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = [
    "QT",
    "zero",
    "one",
    "monomial",
    "q_int",
    "gf_type_a",
    "gf_type_b",
    "gf_type_d_bivariate",
    "gf_type_d_univariate",
]


class QT:
    """A polynomial in q and t, stored as {(q_exp, t_exp): count}.

    >>> p = monomial(q=1, t=1, coeff=2) + one() + monomial(q=2, t=1)
    >>> p.text()
    '1 + 2*q*t + q^2*t'
    >>> p.evaluate(1, 1)
    4
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for (qe, te), coeff in terms.items():
                if type(qe) is not int or type(te) is not int or type(coeff) is not int:
                    raise ValueError(f"non-integer term q^{qe!r}*t^{te!r}: {coeff!r}")
                if qe < 0 or te < 0:
                    raise ValueError(f"negative exponent in term q^{qe}*t^{te}")
                if coeff < 0:
                    raise ValueError(
                        f"negative count {coeff} for term q^{qe}*t^{te}"
                    )
                if coeff:
                    clean[(qe, te)] = clean.get((qe, te), 0) + coeff
        self._terms = clean

    def __add__(self, other: "QT") -> "QT":
        if not isinstance(other, QT):
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            out[key] = out.get(key, 0) + coeff
        result = QT.__new__(QT)
        result._terms = out
        return result

    def __mul__(self, other: "QT") -> "QT":
        if not isinstance(other, QT):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (q1, t1), c1 in self._terms.items():
            for (q2, t2), c2 in other._terms.items():
                key = (q1 + q2, t1 + t2)
                out[key] = out.get(key, 0) + c1 * c2
        result = QT.__new__(QT)
        result._terms = out
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QT):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable dict inside; compare by value only

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, q: int, t: int) -> int:
        return self._terms.get((q, t), 0)

    def evaluate(self, q_value: int, t_value: int) -> int:
        return sum(
            c * q_value**qe * t_value**te
            for (qe, te), c in self._terms.items()
        )

    def eval_t1(self) -> "QT":
        """Specialize t to 1, collapsing onto the q-axis."""
        out: dict[tuple[int, int], int] = {}
        for (qe, _te), c in self._terms.items():
            key = (qe, 0)
            out[key] = out.get(key, 0) + c
        result = QT.__new__(QT)
        result._terms = out
        return result

    def terms(self) -> list[tuple[int, int, int]]:
        """Triples (q_exp, t_exp, count) sorted by (t_exp, q_exp)."""
        return sorted(
            ((qe, te, c) for (qe, te), c in self._terms.items()),
            key=lambda item: (item[1], item[0]),
        )

    def text(self) -> str:
        """Canonical human-readable form; '0' for the zero polynomial."""
        if not self._terms:
            return "0"
        parts = []
        for qe, te, c in self.terms():
            factors = []
            if c != 1 or (qe == 0 and te == 0):
                factors.append(str(c))
            if qe == 1:
                factors.append("q")
            elif qe > 1:
                factors.append(f"q^{qe}")
            if te == 1:
                factors.append("t")
            elif te > 1:
                factors.append(f"t^{te}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"QT({self.text()!r})"


def zero() -> QT:
    return QT()


def one() -> QT:
    return QT({(0, 0): 1})


def monomial(q: int = 0, t: int = 0, coeff: int = 1) -> QT:
    return QT({(q, t): coeff})


def q_int(m: int) -> QT:
    """The q-integer 1 + q + ... + q^(m-1).

    >>> q_int(3).text()
    '1 + q + q^2'
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 0:
        raise ValueError(f"q-integer needs an integer m >= 0, got {m!r}")
    return QT({(k, 0): 1 for k in range(m)})


def gf_type_a(n: int) -> QT:
    """Product over i = 1..n of (t + q + q^2 + ... + q^(i-1)).

    >>> gf_type_a(2).text()
    'q*t + t^2'
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"rank must be an integer >= 1, got {n!r}")
    out = one()
    for i in range(1, n + 1):
        factor = QT({(k, 0): 1 for k in range(1, i)})
        factor = factor + monomial(t=1)
        out = out * factor
    return out


def gf_type_b(n: int) -> QT:
    """Product over i = 1..n of (1 + t*(q + q^2 + ... + q^(2i-1))).

    The factor is the usual 1 + t*[2i]_q - t folded so that no subtraction
    is needed.

    >>> gf_type_b(1).text()
    '1 + q*t'
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"rank must be an integer >= 1, got {n!r}")
    out = one()
    for i in range(1, n + 1):
        factor = one() + QT({(k, 1): 1 for k in range(1, 2 * i)})
        out = out * factor
    return out


def gf_type_d_bivariate(n: int) -> QT:
    """Product over r = 1..n-1 of (1 + q^r*t + q*t*[2r]_q).

    >>> gf_type_d_bivariate(2).text()
    '1 + 2*q*t + q^2*t'
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise ValueError(f"rank must be an integer >= 2, got {n!r}")
    out = one()
    for r in range(1, n):
        factor = one() + monomial(q=r, t=1) + QT({(k, 1): 1 for k in range(1, 2 * r + 1)})
        out = out * factor
    return out


def gf_type_d_univariate(n: int) -> QT:
    """[n]_q times the product over r = 1..n-1 of [2r]_q.

    >>> gf_type_d_univariate(2).text()
    '1 + 2*q + q^2'
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"rank must be an integer >= 1, got {n!r}")
    out = q_int(n)
    for r in range(1, n):
        out = out * q_int(2 * r)
    return out
