"""Reference free differential calculus in the group ring Q[F].

The library's ``fox_matrix`` builds each entry straight in the Laurent
ring.  This module keeps the textbook route, group-ring elements and
their free derivatives pushed through ``theta``, so the tests can check
the calculus itself and the library's matrix entry for entry.  It also
keeps ``fox_matrix`` with every entry built by the ``LaurentPoly``
constructor, the route the library's directly stored entries replaced.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from alexpoly.group import AbelMap, Presentation, Word
from alexpoly.ring import LaurentPoly


class GroupRingElement:
    """Finite rational combination of free-group words."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Word, Fraction] | None = None):
        cleaned = {}
        if coeffs:
            for word, c in coeffs.items():
                c = Fraction(c)
                if c:
                    cleaned[word] = c
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("GroupRingElement is immutable")

    @classmethod
    def zero(cls) -> "GroupRingElement":
        return cls()

    @classmethod
    def of_word(cls, w: Word, coeff: int | Fraction = 1) -> "GroupRingElement":
        return cls({w: Fraction(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        acc = dict(self.coeffs)
        for word, c in other.coeffs.items():
            acc[word] = acc.get(word, Fraction(0)) + c
        return GroupRingElement(acc)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement({w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        acc: dict[Word, Fraction] = {}
        for u, cu in self.coeffs.items():
            for v, cv in other.coeffs.items():
                w = u * v
                acc[w] = acc.get(w, Fraction(0)) + cu * cv
        return GroupRingElement(acc)

    def left_mul(self, w: Word) -> "GroupRingElement":
        return GroupRingElement({w * u: c for u, c in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupRingElement) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if self.is_zero:
            return "<GroupRingElement 0>"
        body = " + ".join(f"{c}*{w!r}" for w, c in self.coeffs.items())
        return f"<GroupRingElement {body}>"


def fox_derivative(w: Word, gen: int) -> GroupRingElement:
    """Free derivative of w with respect to generator gen.

    Satisfies d(uv) = du + u dv, d(x) = 1 and d(x^-1) = -x^-1 for the
    chosen generator x, and kills the other generators.
    """
    acc: dict[Word, Fraction] = {}
    prefix = Word()
    for g, e in w.syllables:
        if g == gen:
            if e > 0:
                powers = range(e)
            else:
                powers = range(-1, e - 1, -1)
            sign = Fraction(1 if e > 0 else -1)
            for p in powers:
                key = prefix * Word([(g, p)]) if p else prefix
                acc[key] = acc.get(key, Fraction(0)) + sign
        prefix = prefix * Word([(g, e)])
    return GroupRingElement(acc)


def theta(elem: GroupRingElement, phi: AbelMap) -> LaurentPoly:
    """Push a group-ring element to the Laurent ring: each word w becomes
    the monomial with exponent vector phi(w)."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for word, coeff in elem.coeffs.items():
        exps = phi(word)
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    if any(c.denominator != 1 for c in terms.values()):
        raise ValueError("theta maps integer combinations of words only")
    return LaurentPoly(phi.rank, {e: c.numerator for e, c in terms.items()})


def fox_matrix(pres: Presentation, phi: AbelMap) -> list[list[LaurentPoly]]:
    """``fox.fox_matrix``'s one-pass rows, each entry passed through the
    ``LaurentPoly`` constructor, which checks and converts every exponent
    and drops zero coefficients; the library stores the accumulated
    terms directly."""
    rows = []
    for r in pres.relators:
        cols: list[dict[tuple[int, ...], int]] = [{} for _ in range(pres.n)]
        at = (0,) * phi.rank
        for g, e in r.syllables:
            img = phi.images[g]
            terms = cols[g]
            sign, powers = (1, range(e)) if e > 0 else (-1, range(-1, e - 1, -1))
            for p in powers:
                exps = tuple(a + p * b for a, b in zip(at, img))
                terms[exps] = terms.get(exps, 0) + sign
            at = tuple(a + e * b for a, b in zip(at, img))
        rows.append([LaurentPoly(phi.rank, terms) for terms in cols])
    return rows
