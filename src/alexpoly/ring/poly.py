"""Laurent polynomials with integer coefficients, in one or several variables.

A polynomial knows its variable count ``nvars``; exponent vectors are
integer tuples of that length and may be negative.  Coefficients are
``int``, and any other type raises TypeError: every invariant here lies
in Z[t^+-1] up to units (``parse_poly`` clears denominators).  All
arithmetic is exact, and so is division, over Z.  The univariate case
is simply ``nvars == 1``.

Monomial order: graded lexicographic with t0 < t1 < ... (total degree
first, then the exponent of the highest-indexed variable decides).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import repeat
from math import gcd as int_gcd
from operator import add, index, mul, sub

Exponents = tuple[int, ...]

def grlex_key(exps: Exponents) -> tuple:
    return (sum(exps), tuple(reversed(exps)))


class LaurentPoly:
    """Immutable-by-convention Laurent polynomial with ``int`` coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int,
                 terms: Mapping[Exponents, int] | Iterable[tuple[Exponents, int]] = ()):
        if not isinstance(nvars, int) or nvars < 1:
            raise ValueError(f"nvars must be a positive integer, got {nvars!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Exponents, int] = {}
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has length {len(exps)}, expected {nvars}")
            c = acc.get(exps, 0) + index(coeff)
            if c:
                acc[exps] = c
            elif exps in acc:
                del acc[exps]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", acc)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int = 1) -> "LaurentPoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int = 1) -> "LaurentPoly":
        return cls.constant(1, nvars)

    @classmethod
    def constant(cls, value: int, nvars: int = 1) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, coeff: int, exps: Iterable[int]) -> "LaurentPoly":
        exps = tuple(int(e) for e in exps)
        return cls(len(exps), {exps: coeff})

    @classmethod
    def univariate(cls, coeffs: Mapping[int, int]) -> "LaurentPoly":
        return cls(1, {(int(e),): c for e, c in coeffs.items()})

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_unit(self) -> bool:
        """Units of Q[t^+-1], single terms, as the minor and gcd routes need;
        only +-t^a has an inverse with integer coefficients (__pow__)."""
        return len(self.terms) == 1

    @property
    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def coefficient(self, exps: Iterable[int]) -> int:
        return self.terms.get(tuple(exps), 0)

    def min_exponents(self) -> Exponents:
        if self.is_zero:
            return (0,) * self.nvars
        return tuple(min(e[i] for e in self.terms) for i in range(self.nvars))

    def max_exponents(self) -> Exponents:
        if self.is_zero:
            return (0,) * self.nvars
        return tuple(max(e[i] for e in self.terms) for i in range(self.nvars))

    def leading(self) -> tuple[Exponents, int]:
        """Leading (exponents, coefficient) under graded lex; errors on zero."""
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    # -- arithmetic ----------------------------------------------------

    def _require_same_ring(self, other: "LaurentPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = self._coerce(other)
        self._require_same_ring(other)
        acc = dict(self.terms)
        for exps, c in other.terms.items():
            s = acc.get(exps, 0) + c
            if s:
                acc[exps] = s
            elif exps in acc:
                del acc[exps]
        return _raw(self.nvars, acc)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: int) -> "LaurentPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return LaurentPoly.zero(self.nvars)
            return _raw(self.nvars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        self._require_same_ring(other)
        if self.is_zero or other.is_zero:
            return LaurentPoly.zero(self.nvars)
        acc: dict[Exponents, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                elif e in acc:
                    del acc[e]
        return _raw(self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            if [abs(c) for c in self.terms.values()] != [1]:
                raise ValueError("negative power of a non-unit of Z[t^+-1]")
            inv = _raw(self.nvars, {tuple(-e for e in exps): c
                                    for exps, c in self.terms.items()})
            return inv ** (-n)
        result = LaurentPoly.one(self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def _coerce(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(other, self.nvars)
        raise TypeError(f"cannot coerce {type(other).__name__} to LaurentPoly")

    def shift(self, exps: Iterable[int]) -> "LaurentPoly":
        """Multiply by the monomial t^exps (a unit).

        A zero shift returns self: polynomials are immutable, and
        normalize and exact_divide mostly shift ones already at minimum
        exponent 0.
        """
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars:
            raise ValueError("shift exponent length mismatch")
        if not any(exps):
            return self
        return _raw(self.nvars, {tuple(map(add, e, exps)): c
                                 for e, c in self.terms.items()})

    # -- structural operations ------------------------------------------

    def substitute(self, exponents: Iterable[int]) -> "LaurentPoly":
        """Map t_i -> t^{e_i}; returns a univariate Laurent polynomial.

        Cancellation may occur (and the result may be zero).
        """
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(exponents)}")
        acc: dict[Exponents, int] = {}
        for exps, c in self.terms.items():
            e = (sum(a * b for a, b in zip(exps, exponents)),)
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        return _raw(1, acc)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(other, self.nvars)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        from .textfmt import poly_to_str
        return f"<LaurentPoly {poly_to_str(self)}>"

    def __str__(self) -> str:
        from .textfmt import poly_to_str
        return poly_to_str(self)


def _raw(nvars: int, terms: dict[Exponents, int]) -> LaurentPoly:
    """Internal fast constructor; `terms` must already be clean: nonzero
    ``int`` coefficients."""
    p = object.__new__(LaurentPoly)
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "terms", terms)
    return p


# ---------------------------------------------------------------------------
# unit-normal form


def normalize(p: LaurentPoly) -> LaurentPoly:
    """Canonical associate of ``p`` under multiplication by units of Q[t^+-1].

    Result has integer coefficients with content 1, minimum exponent 0
    in every variable, and positive leading coefficient in graded lex
    order.  Zero normalizes to zero.  Idempotent.
    """
    if p.is_zero:
        return p
    shift = tuple(-e for e in p.min_exponents())
    shifted = p.shift(shift)
    content = int_gcd(*shifted.terms.values())
    if shifted.leading()[1] < 0:
        content = -content
    if content == 1:
        return shifted
    return _raw(p.nvars, {e: c // content for e, c in shifted.terms.items()})


def equal_up_to_units(a: LaurentPoly, b: LaurentPoly) -> bool:
    if a.nvars != b.nvars:
        return False
    return normalize(a) == normalize(b)


# ---------------------------------------------------------------------------
# division

def _divide_ordinary(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly | None:
    """Quotient p/q over Z for ordinary polynomials (min exponents 0), or None.

    ``exact_divide`` uses it in several variables.  Single-divisor
    graded-lex division on one remainder dict, updated in
    place.  If q divides p exactly the algorithm never meets a
    non-divisible lead term, so we abort early the moment one shows up.
    Each step cancels the remainder's lead term and adds only smaller
    ones, so every quotient exponent is new.
    """
    if q.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    quot: dict[Exponents, int] = {}
    rem = dict(p.terms)
    q_exps, q_lead = q.leading()
    while rem:
        r_exps = max(rem, key=grlex_key)
        d = tuple(map(sub, r_exps, q_exps))
        if any(e < 0 for e in d):
            return None
        c, r = divmod(rem[r_exps], q_lead)
        if r:
            return None
        quot[d] = c
        for e, qc in q.terms.items():
            m = tuple(map(add, e, d))
            s = rem.get(m, 0) - qc * c
            if s:
                rem[m] = s
            else:
                del rem[m]
    return _raw(p.nvars, quot)


def _ptrim(a: list[int]) -> list[int]:
    """a without its trailing zeros, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _pdivmod(a: list[int], b: list[int]) -> tuple[int, list[int], list[int]]:
    """(s, q, r) with s a = q b + r, s > 0 and r shorter than the nonzero
    b, for dense coefficient lists (constant term first).  Only a step
    where lead(b) does not divide the remainder's lead c scales the
    remainder, q and s by lead(b) / gcd(lead(b), c), so s = 1 when lead(b)
    is +-1 or b divides a over Z."""
    n = len(b)
    lead = b[-1]
    s = 1
    rem = list(a)
    quo = [0] * max(len(a) - n + 1, 0)
    while len(rem) >= n:
        shift = len(rem) - n
        factor, r = divmod(rem[-1], lead)
        if r:
            m = abs(lead) // int_gcd(lead, rem[-1])
            s *= m
            rem = [v * m for v in rem]
            quo = [v * m for v in quo]
            factor = rem[-1] // lead
        quo[shift] = factor
        rem[shift:] = map(sub, rem[shift:], map(mul, b, repeat(factor)))
        _ptrim(rem)
    return s, quo, rem


def _dense(p: LaurentPoly) -> tuple[int, list[int]]:
    """(least exponent e, coefficients of t^-e p, constant term first) of
    a nonzero univariate p."""
    low = min(e for e, in p.terms)
    coeffs = [0] * (max(e for e, in p.terms) - low + 1)
    for (e,), c in p.terms.items():
        coeffs[e - low] = c
    return low, coeffs


def exact_divide(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly | None:
    """Return c with p = q*c in Z[t^+-1], or None when there is none.

    Laurent divisibility reduces to ordinary divisibility after shifting
    both arguments to minimum exponent 0 (monomials are units).  In one
    variable that is one dense division with no scale and no remainder.
    A primitive q leaves no quotient over Q that is not integral (Gauss).
    """
    if p.nvars != q.nvars:
        raise ValueError("variable count mismatch")
    if q.is_zero:
        if p.is_zero:
            return LaurentPoly.one(p.nvars)
        return None
    if p.is_zero:
        return p
    if p.nvars == 1:
        (p_low, a), (q_low, b) = _dense(p), _dense(q)
        s, quo, rem = _pdivmod(a, b)
        if s != 1 or rem:
            return None
        return _raw(1, {(i + p_low - q_low,): c for i, c in enumerate(quo) if c})
    p_min = p.min_exponents()
    q_min = q.min_exponents()
    c = _divide_ordinary(p.shift(tuple(-e for e in p_min)),
                         q.shift(tuple(-e for e in q_min)))
    if c is None:
        return None
    return c.shift(tuple(a - b for a, b in zip(p_min, q_min)))
