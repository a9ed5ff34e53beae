"""Reference gcd: the primitive remainder sequence alone, and the
division that rebuilds the remainder polynomial at every step.

``ring.gcd`` returns early when an argument is a unit, tries the
heuristic gcd (GCDHEU) before the remainder sequence, and
``ring.poly._divide_ordinary`` updates one remainder dict in place.
This module keeps the previous code, which always runs the remainder
sequence (PRS): that PRS is what the heuristic is checked against, so
the tests can check that both give the same unit-normal gcd and the
same quotients.  Its division runs over Q on ``Fraction`` terms of its
own and refuses a quotient that is not integral, where the package
divides over Z.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from alexpoly.ring.poly import LaurentPoly, grlex_key, normalize, _raw

_ZERO_FRAC = Fraction(0)
Exponents = tuple[int, ...]


def _divide_ordinary(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly | None:
    """Quotient p/q over Z for ordinary polynomials (min exponents 0), or
    None.

    Single-divisor graded-lex division over Q, on ``Fraction`` terms of
    its own.  If q divides p exactly the algorithm never meets a
    non-divisible lead term, so we abort early the moment one shows up;
    a quotient over Q that is not integral is None too.
    """
    if q.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    quot: dict[Exponents, Fraction] = {}
    r = {e: Fraction(c) for e, c in p.terms.items()}
    q_exps, q_lead = q.leading()
    while r:
        r_exps = max(r, key=grlex_key)
        d = tuple(a - b for a, b in zip(r_exps, q_exps))
        if any(e < 0 for e in d):
            return None
        c = r[r_exps] / q_lead
        quot[d] = quot.get(d, _ZERO_FRAC) + c
        product = {tuple(a + b for a, b in zip(e, d)): v * c for e, v in q.terms.items()}
        r = {e: v for e in r.keys() | product.keys()
             if (v := r.get(e, _ZERO_FRAC) - product.get(e, _ZERO_FRAC))}
    if any(c.denominator != 1 for c in quot.values()):
        return None
    return _raw(p.nvars, {e: c.numerator for e, c in quot.items() if c})


def exact_divide(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly | None:
    """Return c with p = q*c in Z[t^+-1], or None when there is none.

    Laurent divisibility reduces to ordinary divisibility after shifting
    both arguments to minimum exponent 0 (monomials are units).
    """
    if p.nvars != q.nvars:
        raise ValueError("variable count mismatch")
    if q.is_zero:
        if p.is_zero:
            return LaurentPoly.one(p.nvars)
        return None
    if p.is_zero:
        return p
    p_min = p.min_exponents()
    q_min = q.min_exponents()
    c = _divide_ordinary(p.shift(tuple(-e for e in p_min)),
                         q.shift(tuple(-e for e in q_min)))
    if c is None:
        return None
    return c.shift(tuple(a - b for a, b in zip(p_min, q_min)))


def gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    if a.nvars != b.nvars:
        raise ValueError("variable count mismatch")
    if a.is_zero:
        return normalize(b)
    if b.is_zero:
        return normalize(a)
    a = normalize(a)
    b = normalize(b)
    if a.nvars == 1:
        return _prs(a, b, normalize)
    cont_a = _content_last(a)
    cont_b = _content_last(b)
    f = _prs(_primitive_last(a, cont_a), _primitive_last(b, cont_b), _primitive)
    return normalize(_embed(gcd(cont_a, cont_b)) * f)


def gcd_many(polys: Iterable[LaurentPoly], nvars: int | None = None) -> LaurentPoly:
    """Fold gcd over a sequence; stops early once the gcd is a unit."""
    result: LaurentPoly | None = None
    one = None
    for p in polys:
        result = normalize(p) if result is None else gcd(result, p)
        if one is None:
            one = LaurentPoly.one(result.nvars)
        if result == one:
            return result
    if result is None:
        if nvars is None:
            raise ValueError("gcd of an empty sequence needs nvars")
        return LaurentPoly.zero(nvars)
    return result


# -- primitive remainder sequence in the last variable ----------------------


def _deg_last(p: LaurentPoly) -> int:
    return max(e[-1] for e in p.terms)


def _lead_coeff_last(p: LaurentPoly) -> LaurentPoly:
    """Leading coefficient w.r.t. the last variable, embedded with exponent 0."""
    d = _deg_last(p)
    return _raw(p.nvars, {e[:-1] + (0,): c for e, c in p.terms.items() if e[-1] == d})


def _coefficients_last(p: LaurentPoly) -> list[LaurentPoly]:
    """Coefficient polynomials (one variable fewer) of powers of the last variable."""
    return [_raw(p.nvars - 1, terms) for terms in _group_by_last(p).values()]


def _embed(p: LaurentPoly) -> LaurentPoly:
    """Embed a (k-1)-variable polynomial into k variables (last exponent 0)."""
    return _raw(p.nvars + 1, {e + (0,): c for e, c in p.terms.items()})


def _content_last(p: LaurentPoly) -> LaurentPoly:
    return gcd_many(_coefficients_last(p), nvars=p.nvars - 1)


def _primitive_last(p: LaurentPoly, content: LaurentPoly) -> LaurentPoly:
    if content.is_unit:
        return p
    acc: dict = {}
    for e, c_dict in _group_by_last(p).items():
        coeff_poly = _raw(p.nvars - 1, c_dict)
        q = exact_divide(coeff_poly, content)
        if q is None:  # pragma: no cover - content divides by construction
            raise ArithmeticError("content does not divide coefficient")
        for sub_e, c in q.terms.items():
            acc[sub_e + (e,)] = c
    return _raw(p.nvars, acc)


def _group_by_last(p: LaurentPoly) -> dict[int, dict]:
    acc: dict[int, dict] = {}
    for e, c in p.terms.items():
        acc.setdefault(e[-1], {})[e[:-1]] = c
    return acc


def _primitive(p: LaurentPoly) -> LaurentPoly:
    return _primitive_last(p, _content_last(p))


def _prem(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    dg = _deg_last(g)
    lc_g = _lead_coeff_last(g)
    r = f
    while not r.is_zero and _deg_last(r) >= dg:
        dr = _deg_last(r)
        lc_r = _lead_coeff_last(r)
        shift = (0,) * (r.nvars - 1) + (dr - dg,)
        r = r * lc_g - g.shift(shift) * lc_r
    return r


def _prs(a: LaurentPoly, b: LaurentPoly,
         primitive: Callable[[LaurentPoly], LaurentPoly]) -> LaurentPoly:
    """Primitive part of the last nonzero remainder of the sequence
    started by a and b, both primitive in the last variable."""
    f, g = (a, b) if _deg_last(a) >= _deg_last(b) else (b, a)
    while not g.is_zero:
        r = _prem(f, g)
        if not r.is_zero:
            r = primitive(r)
        f, g = g, r
    return primitive(f)
