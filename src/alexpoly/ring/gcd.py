"""Greatest common divisors in Q[t0^+-1, ..., tk^+-1].

One primitive remainder sequence (PRS) with pseudo-division in the last
variable serves every ring.  In one variable the primitive part is the
unit-normal form; with more, contents over the smaller ring are split
off by recursion.  Results are unit-normal.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .poly import LaurentPoly, exact_divide, normalize, _raw


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
