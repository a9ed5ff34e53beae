"""Greatest common divisors in Q[t0^+-1, ..., tk^+-1].

Univariate base case: primitive polynomial remainder sequence over Z
(denominators cleared first).  Multivariate case recurses on the last
variable: split off contents, run a primitive PRS with pseudo-division
over the smaller ring.  Results are unit-normal.
"""

from __future__ import annotations

from typing import Iterable

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
        return _gcd_univariate(a, b)
    return _gcd_multivariate(a, b)


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


# -- univariate -------------------------------------------------------------


def _deg(p: LaurentPoly) -> int:
    return p.max_exponents()[0]


def _prem_univariate(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Pseudo-remainder of ordinary univariate polynomials, deg f >= deg g."""
    dg = _deg(g)
    lc_g = g.coefficient((dg,))
    r = f
    while not r.is_zero and _deg(r) >= dg:
        dr = _deg(r)
        lc_r = r.coefficient((dr,))
        r = r * lc_g - g.shift((dr - dg,)) * lc_r
    return r


def _gcd_univariate(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    f, g = (a, b) if _deg(a) >= _deg(b) else (b, a)
    while not g.is_zero:
        r = _prem_univariate(f, g)
        if not r.is_zero:
            r = normalize(r)  # primitive part; unit factors are irrelevant
        f, g = g, r
    return normalize(f)


# -- multivariate -----------------------------------------------------------


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


def _prem_multivariate(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    dg = _deg_last(g)
    lc_g = _lead_coeff_last(g)
    r = f
    while not r.is_zero and _deg_last(r) >= dg:
        dr = _deg_last(r)
        lc_r = _lead_coeff_last(r)
        shift = (0,) * (r.nvars - 1) + (dr - dg,)
        r = r * lc_g - g.shift(shift) * lc_r
    return r


def _gcd_multivariate(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    cont_a = _content_last(a)
    cont_b = _content_last(b)
    pp_a = _primitive_last(a, cont_a)
    pp_b = _primitive_last(b, cont_b)
    cont = gcd(cont_a, cont_b)

    f, g = (pp_a, pp_b) if _deg_last(pp_a) >= _deg_last(pp_b) else (pp_b, pp_a)
    while not g.is_zero:
        r = _prem_multivariate(f, g)
        if not r.is_zero:
            r = _primitive_last(r, _content_last(r))
        f, g = g, r
    f = _primitive_last(f, _content_last(f))
    return normalize(_embed(cont) * f)
