"""Greatest common divisors in Q[t0^+-1, ..., tk^+-1].

Both arguments are first brought to unit-normal form: integer
coefficients with content 1 and least exponent 0 in every variable.
When either is zero or a unit the answer is immediate.  Otherwise two
routes are tried in this order, in every ring:

1. The heuristic gcd GCDHEU (Char, Geddes and Gonnet, J. Symbolic
   Comput. 7, 1989).  The last variable is evaluated at an integer xi,
   and so on down to one integer gcd.  At each level the integer
   content c common to f and g is split off first, and the gcd h and
   both cofactors are read back from the symmetric xi-adic digits of
   their images.  h is divided by the integer content kappa of its
   digits, and the cofactors are read from kappa times their images.
   The candidate is accepted only when h * cf = f and h * cg = g exactly:
   this multiply-back certificate needs no division.  Then c * h is the
   gcd over Z, content included, which the level above needs.
   xi starts at 2 max(|f|, |g|) + 2 (max-norms), so that the digits of
   the cofactors usually fit; it is never below 2 min(|f|, |g|) + 2, the
   CGG bound under which a certified common divisor is the greatest.
   (If G = h * q is the gcd, q(xi) divides kappa, and |kappa| <= xi / 2;
   a q of positive degree would have |q(xi)| > xi / 2, because the roots
   of a factor of f lie below 1 + |f|.)  A level that does not certify
   after ``_HEU_ATTEMPTS`` growing xi fails the whole heuristic at once.
   It is not tried when prod(deg_i + 1) times (the bit length of the
   larger max-norm + 2) passes ``_HEU_BITS``: that product is about the
   size of its integers.
2. One primitive remainder sequence (PRS) with pseudo-division in the
   last variable.  In one variable the primitive part is the
   unit-normal form; with more, contents over the smaller ring come from
   ``gcd`` itself, so every route applies again at every level.  The
   PRS stays as the only route past the bit budget and after a
   heuristic failure: it needs no bound to be right, where the
   heuristic may not certify, though on large inputs it can be slow.

Results are unit-normal, whichever route gives them.
"""

from __future__ import annotations

from math import gcd as int_gcd, isqrt
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
    if a.is_unit or b.is_unit:
        return LaurentPoly.one(a.nvars)
    h = _heuristic(a, b)
    if h is not None:
        return h
    if a.nvars == 1:
        return _prs(a, b, normalize)
    cont_a = _content_last(a)
    cont_b = _content_last(b)
    f = _prs(_primitive_last(a, cont_a), _primitive_last(b, cont_b), _primitive)
    return normalize(_embed(gcd(cont_a, cont_b)) * f)


def gcd_many(polys: Iterable[LaurentPoly], nvars: int | None = None) -> LaurentPoly:
    """Fold gcd over a sequence; stops early once the gcd is a unit."""
    result: LaurentPoly | None = None
    for p in polys:
        result = normalize(p) if result is None else gcd(result, p)
        if result.is_unit:
            return result
    if result is None:
        if nvars is None:
            raise ValueError("gcd of an empty sequence needs nvars")
        return LaurentPoly.zero(nvars)
    return result


# -- heuristic gcd on integer terms ------------------------------------------

_HEU_ATTEMPTS = 6
"""Growing evaluation points tried per level before the heuristic fails."""

_HEU_BITS = 1 << 18
"""Largest prod(deg_i + 1) * (bit length of the larger max-norm + 2)."""

_Terms = dict[tuple[int, ...], int]


def _heuristic(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """Unit-normal gcd of the unit-normal a and b, or None when the
    heuristic is over budget or does not certify a candidate."""
    size = max(map(abs, (*a.terms.values(), *b.terms.values()))).bit_length() + 2
    for da, db in zip(a.max_exponents(), b.max_exponents()):
        size *= max(da, db) + 1
    if size > _HEU_BITS:
        return None
    found = _heu(a.terms, b.terms, a.nvars)
    return None if found is None else normalize(_raw(a.nvars, found[0]))


def _heu(f: _Terms, g: _Terms, k: int) -> tuple[_Terms, _Terms, _Terms] | None:
    """(h, cf, cg) with h = gcd(f, g) over Z, h * cf = f and h * cg = g,
    for nonzero integer terms in k variables; None when some level fails."""
    if not k:
        x, y = f[()], g[()]
        h = int_gcd(x, y)
        return {(): h}, {(): x // h}, {(): y // h}
    c = int_gcd(*f.values(), *g.values())
    if c > 1:
        f = {e: v // c for e, v in f.items()}
        g = {e: v // c for e, v in g.items()}
    xi = 2 * max(map(abs, (*f.values(), *g.values()))) + 2
    for _ in range(_HEU_ATTEMPTS):
        found = _heu(_evaluate_last(f, xi), _evaluate_last(g, xi), k - 1)
        if found is None:
            return None
        h = _digits(found[0], xi, 1)
        kappa = int_gcd(*h.values())
        if kappa > 1:
            h = {e: v // kappa for e, v in h.items()}
        cf = _digits(found[1], xi, kappa)
        cg = _digits(found[2], xi, kappa)
        candidate = _raw(k, h)
        if (candidate * _raw(k, cf)).terms == f and (candidate * _raw(k, cg)).terms == g:
            if c > 1:
                h = {e: v * c for e, v in h.items()}
            return h, cf, cg
        # the usual GCDHEU growth, about (1 + sqrt 3) xi^(5/4), in integers
        xi = xi * isqrt(isqrt(xi)) * 73794 // 27011
    return None


def _evaluate_last(f: _Terms, xi: int) -> _Terms:
    """f with its last variable set to xi; no coefficient cancels, as xi
    exceeds twice the max-norm of f."""
    powers = [1]
    for _ in range(max(e[-1] for e in f)):
        powers.append(powers[-1] * xi)
    acc: _Terms = {}
    for e, v in f.items():
        key = e[:-1]
        acc[key] = acc.get(key, 0) + v * powers[e[-1]]
    return acc


def _digits(image: _Terms, xi: int, scale: int) -> _Terms:
    """The terms whose values at last variable xi are scale * image, read
    off as symmetric xi-adic digits, each in (-xi/2, xi/2]."""
    half = xi // 2
    acc: _Terms = {}
    for e, v in image.items():
        v *= scale
        i = 0
        while v:
            v, d = divmod(v, xi)
            if d > half:
                d -= xi
                v += 1
            if d:
                acc[e + (i,)] = d
            i += 1
    return acc


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
