"""Hand-written reference arithmetic, independent of the package under test.

Polynomials are dicts from monomials to Fractions; a monomial is a sorted
tuple of (variable, exponent) pairs, where variable ``t`` is 0 and ``tN``
is N.  ``parse`` reads the CLI's text format; ``same_up_to_units``
compares two Laurent polynomials up to a monomial and a nonzero scalar.
"""

from __future__ import annotations

import re
from fractions import Fraction

Poly = dict[tuple[tuple[int, int], ...], Fraction]

_COEFF_RE = re.compile(r"^\d+(?:/\d+)?$")
_VAR_RE = re.compile(r"^t(\d*)(?:\^(-?\d+))?$")
_PHI_RE = re.compile(r"^Phi_(\d+)(?:\^(\d+))?$")


def monomial(powers: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((v, e) for v, e in powers.items() if e))


def poly(*terms: tuple[int, dict[int, int]]) -> Poly:
    """poly((1, {0: 2}), (-1, {})) is t^2 - 1."""
    out: Poly = {}
    for coeff, powers in terms:
        key = monomial(powers)
        out[key] = out.get(key, Fraction(0)) + coeff
    return {k: c for k, c in out.items() if c}


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            powers = dict(ka)
            for v, e in kb:
                powers[v] = powers.get(v, 0) + e
            key = monomial(powers)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


def power(a: Poly, n: int) -> Poly:
    out = poly((1, {}))
    for _ in range(n):
        out = mul(out, a)
    return out


def parse(text: str) -> Poly:
    """Read text like 't^2 - 2*t + 1' or 't0*t1 - 1'; ValueError otherwise."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial")
    out: Poly = {}
    for term in text.replace(" - ", " + -").split(" + "):
        coeff = Fraction(1)
        if term.startswith("-"):
            coeff, term = -coeff, term[1:]
        powers: dict[int, int] = {}
        for factor in term.split("*"):
            if _COEFF_RE.match(factor):
                coeff *= Fraction(factor)
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise ValueError(f"cannot read {factor!r} in {text!r}")
            var = int(m.group(1)) if m.group(1) else 0
            powers[var] = powers.get(var, 0) + int(m.group(2) or 1)
        key = monomial(powers)
        out[key] = out.get(key, Fraction(0)) + coeff
    return {k: c for k, c in out.items() if c}


def parse_cyclotomic(text: str) -> dict[int, int]:
    """Read 'Phi_1^2 * Phi_6' into {1: 2, 6: 1}; ValueError otherwise."""
    out: dict[int, int] = {}
    for factor in text.strip().split(" * "):
        m = _PHI_RE.match(factor)
        if not m:
            raise ValueError(f"cannot read {factor!r} in {text!r}")
        out[int(m.group(1))] = out.get(int(m.group(1)), 0) + int(m.group(2) or 1)
    return out


def _unit_normal(p: Poly) -> Poly:
    if not p:
        return p
    variables = {v for key in p for v, _ in key}
    low = {v: min(dict(key).get(v, 0) for key in p) for v in variables}
    shifted = {}
    for key, c in p.items():
        powers = dict(key)
        shifted[monomial({v: powers.get(v, 0) - low[v] for v in variables})] = c
    lead = shifted[max(shifted)]
    return {k: c / lead for k, c in shifted.items()}


def same_up_to_units(a: Poly, b: Poly) -> bool:
    return _unit_normal(a) == _unit_normal(b)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]
