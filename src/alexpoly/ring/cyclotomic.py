"""Cyclotomic polynomials and cyclotomic factor extraction.

An irreducible integer polynomial of degree k is cyclotomic exactly when
it divides t^n - 1 for some n with euler_phi(n) = k, and euler_phi(n) >=
sqrt(n/2) bounds the search by n <= 2*k^2.  We therefore trial-divide by
Phi_n for every candidate index n up to 2*deg(p)^2, skipping indices
whose phi exceeds the remaining degree.
"""

from __future__ import annotations

from functools import lru_cache

from .poly import LaurentPoly, exact_divide, normalize


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires a positive integer")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result = result // p * (p - 1)
        p += 1 if p == 2 else 2
    if m > 1:
        result = result // m * (m - 1)
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> LaurentPoly:
    """Phi_n, unit-normal (monic with integer coefficients)."""
    if n < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    if n == 1:
        return LaurentPoly.univariate({1: 1, 0: -1})
    p = LaurentPoly.univariate({n: 1, 0: -1})
    for d in _divisors(n):
        if d == n:
            continue
        q = exact_divide(p, cyclotomic_polynomial(d))
        if q is None:  # pragma: no cover - t^n - 1 is the product of the Phi_d
            raise ArithmeticError("cyclotomic recursion failed")
        p = q
    return normalize(p)


def cyclotomic_factorization(p: LaurentPoly) -> tuple[dict[int, int], LaurentPoly]:
    """Split off all cyclotomic factors of a nonzero univariate polynomial.

    Returns (multiplicities keyed by cyclotomic index, unit-normal
    remainder free of cyclotomic factors).
    """
    if p.nvars != 1:
        raise ValueError("cyclotomic factorization is univariate")
    if p.is_zero:
        raise ValueError("cyclotomic factorization requires a nonzero polynomial")
    rem = normalize(p)
    factors: dict[int, int] = {}
    if rem.is_constant:
        return factors, rem
    degree = rem.max_exponents()[0]
    bound = 2 * degree * degree
    for n in range(1, bound + 1):
        if rem.is_constant:
            break
        if euler_phi(n) > rem.max_exponents()[0]:
            continue
        phi_n = cyclotomic_polynomial(n)
        while True:
            q = exact_divide(rem, phi_n)
            if q is None:
                break
            rem = normalize(q)
            factors[n] = factors.get(n, 0) + 1
    return factors, rem
