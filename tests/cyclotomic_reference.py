"""Reference cyclotomic extraction: the index scan with rational division.

Phi_n is built by dividing t^n - 1 by every Phi_d, d a proper divisor
of n, and the factorization trial-divides by Phi_n for every n up to
2*deg^2 (euler_phi(n) >= sqrt(n/2)), skipping indices whose phi exceeds
the remaining degree.  ``ring.cyclotomic_factorization`` walks only the
indices with small phi and divides integer lists; the tests check that
both give the same factors, in the same order, and the same remainder.
"""

from __future__ import annotations

from functools import lru_cache

from alexpoly.ring import LaurentPoly, exact_divide, normalize


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
    if n == 1:
        return LaurentPoly.univariate({1: 1, 0: -1})
    p = LaurentPoly.univariate({n: 1, 0: -1})
    for d in _divisors(n):
        if d != n:
            p = exact_divide(p, cyclotomic_polynomial(d))
    return normalize(p)


def cyclotomic_factorization(p: LaurentPoly) -> tuple[dict[int, int], LaurentPoly]:
    rem = normalize(p)
    factors: dict[int, int] = {}
    if rem.is_constant:
        return factors, rem
    degree = rem.max_exponents()[0]
    for n in range(1, 2 * degree * degree + 1):
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
