"""Cyclotomic polynomials and cyclotomic factor extraction.

An irreducible integer polynomial of degree k is cyclotomic exactly when
it divides t^n - 1 for some n with euler_phi(n) = k.  Extraction works on
dense integer coefficient lists (constant term first):

* **Candidates.**  The indices n with phi(n) <= deg are enumerated
  directly, by a depth-first walk over prime powers p^a with
  p <= deg + 1 (p - 1 divides phi(n)) that multiplies phi as it goes.
  Degree 120 gives 242 indices, the largest 462, with no scan.
* **Phi_n.**  For the radical r of n (the product of its distinct
  primes), Phi_r is the product over d | r of (1 - t^d)^mu(r/d), mu the
  Moebius function, truncated at degree phi(r): each factor is one
  in-place pass over an int list.  Then Phi_n(t) = Phi_r(t^(n/r)).
* **Filter.**  x is the smallest integer >= 2 that is not a root of the
  remainder a; a(x) is updated by exact division along with a.  If Phi_n
  divides a, then Phi_n(x) divides g = gcd(a(x), x^n - 1), and Phi_n(x)
  = x^phi prod_{d|n} (1 - x^-d)^mu(n/d) > x^phi prod_{d>=1} (1 - 2^-d)
  > x^phi / 4.  So n is skipped when 4 g <= x^phi.  Otherwise Phi_n(x)
  is read off the coefficients of Phi_n that the certificate divides by,
  as Phi_r(x^(n/r)) from the phi(r) + 1 of them that can be nonzero, and
  each division by a power Phi_n^j, the first included, is tried only
  while Phi_n(x)^j divides a(x), or for Phi_1, Phi_2 = t -+ 1 while
  a(+-1) = 0.
* **Certificate.**  Each remaining candidate is tried by integer
  synthetic division of the primitive remainder by the monic Phi_n; a
  nonzero remainder means it does not divide.  By Gauss's lemma the
  quotient stays primitive with a positive leading coefficient.  After
  a division the divisor doubles, Phi_n^(2^k) for k = 0, 0, 1, 2, ...,
  and once one fails each smaller power is tried once, so Phi_n^m costs
  O(log m) divisions.

Inputs above ``MAX_DEGREE`` are refused before any dense list exists.
"""

from __future__ import annotations

from math import gcd, isqrt, prod

from ..errors import InputError
from .poly import LaurentPoly, _dense, _raw, normalize

#: Largest normalized degree (top minus bottom exponent) that
#: ``cyclotomic_factorization`` accepts.  At this degree, in a fresh
#: process, ``t^1000 + 2`` takes 12-16 ms, dense random input 17-24 ms
#: and ``(t - 1)^1000``, in 15 divisions, 75-80 ms (CPython 3.11 on a
#: shared Intel Xeon core).
MAX_DEGREE = 1000


def check_degree(p: LaurentPoly) -> None:
    """Raise InputError when univariate ``p`` exceeds ``MAX_DEGREE``."""
    if p.is_zero:
        return
    degree = p.max_exponents()[0] - p.min_exponents()[0]
    if degree > MAX_DEGREE:
        raise InputError(
            f"degree {degree} exceeds the cyclotomic extraction limit "
            f"{MAX_DEGREE}")


def _primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if sieve[p]]


def _candidates(k: int) -> list[tuple[int, int, list[int]]]:
    """(n, phi(n), primes of n) for every n with phi(n) <= k, by n."""
    primes = _primes(k + 1)
    found = [(1, 1, [])]

    def walk(start: int, n: int, phi: int, support: list[int]) -> None:
        for i in range(start, len(primes)):
            p = primes[i]
            f = phi * (p - 1)
            if f > k:
                break
            m, m_support = n * p, support + [p]
            while f <= k:
                found.append((m, f, m_support))
                walk(i + 1, m, f, m_support)
                m *= p
                f *= p

    walk(0, 1, 1, [])
    found.sort()
    return found


def _phi_coeffs(n: int, phi: int, support: list[int]) -> list[int]:
    """Coefficients of Phi_n, constant term first; ``support`` holds the
    primes of n and ``phi`` is euler_phi(n)."""
    if n == 1:  # the product formula in 1 - t^d holds for n > 1
        return [-1, 1]
    rad = prod(support)
    top = phi * rad // n  # euler_phi(rad)
    # (d, mu(rad/d) == -1) for the divisors d of rad
    divisors = [(1, len(support) % 2 == 1)]
    for p in support:
        divisors += [(d * p, not odd) for d, odd in divisors]
    c = [1] + [0] * top
    for d, odd in divisors:
        if odd:  # divide by 1 - t^d: multiply by 1 + t^d + t^2d + ...
            for i in range(d, top + 1):
                c[i] += c[i - d]
        else:  # multiply by 1 - t^d
            for i in range(top, d - 1, -1):
                c[i] -= c[i - d]
    step = n // rad
    if step == 1:
        return c
    out = [0] * (phi + 1)
    out[::step] = c
    return out


def _divide(a: list[int], b: list[int]) -> list[int] | None:
    """Quotient a / b for monic b when the division is exact, else None."""
    m = len(b) - 1
    terms = [(j, bj) for j, bj in enumerate(b[:m]) if bj]
    r = a[:]
    q = [0] * (len(a) - m)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + m]
        if c:
            q[i] = c
            for j, bj in terms:
                r[i + j] -= c * bj
    if any(r[:m]):
        return None
    return q


def _divide_out(n: int, a: list[int], value: int, phi_n: list[int],
                phi_value: int) -> tuple[int, list[int], int]:
    """(m, a / Phi_n^m, value / Phi_n(x)^m) for the multiplicity m of
    Phi_n in a, given value = a(x) and phi_value = Phi_n(x).

    The divisors are powers Phi_n^(2^k): one copy, then as many copies as
    are taken so far, while each division goes.  Once one fails, fewer
    than 2^k copies are left, and each smaller power is tried once, so
    multiplicity m costs at most 2 ceil(log2 m) + 2 divisions; m = 1
    costs one, and a second only when Phi_n(x) still divides a(x).
    Phi_n^(2^k) is built only when Phi_n(x)^(2^k) divides a(x), or for
    Phi_1 and Phi_2 after a division by the power below it.
    """
    powers = [(phi_n, phi_value)]  # Phi_n^(2^k) and Phi_n(x)^(2^k)
    taken = k = 0
    while True:
        if k == len(powers):
            below, below_value = powers[-1]
            if not _may_divide(n, a, value, 2 * len(below) - 1, below_value ** 2):
                break
            powers.append((_square(below), below_value ** 2))
        power, power_value = powers[k]
        if not _may_divide(n, a, value, len(power), power_value):
            break
        q = _divide(a, power)
        if q is None:
            break
        a, value, taken = q, value // power_value, taken + (1 << k)
        k = taken.bit_length() - 1
    for k in range(k - 1, -1, -1):
        power, power_value = powers[k]
        if _may_divide(n, a, value, len(power), power_value):
            q = _divide(a, power)
            if q is not None:
                a, value, taken = q, value // power_value, taken + (1 << k)
    return taken, a, value


def _square(a: list[int]) -> list[int]:
    out = [0] * (2 * len(a) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(a):
                out[i + j] += c * d
    return out


def _may_divide(n: int, a: list[int], value: int, size: int,
                phi_value: int) -> bool:
    """False when a power of Phi_n with ``size`` coefficients cannot
    divide a, given value = a(x) and phi_value, that power at x."""
    if size > len(a):
        return False
    if n == 1:
        return not sum(a)
    if n == 2:
        return sum(a[::2]) == sum(a[1::2])
    return not value % phi_value


def _evaluate(coeffs: list[int], x: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def cyclotomic_polynomial(n: int) -> LaurentPoly:
    """Phi_n, unit-normal (monic with integer coefficients)."""
    if n < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    support, phi, m, p = [], 1, n, 2
    while m > 1:
        if p * p > m:
            p = m  # what is left of n is prime
        if m % p == 0:
            support.append(p)
            phi *= p - 1
            m //= p
            while m % p == 0:
                phi *= p
                m //= p
        p += 1
    coeffs = _phi_coeffs(n, phi, support)
    return LaurentPoly.univariate({i: c for i, c in enumerate(coeffs) if c})


def cyclotomic_factorization(p: LaurentPoly) -> tuple[dict[int, int], LaurentPoly]:
    """Split off all cyclotomic factors of a nonzero univariate polynomial.

    Returns (multiplicities keyed by cyclotomic index, in increasing
    order; unit-normal remainder free of cyclotomic factors).  Raises
    InputError past ``MAX_DEGREE``.
    """
    if p.nvars != 1:
        raise ValueError("cyclotomic factorization is univariate")
    if p.is_zero:
        raise ValueError("cyclotomic factorization requires a nonzero polynomial")
    check_degree(p)
    rem = normalize(p)
    factors: dict[int, int] = {}
    if rem.is_constant:
        return factors, rem
    coeffs = _dense(rem)[1]
    x = 2  # the smallest integer >= 2 that is not a root
    value = _evaluate(coeffs, x)
    while value == 0:
        x += 1
        value = _evaluate(coeffs, x)
    for n, phi, support in _candidates(len(coeffs) - 1):
        if phi >= len(coeffs) or 4 * gcd(value, x ** n - 1) <= x ** phi:
            continue
        phi_n = _phi_coeffs(n, phi, support)
        step = n // prod(support)  # Phi_n(t) = Phi_rad(n)(t^step)
        phi_value = _evaluate(phi_n[::step], x ** step)
        taken, coeffs, value = _divide_out(n, coeffs, value, phi_n, phi_value)
        if taken:
            factors[n] = taken
        if len(coeffs) == 1:
            break
    return factors, _raw(1, {(i,): c for i, c in enumerate(coeffs) if c})
