"""Differential tests: cyclotomic extraction against the index scan.

``ring.cyclotomic_factorization`` enumerates the indices with small
phi, filters them by integer evaluations and divides integer lists;
``cyclotomic_reference`` scans every index up to 2*deg^2 with rational
division.  Both must give the same factors in the same order and the
same remainder.  sympy, where installed, is the oracle for Phi_n.
"""

import random
from fractions import Fraction
from math import prod

import pytest

from alexpoly.errors import InputError
from alexpoly.ring import (MAX_DEGREE, LaurentPoly, cyclotomic_factorization,
                           cyclotomic_polynomial, exact_divide, parse_poly)
from alexpoly.ring import cyclotomic
from alexpoly.ring.cyclotomic import _candidates, _evaluate, _phi_coeffs

from cyclotomic_reference import cyclotomic_factorization as reference
from cyclotomic_reference import euler_phi


def _random_input(rng: random.Random) -> LaurentPoly:
    scale = Fraction(rng.choice((1, -1, 2, -6, 15)), rng.choice((1, 2, 7)))
    p = LaurentPoly.monomial(scale, (rng.randint(-6, 6),))
    for _ in range(rng.randint(0, 4)):
        n = rng.choice((1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 20, 24, 30))
        p = p * cyclotomic_polynomial(n) ** rng.randint(1, 3)
    if rng.random() < 0.2:  # roots at 2 and 3 move the evaluation point
        p = p * LaurentPoly.univariate({1: 1, 0: -2})
        p = p * LaurentPoly.univariate({1: 1, 0: -3}) ** rng.randint(0, 1)
    if rng.random() < 0.6:
        degree = rng.randint(1, 6)
        q = {i: rng.randint(-4, 4) for i in range(degree)}
        q[degree] = rng.choice((1, -1, 2, 3))
        p = p * LaurentPoly.univariate(q)
    return p


def test_factorization_matches_reference():
    rng = random.Random(20261018)
    seen_cyclotomic_free = seen_repeated = compared = 0
    for _ in range(300):
        p = _random_input(rng)
        if p.max_exponents()[0] - p.min_exponents()[0] > 24:
            continue
        compared += 1
        factors, rem = cyclotomic_factorization(p)
        ref_factors, ref_rem = reference(p)
        assert list(factors.items()) == list(ref_factors.items()), p
        assert rem == ref_rem, p
        seen_cyclotomic_free += not factors and not rem.is_constant
        seen_repeated += any(k > 1 for k in factors.values())
    assert compared > 150 and seen_cyclotomic_free and seen_repeated


@pytest.mark.parametrize("text", ["t^30 - 1", "t^30 + 2", "2*t^12 + 3",
                                  "t^-5 + t^7", "6*t^4 - 6"])
def test_sparse_inputs_match_reference(text):
    p = parse_poly(text)
    assert cyclotomic_factorization(p) == reference(p)


def test_candidates_are_the_indices_with_small_phi():
    for k in range(1, 61):
        expected = [n for n in range(1, 2 * k * k + 1) if euler_phi(n) <= k]
        found = _candidates(k)
        assert [n for n, _, _ in found] == expected, k
        assert all(phi == euler_phi(n) for n, phi, _ in found)


def test_cyclotomic_polynomial_matches_sympy():
    # sympy serves as an independent oracle; it is never a runtime dependency
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 501):
        coeffs = sympy.cyclotomic_poly(n, x, polys=True).all_coeffs()
        expected = LaurentPoly.univariate(
            {i: int(c) for i, c in enumerate(reversed(coeffs)) if c})
        assert cyclotomic_polynomial(n) == expected, n


def test_degree_limit():
    top = LaurentPoly.univariate({MAX_DEGREE: 1, 0: -1})
    factors, rem = cyclotomic_factorization(top)
    assert rem.is_unit and sum(euler_phi(n) for n in factors) == MAX_DEGREE
    for terms in ({MAX_DEGREE + 1: 1, 0: 2}, {MAX_DEGREE: 1, -1: 1},
                  {10 ** 12: 1, 0: -1}):
        with pytest.raises(InputError, match=f"limit {MAX_DEGREE}"):
            cyclotomic_factorization(LaurentPoly.univariate(terms))


def test_phi_at_bound_behind_the_gcd_filter():
    # the filter skips n when 4 gcd(a(x), x^n - 1) <= x^phi(n), sound
    # only while 4 Phi_n(x) > x^phi(n); extraction evaluates Phi_n(x) as
    # Phi_r(x^step), r = rad(n), step = n / r, on every step-th coefficient
    for n, phi, support in _candidates(MAX_DEGREE):
        phi_n = _phi_coeffs(n, phi, support)
        step = n // prod(support)
        for x in (2, 3, 5):
            value = _evaluate(phi_n, x)
            assert _evaluate(phi_n[::step], x ** step) == value, (n, x)
            assert 4 * value > x ** phi, (n, x)


def _repeated_product(rng: random.Random) -> tuple[LaurentPoly, bool]:
    """Two Phi_n squared to fourth power times non-cyclotomic factors, and
    whether t - 2, a root at 2 that moves the evaluation to x >= 3, is one
    of them."""
    p = LaurentPoly.monomial(rng.choice((1, -3)), (rng.randint(-4, 4),))
    for n in rng.sample((1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 15), 2):
        p = p * cyclotomic_polynomial(n) ** rng.randint(2, 4)
    moved = rng.random() < 0.4
    if moved:
        p = p * LaurentPoly.univariate({1: 1, 0: -2})
    for _ in range(rng.randint(0, 2)):
        degree = rng.randint(1, 4)
        q = {i: rng.randint(-5, 5) for i in range(degree)}
        q[degree] = rng.choice((1, 2, -3))
        p = p * LaurentPoly.univariate(q)
    return p, moved


def test_repeated_factors_match_reference():
    # each accepted Phi_n is divided again only while Phi_n(x) divides a(x)
    rng = random.Random(2702)
    moved = 0
    for _ in range(80):
        p, at_three = _repeated_product(rng)
        factors, rem = cyclotomic_factorization(p)
        ref_factors, ref_rem = reference(p)
        assert list(factors.items()) == list(ref_factors.items()), p
        assert rem == ref_rem, p
        assert sum(k > 1 for k in factors.values()) >= 2, p
        moved += at_three
    assert moved > 20


def _counting(monkeypatch, name: str) -> list[int]:
    calls = [0]
    inner = getattr(cyclotomic, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(cyclotomic, name, counted)
    return calls


def test_gcd_filter_leaves_few_phi_values(monkeypatch):
    # 242 indices have phi(n) <= 120; the gcd with x^n - 1 refuses most,
    # and Phi_n(x) divides a(x) for 4 of the 7 that are left
    calls = _counting(monkeypatch, "_phi_coeffs")
    divisions = _counting(monkeypatch, "_divide")
    factors, rem = cyclotomic_factorization(parse_poly("t^120 + 2"))
    assert not factors and rem == parse_poly("t^120 + 2")
    assert calls[0] <= 16
    assert divisions[0] == 4


@pytest.mark.parametrize("n, divisions", [(360, 22), (720, 28), (1000, 15)])
def test_gcd_filter_worst_case(monkeypatch, n, divisions):
    # a(2) = 2^n - 1, so both integer tests pass for every divisor d of n,
    # and for Phi_6(2) = 3 at every even n; the tests at 1 and -1 refuse
    # d = 1, 2.  Every root of 2 t^(n-1) - 1 has modulus 2^(-1/(n-1)), so
    # none is a root of unity and every division fails
    calls = _counting(monkeypatch, "_divide")
    p = LaurentPoly.univariate({n - 1: 2, 0: -1})
    assert cyclotomic_factorization(p) == ({}, p)
    assert calls[0] == divisions
    indices = {d for d in range(3, n + 1) if n % d == 0} | {6}
    assert divisions == len(indices)


def test_one_division_per_factor(monkeypatch):
    # Phi_1(2) = 1 and Phi_2(2) = Phi_6(2) = 3: the tests at 1 and -1
    # refuse the divisions that a(2) lets through
    calls = _counting(monkeypatch, "_divide")
    p = parse_poly("t^2 - t + 1") ** 3 * parse_poly("t - 1") ** 2
    assert cyclotomic_factorization(p) == ({1: 2, 6: 3}, LaurentPoly.one(1))
    assert calls[0] == 5


@pytest.mark.parametrize("powers", [{1: 1000}, {1: 200, 6: 300}])
def test_divisions_logarithmic_in_multiplicity(monkeypatch, powers):
    # Phi_n^m is divided out by powers Phi_n^(2^k): at most 2 ceil(log2 m) + 2
    # divisions per factor, and no other index reaches a division
    divisors = []
    inner = cyclotomic._divide

    def counted(a, b):
        divisors.append(LaurentPoly.univariate(dict(enumerate(b))))
        return inner(a, b)

    p = prod((cyclotomic_polynomial(n) ** m for n, m in powers.items()),
             start=LaurentPoly.one(1))
    want = reference(p)
    monkeypatch.setattr(cyclotomic, "_divide", counted)
    factors, rem = cyclotomic_factorization(p)
    assert (factors, rem) == want == (powers, LaurentPoly.one(1))
    for n, m in powers.items():
        phi_n = cyclotomic_polynomial(n)
        count = sum(exact_divide(b, phi_n) is not None for b in divisors)
        assert count <= 2 * (m - 1).bit_length() + 2, (n, count)
    assert len(divisors) <= sum(2 * (m - 1).bit_length() + 2
                                for m in powers.values())
