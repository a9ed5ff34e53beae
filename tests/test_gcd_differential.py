"""Differential tests: gcd with its shortcuts against the remainder sequence.

``ring.gcd`` returns 1 when an argument is a unit and the divisor when
one argument divides the other, and runs the primitive remainder
sequence otherwise; ``gcd_reference`` always runs the sequence.  Both
results are unit-normal, so they must be equal, not only associates.
``ring.poly._divide_ordinary`` updates one remainder dict in place, and
in one variable ``exact_divide`` runs one dense long division instead;
the reference rebuilds the remainder polynomial at every step, and all
must give the same quotient or the same refusal.  sympy, where installed, is
an independent oracle up to units.
"""

import random
from fractions import Fraction

import pytest

from alexpoly.ring import LaurentPoly, exact_divide, gcd, gcd_many, normalize
from alexpoly.ring.poly import _divide_ordinary

import gcd_reference as reference


def _random_poly(rng: random.Random, nvars: int, terms: int | None = None,
                 degree: int = 3) -> LaurentPoly:
    """Random Laurent polynomial with small integer coefficients, shifted
    by a monomial with negative exponents and scaled by a fraction."""
    count = rng.randint(1, 4) if terms is None else terms
    p = LaurentPoly(nvars, [(tuple(rng.randint(0, degree) for _ in range(nvars)),
                             rng.choice((1, -1, 2, -3, 5)))
                            for _ in range(count)])
    if p.is_zero:
        p = LaurentPoly.one(nvars)
    scale = Fraction(rng.choice((1, -1, 3, -4)), rng.choice((1, 2, 9)))
    return p.shift(tuple(rng.randint(-3, 1) for _ in range(nvars))) * scale


def _unit(rng: random.Random, nvars: int) -> LaurentPoly:
    return LaurentPoly.monomial(Fraction(rng.choice((1, -2, 7)), rng.choice((1, 3))),
                                tuple(rng.randint(-4, 4) for _ in range(nvars)))


def _pair(rng: random.Random, nvars: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Two polynomials drawn from one of the shapes the shortcuts and the
    remainder sequence must agree on."""
    shape = rng.choice(("common", "common", "divides", "divided", "unit",
                        "zero", "coprime"))
    a = _random_poly(rng, nvars)
    b = _random_poly(rng, nvars)
    if shape == "common":
        g = _random_poly(rng, nvars, terms=rng.randint(1, 3), degree=2)
        return a * g, b * g
    if shape == "divides":
        return a, a * b * _unit(rng, nvars)
    if shape == "divided":
        return a * b * _unit(rng, nvars), b
    if shape == "unit":
        return (_unit(rng, nvars), b) if rng.random() < 0.5 else (a, _unit(rng, nvars))
    if shape == "zero":
        return (LaurentPoly.zero(nvars), b) if rng.random() < 0.5 else (a, LaurentPoly.zero(nvars))
    return a, b


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_gcd_matches_remainder_sequence(nvars):
    rng = random.Random(5000 + nvars)
    for _ in range(150 if nvars < 3 else 60):
        a, b = _pair(rng, nvars)
        expected = reference.gcd(a, b)
        assert gcd(a, b) == expected, (a, b)
        assert gcd(b, a) == expected, (a, b)


def test_gcd_of_units_and_zero():
    for nvars in (1, 2, 3):
        one = LaurentPoly.one(nvars)
        zero = LaurentPoly.zero(nvars)
        unit = LaurentPoly.monomial(Fraction(-3, 7), (-2,) + (5,) * (nvars - 1))
        p = LaurentPoly(nvars, {(0,) * nvars: 1, (1,) * nvars: -1})
        assert gcd(unit, p) == one == reference.gcd(unit, p)
        assert gcd(zero, zero) == zero == reference.gcd(zero, zero)
        assert gcd(zero, unit) == one == reference.gcd(zero, unit)
        assert gcd(p.shift((-4,) * nvars) * Fraction(2, 3), zero) == normalize(p)


def _sparse_link(j: int, k: int) -> LaurentPoly:
    """(t_j - 1)(t0 ... t8 - 1)^k in nine variables."""
    t_j = LaurentPoly.monomial(1, (0,) * j + (1,) + (0,) * (8 - j))
    product = LaurentPoly.monomial(1, (1,) * 9)
    return (t_j - 1) * (product - 1) ** k


def test_gcd_of_sparse_nine_variable_minors():
    # the minors of the torus link T(9,9): one real gcd, then divisions
    minors = [_sparse_link(j, k) for j, k in ((0, 7), (3, 7), (8, 6), (5, 7), (0, 6))]
    core = normalize((LaurentPoly.monomial(1, (1,) * 9) - 1) ** 6)
    running = expected = LaurentPoly.zero(9)
    for m in minors:
        running = gcd(running, m)
        expected = reference.gcd(expected, m)
        assert running == expected
    assert running == core
    assert gcd_many(minors) == reference.gcd_many(minors) == core
    assert gcd(_sparse_link(2, 3), _sparse_link(2, 1)) == normalize(_sparse_link(2, 1))


def test_gcd_many_matches_reference():
    rng = random.Random(77)
    for _ in range(60):
        nvars = rng.randint(1, 3)
        g = _random_poly(rng, nvars, terms=rng.randint(1, 3), degree=2)
        polys = [_random_poly(rng, nvars) * g for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            polys.insert(rng.randrange(len(polys) + 1), LaurentPoly.zero(nvars))
        assert gcd_many(polys) == reference.gcd_many(polys), polys
    assert gcd_many([], nvars=2) == reference.gcd_many([], nvars=2) == LaurentPoly.zero(2)


def test_gcd_matches_sympy():
    # sympy serves as an independent oracle; it is never a runtime dependency
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    for _ in range(150):
        nvars = rng.randint(1, 3)
        syms = sympy.symbols(f"t0:{nvars}")
        a, b = _pair(rng, nvars)
        # Laurent polynomials become ordinary after normalize; units and
        # the zero case are compared after normalizing sympy's answer too
        exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                     * sympy.Mul(*[s ** e for s, e in zip(syms, exps)])
                     for exps, c in normalize(p).terms.items())
                 for p in (a, b)]
        g = sympy.Poly(sympy.gcd(exprs[0], exprs[1]), *syms, domain=sympy.QQ)
        expected = LaurentPoly(nvars, [(m, Fraction(int(c.p), int(c.q)))
                                       for m, c in g.terms() if c])
        assert gcd(a, b) == normalize(expected), (a, b)


def test_divide_ordinary_matches_reference():
    rng = random.Random(31337)
    for _ in range(300):
        nvars = rng.randint(1, 3)
        q = normalize(_random_poly(rng, nvars))
        c = normalize(_random_poly(rng, nvars))
        divisible = q * c
        near = divisible + _random_poly(rng, nvars, terms=1)
        other = normalize(_random_poly(rng, nvars, terms=rng.randint(1, 5)))
        for p in (divisible, near, other):
            p = normalize(p)
            got = _divide_ordinary(p, q)
            want = reference._divide_ordinary(p, q)
            assert got == want, (p, q)
            if got is not None:
                assert q * got == p
                assert list(got.terms) == list(want.terms)


def test_exact_divide_matches_reference():
    rng = random.Random(4242)
    for _ in range(300):
        nvars = rng.randint(1, 3)
        a, b = _pair(rng, nvars)
        for p, q in ((a, b), (b, a), (a * b, a), (a * b, b), (a + b, b)):
            got = exact_divide(p, q)
            assert got == reference.exact_divide(p, q), (p, q)
            if got is not None:
                assert q * got == p
    with pytest.raises(ZeroDivisionError):
        _divide_ordinary(LaurentPoly.one(2), LaurentPoly.zero(2))


def _dense_poly(rng: random.Random, degree: int) -> LaurentPoly:
    """A univariate polynomial with every coefficient up to degree drawn,
    some of them zero or a Fraction, shifted by a random power of t."""
    coeffs = {i: rng.choice((0, 1, -1, 2, -5, Fraction(3, 4), Fraction(-7, 6)))
              for i in range(degree)}
    coeffs[degree] = rng.choice((1, -2, Fraction(5, 3)))
    coeffs[0] = coeffs[0] or 1
    return LaurentPoly.univariate(coeffs).shift((rng.randint(-9, 9),))


def test_one_variable_exact_divide_matches_reference():
    rng = random.Random(2027)
    refused = 0
    for _ in range(200):
        q = _dense_poly(rng, rng.randint(0, 9))
        c = _dense_poly(rng, rng.randint(0, 16))
        near = _dense_poly(rng, rng.randint(0, 3))
        for p in (q * c, q * c + near, c, q * c * Fraction(-2, 9)):
            got = exact_divide(p, q)
            want = reference.exact_divide(p, q)
            assert got == want, (p, q)
            refused += got is None
            if got is not None:
                assert q * got == p
                assert all(type(v) is int or v.denominator > 1
                           for v in got.terms.values())
    assert refused > 100
