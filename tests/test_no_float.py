"""Stored coefficients are ``int``, or ``Fraction`` with denominator > 1.

Integer polynomials must stay on integer arithmetic, and no operation
may divide two ints into a ``float``: every quotient of coefficients is
exact.  Each test draws polynomials with integer and fractional
coefficients (integral fractions such as 4/2 among them), runs one layer
of the ring or above it, and checks how every coefficient of every
result is stored.  No module of the package may name ``float`` or hold a
float constant at all.
"""

import ast
import pathlib
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import alexpoly
from alexpoly.braid import BraidWord, closure_presentation, strand_components
from alexpoly.fox import alexander_polynomial
from alexpoly.group import AbelMap
from alexpoly.minors import minor_gcd
from alexpoly.ring import (
    LaurentPoly,
    cyclotomic_factorization,
    exact_divide,
    gcd,
    normalize,
    parse_poly,
)


def assert_stored(p: LaurentPoly) -> None:
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (p, c)


coeffs_st = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9),
              st.integers(min_value=1, max_value=4)),
)


@st.composite
def polys(draw, nvars=1, max_terms=4):
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = [(tuple(draw(st.integers(min_value=-2, max_value=3)) for _ in range(nvars)),
              draw(coeffs_st)) for _ in range(n_terms)]
    return LaurentPoly(nvars, terms)


def nonzero(nvars=1, max_terms=4):
    return polys(nvars, max_terms).filter(lambda p: not p.is_zero)


units_st = st.tuples(
    st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(6, 3)]),
    st.integers(min_value=-3, max_value=3),
)

SETTINGS = settings(max_examples=80, deadline=None)


def test_integral_fractions_are_demoted():
    half = parse_poly("1/2*t + 1/2")
    assert_stored(half + half)
    assert (half + half).terms == {(1,): 1, (0,): 1}
    assert_stored(half * 2)
    assert_stored(half * LaurentPoly.constant(Fraction(6, 3)))
    assert_stored(LaurentPoly.monomial(Fraction(1, 2), (1,)) ** -1)
    assert_stored(LaurentPoly.monomial(2, (1,)) ** -1)
    assert_stored(LaurentPoly(1, {(0,): Fraction(4, 2), (1,): True}))
    assert_stored(half.substitute((0,)))
    assert type(LaurentPoly.one().coefficient((0,))) is int
    assert LaurentPoly.zero().coefficient((0,)) == 0
    for p in (half - half, half * 0, half * half, normalize(half)):
        assert_stored(p)


@given(polys(), polys(), st.one_of(coeffs_st, st.just(Fraction(4, 2))))
@SETTINGS
def test_ring_operations(p, q, scalar):
    for r in (p + q, p - q, p * q, q * p, p * scalar, p + scalar, scalar - p, -p):
        assert_stored(r)
    assert_stored(normalize(p))
    for k in range(3):
        assert_stored(p ** k)


@given(polys(nvars=2), polys(nvars=2))
@SETTINGS
def test_ring_operations_two_variables(p, q):
    for r in (p + q, p - q, p * q, normalize(p), p.substitute((1, -2))):
        assert_stored(r)


@given(units_st, st.integers(min_value=1, max_value=3))
@SETTINGS
def test_negative_powers_of_units(unit, k):
    scale, shift = unit
    u = LaurentPoly.monomial(scale, (shift,))
    assert_stored(u ** -k)
    assert u ** -k * u ** k == LaurentPoly.one()


@given(nonzero(), nonzero(max_terms=3), polys())
@SETTINGS
def test_exact_division(p, q, r):
    quotient = exact_divide(p * q, q)
    assert quotient == p
    assert_stored(quotient)
    other = exact_divide(r, q)
    if other is not None:
        assert_stored(other)
        assert other * q == r


@given(nonzero(nvars=2, max_terms=3), nonzero(nvars=2, max_terms=3),
       nonzero(nvars=2, max_terms=3))
@settings(max_examples=40, deadline=None)
def test_exact_division_two_variables(p, q, r):
    quotient = exact_divide(p * q * r, q * r)
    assert quotient == p
    assert_stored(quotient)


@given(polys(), polys(), nonzero(max_terms=3))
@SETTINGS
def test_gcd(p, q, common):
    assert_stored(gcd(p, q))
    assert_stored(gcd(p * common, q * common))


@given(polys(nvars=2, max_terms=3), polys(nvars=2, max_terms=3),
       nonzero(nvars=2, max_terms=2))
@settings(max_examples=40, deadline=None)
def test_gcd_two_variables(p, q, common):
    assert_stored(gcd(p * common, q * common))


@given(st.integers(min_value=1, max_value=2), st.integers(min_value=2, max_value=3),
       st.integers(min_value=1, max_value=2), st.data())
@settings(max_examples=60, deadline=None)
def test_minor_gcd(nvars, ncols, k, data):
    rows = [[data.draw(polys(nvars, max_terms=3)) for _ in range(ncols)]
            for _ in range(3)]
    assert_stored(minor_gcd(rows, k, nvars))


@given(nonzero(max_terms=5), st.sampled_from([1, 2, 3, 4, 6]))
@SETTINGS
def test_cyclotomic_factorization(p, n):
    cyclo = LaurentPoly.univariate({n: Fraction(1, 2), 0: Fraction(-1, 2)})
    for q in (p, p * cyclo):
        factors, remainder = cyclotomic_factorization(q)
        assert all(type(e) is int for e in factors.values())
        assert_stored(remainder)


def test_alexander_polynomial_on_small_closures():
    rng = random.Random(8)
    for _ in range(60):
        d = rng.randint(2, 4)
        braid = BraidWord(d, tuple(rng.choice((1, -1)) * rng.randint(1, d - 1)
                                   for _ in range(rng.randint(0, 10))))
        pres = closure_presentation(braid)
        components = strand_components(braid)
        colour = {s: c for c, comp in enumerate(components) for s in comp}
        rank = len(components)
        phis = [AbelMap(1, tuple((1,) for _ in range(d))),
                AbelMap(rank, tuple(tuple(int(colour[s] == c) for c in range(rank))
                                    for s in range(d)))]
        for phi in phis:
            assert_stored(alexander_polynomial(pres, phi))


def test_no_float_in_the_source():
    found = []
    for path in sorted(pathlib.Path(alexpoly.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    or isinstance(node, ast.Name) and node.id == "float"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
