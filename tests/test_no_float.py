"""Every stored coefficient is an ``int``.

The invariants are elements of Z[t^+-1], so ``LaurentPoly`` stores
integer coefficients and refuses any other type.  Each test draws integer
polynomials, runs one layer of the ring or above it, and checks the type
of every coefficient of every result; ``parse_poly`` clears the
denominators of ``p/q`` text.  No module of the package may name
``float`` or hold a float constant, and importing the command line loads
no module of rational or decimal arithmetic.
"""

import ast
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
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
        assert type(c) is int, (p, c)


coeffs_st = st.integers(min_value=-9, max_value=9)


@st.composite
def polys(draw, nvars=1, max_terms=4):
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = [(tuple(draw(st.integers(min_value=-2, max_value=3)) for _ in range(nvars)),
              draw(coeffs_st)) for _ in range(n_terms)]
    return LaurentPoly(nvars, terms)


def nonzero(nvars=1, max_terms=4):
    return polys(nvars, max_terms).filter(lambda p: not p.is_zero)


SETTINGS = settings(max_examples=80, deadline=None)


@pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(4, 2), 0.5, 2.0, "1"])
def test_other_coefficient_types_are_refused(coeff):
    with pytest.raises(TypeError):
        LaurentPoly(1, {(1,): coeff})
    with pytest.raises(TypeError):
        LaurentPoly.constant(coeff)
    with pytest.raises(TypeError):
        LaurentPoly.one() * coeff
    with pytest.raises(TypeError):
        LaurentPoly.one() + coeff


def test_exact_division_is_over_the_integers():
    t = LaurentPoly.monomial(1, (1,))
    assert exact_divide(t, 2 * t) is None
    assert exact_divide(2 * t, LaurentPoly.constant(2)) == t
    t0 = LaurentPoly.monomial(1, (1, 0))
    assert exact_divide(t0, 2 * t0) is None
    assert exact_divide(2 * t0 - 4, LaurentPoly.constant(2, 2)) == t0 - 2


@pytest.mark.parametrize("text, nvars, expected", [
    ("1/2*t^2 - 1/2", 1, {(2,): 1, (0,): -1}),
    ("1/2*t - 1/3", 1, {(1,): 3, (0,): -2}),
    ("2/4*t + 1", 1, {(1,): 2, (0,): 4}),
    ("1/2*t + 1/2*t", 1, {(1,): 2}),
    ("3/2*t0*t1^-1 - 5/7", 2, {(1, -1): 21, (0, 0): -10}),
    ("0/5*t + 1", 1, {(0,): 5}),
])
def test_parse_poly_clears_denominators(text, nvars, expected):
    # every term times the lcm of the denominators written in the text
    p = parse_poly(text, nvars)
    assert_stored(p)
    assert p.terms == expected


@given(polys(), polys(), coeffs_st)
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


@given(st.sampled_from([1, -1]), st.integers(min_value=-3, max_value=3),
       st.integers(min_value=1, max_value=3))
@SETTINGS
def test_negative_powers_of_units(sign, shift, k):
    u = LaurentPoly.monomial(sign, (shift,))
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
    cyclo = LaurentPoly.univariate({n: 3, 0: -3})
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


def test_cli_import_loads_no_rational_arithmetic():
    # a fresh interpreter: this one has loaded fractions already
    code = ("import sys, alexpoly.cli; "
            "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))")
    src = str(pathlib.Path(alexpoly.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
