"""Differential tests: gcd with its heuristic and shortcuts against the
remainder sequence.

``ring.gcd`` returns 1 when an argument is a unit, then tries the
heuristic gcd (GCDHEU), certified by multiplying back, and runs the
primitive remainder sequence (PRS) when the heuristic gives no answer.
``gcd_reference`` always runs the PRS, so it is what the heuristic is
checked against: both results are unit-normal, so they must be equal,
not only associates.  Three inputs pin that the PRS is still reached:
past the heuristic's bit budget, there also when one argument divides
the other, and after a heuristic failure.
``ring.poly._divide_ordinary`` updates one remainder dict in place, and
in one variable ``exact_divide`` runs one dense long division instead;
the reference rebuilds the remainder polynomial at every step, and all
must give the same quotient or the same refusal.  sympy, where installed, is an independent oracle up to
units.
"""

import importlib
import random
from collections import Counter
from math import lcm

import pytest

from alexpoly.ring import LaurentPoly, exact_divide, gcd, gcd_many, normalize, parse_poly
from alexpoly.ring.poly import _divide_ordinary

import gcd_reference as reference

# the package exports the function gcd under the module's name
gcd_module = importlib.import_module("alexpoly.ring.gcd")


def _random_poly(rng: random.Random, nvars: int, terms: int | None = None,
                 degree: int = 3) -> LaurentPoly:
    """Random Laurent polynomial with small integer coefficients, shifted
    by a monomial with negative exponents and scaled by an integer."""
    count = rng.randint(1, 4) if terms is None else terms
    p = LaurentPoly(nvars, [(tuple(rng.randint(0, degree) for _ in range(nvars)),
                             rng.choice((1, -1, 2, -3, 5)))
                            for _ in range(count)])
    if p.is_zero:
        p = LaurentPoly.one(nvars)
    scale = rng.choice((1, -1, 3, -4)) * rng.choice((1, 2, 9))
    return p.shift(tuple(rng.randint(-3, 1) for _ in range(nvars))) * scale


def _unit(rng: random.Random, nvars: int) -> LaurentPoly:
    return LaurentPoly.monomial(rng.choice((1, -2, 7)) * rng.choice((1, 3)),
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
        unit = LaurentPoly.monomial(-21, (-2,) + (5,) * (nvars - 1))
        p = LaurentPoly(nvars, {(0,) * nvars: 1, (1,) * nvars: -1})
        assert gcd(unit, p) == one == reference.gcd(unit, p)
        assert gcd(zero, zero) == zero == reference.gcd(zero, zero)
        assert gcd(zero, unit) == one == reference.gcd(zero, unit)
        assert gcd(p.shift((-4,) * nvars) * 6, zero) == normalize(p)


def _sparse_link(j: int, k: int) -> LaurentPoly:
    """(t_j - 1)(t0 ... t8 - 1)^k in nine variables."""
    t_j = LaurentPoly.monomial(1, (0,) * j + (1,) + (0,) * (8 - j))
    product = LaurentPoly.monomial(1, (1,) * 9)
    return (t_j - 1) * (product - 1) ** k


def test_gcd_of_sparse_nine_variable_minors():
    # synthetic minors of the torus link T(9,9), past the heuristic's bit
    # budget, so the PRS folds them
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


def _sympy_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """sympy's gcd of a and b, unit-normal; sympy is never a runtime
    dependency, and the calling test is skipped without it."""
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(f"t0:{a.nvars}")
    # Laurent polynomials become ordinary after normalize; units and the
    # zero case are compared after normalizing sympy's answer too
    exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                 * sympy.Mul(*[s ** e for s, e in zip(syms, exps)])
                 for exps, c in normalize(p).terms.items())
             for p in (a, b)]
    g = sympy.Poly(sympy.gcd(exprs[0], exprs[1]), *syms, domain=sympy.QQ)
    den = lcm(*(int(c.q) for _, c in g.terms()))
    return normalize(LaurentPoly(a.nvars, [(m, int(c * den))
                                           for m, c in g.terms() if c]))


def test_gcd_matches_sympy():
    # sympy serves as an independent oracle in one to five variables
    pytest.importorskip("sympy")
    rng = random.Random(20261018)
    for _ in range(150):
        a, b = _pair(rng, rng.randint(1, 5))
        assert gcd(a, b) == _sympy_gcd(a, b), (a, b)


def _sparse_five_variable_pair() -> tuple[LaurentPoly, LaurentPoly]:
    a = parse_poly("3*t0^4*t1^3*t2^3*t3^2*t4^4 + 6*t0^4*t1^3*t2*t3*t4^4"
                   " - 6*t0^3*t1^4*t2*t3^2*t4^3 - t0*t1^2*t3^3*t4^2"
                   " - t0*t1^2*t2*t3^2*t4 + t1^3*t2*t3^3 - 3*t0*t2*t4 + 3*t1*t2*t3", 5)
    b = parse_poly("-2*t0^3*t1^2*t2*t3*t4^3 + 2*t0^2*t1^3*t2*t3^2*t4^2"
                   " + 5*t0^2*t1^2*t2^2*t4^2 - 5*t0*t1^3*t2^2*t3*t4", 5)
    return a, b


def test_sparse_five_variable_minors_are_coprime():
    # two 2 x 2 minors of a seeded random matrix, on which the remainder
    # sequence alone did not finish in 100 s
    a, b = _sparse_five_variable_pair()
    # the heuristic certifies on its own, so no route hangs here
    assert gcd_module._heuristic(normalize(a), normalize(b)) == LaurentPoly.one(5)
    assert gcd(a, b) == LaurentPoly.one(5) == _sympy_gcd(a, b)


def test_gcd_of_a_product_and_a_square_takes_the_heuristic(monkeypatch):
    # gcd(a b, b^2) = b for the coprime pair above: within the bit budget
    # the heuristic certifies it, where the remainder sequence ran for
    # minutes
    def refused(a, b, primitive):
        raise AssertionError("remainder sequence reached")
    monkeypatch.setattr(gcd_module, "_prs", refused)
    a, b = _sparse_five_variable_pair()
    assert gcd(a * b, b * b) == normalize(b)


def test_nine_variable_minors_stay_on_the_remainder_sequence():
    # the synthetic minors of T(9,9) are past the bit budget: the
    # heuristic is not tried in nine variables, and the remainder
    # sequence gives (t0 ... t8 - 1)^7
    a, b = _sparse_link(0, 7), _sparse_link(3, 7)
    assert gcd_module._heuristic(normalize(a), normalize(b)) is None
    core = normalize((LaurentPoly.monomial(1, (1,) * 9) - 1) ** 7)
    assert gcd(a, b) == core


def test_heuristic_certifies_by_multiplying_back():
    # at the first evaluation point the digits give a wrong candidate:
    # t + 3 for the first pair, whose gcd is 1.  The last pair vanishes
    # at t = 2, below the CGG bound
    t = LaurentPoly.monomial(1, (1,))
    pairs = [(t ** 2 + 2, t + 3),
             (t ** 2 + 4 * t + 4, 2 * t ** 3 + 4 * t ** 2 + t + 2),
             (10 * t ** 3 + 6 * t ** 2 + 5 * t + 3, 5 * t ** 3 + 3 * t ** 2 + 10 * t + 6),
             ((t - 2) * (t + 1), (t - 2) * (t + 3))]
    for a, b in pairs:
        expected = reference.gcd(a, b)
        assert gcd_module._heuristic(normalize(a), normalize(b)) == expected
        assert gcd(a, b) == expected


def test_evaluation_points_exceed_twice_the_max_norm(monkeypatch):
    # so that no coefficient cancels, and above the CGG bound
    # 2 min(|a|, |b|) + 2 under which a certified divisor is the greatest
    evaluate = gcd_module._evaluate_last
    seen = []

    def checked(f, xi):
        assert xi >= 2 * max(map(abs, f.values())) + 2, (f, xi)
        seen.append(xi)
        return evaluate(f, xi)

    monkeypatch.setattr(gcd_module, "_evaluate_last", checked)
    rng = random.Random(6000)
    for _ in range(100):
        a, b = _pair(rng, rng.randint(1, 3))
        assert gcd(a, b) == reference.gcd(a, b), (a, b)
    assert len(seen) > 100


def test_a_failed_level_fails_the_heuristic(monkeypatch):
    # when no candidate certifies, the innermost level tries every
    # evaluation point once and each level above gives up at once,
    # instead of retrying with a larger xi
    levels = Counter()
    heu = gcd_module._heu

    def counted(f, g, k):
        levels[k] += 1
        return heu(f, g, k)

    monkeypatch.setattr(gcd_module, "_heu", counted)
    # no digits: every candidate is zero, and multiplying back fails
    monkeypatch.setattr(gcd_module, "_digits", lambda image, xi, scale: {})
    common = parse_poly("t0*t1 - t2^2 + 3", 3)
    a = common * parse_poly("2*t0 - t1*t2", 3)
    b = common * parse_poly("t2^3 + t0 - 5*t1^2", 3)
    assert gcd_module._heuristic(normalize(a), normalize(b)) is None
    assert levels == {3: 1, 2: 1, 1: 1, 0: gcd_module._HEU_ATTEMPTS}


def test_remainder_sequence_is_the_fallback(monkeypatch):
    reached = []
    prs = gcd_module._prs
    heu = gcd_module._heu

    def counted(a, b, primitive):
        reached.append(a.nvars)
        return prs(a, b, primitive)

    def refused(f, g, k):
        raise AssertionError("heuristic run past its bit budget")

    monkeypatch.setattr(gcd_module, "_prs", counted)
    # past the bit budget: prod(deg_i + 1) alone is 9^9, and neither
    # minor divides the other
    a, b = _sparse_link(0, 7), _sparse_link(3, 7)
    monkeypatch.setattr(gcd_module, "_heu", refused)
    assert gcd_module._heuristic(normalize(a), normalize(b)) is None
    monkeypatch.setattr(gcd_module, "_heu", heu)
    core = normalize((LaurentPoly.monomial(1, (1,) * 9) - 1) ** 7)
    assert gcd(a, b) == reference.gcd(a, b) == core
    assert 9 in reached
    # past the budget the PRS runs even when one argument divides the other
    reached.clear()
    a, b = _sparse_link(2, 3), _sparse_link(2, 1)
    assert gcd_module._heuristic(normalize(a), normalize(b)) is None
    assert gcd(a, b) == normalize(b) == reference.gcd(a, b)
    assert 9 in reached
    # within the budget the heuristic certifies; with no attempt left it
    # fails, and the PRS gives the same gcd
    common = parse_poly("t0*t1 - t2^2 + 3", 3)
    a = common * parse_poly("-3/2*t0 + 3/4*t1*t2^-1", 3)
    b = common * parse_poly("t2^3 + t0 - 5*t1^2", 3)
    expected = normalize(common)
    assert gcd_module._heuristic(normalize(a), normalize(b)) == expected
    reached.clear()
    monkeypatch.setattr(gcd_module, "_HEU_ATTEMPTS", 0)
    assert gcd_module._heuristic(normalize(a), normalize(b)) is None
    assert gcd(a, b) == reference.gcd(a, b) == expected
    assert 3 in reached


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
    some of them zero, shifted by a random power of t."""
    coeffs = {i: rng.choice((0, 1, -1, 2, -5, 3, -7)) for i in range(degree)}
    coeffs[degree] = rng.choice((1, -2, 5))
    coeffs[0] = coeffs[0] or 1
    return LaurentPoly.univariate(coeffs).shift((rng.randint(-9, 9),))


def test_one_variable_exact_divide_matches_reference():
    rng = random.Random(2027)
    refused = 0
    for _ in range(200):
        q = _dense_poly(rng, rng.randint(0, 9))
        c = _dense_poly(rng, rng.randint(0, 16))
        near = _dense_poly(rng, rng.randint(0, 3))
        # q * 3 divides q * c over Q, and over Z only when 3 divides c
        for p, d in ((q * c, q), (q * c + near, q), (c, q), (q * c * -2, q),
                     (q * c, q * 3)):
            got = exact_divide(p, d)
            want = reference.exact_divide(p, d)
            assert got == want, (p, d)
            refused += got is None
            if got is not None:
                assert d * got == p
                assert all(type(v) is int for v in got.terms.values())
    assert refused > 100
