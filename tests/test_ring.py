"""Ring layer: exact arithmetic, normal form, gcd, divisibility, cyclotomics.

Expected values for the non-obvious cases are frozen from independent
test-local oracles (naive univariate long division, repeated division).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from alexpoly.errors import InputError
from alexpoly.ring import (
    MAX_VARIABLES,
    LaurentPoly,
    cyclotomic_factorization,
    cyclotomic_polynomial,
    equal_up_to_units,
    exact_divide,
    gcd,
    gcd_many,
    normalize,
    parse_poly,
    poly_to_str,
)

from cyclotomic_reference import euler_phi
from verify_reference import INFINITY, multiplicity

P = parse_poly
t = LaurentPoly.monomial(1, (1,))


# ---------------------------------------------------------------------------
# independent oracles (deliberately naive; never call library division)


def _coeff_list(p: LaurentPoly) -> list[Fraction]:
    """Dense coefficient list of the min-exponent-shifted univariate poly."""
    assert p.nvars == 1 and not p.is_zero
    lo = min(e for (e,) in p.terms)
    hi = max(e for (e,) in p.terms)
    return [p.terms.get((e,), Fraction(0)) for e in range(lo, hi + 1)]


def naive_divmod(num: list[Fraction], den: list[Fraction]):
    """Classical univariate long division over Q on dense coefficient lists."""
    num = list(num)
    while den and den[-1] == 0:
        den = den[:-1]
    assert den, "oracle division by zero"
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for k in range(len(num) - len(den), -1, -1):
        c = Fraction(num[k + len(den) - 1]) / den[-1]
        quot[k] = c
        for i, d in enumerate(den):
            num[k + i] -= c * d
    while num and num[-1] == 0:
        num = num[:-1]
    return quot, num


def oracle_divides(a: LaurentPoly, b: LaurentPoly) -> bool:
    _, rem = naive_divmod(_coeff_list(b), _coeff_list(a))
    return not rem


def oracle_multiplicity(p: LaurentPoly, q: LaurentPoly) -> int:
    count = 0
    coeffs = _coeff_list(p)
    qc = _coeff_list(q)
    while True:
        quot, rem = naive_divmod(coeffs, qc)
        if rem:
            return count
        coeffs = quot
        count += 1


# ---------------------------------------------------------------------------
# arithmetic


def test_product_difference_of_squares():
    assert P("t - 1") * P("t + 1") == P("t^2 - 1")


def test_addition_with_zero_is_identity():
    p = P("2/3*t^2 - t")
    assert p + LaurentPoly.zero() == p


def test_two_variable_square():
    assert P("t0*t1 - 1") ** 2 == P("t0^2*t1^2 - 2*t0*t1 + 1")


def test_negative_exponents_multiply():
    assert P("t^-1") * P("t") == LaurentPoly.one()


def test_scalar_multiplication():
    assert 2 * P("t - 1") == P("2*t - 2")
    assert P("t - 1") * -3 == P("3 - 3*t")
    with pytest.raises(TypeError):
        P("t - 1") * Fraction(1, 2)


def test_unit_negative_power():
    assert P("t^2") ** -3 == P("t^-6")
    assert P("-t^2") ** -1 == P("-t^-2")
    # the units of Z[t^+-1] are +-t^a: 2t has no inverse
    for p in (P("t + 1"), P("2*t")):
        with pytest.raises(ValueError):
            p ** -1


def test_variable_count_mismatch_rejected():
    with pytest.raises(ValueError):
        P("t0 + t1") * P("t")


# ---------------------------------------------------------------------------
# normal form


def test_normalize_clears_denominators_and_shifts():
    p = P("3/2*t^-1 - 3/2 + 3/2*t")
    q = normalize(p)
    assert q == P("t^2 - t + 1")
    # a zero shift, hence normalize of a normal form, returns its argument
    assert q.shift((0,)) is q
    assert normalize(q) is q


def test_normalize_unit_is_one():
    assert normalize(P("-t^5")) == LaurentPoly.one()


def test_normalize_zero():
    z = LaurentPoly.zero()
    assert normalize(z) == z


def test_normalize_leading_sign_two_variables():
    p = P("t0 - t1")
    q = P("t1 - t0")
    # graded lex with t0 < t1: leading term involves t1
    assert normalize(p) == normalize(q) == P("t1 - t0")


units_st = st.tuples(
    st.sampled_from([1, -1, 2, -2, 3, 6, -15]),
    st.integers(min_value=-3, max_value=3),
)


@st.composite
def laurent_polys(draw, nvars=1, min_terms=0):
    n_terms = draw(st.integers(min_value=min_terms, max_value=5))
    terms = []
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(min_value=-4, max_value=4)) for _ in range(nvars))
        coeff = (draw(st.integers(min_value=-9, max_value=9))
                 * draw(st.integers(min_value=1, max_value=5)))
        terms.append((exps, coeff))
    p = LaurentPoly(nvars, terms)
    if min_terms and p.is_zero:
        # cancellation or zero coefficients can empty the term list
        p = LaurentPoly.monomial(draw(st.integers(min_value=1, max_value=3)),
                                 (0,) * nvars)
    return p


@given(laurent_polys())
def test_normalize_idempotent(p):
    first = normalize(p)
    assert normalize(first) == first


@given(laurent_polys(), units_st)
def test_normalize_invariant_under_units(p, unit):
    scale, shift = unit
    scaled = p * scale
    scaled = scaled.shift((shift,))
    assert normalize(scaled) == normalize(p)


@given(laurent_polys(nvars=2), units_st)
def test_normalize_invariant_under_units_two_vars(p, unit):
    scale, shift = unit
    scaled = (p * scale).shift((shift, -shift))
    assert normalize(scaled) == normalize(p)


@given(laurent_polys())
def test_normalized_form_properties(p):
    q = normalize(p)
    if q.is_zero:
        assert p.is_zero
        return
    assert q.min_exponents() == (0,)
    assert all(type(c) is int for c in q.terms.values())
    assert q.leading()[1] > 0


# ---------------------------------------------------------------------------
# divisibility


def test_divides_frozen_example():
    a = P("t^2 - t + 1")
    b = P("t - 1") * (P("t^6 - 1") ** 4)
    assert oracle_divides(a, b)  # independent long-division oracle
    assert exact_divide(b, a) is not None


def test_everything_divides_zero():
    assert exact_divide(LaurentPoly.zero(), P("t^3 + 7")) is not None
    assert exact_divide(LaurentPoly.zero(), LaurentPoly.zero()) is not None


def test_zero_divides_only_zero():
    assert exact_divide(P("t"), LaurentPoly.zero()) is None


def test_non_divisor_rejected():
    a = P("t - 2")
    b = P("t^2 - 1")
    assert not oracle_divides(a, b)
    assert exact_divide(b, a) is None


def test_exact_divide_returns_witness():
    b = P("t^2 - 1")
    a = P("t - 1")
    c = exact_divide(b, a)
    assert c is not None and a * c == b


@given(laurent_polys(min_terms=1), laurent_polys(min_terms=1))
def test_divides_consistent_with_oracle(a, b):
    # the oracle divides over Q; exact_divide over Z agrees on a
    # primitive divisor (Gauss's lemma)
    assert (exact_divide(b, normalize(a)) is not None) == oracle_divides(a, b)


@given(laurent_polys(nvars=2, min_terms=1), laurent_polys(nvars=2, min_terms=1))
@settings(max_examples=60)
def test_product_always_divisible_two_vars(a, b):
    prod = a * b
    assert exact_divide(prod, a) is not None
    c = exact_divide(prod, a)
    assert c is not None and a * c == prod


@given(laurent_polys(min_terms=1), laurent_polys(min_terms=1))
def test_mutual_divisibility_is_unit_equality(a, b):
    both = (exact_divide(b, normalize(a)) is not None
            and exact_divide(a, normalize(b)) is not None)
    assert both == equal_up_to_units(a, b)


# ---------------------------------------------------------------------------
# substitution


def test_substitute_two_variables():
    p = P("t0*t1 - 1")
    assert p.substitute((-2, 1)) == P("t^-1 - 1")


def test_substitute_three_variables():
    p = P("t0*t1*t2 - 1")
    assert p.substitute((-3, 1, 1)) == P("t^-1 - 1")


def test_substitute_all_ones():
    p = P("t0^2*t1 - t0")
    assert p.substitute((1, 1)) == P("t^3 - t")


def test_substitute_can_cancel_to_zero():
    p = P("t0 - t1")
    assert p.substitute((1, 1)).is_zero


# ---------------------------------------------------------------------------
# multiplicity, the repeated-division oracle of verify_reference


def test_multiplicity_frozen_example():
    p = P("t - 1") * (P("t^4 - 1") ** 2)
    q = P("1 - t")
    assert oracle_multiplicity(p, q) == 3  # independent repeated-division oracle
    assert multiplicity(p, q) == 3


def test_multiplicity_of_zero_is_infinite():
    assert multiplicity(LaurentPoly.zero(), P("1 - t")) == INFINITY


def test_multiplicity_zero_when_coprime():
    assert multiplicity(P("t^2 - t + 1"), P("1 - t")) == 0


def test_multiplicity_rejects_unit_and_zero_factors():
    with pytest.raises(ValueError):
        multiplicity(P("t - 1"), P("-t^2"))
    with pytest.raises(ValueError):
        multiplicity(P("t - 1"), LaurentPoly.zero())


@given(laurent_polys(min_terms=2), st.integers(min_value=0, max_value=3))
@settings(max_examples=60)
def test_multiplicity_counts_planted_factors(p, k):
    q = P("1 - t")
    planted = p * (q ** k)
    base = multiplicity(p, q)
    assert multiplicity(planted, q) == base + k


# ---------------------------------------------------------------------------
# gcd


def test_gcd_cyclic_polys():
    assert gcd(P("t^2 - 1"), P("t^3 - 1")) == P("t - 1")


def test_gcd_with_zero_normalizes():
    p = P("2*t^-1 - 2")
    assert gcd(LaurentPoly.zero(), p) == normalize(p)
    assert gcd(p, LaurentPoly.zero()) == normalize(p)


def test_gcd_shared_linear_factor():
    a = P("1 - t") ** 2
    b = P("1 - t") * P("1 + t")
    assert gcd(a, b) == P("t - 1")


def test_gcd_two_variables():
    common = P("t0*t1 - 1")
    a = common * parse_poly("t0 - 1", nvars=2)
    b = common * P("t1 - 1")
    assert gcd(a, b) == normalize(common)


def test_gcd_three_variables():
    common = P("t0*t1*t2 - 1") ** 2
    a = common * parse_poly("t0 + t1", nvars=3)
    b = common * P("t2 - 1")
    assert gcd(a, b) == normalize(common)


def test_gcd_many_early_unit():
    polys = [P("t - 1"), P("t + 1"), P("t^5 + t")]
    assert gcd_many(polys) == LaurentPoly.one()


@given(laurent_polys(min_terms=1), laurent_polys(min_terms=1))
@settings(max_examples=80)
def test_gcd_divides_both(a, b):
    g = gcd(a, b)
    assert exact_divide(a, g) is not None
    assert exact_divide(b, g) is not None


@given(laurent_polys(min_terms=1), laurent_polys(min_terms=1))
@settings(max_examples=60)
def test_gcd_symmetric(a, b):
    assert gcd(a, b) == gcd(b, a)


@given(laurent_polys(min_terms=1), laurent_polys(min_terms=1), laurent_polys(min_terms=1))
@settings(max_examples=40)
def test_gcd_respects_common_factor(a, b, c):
    g = gcd(a * c, b * c)
    assert exact_divide(g, normalize(c)) is not None
    assert equal_up_to_units(g, gcd(a, b) * c)


@given(laurent_polys(nvars=2, min_terms=1), laurent_polys(nvars=2, min_terms=1))
@settings(max_examples=25, deadline=None)
def test_gcd_divides_both_two_vars(a, b):
    g = gcd(a, b)
    assert exact_divide(a, g) is not None
    assert exact_divide(b, g) is not None


# ---------------------------------------------------------------------------
# cyclotomic factorization


def test_sixth_cyclotomic_polynomial():
    # oracle: phi(6) = 2 and t^2 - t + 1 divides t^6 - 1
    assert euler_phi(6) == 2
    assert oracle_divides(P("t^2 - t + 1"), P("t^6 - 1"))
    assert cyclotomic_polynomial(6) == P("t^2 - t + 1")
    factors, rem = cyclotomic_factorization(P("t^2 - t + 1"))
    assert factors == {6: 1}
    assert rem == LaurentPoly.one()


def test_cyclotomic_factorization_with_multiplicity():
    p = P("t - 1") * P("t^3 - 1")
    factors, rem = cyclotomic_factorization(p)
    assert factors == {1: 2, 3: 1}
    assert rem == LaurentPoly.one()


def test_non_cyclotomic_remainder():
    p = P("t^2 - t - 1")
    factors, rem = cyclotomic_factorization(p)
    assert factors == {}
    assert rem == normalize(p)


def test_cyclotomic_rejects_zero():
    with pytest.raises(ValueError):
        cyclotomic_factorization(LaurentPoly.zero())


def test_first_cyclotomics():
    assert cyclotomic_polynomial(1) == P("t - 1")
    assert cyclotomic_polynomial(2) == P("t + 1")
    assert cyclotomic_polynomial(3) == P("t^2 + t + 1")
    assert cyclotomic_polynomial(12) == P("t^4 - t^2 + 1")


def test_product_of_cyclotomics_is_t_power_minus_one():
    for n in (4, 6, 10):
        prod = LaurentPoly.one()
        d = 1
        while d <= n:
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
            d += 1
        assert prod == LaurentPoly.univariate({n: 1, 0: -1})


@given(st.dictionaries(st.sampled_from([1, 2, 3, 4, 6]),
                       st.integers(min_value=1, max_value=2), max_size=3),
       units_st)
@settings(max_examples=50)
def test_cyclotomic_reassembly(plan, unit):
    scale, shift = unit
    p = LaurentPoly.monomial(scale, (shift,))
    for n, k in plan.items():
        p = p * cyclotomic_polynomial(n) ** k
    factors, rem = cyclotomic_factorization(p)
    assert factors == plan
    assert rem == LaurentPoly.one()


def test_cyclotomic_mixed_with_non_cyclotomic():
    p = cyclotomic_polynomial(6) * P("t^2 - t - 1")
    factors, rem = cyclotomic_factorization(p)
    assert factors == {6: 1}
    assert rem == normalize(P("t^2 - t - 1"))


# ---------------------------------------------------------------------------
# text format


def test_parse_variants():
    assert P("t^-1 - 1 + t") == LaurentPoly.univariate({-1: 1, 0: -1, 1: 1})
    assert P("-t^5") == LaurentPoly.univariate({5: -1})
    # denominators are cleared: the text is read times 3
    assert P("2/3*t0^2*t1 - 1") == LaurentPoly(2, {(2, 1): 2, (0, 0): -3})
    assert P("  t ^ 2 -   t + 1  ".replace("^ ", "^")) == P("t^2-t+1")


def test_parse_rejects_parentheses():
    with pytest.raises(InputError):
        P("(t - 1)")


def test_parse_rejects_garbage():
    for bad in ("", "t^", "2t", "t0 + t", "x + 1", "1//2*t", "+"):
        with pytest.raises(InputError):
            P(bad)


def test_parse_respects_forced_nvars():
    p = parse_poly("t0 - 1", nvars=3)
    assert p.nvars == 3
    with pytest.raises(InputError):
        parse_poly("t2", nvars=2)


@pytest.mark.parametrize("text, nvars, message", [
    ("1" * 5000 + "*t + 1", 1, "5000-digit number is too long"),
    ("t^" + "1" * 5000, 1, "5000-digit number is too long"),
    ("3/" + "1" * 5000, None, "5000-digit number is too long"),
    ("t" + "1" * 5000, None, "5000-digit number is too long"),
    ("t675887310 + t0", None, "variable index 675887310 exceeds the limit 999"),
])
def test_parse_refuses_numbers_out_of_range(text, nvars, message):
    with pytest.raises(InputError) as exc:
        parse_poly(text, nvars=nvars)
    assert exc.value.field == "polynomial"
    assert str(exc.value).endswith(message)


def test_parse_infers_up_to_max_variables():
    assert parse_poly(f"t{MAX_VARIABLES - 1} + t0").nvars == MAX_VARIABLES
    assert parse_poly(f"t{MAX_VARIABLES}", nvars=MAX_VARIABLES + 1).nvars \
        == MAX_VARIABLES + 1


def test_print_univariate_descending():
    assert poly_to_str(P("1 - t + t^2")) == "t^2 - t + 1"
    assert poly_to_str(LaurentPoly.zero()) == "0"
    assert poly_to_str(P("t^-1 - 1 + t")) == "t - 1 + t^-1"


def test_print_multivariable():
    p = LaurentPoly(2, {(2, 1): 2, (0, 0): -3})
    assert poly_to_str(p) == "2*t0^2*t1 - 3"


@given(laurent_polys(nvars=2))
def test_print_parse_round_trip_two_vars(p):
    if p.is_zero:
        assert poly_to_str(p) == "0"
        return
    assert parse_poly(poly_to_str(p), nvars=2) == p


@given(laurent_polys())
def test_print_parse_round_trip(p):
    if p.is_zero:
        return
    assert parse_poly(poly_to_str(p)) == p
