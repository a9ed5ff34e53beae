"""Tests for free differential calculus and the minor-gcd engine."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexpoly.errors import ComputationError
from alexpoly.fox import alexander_one_variable, alexander_polynomial, fox_matrix
from alexpoly.group import AbelMap, Presentation, Word, parse_word
from alexpoly.braid import closure_presentation, full_twist
from alexpoly.minors import (_dense_row, _drop_unit_multiples, _echelon_minor_gcd,
                             _enumerate_minor_gcd, _term_counts, _terms_key,
                             minor_gcd)
from alexpoly.ring import (
    LaurentPoly,
    equal_up_to_units,
    gcd,
    normalize,
    parse_poly,
)
from fox_reference import GroupRingElement, fox_derivative, theta


def P(text, nvars=None):
    return parse_poly(text, nvars=nvars)


def W(text, gens=("x", "y", "z")):
    return parse_word(text, gens)


X, Y, Z = Word([(0, 1)]), Word([(1, 1)]), Word([(2, 1)])
PHI_T = AbelMap.constant_one(2)


# ---------------------------------------------------------------------------
# oracle: brute-force gcd over explicitly enumerated minors


def oracle_minor_gcd(rows, k, nvars):
    if k == 0:
        return LaurentPoly.one(nvars)
    n = len(rows[0]) if rows else 0
    g = LaurentPoly.zero(nvars)
    for ri in combinations(range(len(rows)), k):
        for ci in combinations(range(n), k):
            g = gcd(g, _det([[rows[i][j] for j in ci] for i in ri], nvars))
    return normalize(g)


def _det(mat, nvars):
    if not mat:
        return LaurentPoly.one(nvars)
    if len(mat) == 1:
        return mat[0][0]
    total = LaurentPoly.zero(nvars)
    for j, entry in enumerate(mat[0]):
        if entry.is_zero:
            continue
        minor = _det([row[:j] + row[j + 1:] for row in mat[1:]], nvars)
        term = entry * minor
        total = total + (term if j % 2 == 0 else -term)
    return total


# ---------------------------------------------------------------------------
# group ring


def test_group_ring_arithmetic():
    a = GroupRingElement.of_word(X)
    b = GroupRingElement.of_word(Y, -2)
    s = a + b
    assert s.coeffs == {X: Fraction(1), Y: Fraction(-2)}
    assert (s - s).is_zero
    prod = s * GroupRingElement.of_word(X)
    assert prod.coeffs == {X * X: Fraction(1), Y * X: Fraction(-2)}


def test_group_ring_collects_like_words():
    a = GroupRingElement({X: Fraction(1)}) + GroupRingElement({X: Fraction(-1)})
    assert a.is_zero
    ident = GroupRingElement.of_word(Word())
    assert (ident * ident).coeffs == {Word(): Fraction(1)}


# ---------------------------------------------------------------------------
# derivatives: frozen hand computations


def test_derivative_of_powers():
    assert fox_derivative(X ** 3, 0).coeffs == {
        Word(): Fraction(1), X: Fraction(1), X ** 2: Fraction(1)}
    assert fox_derivative(X ** -2, 0).coeffs == {
        X ** -1: Fraction(-1), X ** -2: Fraction(-1)}
    assert fox_derivative(X, 1).is_zero
    assert fox_derivative(Word(), 0).is_zero


def test_derivative_trefoil_relator():
    r = W("x y x y^-1 x^-1 y^-1")
    dx = fox_derivative(r, 0)
    assert dx.coeffs == {
        Word(): Fraction(1),
        W("x y"): Fraction(1),
        W("x y x y^-1 x^-1"): Fraction(-1),
    }
    dy = fox_derivative(r, 1)
    assert dy.coeffs == {
        W("x"): Fraction(1),
        W("x y x y^-1"): Fraction(-1),
        W("x y x y^-1 x^-1 y^-1"): Fraction(-1),
    }


@st.composite
def words_st(draw, n_gens=3, max_syllables=6):
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n_gens - 1), st.integers(-2, 2)),
        max_size=max_syllables))
    return Word(pairs)


@given(words_st(), words_st())
def test_derivative_product_rule(u, v):
    for gen in range(3):
        left = fox_derivative(u * v, gen)
        right = fox_derivative(u, gen) + fox_derivative(v, gen).left_mul(u)
        assert left == right


@given(words_st())
def test_fundamental_identity(w):
    # sum_j dw/dx_j (x_j - 1) telescopes to w - 1
    total = GroupRingElement.zero()
    for gen in range(3):
        d = fox_derivative(w, gen)
        x = GroupRingElement.of_word(Word([(gen, 1)]))
        one = GroupRingElement.of_word(Word())
        total = total + d * (x - one)
    expected = GroupRingElement.of_word(w) - GroupRingElement.of_word(Word())
    assert total == expected


# ---------------------------------------------------------------------------
# theta


def test_theta_one_variable():
    elem = fox_derivative(W("x y x y^-1 x^-1 y^-1"), 0)
    assert theta(elem, PHI_T) == P("t^2 - t + 1")


def test_theta_two_variables():
    phi = AbelMap(2, ((1, 0), (0, 1)))
    comm = W("x y x^-1 y^-1")
    assert theta(fox_derivative(comm, 0), phi) == P("1 - t1", nvars=2)
    assert theta(fox_derivative(comm, 1), phi) == P("t0 - 1", nvars=2)


def test_theta_cancellation():
    # x and y x y^-1 have equal images, so their difference dies
    elem = GroupRingElement.of_word(W("x")) - GroupRingElement.of_word(W("y x y^-1"))
    assert theta(elem, PHI_T).is_zero


# ---------------------------------------------------------------------------
# minor gcd engine


def test_minor_gcd_single_row():
    rows = [[P("1 - t1", 2), P("t0 - 1", 2)]]
    assert minor_gcd(rows, 1, 2) == LaurentPoly.one(2)


def test_minor_gcd_common_factor():
    f = P("t - 1")
    rows = [[f * P("t"), f * P("t + 1")],
            [f * P("t^2"), f * P("t - 1")]]
    assert minor_gcd(rows, 1, 1) == P("t - 1")
    # 2x2 determinant picks up f^2
    expected = normalize(f * f * (P("t") * P("t - 1") - P("t + 1") * P("t^2")))
    assert minor_gcd(rows, 2, 1) == expected


def test_minor_gcd_unit_contraction_matches_oracle():
    rows = [
        [P("1"), P("t"), P("t - 1")],
        [P("t^2"), P("t + 1"), P("0")],
        [P("t - 1"), P("0"), P("t^3 - 1")],
    ]
    for k in (1, 2, 3):
        assert minor_gcd(rows, k, 1) == oracle_minor_gcd(rows, k, 1)


def test_minor_gcd_rank_deficient():
    rows = [[P("t"), P("t^2")], [P("t^3"), P("t^4")]]
    assert minor_gcd(rows, 2, 1).is_zero
    # monomials are units, so the entry gcd normalizes to 1
    assert minor_gcd(rows, 1, 1) == LaurentPoly.one(1)


def test_minor_gcd_degenerate_shapes():
    assert minor_gcd([], 1, 1).is_zero
    assert minor_gcd([[P("t")]], 2, 1).is_zero
    assert minor_gcd([[P("t")]], 0, 1) == LaurentPoly.one(1)


def drop_unit_multiples(rows):
    return _drop_unit_multiples(rows, _term_counts, _terms_key)


def test_unit_multiple_rows_are_dropped():
    # rows scaled by -t0^3 and by -6 repeat earlier rows up to units and
    # go; a row times t0 - 1, not a unit, stays.  Either way the gcd is
    # that of every minor, the dropped rows' included
    base = [(P("t0 - t1", 2), P("t0*t1 + 2", 2), P("0", 2)),
            (P("1 + t1^-1", 2), P("t0^2", 2), P("t1 - 1", 2)),
            (P("t0", 2), P("t1 + 1", 2), P("t0 + t1", 2))]
    scaled = base + [tuple(P("-t0^3", 2) * e for e in base[0]),
                     tuple(e * -6 for e in base[1])]
    not_unit = base + [tuple(P("t0 - 1", 2) * e for e in base[2])]
    assert drop_unit_multiples(scaled) == base
    assert drop_unit_multiples(not_unit) == not_unit
    for k in (1, 2, 3):
        assert minor_gcd(scaled, k, 2) == minor_gcd(base, k, 2) == \
            oracle_minor_gcd(scaled, k, 2)
        assert minor_gcd(not_unit, k, 2) == oracle_minor_gcd(not_unit, k, 2)
    # three variables: a scale of -5 with a negative-exponent unit
    # goes; a row whose terms match up to a shift entry by entry but not
    # by one shift for the whole row stays
    base = [(P("0", 3), P("t0*t2 - t1", 3), P("3*t2^2 + t0^-1", 3)),
            (P("t1 + t2^-1", 3), P("2", 3), P("t0*t1*t2 - 1", 3)),
            (P("t0^2 - t2", 3), P("t1", 3), P("1 + t0 + t1", 3))]
    unit = P("-5/7*t0^-2*t1*t2^-3", 3)
    scaled = base + [tuple(unit * e for e in base[0])]
    skewed = base + [(base[1][0] * unit, base[1][1], base[1][2] * unit)]
    assert drop_unit_multiples(scaled) == base
    assert drop_unit_multiples(skewed) == skewed
    for k in (1, 2, 3):
        assert minor_gcd(scaled, k, 3) == minor_gcd(base, k, 3) == \
            oracle_minor_gcd(scaled, k, 3)
    for k in (1, 2):
        assert minor_gcd(skewed, k, 3) == oracle_minor_gcd(skewed, k, 3)
    # oracle_minor_gcd folds ring.gcd, so the 3-minors go to sympy
    assert minor_gcd(skewed, 3, 3) == sympy_minor_gcd(skewed, 3, 3)


def test_non_monic_unit_contraction_matches_enumeration(monkeypatch):
    # a unit pivot c t^a with |c| != 1 clears its column without an
    # inverse, x -> |c| x - (sign(c) t^-a x_j) p; the gcd of the
    # contracted matrix's minors is that of every column subset of the
    # whole matrix
    import alexpoly.minors as minors
    contract = minors._contract
    scales = []

    def recording(rows, i, j):
        (_, c), = rows[i][j].terms.items()
        scales.append(abs(c))
        return contract(rows, i, j)
    monkeypatch.setattr(minors, "_contract", recording)
    rng = random.Random(20261021)

    def entry(nvars):
        return LaurentPoly(nvars, [(tuple(rng.randint(-1, 2) for _ in range(nvars)),
                                    rng.randint(-3, 3))
                                   for _ in range(rng.randint(0, 3))])
    for _ in range(40):
        nvars = rng.randint(2, 3)
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        rows = [[entry(nvars) for _ in range(n)] for _ in range(m)]
        i, j = rng.randrange(m), rng.randrange(n)
        rows[i][j] = LaurentPoly.monomial(rng.choice((2, -3, 5, -6)),
                                          (rng.randint(-2, 2) for _ in range(nvars)))
        rows = [tuple(row) for row in rows[i:] + rows[:i]]
        live = [row for row in rows if any(not e.is_zero for e in row)]
        for k in range(1, min(m, n) + 1):
            assert minor_gcd(rows, k, nvars) == \
                _enumerate_minor_gcd(live, k, nvars), (rows, k)
    assert sum(c != 1 for c in scales) >= 40


def sympy_minor_gcd(rows, k, nvars):
    """Unit-normal gcd of the k-minors from sympy's determinants and gcd;
    the calling test is skipped without sympy."""
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(f"t0:{nvars}")
    matrix = sympy.Matrix([[sum(sympy.Rational(c.numerator, c.denominator)
                                * sympy.Mul(*[s ** e for s, e in zip(syms, exps)])
                                for exps, c in entry.terms.items())
                            for entry in row] for row in rows])
    g = sympy.Integer(0)
    for ri in combinations(range(len(rows)), k):
        for ci in combinations(range(len(rows[0])), k):
            # a Laurent minor over a monomial denominator: its numerator
            # is the same minor up to units
            g = sympy.gcd(g, sympy.numer(sympy.together(matrix.extract(ri, ci).det())))
    poly = sympy.Poly(g, *syms, domain=sympy.QQ)
    den = lcm(*(int(c.q) for _, c in poly.terms()))
    return normalize(LaurentPoly(nvars, [(m, int(c * den))
                                         for m, c in poly.terms() if c]))


def test_conjugated_relators_are_dropped():
    # phi kills r, so the Fox row of x1^-1 r x1 is phi(x1)^-1 times that of
    # r.  The T(7,7) closure with every relator repeated so conjugated
    # keeps only the first rows, and its polynomial (t0...t6 - 1)^5
    d = 7
    pres = closure_presentation(full_twist(d))
    x1 = Word([(0, 1)])
    doubled = Presentation(pres.generators, pres.relators + tuple(
        x1.inverse() * r * x1 for r in pres.relators))
    phi = AbelMap(d, tuple(tuple(int(i == j) for j in range(d)) for i in range(d)))
    rows = [tuple(row) for row in fox_matrix(doubled, phi)]
    assert drop_unit_multiples(rows) == rows[:len(pres.relators)]
    expected = (LaurentPoly.monomial(1, (1,) * d) - 1) ** (d - 2)
    assert alexander_polynomial(doubled, phi) == expected


@st.composite
def poly_matrix_st(draw, max_rows=4, ncols=3, nvars=1):
    # entries are combinations of 1, t, t^2 in one variable and of
    # 1, t0, t1, t0*t1 in two
    def exps(i):
        return (i,) if nvars == 1 else (i % 2, i // 2)

    def poly():
        return st.builds(
            lambda cs: LaurentPoly(nvars, {exps(i): c
                                           for i, c in enumerate(cs) if c}),
            st.lists(st.integers(-2, 2), min_size=0, max_size=2 + nvars))
    m = draw(st.integers(1, max_rows))
    return [[draw(poly()) for _ in range(ncols)] for _ in range(m)]


@given(st.integers(1, 2).flatmap(
    lambda v: st.tuples(st.just(v), poly_matrix_st(nvars=v))),
    st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_minor_gcd_matches_bruteforce(case, k):
    # one variable takes the row echelon route, two the enumeration
    nvars, rows = case
    assert minor_gcd(rows, k, nvars) == oracle_minor_gcd(rows, k, nvars)


@given(poly_matrix_st(max_rows=4, ncols=3), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_enumeration_and_echelon_agree(rows, k):
    tidy = [tuple(r) for r in rows if any(not e.is_zero for e in r)]
    if len(tidy) < k:
        return
    by_echelon = _echelon_minor_gcd([_dense_row(r) for r in tidy], k)
    by_enum = _enumerate_minor_gcd(tidy, k, 1)
    assert by_echelon == by_enum == minor_gcd(rows, k, 1)


def sympy_determinant_divisor(rows, k):
    """Product of the first k invariant factors over Q[t] from sympy,
    which serves as an independent oracle and is never a runtime
    dependency; unit-normal, zero when fewer than k are nonzero."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    t = sympy.Symbol("t")
    matrix = sympy.Matrix([[sum(c * t ** e for (e,), c in entry.terms.items())
                            for entry in row] for row in rows])
    factors = invariant_factors(matrix, domain=sympy.QQ[t])
    product = sympy.Poly(sympy.prod(factors[:k]), t)
    den = lcm(*(int(c.q) for c in product.coeffs()))
    return normalize(LaurentPoly(1, {
        e: int(c * den)
        for e, c in zip(product.monoms(), product.coeffs()) if c}))


def test_echelon_minor_gcd_matches_sympy():
    rng = random.Random(20261018)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = []
        while len(rows) < m:
            row = tuple(LaurentPoly(1, {(e,): rng.randint(-3, 3)
                                        for e in range(rng.randint(0, 3))})
                        if rng.random() < 0.7 else LaurentPoly.zero(1)
                        for _ in range(n))
            if any(not e.is_zero for e in row):
                rows.append(row)
        for k in range(1, min(m, n) + 1):
            expected = sympy_determinant_divisor(rows, k)
            assert _echelon_minor_gcd([_dense_row(r) for r in rows], k) == \
                expected, (rows, k)
            assert minor_gcd(rows, k, 1) == expected, (rows, k)


def test_echelon_minor_gcd_diagonal_not_dividing():
    # invariant factors 1 and t^2 - 1: the diagonal entry t - 1 does not
    # divide t + 1, so a Smith normal form would need a repair pass; the
    # 1-minors t - 1 and t + 1 are coprime
    rows = [(P("t - 1"), P("0", 1)), (P("0", 1), P("t + 1"))]
    for k, expected in ((1, P("1", 1)), (2, P("t^2 - 1"))):
        assert _echelon_minor_gcd([_dense_row(r) for r in rows], k) == expected
        assert sympy_determinant_divisor(rows, k) == expected
    # bordered by the unit -2t: contracting it leaves the same 2 x 2
    # matrix times units, so the (k + 1)-minors have the same gcd
    x, y = P("t^2 + 3"), P("t - 4")
    border = (P("-2*t"), P("t^3 - t"), P("5"))
    bordered = [border,
                (x * border[0], P("t - 1") + x * border[1], x * border[2]),
                (y * border[0], y * border[1], P("t + 1") + y * border[2])]
    for k, expected in ((1, P("1", 1)), (2, P("1", 1)), (3, P("t^2 - 1"))):
        assert minor_gcd(bordered, k, 1) == expected
        assert sympy_determinant_divisor(bordered, k) == expected


# ---------------------------------------------------------------------------
# polynomial invariants of presentations


def trefoil_presentation():
    return Presentation(("x", "y"), (W("x y x y^-1 x^-1 y^-1"),))


def test_trefoil_polynomial():
    assert alexander_polynomial(trefoil_presentation(), PHI_T) == P("t^2 - t + 1")


def test_free_rank_two_gives_zero():
    pres = Presentation(("x", "y"))
    assert alexander_polynomial(pres, PHI_T).is_zero


def test_single_generator_conventions():
    phi = AbelMap.constant_one(1)
    assert alexander_polynomial(Presentation(("x",)), phi).is_zero
    pres = Presentation(("x",), (Word([(0, 2)]),))
    assert alexander_polynomial(pres, phi) == LaurentPoly.one(1)
    # relator with trivial image does not count
    killed = AbelMap(1, ((0,),))
    assert alexander_polynomial(pres, killed).is_zero


def test_z3_presentation():
    rels = (W("x y x^-1 y^-1"), W("x z x^-1 z^-1"), W("y z y^-1 z^-1"))
    pres = Presentation(("x", "y", "z"), rels)
    phi = AbelMap.constant_one(3)
    assert alexander_polynomial(pres, phi) == P("t^2 - 2*t + 1")


def test_hopf_presentation_two_variables():
    pres = Presentation(("x", "y"), (W("x y x^-1 y^-1"),))
    phi = AbelMap(2, ((1, 0), (0, 1)))
    assert alexander_polynomial(pres, phi) == LaurentPoly.one(2)


def test_wirtinger_trefoil_three_generators():
    # a b a^-1 = c, b c b^-1 = a, c a c^-1 = b
    gens = ("a", "b", "c")
    rels = tuple(parse_word(text, gens) for text in
                 ("a b a^-1 c^-1", "b c b^-1 a^-1", "c a c^-1 b^-1"))
    pres = Presentation(gens, rels)
    delta = alexander_polynomial(pres, AbelMap.constant_one(3))
    assert equal_up_to_units(delta, P("t^2 - t + 1"))


@given(words_st(n_gens=2, max_syllables=4), st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_consequence_relators_do_not_change_invariant(u, which):
    # conjugating an existing relator adds a redundant row
    base = trefoil_presentation()
    r = base.relators[which % len(base.relators)]
    extra = u * r * u.inverse()
    bigger = Presentation(base.generators, base.relators + (extra,))
    assert alexander_polynomial(bigger, PHI_T) == \
        alexander_polynomial(base, PHI_T)


def test_product_of_conjugates_is_redundant():
    base = trefoil_presentation()
    r = base.relators[0]
    u, v = W("x y"), W("y^-1")
    extra = (u * r * u.inverse()) * (v * r.inverse() * v.inverse())
    bigger = Presentation(base.generators, base.relators + (extra,))
    assert alexander_polynomial(bigger, PHI_T) == \
        alexander_polynomial(base, PHI_T)


def test_fox_matrix_matches_free_derivatives():
    # each entry is theta of the group-ring free derivative, over random
    # relators and markings of rank 1 to 3 with negative images (the hat
    # marking sends a meridian to t^-d)
    rng = random.Random(20261018)
    for _ in range(500):
        n = rng.randint(1, 4)
        rank = rng.randint(1, 3)
        phi = AbelMap(rank, tuple(tuple(rng.randint(-3, 3) for _ in range(rank))
                                  for _ in range(n)))
        relators = tuple(
            Word((rng.randrange(n), rng.choice((-3, -2, -1, 1, 2, 3)))
                 for _ in range(rng.randint(1, 12)))
            for _ in range(rng.randint(1, 3)))
        pres = Presentation(tuple(f"x{i}" for i in range(n)), relators)
        assert fox_matrix(pres, phi) == [
            [theta(fox_derivative(r, j), phi) for j in range(n)]
            for r in pres.relators]


def test_fox_matrix_shape_and_mismatch():
    pres = trefoil_presentation()
    mat = fox_matrix(pres, PHI_T)
    assert len(mat) == 1 and len(mat[0]) == 2
    with pytest.raises(ValueError):
        fox_matrix(pres, AbelMap.constant_one(3))
    with pytest.raises(ValueError):
        alexander_polynomial(pres, AbelMap.constant_one(3))


# ---------------------------------------------------------------------------
# one-variable specialization


def test_one_variable_from_two_variable_marking():
    pres = Presentation(("x", "y"), (W("x y x^-1 y^-1"),))
    phi = AbelMap(2, ((1, 0), (0, 1)))
    # composing with the coordinate sum sends both generators to t
    assert alexander_one_variable(pres, phi) == P("t - 1")


def test_one_variable_rejects_non_surjective():
    pres = Presentation(("x", "y"), (W("x y x^-1 y^-1"),))
    # a rank-1 map is onto Z exactly when its images have gcd 1
    for images in (((2,), (4,)), ((0,), (0,))):
        with pytest.raises(ComputationError, match="not onto Z"):
            alexander_one_variable(pres, AbelMap(1, images))
    assert alexander_one_variable(pres, AbelMap(1, ((2,), (3,)))) == P("t - 1")
    # a rank-2 map is composed with the coordinate sum first: (2,), (2,)
    with pytest.raises(ComputationError, match="not onto Z"):
        alexander_one_variable(pres, AbelMap(2, ((1, 1), (1, 1))))
