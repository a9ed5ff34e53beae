"""Differential tests: the row echelon minor gcd against the Smith normal form.

``minors._echelon_minor_gcd`` echelons the matrix once, then each
k-column submatrix, and folds the products of their pivots.
``snf_reference._snf_minor_gcd`` keeps the Smith normal form over Q[t]
that it replaced, whose first k invariant factors multiply to the same
determinantal divisor.  Both results are unit-normal, so they must be
equal, on seeded random matrices and on every one-variable call that the
Fox matrices of arrangements and torus links make.  ``minor_gcd`` must
agree too: it contracts unit entries such as 2t first, so the echelon
route then sees ``Fraction`` coefficients.  The reference keeps its own
dense-list arithmetic, so the conversion of a row to dense lists is
checked against it as well.
"""

import random
from fractions import Fraction

import pytest

import alexpoly.minors as minors
from alexpoly.braid import factorization_from_json, zvk_presentation
from alexpoly.fox import alexander_one_variable
from alexpoly.linkpoly import hat_delta, marked_torus_link, one_variable_delta, torus_link
from alexpoly.ring import LaurentPoly

import snf_reference as reference

ZERO = LaurentPoly.zero(1)


def _random_entry(rng: random.Random) -> LaurentPoly:
    if rng.random() < 0.3:
        return ZERO
    return LaurentPoly(1, {(e,): rng.randint(-3, 3)
                           for e in range(rng.randint(1, 3))})


def _random_matrix(rng: random.Random) -> list[tuple[LaurentPoly, ...]]:
    """Up to 8 x 6; about a quarter of the rows are combinations of
    earlier rows with polynomial multipliers, and some rows are shifted
    by a monomial with a negative exponent."""
    m, n = rng.randint(1, 8), rng.randint(1, 6)
    rows: list[tuple[LaurentPoly, ...]] = []
    while len(rows) < m:
        if rows and rng.random() < 0.25:
            row = [ZERO] * n
            for earlier in rng.sample(rows, rng.randint(1, min(2, len(rows)))):
                factor = _random_entry(rng)
                row = [a + factor * b for a, b in zip(row, earlier)]
        else:
            row = [_random_entry(rng) for _ in range(n)]
        if rng.random() < 0.2:
            row = [e.shift((rng.randint(-2, 0),)) for e in row]
        if any(not e.is_zero for e in row):
            rows.append(tuple(row))
    return rows


def test_random_matrices_match_smith_form():
    rng = random.Random(20261019)
    deficient = 0
    for _ in range(300):
        rows = _random_matrix(rng)
        for k in range(1, min(len(rows), len(rows[0])) + 1):
            got = minors._echelon_minor_gcd(rows, k)
            assert got == reference._snf_minor_gcd(rows, k), (rows, k)
            deficient += got.is_zero
    assert deficient  # rank-deficient cases were drawn


def test_dense_rows_match_reference_conversion():
    rng = random.Random(20261020)
    for _ in range(300):
        row = [_random_entry(rng).shift((rng.randint(-4, 2),))
               for _ in range(rng.randint(1, 6))]
        if all(e.is_zero for e in row):
            continue
        low = min(e.min_exponents()[0] for e in row if not e.is_zero)
        assert minors._dense_row(tuple(row)) == [
            reference._dense(e.shift((-low,))) for e in row], row


def _with_units(rng: random.Random, rows):
    """rows with some entries replaced by units c t^a, c in +-1, +-2, 3."""
    return [tuple(LaurentPoly(1, {(rng.randint(-2, 2),): rng.choice((1, -1, 2, -2, 3))})
                  if rng.random() < 0.15 else e for e in row) for row in rows]


def test_minor_gcd_matches_smith_form(monkeypatch):
    echelon = minors._echelon_minor_gcd
    seen = {"fraction": 0, "tall": 0, "square": 0}

    def recording(rows, k):
        seen["fraction"] += any(type(c) is Fraction for row in rows
                                for e in row for c in e.terms.values())
        seen["tall" if len(rows) > k else "square"] += 1
        return echelon(rows, k)
    monkeypatch.setattr(minors, "_echelon_minor_gcd", recording)
    rng = random.Random(20261021)
    deficient = 0
    for _ in range(150):
        rows = _with_units(rng, _random_matrix(rng))
        for k in range(1, min(len(rows), len(rows[0])) + 1):
            got = minors.minor_gcd(rows, k, 1)
            assert got == reference._snf_minor_gcd(rows, k), (rows, k)
            deficient += got.is_zero
    assert deficient
    assert all(seen.values()), seen


def test_contract_passes_rows_with_zero_pivot_entry():
    # a row whose entry in the pivot column is zero keeps its other
    # entries, the same objects, with no multiply or subtract
    t = LaurentPoly.univariate
    rows = [(t({0: 1}), t({1: 1}), t({0: -1, 1: 1})),
            (ZERO, t({0: 1, 1: 1}), t({2: 3})),
            (t({2: 1}), ZERO, t({0: -1, 3: 1})),
            (ZERO, ZERO, t({1: 2, 0: 1}))]
    out = minors._contract(rows, 0, 0)
    assert len(out) == 3
    for kept, row in ((out[0], rows[1]), (out[2], rows[3])):
        assert all(a is b for a, b in zip(kept, row[1:], strict=True))
    assert out[1] == (t({3: -1}), t({2: 1, 0: -1}))  # row - t^2 pivot row
    for k in (1, 2, 3):
        assert minors.minor_gcd(rows, k, 1) == reference._snf_minor_gcd(rows, k)


def test_row_made_a_unit_multiple_by_contraction_is_dropped(monkeypatch):
    # no two rows are unit multiples of each other, but clearing column 0
    # with the pivot 1 leaves the third row 2t times the second: the
    # echelon route sees two rows, and the gcd is that of every minor
    t = LaurentPoly.univariate
    rows = [(t({0: 1}), ZERO, ZERO),
            (t({1: 1}), t({1: 1, 0: -1}), t({2: 1, 0: 1})),
            (t({0: 1, 1: 1}), t({2: 2, 1: -2}), t({3: 2, 1: 2})),
            (ZERO, t({2: 1, 0: 2}), t({1: 1, 0: 3}))]
    assert minors._drop_unit_multiples(rows) == rows
    assert minors._drop_unit_multiples(minors._contract(rows, 0, 0)) == \
        [(t({1: 1, 0: -1}), t({2: 1, 0: 1})), (t({2: 1, 0: 2}), t({1: 1, 0: 3}))]
    echelon = minors._echelon_minor_gcd
    heights = []

    def recording(rows, k):
        heights.append(len(rows))
        return echelon(rows, k)
    monkeypatch.setattr(minors, "_echelon_minor_gcd", recording)
    for k in (1, 2, 3):
        assert minors.minor_gcd(rows, k, 1) == reference._snf_minor_gcd(rows, k)
    assert heights == [2, 2]


@pytest.fixture
def compared(monkeypatch):
    """Route every one-variable minor gcd through both loops, asserting
    that they agree; the list collects (rows, columns, k) per call."""
    echelon = minors._echelon_minor_gcd
    calls = []

    def both(rows, k):
        got = echelon(rows, k)
        assert got == reference._snf_minor_gcd(rows, k), (rows, k)
        calls.append((len(rows), len(rows[0]), k))
        return got
    monkeypatch.setattr(minors, "_echelon_minor_gcd", both)
    return calls


def _arrangement(n: int):
    factors = []
    for j in range(2, n + 1):
        for i in range(1, j):
            conj = list(range(j - 1, i, -1))
            factors.append(conj + [i, i] + [-v for v in reversed(conj)])
    return factorization_from_json({"strands": n, "factors": factors})


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize("projective", [None, True])
def test_arrangement_fox_matrices(compared, n, projective):
    pres, phi = zvk_presentation(_arrangement(n), projective=projective)
    alexander_one_variable(pres, phi)
    # the affine Fox matrix omits a column and has one k-column subset;
    # the projective one keeps every column and has k + 1
    extra = 1 if projective else 0
    assert compared
    assert all(cols == k + extra for _, cols, k in compared)


@pytest.mark.parametrize("d", range(3, 13))
def test_torus_link_fox_matrices(compared, d):
    one_variable_delta(torus_link(d))
    hat_delta(marked_torus_link(d, d + 1))
    assert compared
