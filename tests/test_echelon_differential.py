"""Differential tests: the one-variable minor gcd against the Smith normal form.

``minors.minor_gcd`` in one variable turns the rows into dense lists,
drops zero rows and unit multiples, contracts unit entries c t^a without
division, and ``minors._echelon_minor_gcd`` echelons what is left once,
then each k-column submatrix, and folds the products of their pivots.
``snf_reference._snf_minor_gcd`` keeps the Smith normal form over Q[t]
that the echelon replaced, whose first k invariant factors multiply to
the same determinantal divisor.  Both results are unit-normal, so they
must be equal, on seeded random matrices and on every one-variable call
that the Fox matrices of arrangements, torus links, the shipped
factorizations and torus closures with every relator repeated
conjugated make.  Each is compared on the rows the route starts from,
so that a wrong drop or contraction shows as well as a wrong echelon.
The reference keeps its own dense-list arithmetic, so the conversion of
a row to dense lists is checked against it as well.  The echelon stays
on integers: its pseudo-divisions scale a row only where a pivot's
leading coefficient does not divide.  Matrices whose pivots lead with
other coefficients, entries of degree 20 to 80 and the Fox matrices of
random closures, are also checked against sympy's determinants and gcd
over Z[t], and against the Smith form where it finishes in time.
"""

import json
import random
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

import alexpoly.fox as fox
import alexpoly.minors as minors
from alexpoly.braid import (BraidWord, closure_presentation,
                            factorization_from_json, full_twist,
                            zvk_presentation)
from alexpoly.fox import alexander_one_variable, alexander_polynomial
from alexpoly.group import AbelMap, Presentation, Word
from alexpoly.linkpoly import hat_delta, marked_torus_link, one_variable_delta, torus_link
from alexpoly.errors import InputError
from alexpoly.ring import LaurentPoly, normalize

import snf_reference as reference

DATA = Path(__file__).resolve().parent.parent / "data"
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
            got = minors._echelon_minor_gcd(_dense(rows), k)
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


def _dense(rows) -> list[list[list]]:
    return [minors._dense_row(row) for row in rows]


def _drop(rows):
    return minors._drop_unit_multiples(rows, minors._lengths, minors._dense_key)


def _nonzero(rows):
    """rows without the zero rows, which the reference does not take."""
    return [row for row in rows if any(not e.is_zero for e in row)]


def _with_units(rng: random.Random, rows):
    """rows with some entries replaced by units c t^a, c in +-1, +-2, 3."""
    return [tuple(LaurentPoly(1, {(rng.randint(-2, 2),): rng.choice((1, -1, 2, -2, 3))})
                  if rng.random() < 0.15 else e for e in row) for row in rows]


def test_minor_gcd_matches_smith_form(monkeypatch):
    # unit entries such as 2t are contracted first; the echelon then sees
    # rows both taller than k and square
    contract = minors._contract_dense
    echelon = minors._echelon_minor_gcd
    seen = {"scaled pivot": 0, "tall": 0, "square": 0}

    def contracting(rows, i, j):
        seen["scaled pivot"] += rows[i][j][-1] not in (1, -1)
        return contract(rows, i, j)

    def recording(rows, k):
        seen["tall" if len(rows) > k else "square"] += 1
        return echelon(rows, k)
    monkeypatch.setattr(minors, "_contract_dense", contracting)
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


def test_contraction_keeps_integer_rows_integer():
    # c t^a x - x_j p divides by nothing: integer rows stay integer through
    # every contraction, whatever the pivot's coefficient
    rng = random.Random(20261022)
    pivots = set()
    for _ in range(200):
        work = _drop(_dense(_with_units(rng, _random_matrix(rng))))
        while (spot := minors._find_dense_unit(work)) is not None:
            i, j = spot
            pivots.add(work[i][j][-1])
            work = _drop(minors._contract_dense(work, i, j))
            assert all(type(c) is int for row in work for e in row for c in e)
    assert {2, -2, 3} <= pivots


def _unit(rng: random.Random) -> LaurentPoly:
    """c t^a with c in +-1, 2, -3 and a in -2..3."""
    return LaurentPoly(1, {(rng.randint(-2, 3),): rng.choice((1, -1, 2, -3))})


def _dense_route_matrix(rng: random.Random) -> list[tuple[LaurentPoly, ...]]:
    """Up to 9 x 5: a first row whose first unit is a pivot c t^a, random
    rows, rows repeating an earlier one times -t^3 or 6, rows s y + g p
    for a unit s, a row y and the pivot row p, which contracting p turns
    into s times the image of y, and zero rows; each row is then shifted
    by t^b, b in -3..0."""
    n = rng.randint(1, 5)
    j = rng.randrange(n)
    pivot = tuple(ZERO if c < j else _unit(rng) if c == j else _random_entry(rng)
                  for c in range(n))
    rows = [tuple(_random_entry(rng) for _ in range(n))
            for _ in range(rng.randint(0, 4))]
    for _ in range(rng.randint(1, 4)):
        y = rng.choice(rows + [pivot])
        kind = rng.randrange(3)
        if kind == 0:
            s = rng.choice((LaurentPoly.monomial(-1, (3,)),
                            LaurentPoly.constant(6)))
            rows.append(tuple(s * e for e in y))
        elif kind == 1:
            s, g = _unit(rng), _random_entry(rng)
            rows.append(tuple(s * a + g * b for a, b in zip(y, pivot)))
        else:
            rows.append((ZERO,) * n)
    rng.shuffle(rows)
    return [tuple(e.shift((b,)) for e in row)
            for b, row in ((rng.randint(-3, 0), row) for row in [pivot] + rows)]


def _count_scaled_steps(monkeypatch) -> list[int]:
    """The scales s != 1 of the pseudo-divisions the echelon takes from
    now on."""
    pdivmod = minors._pdivmod
    scales = []

    def recording(a, b):
        s, q, r = pdivmod(a, b)
        # s a = q b + r, r shorter than b
        assert s > 0 and len(r) < len(b)
        assert reference._psub(reference._pmul([s], a), reference._pmul(q, b)) == r
        if s != 1:
            scales.append(s)
        return s, q, r
    monkeypatch.setattr(minors, "_pdivmod", recording)
    return scales


def test_dense_route_matches_smith_form(monkeypatch):
    rng = random.Random(20261023)
    seen = {"non-monic pivot": 0, "dropped after contraction": 0,
            "zero row": 0, "deficient": 0}
    scaled = _count_scaled_steps(monkeypatch)
    for _ in range(300):
        rows = _dense_route_matrix(rng)
        seen["zero row"] += len(_nonzero(rows)) < len(rows)
        first = _drop(_dense(rows))
        i, j = minors._find_dense_unit(first)
        seen["non-monic pivot"] += abs(first[i][j][-1]) != 1
        contracted = minors._contract_dense(first, i, j)
        seen["dropped after contraction"] += len(_drop(contracted)) < len(contracted)
        for k in range(1, len(rows[0]) + 1):
            got = minors.minor_gcd(rows, k, 1)
            assert got == reference._snf_minor_gcd(_nonzero(rows), k), (rows, k)
            seen["deficient"] += got.is_zero
    assert all(seen.values()), seen
    assert scaled


def _sympy_minor_gcd(rows, k: int) -> LaurentPoly:
    """Unit-normal gcd of the k-minors from sympy's determinants and gcd
    over Z[t], each row shifted to exponents >= 0 (a unit per minor);
    sympy is never a runtime dependency, and the calling test is skipped
    without it."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    t = sympy.Symbol("t")
    ring = sympy.ZZ[t]
    mat = []
    for row in rows:
        low = min(e for entry in row for e, in entry.terms)
        mat.append([ring.from_sympy(sympy.Add(*(c * t ** (e - low)
                                                for (e,), c in entry.terms.items())))
                    for entry in row])
    g = ring.zero
    for ri in combinations(range(len(mat)), k):
        for ci in combinations(range(len(mat[0])), k):
            g = ring.gcd(g, DomainMatrix([[mat[i][j] for j in ci] for i in ri],
                                         (k, k), ring).det())
    poly = sympy.Poly(ring.to_sympy(g), t)
    return normalize(LaurentPoly(1, {e: int(c) for e, c in
                                     zip(poly.monoms(), poly.coeffs())}))


def _sparse_entry(rng: random.Random) -> LaurentPoly:
    """c t^d + b t^e + a with d in 20..80, c in 2, -3, 5, 6 and a != 0."""
    d = rng.randint(20, 80)
    return LaurentPoly.univariate({d: rng.choice((2, -3, 5, 6)),
                                   rng.randint(1, d - 1): rng.randint(-3, 3),
                                   0: rng.choice((1, -2, 3, 7))})


def test_high_degree_non_monic_matrices(monkeypatch):
    # entries of degree 20 to 80 whose leading coefficients are not +-1:
    # no entry is a unit, so the echelon takes every matrix, and its
    # pseudo-divisions scale rows.  Wide and tall shapes both: the tall
    # ones echelon more rows than they have pivots.  The Smith form over
    # Q, slow at these degrees, checks the 2 x 2 matrices; sympy checks
    # every one
    scaled = _count_scaled_steps(monkeypatch)
    rng = random.Random(20261024)
    for m, n in [(2, 2)] * 8 + [(3, 3), (3, 4), (4, 3), (3, 2)]:
        rows = [tuple(_sparse_entry(rng) for _ in range(n)) for _ in range(m)]
        for k in range(1, min(m, n) + 1):
            got = minors.minor_gcd(rows, k, 1)
            if m == 2:
                assert got == reference._snf_minor_gcd(rows, k), (rows, k)
            assert got == _sympy_minor_gcd(rows, k), (rows, k)
    assert len(scaled) > 100


def test_random_closure_fox_matrices(monkeypatch):
    # the one-variable Fox matrices of closures of random braids on 3 to 6
    # strands with 10 to 80 letters, whose echelon pivots mostly have
    # leading coefficients other than +-1; a word whose generator images
    # pass braid.MAX_SYLLABLES is drawn again.  sympy checks every matrix;
    # the Smith form over Q, which can take minutes on 5 x 5 matrices of
    # these degrees, checks those of at most 3 rows
    scaled = _count_scaled_steps(monkeypatch)
    route = fox.minor_gcd
    calls = []

    def recording(rows, k, nvars, floor=None):
        got = route(rows, k, nvars, floor)
        calls.append((_nonzero(rows), k, got))
        return got
    monkeypatch.setattr(fox, "minor_gcd", recording)
    rng = random.Random(20261025)
    closures = 0
    while closures < 40:
        d = rng.randint(3, 6)
        word = tuple(rng.choice((1, -1)) * rng.randint(1, d - 1)
                     for _ in range(rng.randint(10, 80)))
        try:
            pres = closure_presentation(BraidWord(d, word))
        except InputError:
            continue
        alexander_polynomial(pres, AbelMap(1, ((1,),) * d))
        closures += 1
    smith = 0
    for rows, k, got in calls:
        assert got == _sympy_minor_gcd(rows, k), (rows, k)
        if len(rows) <= 3:
            assert got == reference._snf_minor_gcd(rows, k), (rows, k)
            smith += 1
    assert len(calls) >= 30 and smith >= 10
    assert len(scaled) > 100


def test_dense_key_is_equal_exactly_on_rational_multiples():
    # a row times -2 t^3 keys as the row, 3 times the row with an entry
    # changed does not: the key is the primitive row, signed by the
    # leading coefficient of its first nonzero entry
    t = LaurentPoly.univariate
    row = (t({0: 3, 1: -6}), ZERO, t({2: 9, 0: 3}))
    rows = [row, tuple(e * -2 for e in row), (row[0] * 3, ZERO, t({2: 27}))]
    dense = _dense([row, tuple(e.shift((3,)) for e in rows[1]), rows[2]])
    assert dense[1] == [[-6, 12], [], [-6, 0, -18]]
    assert minors._dense_key(dense[0]) == minors._dense_key(dense[1]) == \
        ((-1, 2), (), (-1, 0, -3))
    assert _drop(dense) == [dense[0], dense[2]]


def test_scaled_row_is_made_primitive():
    # 4 (3 t^2) = (6t - 3)(1 + 2t) + 3 scales the second row by 4, which
    # leaves (3, 12 + 6t - 12t^2); divided by its content 3 the row gives
    # the pivot 1
    a = [[[1, 2], [0, 2]], [[0, 0, 3], [3]]]
    assert minors._echelon(a)[0] == [1]


def test_contract_passes_rows_with_zero_pivot_entry():
    # a row whose entry in the pivot column is zero keeps its other
    # entries, the same lists, with no multiply or subtract
    t = LaurentPoly.univariate
    rows = [(t({0: 1}), t({1: 1}), t({0: -1, 1: 1})),
            (ZERO, t({0: 1, 1: 1}), t({2: 3})),
            (t({2: 1}), ZERO, t({0: -1, 3: 1})),
            (ZERO, ZERO, t({1: 2, 0: 1}))]
    dense = _dense(rows)
    out = minors._contract_dense(dense, 0, 0)
    assert len(out) == 3
    for kept, row in ((out[0], dense[1]), (out[2], dense[3])):
        assert all(a is b for a, b in zip(kept, row[1:], strict=True))
    assert out[1] == [[0, 0, 0, -1], [-1, 0, 1]]  # row - t^2 pivot row
    for k in (1, 2, 3):
        assert minors.minor_gcd(rows, k, 1) == reference._snf_minor_gcd(rows, k)


def test_row_made_a_unit_multiple_by_contraction_is_dropped(monkeypatch):
    # no two rows are unit multiples of each other, but clearing column 0
    # with the pivot 1 leaves the third row 2t times the second, and 2
    # times it once both lose their common power of t: the echelon route
    # sees two rows, and the gcd is that of every minor
    t = LaurentPoly.univariate
    rows = [(t({0: 1}), ZERO, ZERO),
            (t({1: 1}), t({1: 1, 0: -1}), t({2: 1, 0: 1})),
            (t({0: 1, 1: 1}), t({2: 2, 1: -2}), t({3: 2, 1: 2})),
            (ZERO, t({2: 1, 0: 2}), t({1: 1, 0: 3}))]
    dense = _dense(rows)
    assert _drop(dense) == dense
    contracted = minors._contract_dense(dense, 0, 0)
    assert contracted[1] == [[-2, 2], [2, 0, 2]]
    assert _drop(contracted) == [[[-1, 1], [1, 0, 1]], [[2, 0, 1], [3, 1]]]
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
    """Check every one-variable minor gcd of a Fox matrix against the
    reference on the rows it starts from.  ``checked`` counts the checks
    and ``echelon`` collects (rows, columns, k) per echelon call."""
    route = fox.minor_gcd
    echelon = minors._echelon_minor_gcd
    seen = SimpleNamespace(checked=0, echelon=[])

    def both(rows, k, nvars, floor=None):
        got = route(rows, k, nvars, floor)
        if nvars == 1:
            assert got == reference._snf_minor_gcd(_nonzero(rows), k), (rows, k)
            seen.checked += 1
        return got

    def recording(rows, k):
        seen.echelon.append((len(rows), len(rows[0]), k))
        return echelon(rows, k)
    monkeypatch.setattr(fox, "minor_gcd", both)
    monkeypatch.setattr(minors, "_echelon_minor_gcd", recording)
    return seen


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
    assert compared.echelon
    assert all(cols == k + extra for _, cols, k in compared.echelon)


@pytest.mark.parametrize("d", range(3, 13))
def test_torus_link_fox_matrices(compared, d):
    one_variable_delta(torus_link(d))
    hat_delta(marked_torus_link(d, d + 1))
    assert compared.checked == 2


@pytest.mark.parametrize("path", sorted(DATA.glob("*/factorization.json")),
                         ids=lambda path: path.parent.name)
@pytest.mark.parametrize("projective", [None, True])
def test_shipped_fox_matrices(compared, path, projective):
    # the sextic's matrix contracts four unit entries before its echelon
    obj = json.loads(path.read_text(encoding="utf-8"))
    pres, phi = zvk_presentation(factorization_from_json(obj),
                                 projective=projective)
    alexander_one_variable(pres, phi)
    assert compared.checked == 1


@pytest.mark.parametrize("d", range(3, 8))
def test_conjugated_relator_fox_matrices(compared, d):
    # the Fox row of x1^-1 r x1 is t^-1 times that of r under the map
    # sending every generator to t, so the drop rule halves the matrix
    pres = closure_presentation(full_twist(d))
    x1 = Word([(0, 1)])
    doubled = Presentation(pres.generators, pres.relators + tuple(
        x1.inverse() * r * x1 for r in pres.relators))
    alexander_polynomial(doubled, AbelMap(1, ((1,),) * d))
    assert compared.echelon == [(len(pres.relators), d - 1, d - 1)]
