"""One relator per factor against the d-relators-per-factor reference,
and the letter-by-letter relator route against the per-factor
automorphisms.

``zvk_presentation`` keeps, for each factor w s_i^k w^-1, only the
relator w^-1 applied to s_i^k(x_i) x_i^-1.  The reference in
``zvk_reference.py`` keeps b(x_j) x_j^-1 for every factor b and every
generator x_j.  Both must give the same one-variable and multivariable
Alexander polynomials and the same abelianization, on the shipped
factorizations (affine and projective), on generic line arrangements
conjugated by seeded braids, and after Hurwitz moves.

``zvk_presentation`` folds that relator with ``group._join`` over the
w^-1-images of the letters of s_i^k(x_i) x_i^-1;
``per_factor_presentation`` applies the automorphisms of s_i^k and w^-1
to whole Words.  The relators must have identical syllables on the
generic arrangements with 3-12 lines, each factor in either standard
form by a seeded coin flip, conjugated by short seeded braids and
projective, and on the shipped factorizations.  They must have identical
letters on the generic arrangements with 3-6 lines conjugated as a whole
by seeded braids of 0-60 letters, plain and projective, and on the
5-line one conjugated by the 40- and 60-letter braids of the CI step.

``braid._zvk_rows`` builds the Fox rows of those relators without words,
pushing row vectors through coloured Burau matrices.  On every input
above, plain and projective, its rows must equal ``fox_matrix`` of
``zvk_presentation`` entry by entry, not up to units, under the orbit
map and under its composition to one variable; with ``MAX_ROW_TERMS``
lifted where the multivariable rows of a 60-letter conjugator pass it,
and also on factors with cores of 100 letters, bare and conjugated.
"""

import json
import pathlib
import random

import pytest

import alexpoly.braid
from alexpoly.braid import (MAX_SYLLABLES, BraidWord, Factorization,
                            _zvk_rows, zvk_presentation)
from alexpoly.errors import InputError
from alexpoly.fox import (alexander_one_variable, alexander_polynomial,
                          fox_matrix)

from zvk_reference import (abelianization_invariants, full_zvk_presentation,
                           per_factor_presentation)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

SHIPPED = ["two_lines", "three_lines", "conic_line", "nodal_cubic",
           "cuspidal_cubic", "zariski_sextic"]


def shipped(name: str, projective: bool) -> Factorization:
    with open(DATA / name / "factorization.json", encoding="utf-8") as fh:
        obj = json.load(fh)
    factors = tuple(BraidWord(obj["strands"], tuple(w)) for w in obj["factors"])
    return Factorization(obj["strands"], factors, projective)


def conjugate(f: Factorization, g: BraidWord) -> Factorization:
    """Every factor written as g^-1 (w s_i^k w^-1) g; the product is
    still the full twist, which is central."""
    h = g.inverse()
    return Factorization(f.strands, tuple(h * b * g for b in f.factors),
                         f.projective)


def arrangement(n: int, seed: int) -> Factorization:
    """Generic n-line arrangement; seed 0 is the standard factorization,
    other seeds conjugate it by a random braid of length 4."""
    factors = []
    for j in range(2, n + 1):
        for i in range(1, j):
            conj = list(range(j - 1, i, -1))
            factors.append(BraidWord(
                n, tuple(conj + [i, i] + [-v for v in reversed(conj)])))
    f = Factorization(n, tuple(factors))
    if seed == 0:
        return f
    rng = random.Random(seed)
    g = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(4))
    return conjugate(f, BraidWord(n, g))


def hurwitz_move(f: Factorization, i: int) -> Factorization:
    fs = list(f.factors)
    a, b = fs[i], fs[i + 1]
    fs[i], fs[i + 1] = a * b * a.inverse(), a
    return Factorization(f.strands, tuple(fs), f.projective)


def assert_same_invariants(f: Factorization, multi: bool) -> None:
    pres, phi = zvk_presentation(f)
    ref = full_zvk_presentation(f)
    assert pres.m == len(f.factors) + f.projective
    assert alexander_one_variable(pres, phi) == alexander_one_variable(ref, phi)
    if multi:
        assert alexander_polynomial(pres, phi) == alexander_polynomial(ref, phi)
    # last: skipped without sympy
    assert abelianization_invariants(pres) == abelianization_invariants(ref)


@pytest.mark.parametrize("projective", [False, True])
@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_factorizations(name, projective):
    assert_same_invariants(shipped(name, projective), multi=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_conjugated_arrangements(n, seed):
    # at n = 5 the reference's 30-relator multivariable minor gcd takes
    # seconds unconjugated and tens of seconds conjugated
    assert_same_invariants(arrangement(n, seed), multi=n <= 4 or seed == 0)


@pytest.mark.parametrize("name", ["nodal_cubic", "cuspidal_cubic",
                                  "zariski_sextic"])
def test_hurwitz_moved_factorizations(name):
    f = shipped(name, False)
    for i in (0, len(f.factors) // 2, len(f.factors) - 2):
        assert_same_invariants(hurwitz_move(f, i), multi=True)



# ---------------------------------------------------------------------------
# letter-by-letter relators against the per-factor automorphisms


def standard_forms(n: int, rng: random.Random) -> Factorization:
    """Generic n-line arrangement with each A_ij, j > i + 1, written by a
    coin flip as (s_{j-1} ... s_{i+1}) s_i^2 (...)^-1 or in its other
    standard form (s_{j-2} ... s_i)^-1 s_{j-1}^2 (s_{j-2} ... s_i)."""
    factors = []
    for j in range(2, n + 1):
        for i in range(1, j):
            if j > i + 1 and rng.random() < 0.5:
                up = list(range(i, j - 1))
                letters = [-v for v in up] + [j - 1, j - 1] + up[::-1]
            else:
                conj = list(range(j - 1, i, -1))
                letters = conj + [i, i] + [-v for v in reversed(conj)]
            factors.append(BraidWord(n, tuple(letters)))
    return Factorization(n, tuple(factors))


def assert_same_relators(f: Factorization, projective: bool) -> None:
    pres, _ = zvk_presentation(f, projective)
    ref = per_factor_presentation(f, projective)
    assert [r.syllables for r in pres.relators] == \
        [r.syllables for r in ref.relators]


def standard_form_inputs(n: int):
    """Two seeded draws of ``standard_forms``, each as it is and
    conjugated by a seeded braid of 1-4 letters."""
    rng = random.Random(n)
    for _ in range(2):
        f = standard_forms(n, rng)
        g = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                               for _ in range(rng.randint(1, 4))))
        yield f
        yield conjugate(f, g)


@pytest.mark.parametrize("n", range(3, 13))
def test_relators_match_per_factor_route(n):
    for h in standard_form_inputs(n):
        for projective in (False, True):
            assert_same_relators(h, projective)


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_relators_match_per_factor_route(name):
    for projective in (False, True):
        assert_same_relators(shipped(name, projective), projective)


def assert_same_letters(f: Factorization) -> None:
    """Plain and projective relators letter for letter; the projective
    reference only appends the product relator to the plain one."""
    ref = [r.letters for r in per_factor_presentation(f, True).relators]
    for projective, want in ((False, ref[:-1]), (True, ref)):
        pres, _ = zvk_presentation(f, projective)
        assert [r.letters for r in pres.relators] == want


def conjugated_arrangement(n: int, length: int) -> Factorization:
    """The generic n-line arrangement conjugated as a whole by a seeded
    braid of `length` letters."""
    rng = random.Random(7 * n + length)
    g = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                           for _ in range(length)))
    return conjugate(arrangement(n, 0), g)


def ci_conjugated_arrangement(length: int) -> Factorization:
    """The factors c w s_i^2 w^-1 c^-1 of the console-script step, c from
    random.Random(0)."""
    rng = random.Random(0)
    c = [rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(length)]
    f = conjugate(arrangement(5, 0), BraidWord(5, tuple(c)).inverse())
    assert f.factors[0].letters[:length] == tuple(c)
    return f


@pytest.mark.parametrize("length", [0, 20, 40, 60])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_conjugated_relators_match_letter_for_letter(n, length):
    # relators reach 36,472 letters (n = 5, 60 letters); the 4-line
    # arrangement conjugated by 60 letters passes MAX_SYLLABLES, and must
    # say so instead
    f = conjugated_arrangement(n, length)
    if (n, length) == (4, 60):
        with pytest.raises(InputError, match=f"exceed {MAX_SYLLABLES} "):
            zvk_presentation(f)
    else:
        assert_same_letters(f)


@pytest.mark.parametrize("length", [40, 60])
def test_ci_conjugated_arrangement_relators(length):
    assert_same_letters(ci_conjugated_arrangement(length))


# ---------------------------------------------------------------------------
# Fox rows without words against the Fox matrix of the relators


def assert_same_rows(f: Factorization) -> None:
    """``_zvk_rows`` equals ``fox_matrix`` of ``zvk_presentation`` entry
    by entry, plain and projective, under the orbit map and under its
    composition to one variable."""
    for projective in (False, True):
        pres, phi = zvk_presentation(f, projective)
        for multi, want_phi in ((True, phi), (False, phi.composed_to_one())):
            rows, got_phi = _zvk_rows(f, projective, multi)
            assert got_phi == want_phi
            assert rows == fox_matrix(pres, want_phi)


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_rows_match_fox_matrix(name):
    # the factorization's own projective flag is what _zvk_rows reads
    # when none is given
    for projective in (False, True):
        f = shipped(name, projective)
        assert _zvk_rows(f) == _zvk_rows(f, projective)
        assert_same_rows(f)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_conjugated_arrangement_rows_match_fox_matrix(n, seed):
    assert_same_rows(arrangement(n, seed))


@pytest.mark.parametrize("name", ["nodal_cubic", "cuspidal_cubic",
                                  "zariski_sextic"])
def test_hurwitz_moved_rows_match_fox_matrix(name):
    f = shipped(name, False)
    for i in (0, len(f.factors) // 2, len(f.factors) - 2):
        assert_same_rows(hurwitz_move(f, i))


@pytest.mark.parametrize("n", range(3, 13))
def test_standard_form_rows_match_fox_matrix(n):
    for h in standard_form_inputs(n):
        assert_same_rows(h)


@pytest.mark.parametrize("length", [0, 20, 40, 60])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_conjugated_rows_match_fox_matrix(n, length, monkeypatch):
    # some multivariable rows at 60 letters hold over 1,024 terms, which
    # zvk --multi refuses; the bound is lifted to check them entry by entry
    monkeypatch.setattr(alexpoly.braid, "MAX_ROW_TERMS", 4096)
    f = conjugated_arrangement(n, length)
    if (n, length) == (4, 60):  # the words pass MAX_SYLLABLES, the rows not
        with pytest.raises(InputError, match=f"exceed {MAX_SYLLABLES} "):
            zvk_presentation(f)
        assert len(_zvk_rows(f)[0]) == len(f.factors)
    else:
        assert_same_rows(f)


@pytest.mark.parametrize("length", [40, 60])
def test_ci_conjugated_arrangement_rows(length, monkeypatch):
    monkeypatch.setattr(alexpoly.braid, "MAX_ROW_TERMS", 4096)
    assert_same_rows(ci_conjugated_arrangement(length))


def test_long_core_rows_match_fox_matrix():
    # cores s_1^+-100 and s_2^+-100 conjugated by s_1 s_2^-1, whose rows
    # span 99 degrees and more, ahead of the three lines' factors
    f = shipped("three_lines", False)
    w = BraidWord(3, (1, -2))
    cores = [BraidWord(3, (1,)) ** 100, BraidWord(3, (-1,)) ** 100,
             w * BraidWord(3, (2,)) ** 100 * w.inverse(),
             w * BraidWord(3, (-2,)) ** 100 * w.inverse()]
    assert_same_rows(Factorization(3, tuple(cores) + f.factors, False))
