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
"""

import json
import pathlib
import random

import pytest

from alexpoly.braid import (MAX_SYLLABLES, BraidWord, Factorization,
                            zvk_presentation)
from alexpoly.errors import InputError
from alexpoly.fox import alexander_one_variable, alexander_polynomial

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


@pytest.mark.parametrize("n", range(3, 13))
def test_relators_match_per_factor_route(n):
    rng = random.Random(n)
    for _ in range(2):
        f = standard_forms(n, rng)
        g = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                               for _ in range(rng.randint(1, 4))))
        for h in (f, conjugate(f, g)):
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


@pytest.mark.parametrize("length", [0, 20, 40, 60])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_conjugated_relators_match_letter_for_letter(n, length):
    # relators reach 36,472 letters (n = 5, 60 letters); the 4-line
    # arrangement conjugated by 60 letters passes MAX_SYLLABLES, and must
    # say so instead
    rng = random.Random(7 * n + length)
    g = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                           for _ in range(length)))
    f = conjugate(arrangement(n, 0), g)
    if (n, length) == (4, 60):
        with pytest.raises(InputError, match=f"exceed {MAX_SYLLABLES} "):
            zvk_presentation(f)
    else:
        assert_same_letters(f)


@pytest.mark.parametrize("length", [40, 60])
def test_ci_conjugated_arrangement_relators(length):
    # the factors c w s_i^2 w^-1 c^-1 of the console-script step, c from
    # random.Random(0)
    rng = random.Random(0)
    c = [rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(length)]
    f = conjugate(arrangement(5, 0), BraidWord(5, tuple(c)).inverse())
    assert f.factors[0].letters[:length] == tuple(c)
    assert_same_letters(f)
