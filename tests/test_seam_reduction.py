"""Seam-only free reduction and the closed-form full twist, against the
full reductions and the Artin action they replace.

``group._join`` multiplies two reduced letter tuples by cancelling only
where they meet; ``braid_reference.reduce_syllables`` of the
concatenated syllables is the reference.  ``Word(pairs)``, ``Word``
products and inverses, the ``syllables`` view of the letters and the
reference ``apply_endomorphism`` of ``braid_reference`` (which
multiplies its pieces in halves) must agree with it, on seeded words
and with hypothesis.  The closed form x_j -> P x_j P^-1
(P = x_1 ... x_d) of the full twist's images, kept in
``braid_reference``, must match the action of the full-twist word.
``validate_factorization`` must agree with ``braid_equal`` with
``full_twist``; both are decided on Dynnikov coordinates, which
``test_artin_differential`` checks against the Artin action.
``fox_matrix`` stores its entries without the ``LaurentPoly``
constructor, whose route ``fox_reference.fox_matrix`` keeps.  The syllable budget must still stop
``braid._letter_action`` at the same letter.
"""

import json
import pathlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alexpoly.braid import (MAX_SYLLABLES, BraidWord, Factorization,
                            _letter_action, braid_equal, full_twist,
                            validate_factorization, zvk_presentation)
from alexpoly.errors import InputError
from alexpoly.fox import fox_matrix
from alexpoly.group import AbelMap, Presentation, Word, _join, _word

import fox_reference
from braid_reference import (apply_endomorphism, full_twist_images,
                             reduce_syllables)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

SHIPPED = ["two_lines", "three_lines", "conic_line", "nodal_cubic",
           "cuspidal_cubic", "zariski_sextic"]


def random_reduced(rng: random.Random, gens: int, length: int):
    return reduce_syllables((rng.randrange(gens), rng.choice((-2, -1, 1, 2)))
                            for _ in range(length))


def inverse(x):
    return tuple((g, -e) for g, e in reversed(x))


def check_against_reference(a, b):
    """_join, Word(pairs), *, inverse() and syllables on the syllable
    sequences a and b, each against reduce_syllables."""
    u, v = Word(a), Word(b)
    want = reduce_syllables(a + b)
    assert u.syllables == reduce_syllables(a)
    assert (u * v).syllables == want, (a, b)
    assert _join(u.letters, v.letters) == Word(want).letters, (a, b)
    assert u.inverse().syllables == reduce_syllables(inverse(a))
    # the letters are reduced and spell out the syllables
    assert all(p != -q for p, q in zip(u.letters, u.letters[1:]))
    assert u.letters == tuple(g + 1 if e > 0 else -g - 1
                              for g, e in u.syllables for _ in range(abs(e)))


# ---------------------------------------------------------------------------
# _join and the Word operations built on it


@pytest.mark.parametrize("x, y, want", [
    ((), (), ()),
    (((0, 2), (1, -1)), (), ((0, 2), (1, -1))),
    ((), ((0, 2), (1, -1)), ((0, 2), (1, -1))),
    # total cancellation, from the seam out to both ends
    (((0, 1), (1, 2), (2, -3)), ((2, 3), (1, -2), (0, -1)), ()),
    # two syllables cancel, the third pair merges
    (((0, 1), (1, 2), (2, -3)), ((2, 3), (1, -2), (0, 4), (1, 1)),
     ((0, 5), (1, 1))),
    # a merge stops the cancellation at once
    (((0, 1), (1, 2)), ((1, -1), (0, -1)), ((0, 1), (1, 1), (0, -1))),
    # nothing meets
    (((0, 1),), ((1, 1),), ((0, 1), (1, 1))),
])
def test_cat_examples(x, y, want):
    assert reduce_syllables(x + y) == want
    check_against_reference(x, y)


@pytest.mark.parametrize("seed", range(20))
def test_cat_matches_full_reduction(seed):
    # y starts with the inverse of a random suffix of x, so the seam
    # cancels that far and may merge one more pair
    rng = random.Random(seed)
    for _ in range(50):
        gens = rng.randint(1, 3)
        x = random_reduced(rng, gens, rng.randint(0, 12))
        cut = rng.randint(0, len(x))
        y = reduce_syllables(inverse(x[cut:])
                             + random_reduced(rng, gens, rng.randint(0, 6)))
        for a, b in ((x, y), (y, x), (x, inverse(x)), (x, x)):
            check_against_reference(a, b)


pairs_st = st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3)),
                    max_size=10)


@given(pairs_st, pairs_st)
def test_words_match_syllable_reduction(a, b):
    # unreduced input: zero exponents, runs to merge, cancellation inside
    # each sequence as well as at the seam
    a, b = tuple(a), tuple(b)
    check_against_reference(a, b)
    check_against_reference(a, inverse(a) + b)
    assert Word(a + b) == Word(a) * Word(b)


@pytest.mark.parametrize("seed", range(10))
def test_apply_endomorphism_matches_full_reduction(seed):
    rng = random.Random(100 + seed)
    for _ in range(30):
        n = rng.randint(1, 4)
        images = [Word(random_reduced(rng, n, rng.randint(0, 5)))
                  for _ in range(n)]
        w = Word(random_reduced(rng, n, rng.randint(0, 40)))
        pairs = []
        for g, e in w.syllables:
            img = images[g] if e > 0 else Word(inverse(images[g].syllables))
            pairs.extend(img.syllables * abs(e))
        assert apply_endomorphism(images, w).syllables == \
            reduce_syllables(pairs)


# ---------------------------------------------------------------------------
# the full twist in closed form


@pytest.mark.parametrize("d", range(2, 17))
def test_closed_form_twist_matches_action(d):
    assert full_twist_images(d) == \
        _letter_action(d, reversed(full_twist(d).letters))


def factorization(name: str) -> Factorization:
    with open(DATA / name / "factorization.json", encoding="utf-8") as fh:
        obj = json.load(fh)
    return Factorization(obj["strands"], tuple(
        BraidWord(obj["strands"], tuple(w)) for w in obj["factors"]))


def arrangement(n: int) -> Factorization:
    factors = []
    for j in range(2, n + 1):
        for i in range(1, j):
            conj = list(range(j - 1, i, -1))
            factors.append(BraidWord(
                n, tuple(conj + [i, i] + [-v for v in reversed(conj)])))
    return Factorization(n, tuple(factors))


def variants(f: Factorization):
    """f with each factor dropped, each factor inverted and each adjacent
    pair swapped; every factor keeps the form w s_i^k w^-1."""
    fs = f.factors
    for i in range(len(fs)):
        yield fs[:i] + fs[i + 1:]
        yield fs[:i] + (fs[i].inverse(),) + fs[i + 1:]
        if i + 1 < len(fs):
            yield fs[:i] + (fs[i + 1], fs[i]) + fs[i + 2:]


@pytest.mark.parametrize("f", [factorization(n) for n in SHIPPED]
                         + [arrangement(n) for n in (3, 4, 5)],
                         ids=SHIPPED + ["lines3", "lines4", "lines5"])
def test_twist_check_matches_reference(f):
    validate_factorization(f)
    rejected = 0
    for factors in variants(f):
        if not factors:
            continue
        g = Factorization(f.strands, factors)
        if braid_equal(g.product(), full_twist(f.strands)):
            validate_factorization(g)
            continue
        rejected += 1
        with pytest.raises(InputError) as exc:
            validate_factorization(g)
        assert str(exc.value) == ("field 'factors': product of the factors "
                                  "is not the full twist")
    # dropping or inverting a factor changes the degree of the product
    assert rejected >= 2 * len(f.factors) - 1


# ---------------------------------------------------------------------------
# Fox rows stored directly


def test_fox_matrix_matches_constructor_route():
    rng = random.Random(20261019)
    cases = [zvk_presentation(factorization(name)) for name in SHIPPED]
    cases += [zvk_presentation(arrangement(n), projective=True)
              for n in (4, 6)]
    for _ in range(200):
        n = rng.randint(1, 4)
        rank = rng.randint(1, 3)
        phi = AbelMap(rank, tuple(tuple(rng.randint(-3, 3) for _ in range(rank))
                                  for _ in range(n)))
        relators = tuple(Word(random_reduced(rng, n, rng.randint(1, 12)))
                         for _ in range(rng.randint(1, 3)))
        cases.append((Presentation(tuple(f"x{i}" for i in range(n)),
                                   relators), phi))
    for pres, phi in cases:
        rows = fox_matrix(pres, phi)
        assert rows == fox_reference.fox_matrix(pres, phi)
        for row in rows:
            for entry in row:
                assert entry.nvars == phi.rank
                for exps, c in entry.terms.items():
                    assert type(c) is int and c != 0
                    assert len(exps) == phi.rank
                    assert all(type(v) is int for v in exps)


# ---------------------------------------------------------------------------
# the syllable budget


def seeded_word(seed: int, strands: int, length: int) -> tuple[int, ...]:
    rng = random.Random(seed)
    return tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                 for _ in range(length))


def test_syllable_budget_stops_at_the_same_letter():
    # the letters are read right to left, so the running total after the
    # last k letters is the total of the images of that suffix
    def syllables(letters):
        return sum(len(_word(w).syllables)
                   for w in _letter_action(5, reversed(letters)))

    word = seeded_word(1, 5, 75)
    assert syllables(word[-61:]) <= MAX_SYLLABLES
    with pytest.raises(InputError):
        _letter_action(5, reversed(word[-62:]))
    word = seeded_word(0, 5, 75)
    peak = max(syllables(word[len(word) - k:]) for k in range(len(word) + 1))
    assert peak == 35_089
