"""Tests for braid words, the Artin action, and derived presentations.

The action is ``braid._letter_action``, which takes the letters read
right to left and returns the images as letter tuples."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexpoly.braid import (
    MAX_SYLLABLES,
    BraidWord,
    Factorization,
    _letter_action,
    braid_equal,
    braid_from_json,
    closure_presentation,
    factor_orbits,
    factorization_from_json,
    factorization_to_json,
    full_twist,
    permutation,
    permutation_orbits,
    strand_components,
    validate_factorization,
    zvk_presentation,
)
from alexpoly.errors import InputError
from alexpoly.fox import alexander_one_variable
from alexpoly.group import Word, _word, parse_word
from alexpoly.ring import equal_up_to_units, parse_poly

from zvk_reference import abelianization_invariants


def B(strands, *letters):
    return BraidWord(strands, tuple(letters))


def W2(text):
    return parse_word(text, ("x1", "x2"))


def action(b):
    """The images of the braid b as Words."""
    return [_word(w) for w in _letter_action(b.strands, reversed(b.letters))]


@st.composite
def braids_st(draw, max_strands=4, max_len=10):
    d = draw(st.integers(2, max_strands))
    letters = draw(st.lists(
        st.integers(1, d - 1).flatmap(lambda i: st.sampled_from((i, -i))),
        max_size=max_len))
    return BraidWord(d, tuple(letters))


# ---------------------------------------------------------------------------
# word validation and algebra


def test_braid_validation():
    with pytest.raises(ValueError):
        BraidWord(1, ())
    with pytest.raises(ValueError):
        BraidWord(2, (0,))
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    # the message names the first letter out of range
    for letters, bad in (((1, 0, 3), 0), ((1, -3, 3), -3), ((2, 1, 4, 0), 4)):
        with pytest.raises(ValueError, match=f"^letter {bad} out of range "
                                             "for 3 strands$"):
            BraidWord(3, letters)
    assert BraidWord(3, [1, -2, 2]).letters == (1, -2, 2)
    with pytest.raises(ValueError):
        B(2, 1) * B(3, 1)


@pytest.mark.parametrize("letter", [1.7, 1.0, True, -0.5])
def test_braid_refuses_non_integer_letters(letter):
    # refused, not truncated: int(1.7) and int(True) would both read 1
    with pytest.raises(ValueError, match="letters must be integers"):
        BraidWord(3, (letter,))
    with pytest.raises(ValueError, match="letters must be integers"):
        BraidWord(3, (1, -2, letter, 2))


def test_braid_algebra():
    b = B(3, 1, -2)
    assert b.inverse().letters == (2, -1)
    assert (b ** 2).letters == (1, -2, 1, -2)
    assert (b ** -1) == b.inverse()
    assert (b ** 0).letters == ()


# ---------------------------------------------------------------------------
# the action, frozen conventions first


def test_positive_letter_action():
    images = action(B(2, 1))
    assert images[0] == W2("x1 x2 x1^-1")
    assert images[1] == W2("x1")


def test_negative_letter_action():
    images = action(B(2, -1))
    assert images[0] == W2("x2")
    assert images[1] == W2("x2^-1 x1 x2")


def test_letters_act_left_to_right():
    # s1 then s1^-1 must undo, in both orders
    assert action(B(2, 1, -1)) == action(B(2))
    assert action(B(2, -1, 1)) == action(B(2))
    # s1 s2 (3 strands): x1 goes through s1 first
    images = action(B(3, 1, 2))
    x = lambda t: parse_word(t, ("x1", "x2", "x3"))
    # s1: x1 -> x1 x2 x1^-1, then s2 rewrites x2
    assert images[0] == x("x1 x2 x3 x2^-1 x1^-1")
    assert images[1] == x("x1")
    assert images[2] == x("x2")


def test_braid_relations():
    assert braid_equal(B(3, 1, 2, 1), B(3, 2, 1, 2))
    assert braid_equal(B(4, 1, 3), B(4, 3, 1))
    assert not braid_equal(B(3, 1), B(3, 2))
    assert not braid_equal(B(2, 1), B(2))


@given(braids_st())
@settings(max_examples=60, deadline=None)
def test_inverse_cancels(b):
    assert braid_equal(b * b.inverse(), BraidWord(b.strands))


@given(braids_st())
@settings(max_examples=60, deadline=None)
def test_action_fixes_generator_product(b):
    prod = Word(tuple((i, 1) for i in range(b.strands)))
    image = Word()
    for w in action(b):
        image = image * w
    assert image == prod


def seeded_word(seed: int, strands: int, length: int) -> tuple[int, ...]:
    rng = random.Random(seed)
    return tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                 for _ in range(length))


def test_artin_action_syllable_budget():
    # the images of a uniformly random word grow exponentially: this one
    # passes MAX_SYLLABLES at its 62nd letter from the right
    with pytest.raises(InputError) as exc:
        action(BraidWord(5, seeded_word(1, 5, 75)))
    assert exc.value.field == "word"
    assert str(exc.value).endswith(f"exceed {MAX_SYLLABLES} syllables")
    # this one peaks at 35,089 syllables
    assert len(action(BraidWord(5, seeded_word(0, 5, 75)))) == 5


def test_full_twist_basics():
    assert full_twist(2).letters == (1, 1)
    assert full_twist(3).letters == (1, 2, 1, 2, 1, 2)


@given(braids_st(max_strands=3, max_len=6))
@settings(max_examples=30, deadline=None)
def test_full_twist_is_central(b):
    ft = full_twist(b.strands)
    assert braid_equal(ft * b, b * ft)


def test_known_braid_identity():
    assert braid_equal(full_twist(3), B(3, 1, 1, 2, 1, 1, 2))


# ---------------------------------------------------------------------------
# permutations


def test_permutation_examples():
    assert permutation(B(3, 1)) == [1, 0, 2]
    assert permutation(B(3, 1, 2)) == [2, 0, 1]
    assert permutation(B(3, 1, 1)) == [0, 1, 2]
    assert permutation(B(2, -1)) == [1, 0]


def test_permutation_cycles():
    assert permutation_orbits(3, [[1, 0, 2]]) == [(0, 1), (2,)]
    assert permutation_orbits(3, [[2, 0, 1]]) == [(0, 1, 2)]
    # several permutations join their cycles
    assert permutation_orbits(4, [[1, 0, 2, 3], [0, 2, 1, 3]]) == [(0, 1, 2), (3,)]
    assert permutation_orbits(2, []) == [(0,), (1,)]


def test_strand_components():
    assert strand_components(B(2, 1, 1)) == [(0,), (1,)]
    assert strand_components(B(2, 1, 1, 1)) == [(0, 1)]


@given(braids_st())
@settings(max_examples=40, deadline=None)
def test_permutation_of_inverse(b):
    p = permutation(b)
    q = permutation(b.inverse())
    assert [q[v] for v in p] == list(range(b.strands))


# ---------------------------------------------------------------------------
# factorizations


def three_lines():
    return Factorization(3, (B(3, 1, 1), B(3, 2, 1, 1, -2), B(3, 2, 2)))


def nodal_cubic():
    return Factorization(3, (B(3, 1, 1), B(3, 2), B(3, 1), B(3, 1), B(3, 2)))


def cuspidal_cubic():
    return Factorization(3, (B(3, 1, 1, 1), B(3, -1, 2, 1), B(3, 1), B(3, 2)))


def test_factorization_products_are_full_twists():
    for f in (three_lines(), nodal_cubic(), cuspidal_cubic(),
              Factorization(2, (B(2, 1, 1),)),
              Factorization(2, (B(2, 1), B(2, 1)))):
        validate_factorization(f)


def test_validate_returns_letter_splits():
    # (w, s_i^k) of each factor w s_i^k w^-1, as letter tuples
    assert validate_factorization(cuspidal_cubic()) == [
        ((), (1, 1, 1)), ((-1,), (2,)), ((), (1,)), ((), (2,))]


def test_validate_rejects_wrong_product():
    with pytest.raises(InputError):
        validate_factorization(Factorization(2, (B(2, 1),)))
    with pytest.raises(InputError):
        validate_factorization(Factorization(3, (B(3, 1, 1), B(3, 2, 2))))


def test_validate_requires_literal_conjugate_factors():
    # (s1 s2)^3 is the full twist, but no factor reads w s_i^k w^-1
    with pytest.raises(InputError, match="factor 0 "):
        validate_factorization(Factorization(3, (B(3, 1, 2),) * 3))
    for letters in ((1, -1), (1, 2, 1), (2, 1, -1, -2), (1, 1, -1, -1)):
        with pytest.raises(InputError, match="factor 1 "):
            validate_factorization(
                Factorization(3, (B(3, 1, 1), B(3, *letters), B(3, 2, 2))))
    # w may be any word, reduced or not, and k negative: these pass the
    # shape check and fail only on the product
    for letters in ((2, -2, 1, 1, 2, -2), (-2, -2, -1, 2, 2)):
        with pytest.raises(InputError, match="full twist"):
            validate_factorization(Factorization(3, (B(3, *letters),)))


def test_factor_orbits():
    # three lines: every factor permutation is trivial
    assert factor_orbits(three_lines()) == [(0,), (1,), (2,)]
    # irreducible cubics join all strands
    assert factor_orbits(nodal_cubic()) == [(0, 1, 2)]
    assert factor_orbits(cuspidal_cubic()) == [(0, 1, 2)]
    # conic plus nothing else: two strands joined
    assert factor_orbits(Factorization(2, (B(2, 1), B(2, 1)))) == [(0, 1)]
    # two lines meeting at a node stay separate
    assert factor_orbits(Factorization(2, (B(2, 1, 1),))) == [(0,), (1,)]


# ---------------------------------------------------------------------------
# presentations


def test_two_lines_presentation_relators():
    pres, phi = zvk_presentation(Factorization(2, (B(2, 1, 1),)))
    comm = W2("x1 x2 x1^-1 x2^-1")
    # one relator per factor: s1^2(x1) x1^-1, a conjugate of the
    # commutator's inverse
    assert pres.relators == (W2("x1") * comm.inverse() * W2("x1").inverse(),)
    assert phi.rank == 2
    assert phi.images == ((1, 0), (0, 1))
    assert abelianization_invariants(pres) == (2, [])


def test_two_lines_polynomial():
    pres, phi = zvk_presentation(Factorization(2, (B(2, 1, 1),)))
    assert alexander_one_variable(pres, phi) == parse_poly("t - 1")


def test_conic_presentation_is_free_of_rank_one():
    pres, phi = zvk_presentation(Factorization(2, (B(2, 1), B(2, 1))))
    # sigma_1 forces x1 = x2; the group is Z
    assert phi.rank == 1
    assert equal_up_to_units(alexander_one_variable(pres, phi),
                             parse_poly("1"))
    assert abelianization_invariants(pres) == (1, [])


def test_three_lines_abelianization():
    pres, phi = zvk_presentation(three_lines())
    assert phi.rank == 3
    assert abelianization_invariants(pres) == (3, [])


def test_projective_presentation_adds_product_relator():
    f = Factorization(2, (B(2, 1), B(2, 1)), projective=True)
    pres, phi = zvk_presentation(f)
    assert pres.relators[-1] == W2("x1 x2")
    # irreducible degree-2 projective complement abelianizes to Z/2
    assert abelianization_invariants(pres) == (0, [2])


def test_zvk_validates_factorization():
    with pytest.raises(InputError):
        zvk_presentation(Factorization(2, (B(2, 1),)))


def hurwitz_move(f: Factorization, i: int) -> Factorization:
    fs = list(f.factors)
    a, b = fs[i], fs[i + 1]
    fs[i], fs[i + 1] = a * b * a.inverse(), a
    return Factorization(f.strands, tuple(fs), f.projective)


def test_hurwitz_moves_preserve_product_and_polynomial():
    base = nodal_cubic()
    expected = alexander_one_variable(*zvk_presentation(base))
    for i in range(len(base.factors) - 1):
        moved = hurwitz_move(base, i)
        assert braid_equal(moved.product(), base.product())
        assert alexander_one_variable(*zvk_presentation(moved)) == expected


def test_closure_presentation_torus_t22():
    pres = closure_presentation(B(2, 1, 1))
    # one relator: the s1^2-image of x1, divided by x1
    assert pres.n == 2 and pres.m == 1
    assert abelianization_invariants(pres) == (2, [])


def test_closure_presentation_trefoil():
    pres = closure_presentation(B(2, 1, 1, 1))
    assert pres.n == 2 and pres.m == 1
    assert abelianization_invariants(pres) == (1, [])


def test_closure_drops_trivial_relators():
    pres = closure_presentation(B(3))
    assert pres.m == 0


# ---------------------------------------------------------------------------
# JSON


def test_braid_json_round_trip():
    b = braid_from_json({"strands": 3, "word": [1, -2, 1]})
    assert (b.strands, b.letters) == (3, (1, -2, 1))
    assert b == B(3, 1, -2, 1)


def test_factorization_json_round_trip():
    f = three_lines()
    obj = factorization_to_json(f)
    assert obj == {"strands": 3,
                   "factors": [[1, 1], [2, 1, 1, -2], [2, 2]],
                   "projective": False}
    assert factorization_from_json(obj) == f


def test_braid_json_errors():
    with pytest.raises(InputError):
        braid_from_json([])
    with pytest.raises(InputError):
        braid_from_json({"strands": 1, "word": []})
    with pytest.raises(InputError):
        braid_from_json({"strands": 2, "word": [0]})
    with pytest.raises(InputError):
        braid_from_json({"strands": 2, "word": "nope"})


@pytest.mark.parametrize("word, message", [
    ("nope", "word must be a list of nonzero integers"),
    ({"1": 1}, "word must be a list of nonzero integers"),
    ([1, 2.0], "word must be a list of nonzero integers"),
    ([True], "word must be a list of nonzero integers"),
    ([1, None, 9], "word must be a list of nonzero integers"),
    ([2, 0], "letter 0 out of range for 3 strands"),
    ([1, -3, 5], "letter -3 out of range for 3 strands"),
])
def test_braid_json_letter_messages(word, message):
    # one letter check, in BraidWord; the decoder only names the field
    with pytest.raises(InputError) as exc:
        braid_from_json({"strands": 3, "word": word})
    assert (exc.value.field, exc.value.args[0]) == ("word", message)


@pytest.mark.parametrize("factors, message", [
    ([[1], "12"], "factor 1 must be a list of integers"),
    ([[1], None], "factor 1 must be a list of integers"),
    ([[1.5]], "factor 0 must be a list of integers"),
    ([[1], [2, False]], "factor 1 must be a list of integers"),
    ([[1], [1, "1"], [9]], "factor 1 must be a list of integers"),
    ([[1], [2, 3]], "factor 1: letter 3 out of range for 3 strands"),
    ([[0]], "factor 0: letter 0 out of range for 3 strands"),
])
def test_factorization_json_letter_messages(factors, message):
    with pytest.raises(InputError) as exc:
        factorization_from_json({"strands": 3, "factors": factors})
    assert (exc.value.field, exc.value.args[0]) == ("factors", message)


def test_factorization_json_errors():
    with pytest.raises(InputError):
        factorization_from_json({"strands": 3, "factors": []})
    with pytest.raises(InputError):
        factorization_from_json({"strands": 3, "factors": [[4]]})
    with pytest.raises(InputError):
        factorization_from_json(
            {"strands": 3, "factors": [[1]], "projective": "yes"})
