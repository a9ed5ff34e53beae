"""Tests for free-group words, presentations and abelianization maps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alexpoly.group
from alexpoly.errors import InputError
from alexpoly.group import (
    AbelMap,
    Presentation,
    Word,
    parse_word,
    presentation_from_json,
)

from braid_reference import apply_endomorphism


# ---------------------------------------------------------------------------
# oracles

def oracle_reduce(letters):
    """Stack-based free reduction on single letters (gen, +-1)."""
    stack = []
    for gen, sign in letters:
        if stack and stack[-1] == (gen, -sign):
            stack.pop()
        else:
            stack.append((gen, sign))
    return stack


def to_letters(word):
    out = []
    for g, e in word.syllables:
        sign = 1 if e > 0 else -1
        out.extend([(g, sign)] * abs(e))
    return out


# ---------------------------------------------------------------------------
# words


def test_reduce_merges_and_cancels():
    w = Word(((0, 1), (1, 2), (1, -2), (0, 1)))
    assert w.syllables == ((0, 2),)


def test_reduce_cascading_cancellation():
    # x y y^-1 x^-1 collapses to the identity through the middle
    w = Word(((0, 1), (1, 1), (1, -1), (0, -1)))
    assert w.is_identity


def test_identity_and_generator():
    assert Word().is_identity
    x = Word([(0, 1)])
    assert x.syllables == ((0, 1),)
    assert Word([(2, -3)]).syllables == ((2, -3),)


def test_multiplication_and_inverse():
    x, y = Word([(0, 1)]), Word([(1, 1)])
    w = x * y * y
    assert w.syllables == ((0, 1), (1, 2))
    assert w.inverse().syllables == ((1, -2), (0, -1))
    assert (w * w.inverse()).is_identity


def test_power():
    x, y = Word([(0, 1)]), Word([(1, 1)])
    w = x * y
    assert (w ** 3).syllables == ((0, 1), (1, 1)) * 3
    assert (w ** -1) == w.inverse()
    assert (w ** 0).is_identity


@st.composite
def words_st(draw, n_gens=3, max_syllables=8):
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n_gens - 1), st.integers(-3, 3)),
        max_size=max_syllables))
    return Word(pairs)


@given(words_st(), words_st())
def test_reduction_matches_letter_oracle(u, v):
    w = u * v
    assert to_letters(w) == oracle_reduce(to_letters(u) + to_letters(v))


@given(words_st())
def test_inverse_is_involution(w):
    assert w.inverse().inverse() == w
    assert (w * w.inverse()).is_identity


@given(words_st(), words_st(), words_st())
def test_multiplication_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


# ---------------------------------------------------------------------------
# endomorphisms


def test_apply_endomorphism_substitutes():
    x, y = Word([(0, 1)]), Word([(1, 1)])
    # x -> x y, y -> y
    images = [x * y, y]
    assert apply_endomorphism(images, x * y) == x * y * y
    # inverse syllables go through the image inverse
    assert apply_endomorphism(images, x.inverse()) == (x * y).inverse()


def test_apply_endomorphism_rejects_out_of_range():
    with pytest.raises(ValueError):
        apply_endomorphism([Word([(0, 1)])], Word([(1, 1)]))


@given(words_st(), words_st())
def test_endomorphism_is_homomorphism(u, v):
    x, y, z = (Word([(i, 1)]) for i in range(3))
    images = [x * y, z.inverse(), y * x.inverse()]
    assert apply_endomorphism(images, u * v) == \
        apply_endomorphism(images, u) * apply_endomorphism(images, v)


# ---------------------------------------------------------------------------
# presentations


def test_presentation_drops_trivial_relators():
    x = Word([(0, 1)])
    p = Presentation(("x",), (Word(), x * x.inverse(), x ** 2))
    assert p.relators == (x ** 2,)
    assert p.n == 1 and p.m == 1


def test_presentation_validates_generators():
    with pytest.raises(ValueError):
        Presentation((), ())
    with pytest.raises(ValueError):
        Presentation(("x", "x"), ())
    with pytest.raises(ValueError):
        Presentation(("x",), (Word([(1, 1)]),))


# ---------------------------------------------------------------------------
# abelianization maps


def test_abelmap_evaluates_words():
    phi = AbelMap(2, ((1, 0), (0, 1)))
    x, y = Word([(0, 1)]), Word([(1, 1)])
    assert phi(x * y ** -3) == (1, -3)
    assert phi(Word()) == (0, 0)


def test_abelmap_constant_one_and_composition():
    phi = AbelMap(2, ((1, 0), (0, 1), (1, 1)))
    comp = phi.composed_to_one()
    assert comp.rank == 1
    assert comp.images == ((1,), (1,), (2,))
    one = AbelMap.constant_one(3)
    assert one.images == ((1,), (1,), (1,))


def test_abelmap_validation():
    with pytest.raises(ValueError):
        AbelMap(0, ())
    with pytest.raises(ValueError):
        AbelMap(2, ((1,),))


@pytest.mark.parametrize("value", [1.9, 1.0, True])
def test_abelmap_refuses_non_integer_images(value):
    # refused, not truncated: int(1.9) and int(True) would both read 1
    with pytest.raises(ValueError, match="must hold integers"):
        AbelMap(1, ((value,), (2,)))
    with pytest.raises(ValueError, match="must hold integers"):
        AbelMap(2, ((1, 0), [0, value]))
    with pytest.raises(ValueError, match="must hold integers"):
        AbelMap(1, (2, value))
    assert AbelMap(1, (2, [3])).images == ((2,), (3,))


# ---------------------------------------------------------------------------
# parsing and serialization


def test_parse_word_round_trip():
    gens = ("x1", "x2")
    w = parse_word("x1 x2^-2 x1^3", gens)
    assert w.syllables == ((0, 1), (1, -2), (0, 3))


def test_parse_word_reduces():
    gens = ("a", "b")
    assert parse_word("a b b^-1 a^-1", gens).is_identity


def test_parse_word_errors():
    with pytest.raises(InputError):
        parse_word("q", ("x",))
    with pytest.raises(InputError):
        parse_word("x^", ("x",))
    with pytest.raises(InputError):
        parse_word("x^one", ("x",))


def test_presentation_json_round_trip():
    obj = {
        "generators": ["x1", "x2"],
        "relators": ["x1 x2 x1 x2^-1 x1^-1 x2^-1"],
        "phi": {"x1": 1, "x2": 1},
    }
    pres, phi = presentation_from_json(obj)
    assert pres.generators == ("x1", "x2")
    assert [r.syllables for r in pres.relators] == \
        [((0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1))]
    assert phi is not None and phi.rank == 1
    assert phi.images == ((1,), (1,))


def test_presentation_json_vector_phi():
    obj = {
        "generators": ["a", "b"],
        "relators": [],
        "phi": {"a": [1, 0], "b": [0, 1]},
    }
    pres, phi = presentation_from_json(obj)
    assert pres.generators == ("a", "b") and pres.relators == ()
    assert phi.rank == 2
    assert phi.images == ((1, 0), (0, 1))


def test_presentation_json_errors():
    with pytest.raises(InputError):
        presentation_from_json([])
    with pytest.raises(InputError):
        presentation_from_json({"generators": []})
    with pytest.raises(InputError):
        presentation_from_json({"generators": ["x"], "relators": ["y"]})
    with pytest.raises(InputError):
        presentation_from_json({"generators": ["x"], "phi": {}})
    with pytest.raises(InputError):
        presentation_from_json(
            {"generators": ["x"], "phi": {"x": 1, "y": 1}})
    with pytest.raises(InputError):
        presentation_from_json(
            {"generators": ["x", "y"], "phi": {"x": [1], "y": [1, 0]}})


def test_presentation_letter_budget(monkeypatch):
    # letters are counted from the exponents as written, over all
    # relators, cancelling ones included; the bound is inclusive
    monkeypatch.setattr(alexpoly.group, "MAX_LETTERS", 6)
    pres, phi = presentation_from_json(
        {"generators": ["a", "b"], "relators": ["a b", "a^2 a^-2"]})
    assert [r.syllables for r in pres.relators] == [((0, 1), (1, 1))]
    assert phi is None
    with pytest.raises(InputError) as exc:
        presentation_from_json(
            {"generators": ["a", "b"], "relators": ["a b", "a^2 a^-2", "b"]})
    assert str(exc.value) == ("field 'relators': the relators hold 7 letters "
                              "in all, more than 6")
    # letters times the largest |phi coordinate|, negative ones as well
    obj = {"generators": ["a", "b"], "relators": ["a b^-1", "b a^-1"],
           "phi": {"a": [1, -1], "b": [0, 1]}}
    presentation_from_json(obj)
    obj["phi"]["a"] = [1, -2]
    with pytest.raises(InputError) as exc:
        presentation_from_json(obj)
    assert str(exc.value) == ("field 'phi': 4 relator letters times the "
                              "largest |phi coordinate| 2 is 8, more than 6")
    # no relators: any phi passes
    presentation_from_json({"generators": ["a"], "phi": {"a": 10 ** 30}})


def test_exponent_too_long_to_convert():
    with pytest.raises(InputError) as exc:
        presentation_from_json(
            {"generators": ["a"], "relators": ["a^" + "1" * 5000]})
    assert str(exc.value) == ("field 'relators': exponent of 'a' has 5000 "
                              "digits, too many to convert")
