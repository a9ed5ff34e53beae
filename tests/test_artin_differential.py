"""Two-image Artin action against the substitute-every-image reference.

``braid._letter_action`` reads the letters right to left and rewrites
only images i and i+1 per letter; ``braid_reference.artin_action`` applies
each letter's endomorphism to all d images, left to right.  Free
reduction is canonical, so the letters must agree exactly, on seeded
random braids with 2-9 strands, 0-80 letters and both signs.
``braid_equal`` must agree too, on unrelated random pairs and on pairs
where one word is the other rewritten by the braid relations.
``permutation`` and ``strand_components`` must agree with the
reference's rebuild-every-position loop on seeded words, d = 2..9.
Uniformly random words of every length 0..40 must agree as well, d =
2..9.

``_letter_action`` counts the letters of its images against
``MAX_SYLLABLES`` and counts syllables only past the bound.  With the
bound set to each value in 10..400, it must raise after the same number
of letters, read from the right, as a running syllable count of the
reference's images would.

The images of a uniformly random word grow exponentially with its
length: 75 letters on 5 strands gave 1.8 million syllables.  So a drawn
word is a uniformly random core of at most 20 letters with cancelling
pairs s s^-1 inserted at random places, nested or not, up to its
length.  Both actions still act by every letter, and the images stay at
a few thousand syllables at most.

``braid_equal`` and ``validate_factorization`` decide on Dynnikov
coordinates (``braid._dynnikov``), so the Artin action is their oracle:
the braid relations, far commutation and s s^-1 = 1 must hold on random
coordinate vectors, d = 3..9; a braid must fix (0, 1, ..., 0, 1)
exactly when the reference's images are the generators; the closed-form
coordinates of the full twist must be those the full-twist word gives,
d = 2..40; the empty factorization and the full twist squared must be
refused; and every drop-one, swap and inversion mutation of the shipped
factorizations must be accepted exactly when its product's Artin images
are the full twist's.  ``MAX_COORDINATE_BITS`` must stop the action at
the first letter that makes a coordinate longer.
"""

import json
import pathlib
import random

import pytest

import alexpoly.braid
from alexpoly.braid import (MAX_COORDINATE_BITS, BraidWord, Factorization,
                            _dynnikov, _full_twist_coordinates,
                            _letter_action, _syllable_count, braid_equal,
                            factorization_from_json, full_twist, permutation,
                            strand_components, validate_factorization)
from alexpoly.errors import InputError
from alexpoly.group import _word

import braid_reference


def random_letter(rng: random.Random, d: int) -> int:
    return rng.choice((1, -1)) * rng.randint(1, d - 1)


def random_braid(rng: random.Random) -> BraidWord:
    d = rng.randint(2, 9)
    length = rng.randint(0, 80)
    letters = [random_letter(rng, d) for _ in range(min(length, 20))]
    while len(letters) < length - 1:
        v = random_letter(rng, d)
        pos = rng.randint(0, len(letters))
        letters[pos:pos] = [v, -v]
    return BraidWord(d, tuple(letters))


def rewritten(b: BraidWord, rng: random.Random, moves: int = 6) -> BraidWord:
    """b rewritten by random braid-group moves: insert s s^-1, swap
    adjacent far letters, or turn s_i s_j s_i into s_j s_i s_j for
    |i - j| = 1 (equal signs)."""
    letters = list(b.letters)
    d = b.strands
    for _ in range(moves):
        kind = rng.randrange(3)
        pos = rng.randint(0, len(letters))
        if kind == 0 or len(letters) < 3:
            v = random_letter(rng, d)
            letters[pos:pos] = [v, -v]
            continue
        pos = min(pos, len(letters) - 3)
        x, y, z = letters[pos:pos + 3]
        if kind == 1 and abs(abs(x) - abs(y)) > 1:
            letters[pos], letters[pos + 1] = y, x
        elif kind == 2 and x == z and abs(abs(x) - abs(y)) == 1 and (x > 0) == (y > 0):
            letters[pos:pos + 3] = [y, x, y]
    return BraidWord(d, tuple(letters))


@pytest.mark.parametrize("seed", range(40))
def test_action_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(10):
        b = random_braid(rng)
        got = _letter_action(b.strands, reversed(b.letters))
        want = [w.letters for w in braid_reference.artin_action(b)]
        assert got == want, b


@pytest.mark.parametrize("seed", range(10))
def test_braid_equal_matches_reference(seed):
    rng = random.Random(1000 + seed)
    for _ in range(5):
        a = random_braid(rng)
        for b in (random_braid(rng), rewritten(a, rng), a.inverse(),
                  BraidWord(a.strands, a.letters[1:] + a.letters[:1])):
            if b.strands != a.strands:
                b = BraidWord(a.strands)
            assert braid_equal(a, b) == braid_reference.braid_equal(a, b)
        assert braid_equal(a, rewritten(a, rng))


def test_rewrites_reach_every_move():
    # the braid relation and far commutation fire, not only insertions
    rng = random.Random(7)
    b = BraidWord(5, (1, 2, 1, 3, 1, 4, 2, 4) * 4)
    changed = {rewritten(b, rng, moves=1).letters for _ in range(200)}
    lengths = {len(letters) for letters in changed}
    assert lengths >= {len(b.letters), len(b.letters) + 2}
    assert any(len(c) == len(b.letters) and c != b.letters for c in changed)


@pytest.mark.parametrize("d", range(2, 10))
def test_permutation_matches_reference(d):
    rng = random.Random(1000 + d)
    for _ in range(200):
        b = BraidWord(d, tuple(random_letter(rng, d)
                               for _ in range(rng.randint(0, 60))))
        assert permutation(b) == braid_reference.permutation(b), b
        assert strand_components(b) == braid_reference.strand_components(b), b


@pytest.mark.parametrize("d", range(2, 10))
def test_uniform_words_match_reference(d):
    rng = random.Random(2000 + d)
    for length in range(41):
        b = BraidWord(d, tuple(random_letter(rng, d) for _ in range(length)))
        got = _letter_action(b.strands, reversed(b.letters))
        assert got == [w.letters for w in braid_reference.artin_action(b)], b


def test_flat_words_merge_runs():
    # Artin images seem never to repeat a letter, so the syllables of
    # runs are checked on words built by hand
    assert _word((1, 1, -2, 3, 3, 3, -1)).syllables == \
        ((0, 2), (1, -1), (2, 3), (0, -1))
    assert _word((-3, -3)).syllables == ((2, -2),)
    assert _word((2, -1, 3)).syllables == ((1, 1), (0, -1), (2, 1))
    assert _word(()).syllables == ()
    assert _syllable_count([(1, 1, -2, 3, 3, 3, -1), (-3, -3), (), (2,)]) == 6


@pytest.mark.parametrize("d, seed, length", [(3, 0, 60), (4, 1, 40),
                                             (5, 2, 40), (9, 3, 60)])
def test_budget_trips_at_the_reference_letter(monkeypatch, d, seed, length):
    rng = random.Random(3000 + seed)
    letters = tuple(random_letter(rng, d) for _ in range(length))
    # running[k]: the largest syllable total over the suffixes of length
    # at most k, as the reference counts them, up to the first past 400
    running = [d]
    for k in range(1, len(letters) + 1):
        images = braid_reference.artin_action(BraidWord(d, letters[-k:]))
        running.append(max(running[-1], sum(len(w.syllables) for w in images)))
        if running[-1] > 400:
            break
    assert running[-1] > 400
    for bound in range(10, 401):
        monkeypatch.setattr(alexpoly.braid, "MAX_SYLLABLES", bound)
        k = next(k for k, total in enumerate(running) if total > bound)
        _letter_action(d, reversed(letters[len(letters) - k + 1:]))
        with pytest.raises(InputError) as exc:
            _letter_action(d, reversed(letters[-k:]))
        assert str(exc.value) == ("field 'word': the braid's generator "
                                  f"images exceed {bound} syllables")


# ---------------------------------------------------------------------------
# Dynnikov coordinates


DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
NOT_TWIST = "field 'factors': product of the factors is not the full twist"


@pytest.mark.parametrize("d", range(3, 10))
def test_dynnikov_braid_relations(d):
    rng = random.Random(4000 + d)
    for _ in range(430):
        v = [rng.randint(-60, 60) for _ in range(2 * d)]

        def act(*letters):
            return _dynnikov(v[:d], v[d:], letters)

        i = rng.randint(1, d - 2)
        j = rng.randint(1, d - 1)
        for s in (1, -1):
            assert act(s * i, s * (i + 1), s * i) == \
                act(s * (i + 1), s * i, s * (i + 1))
        assert act(j, -j) == act(-j, j) == (v[:d], v[d:])
        if abs(i - j) > 1:
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                assert act(si * i, sj * j) == act(sj * j, si * i)


@pytest.mark.parametrize("seed", range(10))
def test_dynnikov_triviality_matches_reference(seed):
    rng = random.Random(5000 + seed)
    trivial = 0
    for _ in range(8):
        a = random_braid(rng)
        origin = ([0] * a.strands, [1] * a.strands)
        rotated = BraidWord(a.strands, a.letters[1:] + a.letters[:1])
        for b in (a, a * a.inverse(), a * rewritten(a, rng).inverse(),
                  rewritten(a, rng) * a.inverse(), a * rotated.inverse()):
            want = braid_reference.braid_equal(b, BraidWord(b.strands))
            got = _dynnikov(origin[0][:], origin[1][:], b.letters)
            assert (got == origin) == want, b
            trivial += want
    assert trivial >= 16


@pytest.mark.parametrize("d", range(2, 41))
def test_full_twist_coordinates_closed_form(d):
    a, b = _dynnikov([0] * d, [1] * d, full_twist(d).letters)
    assert (a, b) == _full_twist_coordinates(d)
    assert a == list(range(d - 1, -1, -1))
    assert b == [1 - d] + [0] * (d - 2) + [2 * d - 1]


def shipped_factorizations() -> list[Factorization]:
    paths = sorted(DATA.glob("*/factorization.json"))
    assert len(paths) == 6
    return [factorization_from_json(json.loads(p.read_text(encoding="utf-8")))
            for p in paths]


def test_empty_product_and_twist_squared_are_refused():
    for f in shipped_factorizations():
        for factors in ((), f.factors + f.factors):
            g = Factorization(f.strands, factors)
            assert not braid_reference.is_full_twist(g.product())
            with pytest.raises(InputError) as exc:
                validate_factorization(g)
            assert str(exc.value) == NOT_TWIST


def mutations(factors: tuple[BraidWord, ...]):
    """factors with each one dropped, each one inverted and each
    adjacent pair swapped."""
    for i in range(len(factors)):
        yield factors[:i] + factors[i + 1:]
        yield factors[:i] + (factors[i].inverse(),) + factors[i + 1:]
        if i + 1 < len(factors):
            yield factors[:i] + (factors[i + 1], factors[i]) + factors[i + 2:]


def test_mutations_get_the_artin_verdict():
    verdicts = {True: 0, False: 0}
    for f in shipped_factorizations():
        assert braid_reference.is_full_twist(f.product())
        validate_factorization(f)
        for factors in mutations(f.factors):
            g = Factorization(f.strands, factors)
            want = braid_reference.is_full_twist(g.product())
            verdicts[want] += 1
            assert braid_equal(g.product(), full_twist(f.strands)) == want
            if want:
                validate_factorization(g)
                continue
            with pytest.raises(InputError) as exc:
                validate_factorization(g)
            assert str(exc.value) == NOT_TWIST
    # 33 factors: 33 drops and 33 inversions, all refused, and 27 swaps,
    # of which the 6 whose two factors commute keep the full twist
    assert verdicts == {False: 87, True: 6}


@pytest.mark.parametrize("bits", [2, 3, 5, 8, 13, 21, 34, 55])
def test_coordinate_bound_trips_at_the_first_long_coordinate(monkeypatch, bits):
    rng = random.Random(6000 + bits)
    d = 5
    letters = [random_letter(rng, d) for _ in range(400)]
    a, b = [0] * d, [1] * d
    for k, letter in enumerate(letters, 1):
        _dynnikov(a, b, (letter,))
        if max(abs(v) for v in a + b).bit_length() > bits:
            break
    else:
        pytest.fail("the random word never passes the bound")
    monkeypatch.setattr(alexpoly.braid, "MAX_COORDINATE_BITS", bits)
    _dynnikov([0] * d, [1] * d, letters[:k - 1])
    with pytest.raises(InputError) as exc:
        _dynnikov([0] * d, [1] * d, letters[:k])
    assert str(exc.value) == ("field 'word': the braid's Dynnikov "
                              f"coordinates exceed {bits} bits")


def test_pseudo_anosov_word_stops_early():
    # (s_1 s_2^-1)^100000 gains about 0.7 bits a letter, so the action
    # stops after about MAX_COORDINATE_BITS / 0.7 letters, not 200,000
    letters = iter((1, -2) * 100_000)
    with pytest.raises(InputError):
        _dynnikov([0] * 5, [1] * 5, letters)
    read = 200_000 - sum(1 for _ in letters)
    assert MAX_COORDINATE_BITS / 0.8 < read < MAX_COORDINATE_BITS / 0.6
