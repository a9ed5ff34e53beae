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
"""

import random

import pytest

import alexpoly.braid
from alexpoly.braid import (BraidWord, _letter_action, _syllable_count,
                            braid_equal, permutation, strand_components)
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
