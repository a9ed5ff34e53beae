"""Braid words, the Artin action on free groups, and the presentations
of curve and link complements that braid data gives rise to.

Positive letter i (1-based) sends x_i to x_i x_{i+1} x_i^-1 and x_{i+1}
to x_i, fixing the rest; negative letters act by the inverse rule.
Letters of a word act left to right.  The action is faithful, so braid
equality is decided by comparing generator images.

Free-group words here are the letter tuples that ``group.Word`` stores,
signed letters +-(g + 1) standing for x_g^+-1, freely reduced; the
images and relators built from them are handed to ``Word`` as they are.
The ``MAX_SYLLABLES`` budget on the images is checked on their letter
count, which is never below their syllable count; syllables are counted
only once the letters pass the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from operator import eq, neg
from typing import Iterable

from .errors import InputError
from .group import AbelMap, Letters, Presentation, _inverse, _join, _word


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.strands, int) or self.strands < 2:
            raise ValueError("a braid needs at least 2 strands")
        letters = tuple(int(v) for v in self.letters)
        for v in letters:
            if v == 0 or abs(v) > self.strands - 1:
                raise ValueError(
                    f"letter {v} out of range for {self.strands} strands")
        object.__setattr__(self, "letters", letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("strand counts differ")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-v for v in reversed(self.letters)))

    def __pow__(self, n: int) -> "BraidWord":
        base = self if n >= 0 else self.inverse()
        return BraidWord(self.strands, base.letters * abs(n))


#: Largest total syllable count of the generator images that
#: ``_letter_action`` builds.  Images can grow exponentially with the word.
#: The largest total any shipped or benchmark braid reaches is 251, for
#: the factor product of the generic 7-line arrangement; that of the
#: generic 32-line arrangement reaches 7,476.
MAX_SYLLABLES = 100_000


def _syllable_count(images: list[Letters]) -> int:
    """Syllables of the words in all: letters minus equal neighbours."""
    return sum(len(w) - sum(map(eq, w, islice(w, 1, None))) for w in images)


def _letter_action(strands: int, reversed_letters: Iterable[int]
                   ) -> list[Letters]:
    """Generator images, as letter tuples, of the braid whose letters,
    read right to left, are ``reversed_letters``.

    Prepending l = s_i rewrites only images i and i+1, (a, b) ->
    (a b a^-1, a), and l = s_i^-1 rewrites them (a, b) -> (b, b^-1 a b):
    two seam joins per letter.  Raises InputError once the images hold
    more than MAX_SYLLABLES syllables in all.
    """
    images = [(g,) for g in range(1, strands + 1)]
    # an image's inverse while it is known, else None: an image that a
    # letter moves keeps its inverse, a new one has none until needed
    inverses: list[Letters | None] = [(-g,) for g in range(1, strands + 1)]
    total = strands  # letters in all, never fewer than syllables
    for letter in reversed_letters:
        if letter > 0:  # images[i], images[letter] are a, b
            i = letter - 1
            a = images[i]
            b = images[letter]
            a_inv = inverses[i]
            if a_inv is None:
                a_inv = _inverse(a)
            images[i] = new = _join(_join(a, b), a_inv)
            inverses[i] = None
            images[letter] = a
            inverses[letter] = a_inv
            total += len(new) - len(b)
        else:
            i = -letter - 1
            a = images[i]
            b = images[-letter]
            b_inv = inverses[-letter]
            if b_inv is None:
                b_inv = _inverse(b)
            images[i] = b
            inverses[i] = b_inv
            images[-letter] = new = _join(_join(b_inv, a), b)
            inverses[-letter] = None
            total += len(new) - len(a)
        if total > MAX_SYLLABLES and _syllable_count(images) > MAX_SYLLABLES:
            raise InputError("the braid's generator images exceed "
                             f"{MAX_SYLLABLES} syllables", field="word")
    return images


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    """Equality in the braid group via the faithful Artin action."""
    return a.strands == b.strands and (
        _letter_action(a.strands, reversed(a.letters))
        == _letter_action(b.strands, reversed(b.letters)))


def full_twist(strands: int) -> BraidWord:
    """Central element generating the centre: (s_1 ... s_{d-1})^d."""
    if strands < 2:
        raise ValueError("a braid needs at least 2 strands")
    return BraidWord(strands, tuple(range(1, strands)) * strands)


def _full_twist_images(strands: int) -> list[Letters]:
    """Artin action of the full twist on letter tuples, in closed form: it
    conjugates, x_j -> P x_j P^-1 with P = x_1 ... x_d."""
    p = tuple(range(1, strands + 1))
    return [_join(_join(p, (g,)), _inverse(p)) for g in p]


def permutation(braid: BraidWord) -> list[int]:
    """Position each strand ends at, starting positions 0..d-1."""
    at = list(range(braid.strands))  # the strand at each position
    for letter in braid.letters:
        i = abs(letter) - 1
        at[i], at[i + 1] = at[i + 1], at[i]
    pos = [0] * braid.strands
    for p, strand in enumerate(at):
        pos[strand] = p
    return pos


def permutation_orbits(strands: int, perms: list[list[int]]
                       ) -> list[tuple[int, ...]]:
    """Orbits of the strands under the permutations together, as sorted
    tuples ordered by least element."""
    seen = [False] * strands
    orbits = []
    for start in range(strands):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for v in orbit:  # grows while it is walked
            for p in perms:
                if not seen[p[v]]:
                    seen[p[v]] = True
                    orbit.append(p[v])
        orbits.append(tuple(sorted(orbit)))
    return orbits


def strand_components(braid: BraidWord) -> list[tuple[int, ...]]:
    """Strand sets of the closed-braid components."""
    return permutation_orbits(braid.strands, [permutation(braid)])


# ---------------------------------------------------------------------------
# monodromy factorizations


@dataclass(frozen=True)
class Factorization:
    strands: int
    factors: tuple[BraidWord, ...]
    projective: bool = False

    def __post_init__(self):
        if not isinstance(self.strands, int) or self.strands < 2:
            raise ValueError("a factorization needs at least 2 strands")
        for f in self.factors:
            if not isinstance(f, BraidWord) or f.strands != self.strands:
                raise ValueError("every factor must be a braid on the same strands")

    def product(self) -> BraidWord:
        return BraidWord(self.strands,
                         tuple(v for f in self.factors for v in f.letters))


def validate_factorization(f: Factorization
                           ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Require every factor to read literally w s_i^k w^-1 (k != 0) and
    the factors to multiply to the full twist.

    Returns the split (w, s_i^k) of each factor, in order, as letter
    tuples, found by stripping the longest w ... w^-1 wrapping.  The
    action is faithful, so the product is the full twist exactly when
    its images are the closed form x_j -> P x_j P^-1,
    P = x_1 ... x_d, of the full twist's; the factors' letters go
    through the Artin action as one word, read right to left, without
    building the product braid.
    """
    splits = []
    for idx, factor in enumerate(f.factors):
        letters = factor.letters
        n = len(letters)
        k = 0
        while k < n // 2 and letters[n - 1 - k] == -letters[k]:
            k += 1
        core = letters[k:n - k]
        if not core or any(v != core[0] for v in core):
            raise InputError(f"factor {idx} is not of the form w s_i^k w^-1",
                             field="factors")
        splits.append((letters[:k], core))
    try:
        images = _letter_action(f.strands, chain.from_iterable(
            reversed(b.letters) for b in reversed(f.factors)))
    except InputError as exc:  # the product's images pass MAX_SYLLABLES
        raise InputError(exc.args[0], field="factors") from None
    if images != _full_twist_images(f.strands):
        raise InputError("product of the factors is not the full twist",
                         field="factors")
    return splits


def factor_orbits(f: Factorization) -> list[tuple[int, ...]]:
    """Orbits of the strands under all factor permutations together.

    Each orbit is the strand set of one global component of the curve
    the factorization describes.
    """
    return permutation_orbits(f.strands, [permutation(b) for b in f.factors])


# ---------------------------------------------------------------------------
# presentations from braid data


def _generator_names(strands: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(strands))


def zvk_presentation(f: Factorization, projective: bool | None = None
                     ) -> tuple[Presentation, AbelMap]:
    """Presentation of the curve complement cut out by a factorization.

    The factorization is validated first.  Each factor w s_i^k w^-1
    gives one relator, w^-1 applied to s_i^k(x_i) x_i^-1: s_i^k fixes
    x_i x_{i+1} and the other generators, so the relators b(x_j) x_j^-1
    of the factor b for every j follow from this one.  The relator is
    built on letter tuples: the image u of x_i under s_i^k, times
    x_i^-1, then each letter of u replaced by its image under w^-1,
    cancelling only where two images meet.  The projective variant kills
    the product x_1 ... x_d as well.  The returned map sends each
    generator to the coordinate of its component (orbits ordered by
    least strand).
    """
    splits = validate_factorization(f)
    if projective is None:
        projective = f.projective
    d = f.strands
    relators = []
    for w, core in splits:
        g = abs(core[0])
        u = _join(_letter_action(d, core)[g - 1], (-g,))
        # w^-1 = -l_m ... -l_1 reads -l_1 ... -l_m from the right
        w_inv = _letter_action(d, map(neg, w))
        rel: list[int] = []
        for v in u:
            piece = w_inv[v - 1] if v > 0 else _inverse(w_inv[-v - 1])
            j = 0
            while rel and j < len(piece) and rel[-1] == -piece[j]:
                rel.pop()
                j += 1
            rel.extend(piece[j:])
        relators.append(_word(tuple(rel)))
    if projective:
        relators.append(_word(tuple(range(1, d + 1))))
    pres = Presentation(_generator_names(d), tuple(relators))

    orbits = factor_orbits(f)
    rank = len(orbits)
    orbit_of = {}
    for idx, orbit in enumerate(orbits):
        for s in orbit:
            orbit_of[s] = idx
    images = tuple(tuple(1 if orbit_of[s] == r else 0 for r in range(rank))
                   for s in range(d))
    return pres, AbelMap(rank, images)


def closure_presentation(braid: BraidWord) -> Presentation:
    """Deficiency-one presentation of the braid-closure complement.

    Relators say the braid fixes each generator; the last one follows
    from the others because the action fixes x_1 ... x_d, so it is
    dropped.
    """
    d = braid.strands
    images = _letter_action(d, reversed(braid.letters))
    relators = []
    for g in range(1, d):
        rel = _join(images[g - 1], (-g,))
        if rel:
            relators.append(_word(rel))
    return Presentation(_generator_names(d), tuple(relators))


# ---------------------------------------------------------------------------
# JSON formats


def _strands_from_json(obj: object, kind: str) -> int:
    """The "strands" field of a braid or factorization object."""
    if not isinstance(obj, dict):
        raise InputError(f"{kind} must be a JSON object")
    strands = obj.get("strands")
    if type(strands) is not int or strands < 2:
        raise InputError("strands must be an integer >= 2", field="strands")
    return strands


def braid_from_json(obj: object) -> BraidWord:
    """Decode {"strands": d, "word": [i, ...]} braid data."""
    strands = _strands_from_json(obj, "braid")
    word = obj.get("word", [])
    if not isinstance(word, list) or not all(type(v) is int for v in word):
        raise InputError("word must be a list of nonzero integers",
                         field="word")
    try:
        return BraidWord(strands, tuple(word))
    except ValueError as exc:
        raise InputError(str(exc), field="word") from None


def factorization_from_json(obj: object) -> Factorization:
    """Decode {"strands": d, "factors": [[...], ...], "projective": bool}."""
    strands = _strands_from_json(obj, "factorization")
    factors_obj = obj.get("factors")
    if not isinstance(factors_obj, list) or not factors_obj:
        raise InputError("factors must be a nonempty list of letter lists",
                         field="factors")
    factors = []
    for idx, letters in enumerate(factors_obj):
        if not isinstance(letters, list) or not all(type(v) is int for v in letters):
            raise InputError(f"factor {idx} must be a list of integers",
                             field="factors")
        try:
            factors.append(BraidWord(strands, tuple(letters)))
        except ValueError as exc:
            raise InputError(f"factor {idx}: {exc}", field="factors") from None
    projective = obj.get("projective", False)
    if not isinstance(projective, bool):
        raise InputError("projective must be a boolean", field="projective")
    return Factorization(strands, tuple(factors), projective)


def factorization_to_json(f: Factorization) -> dict:
    return {
        "strands": f.strands,
        "factors": [list(b.letters) for b in f.factors],
        "projective": f.projective,
    }
