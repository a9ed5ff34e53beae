"""Braid words, the Artin action on free groups, Dynnikov coordinates,
and the presentations of curve and link complements that braid data
gives rise to.

Positive letter i (1-based) sends x_i to x_i x_{i+1} x_i^-1 and x_{i+1}
to x_i, fixing the rest; negative letters act by the inverse rule.
Letters of a word act left to right.  The Artin action builds the
closure relators and the ZvK relators of the library's
``zvk_presentation``.  The Fox rows of the ZvK relators, which the
``zvk`` and ``verify`` commands use, are built without words instead
(``_zvk_rows``): row vectors pushed through the coloured Burau matrices
of the letters.  Braid equality, and so the check that a factorization
multiplies to the full twist, is decided on Dynnikov coordinates: a
fixed number of integer operations per letter.

Free-group words here are the letter tuples that ``group.Word`` stores,
signed letters +-(g + 1) standing for x_g^+-1, freely reduced; every
product of two of them is ``group._join``, and the images and relators
are handed to ``Word`` as they are.
The ``MAX_SYLLABLES`` budget on the images is checked on their letter
count, which is never below their syllable count; syllables are counted
only once the letters pass the bound.  ``MAX_COORDINATE_BITS`` bounds
the Dynnikov coordinates, and ``MAX_ROW_SPAN`` and ``MAX_ROW_TERMS``
the entries of the ZvK Fox rows.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import add, eq, neg, sub
from typing import Iterable

from .errors import InputError
from .group import AbelMap, Letters, Presentation, _inverse, _join, _word
from .ring import LaurentPoly
from .ring.poly import _raw


class _NotIntegers(ValueError):
    """Raised for braid letters that are not all ``int``."""


class BraidWord:
    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[int, ...] = ()):
        if not isinstance(strands, int) or strands < 2:
            raise ValueError("a braid needs at least 2 strands")
        letters = tuple(letters)
        if not set(map(type, letters)) <= {int}:
            raise _NotIntegers("letters must be integers")
        top = strands - 1
        if letters and (min(letters) < -top or max(letters) > top
                        or 0 in letters):
            v = next(v for v in letters if v == 0 or abs(v) > top)
            raise ValueError(
                f"letter {v} out of range for {strands} strands")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError("BraidWord is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.strands, self.letters) == (other.strands, other.letters)

    def __hash__(self) -> int:
        return hash((self.strands, self.letters))

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
#: ``_letter_action`` builds for closures, curve-file links and the
#: relators of ``zvk_presentation``.  Images can grow exponentially with
#: the word.  The images of the shipped and benchmark braids and
#: relators hold at most 169 syllables in all, for the closure of T(9,9).
MAX_SYLLABLES = 100_000

#: Largest span of the exponent sums in an entry of the Fox rows that
#: ``_zvk_rows`` builds, past the |k| degrees that a core s_i^k alone
#: can reach, checked as each entry is rebuilt.  Spans grow linearly
#: with the conjugator, and the one-variable minor gcd's cost with them:
#: at most 1 on the generic arrangements of up to 48 lines and 3 on the
#: shipped factorizations; the generic 5-line arrangement conjugated by a
#: random braid of 40, 80, 200 and 300 letters reads 15, 21, 53 and 75,
#: and its minor gcd took 0.03, 0.3 and 1.3 s at 100, 200 and 300.
MAX_ROW_SPAN = 64

#: Largest number of terms in an entry of those rows, past the |k| terms
#: of a core s_i^k alone.  Over several variables the terms grow with a
#: power of the span, and the minor gcd's cost steeply with them: the
#: conjugated 5-line arrangement's multivariable rows hold 614 terms at
#: 40 letters and 1,554 at 60, where ``zvk --multi`` took 3.7 s and 56 s,
#: and 2,000 at 80; the shipped and generic ones hold at most 4.
MAX_ROW_TERMS = 1024


def _syllable_count(images: list[Letters]) -> int:
    """Syllables of the words in all: letters minus equal neighbours."""
    return sum(len(w) - sum(map(eq, w, islice(w, 1, None))) for w in images)


def _letter_action(strands: int, reversed_letters: Iterable[int]
                   ) -> list[Letters]:
    """Generator images, as letter tuples, of the braid whose letters,
    read right to left, are ``reversed_letters``.

    Prepending l = s_i rewrites only images i and i+1, (a, b) ->
    (a b a^-1, a), and l = s_i^-1 rewrites them (a, b) -> (b, b^-1 a b):
    one inverse and two seam joins per letter.  Raises InputError once
    the images hold more than MAX_SYLLABLES syllables in all.
    """
    images = [(g,) for g in range(1, strands + 1)]
    total = strands  # letters in all, never fewer than syllables
    for letter in reversed_letters:
        i = abs(letter) - 1
        a, b = images[i], images[i + 1]
        if letter > 0:
            new = _join(_join(a, b), _inverse(a))
            images[i], images[i + 1] = new, a
            total += len(new) - len(b)
        else:
            new = _join(_join(_inverse(b), a), b)
            images[i], images[i + 1] = b, new
            total += len(new) - len(a)
        if total > MAX_SYLLABLES and _syllable_count(images) > MAX_SYLLABLES:
            raise InputError("the braid's generator images exceed "
                             f"{MAX_SYLLABLES} syllables", field="word")
    return images


#: Largest bit length of a Dynnikov coordinate that ``_dynnikov`` lets
#: pass.  Unbounded, the integers grow linearly with the word and the
#: work quadratically: the coordinates of (s_1 s_2^-1)^100000 on 5 strands
#: gain about 0.7 bits a letter, and validating it took 7.1 s against
#: 0.25 s with this bound.  A letter adds at most 3 bits, since no new
#: coordinate exceeds 5 times the largest old one in absolute value.
#: Largest lengths over all prefixes, measured: 4 bits on the shipped
#: factorizations, 7 on the generic 48-line arrangement, 15 on the 294
#: generic 4- to 6-line arrangements conjugated by seeded braids that the
#: Artin check with ``MAX_SYLLABLES`` accepted, and 26 and 67 on the
#: 5-line one conjugated by a random 60- and 200-letter braid.
MAX_COORDINATE_BITS = 1024


def _dynnikov(a: list[int], b: list[int], letters: Iterable[int]
              ) -> tuple[list[int], list[int]]:
    """Act on the Dynnikov coordinates (a_1, b_1, ..., a_d, b_d), held as
    the lists a and b, in place by the letters, left to right; return
    (a, b).

    Letter s_i rewrites ai, bi, aj, bj = a_i, b_i, a_{i+1}, b_{i+1}; with
    x+ = max(x, 0) and x- = min(x, 0), s_i takes e = ai - bi- - aj + bj+
    to (ai + bi+ + (bj+ - e)+, bj - e+, aj + bj- + (bi- + e)-, bi + e+)
    and s_i^-1 takes f = ai + bi- - aj - bj+ to (ai - bi+ - (bj+ + f)+,
    bj + f-, aj - bj- - (bi- - f)-, bi - f-).  This is Dehornoy's action
    of B_d on Z^2d, B_d acting on the laminations of a disk with d + 2
    punctures whose outer two are idle.  Distinct braids take
    (0, 1, ..., 0, 1) to distinct coordinates, so two words are equal
    exactly when they give the same coordinates (I. Dynnikov, Russian
    Math. Surveys 57 (2002); P. Dehornoy, I. Dynnikov, D. Rolfsen and
    B. Wiest, Ordering Braids, AMS 2008, the chapter on Dynnikov
    coordinates).  Raises InputError, field ``word``, once a coordinate
    is longer than MAX_COORDINATE_BITS bits.
    """
    limit = 1 << MAX_COORDINATE_BITS
    for letter in letters:
        j = letter if letter > 0 else -letter
        i = j - 1
        ai, bi, aj, bj = a[i], b[i], a[j], b[j]
        bi_pos = bi if bi > 0 else 0
        bi_neg = bi - bi_pos
        bj_pos = bj if bj > 0 else 0
        bj_neg = bj - bj_pos
        if letter > 0:
            e = ai - bi_neg - aj + bj_pos
            e_pos = e if e > 0 else 0
            x = bj_pos - e
            y = bi_neg + e
            ai += bi_pos + (x if x > 0 else 0)
            aj += bj_neg + (y if y < 0 else 0)
            bi, bj = bj - e_pos, bi + e_pos
        else:
            f = ai + bi_neg - aj - bj_pos
            f_neg = f if f < 0 else 0
            x = bj_pos + f
            y = bi_neg - f
            ai -= bi_pos + (x if x > 0 else 0)
            aj -= bj_neg + (y if y < 0 else 0)
            bi, bj = bj + f_neg, bi - f_neg
        a[i] = ai
        b[i] = bi
        a[j] = aj
        b[j] = bj
        if not (-limit < ai < limit and -limit < bi < limit
                and -limit < aj < limit and -limit < bj < limit):
            raise InputError("the braid's Dynnikov coordinates exceed "
                             f"{MAX_COORDINATE_BITS} bits", field="word")
    return a, b


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    """Equality in the braid group via Dynnikov coordinates."""
    d = a.strands
    return d == b.strands and (_dynnikov([0] * d, [1] * d, a.letters)
                               == _dynnikov([0] * d, [1] * d, b.letters))


def full_twist(strands: int) -> BraidWord:
    """Central element generating the centre: (s_1 ... s_{d-1})^d."""
    if strands < 2:
        raise ValueError("a braid needs at least 2 strands")
    return BraidWord(strands, tuple(range(1, strands)) * strands)


def _full_twist_coordinates(strands: int) -> tuple[list[int], list[int]]:
    """Dynnikov coordinates of the full twist, in closed form: a_j = d - j,
    b_1 = 1 - d, b_d = 2d - 1 and b_j = 0 in between."""
    return (list(range(strands - 1, -1, -1)),
            [1 - strands] + [0] * (strands - 2) + [2 * strands - 1])


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


class Factorization:
    __slots__ = ("strands", "factors", "projective")

    def __init__(self, strands: int, factors: tuple[BraidWord, ...],
                 projective: bool = False):
        if not isinstance(strands, int) or strands < 2:
            raise ValueError("a factorization needs at least 2 strands")
        for f in factors:
            if not isinstance(f, BraidWord) or f.strands != strands:
                raise ValueError("every factor must be a braid on the same strands")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "projective", projective)

    def __setattr__(self, name, value):
        raise AttributeError("Factorization is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.strands, self.factors, self.projective)
                == (other.strands, other.factors, other.projective))

    def __hash__(self) -> int:
        return hash((self.strands, self.factors, self.projective))

    def product(self) -> BraidWord:
        return BraidWord(self.strands,
                         tuple(v for f in self.factors for v in f.letters))


def validate_factorization(f: Factorization
                           ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Require every factor to read literally w s_i^k w^-1 (k != 0) and
    the factors to multiply to the full twist.

    Returns the split (w, s_i^k) of each factor, in order, as letter
    tuples, found by stripping the longest w ... w^-1 wrapping.  The
    product is the full twist exactly when the factors' letters, acting
    left to right, take the Dynnikov coordinates (0, 1, ..., 0, 1) to
    the full twist's, without building the product braid.
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
        coords = _dynnikov([0] * f.strands, [1] * f.strands,
                           chain.from_iterable(b.letters for b in f.factors))
    except InputError as exc:  # a coordinate passes MAX_COORDINATE_BITS
        raise InputError(exc.args[0], field="factors") from None
    if coords != _full_twist_coordinates(f.strands):
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


def _orbit_map(f: Factorization) -> AbelMap:
    """Each generator to the coordinate of its component, the orbits
    ordered by least strand."""
    orbits = factor_orbits(f)
    images: list = [None] * f.strands
    for idx, orbit in enumerate(orbits):
        unit = tuple(int(r == idx) for r in range(len(orbits)))
        for s in orbit:
            images[s] = unit
    return AbelMap(len(orbits), tuple(images))


def zvk_presentation(f: Factorization, projective: bool | None = None
                     ) -> tuple[Presentation, AbelMap]:
    """Presentation of the curve complement cut out by a factorization,
    as words: the library's route to pi_1.  The CLI's polynomials come
    from ``_zvk_rows``, which builds this presentation's Fox matrix
    without it.

    The factorization is validated first.  Each factor w s_i^k w^-1
    gives one relator, w^-1 applied to s_i^k(x_i) x_i^-1: s_i^k fixes
    x_i x_{i+1} and the other generators, so the relators b(x_j) x_j^-1
    of the factor b for every j follow from this one.  The relator is
    ``_join`` folded over the w^-1-images of the letters of u =
    s_i^k(x_i) x_i^-1, so letters cancel only where two images meet.
    The projective variant kills the product x_1 ... x_d as well.  The
    returned map sends each generator to the coordinate of its component
    (orbits ordered by least strand).  A relator whose Artin images pass
    MAX_SYLLABLES raises InputError naming field ``factors`` and the
    factor.
    """
    splits = validate_factorization(f)
    if projective is None:
        projective = f.projective
    d = f.strands
    relators = []
    for idx, (w, core) in enumerate(splits):
        g = abs(core[0])
        try:
            u = _join(_letter_action(d, core)[g - 1], (-g,))
            # w^-1 = -l_m ... -l_1 reads -l_1 ... -l_m from the right
            w_inv = _letter_action(d, map(neg, w))
        except InputError as exc:  # the images pass MAX_SYLLABLES
            raise InputError(f"factor {idx}: {exc.args[0]}",
                             field="factors") from None
        rel: Letters = ()
        for v in u:
            rel = _join(rel, w_inv[v - 1] if v > 0 else _inverse(w_inv[-v - 1]))
        relators.append(_word(rel))
    if projective:
        relators.append(_word(tuple(range(1, d + 1))))
    return Presentation(_generator_names(d), tuple(relators)), _orbit_map(f)


def _zvk_rows(f: Factorization, projective: bool | None = None,
              multi: bool = False) -> tuple[list[list[LaurentPoly]], AbelMap]:
    """The Fox matrix of ``zvk_presentation(f, projective)`` under its
    map, or unless multi under that map composed to one variable, and
    the map, built with no word.

    The factorization is validated before the map is built.  By the Fox
    chain rule the row of the relator psi(u), psi the Artin automorphism
    of w^-1 and u = s_i^k(x_i) x_i^-1, is the row of u under phi psi
    times the coloured Burau matrix of psi (Birman, Braids, Links and
    Mapping Class Groups, 1974; Libgober, Invent. Math. 95, 1989).  The
    row of s_i^k(x_i) is e_i pushed through the letters of s_i^k, u's
    row subtracts phi psi(u) from its entry i, and ``_push`` takes it
    through the letters of w^-1.  The running map starts as phi with
    images i, i+1 swapped for each letter s_i^+-1 of w and of s_i^k, and
    each letter undoes its swap before it acts, so the row ends under
    phi.  The row of u alone has entries of at most |k| terms spanning
    fewer than |k| degrees, so the limits count from there: an entry past
    MAX_ROW_SPAN + |k| degrees or MAX_ROW_TERMS + |k| terms raises
    InputError naming field ``factors`` and the factor.
    """
    splits = validate_factorization(f)
    if projective is None:
        projective = f.projective
    d = f.strands
    phi = _orbit_map(f) if multi else AbelMap.constant_one(d)
    rank = phi.rank
    rows = []
    for idx, (w, core) in enumerate(splits):
        images = list(phi.images)
        for v in chain(w, core):  # to phi psi s_i^k
            i = abs(v) - 1
            images[i], images[i + 1] = images[i + 1], images[i]
        g = abs(core[0]) - 1
        top = images[g]  # phi psi (s_i^k(x_i))
        row = [{} for _ in range(d)]
        row[g] = {(0,) * rank: 1}
        limits = (MAX_ROW_SPAN + len(core), MAX_ROW_TERMS + len(core))
        try:
            _push(row, core, images, limits)
            terms = row[g]
            e = tuple(map(sub, top, images[g]))
            terms[e] = terms.get(e, 0) - 1
            if not terms[e]:
                del terms[e]
            _push(row, map(neg, reversed(w)), images, limits)
        except InputError as exc:
            raise InputError(f"factor {idx}: {exc.args[0]}",
                             field="factors") from None
        rows.append([_raw(rank, terms) for terms in row])
    if projective:  # d(x_1 ... x_d)/dx_j = x_1 ... x_{j-1}
        at, row = (0,) * rank, []
        for img in phi.images:
            row.append(_raw(rank, {at: 1}))
            at = tuple(map(add, at, img))
        rows.append(row)
    return rows, phi


def _push(row: list[dict[tuple[int, ...], int]], letters: Iterable[int],
          images: list[tuple[int, ...]], limits: tuple[int, int]) -> None:
    """Multiply the row vector `row`, its entries as LaurentPoly terms,
    by the coloured Burau matrix of each letter in turn, in place, with
    the running map `images`, whose swap each letter undoes first.

    With (a, b) at columns i, i+1 and m_i, m_{i+1} the images there,
    s_i sends (a, b) to (a (1 - m_{i+1}) + b, a m_i) and s_i^-1 to
    (b / m_{i+1}, a + b (m_i - 1) / m_{i+1}).  Raises InputError once an
    entry's exponent sums span more than limits[0] or it holds more than
    limits[1] terms.
    """
    span, size = limits
    for v in letters:
        i = abs(v) - 1
        images[i], images[i + 1] = mi, mj = images[i + 1], images[i]
        a, b = row[i], row[i + 1]
        if not (a or b):
            continue
        if v > 0:
            na, nb = dict(b), {tuple(map(add, e, mi)): c for e, c in a.items()}
            for e, c in a.items():
                na[e] = na.get(e, 0) + c
                e = tuple(map(add, e, mj))
                na[e] = na.get(e, 0) - c
            na = {e: c for e, c in na.items() if c}
        else:
            na, nb = {tuple(map(sub, e, mj)): c for e, c in b.items()}, dict(a)
            for e, c in na.items():
                nb[e] = nb.get(e, 0) - c
                e = tuple(map(add, e, mi))
                nb[e] = nb.get(e, 0) + c
            nb = {e: c for e, c in nb.items() if c}
        row[i], row[i + 1] = na, nb
        for terms in na, nb:
            if len(terms) > size:
                raise InputError("a Fox row entry holds more than "
                                 f"{size} terms")
            if len(terms) > 1:
                sums = list(map(sum, terms))
                if max(sums) - min(sums) > span:
                    raise InputError("a Fox row entry spans more than "
                                     f"{span} degrees")


def closure_presentation(braid: BraidWord) -> Presentation:
    """Deficiency-one presentation of the braid-closure complement.

    Relators say the braid fixes each generator; the last one follows
    from the others because the action fixes x_1 ... x_d, so it is
    dropped.
    """
    d = braid.strands
    images = _letter_action(d, reversed(braid.letters))
    return Presentation(_generator_names(d), tuple(
        _word(_join(images[g - 1], (-g,))) for g in range(1, d)))


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
    try:
        if not isinstance(word, list):
            raise _NotIntegers
        return BraidWord(strands, tuple(word))
    except _NotIntegers:
        raise InputError("word must be a list of nonzero integers",
                         field="word") from None
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
        try:
            if not isinstance(letters, list):
                raise _NotIntegers
            factors.append(BraidWord(strands, tuple(letters)))
        except _NotIntegers:
            raise InputError(f"factor {idx} must be a list of integers",
                             field="factors") from None
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
