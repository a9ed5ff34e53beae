"""Free group words, finite presentations and abelianization maps.

A word is stored as its letters: a freely reduced tuple of signed
letters +-(g + 1), each standing for x_g^+-1.  Reduced, no letter stands
next to its negation, so the inverse of a word is its reversed, negated
tuple and the product of two reduced words cancels only at the seam
where they meet.  The public ``Word(pairs)`` constructor takes
(generator index, exponent) pairs and reduces them fully;
``Word.syllables`` reads the runs of equal letters back as such pairs.
"""

from __future__ import annotations

import json
import re
from itertools import groupby
from operator import neg
from typing import Iterable, Sequence

from .errors import InputError

Letters = tuple[int, ...]
Syllable = tuple[int, int]

#: Largest letter count of the relators of a presentation file, read off
#: their exponents before any word is built, and of that count times the
#: largest |coordinate| of its phi, which bounds the exponent span of
#: every Fox matrix entry.  Shipped files hold 6 letters.
MAX_LETTERS = 1_000_000


def _join(x: Letters, y: Letters) -> Letters:
    """Reduced product of two reduced letter tuples: letters cancel
    pairwise from the seam outwards, the rest is already reduced."""
    i, j, n = len(x), 0, len(y)
    while i and j < n and x[i - 1] == -y[j]:
        i -= 1
        j += 1
    return x[:i] + y[j:]


def _inverse(x: Letters) -> Letters:
    return tuple(map(neg, reversed(x)))


def _word(letters: Letters) -> "Word":
    """Internal fast constructor; ``letters`` must already be reduced."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    return w


class Word:
    """Freely reduced word in a free group on indexed generators."""

    __slots__ = ("letters",)

    def __init__(self, pairs: Iterable[Syllable] = ()):
        stack: list[int] = []
        for g, e in pairs:
            v = g + 1 if e > 0 else -g - 1
            for _ in range(abs(e)):
                if stack and stack[-1] == -v:
                    stack.pop()
                else:
                    stack.append(v)
        object.__setattr__(self, "letters", tuple(stack))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Word is immutable")

    @property
    def syllables(self) -> tuple[Syllable, ...]:
        """The runs of equal letters as (generator index, exponent) pairs."""
        runs = [(v, len(tuple(run))) for v, run in groupby(self.letters)]
        return tuple((v - 1, n) if v > 0 else (-v - 1, -n) for v, n in runs)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the identity."""
        return max(map(abs, self.letters), default=0) - 1

    def __mul__(self, other: "Word") -> "Word":
        return _word(_join(self.letters, other.letters))

    def inverse(self) -> "Word":
        return _word(_inverse(self.letters))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return _IDENTITY
        base = self if n > 0 else self.inverse()
        return Word(base.syllables * abs(n))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        if self.is_identity:
            return "<Word 1>"
        body = " ".join(f"x{g + 1}" + (f"^{e}" if e != 1 else "")
                        for g, e in self.syllables)
        return f"<Word {body}>"


_IDENTITY = _word(())


# ---------------------------------------------------------------------------
# presentations


class Presentation:
    """Finite group presentation; relators are stored freely reduced."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: tuple[str, ...],
                 relators: tuple[Word, ...] = ()):
        if not generators:
            raise ValueError("a presentation needs at least one generator")
        if len(set(generators)) != len(generators):
            raise ValueError("generator names must be distinct")
        cleaned = []
        for r in relators:
            if not isinstance(r, Word):
                raise TypeError("relators must be Words")
            if r.max_generator() >= len(generators):
                raise ValueError(f"relator {r!r} uses an undeclared generator")
            if not r.is_identity:
                cleaned.append(r)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("Presentation is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.generators, self.relators)
                == (other.generators, other.relators))

    def __hash__(self) -> int:
        return hash((self.generators, self.relators))

    @property
    def n(self) -> int:
        return len(self.generators)

    @property
    def m(self) -> int:
        return len(self.relators)


# ---------------------------------------------------------------------------
# abelianization maps


class AbelMap:
    """Map from a free group onto Z^rank, given by generator images."""

    __slots__ = ("rank", "images")

    def __init__(self, rank: int, images: tuple[tuple[int, ...], ...]):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        coerced = []
        for img in images:
            vec = tuple(img) if isinstance(img, (tuple, list)) else (img,)
            if not set(map(type, vec)) <= {int}:
                raise ValueError(f"image {vec} must hold integers")
            if len(vec) != rank:
                raise ValueError(f"image {vec} has length {len(vec)}, expected {rank}")
            coerced.append(vec)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "images", tuple(coerced))

    def __setattr__(self, name, value):
        raise AttributeError("AbelMap is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rank, self.images) == (other.rank, other.images)

    def __hash__(self) -> int:
        return hash((self.rank, self.images))

    @classmethod
    def constant_one(cls, n_generators: int) -> "AbelMap":
        return cls(1, tuple((1,) for _ in range(n_generators)))

    @property
    def n_generators(self) -> int:
        return len(self.images)

    def __call__(self, w: Word) -> tuple[int, ...]:
        vec = [0] * self.rank
        try:
            for v in w.letters:
                if v > 0:
                    img = self.images[v - 1]
                    for i in range(self.rank):
                        vec[i] += img[i]
                else:
                    img = self.images[-v - 1]
                    for i in range(self.rank):
                        vec[i] -= img[i]
        except IndexError:
            raise ValueError(f"word uses generator {w.max_generator()} "
                             "outside the map's domain") from None
        return tuple(vec)

    def composed_to_one(self) -> "AbelMap":
        """Compose with Z^rank -> Z summing all coordinates."""
        return AbelMap(1, tuple((sum(img),) for img in self.images))


# ---------------------------------------------------------------------------
# text and JSON formats

_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?$")


def _pairs(text: str, index: dict[str, int]) -> list[Syllable]:
    """The (generator index, exponent) pairs of 'x1 x2^-1 x1' style text."""
    pairs: list[Syllable] = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if not m:
            raise InputError(f"cannot parse word token {token!r}",
                             field="relators")
        name, exp_text = m.groups()
        if name not in index:
            raise InputError(f"unknown generator {name!r}", field="relators")
        try:  # int() refuses more digits than its conversion limit
            pairs.append((index[name], int(exp_text) if exp_text else 1))
        except ValueError:
            raise InputError(f"exponent of {name!r} has {len(exp_text)} "
                             "digits, too many to convert",
                             field="relators") from None
    return pairs


def parse_word(text: str, generators: Sequence[str]) -> Word:
    """Parse 'x1 x2^-1 x1' style word text against a generator list."""
    return Word(_pairs(text, {name: i for i, name in enumerate(generators)}))


def presentation_from_json(obj: object) -> tuple[Presentation, AbelMap | None]:
    """Decode {"generators": [...], "relators": [...], "phi": {...}} data."""
    if not isinstance(obj, dict):
        raise InputError("presentation must be a JSON object")
    gens = obj.get("generators")
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens) or not gens:
        raise InputError("expected a nonempty list of generator names",
                         field="generators")
    relator_texts = obj.get("relators", [])
    if not isinstance(relator_texts, list) or not all(isinstance(r, str) for r in relator_texts):
        raise InputError("expected a list of word strings", field="relators")
    index = {name: i for i, name in enumerate(gens)}
    parsed = [_pairs(r, index) for r in relator_texts]
    letters = sum(abs(e) for pairs in parsed for _, e in pairs)
    if letters > MAX_LETTERS:
        raise InputError(f"the relators hold {letters} letters in all, more "
                         f"than {MAX_LETTERS}", field="relators")
    try:
        pres = Presentation(tuple(gens), tuple(map(Word, parsed)))
    except ValueError as exc:
        raise InputError(str(exc), field="generators") from None

    phi = None
    if "phi" in obj:
        phi_obj = obj["phi"]
        if not isinstance(phi_obj, dict):
            raise InputError("phi must map generator names to integers or "
                             "integer vectors", field="phi")
        images: list[tuple[int, ...]] = []
        rank = None
        for name in gens:
            if name not in phi_obj:
                raise InputError(f"phi is missing generator {name!r}",
                                 field="phi")
            val = phi_obj[name]
            vec = tuple(val) if isinstance(val, list) else (val,)
            if not all(type(v) is int for v in vec):
                raise InputError(f"phi[{name!r}] must be an integer or a list "
                                 "of integers", field="phi")
            if rank is None:
                rank = len(vec)
            elif len(vec) != rank:
                raise InputError("phi image lengths disagree", field="phi")
            images.append(vec)
        unknown = set(phi_obj) - set(gens)
        if unknown:
            raise InputError(f"phi names unknown generators {sorted(unknown)}",
                             field="phi")
        top = max((abs(v) for vec in images for v in vec), default=0)
        if letters * top > MAX_LETTERS:
            raise InputError(f"{letters} relator letters times the largest "
                             f"|phi coordinate| {top} is {letters * top}, "
                             f"more than {MAX_LETTERS}", field="phi")
        try:
            phi = AbelMap(rank, tuple(images))
        except ValueError as exc:
            raise InputError(str(exc), field="phi") from None
    return pres, phi


def load_json_file(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError("file not found", source=path) from None
    except OSError as exc:  # a directory, no read permission, ...
        raise InputError(f"cannot read: {exc.strerror}", source=path) from None
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc.msg}", source=path,
                         line=exc.lineno) from None
    except ValueError as exc:  # not UTF-8, or an int past Python's digit limit
        raise InputError(f"invalid JSON: {exc}", source=path) from None
    except RecursionError:
        raise InputError("invalid JSON: nested too deeply", source=path) from None
