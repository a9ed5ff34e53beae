"""Free group words, finite presentations and abelianization maps.

Words are run-length encoded: tuples of (generator index, nonzero
exponent) with adjacent entries on distinct generators.  The public
``Word(...)`` constructor reduces any input fully.  A product of two
reduced words and the inverse of a reduced word are reduced without a
second full pass: only the seam where two reduced words meet can cancel
or merge.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError

Syllable = tuple[int, int]


def reduce_syllables(pairs: Iterable[Syllable]) -> tuple[Syllable, ...]:
    """Freely reduce a syllable sequence (merge runs, drop zero exponents)."""
    stack: list[list[int]] = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((g, e) for g, e in stack)


def _cat(x: tuple[Syllable, ...], y: tuple[Syllable, ...]
         ) -> tuple[Syllable, ...]:
    """Reduced product of two reduced syllable tuples.

    Syllables cancel pairwise from the seam outwards until two of them
    are on different generators or merge into a nonzero exponent; the
    rest of x and y is already reduced.
    """
    i, j, n = len(x), 0, len(y)
    while i and j < n:
        g, e = x[i - 1]
        h, f = y[j]
        if g != h:
            break
        if e + f:
            return x[:i - 1] + ((g, e + f),) + y[j + 1:]
        i -= 1
        j += 1
    return x[:i] + y[j:]


def _word(syllables: tuple[Syllable, ...]) -> "Word":
    """Internal fast constructor; ``syllables`` must already be reduced."""
    w = object.__new__(Word)
    object.__setattr__(w, "syllables", syllables)
    return w


class Word:
    """Freely reduced word in a free group on indexed generators."""

    __slots__ = ("syllables",)

    def __init__(self, pairs: Iterable[Syllable] = ()):
        object.__setattr__(self, "syllables", reduce_syllables(pairs))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Word is immutable")

    @classmethod
    def identity(cls) -> "Word":
        return _IDENTITY

    @classmethod
    def generator(cls, index: int, exp: int = 1) -> "Word":
        if index < 0:
            raise ValueError("generator index must be nonnegative")
        return cls(((index, exp),))

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the identity."""
        return max((g for g, _ in self.syllables), default=-1)

    def __mul__(self, other: "Word") -> "Word":
        return _word(_cat(self.syllables, other.syllables))

    def inverse(self) -> "Word":
        return _word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return _IDENTITY
        base = self if n > 0 else self.inverse()
        return Word(base.syllables * abs(n))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    def __repr__(self) -> str:
        if self.is_identity:
            return "<Word 1>"
        body = " ".join(f"x{g + 1}" + (f"^{e}" if e != 1 else "")
                        for g, e in self.syllables)
        return f"<Word {body}>"


_IDENTITY = _word(())


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Presentation:
    """Finite group presentation; relators are stored freely reduced."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...] = ()

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a presentation needs at least one generator")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generator names must be distinct")
        cleaned = []
        for r in self.relators:
            if not isinstance(r, Word):
                raise TypeError("relators must be Words")
            if r.max_generator() >= len(self.generators):
                raise ValueError(f"relator {r!r} uses an undeclared generator")
            if not r.is_identity:
                cleaned.append(r)
        object.__setattr__(self, "relators", tuple(cleaned))

    @property
    def n(self) -> int:
        return len(self.generators)

    @property
    def m(self) -> int:
        return len(self.relators)


# ---------------------------------------------------------------------------
# abelianization maps


@dataclass(frozen=True)
class AbelMap:
    """Map from a free group onto Z^rank, given by generator images."""

    rank: int
    images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        coerced = []
        for img in self.images:
            vec = tuple(int(v) for v in (img if isinstance(img, (tuple, list)) else (img,)))
            if len(vec) != self.rank:
                raise ValueError(f"image {vec} has length {len(vec)}, expected {self.rank}")
            coerced.append(vec)
        object.__setattr__(self, "images", tuple(coerced))

    @classmethod
    def constant_one(cls, n_generators: int) -> "AbelMap":
        return cls(1, tuple((1,) for _ in range(n_generators)))

    @property
    def n_generators(self) -> int:
        return len(self.images)

    def __call__(self, w: Word) -> tuple[int, ...]:
        vec = [0] * self.rank
        for g, e in w.syllables:
            if g >= len(self.images):
                raise ValueError(f"word uses generator {g} outside the map's domain")
            img = self.images[g]
            for i in range(self.rank):
                vec[i] += e * img[i]
        return tuple(vec)

    def composed_to_one(self) -> "AbelMap":
        """Compose with Z^rank -> Z summing all coordinates."""
        return AbelMap(1, tuple((sum(img),) for img in self.images))


# ---------------------------------------------------------------------------
# text and JSON formats

_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?$")


def parse_word(text: str, generators: Sequence[str]) -> Word:
    """Parse 'x1 x2^-1 x1' style word text against a generator list."""
    index = {name: i for i, name in enumerate(generators)}
    pairs: list[Syllable] = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if not m:
            raise InputError(f"cannot parse word token {token!r}",
                             field="relators")
        name, exp_text = m.groups()
        if name not in index:
            raise InputError(f"unknown generator {name!r}", field="relators")
        pairs.append((index[name], int(exp_text) if exp_text else 1))
    return Word(pairs)


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
    relators = tuple(parse_word(r, gens) for r in relator_texts)
    try:
        pres = Presentation(tuple(gens), relators)
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
