"""Reference Artin action: substitute into every generator image per letter.

Each letter l is the endomorphism phi_l of the free group given by its d
generator images; the letters act left to right, so after the letters
l1 ... lk the images are phi_lk(... phi_l1(x_j) ...), every image
rewritten at every letter.  ``braid._letter_action`` reads the letters
right to left, on letter tuples, and rewrites only the two
images a letter moves; the tests check that both give the same freely
reduced words.

``reduce_syllables`` freely reduces run-length syllables (generator
index, exponent) on a stack of runs; ``group.Word`` stores letters and
reads its syllables off their runs.

``apply_endomorphism`` substitutes the letter tuples of Words into a
Word, reducing only the seams between the substituted images (multiplied
in halves), and ``apply_braid`` applies a braid's images that way.

``permutation`` rebuilds the list of all d positions at every letter and
``strand_components`` walks its cycles; ``braid.permutation`` swaps the
two strands a letter moves and inverts once at the end.

``full_twist_images`` is the Artin action of the full twist in closed
form, x_j -> P x_j P^-1 with P = x_1 ... x_d, and ``is_full_twist``
compares a braid's images with it: the certificate that
``braid.validate_factorization`` now gives on Dynnikov coordinates.
"""

from typing import Iterable, Sequence

from alexpoly.braid import BraidWord, _letter_action
from alexpoly.group import Letters, Word, _inverse, _join, _word

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


def _product(pieces: list[Letters]) -> Letters:
    """Reduced product of reduced letter tuples, split in halves so that
    each letter is copied about log2(len(pieces)) times rather than once
    per later piece."""
    if len(pieces) > 2:
        mid = len(pieces) // 2
        return _join(_product(pieces[:mid]), _product(pieces[mid:]))
    if len(pieces) == 2:
        return _join(pieces[0], pieces[1])
    return pieces[0] if pieces else ()


def apply_endomorphism(images: Sequence[Word], w: Word) -> Word:
    """Substitute images[i] for generator i throughout w; only the seams
    between the substituted images are reduced."""
    if w.max_generator() >= len(images):
        raise ValueError(f"word uses generator {w.max_generator()} but only "
                         f"{len(images)} images are given")
    inverses = [img.inverse().letters for img in images]
    return _word(_product([images[v - 1].letters if v > 0 else inverses[-v - 1]
                           for v in w.letters]))


def _letter_images(letter: int, strands: int) -> list[Word]:
    i = abs(letter) - 1
    images = [Word([(j, 1)]) for j in range(strands)]
    xi, xj = Word([(i, 1)]), Word([(i + 1, 1)])
    if letter > 0:
        images[i] = xi * xj * xi.inverse()
        images[i + 1] = xi
    else:
        images[i] = xj
        images[i + 1] = xj.inverse() * xi * xj
    return images


def artin_action(braid: BraidWord) -> list[Word]:
    """Images of the free generators under the braid, letters acting
    left to right."""
    images = [Word([(j, 1)]) for j in range(braid.strands)]
    for letter in braid.letters:
        step = _letter_images(letter, braid.strands)
        images = [apply_endomorphism(step, w) for w in images]
    return images


def apply_braid(braid: BraidWord, w: Word) -> Word:
    return apply_endomorphism(artin_action(braid), w)


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    """Equality in the braid group via the faithful Artin action."""
    return a.strands == b.strands and artin_action(a) == artin_action(b)


def permutation(braid: BraidWord) -> list[int]:
    """Position each strand ends at, starting positions 0..d-1."""
    pos = list(range(braid.strands))
    for letter in braid.letters:
        i = abs(letter) - 1
        pos = [i + 1 if v == i else i if v == i + 1 else v for v in pos]
    return pos


def strand_components(braid: BraidWord) -> list[tuple[int, ...]]:
    """Cycles of the permutation, as sorted tuples ordered by least strand."""
    pos = permutation(braid)
    cycles = []
    for start in range(braid.strands):
        if all(start not in c for c in cycles):
            cycle = [start]
            while pos[cycle[-1]] != start:
                cycle.append(pos[cycle[-1]])
            cycles.append(tuple(sorted(cycle)))
    return cycles


def full_twist_images(strands: int) -> list[Letters]:
    """Artin action of the full twist on letter tuples, in closed form: it
    conjugates, x_j -> P x_j P^-1 with P = x_1 ... x_d."""
    p = tuple(range(1, strands + 1))
    return [_join(_join(p, (g,)), _inverse(p)) for g in p]


def is_full_twist(braid: BraidWord) -> bool:
    """Whether the braid's Artin images are the full twist's."""
    return (_letter_action(braid.strands, reversed(braid.letters))
            == full_twist_images(braid.strands))
