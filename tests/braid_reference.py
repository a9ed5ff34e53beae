"""Reference Artin action: substitute into every generator image per letter.

Each letter l is the endomorphism phi_l of the free group given by its d
generator images; the letters act left to right, so after the letters
l1 ... lk the images are phi_lk(... phi_l1(x_j) ...), every image
rewritten at every letter.  ``braid.artin_action`` reads the letters
right to left and rewrites only the two images a letter moves; the
tests check that both give the same freely reduced words.

``permutation`` rebuilds the list of all d positions at every letter and
``strand_components`` walks its cycles; ``braid.permutation`` swaps the
two strands a letter moves and inverts once at the end.
"""

from alexpoly.braid import BraidWord
from alexpoly.group import Word, apply_endomorphism


def _letter_images(letter: int, strands: int) -> list[Word]:
    i = abs(letter) - 1
    images = [Word.generator(j) for j in range(strands)]
    xi, xj = Word.generator(i), Word.generator(i + 1)
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
    images = [Word.generator(j) for j in range(braid.strands)]
    for letter in braid.letters:
        step = _letter_images(letter, braid.strands)
        images = [apply_endomorphism(step, w) for w in images]
    return images


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
