"""Reference Zariski-van Kampen presentations.

``full_zvk_presentation``: each factor b contributes b(x_i) x_i^-1 for
every generator x_i, the direct statement that the monodromy fixes the
fibre's free group, with the images of ``braid_reference.artin_action``.  ``braid.zvk_presentation`` emits one relator per
factor; the tests check that both present groups with the same
Alexander invariants and the same abelianization, which
``abelianization_invariants`` reads off sympy's integer Smith normal
form.

``per_factor_presentation`` builds the one relator per factor
w s_i^k w^-1 by the route of automorphisms applied to whole Words:
the images of s_i^k applied to x_i, times x_i^-1, and the images of
w^-1 applied to that, both with ``braid_reference.apply_braid``.
``zvk_presentation`` builds the same relator by folding ``group._join``
over the w^-1-images of the letters of s_i^k(x_i) x_i^-1; the tests
check that the letters agree exactly.
"""

import pytest

from alexpoly.braid import BraidWord, Factorization
from alexpoly.group import Presentation, Word

from braid_reference import apply_braid, artin_action


def full_zvk_presentation(f: Factorization, projective: bool | None = None
                      ) -> Presentation:
    if projective is None:
        projective = f.projective
    d = f.strands
    relators = []
    for factor in f.factors:
        images = artin_action(factor)
        relators.extend(images[i] * Word([(i, 1)]).inverse()
                        for i in range(d))
    if projective:
        relators.append(Word(tuple((i, 1) for i in range(d))))
    return Presentation(tuple(f"x{i + 1}" for i in range(d)), tuple(relators))


def per_factor_presentation(f: Factorization, projective: bool | None = None
                            ) -> Presentation:
    if projective is None:
        projective = f.projective
    d = f.strands
    relators = []
    for factor in f.factors:
        letters = factor.letters
        n = len(letters)
        k = 0  # the longest w ... w^-1 wrapping
        while k < n // 2 and letters[n - 1 - k] == -letters[k]:
            k += 1
        w = BraidWord(d, letters[:k])
        x = Word([(abs(letters[k]) - 1, 1)])
        core = BraidWord(d, letters[k:n - k])
        relators.append(apply_braid(w.inverse(),
                                    apply_braid(core, x) * x.inverse()))
    if projective:
        relators.append(Word(tuple((i, 1) for i in range(d))))
    return Presentation(tuple(f"x{i + 1}" for i in range(d)), tuple(relators))


def abelianization_invariants(pres: Presentation) -> tuple[int, list[int]]:
    """(free rank, torsion coefficients > 1) of the abelianized group:
    sympy's invariant factors over Z of the abelianized relator matrix.
    Skips the calling test when sympy is missing."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    matrix = sympy.zeros(pres.m, pres.n)
    for i, r in enumerate(pres.relators):
        for g, e in r.syllables:
            matrix[i, g] += e
    nonzero = [abs(int(d)) for d in invariant_factors(matrix, domain=sympy.ZZ)
               if d]
    return pres.n - len(nonzero), [d for d in nonzero if d > 1]
