"""Reference Zariski-van Kampen presentation: d relators per factor.

Each factor b contributes b(x_i) x_i^-1 for every generator x_i, the
direct statement that the monodromy fixes the fibre's free group.
``braid.zvk_presentation`` emits one relator per factor; the tests
check that both present groups with the same Alexander invariants and
the same abelianization, which ``abelianization_invariants`` reads off
sympy's integer Smith normal form.
"""

import pytest

from alexpoly.braid import Factorization, artin_action
from alexpoly.group import Presentation, Word


def full_zvk_presentation(f: Factorization, projective: bool | None = None
                      ) -> Presentation:
    if projective is None:
        projective = f.projective
    d = f.strands
    relators = []
    for factor in f.factors:
        images = artin_action(factor)
        relators.extend(images[i] * Word.generator(i).inverse()
                        for i in range(d))
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
