"""Reference Zariski-van Kampen presentation: d relators per factor.

Each factor b contributes b(x_i) x_i^-1 for every generator x_i, the
direct statement that the monodromy fixes the fibre's free group.
``braid.zvk_presentation`` emits one relator per factor; the tests
check that both present groups with the same Alexander invariants.
"""

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
