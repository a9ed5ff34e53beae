"""Free differential calculus and Alexander-type polynomial invariants.

Given a finite presentation and a homomorphism phi of its free group onto
Z^r, the Fox matrix holds the free derivative of each relator by each
generator, pushed through phi into the Laurent ring in r variables.  The
invariant returned here is the gcd of that matrix's (n-1) x (n-1) minors,
where n is the number of generators.
"""

from __future__ import annotations

from .errors import ComputationError
from .group import AbelMap, Presentation
from .minors import minor_gcd
from .ring import LaurentPoly


def fox_matrix(pres: Presentation, phi: AbelMap) -> list[list[LaurentPoly]]:
    """Rows indexed by relators, columns by generators.

    Each row is built in one pass over its relator, tracking the image
    phi(u) of the prefix u read so far.  By the product rule a syllable
    x_g^e after u adds u (1 + x_g + ... + x_g^(e-1)) to column g when
    e > 0 and -u (x_g^-1 + ... + x_g^e) when e < 0, each word w entering
    as the monomial with exponent vector phi(w).
    """
    if phi.n_generators != pres.n:
        raise ValueError(f"phi covers {phi.n_generators} generators, "
                         f"presentation has {pres.n}")
    rows = []
    for r in pres.relators:
        cols: list[dict[tuple[int, ...], int]] = [{} for _ in range(pres.n)]
        at = (0,) * phi.rank
        for g, e in r.syllables:
            img = phi.images[g]
            terms = cols[g]
            sign, powers = (1, range(e)) if e > 0 else (-1, range(-1, e - 1, -1))
            for p in powers:
                exps = tuple(a + p * b for a, b in zip(at, img))
                terms[exps] = terms.get(exps, 0) + sign
            at = tuple(a + e * b for a, b in zip(at, img))
        rows.append([LaurentPoly(phi.rank, terms) for terms in cols])
    return rows


def alexander_polynomial(pres: Presentation, phi: AbelMap) -> LaurentPoly:
    """Unit-normal gcd of the (n-1)-minors of the Fox matrix.

    With fewer than n-1 relators the ideal is zero.  A single-generator
    presentation gives 1 when some relator has nonzero image under phi
    and 0 otherwise.
    """
    if phi.n_generators != pres.n:
        raise ValueError(f"phi covers {phi.n_generators} generators, "
                         f"presentation has {pres.n}")
    nvars = phi.rank
    if pres.n == 1:
        if any(any(phi(r)) for r in pres.relators):
            return LaurentPoly.one(nvars)
        return LaurentPoly.zero(nvars)
    if pres.m < pres.n - 1:
        return LaurentPoly.zero(nvars)
    rows = fox_matrix(pres, phi)
    return minor_gcd(rows, pres.n - 1, nvars)


def alexander_one_variable(pres: Presentation, phi: AbelMap) -> LaurentPoly:
    """One-variable invariant through phi followed by coordinate sum.

    The composed map must still be onto Z, otherwise the substitution
    does not define the invariant.
    """
    composed = phi.composed_to_one() if phi.rank > 1 else phi
    if not composed.is_surjective():
        raise ComputationError(
            "composed abelianization map is not onto Z; the one-variable "
            "invariant is undefined for this marking")
    return alexander_polynomial(pres, composed)
