"""Free differential calculus and Alexander-type polynomial invariants.

Given a finite presentation and a homomorphism phi of its free group onto
Z^r, the Fox matrix holds the free derivative of each relator by each
generator, pushed through phi into the Laurent ring in r variables.  The
invariant returned here is the gcd of that matrix's (n-1) x (n-1) minors,
where n is the number of generators.

Fox's fundamental identity r - 1 = sum_j (dr/dx_j)(x_j - 1) gives, for
every relator r with phi(r) = 1, sum_j phi(dr/dx_j) u_j = 0, where
u_j = phi(x_j) - 1.  So the Fox matrix A kills the vector u, and for each
set S of n-1 rows the minors D_{S,j} omitting column j satisfy
D_{S,i} u_j = +-D_{S,j} u_i.  With g = gcd_j u_j and any column j0 with
u_j0 != 0, each D_{S,j0} is a multiple of u_j0 / g, and the gcd of all
(n-1)-minors equals (g / u_j0) times the gcd of the minors omitting
column j0 (Fox, Free differential calculus II, Ann. Math. 1954; Torres,
On the Alexander polynomial, Ann. Math. 1953).  ``_rows_polynomial``
takes that route from Fox rows however they were built:
``alexander_polynomial`` hands it ``fox_matrix`` of a presentation, and
the ``zvk`` and ``verify`` commands the rows that ``braid._zvk_rows``
builds from a factorization without words.  It omits the column whose
image phi(x_j0) has the least L1 norm, the first of those on ties, since
the minors it keeps carry the factor u_j0 / g, and hands that factor,
read off the exponents of phi, to the minor gcd as a floor at which its
fold may stop.  In one variable the floor is then a unit whenever some
|phi(x_j)| is the gcd of all of them, as for the weighted map of a hat
invariant, and no division is left; colour and ZvK maps send every
generator to a unit vector, so the first column with a nonzero image
goes.

Whether phi kills every relator is read off the Fox rows: the
coefficient sum of phi(dr/dx_j) is the exponent sum of x_j in r, so
phi(r) = sum_j eps(row_j) phi(x_j), eps the coefficient sum.  The gcd
runs over every column only when the identity gives nothing: some
relator is not killed by phi (the product relator x_1 ... x_d of a
projective presentation, or a map that is not a homomorphism of the
presented group), or every u_j is 0.
"""

from __future__ import annotations

import math
from operator import add

from .errors import ComputationError
from .group import AbelMap, Presentation
from .minors import minor_gcd
from .ring import LaurentPoly, exact_divide, normalize
from .ring.poly import _raw


def fox_matrix(pres: Presentation, phi: AbelMap) -> list[list[LaurentPoly]]:
    """Rows indexed by relators, columns by generators.

    Each row is built in one pass over the letters of its relator,
    tracking the exponent vector phi(u) of the prefix u read so far.  By
    the product rule a letter x_g after u adds the monomial of u to
    column g, and a letter x_g^-1 subtracts that of u x_g^-1; the
    exponent vector steps by phi(x_g), or its negation, once per letter,
    with no multiplication.  The entries hold int coefficients keyed by
    int tuples of length phi.rank, so they are stored as they are,
    without the constructor's checks.
    """
    if phi.n_generators != pres.n:
        raise ValueError(f"phi covers {phi.n_generators} generators, "
                         f"presentation has {pres.n}")
    images = phi.images
    negated = [tuple(-b for b in img) for img in images]
    rows = []
    for r in pres.relators:
        cols: list[dict[tuple[int, ...], int]] = [{} for _ in range(pres.n)]
        at = (0,) * phi.rank
        for v in r.letters:
            if v > 0:
                terms = cols[v - 1]
                terms[at] = terms.get(at, 0) + 1
                at = tuple(map(add, at, images[v - 1]))
            else:
                at = tuple(map(add, at, negated[-v - 1]))
                terms = cols[-v - 1]
                terms[at] = terms.get(at, 0) - 1
        rows.append([_raw(phi.rank, {e: c for e, c in terms.items() if c})
                     for terms in cols])
    return rows


def alexander_polynomial(pres: Presentation, phi: AbelMap) -> LaurentPoly:
    """Unit-normal gcd of the (n-1)-minors of the Fox matrix.

    With fewer than n-1 relators the ideal is zero.  A single-generator
    presentation gives 1 when some relator has nonzero image under phi
    and 0 otherwise.  When the Fox rows show that phi kills every
    relator, only the minors that omit the column j0 of least nonzero
    image are computed (see the module docstring): they carry
    u_j0 / gcd(u), the floor of their gcd, which is then divided by it
    unless it is a unit; a remainder raises ComputationError.  Otherwise
    the identity does not hold or gives no column, and every column
    takes part.
    """
    if phi.n_generators != pres.n:
        raise ValueError(f"phi covers {phi.n_generators} generators, "
                         f"presentation has {pres.n}")
    if pres.n == 1:
        if any(any(phi(r)) for r in pres.relators):
            return LaurentPoly.one(phi.rank)
        return LaurentPoly.zero(phi.rank)
    return _rows_polynomial(fox_matrix(pres, phi), phi)


def _rows_polynomial(rows: list[list[LaurentPoly]], phi: AbelMap
                     ) -> LaurentPoly:
    """``alexander_polynomial`` of the Fox rows `rows` under phi, on
    n >= 2 generators: zero below n - 1 rows, else the minor gcd through
    the identity of the module docstring where the rows show it holds."""
    nvars = phi.rank
    k = phi.n_generators - 1
    if len(rows) < k:
        return LaurentPoly.zero(nvars)
    images = [img for img in dict.fromkeys(phi.images) if any(img)]
    if not images or not _kills_every_relator(rows, phi.images):
        return minor_gcd(rows, k, nvars)
    least = min(images, key=lambda img: sum(map(abs, img)))
    j0 = phi.images.index(least)
    floor = _floor([least] + [img for img in images if img != least])
    reduced = minor_gcd([row[:j0] + row[j0 + 1:] for row in rows], k, nvars,
                        floor=floor)
    if floor.is_unit:
        return reduced
    result = exact_divide(reduced, floor)
    if result is None:
        raise ComputationError(
            f"the minor gcd without column {j0} is not a multiple of "
            f"u_{j0} / gcd(u) = {floor}")
    return normalize(result)


def _kills_every_relator(rows: list[list[LaurentPoly]],
                         images: tuple[tuple[int, ...], ...]) -> bool:
    """Whether phi(r) = 0 for the relator r of every Fox row: phi(r) is
    sum_j eps_j phi(x_j), eps_j the coefficient sum of phi(dr/dx_j),
    which is the exponent sum of x_j in r."""
    for row in rows:
        image = (0,) * len(images[0])
        for entry, img in zip(row, images):
            eps = sum(entry.terms.values())
            if eps:
                image = [a + eps * v for a, v in zip(image, img)]
        if any(image):
            return False
    return True


def _floor(images: list[tuple[int, ...]]) -> LaurentPoly:
    """u_0 / gcd_j u_j for u_j = x^(a_j) - 1 over the distinct nonzero
    images a_0, a_1, ... of phi, read off the exponents.

    Write a_0 = n_0 c with c primitive.  Up to units x^(a_0) - 1 is the
    product of the Phi_d(x^c) for d | n_0; these are irreducible (a change
    of basis of Z^r makes x^c a variable), and Phi_d(x^c) and Phi_e(x^c')
    are associates only when d = e and c' = +-c.  So gcd_j u_j is
    x^(g c) - 1 when every a_j is a multiple n_j c, with g = gcd_j n_j,
    and 1 otherwise; the quotient is 1 + x^(g c) + ... + x^((n_0/g - 1) g c)
    in the first case and u_0 in the second.
    """
    a0 = images[0]
    rank = len(a0)
    n0 = math.gcd(*a0)
    c = tuple(v // n0 for v in a0)
    i = next(i for i, v in enumerate(c) if v)
    g = n0
    for a in images[1:]:
        n = a[i] // c[i]
        if a != tuple(n * v for v in c):
            return LaurentPoly(rank, {a0: 1, (0,) * rank: -1})
        g = math.gcd(g, n)
    return LaurentPoly(rank, {tuple(m * g * v for v in c): 1
                              for m in range(n0 // g)})


def alexander_one_variable(pres: Presentation, phi: AbelMap) -> LaurentPoly:
    """One-variable invariant through phi followed by coordinate sum.

    The composed map must still be onto Z, its images having gcd 1,
    otherwise the substitution does not define the invariant.
    """
    composed = phi.composed_to_one() if phi.rank > 1 else phi
    if math.gcd(*(v for v, in composed.images)) != 1:
        raise ComputationError(
            "composed abelianization map is not onto Z; the one-variable "
            "invariant is undefined for this marking")
    return alexander_polynomial(pres, composed)
