"""Reference minor gcd in one variable: the Smith normal form over Q[t].

``minors._echelon_minor_gcd`` brings the matrix and each k-column
submatrix to row echelon form and folds the products of their pivots.
This module keeps the previous route, a full Smith normal form with
column operations and a divisibility-repair pass whose first k invariant
factors multiply to the gcd of the k-minors, so the tests can check that
both give the same unit-normal polynomial.  Its dense-list arithmetic is
its own (one step per operation: multiply, then subtract), over Q with
``Fraction`` quotients, so the kernel under test, which stays on
integers, is never its own oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Union

from alexpoly.minors import Row
from alexpoly.ring import LaurentPoly, normalize

Scalar = Union[int, Fraction]


def _quotient(a: Scalar, b: Scalar) -> Scalar:
    """Exact quotient a / b over Q: an int when integral."""
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


def _snf_minor_gcd(rows: list[Row], k: int) -> LaurentPoly:
    mat = []
    for row in rows:
        shift = min(e.min_exponents()[0] for e in row if not e.is_zero)
        mat.append([_dense(e.shift((-shift,))) for e in row])
    diag = _smith_diagonal(mat)
    if len(diag) < k:
        return LaurentPoly.zero(1)
    product = [1]
    for d in diag[:k]:
        product = _pmul(product, d)
    return normalize(_from_dense(product))


def _smith_diagonal(a: list[list[list[Scalar]]]) -> list[list[Scalar]]:
    """Nonzero diagonal of the Smith normal form over Q[t], each entry
    dividing the next.

    a is a list of equal-length rows of dense coefficient lists; it is
    reduced in place.  The Euclidean size of an entry is its length.
    Entries come back as the loop leaves them, leading coefficients
    included.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    diag = []
    top = left = 0
    while top < m and left < n:
        pivot = min(((i, j) for i in range(top, m) for j in range(left, n)
                     if a[i][j]),
                    key=lambda ij: len(a[ij[0]][ij[1]]), default=None)
        if pivot is None:
            break
        i0, j0 = pivot
        a[top], a[i0] = a[i0], a[top]
        for row in a:
            row[left], row[j0] = row[j0], row[left]
        # clear the pivot row and column (Euclidean steps); a nonzero
        # remainder becomes the smaller pivot of the next sweep
        dirty = True
        while dirty:
            dirty = False
            p = a[top][left]
            for i in range(top + 1, m):
                if a[i][left]:
                    q = _pdivmod(a[i][left], p)[0]
                    for j in range(left, n):
                        a[i][j] = _psub(a[i][j], _pmul(q, a[top][j]))
                    if a[i][left]:
                        a[top], a[i] = a[i], a[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(left + 1, n):
                if a[top][j]:
                    q = _pdivmod(a[top][j], p)[0]
                    for i in range(top, m):
                        a[i][j] = _psub(a[i][j], _pmul(q, a[i][left]))
                    if a[top][j]:
                        for row in a:
                            row[left], row[j] = row[j], row[left]
                        dirty = True
                        break
        # enforce divisibility of the remaining block by the pivot: add an
        # offending row to the pivot row and reduce again
        p = a[top][left]
        offender = next((i for i in range(top + 1, m)
                         if any(a[i][j] and _pdivmod(a[i][j], p)[1]
                                for j in range(left + 1, n))), None)
        if offender is not None:
            for j in range(left, n):
                a[top][j] = _padd(a[top][j], a[offender][j])
            continue
        diag.append(p)
        top += 1
        left += 1
    return diag


def _padd(a: list[Scalar], b: list[Scalar]) -> list[Scalar]:
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] += bi
    return _ptrim(out)


def _dense(p: LaurentPoly) -> list[Scalar]:
    if p.is_zero:
        return []
    top = p.max_exponents()[0]
    out = [0] * (top + 1)
    for exps, coeff in p.terms.items():
        out[exps[0]] = coeff
    return out


def _from_dense(coeffs: list[Scalar]) -> LaurentPoly:
    """The integer polynomial with the coefficients times the lcm of
    their denominators, an associate over Q."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    return LaurentPoly(1, {(i,): int(c * den) for i, c in enumerate(coeffs) if c})


def _ptrim(a: list[Scalar]) -> list[Scalar]:
    while a and not a[-1]:
        a.pop()
    return a


def _pmul(a: list[Scalar], b: list[Scalar]) -> list[Scalar]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _ptrim(out)


def _psub(a: list[Scalar], b: list[Scalar]) -> list[Scalar]:
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _ptrim(out)


def _pdivmod(a: list[Scalar], b: list[Scalar]) -> tuple[list[Scalar], list[Scalar]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    db = len(b) - 1
    lead = b[-1]
    while len(rem) - 1 >= db and rem:
        shift = len(rem) - 1 - db
        factor = _quotient(rem[-1], lead)
        quo[shift] = factor
        for i, bi in enumerate(b):
            rem[shift + i] -= factor * bi
        _ptrim(rem)
    return _ptrim(quo), rem
