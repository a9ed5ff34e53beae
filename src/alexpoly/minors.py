"""Greatest common divisor of the k x k minors of a Laurent-polynomial matrix.

The result generates the smallest principal ideal containing the ideal of
k-minors, which is all the downstream invariants need.  Rows that are zero
or duplicated are discarded (they add no new minors), and a unit entry lets
the matrix contract: clearing its column with row operations and deleting
its row and column turns the gcd of k-minors into the gcd of (k-1)-minors
of the smaller matrix.  What remains takes one route per ring:

* one variable: after each row is shifted by a monomial the entries lie in
  the Euclidean domain Q[t], and the gcd is the k-th determinant divisor,
  the product of the first k invariant factors of the Smith normal form
  that ``_smith_diagonal`` computes on dense coefficient lists;
* several variables: the minors are enumerated, sharing the expansion of
  common row prefixes, and their gcd is folded until it reaches a floor.

The floor is a polynomial the caller knows to divide every k-minor, 1 by
default.  ``fox.alexander_polynomial`` passes u_j0 / gcd(u) for Fox
matrices with column j0 omitted, which by Fox's fundamental identity
divides each of their minors; without it the fold would run through
every row subset waiting for a unit that never comes.  Row operations,
contraction and dropping zero or repeated rows keep the ideal of minors,
so the floor still divides every minor of the reduced matrix.  The Smith
normal form needs no floor.  The enumeration over every column subset
stays for the Fox matrices where the identity gives nothing, such as
projective presentations, whose product relator is not killed.
"""

from __future__ import annotations

from .ring import LaurentPoly, gcd, normalize
from .ring.poly import Scalar, scalar_quotient

Row = tuple[LaurentPoly, ...]


def minor_gcd(rows: list[Row] | list[list[LaurentPoly]], k: int, nvars: int,
              floor: LaurentPoly | None = None) -> LaurentPoly:
    """Unit-normal gcd of all k x k minors; zero when every minor vanishes.

    ``floor`` (default 1) must divide every k-minor; the enumeration stops
    once the running gcd reaches it.
    """
    if k <= 0:
        return LaurentPoly.one(nvars)
    work = _tidy([tuple(r) for r in rows])
    while k > 0:
        spot = _find_unit(work)
        if spot is None:
            break
        work = _contract(work, *spot)
        k -= 1
        work = _tidy(work)
    if k == 0:
        return LaurentPoly.one(nvars)
    if len(work) < k or (work and len(work[0]) < k):
        return LaurentPoly.zero(nvars)
    if nvars == 1:
        return _snf_minor_gcd(work, k)
    return _enumerate_minor_gcd(work, k, nvars, floor)


def _tidy(rows: list[Row]) -> list[Row]:
    """Drop zero rows and duplicates; neither changes the nonzero minors."""
    kept = [r for r in rows if any(not e.is_zero for e in r)]
    return list(dict.fromkeys(kept))


def _find_unit(rows: list[Row]) -> tuple[int, int] | None:
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if entry.is_unit:
                return i, j
    return None


def _contract(rows: list[Row], i: int, j: int) -> list[Row]:
    """Clear column j with the unit pivot at (i, j), then delete row i, col j."""
    pivot_row = rows[i]
    inv = pivot_row[j] ** -1
    out: list[Row] = []
    for r, row in enumerate(rows):
        if r == i:
            continue
        factor = row[j] * inv
        out.append(tuple(row[c] - factor * pivot_row[c]
                         for c in range(len(row)) if c != j))
    return out


# ---------------------------------------------------------------------------
# several variables: exhaustive enumeration with shared-prefix expansion


def _enumerate_minor_gcd(rows: list[Row], k: int, nvars: int,
                         floor: LaurentPoly | None = None) -> LaurentPoly:
    m = len(rows)
    n = len(rows[0])
    one = LaurentPoly.one(nvars)
    floor = one if floor is None else normalize(floor)
    zero = LaurentPoly.zero(nvars)
    running = zero

    def expand(state: dict[tuple[int, ...], LaurentPoly], row: Row,
               depth: int) -> dict[tuple[int, ...], LaurentPoly]:
        new: dict[tuple[int, ...], LaurentPoly] = {}
        for cols, det in state.items():
            for c in range(n):
                if c in cols:
                    continue
                entry = row[c]
                if entry.is_zero:
                    continue
                ncols = tuple(sorted(cols + (c,)))
                pos = ncols.index(c)
                term = entry * det
                if (depth + pos) % 2:
                    term = -term
                acc = new.get(ncols)
                new[ncols] = term if acc is None else acc + term
        return {cols: det for cols, det in new.items() if not det.is_zero}

    def recurse(start: int, state: dict[tuple[int, ...], LaurentPoly],
                depth: int) -> bool:
        nonlocal running
        if depth == k:
            for det in state.values():
                running = gcd(running, det)
                if running == floor:
                    return True
            return False
        for i in range(start, m - (k - depth) + 1):
            nxt = expand(state, rows[i], depth)
            if nxt and recurse(i + 1, nxt, depth + 1):
                return True
        return False

    recurse(0, {(): one}, 0)
    return normalize(running)


# ---------------------------------------------------------------------------
# one variable: Smith normal form over Q[t]
#
# entries become dense coefficient lists (int, or Fraction once a division
# is not integral); the k-th determinant divisor (gcd of k-minors) is the
# product of the first k invariant factors


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


def _dense(p: LaurentPoly) -> list[Scalar]:
    if p.is_zero:
        return []
    top = p.max_exponents()[0]
    out = [0] * (top + 1)
    for exps, coeff in p.terms.items():
        out[exps[0]] = coeff
    return out


def _from_dense(coeffs: list[Scalar]) -> LaurentPoly:
    return LaurentPoly(1, {(i,): c for i, c in enumerate(coeffs) if c})


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


def _padd(a: list[Scalar], b: list[Scalar]) -> list[Scalar]:
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] += bi
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
        factor = scalar_quotient(rem[-1], lead)
        quo[shift] = factor
        for i, bi in enumerate(b):
            rem[shift + i] -= factor * bi
        _ptrim(rem)
    return _ptrim(quo), rem
