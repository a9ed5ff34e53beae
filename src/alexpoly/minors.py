"""Greatest common divisor of the k x k minors of a Laurent-polynomial matrix.

The result generates the smallest principal ideal of Q[t^+-1] containing
the ideal of k-minors, which is all the downstream invariants need.  One
rule drops rows, before the first contraction and after each one: a zero
row goes, and so does every row that is a unit multiple of an earlier row,
since a minor holding both is zero and one holding the later row alone is
a unit times a minor holding the earlier one, so neither adds to the
ideal.  The Fox row of a conjugated relator u^-1 r u is such a multiple,
phi(u)^-1 times the row of r.  Only rows of the same shape, the sizes of
their entries, are compared, each by a key that is equal exactly on unit
multiples.  A unit entry lets the matrix contract: clearing its column
with row operations and deleting its row and column turns the gcd of
k-minors into the gcd of (k-1)-minors of the smaller matrix.  Each ring
takes one route from the Fox rows on:

* one variable: each row is shifted by a monomial so that its entries lie
  in Z[t] and turned into dense coefficient lists once, read straight off
  each entry's terms with the row's least exponent as offset.  Unit
  multiples are then rational multiples, keyed by their primitive lists
  signed as the leading coefficient of the first nonzero entry.  A unit
  is an entry with one nonzero coefficient, c t^a, and the contraction
  needs no division: every other row x becomes c t^a x - x_j p, p the
  pivot row, which is a unit times x - (x_j / c t^a) p, and then loses
  its common power of t.  Row operations bring what is left to row
  echelon form once, then each k-column submatrix in turn, and the gcd
  is folded from the products of their pivots.  A row step s x - q y is
  one pass per entry, s x_c = q y_c + r the integer pseudo-division in
  the pivot column c, which takes the remainder r; a row with s != 1 is
  made primitive again;
* several variables: rows stay tuples of ``LaurentPoly``, keyed by their
  primitive terms shifted by the lex-least term of the first nonzero
  entry, and a unit pivot c t^a clears its column without division,
  x -> |c| x - (sign(c) t^-a x_j) p.  Then the minors of each k-row
  subset, cyclic row windows first, come from one Laplace expansion and
  fold until the gcd hits a floor.  Each row is first shifted by a
  monomial so that its exponents are >= 0, which changes every minor by
  a unit only, and each exponent vector e is packed into one int,
  sum(e_i << (w i)) (Kronecker's substitution).  An exponent of a
  product of entries from distinct rows is at most the sum of the row
  maxima, so with w that sum's bit length no field carries into the
  next, and a monomial product is one integer add.  Each minor is
  unpacked once, just before its gcd.

The floor is a polynomial the caller knows to divide every k-minor, 1 by
default.  ``fox.alexander_polynomial`` passes u_j0 / gcd(u) for Fox
matrices with column j0 omitted, which by Fox's fundamental identity
divides each of their minors; without it the fold would run through
every row subset waiting for a unit that never comes.  Row operations,
contraction and dropping zero rows or unit multiples keep the ideal of
minors, so the floor still divides every minor of the reduced matrix.
The echelon route needs no floor: a Fox-identity matrix has exactly k
columns, hence one submatrix.  Reaching the floor certifies the gcd
whatever the order of the minors.  The enumeration over every column
subset stays for the Fox matrices where the identity gives nothing, such
as projective presentations, whose product relator is not killed.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterator
from itertools import combinations, repeat
from math import gcd as int_gcd
from operator import add, mul, sub

from .ring import LaurentPoly, gcd, gcd_many, normalize
from .ring.poly import _pdivmod, _ptrim, _raw

Row = tuple[LaurentPoly, ...]
Dense = list[list[int]]


def minor_gcd(rows: list[Row] | list[list[LaurentPoly]], k: int, nvars: int,
              floor: LaurentPoly | None = None) -> LaurentPoly:
    """Unit-normal gcd of all k x k minors; zero when every minor vanishes.

    ``floor`` (default 1) must divide every k-minor; the enumeration stops
    once the running gcd reaches it.
    """
    if k <= 0:
        return LaurentPoly.one(nvars)
    if nvars == 1:
        work = [_dense_row(row) for row in rows]
        find, contract = _find_dense_unit, _contract_dense
        shape, key = _lengths, _dense_key
    else:
        work = [tuple(row) for row in rows]
        find, contract = _find_unit, _contract
        shape, key = _term_counts, _terms_key
    work = _drop_unit_multiples(work, shape, key)
    while k > 0:
        spot = find(work)
        if spot is None:
            break
        work = _drop_unit_multiples(contract(work, *spot), shape, key)
        k -= 1
    if k == 0:
        return LaurentPoly.one(nvars)
    if len(work) < k or (work and len(work[0]) < k):
        return LaurentPoly.zero(nvars)
    if nvars == 1:
        return _echelon_minor_gcd(work, k)
    return _enumerate_minor_gcd(work, k, nvars, floor)


def _drop_unit_multiples(rows: list, shape: Callable[..., tuple[int, ...]],
                         key: Callable[..., Hashable]) -> list:
    """Drop zero rows and every row that is a unit multiple of an earlier
    one; a minor holding both rows is zero, and one holding the later row
    alone is a unit times a minor holding the earlier one.

    Only rows of a repeated shape can be unit multiples of each other, and
    only those are keyed; key is equal exactly on unit multiples.
    """
    shapes = [shape(row) for row in rows]
    count: dict[tuple[int, ...], int] = {}
    for s in shapes:
        count[s] = count.get(s, 0) + 1
    seen = set()
    kept = []
    for row, s in zip(rows, shapes):
        if not any(s):
            continue
        if count[s] > 1:
            tag = key(row)
            if tag in seen:
                continue
            seen.add(tag)
        kept.append(row)
    return kept


# ---------------------------------------------------------------------------
# several variables: rows of LaurentPoly, contracted without division


def _term_counts(row: Row) -> tuple[int, ...]:
    return tuple(len(e.terms) for e in row)


def _terms_key(row: Row) -> tuple[frozenset, ...]:
    """The terms of row shifted by the lex-least exponent of its first
    nonzero entry and divided by the gcd of its coefficients, signed as
    that term's.  Lex order is translation-invariant, so a unit c t^a
    maps that term of row to the same term of c t^a row, and unit
    multiples get equal keys."""
    first = next(e.terms for e in row if e.terms)
    low = min(first)
    g = int_gcd(*(v for entry in row for v in entry.terms.values()))
    g = g if first[low] > 0 else -g
    return tuple(frozenset((tuple(map(sub, e, low)), v // g)
                           for e, v in entry.terms.items())
                 for entry in row)


def _find_unit(rows: list[Row]) -> tuple[int, int] | None:
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if entry.is_unit:
                return i, j
    return None


def _contract(rows: list[Row], i: int, j: int) -> list[Row]:
    """Clear column j with the unit pivot c t^a at (i, j), then delete row
    i and column j: every other row x becomes |c| x - (sign(c) t^-a x_j) p,
    |c| times x - (x_j / c t^a) p.  A row whose entry in column j is
    already zero keeps its other entries as they are."""
    pivot_row = rows[i]
    (a, c), = pivot_row[j].terms.items()
    inv = _raw(len(a), {tuple(-e for e in a): 1 if c > 0 else -1})
    out: list[Row] = []
    for r, row in enumerate(rows):
        if r == i:
            continue
        if row[j].is_zero:
            out.append(row[:j] + row[j + 1:])
            continue
        factor = row[j] * inv
        out.append(tuple(row[k] * abs(c) - factor * pivot_row[k]
                         for k in range(len(row)) if k != j))
    return out


# ---------------------------------------------------------------------------
# several variables: one Laplace expansion per row subset, windows first
#
# a packed polynomial is a dict {key: coefficient} whose key holds the
# exponent vector e as sum(e_i << (width * i)), every e_i >= 0; a minor is
# keyed by the bit set of its columns

Packed = dict[int, int]


def _enumerate_minor_gcd(rows: list[Row], k: int, nvars: int,
                         floor: LaurentPoly | None = None) -> LaurentPoly:
    one = LaurentPoly.one(nvars)
    floor = one if floor is None else normalize(floor)
    packed, width = _pack(rows, nvars)
    running = LaurentPoly.zero(nvars)
    for subset in _row_subsets(len(rows), k):
        state: dict[int, Packed] = {0: {0: 1}}
        for depth, i in enumerate(subset):
            state = _expand(state, packed[i], depth)
        for det in state.values():
            running = gcd(running, _unpack(det, width, nvars))
            if running == floor:
                return floor
    return normalize(running)


def _row_subsets(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """Every k-subset of range(m) once: the cyclic windows {o, ..., o + k - 1
    mod m} first, then the rest in lexicographic order, which alone keeps
    the gcd of a Fox matrix above the floor for thousands of minors."""
    windows = dict.fromkeys(tuple(sorted((o + j) % m for j in range(k)))
                            for o in range(m))
    yield from windows
    for subset in combinations(range(m), k):
        if subset not in windows:
            yield subset


def _pack(rows: list[Row], nvars: int) -> tuple[list[list[tuple[int, Packed]]], int]:
    """Each row shifted by the monomial that makes its exponents >= 0, as
    (column, packed entry) pairs of its nonzero entries, and the width.

    A product of entries from distinct rows has exponents at most the sum
    of the row maxima, so a width of that sum's bit length never lets a
    field carry into the next.
    """
    shifted = []
    total = 0
    for row in rows:
        exps = [e for entry in row for e in entry.terms]
        columns = list(zip(*exps))
        low = [min(col) for col in columns]
        total += max((max(col) - b for col, b in zip(columns, low)), default=0)
        shifted.append((row, low))
    width = max(total.bit_length(), 1)
    weights = [1 << s for s in range(0, width * nvars, width)]
    packed = []
    for row, low in shifted:
        base = sum(map(mul, low, weights))
        packed.append([(c, {sum(map(mul, e, weights)) - base: v
                            for e, v in entry.terms.items()})
                       for c, entry in enumerate(row) if not entry.is_zero])
    return packed, width


def _unpack(p: Packed, width: int, nvars: int) -> LaurentPoly:
    mask = (1 << width) - 1
    offsets = range(0, width * nvars, width)
    return _raw(nvars, {tuple(key >> s & mask for s in offsets): v
                        for key, v in p.items()})


def _expand(state: dict[int, Packed], row: list[tuple[int, Packed]],
            depth: int) -> dict[int, Packed]:
    """Laplace step along row as row depth: the nonzero minors keyed by
    column bit set, from those of the rows above it.  A monomial product
    is one integer add of packed keys."""
    new: dict[int, Packed] = {}
    for cols, det in state.items():
        det_terms = det.items()
        for c, entry in row:
            bit = 1 << c
            if cols & bit:
                continue
            ncols = cols | bit
            acc = new.get(ncols)
            if acc is None:
                acc = new[ncols] = {}
            get = acc.get
            odd = (depth + (cols & (bit - 1)).bit_count()) & 1
            for e1, c1 in entry.items():
                if odd:
                    c1 = -c1
                for e2, c2 in det_terms:
                    e = e1 + e2
                    acc[e] = get(e, 0) + c1 * c2
    out = {}
    for cols, acc in new.items():
        det = {e: v for e, v in acc.items() if v}
        if det:
            out[cols] = det
    return out


# ---------------------------------------------------------------------------
# one variable: dense rows over Z[t], contracted without division, then
# row echelon forms
#
# a row is a list of dense coefficient lists, the coefficient of t^i at
# index i and the last one nonzero, [] for zero, and some entry of a
# nonzero row has a nonzero constant term.  Row operations and nonzero
# rational factors of a row keep every ideal of minors over Q[t], the
# k-minors are the maximal minors of the k-column submatrices, and the
# maximal minors of an echelon matrix are generated by the product of
# its pivots, or all zero when a column has no pivot


def _dense_row(row: Row) -> Dense:
    """The entries of row times t^-s, s its least exponent, as dense lists."""
    low = min((e for entry in row for e, in entry.terms), default=0)
    out = []
    for entry in row:
        coeffs = []
        if entry.terms:
            coeffs = [0] * (max(e for e, in entry.terms) - low + 1)
            for (e,), c in entry.terms.items():
                coeffs[e - low] = c
        out.append(coeffs)
    return out


def _lengths(row: Dense) -> tuple[int, ...]:
    return tuple(map(len, row))


def _dense_key(row: Dense) -> tuple[tuple[int, ...], ...]:
    """The lists of row divided by the gcd of their coefficients, signed
    as the leading coefficient of its first nonzero entry.  Rows that are
    unit multiples of each other have lost their common powers of t, so
    they are rational multiples, and get equal keys."""
    g = int_gcd(*(c for e in row for c in e))
    g = g if next(e for e in row if e)[-1] > 0 else -g
    return tuple(tuple(c // g for c in e) for e in row)


def _find_dense_unit(rows: list[Dense]) -> tuple[int, int] | None:
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            if e.count(0) == len(e) - 1:
                return i, j
    return None


def _contract_dense(rows: list[Dense], i: int, j: int) -> list[Dense]:
    """Clear column j with the unit pivot c t^a at (i, j), then delete
    row i and column j.

    Every other row x becomes c t^a x - x_j p, p the pivot row: a unit
    times x - (x_j / c t^a) p, with no division.  Each row then loses its
    common power of t."""
    pivot_row = rows[i]
    a, c = len(pivot_row[j]) - 1, pivot_row[j][-1]
    rest = pivot_row[:j] + pivot_row[j + 1:]
    out = []
    for r, row in enumerate(rows):
        if r == i:
            continue
        xj = row[j]
        row = row[:j] + row[j + 1:]
        if xj:
            new = []
            for x, y in zip(row, rest):
                if x:
                    x = [0] * a + [v * c for v in x]
                new.append(_submul(x, xj, y) if y else x)
            row = new
        out.append(_strip(row))
    return out


def _strip(row: Dense) -> Dense:
    """row divided by the highest power of t that divides every entry."""
    if any(e[0] for e in row if e):
        return row
    low = min((next(i for i, v in enumerate(e) if v) for e in row if e),
              default=0)
    return [e[low:] for e in row]


def _echelon_minor_gcd(mat: list[Dense], k: int) -> LaurentPoly:
    """gcd of the k-minors of the dense matrix mat, reduced in place."""
    # echelon the whole matrix first: each submatrix then has at most
    # rank-many rows
    rank = len(_echelon(mat))
    if rank < k:
        return LaurentPoly.zero(1)
    del mat[rank:]
    return gcd_many((_pivot_product([[row[c] for c in cols] for row in mat])
                     for cols in combinations(range(len(mat[0])), k)), 1)


def _pivot_product(a: list[Dense]) -> LaurentPoly:
    """Generator of the maximal minors of a matrix with no more columns
    than rows; a is reduced in place."""
    pivots = _echelon(a)
    if len(pivots) < len(a[0]):
        return LaurentPoly.zero(1)
    product = [1]
    for p in pivots:
        product = _pmul(product, p)
    return _from_dense(product)


def _echelon(a: list[Dense]) -> list[list[int]]:
    """Bring a to row echelon form in place; return its pivots in column
    order, one per column that has one.

    a is a list of equal-length rows of dense coefficient lists, and the
    Euclidean size of an entry is its length.  In each column the
    shortest entry of the rows below the pivots found so far moves up and
    reduces every other such row, until one nonzero entry is left.  A row
    step takes s x - q y, y the pivot row and s x_col = q y_col + r the
    pseudo-division in the pivot column, whose remainder r is the row's
    new entry there; a row with s != 1 is then made primitive.
    """
    m = len(a)
    pivots = []
    top = 0
    for col in range(len(a[0])):
        while True:
            live = [i for i in range(top, m) if a[i][col]]
            if not live:
                break
            low = min(live, key=lambda i: len(a[i][col]))
            a[top], a[low] = a[low], a[top]
            pivot_row = a[top]
            if len(live) == 1:
                pivots.append(pivot_row[col])
                top += 1
                break
            rest = pivot_row[col + 1:]
            for row in a[top + 1:]:
                if row[col]:
                    s, q, row[col] = _pdivmod(row[col], pivot_row[col])
                    if s > 1:
                        row[col + 1:] = [[v * s for v in x]
                                         for x in row[col + 1:]]
                    row[col + 1:] = [_submul(x, q, y) if y else x
                                     for x, y in zip(row[col + 1:], rest)]
                    if s > 1:
                        g = int_gcd(*(c for e in row for c in e))
                        row[:] = [[c // g for c in e] for e in row]
    return pivots


def _submul(x: list[int], q: list[int], y: list[int]) -> list[int]:
    """x - q y as a new trimmed list; q and y are nonzero."""
    n = len(y)
    out = x + [0] * (len(q) + n - 1 - len(x))
    for i, c in enumerate(q):
        if c:
            out[i:i + n] = map(sub, out[i:i + n], map(mul, y, repeat(c)))
    return _ptrim(out)


def _from_dense(coeffs: list[int]) -> LaurentPoly:
    return LaurentPoly(1, {(i,): c for i, c in enumerate(coeffs) if c})


def _pmul(a: list[int], b: list[int]) -> list[int]:
    """a b for nonzero a and b; the leading coefficients cannot cancel."""
    n = len(b)
    out = [0] * (len(a) + n - 1)
    for i, c in enumerate(a):
        if c:
            out[i:i + n] = map(add, out[i:i + n], map(mul, b, repeat(c)))
    return out
