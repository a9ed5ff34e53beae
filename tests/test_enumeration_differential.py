"""Differential tests: the flat multivariable fold against the recursive one.

``minors._enumerate_minor_gcd`` expands each k-row subset on its own,
cyclic row windows first, and stops once the running gcd reaches the
floor.  ``enumeration_reference._enumerate_minor_gcd`` keeps the fold it
replaced, a shared-prefix walk in lexicographic order.  Reaching the floor
certifies the gcd in either order, and a fold that never reaches it visits
every subset, so both return the same unit-normal polynomial: on seeded
random matrices, on every multivariable call of ``test_fox_identity.py``
(through the fixture there) and on conjugated arrangements.
"""

import random
from collections import Counter
from itertools import combinations, permutations

import pytest

import alexpoly.minors as minors
from alexpoly.braid import zvk_presentation
from alexpoly.fox import alexander_polynomial
from alexpoly.ring import LaurentPoly, normalize, parse_poly

import enumeration_reference as reference
from test_zvk_differential import arrangement


@pytest.mark.parametrize("m", range(1, 10))
def test_row_subsets_visit_every_subset_once(m):
    for k in range(1, m + 1):
        order = list(minors._row_subsets(m, k))
        assert sorted(order) == list(combinations(range(m), k)), (m, k)
        windows = list(dict.fromkeys(tuple(sorted((o + j) % m for j in range(k)))
                                     for o in range(m)))
        assert order[:len(windows)] == windows, (m, k)


def _random_entry(rng, nvars):
    if rng.random() < 0.3:
        return LaurentPoly.zero(nvars)
    return LaurentPoly(nvars, {tuple(rng.randint(-1, 1) for _ in range(nvars)):
                               rng.choice((-2, -1, 1, 1, 2))
                               for _ in range(rng.randint(1, 2))})


def _random_matrix(rng, nvars, m, n):
    return [tuple(_random_entry(rng, nvars) for _ in range(n)) for _ in range(m)]


def _leibniz(rows, nvars):
    """Determinant of a square matrix by the permutation sum."""
    total = LaurentPoly.zero(nvars)
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        term = LaurentPoly.one(nvars)
        for row, c in zip(rows, perm):
            term = term * row[c]
        total = total - term if inversions % 2 else total + term
    return total


def _row_shift(row, nvars):
    """The monomial exponents _pack shifts a row by: minus its componentwise
    minimum exponent."""
    exps = [e for entry in row for e in entry.terms]
    return tuple(-min((e[i] for e in exps), default=0) for i in range(nvars))


def _packed_minors(rows, nvars):
    """{columns: minor} from the packed Laplace expansion of all rows in
    order, each minor shifted back by the units _pack multiplied in."""
    packed, width = minors._pack(rows, nvars)
    state = {0: {0: 1}}
    for depth, row in enumerate(packed):
        state = minors._expand(state, row, depth)
    unit = tuple(-sum(v) for v in zip(*(_row_shift(r, nvars) for r in rows)))
    return {tuple(c for c in range(len(rows[0])) if cols >> c & 1):
            minors._unpack(det, width, nvars).shift(unit)
            for cols, det in state.items()}


def test_expand_gives_every_minor_with_its_sign():
    # the packed Laplace expansion over the rows of a subset, in order,
    # keyed by column set, against the permutation sum of each k-column
    # submatrix
    rng = random.Random(16)
    for _ in range(40):
        nvars = rng.randint(1, 2)
        k = rng.randint(1, 4)
        rows = _random_matrix(rng, nvars, k, k + rng.randint(0, 2))
        state = _packed_minors(rows, nvars)
        for cols in combinations(range(len(rows[0])), k):
            det = _leibniz([[row[c] for c in cols] for row in rows], nvars)
            assert state.get(cols, LaurentPoly.zero(nvars)) == det, (rows, cols)
            assert cols in state or det.is_zero


def _tight_matrix(rng, nvars, k, n, widest=6):
    """A k x n matrix in nvars variables, n >= k, with negative exponents,
    coefficients other than +-1 and a zero row, whose row maxima after the
    shift sum to exactly 2^w - 1 for its packing width w, a value some
    term of the minor on columns 0..k-1 reaches in variable v.

    Row i spans exponents [lo_i, lo_i + a_i] in every variable.  Its
    diagonal entry holds the one term with exponent lo_i + a_i in v, and
    entry (i, k - 1 - i) the term with exponents lo_i, which fixes the
    shift; the other terms stay below lo_i + a_i in v.  So the diagonal
    product alone reaches sum a_i = 2^w - 1 in v.
    """
    v = rng.randrange(nvars)
    w = rng.randint(2, widest)
    cuts = sorted(rng.randint(0, 2 ** w - 1) for _ in range(k - 1))
    spans = [b - a for a, b in zip([0] + cuts, cuts + [2 ** w - 1])]
    rows = []
    for i, a in enumerate(spans):
        lo = [rng.randint(-3, 2) for _ in range(nvars)]

        def below():
            e = [x + rng.randint(0, a) for x in lo]
            e[v] = lo[v] + rng.randint(0, a - 1) if a else lo[v]
            return tuple(e)

        entries = [{} for _ in range(n)]
        for c in range(n):
            if rng.random() < 0.6:
                for _ in range(rng.randint(1, 2)):
                    entries[c][below()] = rng.choice((1, -2, 3, -5))
        top = list(lo)
        top[v] += a
        entries[i][tuple(top)] = rng.choice((1, -1, 2))
        entries[k - 1 - i][tuple(lo)] = entries[k - 1 - i].get(tuple(lo), 0) + 1
        rows.append(tuple(LaurentPoly(nvars, terms) for terms in entries))
    zero = tuple(LaurentPoly.zero(nvars) for _ in range(n))
    rows.insert(rng.randint(0, k), zero)
    return rows, v, 2 ** w - 1


def test_packing_width_is_tight():
    # every minor comes out right although one of its terms fills a field
    # of the packing width w exactly, with 2^w - 1: a width one bit
    # narrower would carry it into the next field
    rng = random.Random(17)
    for _ in range(60):
        nvars = rng.randint(2, 9)
        k = rng.randint(1, 3)
        rows, v, top = _tight_matrix(rng, nvars, k, k + rng.randint(0, 1))
        live = [r for r in rows if any(not e.is_zero for e in r)]
        got = _packed_minors(live, nvars)
        for cols in combinations(range(len(rows[0])), k):
            det = _leibniz([[row[c] for c in cols] for row in live], nvars)
            assert got.get(cols, LaurentPoly.zero(nvars)) == det, (rows, cols)
        det = got[tuple(range(k))]
        unit = [sum(v) for v in zip(*(_row_shift(r, nvars) for r in live))]
        assert max(e[v] for e in det.terms) + unit[v] == top
        assert top == 2 ** minors._pack(rows, nvars)[1] - 1


def _fed_to_gcd(monkeypatch, module, rows, k, nvars):
    """The multiset of unit-normal minors module's fold hands to gcd; the
    stand-in gcd keeps the running value at zero, so no fold stops early
    and ring.gcd, slow on dense minors in many variables, never runs."""
    fed = Counter()

    def record(running, det):
        fed[normalize(det)] += 1
        return running
    monkeypatch.setattr(module, "gcd", record)
    module._enumerate_minor_gcd(rows, k, nvars)
    return fed


def _tight_rows(rng, nvars, widest):
    # a tight matrix, zero row included, plus up to two random rows, so
    # that m > k and the fold runs through several subsets
    k = rng.randint(1, 3)
    rows, _, _ = _tight_matrix(rng, nvars, k, k + rng.randint(0, 1), widest)
    rows += _random_matrix(rng, nvars, rng.randint(0, 2), len(rows[0]))
    rng.shuffle(rows)
    return rows, k


@pytest.mark.parametrize("nvars", range(2, 10))
def test_packed_fold_folds_the_reference_minors(monkeypatch, nvars):
    # each fold visits every k-row subset once, so both hand gcd the same
    # minors up to units (the packed fold shifts each row by a monomial)
    rng = random.Random(1000 + nvars)
    for _ in range(12):
        rows, k = _tight_rows(rng, nvars, 6)
        assert _fed_to_gcd(monkeypatch, minors, rows, k, nvars) == \
            _fed_to_gcd(monkeypatch, reference, rows, k, nvars), (rows, k)


@pytest.mark.parametrize("nvars", [2, 3])
def test_packed_fold_matches_the_recursive_fold(nvars):
    # the whole fold, ring.gcd included; degrees stay low for its sake
    rng = random.Random(2000 + nvars)
    for _ in range(12):
        rows, k = _tight_rows(rng, nvars, 3)
        assert minors._enumerate_minor_gcd(rows, k, nvars) == \
            reference._enumerate_minor_gcd(rows, k, nvars), (rows, k)


def _shared_factor(rng, nvars):
    """A non-unit polynomial: t_i - 1 or t_i - t_j with i != j."""
    i = rng.randrange(nvars)
    j = (i + 1) % nvars
    return LaurentPoly(nvars, {tuple(int(v == i) for v in range(nvars)): 1,
                               tuple(int(v == j and rng.random() < 0.5)
                                     for v in range(nvars)): -1})


def test_random_matrices_match_the_recursive_fold():
    # m x k and m x (k + 1) matrices, k = 1..3, in two and three variables
    # with floor 1, and with a known floor: a column scaled by f on the square route,
    # two columns on the other, so that every k-minor is a multiple of f.
    # One draw in three multiplies every row by a shared factor, so that
    # no fold reaches the floor and the lexicographic tail runs
    rng = random.Random(20261019)
    tail_runs = 0
    for _ in range(150):
        nvars = rng.randint(2, 3)
        k = rng.randint(1, 3)
        m = k + rng.randint(0, 3)
        n = k + rng.randint(0, 1)
        rows = _random_matrix(rng, nvars, m, n)
        shared = rng.random() < 1 / 3
        if shared:
            g = _shared_factor(rng, nvars)
            rows = [tuple(g * e for e in row) for row in rows]
        floor = None
        if rng.random() < 0.5:
            floor = _shared_factor(rng, nvars)
            scaled = rng.sample(range(n), 2 if n > k else 1)
            rows = [tuple(floor * e if c in scaled else e for c, e in enumerate(row))
                    for row in rows]
        got = minors._enumerate_minor_gcd(rows, k, nvars, floor)
        assert got == reference._enumerate_minor_gcd(rows, k, nvars, floor), \
            (rows, k, floor)
        one = LaurentPoly.one(nvars)
        reached = got == (one if floor is None else normalize(floor))
        tail_runs += not reached and 1 < k < m - 1
    assert tail_runs >= 10


@pytest.fixture
def compared(monkeypatch):
    """Route every multivariable fold through both, asserting that they
    agree; the list collects (rows, columns, k) per call."""
    flat = minors._enumerate_minor_gcd
    calls = []

    def both(rows, k, nvars, floor=None):
        got = flat(rows, k, nvars, floor)
        assert got == reference._enumerate_minor_gcd(rows, k, nvars, floor), \
            (rows, k, floor)
        calls.append((len(rows), len(rows[0]), k))
        return got
    monkeypatch.setattr(minors, "_enumerate_minor_gcd", both)
    return calls


@pytest.mark.parametrize("projective", [False, True])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_conjugated_arrangements(compared, n, seed, projective):
    f = arrangement(n, seed)
    pres, phi = zvk_presentation(f, projective=projective or None)
    alexander_polynomial(pres, phi)
    assert compared


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", range(5, 13))
def test_arrangement_fold_stops_within_n_gcds(monkeypatch, n, seed):
    # the affine Fox matrix of a generic n-line arrangement, conjugated
    # for seeds 1 and 2: the windows reach the floor after n - 2 gcd
    # calls, where the lexicographic fold makes 21 at n = 5 and thousands
    # at n = 7
    calls = []
    ring_gcd = minors.gcd

    def counted(a, b):
        calls.append(None)
        return ring_gcd(a, b)
    monkeypatch.setattr(minors, "gcd", counted)
    pres, phi = zvk_presentation(arrangement(n, seed))
    assert alexander_polynomial(pres, phi) == LaurentPoly.one(phi.rank)
    assert 0 < len(calls) <= n


@pytest.mark.parametrize("nvars", [2, 3])
def test_row_made_a_unit_multiple_by_contraction_is_dropped(monkeypatch, nvars):
    # no two rows are unit multiples of each other, but clearing column 0
    # with the pivot 1 leaves the third row -3 t0 t1^-1 times the second:
    # the fold sees two rows, and the gcd is that of every minor
    def row(*texts):
        return tuple(parse_poly(text, nvars=nvars) for text in texts)
    rows = [row("1", "0", "0"),
            row("t0", "t0 - t1", "t1^2 + t0"),
            row("1 + t1", "-3*t0^2*t1^-1 + 3*t0", "-3*t0*t1 - 3*t0^2*t1^-1"),
            row("0", "t0^2 + 1", f"t{nvars - 1} + 2")]

    def drop(rows):
        return minors._drop_unit_multiples(rows, minors._term_counts,
                                           minors._terms_key)
    assert drop(rows) == rows
    assert drop(minors._contract(rows, 0, 0)) == \
        [row("t0 - t1", "t1^2 + t0"), row("t0^2 + 1", f"t{nvars - 1} + 2")]
    fold = minors._enumerate_minor_gcd
    heights = []

    def recording(rows, k, nvars, floor=None):
        heights.append(len(rows))
        return fold(rows, k, nvars, floor)
    monkeypatch.setattr(minors, "_enumerate_minor_gcd", recording)
    for k in (1, 2, 3):
        assert minors.minor_gcd(rows, k, nvars) == \
            reference._enumerate_minor_gcd(rows, k, nvars)
    assert heights == [2, 2]
