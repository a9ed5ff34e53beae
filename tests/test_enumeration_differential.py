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
from itertools import combinations, permutations

import pytest

import alexpoly.minors as minors
from alexpoly.braid import zvk_presentation
from alexpoly.fox import alexander_polynomial
from alexpoly.ring import LaurentPoly, normalize

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


def test_expand_gives_every_minor_with_its_sign():
    # the Laplace expansion over the rows of a subset, in order, keyed by
    # column set, against the permutation sum of each k-column submatrix
    rng = random.Random(16)
    for _ in range(40):
        nvars = rng.randint(1, 2)
        k = rng.randint(1, 4)
        rows = _random_matrix(rng, nvars, k, k + rng.randint(0, 2))
        state = {(): LaurentPoly.one(nvars)}
        for depth, row in enumerate(rows):
            state = minors._expand(state, row, depth)
        for cols in combinations(range(len(rows[0])), k):
            det = _leibniz([[row[c] for c in cols] for row in rows], nvars)
            assert state.get(cols, LaurentPoly.zero(nvars)) == det, (rows, cols)
            assert cols in state or det.is_zero


def _shared_factor(rng, nvars):
    """A non-unit polynomial: t_i - 1 or t_i - t_j with i != j."""
    i = rng.randrange(nvars)
    j = (i + 1) % nvars
    return LaurentPoly(nvars, {tuple(int(v == i) for v in range(nvars)): 1,
                               tuple(int(v == j and rng.random() < 0.5)
                                     for v in range(nvars)): -1})


def test_random_matrices_match_the_recursive_fold():
    # m x k and m x (k + 1) matrices in two and three variables with floor
    # 1, and with a known floor: a column scaled by f on the square route,
    # two columns on the other, so that every k-minor is a multiple of f.
    # One draw in three multiplies every row by a shared factor, so that
    # no fold reaches the floor and the lexicographic tail runs.  Three
    # variables stop at k = 2: ring.gcd takes seconds on some of their
    # 3 x 3 minors
    rng = random.Random(20261019)
    tail_runs = 0
    for _ in range(150):
        nvars = rng.randint(2, 3)
        k = rng.randint(1, 5 - nvars)
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
