"""The column that ``alexander_polynomial`` omits, and its test of phi(r).

When phi kills every relator, the minors omitting any column j0 with
u_j0 = phi(x_j0) - 1 != 0 give the Alexander polynomial once divided by
u_j0 / gcd(u).  ``alexander_polynomial`` omits the column of least
nonzero image, so that in one variable that factor is a unit whenever
some |phi(x_j)| is gcd(phi), and it decides whether phi kills every
relator from the Fox rows, phi(r) = sum_j eps(row_j) phi(x_j).  Here the
result is compared with the every-column minor gcd and with the route
through every other admissible column, recomputed from ``fox_matrix``,
``_floor`` and ``minor_gcd``; the row test with phi applied to each
relator; and the weighted T(d,d) links and a commutator with one large
image with their closed forms.
"""

import math
import random

import pytest

import alexpoly.fox
from alexpoly.braid import BraidWord, closure_presentation, full_twist, zvk_presentation
from alexpoly.fox import _floor, _kills_every_relator, alexander_polynomial, \
    fox_matrix
from alexpoly.group import AbelMap, Presentation, Word
from alexpoly.linkpoly import _colour_phi, hat_delta, marked_torus_link
from alexpoly.minors import minor_gcd
from alexpoly.ring import LaurentPoly, equal_up_to_units, exact_divide, \
    normalize, parse_poly

from test_zvk_differential import SHIPPED, shipped


def kills_every_relator(pres, phi):
    return all(not any(phi(r)) for r in pres.relators)


def every_column(pres, phi):
    return normalize(minor_gcd(fox_matrix(pres, phi), pres.n - 1, phi.rank))


def omitting(pres, phi, j0):
    """The gcd of the minors omitting column j0, divided by
    u_j0 / gcd(u)."""
    rows = fox_matrix(pres, phi)
    a0 = phi.images[j0]
    others = [a for a in dict.fromkeys(phi.images) if any(a) and a != a0]
    floor = _floor([a0] + others)
    reduced = minor_gcd([row[:j0] + row[j0 + 1:] for row in rows],
                        pres.n - 1, phi.rank, floor=floor)
    quotient = exact_divide(reduced, floor)
    assert quotient is not None, (pres, phi, j0)
    return normalize(quotient)


# ---------------------------------------------------------------------------
# random presentations


def random_word(rng, n, length):
    return Word([(rng.randrange(n), rng.choice((1, -1, 2))) for _ in range(length)])


def kernel_word(rng, images):
    """A word x_i^p x_j^q (x_k^s) that phi kills: (p, q) = (a_j, -a_i) / g
    in one variable, (p, q, s) a cross product in two."""
    n, rank = len(images), len(images[0])
    if rank == 1 or n < 3:
        i, j = rng.sample(range(n), 2)
        if rank == 1:
            p, q = images[j][0], -images[i][0]
            g = math.gcd(p, q) or 1
            return Word([(i, p // g), (j, q // g)])
        return Word()
    i, j, k = rng.sample(range(n), 3)
    (a, b), (c, d), (e, f) = images[i], images[j], images[k]
    return Word([(i, c * f - e * d), (j, e * b - a * f), (k, a * d - c * b)])


def random_case(rng, kill):
    # two variables stop at four generators: the cross products of five
    # make entries whose gcds run for seconds
    rank = rng.choice((1, 1, 2))
    n = rng.randint(2, 6 - rank)
    images = tuple(tuple(rng.choice((-3, -2, -1, 0, 1, 1, 2, 3))
                         for _ in range(rank)) for _ in range(n))
    relators = []
    for _ in range(rng.randint(n - 1, n)):
        if kill:
            u, v, w = (random_word(rng, n, rng.randint(1, 2)) for _ in range(3))
            parts = [u * kernel_word(rng, images) * u.inverse(),
                     v * w * v.inverse() * w.inverse()]
            rng.shuffle(parts)
            relators.append(parts[0] * parts[1])
        else:
            relators.append(random_word(rng, n, rng.randint(2, 5)))
    return Presentation(tuple(f"x{i}" for i in range(n)), tuple(relators)), \
        AbelMap(rank, images)


@pytest.mark.parametrize("seed", range(8))
def test_random_presentations(seed):
    rng = random.Random(3100 + seed)
    seen = {True: 0, False: 0}
    for case in range(24):
        pres, phi = random_case(rng, kill=case % 2 == 0)
        kills = kills_every_relator(pres, phi)
        seen[kills] += 1
        assert _kills_every_relator(fox_matrix(pres, phi), phi.images) == kills
        got = alexander_polynomial(pres, phi)
        assert got == every_column(pres, phi), (pres, phi)
        if kills and pres.m >= pres.n - 1:
            for j0, image in enumerate(phi.images):
                if any(image):
                    assert omitting(pres, phi, j0) == got, (pres, phi, j0)
    assert seen[True] >= 10 and seen[False] >= 10


@pytest.mark.parametrize("seed", range(4))
def test_least_image_is_omitted(seed, monkeypatch):
    # the column handed over is the one of least L1 norm, the first on
    # ties, and its image comes first in the floor
    rng = random.Random(3200 + seed)
    seen = []

    def spy(rows, k, nvars, floor=None):
        seen.append((len(rows[0]), floor))
        return minor_gcd(rows, k, nvars, floor)

    monkeypatch.setattr(alexpoly.fox, "minor_gcd", spy)
    for _ in range(20):
        pres, phi = random_case(rng, kill=True)
        if pres.m < pres.n - 1 or not any(map(any, phi.images)):
            continue
        del seen[:]
        alexander_polynomial(pres, phi)
        norms = [sum(map(abs, a)) or math.inf for a in phi.images]
        j0 = norms.index(min(norms))
        others = [a for a in dict.fromkeys(phi.images) if any(a) and a != phi.images[j0]]
        assert seen == [(pres.n - 1, _floor([phi.images[j0]] + others))]


# ---------------------------------------------------------------------------
# the row test of phi(r) on ZvK presentations and hats


@pytest.mark.parametrize("projective", [False, True])
@pytest.mark.parametrize("name", SHIPPED)
def test_row_test_on_zvk_presentations(name, projective):
    pres, phi = zvk_presentation(shipped(name, projective))
    for psi in (phi, phi.composed_to_one()):
        rows = fox_matrix(pres, psi)
        assert _kills_every_relator(rows, psi.images) \
            == kills_every_relator(pres, psi) == (not projective)


@pytest.mark.parametrize("d", range(2, 8))
def test_row_test_on_hats(d):
    link = marked_torus_link(d, d + 1)
    pres = closure_presentation(link.braid)
    weighted = AbelMap(1, ((-(d + 1),),) + ((1,),) * (d - 1))
    for phi in (weighted, _colour_phi(link), AbelMap(1, ((2,),) * d)):
        rows = fox_matrix(pres, phi)
        assert _kills_every_relator(rows, phi.images)
        assert kills_every_relator(pres, phi)


def test_row_test_on_a_map_that_leaves_a_relator():
    # the trefoil closure has one component, so x1 -> t, x2 -> t^2 is not
    # a homomorphism of its group
    pres = closure_presentation(BraidWord(2, (1, 1, 1)))
    phi = AbelMap(1, ((1,), (2,)))
    assert not _kills_every_relator(fox_matrix(pres, phi), phi.images)
    assert not kills_every_relator(pres, phi)


# ---------------------------------------------------------------------------
# closed forms


@pytest.mark.parametrize("d", range(3, 13))
def test_marked_torus_links(d, monkeypatch):
    # strand 1 marked at degree d + 1: (1 - t)(t^-2 - 1)^(d-2) up to units,
    # with a unit floor and no division after the minor gcd
    monkeypatch.setattr(alexpoly.fox, "exact_divide", None)
    pres = closure_presentation(full_twist(d))
    phi = AbelMap(1, ((-(d + 1),),) + ((1,),) * (d - 1))
    want = parse_poly("1 - t") * parse_poly("t^-2 - 1") ** (d - 2)
    assert equal_up_to_units(alexander_polynomial(pres, phi), want)


@pytest.mark.parametrize("d", [3, 5])
def test_marked_torus_link_hats(d):
    want = parse_poly("1 - t") * parse_poly("t^-2 - 1") ** (d - 2)
    assert equal_up_to_units(hat_delta(marked_torus_link(d, d + 1)), want)


@pytest.mark.parametrize("order", [0, 1])
def test_commutator_with_a_large_image(order, monkeypatch):
    # <x, y | [x, y]> with x -> t^250000, y -> t: omitting y, the floor is
    # 1 instead of a 250,000-term polynomial
    floors = []

    def spy(rows, k, nvars, floor=None):
        floors.append(floor)
        return minor_gcd(rows, k, nvars, floor)

    monkeypatch.setattr(alexpoly.fox, "minor_gcd", spy)
    x, y = Word([(order, 1)]), Word([(1 - order, 1)])
    pres = Presentation(("a", "b"), (x * y * x.inverse() * y.inverse(),))
    images = [None, None]
    images[order], images[1 - order] = (250000,), (1,)
    got = alexander_polynomial(pres, AbelMap(1, tuple(images)))
    assert [len(f.terms) for f in floors] == [1]
    assert got == parse_poly("t - 1")
    assert floors[0] == LaurentPoly.one(1)
