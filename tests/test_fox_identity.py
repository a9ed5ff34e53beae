"""Fox's fundamental identity in ``alexander_polynomial`` against every column.

When phi kills every relator, sum_j phi(dr/dx_j) (phi(x_j) - 1) = 0 for
each relator r, so ``alexander_polynomial`` takes the gcd of the minors
that omit one column j0 and rescales it by gcd(u) / u_j0, where
u_j = phi(x_j) - 1.  Here it is compared with ``minor_gcd`` over every
column of the same Fox matrix, by ``==`` on the unit-normal results, on
random closures, random presentations with relators in the commutator
subgroup, and ZvK presentations; and the route it takes is checked by
the number of columns handed to ``minor_gcd``.  Every multivariable fold
on the way is also checked against the recursive reference fold.
"""

import random

import pytest

import alexpoly.fox
from alexpoly.braid import BraidWord, closure_presentation, strand_components, \
    zvk_presentation
from alexpoly.fox import _floor, alexander_polynomial, fox_matrix
from alexpoly.group import AbelMap, Presentation, Word
from alexpoly.minors import minor_gcd
from alexpoly.ring import LaurentPoly, exact_divide, gcd_many, normalize

from test_enumeration_differential import compared  # noqa: F401 (fixture)
from test_zvk_differential import SHIPPED, arrangement, hurwitz_move, shipped

pytestmark = pytest.mark.usefixtures("compared")


@pytest.fixture
def routes(monkeypatch):
    """Column counts of the Fox matrices passed to minor_gcd, in order."""
    seen = []

    def spy(rows, k, nvars, floor=None):
        seen.append(len(rows[0]))
        return minor_gcd(rows, k, nvars, floor)

    monkeypatch.setattr(alexpoly.fox, "minor_gcd", spy)
    return seen


def kills_every_relator(pres, phi):
    return all(not any(phi(r)) for r in pres.relators)


def compare(pres, phi, routes, omitted):
    """alexander_polynomial against the all-columns minor gcd; omitted
    says whether one column must have been left out."""
    del routes[:]
    got = alexander_polynomial(pres, phi)
    want = minor_gcd(fox_matrix(pres, phi), pres.n - 1, phi.rank)
    assert got == want, (pres, phi)
    if pres.n > 1 and pres.m >= pres.n - 1:
        assert routes == [pres.n - 1 if omitted else pres.n]
    return got


def random_image(rng, rank):
    """Images with entries in -3..3: non-primitive ones such as (2, -3)
    and ones sharing a variable with others are both common."""
    return tuple(rng.choice((-3, -1, 0, 1, 1, 2)) for _ in range(rank))


def component_phi(braid, images_by_component):
    base_of = {s: min(c) for c in strand_components(braid) for s in c}
    rank = len(next(iter(images_by_component.values())))
    return AbelMap(rank, tuple(images_by_component[base_of[s]]
                               for s in range(braid.strands)))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_floor_matches_polynomial_gcd(rank):
    # half the draws are multiples of one vector, so that gcd(u) != 1
    rng = random.Random(rank)
    origin = (0,) * rank
    for _ in range(150):
        base = random_image(rng, rank)
        if not any(base):
            continue
        if rng.random() < 0.5:
            images = [tuple(m * v for v in base)
                      for m in rng.sample((-4, -3, -2, -1, 1, 2, 3, 4, 6), 3)]
        else:
            images = [base] + [random_image(rng, rank) for _ in range(2)]
        images = [a for a in dict.fromkeys(images) if any(a)]
        u = [LaurentPoly(rank, {a: 1, origin: -1}) for a in images]
        want = normalize(exact_divide(u[0], gcd_many(u)))
        assert normalize(_floor(images)) == want, images


# ---------------------------------------------------------------------------
# random closures


def random_braid(rng):
    strands = rng.randint(2, 5)
    length = rng.randint(strands, 3 * strands)
    return BraidWord(strands, tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                                    for _ in range(length)))


@pytest.mark.parametrize("seed", range(6))
def test_closures_with_repeated_colours(seed, routes):
    # two colours over up to five components, one variable per colour
    rng = random.Random(seed)
    for _ in range(15):
        braid = random_braid(rng)
        comps = strand_components(braid)
        colours = {min(c): rng.randint(0, 1) for c in comps}
        phi = component_phi(braid, {b: (1, 0) if c == 0 else (0, 1)
                                    for b, c in colours.items()})
        pres = closure_presentation(braid)
        compare(pres, phi, routes, omitted=True)
        compare(pres, AbelMap.constant_one(braid.strands), routes, omitted=True)


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_closures_with_arbitrary_images(rank, seed, routes):
    # each component gets an image in Z^rank, zero vectors included; the
    # omitted column is the strand of least nonzero image
    rng = random.Random(100 * rank + seed)
    for _ in range(12):
        braid = random_braid(rng)
        images = {min(c): random_image(rng, rank) for c in strand_components(braid)}
        phi = component_phi(braid, images)
        pres = closure_presentation(braid)
        compare(pres, phi, routes, omitted=any(any(v) for v in phi.images))


def test_hat_weights(routes):
    # the weighted map of the hat invariant: (-d) on the marked component
    pres = closure_presentation(BraidWord(3, (1, 2) * 3))
    for d in (1, 2, 5):
        compare(pres, AbelMap(1, ((-d,), (1,), (1,))), routes, omitted=True)


# ---------------------------------------------------------------------------
# random presentations whose relators lie in the commutator subgroup


def random_word(rng, n, length):
    return Word([(rng.randrange(n), rng.choice((1, -1, 2)))
                 for _ in range(length)])


def commutator_presentation(rng, n):
    relators = []
    for _ in range(rng.randint(n - 1, n + 1)):
        a, b = random_word(rng, n, rng.randint(1, 2)), random_word(rng, n, 2)
        relators.append(a * b * a.inverse() * b.inverse())
    return Presentation(tuple("xyzw"[:n]), tuple(relators))


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_commutator_relators(rank, seed, routes):
    # every phi kills a commutator, so any images will do
    rng = random.Random(1000 * rank + seed)
    for _ in range(10):
        pres = commutator_presentation(rng, rng.randint(2, 4))
        phi = AbelMap(rank, tuple(random_image(rng, rank) for _ in range(pres.n)))
        compare(pres, phi, routes, omitted=any(any(v) for v in phi.images))


# ---------------------------------------------------------------------------
# Zariski-van Kampen presentations


def compare_zvk(f, routes):
    pres, phi = zvk_presentation(f)
    assert kills_every_relator(pres, phi)
    compare(pres, phi, routes, omitted=True)
    compare(pres, phi.composed_to_one(), routes, omitted=True)


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_factorizations(name, routes):
    compare_zvk(shipped(name, False), routes)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n", [3, 4])
def test_conjugated_arrangements(n, seed, routes):
    compare_zvk(arrangement(n, seed), routes)


@pytest.mark.parametrize("name", ["nodal_cubic", "cuspidal_cubic",
                                  "zariski_sextic"])
def test_hurwitz_moved_factorizations(name, routes):
    f = shipped(name, False)
    for i in (0, len(f.factors) // 2, len(f.factors) - 2):
        compare_zvk(hurwitz_move(f, i), routes)


# ---------------------------------------------------------------------------
# the all-columns route


@pytest.mark.parametrize("name", SHIPPED)
def test_projective_product_relator_takes_every_column(name, routes):
    # phi sends x_1 ... x_d to the curve degree, not 0
    pres, phi = zvk_presentation(shipped(name, True))
    assert not kills_every_relator(pres, phi)
    compare(pres, phi, routes, omitted=False)
    compare(pres, phi.composed_to_one(), routes, omitted=False)


def test_relator_not_killed_takes_every_column(routes):
    # trefoil group <x, y | xyx = yxy> with x -> t, y -> t^2: the relator
    # maps to t^-1
    x, y = Word([(0, 1)]), Word([(1, 1)])
    pres = Presentation(("x", "y"), (x * y * x * (y * x * y).inverse(),))
    phi = AbelMap(1, ((1,), (2,)))
    assert not kills_every_relator(pres, phi)
    compare(pres, phi, routes, omitted=False)


@pytest.mark.parametrize("seed", range(3))
def test_zero_map_takes_every_column(seed, routes):
    # phi = 0 kills every relator but every u_j = phi(x_j) - 1 is 0
    rng = random.Random(seed)
    for _ in range(10):
        braid = random_braid(rng)
        pres = closure_presentation(braid)
        for rank in (1, 2):
            phi = AbelMap(rank, ((0,) * rank,) * braid.strands)
            compare(pres, phi, routes, omitted=False)
