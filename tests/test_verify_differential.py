"""Shared local data against checks that derive it for themselves.

``run_verification`` computes the hat invariant of each distinct
singularity link once, the boundary product once and the cyclotomic
factorization of the invariant once.  The reference in
``verify_reference.py`` lets every check recompute them.  Both reports
must agree byte for byte, in text and JSON, on the shipped curves, on
generic line arrangements and on seeded random curves built from
torus-type local links.  The sharing rests on ``hat_delta`` not seeing
how nonzero colours are named, which is checked on random links.
"""

import json
import pathlib
import random

import pytest

from alexpoly.braid import (BraidWord, factorization_from_json,
                            strand_components, zvk_presentation)
from alexpoly.curve import (CurveComponent, CurveData, Singularity,
                            curve_from_json, first_betti)
from alexpoly.fox import alexander_one_variable
from alexpoly.group import load_json_file
from alexpoly.linkpoly import MarkedLink, hat_delta, multivariable_delta
from alexpoly.ring import LaurentPoly, normalize, parse_poly, poly_to_str
from alexpoly.verify import run_verification

import verify_reference
from verify_reference import arrangement_curve

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

SHIPPED = ["two_lines", "three_lines", "conic_line", "nodal_cubic",
           "cuspidal_cubic", "zariski_sextic"]


def t_minus_1_power(k: int) -> LaurentPoly:
    return normalize(LaurentPoly.univariate({0: -1, 1: 1}) ** k)


DELTAS = [parse_poly(text) for text in
          ("0", "1", "t - 1", poly_to_str(t_minus_1_power(3)), "t^2 + 1",
           "t^4 - 2*t^3 + 2*t^2 - 2*t + 1")]


def assert_same_report(curve: CurveData, delta: LaurentPoly) -> None:
    expected = verify_reference.run_verification(curve, delta)
    report = run_verification(curve, delta)
    assert report.to_text() == expected.to_text()
    assert json.dumps(report.to_json(), sort_keys=True) == \
        json.dumps(expected.to_json(), sort_keys=True)


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_curves(name):
    curve = curve_from_json(load_json_file(str(DATA / name / "curve.json")))
    fact = factorization_from_json(
        load_json_file(str(DATA / name / "factorization.json")))
    for delta in [alexander_one_variable(*zvk_presentation(fact))] + DELTAS:
        assert_same_report(curve, delta)


@pytest.mark.parametrize("n", range(3, 11))
def test_line_arrangements(n):
    curve = curve_from_json(arrangement_curve(n))
    for delta in (t_minus_1_power(n - 1), t_minus_1_power(n), DELTAS[4]):
        assert_same_report(curve, delta)


def torus_type_link(rng: random.Random, colours: list[int],
                    degree: int | None) -> MarkedLink:
    """Closure of (s_1 ... s_{k-1})^m with random colours from
    ``colours``; with a degree, one component is marked with colour 0."""
    while True:
        strands = rng.randint(2, 3)
        braid = BraidWord(strands, tuple(range(1, strands)) * rng.randint(1, 4))
        bases = sorted(min(c) for c in strand_components(braid))
        if degree is None or len(bases) >= 2:
            break
    colour_of = {b: rng.choice(colours) for b in bases}
    if degree is None:
        return MarkedLink(braid, colour_of)
    marked = rng.choice(bases)
    colour_of[marked] = 0
    return MarkedLink(braid, colour_of, marked=marked, degree=degree)


def random_curve(rng: random.Random) -> CurveData:
    degrees = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    colours = list(range(1, len(degrees) + 1))
    components = (CurveComponent("L", 1, 0),) + tuple(
        CurveComponent(f"C{i}", d, rng.randint(0, 1))
        for i, d in zip(colours, degrees))
    sings = [Singularity(torus_type_link(rng, colours, None), False)
             for _ in range(rng.randint(0, 4))]
    sings += [Singularity(torus_type_link(rng, colours, sum(degrees)), True)
              for _ in range(rng.randint(0, 3))]
    rng.shuffle(sings)
    return CurveData(components, tuple(sings))


@pytest.mark.parametrize("seed", range(4))
def test_random_torus_type_curves(seed):
    rng = random.Random(7100 + seed)
    compared = 0
    while compared < 10:
        curve = random_curve(rng)
        # a negative b_1 means the divisor is not connected, which no
        # plane curve is; the reference ledger raises TypeError on a zero
        # boundary product
        if first_betti(curve) < 0 or \
                verify_reference.boundary_delta(curve).is_zero:
            continue
        for delta in rng.sample(DELTAS, 2):
            assert_same_report(curve, delta)
        compared += 1


def random_link(rng: random.Random, marked: bool) -> MarkedLink:
    while True:
        strands = rng.randint(2, 4)
        letters = tuple(rng.choice([-1, 1]) * rng.randint(1, strands - 1)
                        for _ in range(rng.randint(0, 8)))
        braid = BraidWord(strands, letters)
        bases = sorted(min(c) for c in strand_components(braid))
        if not marked or len(bases) >= 2:
            break
    colour_of = {b: rng.randint(1, 3) for b in bases}
    if not marked:
        return MarkedLink(braid, colour_of)
    base = rng.choice(bases)
    colour_of[base] = 0
    return MarkedLink(braid, colour_of, marked=base, degree=rng.randint(1, 5))


@pytest.mark.parametrize("marked", [False, True])
def test_hat_ignores_names_of_nonzero_colours(marked):
    rng = random.Random(7200 + marked)
    for _ in range(40):
        link = random_link(rng, marked)
        used = sorted({c for c in link.colours.values() if c})
        rename = dict(zip(used, rng.sample(range(1, 10), len(used))))
        renamed = MarkedLink(link.braid,
                             {b: rename.get(c, 0) for b, c in link.colours.items()},
                             marked=link.marked, degree=link.degree)
        assert hat_delta(renamed) == hat_delta(link)
        if link.n_colours() >= 2:
            assert multivariable_delta(renamed) == multivariable_delta(link)
