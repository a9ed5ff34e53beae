"""Exact certification of every dataset bundled under data/.

Each curve dataset carries a braid monodromy factorization and the curve
topology; the tests recompute everything from scratch and compare with
frozen values.  The sextic factorization was produced numerically
(scripts/derive_sextic_monodromy.py), so its checks are the exact
re-certification of that numeric step.
"""

import json
import pathlib

import pytest

from alexpoly.braid import (BraidWord, factor_orbits,
                            factorization_from_json, full_twist, braid_equal,
                            validate_factorization, zvk_presentation)
from alexpoly.curve import curve_from_json, first_betti
from alexpoly.fox import alexander_one_variable
from alexpoly.group import Presentation
from alexpoly.linkpoly import hat_delta, link_from_json
from alexpoly.ring import equal_up_to_units, normalize, parse_poly, poly_to_str
from alexpoly.verify import run_verification

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

CURVE_SETS = ["two_lines", "three_lines", "conic_line", "nodal_cubic",
              "cuspidal_cubic", "zariski_sextic"]

EXPECTED_DELTA = {
    "two_lines": "t - 1",
    "three_lines": "t^2 - 2*t + 1",
    "conic_line": "1",
    "nodal_cubic": "1",
    "cuspidal_cubic": "1",
    "zariski_sextic": "t^2 - t + 1",
}


def load_factorization(name):
    with open(DATA / name / "factorization.json", encoding="utf-8") as fh:
        return factorization_from_json(json.load(fh))


def load_curve(name):
    with open(DATA / name / "curve.json", encoding="utf-8") as fh:
        return curve_from_json(json.load(fh))


def dataset_delta(name):
    pres, phi = zvk_presentation(load_factorization(name))
    return alexander_one_variable(pres, phi)


@pytest.mark.parametrize("name", CURVE_SETS)
def test_factorization_product_is_full_twist(name):
    fact = load_factorization(name)
    validate_factorization(fact)
    assert braid_equal(fact.product(), full_twist(fact.strands))


@pytest.mark.parametrize("name", CURVE_SETS)
def test_alexander_polynomial_frozen(name):
    delta = dataset_delta(name)
    assert delta == normalize(parse_poly(EXPECTED_DELTA[name])), poly_to_str(delta)


@pytest.mark.parametrize("name", CURVE_SETS)
def test_orbits_match_curve_components(name):
    fact = load_factorization(name)
    curve = load_curve(name)
    assert len(factor_orbits(fact)) == curve.n_curve_components


@pytest.mark.parametrize("name", CURVE_SETS)
def test_verification_report_passes(name):
    report = run_verification(load_curve(name), dataset_delta(name))
    assert report.ok, report.to_text()


def test_sextic_factor_shapes():
    # six cusp factors (conjugates of a generator cubed) and twelve
    # tangency factors (conjugates of a generator), in explicit
    # w s^m w^-1 form, with total exponent thirty
    fact = load_factorization("zariski_sextic")
    assert fact.strands == 6 and len(fact.factors) == 18
    exponents = []
    for word in fact.factors:
        core = split_conjugate(list(word.letters))
        assert len(set(core)) == 1 and core[0] > 0
        exponents.append(len(core))
    assert sorted(exponents) == [1] * 12 + [3] * 6
    assert sum(sum(1 if v > 0 else -1 for v in w.letters) for w in fact.factors) == 30


def split_conjugate(letters):
    """Strip the maximal w ... w^-1 wrapping and return the core."""
    n = len(letters)
    k = 0
    while k < n // 2 and letters[n - 1 - k] == -letters[k]:
        k += 1
    return letters[k:n - k]


def test_sextic_betti_number():
    assert first_betti(load_curve("zariski_sextic")) == 13


def test_sextic_presentation_rank():
    pres, phi = zvk_presentation(load_factorization("zariski_sextic"))
    assert isinstance(pres, Presentation)
    assert phi.rank == 1 and phi.images == ((1,),) * pres.n


TORUS_HATS = {
    "t22": "t - 1",
    "t33": "t^2 - 2*t + 1",
    "t44": "t^3 - 3*t^2 + 3*t - 1",
    "t55": "t^4 - 4*t^3 + 6*t^2 - 4*t + 1",
}


@pytest.mark.parametrize("name", sorted(TORUS_HATS))
def test_torus_links_round_trip_and_hat(name):
    with open(DATA / "torus" / f"{name}.json", encoding="utf-8") as fh:
        obj = json.load(fh)
    link = link_from_json(obj)
    assert link.braid == BraidWord(obj["braid"]["strands"],
                                   tuple(obj["braid"]["word"]))
    assert link.colours == {int(k) - 1: v for k, v in obj["colours"].items()}
    assert (link.marked, link.degree) == (obj["marked"] - 1, obj["degree"])
    # hat_delta cross-checks its two computation paths internally
    assert equal_up_to_units(hat_delta(link), parse_poly(TORUS_HATS[name]))
