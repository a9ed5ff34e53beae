"""Tests for curve data, Euler characteristics, and the boundary polynomial."""

import json
import pathlib

import pytest

from alexpoly.braid import BraidWord
from alexpoly.curve import (
    AffineCounts,
    CurveComponent,
    CurveData,
    Singularity,
    affine_counts,
    boundary_delta,
    boundary_factors,
    curve_from_json,
    euler_characteristic,
    first_betti,
    local_deltas,
)
from alexpoly.errors import InputError
from alexpoly.linkpoly import MarkedLink
from alexpoly.ring import LaurentPoly, cyclotomic_polynomial, normalize, parse_poly


DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def P(text):
    return parse_poly(text)


def shipped_curve_json(name):
    return json.loads((DATA / name / "curve.json").read_text("utf-8"))


def boundary_of(curve):
    return boundary_delta(curve, local_deltas(curve))


def line(name="L"):
    return CurveComponent(name, 1, 0)


def transverse_point(colour, degree):
    """Smooth branch of a component crossing the line transversely."""
    link = MarkedLink(BraidWord(2, (1, 1)), {0: 0, 1: colour},
                      marked=0, degree=degree)
    return Singularity(link, on_L=True)


def node(colour_a, colour_b):
    link = MarkedLink(BraidWord(2, (1, 1)), {0: colour_a, 1: colour_b})
    return Singularity(link, on_L=False)


def cusp(colour):
    link = MarkedLink(BraidWord(2, (1, 1, 1)), {0: colour})
    return Singularity(link, on_L=False)


def two_lines_curve():
    return CurveData(
        (line(), CurveComponent("A", 1, 0), CurveComponent("B", 1, 0)),
        (node(1, 2), transverse_point(1, 2), transverse_point(2, 2)))


def conic_curve():
    return CurveData(
        (line(), CurveComponent("conic", 2, 0)),
        (transverse_point(1, 2), transverse_point(1, 2)))


def nodal_cubic_curve():
    return CurveData(
        (line(), CurveComponent("cubic", 3, 0)),
        (node(1, 1),
         transverse_point(1, 3), transverse_point(1, 3), transverse_point(1, 3)))


def cuspidal_sextic_curve():
    sings = tuple(cusp(1) for _ in range(6)) + \
        tuple(transverse_point(1, 6) for _ in range(6))
    return CurveData((line(), CurveComponent("sextic", 6, 4)), sings)


# ---------------------------------------------------------------------------
# validation


def test_component_validation():
    with pytest.raises(ValueError):
        CurveComponent("bad", 0, 0)
    with pytest.raises(ValueError):
        CurveComponent("bad", 2, -1)


def test_curve_validation():
    with pytest.raises(ValueError):
        CurveData((line(),), ())  # no curve component
    with pytest.raises(ValueError):
        CurveData((CurveComponent("L", 2, 0), line("C")), ())
    # colour names a missing component
    with pytest.raises(ValueError):
        CurveData((line(), CurveComponent("C", 2, 0)), (node(1, 5),))
    # on_L flag must match the colour-0 branch
    with pytest.raises(ValueError):
        CurveData((line(), CurveComponent("C", 2, 0)),
                  (Singularity(MarkedLink(BraidWord(2, (1, 1)), {0: 0, 1: 1},
                                          marked=0, degree=2), on_L=False),))
    with pytest.raises(ValueError):
        CurveData((line(), CurveComponent("C", 2, 0)),
                  (Singularity(MarkedLink(BraidWord(2, (1, 1)), {0: 1, 1: 1}),
                               on_L=True),))
    # marked link degree must equal the curve degree
    with pytest.raises(ValueError):
        CurveData((line(), CurveComponent("C", 3, 0)),
                  (transverse_point(1, 2),))
    # on-L point whose link is not marked
    bad = MarkedLink(BraidWord(2, (1, 1)), {0: 0, 1: 1})
    with pytest.raises(ValueError):
        CurveData((line(), CurveComponent("C", 2, 0)),
                  (Singularity(bad, on_L=True),))


def test_degree_and_component_count():
    curve = two_lines_curve()
    assert curve.degree == 2
    assert curve.n_curve_components == 2
    assert len(curve.on_line()) == 2
    assert len(curve.off_line()) == 1


# ---------------------------------------------------------------------------
# topology of the divisor


def test_euler_characteristics():
    assert euler_characteristic(conic_curve(), include_L=True) == 2
    assert euler_characteristic(conic_curve(), include_L=False) == 2
    assert euler_characteristic(two_lines_curve(), include_L=True) == 3
    assert euler_characteristic(two_lines_curve(), include_L=False) == 3
    assert euler_characteristic(nodal_cubic_curve(), include_L=True) == 0
    assert euler_characteristic(nodal_cubic_curve(), include_L=False) == 1


def test_first_betti_numbers():
    assert first_betti(conic_curve()) == 1
    assert first_betti(two_lines_curve()) == 1
    assert first_betti(nodal_cubic_curve()) == 3
    assert first_betti(cuspidal_sextic_curve()) == 13


def test_boundary_delta_conic():
    assert boundary_of(conic_curve()) == normalize(P("t - 1") ** 3)


def test_boundary_delta_two_lines():
    assert boundary_of(two_lines_curve()) == normalize(P("t - 1") ** 4)


def test_boundary_delta_nodal_cubic():
    # (1-t)^3 from the divisor, (t-1) from the node, (1-t) per crossing
    assert boundary_of(nodal_cubic_curve()) == normalize(P("t - 1") ** 7)


def test_boundary_factors():
    # the sextic: (1-t)^13, one (1 - t) per crossing, Phi_6 per cusp
    one = LaurentPoly.one(1)
    assert boundary_factors(cuspidal_sextic_curve(),
                            local_deltas(cuspidal_sextic_curve())) == \
        ({1: 19, 6: 6}, one)
    assert boundary_factors(nodal_cubic_curve(),
                            local_deltas(nodal_cubic_curve())) == ({1: 7}, one)
    # a figure-eight knot at a point off the line keeps its remainder
    eight = Singularity(MarkedLink(BraidWord(3, (1, -2, 1, -2)), {0: 1}),
                        on_L=False)
    curve = CurveData(nodal_cubic_curve().components,
                      nodal_cubic_curve().singularities + (eight, eight))
    local = local_deltas(curve)
    factors, remainder = boundary_factors(curve, local)
    assert (factors, remainder) == ({1: 7}, normalize(P("t^2 - 3*t + 1") ** 2))
    # boundary_delta is its expansion
    expanded = normalize(cyclotomic_polynomial(1) ** 7 * remainder)
    assert boundary_delta(curve, local) == expanded


def test_boundary_factors_zero_hat():
    # the marked T(3,3) of degree 2 has hat 0, and so has the product
    link = MarkedLink(BraidWord(3, (1, 2) * 3), {0: 0, 1: 1, 2: 2},
                      marked=0, degree=2)
    curve = CurveData(two_lines_curve().components, (Singularity(link, True),))
    assert boundary_factors(curve, local_deltas(curve)) is None
    assert boundary_of(curve).is_zero


def test_affine_counts():
    assert affine_counts(two_lines_curve()) == AffineCounts(1, 2, 0)
    assert affine_counts(conic_curve()) == AffineCounts(0, 1, 0)
    assert affine_counts(nodal_cubic_curve()) == AffineCounts(1, 1, -3)
    assert affine_counts(cuspidal_sextic_curve()) == AffineCounts(6, 1, -18)


# ---------------------------------------------------------------------------
# JSON


def test_curve_json_round_trip():
    curve = curve_from_json(shipped_curve_json("two_lines"))
    assert curve.components[0] == CurveComponent("L", 1, 0)
    assert curve.singularities[0].on_L is False
    assert curve == two_lines_curve()


def test_curve_json_defaults_and_errors():
    with pytest.raises(InputError):
        curve_from_json([])
    with pytest.raises(InputError):
        curve_from_json({"components": [{"name": "L", "degree": 1, "genus": 0}]})
    with pytest.raises(InputError):
        curve_from_json({"components": [
            {"name": "L", "degree": 1, "genus": 0},
            {"name": "C", "degree": "two", "genus": 0}]})
    obj = shipped_curve_json("conic_line")
    obj["singularities"][0]["on_L"] = "yes"
    with pytest.raises(InputError):
        curve_from_json(obj)
    # on_L defaults to the presence of a marking
    obj = shipped_curve_json("conic_line")
    for sing in obj["singularities"]:
        sing.pop("on_L")
    assert curve_from_json(obj) == conic_curve()
