"""Tests for coloured braid-closure links and their invariants."""

import pytest

import alexpoly.linkpoly
from alexpoly.braid import BraidWord
from alexpoly.errors import ComputationError, InputError
from alexpoly.linkpoly import (
    MarkedLink,
    hat_delta,
    link_from_json,
    marked_torus_link,
    multivariable_delta,
    one_variable_delta,
    torus_link,
)
from alexpoly.ring import LaurentPoly, equal_up_to_units, normalize, parse_poly


def P(text, nvars=None):
    return parse_poly(text, nvars=nvars)


def hopf(marked=False, degree=None):
    braid = BraidWord(2, (1, 1))
    if marked:
        return MarkedLink(braid, {0: 0, 1: 1}, marked=0, degree=degree)
    return MarkedLink(braid, {0: 1, 1: 2})


# ---------------------------------------------------------------------------
# validation


def test_link_validation():
    braid = BraidWord(2, (1, 1))
    with pytest.raises(ValueError):
        MarkedLink(braid, {0: 1})  # missing component 1
    with pytest.raises(ValueError):
        MarkedLink(braid, {0: 1, 1: 1, 2: 1})  # spurious key
    with pytest.raises(ValueError):
        MarkedLink(braid, {0: 0, 1: 0})  # two colour-0 components
    with pytest.raises(ValueError):
        MarkedLink(BraidWord(2, (1,)), {0: 0})  # only the line component
    with pytest.raises(ValueError):
        MarkedLink(braid, {0: 1, 1: 2}, marked=0, degree=2)  # marked not colour 0
    with pytest.raises(ValueError):
        MarkedLink(braid, {0: 0, 1: 1}, marked=1, degree=2)
    with pytest.raises(ValueError):
        MarkedLink(braid, {0: 0, 1: 1}, marked=0)  # degree missing
    with pytest.raises(ValueError):
        MarkedLink(braid, {0: -1, 1: 1})


def test_components_and_colour_order():
    link = hopf(marked=True, degree=3)
    assert link.components == [(0,), (1,)]
    assert link.colour_order() == [0, 1]
    assert link.n_colours() == 2
    # without colour 0, order follows the least strand per colour
    other = MarkedLink(BraidWord(2, (1, 1)), {0: 7, 1: 3})
    assert other.colour_order() == [7, 3]


def test_colour_budget(monkeypatch):
    # the bound is inclusive and counts distinct colours, not components
    monkeypatch.setattr(alexpoly.linkpoly, "MAX_VARIABLES", 3)
    assert multivariable_delta(torus_link(3)).nvars == 3
    shared = MarkedLink(BraidWord(4, ()), {0: 1, 1: 2, 2: 3, 3: 3})
    assert shared.n_colours() == 3
    assert multivariable_delta(shared).nvars == 3
    marked = marked_torus_link(4, 5)
    for link, delta in ((torus_link(4), multivariable_delta),
                        (marked, multivariable_delta), (marked, hat_delta)):
        assert link.n_colours() == 4
        with pytest.raises(InputError) as exc:
            delta(link)
        assert str(exc.value) == ("field 'colours': the link has 4 colours; "
                                  "the multivariable invariant takes at most 3")
    # an unmarked link's hat is the one-variable invariant, with no colours
    assert hat_delta(torus_link(4)) == one_variable_delta(torus_link(4))


def test_trefoil_is_one_component():
    braid = BraidWord(2, (1, 1, 1))
    link = MarkedLink(braid, {0: 1})
    assert link.components == [(0, 1)]
    assert one_variable_delta(link) == P("t^2 - t + 1")
    with pytest.raises(ValueError):
        multivariable_delta(link)


# ---------------------------------------------------------------------------
# torus family, frozen values


def test_one_variable_torus_links():
    assert one_variable_delta(torus_link(2)) == P("t - 1")
    expected3 = normalize(P("t - 1") * P("t^3 - 1"))
    assert one_variable_delta(torus_link(3)) == expected3
    expected4 = normalize(P("t - 1") * P("t^4 - 1") * P("t^4 - 1"))
    assert one_variable_delta(torus_link(4)) == expected4


def test_multivariable_torus_links():
    assert multivariable_delta(torus_link(2)) == LaurentPoly.one(2)
    prod3 = P("t0*t1*t2 - 1", nvars=3)
    assert multivariable_delta(torus_link(3)) == prod3
    prod4 = P("t0*t1*t2*t3 - 1", nvars=4)
    assert multivariable_delta(torus_link(4)) == normalize(prod4 * prod4)


def test_marked_torus_hat_values():
    # two branches, transverse: the local invariant of a node on the line
    assert equal_up_to_units(hat_delta(marked_torus_link(2, 2)), P("1 - t"))
    # three branches, degree 4: (1-t)(t^{2-4}-1)
    expected = normalize(P("1 - t") * P("1 - t^2"))
    assert equal_up_to_units(hat_delta(marked_torus_link(3, 4)), expected)
    # degree matching branch count minus one kills the invariant
    assert hat_delta(marked_torus_link(3, 2)).is_zero
    assert hat_delta(marked_torus_link(4, 3)).is_zero


@pytest.mark.parametrize("d", range(10, 17))
def test_torus_closed_forms_larger_d(d):
    t = LaurentPoly.univariate
    # (t - 1)(t^d - 1)^(d-2)
    expected = t({1: 1, 0: -1}) * t({d: 1, 0: -1}) ** (d - 2)
    assert one_variable_delta(torus_link(d)) == normalize(expected)
    # strand 1 marked, degree d + 1: (1 - t)(t^-2 - 1)^(d-2)
    expected = t({0: 1, 1: -1}) * t({-2: 1, 0: -1}) ** (d - 2)
    assert hat_delta(marked_torus_link(d, d + 1)) == normalize(expected)


def test_hat_of_unmarked_link_is_one_variable():
    link = hopf()
    assert hat_delta(link) == one_variable_delta(link)


def test_torres_substitution_consistency():
    # one-variable invariant = (t - 1) * multivariable at all-equal variables
    for k in (2, 3, 4):
        link = torus_link(k)
        multi = multivariable_delta(link)
        collapsed = multi.substitute((1,) * k)
        lhs = one_variable_delta(link)
        rhs = normalize(collapsed * P("t - 1"))
        assert equal_up_to_units(lhs, rhs)


# ---------------------------------------------------------------------------
# JSON


def test_link_json_round_trip():
    link = link_from_json({
        "braid": {"strands": 3, "word": [1, 2, 1, 2, 1, 2]},
        "colours": {"1": 0, "2": 1, "3": 2},
        "marked": 1,
        "degree": 4,
    })
    assert link.braid == BraidWord(3, (1, 2, 1, 2, 1, 2))
    assert link.colours == {0: 0, 1: 1, 2: 2}
    assert (link.marked, link.degree) == (0, 4)
    assert link == marked_torus_link(3, 4)


def test_unmarked_json_round_trip():
    link = link_from_json({"braid": {"strands": 2, "word": [1, 1]},
                           "colours": {"1": 1, "2": 2}})
    assert (link.marked, link.degree) == (None, None)
    assert link == hopf()


def test_link_json_errors():
    good = {"braid": {"strands": 2, "word": [1, 1]},
            "colours": {"1": 0, "2": 1}, "marked": 1, "degree": 2}
    assert link_from_json(good) == marked_torus_link(2, 2)
    with pytest.raises(InputError):
        link_from_json("nope")
    bad = dict(good)
    bad["colours"] = {"zero": 0, "2": 1}
    with pytest.raises(InputError):
        link_from_json(bad)
    bad = dict(good)
    bad["colours"] = {"1": 0, "2": "red"}
    with pytest.raises(InputError):
        link_from_json(bad)
    bad = dict(good)
    bad["colours"] = {"0": 0, "2": 1}
    with pytest.raises(InputError, match="out of range"):
        link_from_json(bad)
    bad = dict(good)
    bad["colours"] = {"1": 0}
    with pytest.raises(InputError, match="base strands"):
        link_from_json(bad)
    bad = dict(good)
    bad["marked"] = "first"
    with pytest.raises(InputError):
        link_from_json(bad)
    bad = dict(good)
    bad["degree"] = "two"
    with pytest.raises(InputError):
        link_from_json(bad)
    bad = dict(good)
    bad["colours"] = {"1": 0, "2": 0}
    with pytest.raises(InputError):
        link_from_json(bad)
