"""Tests for the verification checks, including synthetic failures."""

import pytest

from alexpoly.braid import BraidWord
from alexpoly.curve import (CurveComponent, CurveData, Singularity,
                            boundary_factors, local_deltas)
from alexpoly.linkpoly import MarkedLink
from alexpoly.ring import (LaurentPoly, cyclotomic_factorization, normalize,
                           parse_poly)
from alexpoly.verify import (
    CheckResult,
    check_cf_ledger,
    check_cyclotomic,
    check_infinity,
    check_l1_bounds,
    check_local,
    cyclotomic_text,
    derive_transverse,
    factored_text,
    generic_infinity_factors,
    run_verification,
)

from verify_reference import generic_infinity_delta


def P(text):
    return parse_poly(text)


def factored(delta):
    """The invariant's cyclotomic factorization as the checks take it."""
    return None if delta.is_zero else cyclotomic_factorization(delta)


def infinity_check(delta, delta_inf):
    return check_infinity(delta, factored(delta_inf), factored(delta))


def bound(curve):
    return boundary_factors(curve, local_deltas(curve))


def local_check(delta, curve):
    return check_local(delta, curve, bound(curve), factored(delta))


def l1_check(delta, curve, transverse):
    return check_l1_bounds(delta, curve, transverse, factored(delta))


def ledger_check(delta, curve):
    return check_cf_ledger(delta, curve, bound(curve), factored(delta))


def cyclo_check(delta):
    return check_cyclotomic(delta, factored(delta))


def transverse(curve):
    return derive_transverse(curve, local_deltas(curve))


def line():
    return CurveComponent("L", 1, 0)


def transverse_point(colour, degree):
    link = MarkedLink(BraidWord(2, (1, 1)), {0: 0, 1: colour},
                      marked=0, degree=degree)
    return Singularity(link, on_L=True)


def node(a, b):
    return Singularity(MarkedLink(BraidWord(2, (1, 1)), {0: a, 1: b}),
                       on_L=False)


def cusp(colour):
    return Singularity(MarkedLink(BraidWord(2, (1, 1, 1)), {0: colour}),
                       on_L=False)


def two_lines_curve():
    return CurveData(
        (line(), CurveComponent("A", 1, 0), CurveComponent("B", 1, 0)),
        (node(1, 2), transverse_point(1, 2), transverse_point(2, 2)))


def cuspidal_cubic_curve():
    return CurveData(
        (line(), CurveComponent("cubic", 3, 0)),
        (cusp(1), transverse_point(1, 3), transverse_point(1, 3),
         transverse_point(1, 3)))


def sextic_curve():
    sings = tuple(cusp(1) for _ in range(6)) + \
        tuple(transverse_point(1, 6) for _ in range(6))
    return CurveData((line(), CurveComponent("sextic", 6, 4)), sings)


# ---------------------------------------------------------------------------
# helpers


def test_generic_infinity_values():
    assert generic_infinity_delta(1) == LaurentPoly.one(1)
    assert generic_infinity_delta(2) == P("t - 1")
    assert generic_infinity_delta(3) == normalize(P("t - 1") * P("t^3 - 1"))
    with pytest.raises(ValueError):
        generic_infinity_delta(0)
    # Phi_1^(d-1) times Phi_n^(d-2) for n | d, n > 1, with no remainder
    assert generic_infinity_factors(1) == ({}, LaurentPoly.one(1))
    assert generic_infinity_factors(2) == ({1: 1}, LaurentPoly.one(1))
    assert generic_infinity_factors(6) == (
        {1: 5, 2: 4, 3: 4, 6: 4}, LaurentPoly.one(1))
    with pytest.raises(ValueError):
        generic_infinity_factors(0)


def test_derive_transverse():
    assert transverse(two_lines_curve())
    assert transverse(cuspidal_cubic_curve())
    # missing one crossing: only d - 1 points on the line
    partial = CurveData(
        (line(), CurveComponent("C", 2, 0)),
        (transverse_point(1, 2),))
    assert not transverse(partial)
    # tangency: 2-component but the local invariant is not 1 - t
    tangent = Singularity(
        MarkedLink(BraidWord(2, (1, 1, 1, 1)), {0: 0, 1: 1},
                   marked=0, degree=2), on_L=True)
    curved = CurveData(
        (line(), CurveComponent("C", 2, 0)),
        (tangent, transverse_point(1, 2)))
    assert not transverse(curved)


def test_cyclotomic_text():
    assert cyclotomic_text({}) == "1"
    assert cyclotomic_text({1: 2, 6: 1}) == "Phi_1^2 * Phi_6"


def test_factored_text():
    assert factored_text(None) == "0"
    assert factored_text(({}, LaurentPoly.one(1))) == "1"
    assert factored_text(({1: 2, 6: 1}, LaurentPoly.one(1))) == "Phi_1^2 * Phi_6"
    assert factored_text(({}, P("t^2 - 3*t + 1"))) == "(t^2 - 3*t + 1)"
    assert factored_text(({3: 1}, P("t^2 - 3*t + 1"))) == \
        "Phi_3 * (t^2 - 3*t + 1)"


# ---------------------------------------------------------------------------
# individual checks


def test_check_infinity_pass_and_witness():
    res = infinity_check(P("t - 1"), generic_infinity_delta(3))
    assert res.status == "pass"
    assert res.right == "Phi_1^2 * Phi_3"
    assert res.witness == "Phi_1 * Phi_3"
    assert res.detail == "(t - 1) divides (Phi_1^2 * Phi_3)"


def test_check_infinity_remainders():
    # only the non-cyclotomic remainders are divided
    knot = P("t^2 - 3*t + 1")
    delta_inf = normalize(knot * knot * P("t^3 - 1"))
    res = infinity_check(normalize(knot * P("t - 1")), delta_inf)
    assert res.status == "pass"
    assert res.right == "Phi_1 * Phi_3 * (t^4 - 6*t^3 + 11*t^2 - 6*t + 1)"
    assert res.witness == "Phi_3 * (t^2 - 3*t + 1)"
    assert infinity_check(normalize(knot * knot * knot),
                          delta_inf).status == "fail"


def test_check_infinity_fail():
    res = infinity_check(P("t^2 + t + 1"), generic_infinity_delta(2))
    assert res.status == "fail"
    assert res.witness is None


def test_check_infinity_zero_cases():
    zero = LaurentPoly.zero(1)
    assert infinity_check(zero, zero).witness == "1"
    assert infinity_check(zero, P("t - 1")).status == "fail"
    res = infinity_check(P("t - 1"), zero)
    assert (res.status, res.right, res.witness) == ("pass", "0", "0")


def test_check_local_two_lines():
    res = local_check(P("t - 1"), two_lines_curve())
    assert res.status == "pass"
    assert res.right == "Phi_1^4"
    assert res.witness == "Phi_1^3"


def test_check_local_fail():
    res = local_check(P("t^2 + t + 1"), two_lines_curve())
    assert res.status == "fail"


def test_check_local_irreducible_extras():
    res = local_check(LaurentPoly.one(1), cuspidal_cubic_curve())
    assert res.status == "pass"
    assert "irreducible extras" in res.detail
    # a (t - 1) factor violates coprimality even though it divides
    res = local_check(P("t - 1"), cuspidal_cubic_curve())
    assert res.status == "fail"
    assert "1 - t" in res.detail


def test_check_l1_bounds():
    # two components force at least one (1 - t) factor
    assert l1_check(P("t - 1"), two_lines_curve(), True).status == "pass"
    assert l1_check(P("t^2 + 1"), two_lines_curve(), True).status == "fail"
    # transverse line caps the multiplicity at d - 1
    high = normalize(P("t - 1") ** 2)
    assert l1_check(high, two_lines_curve(), True).status == "fail"
    assert l1_check(high, two_lines_curve(), False).status == "pass"
    # zero invariant fails only under transversality
    zero = LaurentPoly.zero(1)
    assert l1_check(zero, two_lines_curve(), True).status == "fail"
    assert l1_check(zero, two_lines_curve(), False).status == "pass"
    # irreducible curves need multiplicity exactly 0
    assert l1_check(P("t - 1"), cuspidal_cubic_curve(), False).status == "fail"
    assert l1_check(LaurentPoly.one(1),
                    cuspidal_cubic_curve(), True).status == "pass"


def test_check_cf_ledger_pass():
    res = ledger_check(LaurentPoly.one(1), cuspidal_cubic_curve())
    assert res.status == "pass"
    rows = {row["phi"]: row for row in res.ledger}
    # boundary strips to Phi_6 with budget row for Phi_1
    assert rows[6]["in_boundary"] == 1
    assert rows[6]["in_invariant"] == 0
    assert rows[1]["budget"] == 2
    assert all(row["ok"] for row in res.ledger)


def test_check_cf_ledger_squared_divisibility_fail():
    # t^2 - t + 1 divides the boundary once, so its square cannot
    res = ledger_check(P("t^2 - t + 1"), cuspidal_cubic_curve())
    assert res.status == "fail"
    rows = {row["phi"]: row for row in res.ledger}
    assert rows[6]["in_invariant"] == 1
    assert not rows[6]["ok"]


def test_check_cf_ledger_budget_fail():
    # invariant (t-1)^3 on the two-lines curve: 2a = 6 > b + e = 4 + 1
    res = ledger_check(normalize(P("t - 1") ** 3), two_lines_curve())
    assert res.status == "fail"
    assert "budget" in res.detail


def test_check_cf_ledger_zero_fail():
    assert ledger_check(LaurentPoly.zero(1), two_lines_curve()).status == "fail"


def test_check_cyclotomic():
    assert cyclo_check(P("t^2 - t + 1")).status == "pass"
    assert cyclo_check(P("t^2 - t + 1")).witness == "Phi_6"
    assert cyclo_check(LaurentPoly.one(1)).status == "pass"
    assert cyclo_check(P("t^2 + t + 2")).status == "fail"
    assert cyclo_check(LaurentPoly.zero(1)).status == "fail"


# ---------------------------------------------------------------------------
# the full report


def test_run_verification_two_lines():
    report = run_verification(two_lines_curve(), P("t - 1"))
    assert report.ok
    names = [c.name for c in report.checks]
    assert names == ["infinity", "local", "l1-bounds", "cf-ledger", "cyclotomic"]
    text = report.to_text()
    assert "overall: pass" in text
    obj = report.to_json()
    assert obj["ok"] is True
    assert len(obj["checks"]) == 5


def test_run_verification_sextic():
    report = run_verification(sextic_curve(), P("t^2 - t + 1"))
    assert report.ok, report.to_text()


def test_run_verification_detects_wrong_invariant():
    report = run_verification(two_lines_curve(), P("t^2 + t + 1"))
    assert not report.ok
    assert "overall: fail" in report.to_text()
