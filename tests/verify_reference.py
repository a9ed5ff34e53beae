"""Reference verification: every check derives its own local data.

The checks below recompute the hat invariant of each singular point,
the boundary product and the multiplicities of (1 - t) and of each
Phi_n in the invariant for themselves.  ``alexpoly.verify`` derives
each of these once and passes them to the checks; the tests compare
both reports in text and JSON.  On a curve whose boundary product is
zero and a nonzero invariant, ``check_cf_ledger`` here raises
TypeError, so the comparisons leave such curves out.

``multiplicity`` counts a factor by repeated exact division, and
``generic_infinity_delta`` expands the invariant at infinity that
``verify.generic_infinity_factors`` gives in cyclotomic coordinates.
"""

from __future__ import annotations

from alexpoly.curve import CurveData, affine_counts, first_betti
from alexpoly.linkpoly import hat_delta
from alexpoly.ring import (
    LaurentPoly,
    cyclotomic_factorization,
    cyclotomic_polynomial,
    equal_up_to_units,
    exact_divide,
    gcd,
    normalize,
    poly_to_str,
)
from alexpoly.verify import (
    FAIL,
    PASS,
    CheckResult,
    VerificationReport,
    _ONE_MINUS_T,
    _witnessed_division,
    cyclotomic_text,
)

#: multiplicity of a factor of the zero polynomial
INFINITY = float("inf")


def multiplicity(p: LaurentPoly, q: LaurentPoly):
    """Largest k with q^k | p, by repeated exact division; INFINITY
    when p = 0.

    q must be neither zero nor a unit, otherwise the count is undefined.
    """
    if q.is_zero or q.is_unit:
        raise ValueError("multiplicity requires a non-zero, non-unit factor")
    if p.nvars != q.nvars:
        raise ValueError("variable count mismatch")
    if p.is_zero:
        return INFINITY
    count = 0
    r = p
    while True:
        nxt = exact_divide(r, q)
        if nxt is None:
            return count
        r = nxt
        count += 1


def generic_infinity_delta(degree: int) -> LaurentPoly:
    """Invariant of the link at infinity of a degree-d curve transverse
    to the line, expanded: (t - 1)(t^d - 1)^{d-2}."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if degree == 1:
        return LaurentPoly.one(1)
    t_d = LaurentPoly.univariate({degree: 1, 0: -1})
    return normalize(LaurentPoly.univariate({1: 1, 0: -1}) * t_d ** (degree - 2))


def boundary_delta(curve: CurveData) -> LaurentPoly:
    """(1 - t)^{b_1(C union L)} times the hat invariants of all
    singular points."""
    out = LaurentPoly.univariate({0: 1, 1: -1}) ** first_betti(curve)
    for sing in curve.singularities:
        out = out * hat_delta(sing.link)
    return normalize(out)


def derive_transverse(curve: CurveData) -> bool:
    """The line is transverse when it meets C in degree-many points and
    every such point is a plain crossing."""
    on_line = curve.on_line()
    if len(on_line) != curve.degree:
        return False
    for sing in on_line:
        if len(sing.link.components) != 2:
            return False
        if not equal_up_to_units(hat_delta(sing.link), _ONE_MINUS_T):
            return False
    return True


# ---------------------------------------------------------------------------
# the five checks


def check_infinity(delta: LaurentPoly, delta_inf: LaurentPoly) -> CheckResult:
    """The invariant divides the invariant at infinity."""
    ok, witness = _witnessed_division(delta, delta_inf)
    left = poly_to_str(normalize(delta))
    right = poly_to_str(normalize(delta_inf))
    if ok:
        return CheckResult(
            "infinity", PASS,
            f"({left}) divides ({right})",
            left=left, right=right, witness=poly_to_str(witness))
    return CheckResult(
        "infinity", FAIL,
        f"({left}) does not divide ({right})",
        left=left, right=right)


def check_local(delta: LaurentPoly, curve: CurveData) -> CheckResult:
    """The invariant divides the boundary product; for an irreducible
    curve it already divides the product of the local invariants and is
    coprime to 1 - t."""
    bound = boundary_delta(curve)
    left = poly_to_str(normalize(delta))
    right = poly_to_str(bound)
    ok, witness = _witnessed_division(delta, bound)
    if not ok:
        return CheckResult(
            "local", FAIL,
            f"({left}) does not divide the boundary product ({right})",
            left=left, right=right)
    detail = f"({left}) divides the boundary product"
    if curve.n_curve_components == 1:
        product = LaurentPoly.one(1)
        for sing in curve.singularities:
            product = product * hat_delta(sing.link)
        product = normalize(product)
        ok2, _ = _witnessed_division(delta, product)
        coprime = equal_up_to_units(gcd(normalize(delta), _ONE_MINUS_T),
                                    LaurentPoly.one(1))
        if not ok2:
            return CheckResult(
                "local", FAIL,
                f"irreducible case: ({left}) does not divide the bare local "
                f"product ({poly_to_str(product)})",
                left=left, right=poly_to_str(product))
        if not coprime:
            return CheckResult(
                "local", FAIL,
                f"irreducible case: ({left}) shares a factor with 1 - t",
                left=left, right=right)
        detail += "; irreducible extras hold"
    return CheckResult("local", PASS, detail,
                       left=left, right=right, witness=poly_to_str(witness))


def check_l1_bounds(delta: LaurentPoly, curve: CurveData,
                    transverse: bool) -> CheckResult:
    """Bounds on the multiplicity m of (1 - t) in the invariant:
    l - 1 <= m always, m <= d - 1 with a nonzero invariant when the
    line is transverse, and m = 0 for an irreducible curve."""
    ell = curve.n_curve_components
    m = multiplicity(normalize(delta), _ONE_MINUS_T)
    m_text = "infinity" if m == INFINITY else str(m)
    left = poly_to_str(normalize(delta))
    if m != INFINITY and m < ell - 1:
        return CheckResult(
            "l1-bounds", FAIL,
            f"multiplicity {m_text} of (1 - t) is below l - 1 = {ell - 1}",
            left=left)
    pieces = [f"l - 1 = {ell - 1} <= m = {m_text}"]
    if transverse:
        d = curve.degree
        if delta.is_zero:
            return CheckResult(
                "l1-bounds", FAIL,
                "transverse line requires a nonzero invariant", left=left)
        if m > d - 1:
            return CheckResult(
                "l1-bounds", FAIL,
                f"multiplicity {m_text} exceeds d - 1 = {d - 1}", left=left)
        pieces.append(f"m <= d - 1 = {d - 1}")
    if ell == 1:
        if m != 0:
            return CheckResult(
                "l1-bounds", FAIL,
                f"irreducible curve needs multiplicity 0, got {m_text}",
                left=left)
        pieces.append("m = 0 (irreducible)")
    return CheckResult("l1-bounds", PASS, "; ".join(pieces), left=left)


def check_cf_ledger(delta: LaurentPoly, curve: CurveData) -> CheckResult:
    """Squared divisibility with a (1 - t) budget.

    Write the invariant as (1 - t)^a D and the boundary product as
    (1 - t)^b R with D, R coprime to 1 - t.  The check requires
    2a <= b + e for e = l - s - chi and D^2 | R, and reports the budget
    per cyclotomic factor of R.
    """
    if delta.is_zero:
        return CheckResult(
            "cf-ledger", FAIL,
            "zero invariant admits no squared-divisibility certificate")
    counts = affine_counts(curve)
    e = counts.ell - counts.s_aff - counts.chi_ns
    bound = boundary_delta(curve)
    nd = normalize(delta)
    a = multiplicity(nd, _ONE_MINUS_T)
    stripped = normalize(exact_divide(nd, normalize(_ONE_MINUS_T ** a)))
    b = multiplicity(bound, _ONE_MINUS_T)
    remainder = normalize(exact_divide(bound, normalize(_ONE_MINUS_T ** b)))

    ledger = []
    factors, noncyc = cyclotomic_factorization(remainder)
    for n in sorted(factors):
        mult_r = factors[n]
        mult_d = multiplicity(stripped, cyclotomic_polynomial(n))
        ledger.append({"phi": n, "in_invariant": mult_d, "in_boundary": mult_r,
                       "ok": 2 * mult_d <= mult_r})
    ledger.append({"phi": 1, "in_invariant": a,
                   "in_boundary": b, "budget": e, "ok": 2 * a <= b + e})

    if 2 * a > b + e:
        return CheckResult(
            "cf-ledger", FAIL,
            f"(1 - t) budget violated: 2*{a} > {b} + {e}", ledger=ledger)
    square = normalize(stripped * stripped)
    ok, witness = _witnessed_division(square, remainder)
    if not ok:
        return CheckResult(
            "cf-ledger", FAIL,
            f"({poly_to_str(stripped)})^2 does not divide "
            f"({poly_to_str(remainder)})",
            left=poly_to_str(square), right=poly_to_str(remainder),
            ledger=ledger)
    if not noncyc.is_unit:
        detail_extra = f"; boundary keeps non-cyclotomic part {poly_to_str(noncyc)}"
    else:
        detail_extra = ""
    return CheckResult(
        "cf-ledger", PASS,
        f"2a <= b + e ({2 * a} <= {b} + {e}) and the squared stripped "
        f"invariant divides the stripped boundary{detail_extra}",
        left=poly_to_str(square), right=poly_to_str(remainder),
        witness=poly_to_str(witness), ledger=ledger)


def check_cyclotomic(delta: LaurentPoly) -> CheckResult:
    """The invariant is a unit times a product of cyclotomic polynomials."""
    left = poly_to_str(normalize(delta))
    if delta.is_zero:
        return CheckResult("cyclotomic", FAIL,
                           "zero invariant is not a cyclotomic product",
                           left=left)
    factors, remainder = cyclotomic_factorization(normalize(delta))
    text = cyclotomic_text(factors)
    if remainder.is_unit:
        return CheckResult("cyclotomic", PASS,
                           f"({left}) = {text}", left=left, witness=text)
    return CheckResult(
        "cyclotomic", FAIL,
        f"({left}) keeps non-cyclotomic factor ({poly_to_str(remainder)})",
        left=left, right=poly_to_str(remainder))


def run_verification(curve: CurveData, delta: LaurentPoly,
                     delta_inf: LaurentPoly | None = None,
                     transverse: bool | None = None) -> VerificationReport:
    if delta_inf is None:
        delta_inf = generic_infinity_delta(curve.degree)
    if transverse is None:
        transverse = derive_transverse(curve)
    return VerificationReport([
        check_infinity(delta, delta_inf),
        check_local(delta, curve),
        check_l1_bounds(delta, curve, transverse),
        check_cf_ledger(delta, curve),
        check_cyclotomic(delta),
    ])


def arrangement_curve(n: int) -> dict:
    """Curve JSON of a generic arrangement of n lines with the line L in
    general position: each pair of lines meets in a node (a Hopf link)
    and each line crosses L in a marked Hopf link of degree n."""

    def hopf(a: int, b: int, **marking) -> dict:
        return {"braid": {"strands": 2, "word": [1, 1]},
                "colours": {"1": a, "2": b}, **marking}

    lines = range(1, n + 1)
    return {
        "components": [{"name": "L", "degree": 1, "genus": 0}]
        + [{"name": f"A{i}", "degree": 1, "genus": 0} for i in lines],
        "singularities": [{"link": hopf(i, j), "on_L": False}
                          for i in lines for j in lines if i < j]
        + [{"link": hopf(0, i, marked=1, degree=n), "on_L": True}
           for i in lines],
    }
