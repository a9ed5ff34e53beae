"""Mechanical checks relating a curve's polynomial invariant to the
local data of its singularities and its behaviour at infinity.

Five checks are run: divisibility into the invariant at infinity,
divisibility into the boundary product, bounds on the multiplicity of
(1 - t), a squared-divisibility budget after stripping (1 - t), and
cyclotomicity of the invariant.  Every divisibility that holds is
witnessed by an explicit quotient which is re-verified by multiplying
back.

``run_verification`` derives the local invariants, the boundary product
and the invariant's cyclotomic factorization once for all checks; a
check that does not apply reports ``inapplicable`` and does not fail.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import prod

from .curve import CurveData, affine_counts, boundary_delta, first_betti, local_deltas
from .errors import ComputationError
from .ring import (
    INFINITY,
    LaurentPoly,
    cyclotomic_factorization,
    equal_up_to_units,
    exact_divide,
    multiplicity,
    normalize,
    poly_to_str,
)

PASS = "pass"
FAIL = "fail"
SKIP = "inapplicable"

_ONE_MINUS_T = LaurentPoly.univariate({0: 1, 1: -1})

DeltaFactors = tuple[dict[int, int], LaurentPoly] | None  # None for a zero invariant


@dataclass
class CheckResult:
    name: str
    status: str
    detail: str
    left: str | None = None
    right: str | None = None
    witness: str | None = None
    ledger: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def to_json(self) -> dict:
        obj = {"name": self.name, "status": self.status, "detail": self.detail}
        for key in ("left", "right", "witness"):
            value = getattr(self, key)
            if value is not None:
                obj[key] = value
        if self.ledger:
            obj["ledger"] = self.ledger
        return obj


@dataclass
class VerificationReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}

    def to_text(self) -> str:
        lines = [f"{c.status:12} {c.name}: {c.detail}" for c in self.checks]
        lines.append(f"overall: {'pass' if self.ok else 'fail'}")
        return "\n".join(lines)


def _witnessed_division(divisor: LaurentPoly, dividend: LaurentPoly):
    """(divides, quotient) with the quotient re-verified by multiplication."""
    a = normalize(divisor)
    b = normalize(dividend)
    quotient = exact_divide(b, a)
    if quotient is None:
        return False, None
    if quotient * a != b:
        raise ComputationError("division witness failed to multiply back")
    return True, quotient


def generic_infinity_delta(degree: int) -> LaurentPoly:
    """Invariant of the link at infinity of a degree-d curve transverse
    to the line: (t - 1)(t^d - 1)^{d-2}."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if degree == 1:
        return LaurentPoly.one(1)
    t_d = LaurentPoly.univariate({degree: 1, 0: -1})
    return normalize(LaurentPoly.univariate({1: 1, 0: -1}) * t_d ** (degree - 2))


def derive_transverse(curve: CurveData, local: list[LaurentPoly]) -> bool:
    """The line is transverse when it meets C in degree-many points and
    every such point is a plain crossing."""
    on_line = [(s, hat) for s, hat in zip(curve.singularities, local) if s.on_L]
    return len(on_line) == curve.degree and all(
        len(s.link.components) == 2 and equal_up_to_units(hat, _ONE_MINUS_T)
        for s, hat in on_line)


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


def check_local(delta: LaurentPoly, curve: CurveData, local: list[LaurentPoly],
                bound: LaurentPoly, factorization: DeltaFactors) -> CheckResult:
    """The invariant divides the boundary product ``bound``; for an
    irreducible curve it already divides the product of the local
    invariants ``local`` and is coprime to 1 - t."""
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
        product = normalize(prod(local, start=LaurentPoly.one(1)))
        ok2, _ = _witnessed_division(delta, product)
        coprime = factorization is not None and 1 not in factorization[0]
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


def check_l1_bounds(delta: LaurentPoly, curve: CurveData, transverse: bool,
                    factorization: DeltaFactors) -> CheckResult:
    """Bounds on the multiplicity m of (1 - t) in the invariant:
    l - 1 <= m always, m <= d - 1 with a nonzero invariant when the
    line is transverse, and m = 0 for an irreducible curve."""
    ell = curve.n_curve_components
    m = INFINITY if factorization is None else factorization[0].get(1, 0)
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


def check_cf_ledger(delta: LaurentPoly, curve: CurveData, local: list[LaurentPoly],
                    factorization: DeltaFactors) -> CheckResult:
    """Squared divisibility with a (1 - t) budget.

    Write the invariant as (1 - t)^a D and the boundary product as
    (1 - t)^b R with D, R coprime to 1 - t.  The check requires
    2a <= b + e for e = l - s - chi and D^2 | R, and reports the budget
    per cyclotomic factor of R.  a and the Phi_n counts of D come from
    ``factorization``, b and R from the distinct invariants in ``local``.
    """
    if delta.is_zero:
        return CheckResult(
            "cf-ledger", FAIL,
            "zero invariant admits no squared-divisibility certificate")
    distinct = Counter(local)
    if any(hat.is_zero for hat in distinct):
        return CheckResult("cf-ledger", SKIP, "the boundary product is zero")
    counts = affine_counts(curve)
    e = counts.ell - counts.s_aff - counts.chi_ns
    delta_factors = factorization[0]
    a = delta_factors.get(1, 0)
    stripped = normalize(exact_divide(normalize(delta), _ONE_MINUS_T ** a))
    b = first_betti(curve)
    remainder = LaurentPoly.one(1)
    for hat, count in distinct.items():
        k = multiplicity(hat, _ONE_MINUS_T)
        b += count * k
        remainder = remainder * exact_divide(hat, _ONE_MINUS_T ** k) ** count
    remainder = normalize(remainder)

    ledger = []
    factors, noncyc = cyclotomic_factorization(remainder)
    for n in sorted(factors):
        mult_r = factors[n]
        mult_d = delta_factors.get(n, 0)
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


def check_cyclotomic(delta: LaurentPoly, factorization: DeltaFactors) -> CheckResult:
    """The invariant is a unit times a product of cyclotomic polynomials."""
    left = poly_to_str(normalize(delta))
    if delta.is_zero:
        return CheckResult("cyclotomic", FAIL,
                           "zero invariant is not a cyclotomic product",
                           left=left)
    factors, remainder = factorization
    text = cyclotomic_text(factors)
    if remainder.is_unit:
        return CheckResult("cyclotomic", PASS,
                           f"({left}) = {text}", left=left, witness=text)
    return CheckResult(
        "cyclotomic", FAIL,
        f"({left}) keeps non-cyclotomic factor ({poly_to_str(remainder)})",
        left=left, right=poly_to_str(remainder))


def cyclotomic_text(factors: dict[int, int]) -> str:
    if not factors:
        return "1"
    parts = []
    for n in sorted(factors):
        e = factors[n]
        parts.append(f"Phi_{n}" if e == 1 else f"Phi_{n}^{e}")
    return " * ".join(parts)


def run_verification(curve: CurveData, delta: LaurentPoly,
                     delta_inf: LaurentPoly | None = None) -> VerificationReport:
    if delta_inf is None:
        delta_inf = generic_infinity_delta(curve.degree)
    local = local_deltas(curve)
    factorization = None if delta.is_zero else cyclotomic_factorization(delta)
    return VerificationReport([
        check_infinity(delta, delta_inf),
        check_local(delta, curve, local, boundary_delta(curve, local), factorization),
        check_l1_bounds(delta, curve, derive_transverse(curve, local), factorization),
        check_cf_ledger(delta, curve, local, factorization),
        check_cyclotomic(delta, factorization),
    ])
