"""Mechanical checks relating a curve's polynomial invariant to the
local data of its singularities and its behaviour at infinity.

Five checks are run: divisibility into the invariant at infinity,
divisibility into the boundary product, bounds on the multiplicity of
(1 - t), a squared-divisibility budget after stripping (1 - t), and
cyclotomicity of the invariant.

The invariant, the invariant at infinity and the boundary product are
compared in cyclotomic coordinates (``curve.Factored``): the exponent of
each Phi_n and a remainder free of cyclotomic factors.  By unique
factorization in Q[t], a divides b exactly when no Phi_n has a larger
exponent in a than in b and a's remainder divides b's, so nothing is
expanded: only the remainders go through exact division, and every
quotient of remainders is re-verified by multiplying back.  Divisors,
quotients and boundary products print as ``Phi_n^e`` products with any
remainder appended in parentheses.

``run_verification`` derives the local invariants, the boundary product
and the invariant's cyclotomic factorization once for all checks; a
check that does not apply reports ``inapplicable`` and does not fail.
"""

from __future__ import annotations

from .curve import (CurveData, Factored, affine_counts, boundary_factors,
                    first_betti, local_deltas)
from .errors import ComputationError
from .ring import (
    LaurentPoly,
    cyclotomic_factorization,
    equal_up_to_units,
    exact_divide,
    normalize,
    poly_to_str,
)

PASS = "pass"
FAIL = "fail"
SKIP = "inapplicable"

_ONE_MINUS_T = LaurentPoly.univariate({0: 1, 1: -1})


class CheckResult:
    __slots__ = ("name", "status", "detail", "left", "right", "witness",
                 "ledger")

    def __init__(self, name: str, status: str, detail: str,
                 left: str | None = None, right: str | None = None,
                 witness: str | None = None, ledger: list | None = None):
        self.name = name
        self.status = status
        self.detail = detail
        self.left = left
        self.right = right
        self.witness = witness
        self.ledger = [] if ledger is None else ledger

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.status, self.detail, self.left, self.right,
                 self.witness, self.ledger)
                == (other.name, other.status, other.detail, other.left,
                    other.right, other.witness, other.ledger))

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


class VerificationReport:
    __slots__ = ("checks",)

    def __init__(self, checks: list[CheckResult]):
        self.checks = checks

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.checks == other.checks

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


def _factored(p: LaurentPoly) -> Factored:
    return None if p.is_zero else cyclotomic_factorization(p)


def _factored_division(divisor: Factored, dividend: Factored
                       ) -> tuple[bool, Factored]:
    """(divides, quotient) in cyclotomic coordinates."""
    if divisor is None:  # zero divides only zero, with quotient 1
        if dividend is None:
            return True, ({}, LaurentPoly.one(1))
        return False, None
    if dividend is None:
        return True, None
    (a, r), (b, s) = divisor, dividend
    if any(b.get(n, 0) < e for n, e in a.items()):
        return False, None
    ok, quotient = (True, s) if r.is_unit else _witnessed_division(r, s)
    if not ok:
        return False, None
    return True, ({n: e - a.get(n, 0) for n, e in b.items() if e != a.get(n, 0)},
                  quotient)


def _times_phi1(f: Factored, k: int) -> Factored:
    """f times Phi_1^k; k may be negative down to minus f's exponent."""
    if f is None:
        return None
    exps = dict(f[0])
    e = exps.pop(1, 0) + k
    if e:
        exps[1] = e
    return exps, f[1]


def factored_text(f: Factored) -> str:
    """``cyclotomic_text`` of the Phi_n exponents, times any remainder in
    parentheses; "0" for zero."""
    if f is None:
        return "0"
    factors, remainder = f
    if remainder.is_unit:
        return cyclotomic_text(factors)
    text = f"({poly_to_str(remainder)})"
    return f"{cyclotomic_text(factors)} * {text}" if factors else text


def generic_infinity_factors(degree: int) -> Factored:
    """(t - 1)(t^d - 1)^{d-2}, the invariant at infinity of a degree-d
    curve transverse to the line, in cyclotomic coordinates:
    Phi_1^(d-1) times Phi_n^(d-2) for every divisor n > 1 of d."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    exps = {n: degree - 1 if n == 1 else degree - 2
            for n in range(1, degree + 1) if degree % n == 0}
    return {n: e for n, e in exps.items() if e}, LaurentPoly.one(1)


def derive_transverse(curve: CurveData, local: list[LaurentPoly]) -> bool:
    """The line is transverse when it meets C in degree-many points and
    every such point is a plain crossing."""
    on_line = [(s, hat) for s, hat in zip(curve.singularities, local) if s.on_L]
    return len(on_line) == curve.degree and all(
        len(s.link.components) == 2 and equal_up_to_units(hat, _ONE_MINUS_T)
        for s, hat in on_line)


# ---------------------------------------------------------------------------
# the five checks


def check_infinity(delta: LaurentPoly, delta_inf: Factored,
                   factorization: Factored) -> CheckResult:
    """The invariant, factored as ``factorization``, divides the
    invariant at infinity ``delta_inf``."""
    ok, witness = _factored_division(factorization, delta_inf)
    left = poly_to_str(normalize(delta))
    right = factored_text(delta_inf)
    if ok:
        return CheckResult(
            "infinity", PASS,
            f"({left}) divides ({right})",
            left=left, right=right, witness=factored_text(witness))
    return CheckResult(
        "infinity", FAIL,
        f"({left}) does not divide ({right})",
        left=left, right=right)


def check_local(delta: LaurentPoly, curve: CurveData, bound: Factored,
                factorization: Factored) -> CheckResult:
    """The invariant divides the boundary product ``bound``; for an
    irreducible curve it already divides the product of the local
    invariants, ``bound`` without its (1 - t)^{b_1(C union L)}, and is
    coprime to 1 - t."""
    left = poly_to_str(normalize(delta))
    right = factored_text(bound)
    ok, witness = _factored_division(factorization, bound)
    if not ok:
        return CheckResult(
            "local", FAIL,
            f"({left}) does not divide the boundary product ({right})",
            left=left, right=right)
    detail = f"({left}) divides the boundary product"
    if curve.n_curve_components == 1:
        product = _times_phi1(bound, -first_betti(curve))
        ok2, _ = _factored_division(factorization, product)
        coprime = factorization is not None and 1 not in factorization[0]
        if not ok2:
            product_text = factored_text(product)
            return CheckResult(
                "local", FAIL,
                f"irreducible case: ({left}) does not divide the bare local "
                f"product ({product_text})",
                left=left, right=product_text)
        if not coprime:
            return CheckResult(
                "local", FAIL,
                f"irreducible case: ({left}) shares a factor with 1 - t",
                left=left, right=right)
        detail += "; irreducible extras hold"
    return CheckResult("local", PASS, detail,
                       left=left, right=right, witness=factored_text(witness))


def check_l1_bounds(delta: LaurentPoly, curve: CurveData, transverse: bool,
                    factorization: Factored) -> CheckResult:
    """Bounds on the multiplicity m of (1 - t) in the invariant:
    l - 1 <= m always, m <= d - 1 with a nonzero invariant when the
    line is transverse, and m = 0 for an irreducible curve.  m is None,
    printed as infinity, for the zero invariant."""
    ell = curve.n_curve_components
    m = None if factorization is None else factorization[0].get(1, 0)
    m_text = "infinity" if m is None else str(m)
    left = poly_to_str(normalize(delta))
    if m is not None and m < ell - 1:
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


def check_cf_ledger(delta: LaurentPoly, curve: CurveData, bound: Factored,
                    factorization: Factored) -> CheckResult:
    """Squared divisibility with a (1 - t) budget.

    Write the invariant as (1 - t)^a D and the boundary product ``bound``
    as (1 - t)^b R with D, R coprime to 1 - t.  The check requires
    2a <= b + e for e = l - s - chi and D^2 | R, and reports the budget
    per cyclotomic factor of R.  a and D come from ``factorization``.
    """
    if delta.is_zero:
        return CheckResult(
            "cf-ledger", FAIL,
            "zero invariant admits no squared-divisibility certificate")
    if bound is None:
        return CheckResult("cf-ledger", SKIP, "the boundary product is zero")
    counts = affine_counts(curve)
    e = counts.ell - counts.s_aff - counts.chi_ns
    a = factorization[0].get(1, 0)
    b = bound[0].get(1, 0)
    stripped = _times_phi1(factorization, -a)
    remainder = _times_phi1(bound, -b)

    ledger = []
    for n in sorted(remainder[0]):
        mult_r = remainder[0][n]
        mult_d = stripped[0].get(n, 0)
        ledger.append({"phi": n, "in_invariant": mult_d, "in_boundary": mult_r,
                       "ok": 2 * mult_d <= mult_r})
    ledger.append({"phi": 1, "in_invariant": a,
                   "in_boundary": b, "budget": e, "ok": 2 * a <= b + e})

    if 2 * a > b + e:
        return CheckResult(
            "cf-ledger", FAIL,
            f"(1 - t) budget violated: 2*{a} > {b} + {e}", ledger=ledger)
    square = ({n: 2 * k for n, k in stripped[0].items()},
              stripped[1] * stripped[1])
    ok, witness = _factored_division(square, remainder)
    if not ok:
        return CheckResult(
            "cf-ledger", FAIL,
            f"({factored_text(stripped)})^2 does not divide "
            f"({factored_text(remainder)})",
            left=factored_text(square), right=factored_text(remainder),
            ledger=ledger)
    noncyc = remainder[1]
    if not noncyc.is_unit:
        detail_extra = f"; boundary keeps non-cyclotomic part {poly_to_str(noncyc)}"
    else:
        detail_extra = ""
    return CheckResult(
        "cf-ledger", PASS,
        f"2a <= b + e ({2 * a} <= {b} + {e}) and the squared stripped "
        f"invariant divides the stripped boundary{detail_extra}",
        left=factored_text(square), right=factored_text(remainder),
        witness=factored_text(witness), ledger=ledger)


def check_cyclotomic(delta: LaurentPoly, factorization: Factored) -> CheckResult:
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
    """The five checks of ``delta`` against ``curve``, at infinity against
    ``delta_inf`` (by default the generic one, taken in closed form).
    InputError when a polynomial to factor, a hat included, is past
    ``MAX_DEGREE``."""
    if delta_inf is None:
        inf = generic_infinity_factors(curve.degree)
    else:
        inf = _factored(delta_inf)
    local = local_deltas(curve)
    factorization = _factored(delta)
    bound = boundary_factors(curve, local)
    return VerificationReport([
        check_infinity(delta, inf, factorization),
        check_local(delta, curve, bound, factorization),
        check_l1_bounds(delta, curve, derive_transverse(curve, local), factorization),
        check_cf_ledger(delta, curve, bound, factorization),
        check_cyclotomic(delta, factorization),
    ])
