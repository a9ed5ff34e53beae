"""Plain-text polynomial format.

Terms look like ``c*t^e`` (one variable) or ``c*t0^e0*t1^e1`` (several),
with integer or ``p/q`` coefficients, ``*`` optional around coefficients
of absolute value 1, ``^1`` optional, and insignificant whitespace.
Exponents may be negative (``t^-1``).  Parentheses are not supported.

Printing is deterministic: terms in descending graded-lex order, the
single-variable ring prints its variable as ``t``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ..errors import InputError
from .poly import LaurentPoly, Scalar, grlex_key

_VAR_RE = re.compile(r"^t(\d*)(?:\^(-?\d+))?$")
_COEFF_RE = re.compile(r"^(\d+(?:/\d+)?)")
_SIGN_RE = re.compile(r"(?<!\^)([+-])")  # a sign right after '^' belongs to an exponent

#: Largest number of variables ``parse_poly`` infers when ``nvars`` is
#: None: a higher index in the text is refused before any exponent tuple
#: that long is built.
MAX_VARIABLES = 1000


def parse_poly(text: str, nvars: int | None = None) -> LaurentPoly:
    """Parse the text polynomial format; raises InputError on bad input."""

    def fail(message: str) -> InputError:
        return InputError(message, field="polynomial")

    def number(digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # past Python's int digit limit
            raise fail(f"{len(digits)}-digit number is too long") from None

    if "(" in text or ")" in text:
        raise fail("parentheses are not supported in polynomial syntax")
    compact = "".join(text.split())
    if not compact:
        raise fail("empty polynomial")

    # split into [sign, body, sign, body, ...]: a leading sign leaves an
    # empty first piece, an unsigned first term takes "+"
    pieces = _SIGN_RE.split(compact)
    pieces[:1] = ["+", pieces[0]] if pieces[0] else []
    term_texts = [(-1 if sign == "-" else 1, body)
                  for sign, body in zip(pieces[::2], pieces[1::2])]

    indexed_seen = False
    plain_seen = False
    parsed: list[tuple[int, Scalar, dict[int, int]]] = []
    for sign, body in term_texts:
        if not body:
            raise fail("empty term (stray sign?)")
        coeff: Scalar = 1
        rest = body
        m = _COEFF_RE.match(rest)
        if m:
            frac_text = m.group(1)
            if "/" in frac_text:
                num, den = map(number, frac_text.split("/"))
                if den == 0:
                    raise fail(f"zero denominator in coefficient {frac_text!r}")
                coeff = Fraction(num, den)
            else:
                coeff = number(frac_text)
            rest = rest[m.end():]
            if rest.startswith("*"):
                rest = rest[1:]
                if not rest:
                    raise fail(f"dangling '*' in term {body!r}")
            elif rest:
                raise fail(f"missing '*' between coefficient and variables in {body!r}")
        exps: dict[int, int] = {}
        if rest:
            for factor in rest.split("*"):
                fm = _VAR_RE.match(factor)
                if not fm:
                    raise fail(f"cannot parse factor {factor!r} in term {body!r}")
                index_text, exp_text = fm.groups()
                if index_text == "":
                    plain_seen = True
                    index = 0
                else:
                    indexed_seen = True
                    index = number(index_text)
                    if nvars is None and index >= MAX_VARIABLES:
                        raise fail(f"variable index {index} exceeds the limit "
                                   f"{MAX_VARIABLES - 1}")
                exp = number(exp_text) if exp_text is not None else 1
                exps[index] = exps.get(index, 0) + exp
        parsed.append((sign, coeff, exps))

    if plain_seen and indexed_seen:
        raise fail("cannot mix plain 't' with indexed variables t0, t1, ...")
    used = max((max(e) + 1 for _, _, e in parsed if e), default=1)
    if nvars is None:
        nvars = used
    elif used > nvars:
        raise fail(f"variable index {used - 1} out of range for {nvars} variable(s)")
    if plain_seen and nvars != 1:
        raise fail("plain 't' denotes the single-variable ring")

    terms = []
    for sign, coeff, exps in parsed:
        vec = tuple(exps.get(i, 0) for i in range(nvars))
        terms.append((vec, sign * coeff))
    return LaurentPoly(nvars, terms)


def _monomial_str(exps: tuple[int, ...], univariate: bool) -> str:
    if univariate:
        e = exps[0]
        if e == 0:
            return ""
        return "t" if e == 1 else f"t^{e}"
    parts = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        parts.append(f"t{i}" if e == 1 else f"t{i}^{e}")
    return "*".join(parts)


def _coeff_str(c: Scalar) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def poly_to_str(p: LaurentPoly) -> str:
    if p.is_zero:
        return "0"
    univariate = p.nvars == 1
    pieces = []
    for exps in sorted(p.terms, key=grlex_key, reverse=True):
        coeff = p.terms[exps]
        mono = _monomial_str(exps, univariate)
        mag = abs(coeff)
        if not mono:
            body = _coeff_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_coeff_str(mag)}*{mono}"
        pieces.append((coeff < 0, body))
    first_neg, first_body = pieces[0]
    out = ("-" if first_neg else "") + first_body
    for neg, body in pieces[1:]:
        out += f" {'-' if neg else '+'} {body}"
    return out
