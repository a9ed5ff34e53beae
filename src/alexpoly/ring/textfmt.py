"""Plain-text polynomial format.

Terms look like ``c*t^e`` (one variable) or ``c*t0^e0*t1^e1`` (several),
with integer or ``p/q`` coefficients, ``*`` optional around coefficients
of absolute value 1, ``^1`` optional, and insignificant whitespace.
Exponents may be negative (``t^-1``).  Parentheses are not supported.
The parser multiplies every term by the lcm of the denominators in the
text, a unit over Q: ``1/2*t - 1/3`` reads as ``3*t - 2``.

Printing is deterministic: terms in descending graded-lex order, the
single-variable ring prints its variable as ``t``.
"""

from __future__ import annotations

import re
from math import gcd, lcm

from ..errors import InputError
from .poly import LaurentPoly, grlex_key

_VAR_RE = re.compile(r"^t(\d*)(?:\^(-?\d+))?$")
_COEFF_RE = re.compile(r"^(\d+(?:/\d+)?)")
_SIGN_RE = re.compile(r"(?<!\^)([+-])")  # a sign right after '^' belongs to an exponent

#: Largest number of variables ``parse_poly`` infers when ``nvars`` is
#: None: a higher index in the text is refused before any exponent tuple
#: that long is built.
MAX_VARIABLES = 1000


def parse_poly(text: str, nvars: int | None = None) -> LaurentPoly:
    """Parse the text polynomial format; raises InputError on bad input."""
    return _parse_scaled(text, nvars)[0]


def _parse_scaled(text: str, nvars: int | None = None) -> tuple[LaurentPoly, int]:
    """parse_poly's polynomial and the lcm of the denominators it cleared:
    the text reads as the first divided by the second."""

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
    # (signed numerator, denominator, exponents) per term
    parsed: list[tuple[int, int, dict[int, int]]] = []
    common = 1  # lcm of the denominators
    for sign, body in term_texts:
        if not body:
            raise fail("empty term (stray sign?)")
        coeff = den = 1
        rest = body
        m = _COEFF_RE.match(rest)
        if m:
            num_text, _, den_text = m.group(1).partition("/")
            coeff = number(num_text)
            if den_text:
                den = number(den_text)
                if den == 0:
                    raise fail(f"zero denominator in coefficient {m.group(1)!r}")
                common = lcm(common, den)
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
        parsed.append((sign * coeff, den, exps))

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
    for coeff, den, exps in parsed:
        vec = tuple(exps.get(i, 0) for i in range(nvars))
        terms.append((vec, coeff * (common // den)))
    return LaurentPoly(nvars, terms), common


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


def poly_to_str(p: LaurentPoly) -> str:
    return _quotient_str(p, 1)


def _quotient_str(p: LaurentPoly, den: int) -> str:
    """The text of p/den, each coefficient in lowest terms: what
    ``_parse_scaled`` read as (p, den) prints as it was written."""
    if p.is_zero:
        return "0"
    univariate = p.nvars == 1
    pieces = []
    for exps in sorted(p.terms, key=grlex_key, reverse=True):
        coeff = p.terms[exps]
        mono = _monomial_str(exps, univariate)
        g = gcd(coeff, den)  # |coeff| / den in lowest terms
        mag = str(abs(coeff) // g) if g == den else f"{abs(coeff) // g}/{den // g}"
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append((coeff < 0, body))
    first_neg, first_body = pieces[0]
    out = ("-" if first_neg else "") + first_body
    for neg, body in pieces[1:]:
        out += f" {'-' if neg else '+'} {body}"
    return out
