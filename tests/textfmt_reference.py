"""Reference polynomial parser: the character loop that split the text
into signed terms.

``ring.textfmt.parse_poly`` splits the whitespace-free text with one
regular expression instead.  This module keeps the previous parser
verbatim so the tests can check that both accept and reject the same
strings, with the same messages and the same polynomials.  Only its last
step is new: polynomials have integer coefficients, so it multiplies the
rational terms by the lcm of the denominators written in the text.

``parse_rational`` returns those terms over Q before that step, and
``rational_str`` prints them with ``Fraction`` coefficients, as the
printer did when polynomials stored them: the text that echoing p/q
input must give.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from alexpoly.errors import InputError
from alexpoly.ring.poly import LaurentPoly, grlex_key

_VAR_RE = re.compile(r"^t(\d*)(?:\^(-?\d+))?$")
_COEFF_RE = re.compile(r"^(\d+(?:/\d+)?)")


def parse_poly(text: str, nvars: int | None = None, source: str | None = None) -> LaurentPoly:
    """Parse the text polynomial format; raises InputError on bad input."""
    nvars, terms, common = parse_rational(text, nvars, source)
    return LaurentPoly(nvars, [(vec, int(c * common)) for vec, c in terms])


def parse_rational(text: str, nvars: int | None = None, source: str | None = None
                   ) -> tuple[int, list[tuple[tuple[int, ...], Fraction]], int]:
    """The number of variables, the terms over Q as written, and the lcm
    of the written denominators."""

    def fail(message: str) -> InputError:
        return InputError(message, source=source, field="polynomial")

    if "(" in text or ")" in text:
        raise fail("parentheses are not supported in polynomial syntax")
    compact = "".join(text.split())
    if not compact:
        raise fail("empty polynomial")

    # split into signed terms; a sign right after '^' belongs to an exponent
    term_texts: list[tuple[int, str]] = []
    sign, start = 1, 0
    if compact[0] in "+-":
        sign = -1 if compact[0] == "-" else 1
        start = 1
    pos = start
    current = []
    while pos < len(compact):
        ch = compact[pos]
        if ch in "+-" and compact[pos - 1] != "^":
            term_texts.append((sign, "".join(current)))
            current = []
            sign = -1 if ch == "-" else 1
        else:
            current.append(ch)
        pos += 1
    term_texts.append((sign, "".join(current)))

    indexed_seen = False
    plain_seen = False
    parsed: list[tuple[int, Fraction, dict[int, int]]] = []
    denominators = [1]
    for sign, body in term_texts:
        if not body:
            raise fail("empty term (stray sign?)")
        coeff = Fraction(1)
        rest = body
        m = _COEFF_RE.match(rest)
        if m:
            frac_text = m.group(1)
            if "/" in frac_text:
                num, den = frac_text.split("/")
                if int(den) == 0:
                    raise fail(f"zero denominator in coefficient {frac_text!r}")
                coeff = Fraction(int(num), int(den))
                denominators.append(int(den))
            else:
                coeff = Fraction(int(frac_text))
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
                    index = int(index_text)
                exp = int(exp_text) if exp_text is not None else 1
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

    terms = [(tuple(exps.get(i, 0) for i in range(nvars)), sign * coeff)
             for sign, coeff, exps in parsed]
    return nvars, terms, lcm(*denominators)


def rational_str(nvars: int, terms: list[tuple[tuple[int, ...], Fraction]]) -> str:
    """The sum of the terms over Q, printed as poly_to_str prints."""
    total: dict[tuple[int, ...], Fraction] = {}
    for vec, c in terms:
        total[vec] = total.get(vec, 0) + c
    pieces = []
    for vec in sorted((v for v, c in total.items() if c), key=grlex_key, reverse=True):
        c = total[vec]
        if nvars == 1:
            mono = "" if vec[0] == 0 else "t" if vec[0] == 1 else f"t^{vec[0]}"
        else:
            mono = "*".join(f"t{i}" if e == 1 else f"t{i}^{e}"
                            for i, e in enumerate(vec) if e)
        mag = str(abs(c))
        body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    if not pieces:
        return "0"
    out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return out + "".join(f" {sign} {body}" for sign, body in pieces[1:])
