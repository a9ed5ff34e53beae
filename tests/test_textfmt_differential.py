"""Differential test: the regex term splitter of ``parse_poly`` against
the character loop it replaced.

``textfmt_reference.parse_poly`` is the previous parser, kept verbatim.
On seeded random strings over the characters of the format, both must
accept the same strings with the same polynomial and reject the same
strings with the same exception and message, for every ``nvars``.

With ``nvars=None`` the ring has as many variables as the largest index
needs, and both parsers build an exponent tuple that long for every
term: one string of this generator names t675887310.  Those strings
(an index of four or more digits) are left out at ``nvars=None`` only;
with a fixed ``nvars`` both parsers reject them before building a term.

Where the CLI echoes p/q text as written (``verify --delta``), the
parsed polynomial and the lcm of its denominators must print as the
reference's terms over Q print with ``Fraction`` coefficients.
"""

import random
import re

import pytest

from alexpoly.ring import parse_poly
from alexpoly.ring.textfmt import _parse_scaled, _quotient_str

import textfmt_reference as reference

CHARS = "t0123456789^+-*/ "
# pieces of the format, so that a fair share of the strings parse
TOKENS = ("t", "t", "t0", "t1", "t2", "^", "^-", "-", "+", "+", "-", "*",
          " ", "1", "2", "7", "10", "3/2", "0", "0/0", "/", "^2", "^-1")
_LONG_INDEX = re.compile(r"t\d{4}")


def _outcome(parse, text, nvars):
    try:
        p = parse(text, nvars=nvars)
    except Exception as exc:  # the type and message must agree too
        return "error", type(exc).__name__, str(exc)
    return "ok", p.nvars, p


def _strings(rng, count):
    for _ in range(count):
        if rng.random() < 0.5:
            yield "".join(rng.choice(CHARS) for _ in range(rng.randint(1, 10)))
        else:
            yield "".join(rng.choice(TOKENS) for _ in range(rng.randint(1, 8)))


@pytest.mark.parametrize("nvars", [None, 1, 2])
def test_parse_poly_matches_the_character_loop(nvars):
    rng = random.Random(20_241_010 + (nvars or 0))
    accepted = scaled = skipped = 0
    for text in _strings(rng, 10_000):
        if nvars is None and _LONG_INDEX.search("".join(text.split())):
            skipped += 1
            continue
        got = _outcome(parse_poly, text, nvars)
        assert got == _outcome(reference.parse_poly, text, nvars), text
        if got[0] == "ok":  # and prints as written, over its denominators
            n, terms, common = reference.parse_rational(text, nvars)
            assert _parse_scaled(text, nvars) == (got[2], common), text
            assert _quotient_str(got[2], common) == reference.rational_str(n, terms), text
            scaled += common != 1
        accepted += got[0] == "ok"
    assert accepted > 1_000  # the strings reach the term parser, not only the splitter
    assert scaled > 100  # p/q coefficients that are not whole numbers
    assert skipped < 200
