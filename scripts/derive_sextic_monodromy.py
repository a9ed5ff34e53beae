#!/usr/bin/env python3
"""Derive a braid monodromy factorization for a six-cuspidal sextic curve.

The curve is f(x, y) = f2(x, y)^3 + f3(x, y)^2 for a conic f2 and a cubic
f3 in general position.  Such a curve has degree six, six ordinary cusps
(at the intersection points of f2 and f3) and no other singularities.

Method: project to the x-axis, locate the critical values of the
projection exactly (Sylvester resultant over Z[x] by fraction-free
elimination, then a squarefree split to separate the six cusp values from
the twelve simple tangency values), and track the six roots of f(x, .)
numerically along a standard system of loops in the base.  Each loop
yields one braid factor in the form A * sigma_i^m * A^-1 with m = 3 at a
cusp and m = 1 at a tangency.

The numeric part only chooses words; everything that matters is certified
exactly afterwards: the factor product must equal the full twist of the
six-strand braid group (checked here and again in the test suite), and
the derived group presentation must give Alexander polynomial t^2 - t + 1.

Writes data/zariski_sextic/{factorization.json,curve.json,README.md}.
Requires numpy (a script-only dependency, not used by the package).
"""

from __future__ import annotations

import cmath
import json
import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from alexpoly.braid import (BraidWord, Factorization, braid_equal,
                            factorization_to_json, full_twist,
                            zvk_presentation)
from alexpoly.fox import alexander_one_variable
from alexpoly.ring import LaurentPoly, exact_divide, gcd, poly_to_str

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "data" / "zariski_sextic"


# ---------------------------------------------------------------------------
# exact polynomial helpers (x is variable 0, y is variable 1)

def poly2(terms: dict[tuple[int, int], int]) -> LaurentPoly:
    return LaurentPoly(2, terms)


def y_coefficients(f: LaurentPoly) -> list[LaurentPoly]:
    """Coefficients of f as a polynomial in y, each a polynomial in x."""
    deg = max(e[1] for e in f.terms)
    rows: list[dict[tuple[int], int]] = [{} for _ in range(deg + 1)]
    for (i, j), c in f.terms.items():
        rows[j][(i,)] = c
    return [LaurentPoly(1, r) for r in rows]


def x_degree(p: LaurentPoly) -> int:
    if not p.terms:
        return -1
    return max(e[0] for e in p.terms)


def x_derivative(p: LaurentPoly) -> LaurentPoly:
    return LaurentPoly(1, {(e - 1,): c * e for (e,), c in p.terms.items() if e})


def sylvester_resultant(p: list[LaurentPoly], q: list[LaurentPoly]) -> LaurentPoly:
    """Resultant of two y-polynomials with coefficients in Z[x].

    p and q are ascending coefficient lists.  Fraction-free (Bareiss)
    elimination keeps every entry a polynomial over Z: each division is
    exact in Z[x], by Sylvester's identity, although the divisor is not
    primitive.
    """
    m, n = len(p) - 1, len(q) - 1
    size = m + n
    zero = LaurentPoly.zero(1)
    mat = [[zero] * size for _ in range(size)]
    for r in range(n):
        for k in range(m + 1):
            mat[r][r + k] = p[m - k]
    for r in range(m):
        for k in range(n + 1):
            mat[n + r][r + k] = q[n - k]

    sign = 1
    prev = LaurentPoly.one(1)
    for k in range(size - 1):
        if mat[k][k].is_zero:
            swap = next((i for i in range(k + 1, size) if not mat[i][k].is_zero), None)
            if swap is None:
                return zero
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = mat[k][k] * mat[i][j] - mat[i][k] * mat[k][j]
                quot = exact_divide(num, prev)
                assert quot is not None, "fraction-free elimination must divide exactly"
                mat[i][j] = quot
            mat[i][k] = zero
        prev = mat[k][k]
    det = mat[size - 1][size - 1]
    return -det if sign < 0 else det


def squarefree_split(p: LaurentPoly) -> dict[int, LaurentPoly]:
    """Yun decomposition: p = unit * prod a_m^m with each a_m squarefree.

    The gcd works up to Laurent units, so a root at the origin would be
    silently absorbed; callers must reject polynomials with p(0) = 0.
    """
    assert p.coefficient((0,)) != 0, "origin must not be a root"
    dp = x_derivative(p)
    g = gcd(p, dp)
    b = exact_divide(p, g)
    c = exact_divide(dp, g)
    assert b is not None and c is not None
    parts: dict[int, LaurentPoly] = {}
    for m in range(1, x_degree(p) + 2):
        if x_degree(b) <= 0:
            return parts
        d = c - x_derivative(b)
        a = gcd(b, d)
        if x_degree(a) > 0:
            parts[m] = a
        b = exact_divide(b, a)
        c = exact_divide(d, a)
        assert b is not None and c is not None
    raise ArithmeticError("squarefree split did not terminate")


def np_roots(p: LaurentPoly) -> np.ndarray:
    deg = x_degree(p)
    coeffs = [0.0] * (deg + 1)
    for (e,), c in p.terms.items():
        coeffs[deg - e] = float(c)
    return np.roots(coeffs)


# ---------------------------------------------------------------------------
# numeric root tracking

class TrackingError(Exception):
    pass


def evaluator(coeffs: list[LaurentPoly]):
    """Return a function x -> descending numpy coefficients of f(x, .)."""
    tables = []
    for p in coeffs:
        d = x_degree(p)
        arr = np.zeros(max(d, 0) + 1, dtype=complex)
        for (e,), c in p.terms.items():
            arr[e] = complex(c)
        tables.append(arr)

    def at(x: complex) -> np.ndarray:
        vals = [np.polynomial.polynomial.polyval(x, t) for t in tables]
        return np.array(vals[::-1], dtype=complex)

    return at


def min_gap(points: list[complex]) -> float:
    return min(abs(a - b) for i, a in enumerate(points) for b in points[i + 1:])


# Strand order is read along a slightly tilted direction.  With real
# coefficients the fibre over every real x consists of conjugate pairs,
# so sorting by plain Re would see all pairs exchange order at the same
# instant whenever a path crosses the real axis; a fixed generic tilt
# makes every exchange an isolated single crossing.
TILT = cmath.exp(0.37j)


def tilt_key(z: complex) -> tuple[float, float]:
    w = z * TILT
    return (w.real, w.imag)


def match_roots(prev: list[complex], new: np.ndarray) -> list[complex]:
    """Assign each tracked strand the nearest new root, injectively."""
    n = len(prev)
    pairs = sorted((abs(prev[i] - new[j]), i, j) for i in range(n) for j in range(n))
    limit = 0.45 * min_gap(prev)
    out: list[complex | None] = [None] * n
    used = set()
    for d, i, j in pairs:
        if out[i] is None and j not in used:
            if d > limit:
                raise TrackingError("ambiguous root step")
            out[i] = complex(new[j])
            used.add(j)
    return out  # type: ignore[return-value]


def re_order(points: list[complex]) -> list[int]:
    return sorted(range(len(points)), key=lambda i: tilt_key(points[i]))


class Tracker:
    """Follows the fibre of the projection along a path, emitting letters."""

    def __init__(self, poly_at, state: list[complex]):
        self.poly_at = poly_at
        self.state = state
        self.letters: list[int] = []

    def advance(self, path, t0: float, t1: float, depth: int = 0) -> None:
        if depth > 48:
            raise TrackingError("step subdivision limit reached")
        try:
            new = match_roots(self.state, np.roots(self.poly_at(path(t1))))
        except TrackingError:
            mid = (t0 + t1) / 2
            self.advance(path, t0, mid, depth + 1)
            self.advance(path, mid, t1, depth + 1)
            return
        before, after = re_order(self.state), re_order(new)
        if before == after:
            self.state = new
            return
        swap = [i for i in range(len(before)) if before[i] != after[i]]
        adjacent = (len(swap) == 2 and swap[1] == swap[0] + 1
                    and before[swap[0]] == after[swap[1]]
                    and before[swap[1]] == after[swap[0]])
        if not adjacent:
            mid = (t0 + t1) / 2
            self.advance(path, t0, mid, depth + 1)
            self.advance(path, mid, t1, depth + 1)
            return
        i = swap[0]
        left_mover = before[i + 1]      # strand whose tilted-Re rank decreases
        right_mover = before[i]
        im_left = ((self.state[left_mover] * TILT).imag + (new[left_mover] * TILT).imag) / 2
        im_right = ((self.state[right_mover] * TILT).imag + (new[right_mover] * TILT).imag) / 2
        self.letters.append(i + 1 if im_left > im_right else -(i + 1))
        self.state = new

    def run(self, path, steps: int) -> None:
        for s in range(steps):
            self.advance(path, s / steps, (s + 1) / steps)


def track_segment(poly_at, state, z0: complex, z1: complex, steps: int = 48):
    t = Tracker(poly_at, state)
    t.run(lambda u: z0 + (z1 - z0) * u, steps)
    return t.letters, t.state


def track_circle(poly_at, state, centre: complex, start: complex, steps: int = 128):
    radius = abs(start - centre)
    phi0 = cmath.phase(start - centre)
    t = Tracker(poly_at, state)
    t.run(lambda u: centre + radius * cmath.exp(1j * (phi0 + 2 * math.pi * u)), steps)
    return t.letters, t.state


def loop_factor(poly_at, base_state, x0: complex, centre: complex, radius: float):
    """Braid letters of the loop (approach, full circle, retreat).

    The circle word may contain cancelling crossings of strands far from
    the critical point (their order along the tilted direction is not
    stable under small movements); only its exponent sum is pinned down,
    and it must be +1 at a tangency and +3 at a cusp.
    """
    target = centre + radius * (x0 - centre) / abs(x0 - centre)
    approach, state = track_segment(poly_at, list(base_state), x0, target)
    circle, state = track_circle(poly_at, state, centre, target)
    exponent = sum(1 if v > 0 else -1 for v in circle)
    return approach, circle, exponent


def clean_conjugate(strands: int, approach: list[int], circle: list[int],
                    exponent: int) -> tuple[list[int], bool]:
    """Try to rewrite the loop word as w sigma_i^m w^-1, verified exactly.

    The loop is approach * circle * approach^-1.  When the cancelling
    junk in the circle word surrounds a single genuine crossing site, the
    word equals (approach + prefix) sigma_i^m (approach + prefix)^-1 for
    some split of the circle; test each split with the exact braid
    equality.  Fall back to the raw word if no split works.
    """
    raw = approach + circle + [-v for v in reversed(approach)]
    target = BraidWord(strands, tuple(raw))
    for j, v in enumerate(circle):
        if v < 0:
            continue
        w = approach + circle[:j]
        candidate = w + [abs(v)] * exponent + [-u for u in reversed(w)]
        if braid_equal(BraidWord(strands, tuple(candidate)), target):
            return candidate, True
    return raw, False


# ---------------------------------------------------------------------------
# calibration: one simple branch point must give a positive half twist

def calibrate() -> None:
    poly_at = evaluator(y_coefficients(poly2({(0, 2): 1, (1, 0): -1})))  # y^2 - x
    base = 4.0 + 0j
    state = [complex(r) for r in sorted(np.roots(poly_at(base)), key=tilt_key)]
    approach, circle, exponent = loop_factor(poly_at, state, base, 0j, 0.5)
    assert (approach, circle, exponent) == ([], [1], 1), \
        f"sign calibration failed: {approach} {circle}"


# ---------------------------------------------------------------------------
# geometry of the loop system

def choose_base(points: list[complex], radii: list[float]) -> tuple[complex, list[float]]:
    """Base point whose straight rays to the critical values stay clear.

    Every approach segment must keep a safe margin from every other
    loop's circle, otherwise the loops would link each other and the
    factor product would no longer close up to the full twist.  Shrinking
    the circles improves the clearance ratio, so retry with smaller radii
    if no direction works outright.
    """
    scale = max(abs(p) for p in points)
    for _ in range(4):
        best, best_score = None, 0.0
        for ring in (2.2, 3.5):
            for k in range(120):
                cand = ring * scale * cmath.exp(2j * math.pi * k / 120) + 0.0131j
                score = _system_score(cand, points, radii)
                if score > best_score:
                    best, best_score = cand, score
        if best is not None and best_score > 1.25:
            return best, radii
        radii = [0.6 * r for r in radii]
    raise TrackingError("no admissible base point found")


def _system_score(cand: complex, points: list[complex], radii: list[float]) -> float:
    score = math.inf
    for i, c in enumerate(points):
        target = c + radii[i] * (cand - c) / abs(cand - c)
        for j, other in enumerate(points):
            if j == i:
                continue
            score = min(score, _point_segment_dist(other, cand, target) / radii[j])
    return score


def _point_segment_dist(p: complex, a: complex, b: complex) -> float:
    ab = b - a
    t = ((p - a) * ab.conjugate()).real / abs(ab) ** 2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * ab))


# ---------------------------------------------------------------------------
# the curve

def candidate_curves():
    """Conic-cubic pairs to try; the genericity filter picks the first good one.

    A mixed xy term in the cubic is essential: for f2 = y^2 + a(x) and
    f3 = y^3 + b(x) every cusp x-value would automatically be a tangency
    x-value as well (a^3 + b^2 vanishes there), collapsing the
    discriminant profile.
    """
    f2 = poly2({(0, 2): 1, (2, 0): 1, (0, 0): -1})  # y^2 + x^2 - 1
    cubics = [
        {(0, 3): 1, (1, 1): 1, (3, 0): -1, (1, 0): 2, (0, 0): -1},
        {(0, 3): 1, (1, 1): 1, (3, 0): 1, (1, 0): -2, (0, 0): 1},
        {(0, 3): 1, (1, 1): -1, (3, 0): 1, (2, 0): 1, (0, 0): -2},
        {(0, 3): 1, (1, 1): 2, (3, 0): -1, (2, 0): 1, (1, 0): 1, (0, 0): -3},
        {(0, 3): 1, (2, 1): 1, (3, 0): -1, (1, 0): 3, (0, 0): -2},
    ]
    for c in cubics:
        f3 = poly2(c)
        yield f2, f3, f2 ** 3 + f3 ** 2


def genericity_report(f: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Check the discriminant profile; return (cusp poly, tangency poly)."""
    coeffs = y_coefficients(f)
    assert len(coeffs) == 7 and x_degree(coeffs[6]) == 0, "projection must be proper"
    dy = [c * j for j, c in enumerate(coeffs)][1:]
    res = sylvester_resultant(coeffs, dy)
    assert x_degree(res) == 30, f"resultant degree {x_degree(res)} != 30"
    assert res.coefficient((0,)) != 0, "critical value at the origin"
    parts = squarefree_split(res)
    assert set(parts) == {1, 3}, f"discriminant multiplicities {sorted(parts)}"
    tangency, cusp = parts[1], parts[3]
    assert x_degree(tangency) == 12 and x_degree(cusp) == 6

    # the line at infinity must meet the sextic in six distinct points
    lead = LaurentPoly(1, {(j,): c for (i, j), c in f.terms.items() if i + j == 6})
    assert x_degree(lead) == 6 and x_degree(gcd(lead, x_derivative(lead))) == 0
    return cusp, tangency


# ---------------------------------------------------------------------------

def derive() -> tuple[Factorization, LaurentPoly, LaurentPoly]:
    calibrate()
    f = f2 = f3 = cusp_poly = tangency_poly = None
    for cand_f2, cand_f3, cand in candidate_curves():
        try:
            cusp_poly, tangency_poly = genericity_report(cand)
        except AssertionError as exc:
            print(f"rejecting a candidate: {exc}")
            continue
        f, f2, f3 = cand, cand_f2, cand_f3
        print("using f2 terms", dict(f2.terms), " f3 terms", dict(f3.terms))
        break
    if f is None:
        raise TrackingError("no candidate curve passed the genericity checks")

    cusp_x = [complex(z) for z in np_roots(cusp_poly)]
    tang_x = [complex(z) for z in np_roots(tangency_poly)]
    points = cusp_x + tang_x
    kinds = ["cusp"] * 6 + ["tangency"] * 12
    assert min_gap(points) > 1e-4, "critical values too close together"

    radii = [0.12 * min(abs(p - q) for q in points if q is not p) for p in points]
    x0, radii = choose_base(points, radii)

    order = sorted(range(18), key=lambda i: cmath.phase(points[i] - x0))
    poly_at = evaluator(y_coefficients(f))
    base_state = [complex(r) for r in sorted(np.roots(poly_at(x0)), key=tilt_key)]

    expected = {"cusp": 3, "tangency": 1}
    words: dict[int, list[int]] = {}
    clean = 0
    for i in range(18):
        approach, circle, exponent = loop_factor(poly_at, base_state, x0,
                                                 points[i], radii[i])
        if exponent != expected[kinds[i]]:
            raise TrackingError(
                f"local exponent {exponent} at a {kinds[i]} (expected "
                f"{expected[kinds[i]]})")
        letters, is_clean = clean_conjugate(6, approach, circle, exponent)
        clean += is_clean
        words[i] = letters
    print(f"{clean}/18 factors in explicit conjugate form")

    for ordering in (order, list(reversed(order))):
        factors = tuple(BraidWord(6, tuple(words[i])) for i in ordering)
        fact = Factorization(strands=6, factors=factors, projective=False)
        if braid_equal(fact.product(), full_twist(6)):
            return fact, f2, f3
    raise TrackingError("factor product does not close up to the full twist")


def poly2_str(p: LaurentPoly) -> str:
    """Render a 2-variable polynomial in x and y for the dataset notes."""
    def mono(i: int, j: int) -> str:
        parts = []
        if i:
            parts.append("x" if i == 1 else f"x^{i}")
        if j:
            parts.append("y" if j == 1 else f"y^{j}")
        return "*".join(parts)

    pieces = []
    for (i, j), c in sorted(p.terms.items(), key=lambda kv: (-kv[0][1], -kv[0][0])):
        m = mono(i, j)
        mag = abs(c)
        body = m if m and mag == 1 else (f"{mag}*{m}" if m else str(mag))
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) if pieces else "0"


def write_outputs(fact: Factorization, f2: LaurentPoly, f3: LaurentPoly) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    with open(OUT_DIR / "factorization.json", "w", encoding="utf-8") as fh:
        json.dump(factorization_to_json(fact), fh, indent=2)
        fh.write("\n")

    hopf = {"strands": 2, "word": [1, 1]}
    trefoil = {"strands": 2, "word": [1, 1, 1]}
    curve = {
        "components": [
            {"name": "L", "degree": 1, "genus": 0},
            {"name": "sextic", "degree": 6, "genus": 4},
        ],
        "singularities":
            [{"link": {"braid": trefoil, "colours": {"1": 1}}, "on_L": False}] * 6 +
            [{"link": {"braid": hopf, "colours": {"1": 0, "2": 1},
                       "marked": 1, "degree": 6}, "on_L": True}] * 6,
    }
    with open(OUT_DIR / "curve.json", "w", encoding="utf-8") as fh:
        json.dump(curve, fh, indent=2)
        fh.write("\n")

    readme = f"""# Six-cuspidal sextic

Braid monodromy of the sextic f2^3 + f3^2 with f2 = {poly2_str(f2)}
and f3 = {poly2_str(f3)}, derived by
scripts/derive_sextic_monodromy.py (numeric root tracking; see the
script for the method).  The eighteen factors are six cusp factors,
each a conjugate of a generator cubed, and twelve simple tangency
factors, each a conjugate of a generator.

The numeric step only proposes the words.  The test suite re-certifies
the data exactly: the factor product equals the full twist of the braid
group on six strands, and the induced presentation yields Alexander
polynomial t^2 - t + 1.

curve.json records the topology used by the divisibility checks: the
sextic is irreducible of genus 4 with six cusps off the reference line
and six transverse intersections with it.
"""
    with open(OUT_DIR / "README.md", "w", encoding="utf-8") as fh:
        fh.write(readme)


def main() -> None:
    fact, f2, f3 = derive()
    total = sum(sum(1 if v > 0 else -1 for v in w.letters) for w in fact.factors)
    print(f"factors: {len(fact.factors)}, exponent sum {total}")
    print("product equals full twist:", braid_equal(fact.product(), full_twist(6)))
    pres, phi = zvk_presentation(fact)
    delta = alexander_one_variable(pres, phi)
    print("Alexander polynomial:", poly_to_str(delta))
    write_outputs(fact, f2, f3)
    print(f"wrote {OUT_DIR}")


if __name__ == "__main__":
    main()
