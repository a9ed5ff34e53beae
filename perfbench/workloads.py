"""The benchmark's workloads: their ops, generated inputs and references.

An op is one ``alexpoly`` CLI call.  Every op carries a check built from
hand-written references (closed forms and published values), never from
the package under test.  Seed 0 gives the canonical inputs; any other
seed rewrites the generated braid words (arrangement factors in another
standard form, the torus braid conjugated by a short seeded braid; the
braids and so every reference are unchanged) and shuffles the op order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from reference import (Poly, divisors, mul, parse, parse_cyclotomic, poly,
                       power, same_up_to_units)

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: Check


# ---------------------------------------------------------------------------
# checks


def expect_poly(reference: Poly, code: int = 0, prefix: str = "") -> Check:
    """stdout (or its line starting with prefix, parentheses removed)
    equals reference up to units."""
    def check(rc: int, stdout: str) -> str | None:
        if rc != code:
            return f"exit {rc}, expected {code}"
        lines = stdout.splitlines()
        if prefix:
            lines = [ln[len(prefix):] for ln in lines if ln.startswith(prefix)]
        if len(lines) != 1:
            return f"expected one polynomial line, got {stdout!r}"
        try:
            got = parse(lines[0].removeprefix("(").removesuffix(")"))
        except ValueError as exc:
            return str(exc)
        if not same_up_to_units(got, reference):
            return f"{lines[0]!r} differs from the reference"
        return None
    return check


def expect_exit(code: int) -> Check:
    def check(rc: int, stdout: str) -> str | None:
        if rc != code:
            return f"exit {rc}, expected {code}"
        if stdout:
            return f"unexpected stdout {stdout!r}"
        return None
    return check


def expect_verify_pass(rc: int, stdout: str) -> str | None:
    lines = stdout.splitlines()
    if rc != 0 or not lines or lines[-1] != "overall: pass":
        return f"exit {rc}, last line {lines[-1:]!r}, expected overall: pass"
    if len(lines) != 6 or not all(ln.startswith("pass ") for ln in lines[:-1]):
        return f"expected five passing checks, got {stdout!r}"
    return None


def expect_fields(fields: dict[str, int]) -> Check:
    """`key: value` lines of `curve` output match the published values."""
    def check(rc: int, stdout: str) -> str | None:
        if rc != 0:
            return f"exit {rc}, expected 0"
        got = dict(ln.split(": ", 1) for ln in stdout.splitlines() if ": " in ln)
        wrong = {k: got.get(k) for k, v in fields.items() if got.get(k) != str(v)}
        return f"fields differ from the published values: {wrong}" if wrong else None
    return check


def expect_cyclotomic(indices: dict[int, int]) -> Check:
    def check(rc: int, stdout: str) -> str | None:
        if rc != 0:
            return f"exit {rc}, expected 0"
        try:
            got = parse_cyclotomic(stdout)
        except ValueError as exc:
            return str(exc)
        return None if got == indices else f"{stdout.strip()!r} is not {indices}"
    return check


# ---------------------------------------------------------------------------
# reference polynomials

ONE = poly((1, {}))


def t_power_minus_one(k: int) -> Poly:
    return poly((1, {0: k}), (-1, {}))


def torus_one_variable(d: int) -> Poly:
    """T(d,d): (t - 1)(t^d - 1)^(d-2)."""
    return mul(t_power_minus_one(1), power(t_power_minus_one(d), d - 2))


def torus_multivariable(d: int) -> Poly:
    """T(d,d): (t0 t1 ... t(d-1) - 1)^(d-2)."""
    return power(poly((1, {v: 1 for v in range(d)}), (-1, {})), d - 2)


def torus_hat(d: int, degree: int) -> Poly:
    """Marked T(d,d) at the given degree: (1 - t)(t^(d-1-degree) - 1)^(d-2)."""
    return mul(poly((1, {}), (-1, {0: 1})),
               power(poly((1, {0: d - 1 - degree}), (-1, {})), d - 2))


# ---------------------------------------------------------------------------
# shipped: every CLI call over data/

# published values: tests/test_datasets.py EXPECTED_DELTA and the README
EXPECTED_DELTA = {
    "two_lines": "t - 1",
    "three_lines": "t^2 - 2*t + 1",
    "conic_line": "1",
    "nodal_cubic": "1",
    "cuspidal_cubic": "1",
    "zariski_sextic": "t^2 - t + 1",
}

# curve topology: tests/test_curve.py and the README for the frozen values;
# three_lines and cuspidal_cubic by hand from the component and point data
# (chi = sum(2 - 2g) - sum(b - 1), b1 = sum 2g + sum(b - 1) - components + 1)
CURVE_FIELDS = {
    "two_lines": (2, 2, 3, 1, 1, 0),
    "three_lines": (3, 3, 2, 3, 3, -3),
    "conic_line": (2, 1, 2, 1, 0, 0),
    "nodal_cubic": (3, 1, 0, 3, 1, -3),
    "cuspidal_cubic": (3, 1, 1, 2, 1, -2),
    "zariski_sextic": (6, 1, -10, 13, 6, -18),
}
CURVE_KEYS = ("degree", "curve components", "chi of the divisor",
              "first Betti number", "affine singular points", "affine chi bound")

TREFOIL = parse("t^2 - t + 1")


def shipped(root: Path, work: Path, rng: random.Random | None) -> list[Op]:
    ops = []
    for name, delta in EXPECTED_DELTA.items():
        curve, fact = f"data/{name}/curve.json", f"data/{name}/factorization.json"
        ops.append(Op(f"zvk {name}", ("zvk", fact),
                      expect_poly(parse(delta), prefix="alexander: ")))
        ops.append(Op(f"curve {name}", ("curve", curve),
                      expect_fields(dict(zip(CURVE_KEYS, CURVE_FIELDS[name])))))
        ops.append(Op(f"verify {name}", ("verify", curve, fact), expect_verify_pass))
    for group, delta in (("trefoil", TREFOIL), ("free_rank_two", {})):
        path = f"data/groups/{group}.json"
        ops.append(Op(f"fox {group}", ("fox", path), expect_poly(delta)))
        ops.append(Op(f"fox {group} --one", ("fox", path, "--one"),
                      expect_poly(delta)))
    for d in (2, 3, 4, 5):   # marked at strand 1 with degree d
        path = f"data/torus/t{d}{d}.json"
        ops.append(Op(f"closure t{d}{d}", ("closure", path),
                      expect_poly(torus_one_variable(d))))
        ops.append(Op(f"closure t{d}{d} --multi", ("closure", path, "--multi"),
                      expect_poly(torus_multivariable(d))))
        ops.append(Op(f"closure t{d}{d} --hat", ("closure", path, "--hat"),
                      expect_poly(torus_hat(d, d))))
    path = "data/torus/trefoil.json"
    ops.append(Op("closure trefoil", ("closure", path), expect_poly(TREFOIL)))
    ops.append(Op("closure trefoil --multi", ("closure", path, "--multi"),
                  expect_exit(2)))
    ops.append(Op("closure trefoil --hat", ("closure", path, "--hat"),
                  expect_poly(TREFOIL)))
    return ops


# ---------------------------------------------------------------------------
# arrangements: generic n-line arrangements


def arrangement_factors(n: int, rng: random.Random | None = None) -> list[list[int]]:
    """A_ij = (s_{j-1} ... s_{i+1}) s_i^2 (...)^-1 in (j, i) order.

    With a seed, each A_ij with j > i + 1 is written, by a coin flip, in
    its other standard form (s_{j-2} ... s_i)^-1 s_{j-1}^2 (s_{j-2} ... s_i):
    the same braid, a different word of the same length.  The factors,
    their order, the relators and so the minor gcd's route stay as at
    seed 0.  Conjugating the factors by a seeded braid instead would change
    the relators or their order, and with them the minor gcd's
    contraction path: on seeds 1-5 a random conjugator moved the n = 5 op
    between 10,626 and 27,405 row subsets, across the 20,000-subset switch
    in minors.py, and conjugating by powers of s_{n-1} ... s_1 changed the
    n = 6 and 7 ops twofold, so the spread would measure the seed.
    """
    factors = []
    for j in range(2, n + 1):
        for i in range(1, j):
            if rng is not None and j > i + 1 and rng.random() < 0.5:
                up = list(range(i, j - 1))
                factors.append([-v for v in up] + [j - 1, j - 1] + up[::-1])
            else:
                conj = list(range(j - 1, i, -1))
                factors.append(conj + [i, i] + [-v for v in reversed(conj)])
    return factors


def conjugate(word: list[int], g: list[int]) -> list[int]:
    return g + word + [-v for v in reversed(g)]


def arrangements(root: Path, work: Path, rng: random.Random | None) -> list[Op]:
    from alexpoly.braid import (BraidWord, braid_equal, factorization_from_json,
                                validate_factorization)

    ops = []
    for n in range(3, 8):
        factors = arrangement_factors(n, rng)
        for word, canonical in zip(factors, arrangement_factors(n)):
            if not braid_equal(BraidWord(n, tuple(word)), BraidWord(n, tuple(canonical))):
                raise AssertionError(f"seeded factor {word} is not {canonical}")
        obj = {"strands": n, "projective": False, "factors": factors}
        validate_factorization(factorization_from_json(obj))
        path = _write(root, work, f"arrangement{n}.json", obj)
        ops.append(Op(f"zvk arrangement{n}", ("zvk", path),
                      expect_poly(power(t_power_minus_one(1), n - 1),
                                  prefix="alexander: ")))
        if n <= 4:
            ops.append(Op(f"zvk arrangement{n} --multi", ("zvk", path, "--multi"),
                          expect_poly(ONE, prefix="alexander: ")))
    return ops


# ---------------------------------------------------------------------------
# links: torus links T(d,d)


def links(root: Path, work: Path, rng: random.Random | None) -> list[Op]:
    from alexpoly.braid import BraidWord, braid_equal, full_twist

    ops = []
    for d in range(3, 10):
        g = ([rng.choice((1, -1)) * rng.randint(1, d - 1) for _ in range(3)]
             if rng is not None else [])
        word = conjugate(list(range(1, d)) * d, g)
        if not braid_equal(BraidWord(d, tuple(word)), full_twist(d)):
            raise AssertionError(f"seeded T({d},{d}) braid is not the full twist")
        path = _write(root, work, f"torus{d}.json", {"strands": d, "word": word})
        ops.append(Op(f"closure T({d},{d})", ("closure", path),
                      expect_poly(torus_one_variable(d))))
        ops.append(Op(f"closure T({d},{d}) --multi", ("closure", path, "--multi"),
                      expect_poly(torus_multivariable(d))))
        ops.append(Op(f"closure T({d},{d}) --hat {d + 1} --marked 1",
                      ("closure", path, "--hat", str(d + 1), "--marked", "1"),
                      expect_poly(torus_hat(d, d + 1))))
    return ops


# ---------------------------------------------------------------------------
# cyclo: cyclotomic extraction at high degree


def cyclo(root: Path, work: Path, rng: random.Random | None) -> list[Op]:
    ops = []
    for n in (30, 60, 120):
        ops.append(Op(f"cyclo t^{n} - 1", ("cyclo", f"t^{n} - 1"),
                      expect_cyclotomic({d: 1 for d in divisors(n)})))
        # no root of t^n + 2 lies on the unit circle: nothing splits off
        ops.append(Op(f"cyclo t^{n} + 2", ("cyclo", f"t^{n} + 2"),
                      expect_poly(poly((1, {0: n}), (2, {})), code=1,
                                  prefix="not a cyclotomic product; remainder ")))
    return ops


def _write(root: Path, work: Path, name: str, obj: object) -> str:
    path = work / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path.relative_to(root))


WORKLOADS = {
    "shipped": shipped,
    "arrangements": arrangements,
    "links": links,
    "cyclo": cyclo,
}


def build(name: str, seed: int, root: Path, work: Path) -> list[Op]:
    """The workload's ops for this seed, with their inputs written to work."""
    rng = random.Random(seed) if seed else None
    ops = WORKLOADS[name](root, work, rng)
    if rng is not None:
        rng.shuffle(ops)
    return ops
