"""Acceptance suite: one test (and one printed pass line) per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the criterion
lines; under plain ``pytest -v`` each test still reports pass or fail on
its own line.  Every comparison here is exact; there are no tolerances.
"""

import pathlib
import random

import pytest

from alexpoly.braid import (factorization_from_json, validate_factorization,
                            zvk_presentation)
from alexpoly.curve import (boundary_factors, curve_from_json, first_betti,
                            local_deltas)
from alexpoly.fox import alexander_one_variable
from alexpoly.group import (AbelMap, Presentation, Word, load_json_file,
                            parse_word)
from alexpoly.linkpoly import (hat_delta, link_from_json, marked_torus_link,
                               multivariable_delta, one_variable_delta,
                               torus_link)
from alexpoly.ring import (LaurentPoly, cyclotomic_factorization,
                           equal_up_to_units)
from alexpoly.verify import check_local, run_verification
from fox_reference import GroupRingElement, fox_derivative
from verify_reference import generic_infinity_delta, multiplicity

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
CURVE_SETS = ["two_lines", "three_lines", "conic_line", "nodal_cubic",
              "cuspidal_cubic", "zariski_sextic"]
CHECK_NAMES = ["infinity", "local", "l1-bounds", "cf-ledger", "cyclotomic"]


def done(n: int, label: str) -> None:
    print(f"criterion {n} ({label}): pass")


def t_poly(coeffs: dict[int, int]) -> LaurentPoly:
    return LaurentPoly.univariate(coeffs)


def load_delta(name: str):
    fact = factorization_from_json(
        load_json_file(str(DATA / name / "factorization.json")))
    pres, phi = zvk_presentation(fact)
    return alexander_one_variable(pres, phi)


def test_criterion_1_hat_closed_forms():
    one_minus_t = t_poly({0: 1, 1: -1})
    for d in (2, 3, 6):
        assert equal_up_to_units(hat_delta(marked_torus_link(2, d)),
                                 one_minus_t)
    for n, d in ((2, 4), (3, 5), (2, 6)):
        expected = one_minus_t * t_poly({n - d: 1, 0: -1}) ** (n - 1)
        assert equal_up_to_units(hat_delta(marked_torus_link(n + 1, d)),
                                 expected)
    for d in (2, 3):
        assert hat_delta(marked_torus_link(d + 1, d)).is_zero
    done(1, "hat invariant closed forms, both computation paths agreeing")


def test_criterion_2_one_variable_closed_form():
    for d in range(2, 6):
        expected = t_poly({1: 1, 0: -1}) * t_poly({d: 1, 0: -1}) ** (d - 2)
        assert equal_up_to_units(one_variable_delta(torus_link(d)), expected)
    done(2, "one-variable full-twist closures, d = 2..5")


def test_criterion_3_multivariable_closed_form():
    for n in (1, 2, 3):
        k = n + 1
        expected = LaurentPoly(k, {(1,) * k: 1, (0,) * k: -1}) ** (n - 1)
        assert equal_up_to_units(multivariable_delta(torus_link(k)), expected)
    done(3, "multivariable full-twist closures, n = 1..3")


def test_criterion_4_line_arrangements_end_to_end():
    assert equal_up_to_units(load_delta("two_lines"), t_poly({1: 1, 0: -1}))

    delta = load_delta("three_lines")
    t_minus_1 = t_poly({1: 1, 0: -1})
    assert equal_up_to_units(delta, t_minus_1 ** 2)

    gens = ["x1", "x2", "x3"]
    commutators = [parse_word(f"{a} {b} {a}^-1 {b}^-1", gens)
                   for a, b in (("x1", "x2"), ("x1", "x3"), ("x2", "x3"))]
    oracle = alexander_one_variable(
        Presentation(tuple(gens), tuple(commutators)), AbelMap.constant_one(3))
    assert equal_up_to_units(delta, oracle)

    m = multiplicity(delta, t_minus_1)
    assert m == 2 == 3 - 1, "both multiplicity bounds must be saturated"
    done(4, "line arrangements match the abelian oracle, bounds saturated")


@pytest.mark.parametrize("name", CURVE_SETS)
def test_criterion_5_divisibility_suite(name):
    curve = curve_from_json(load_json_file(str(DATA / name / "curve.json")))
    report = run_verification(curve, load_delta(name),
                              generic_infinity_delta(curve.degree))
    assert [c.name for c in report.checks] == CHECK_NAMES
    assert all(c.ok for c in report.checks)
    assert report.ok
    done(5, f"all five checks pass on {name}")


def test_criterion_6_fox_fundamental_identity():
    rng = random.Random(20260814)
    one = GroupRingElement.of_word(Word())
    for _ in range(500):
        rank = rng.randint(1, 5)
        letters = [rng.choice([-1, 1]) * rng.randint(1, rank)
                   for _ in range(rng.randint(0, 40))]
        w = Word((abs(v) - 1, 1 if v > 0 else -1) for v in letters)
        total = GroupRingElement.zero()
        for j in range(rank):
            x_j = GroupRingElement.of_word(Word([(j, 1)]))
            total = total + fox_derivative(w, j) * (x_j - one)
        assert total == GroupRingElement.of_word(w) - one
    done(6, "fundamental identity of the free calculus, 500 random words")


def _shipped_multicomponent_links():
    for path in sorted((DATA / "torus").glob("*.json")):
        link = link_from_json(load_json_file(str(path)))
        if link.n_colours() >= 2:
            yield path.name, link
    for name in CURVE_SETS:
        curve = curve_from_json(load_json_file(str(DATA / name / "curve.json")))
        for i, sing in enumerate(curve.singularities):
            if sing.link.n_colours() >= 2:
                yield f"{name}[{i}]", sing.link


def test_criterion_7_torres_consistency():
    one_minus_t = t_poly({0: 1, 1: -1})
    checked = 0
    for label, link in _shipped_multicomponent_links():
        single = one_variable_delta(link)
        collapsed = multivariable_delta(link).substitute((1,) * link.n_colours())
        assert equal_up_to_units(single, one_minus_t * collapsed), label
        checked += 1
    assert checked >= 4
    done(7, f"one-variable vs collapsed multivariable on {checked} links")


def test_criterion_8_six_cusp_sextic():
    fact = factorization_from_json(
        load_json_file(str(DATA / "zariski_sextic" / "factorization.json")))
    validate_factorization(fact)
    pres, phi = zvk_presentation(fact)
    delta = alexander_one_variable(pres, phi)
    assert equal_up_to_units(delta, t_poly({2: 1, 1: -1, 0: 1}))

    curve = curve_from_json(
        load_json_file(str(DATA / "zariski_sextic" / "curve.json")))
    assert check_local(delta, curve, boundary_factors(curve, local_deltas(curve)),
                       cyclotomic_factorization(delta)).ok
    assert first_betti(curve) == 13
    done(8, "six-cusp sextic: delta is the order-6 cyclotomic, b1 = 13")
