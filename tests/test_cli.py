"""End-to-end tests for the command line interface.

Each subcommand is exercised against the shipped data files, checking the
three exit statuses (0 success, 1 failed check, 2 bad input) and that
``--output json`` is byte-for-byte reproducible.
"""

import argparse
import json
import pathlib
import random
import resource
import shlex
import subprocess
import sys

import pytest

import alexpoly.braid
import alexpoly.cli
import alexpoly.curve
import alexpoly.linkpoly
import alexpoly.ring.cyclotomic
from alexpoly.braid import MAX_COORDINATE_BITS, MAX_SYLLABLES
from alexpoly.cli import COMMANDS, build_parser, main, parse_well_formed
from alexpoly.group import MAX_LETTERS
from alexpoly.ring import MAX_VARIABLES, LaurentPoly, poly_to_str
from verify_reference import arrangement_curve

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


FOX_FILE = str(DATA / "groups" / "trefoil.json")
LINK_FILE = str(DATA / "torus" / "t22.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fox_trefoil_text(capsys):
    code, out, err = run_cli(capsys, "fox", str(DATA / "groups" / "trefoil.json"),
                             "--one")
    assert code == 0
    assert out.strip() == "t^2 - t + 1"
    assert err == ""


def test_fox_free_group_json(capsys):
    code, out, _ = run_cli(capsys, "fox",
                           str(DATA / "groups" / "free_rank_two.json"),
                           "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"alexander": "0", "variables": 2}


def test_zvk_two_lines_text(capsys):
    code, out, _ = run_cli(capsys, "zvk",
                           str(DATA / "two_lines" / "factorization.json"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("generators:")
    assert lines[-1] == "alexander: t - 1"


def test_zvk_sextic_json(capsys):
    code, out, _ = run_cli(capsys, "zvk",
                           str(DATA / "zariski_sextic" / "factorization.json"),
                           "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alexander"] == "t^2 - t + 1"
    assert payload["generators"] == ["x1", "x2", "x3", "x4", "x5", "x6"]


def test_closure_hat_marked_torus(capsys):
    code, out, _ = run_cli(capsys, "closure", str(DATA / "torus" / "t22.json"),
                           "--hat")
    assert code == 0
    assert out.strip() == "t - 1"


def test_closure_default_one_variable(capsys):
    code, out, _ = run_cli(capsys, "closure", str(DATA / "torus" / "t33.json"),
                           "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "one-variable"
    assert payload["variables"] == 1


def test_closure_multi_flag(capsys):
    code, out, _ = run_cli(capsys, "closure", str(DATA / "torus" / "t33.json"),
                           "--multi", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "multivariable"
    assert payload["variables"] == 3


def arrangement_factorization(tmp_path, n):
    """Generic n-line arrangement, A_ij = (s_{j-1} ... s_{i+1}) s_i^2 (...)^-1."""
    factors = []
    for j in range(2, n + 1):
        for i in range(1, j):
            conj = list(range(j - 1, i, -1))
            factors.append(conj + [i, i] + [-v for v in reversed(conj)])
    path = tmp_path / f"arrangement{n}.json"
    path.write_text(json.dumps({"strands": n, "factors": factors}),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("n", [6, 7, 8, 10, 12])
def test_zvk_multi_arrangement(capsys, tmp_path, n):
    # the Fox matrix is C(n, 2) x n; with the first column omitted, its
    # (n - 1)-minors are all multiples of u_0 = t0 - 1, and the fold stops
    # once their gcd reaches it, after n - 2 cyclic row windows
    path = arrangement_factorization(tmp_path, n)
    code, out, _ = run_cli(capsys, "zvk", str(path), "--multi")
    assert code == 0
    assert out.splitlines()[-1] == "alexander: 1"


def test_curve_sextic_json(capsys):
    code, out, _ = run_cli(capsys, "curve",
                           str(DATA / "zariski_sextic" / "curve.json"),
                           "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 6
    assert payload["curve_components"] == 1
    assert payload["first_betti"] == 13
    # the boundary product (1 - t)^13 (1 - t)^6 (t^2 - t + 1)^6, factored
    assert payload["boundary_delta"] == "Phi_1^19 * Phi_6^6"


@pytest.mark.parametrize("name", ["two_lines", "cuspidal_cubic",
                                  "zariski_sextic"])
def test_verify_passes(capsys, name):
    code, out, _ = run_cli(capsys, "verify",
                           str(DATA / name / "curve.json"),
                           str(DATA / name / "factorization.json"))
    assert code == 0
    assert out.strip().endswith("overall: pass")


def test_closure_bare_braid_with_flags(capsys, tmp_path):
    path = tmp_path / "hopf_braid.json"
    path.write_text(json.dumps({"strands": 2, "word": [1, 1]}),
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, "closure", str(path), "--hat", "6",
                           "--marked", "1")
    assert code == 0
    assert out.strip() == "t - 1"

    code, out, _ = run_cli(capsys, "closure", str(path), "--multi")
    assert code == 0
    assert out.strip() == "1"

    code, _, err = run_cli(capsys, "closure", str(path), "--hat", "6",
                           "--marked", "5")
    assert code == 2
    assert "base strand" in err


@pytest.mark.parametrize("hat, well_formed", [
    (["--hat", "-3"], False),  # a separate value starting with '-': argparse
    (["--hat=-3"], True),
])
def test_closure_negative_hat_degree(capsys, hat, well_formed):
    argv = ["closure", str(DATA / "torus" / "t33.json")] + hat
    assert (parse_well_formed(argv) is not None) == well_formed
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.strip() == (f"error: {argv[1]}: field '--hat': degree -3 "
                           "is negative")
    assert "Traceback" not in err


@pytest.mark.parametrize("hat", [["--hat", "5"], ["--hat=5"]])
@pytest.mark.parametrize("bare", [False, True])
def test_closure_hat_degree_needs_a_marked_component(capsys, tmp_path, hat,
                                                     bare):
    # the trefoil link file marks no component, nor does a bare braid
    # without --marked
    path = DATA / "torus" / "trefoil.json"
    if bare:
        path = tmp_path / "hopf.json"
        path.write_text(json.dumps({"strands": 2, "word": [1, 1]}),
                        encoding="utf-8")
    code, out, err = run_cli(capsys, "closure", str(path), *hat)
    assert code == 2
    assert out == ""
    assert err.strip() == (f"error: {path}: field '--hat': a degree needs a "
                           "marked component")
    assert "Traceback" not in err


@pytest.mark.parametrize("hat", [["--hat"], ["--hat", "0"], ["--hat=0"]])
def test_closure_hat_without_degree_on_unmarked_link(capsys, hat):
    code, out, _ = run_cli(capsys, "closure",
                           str(DATA / "torus" / "trefoil.json"), *hat)
    assert code == 0
    assert out.strip() == "t^2 - t + 1"


@pytest.mark.parametrize("hat", [["--hat"], ["--hat", "0"], ["--hat=0"]])
def test_closure_hat_zero_is_the_file_degree(capsys, hat):
    code, out, _ = run_cli(capsys, "closure", str(DATA / "torus" / "t33.json"),
                           *hat)
    assert code == 0
    assert out.strip() == "t^2 - 2*t + 1"


def test_closure_one_flag_trefoil(capsys):
    code, out, _ = run_cli(capsys, "closure", str(DATA / "torus" / "trefoil.json"),
                           "--one")
    assert code == 0
    assert out.strip() == "t^2 - t + 1"


@pytest.mark.parametrize("flags", [[], ["--multi"], ["--hat"],
                                   ["--hat", "6", "--marked", "1"],
                                   ["--hat", "7"]])
@pytest.mark.parametrize("bare", [False, True])
def test_closure_computes_components_once(capsys, monkeypatch, tmp_path,
                                         flags, bare):
    # the decoder finds the components to check the colour keys (a bare
    # braid: to colour them) and hands them to the one MarkedLink it
    # builds, also when a --hat degree overrides a link file's
    calls = []
    count = alexpoly.braid.strand_components

    def counting(braid):
        calls.append(braid)
        return count(braid)

    for module in (alexpoly.braid, alexpoly.linkpoly, alexpoly.cli):
        monkeypatch.setattr(module, "strand_components", counting)
    path = DATA / "torus" / "t55.json"
    if bare:
        path = tmp_path / "t55_braid.json"
        path.write_text(json.dumps({"strands": 5, "word": [1, 2, 3, 4] * 5}),
                        encoding="utf-8")
        if flags == ["--hat", "7"]:
            flags = flags + ["--marked", "1"]
    elif "--marked" in flags:
        flags = ["--hat", "5"]  # the file's own marking and degree
    elif flags == ["--hat", "7"]:  # the file says degree 3
        path = DATA / "torus" / "t33.json"
    code, _, err = run_cli(capsys, "closure", str(path), *flags)
    assert (code, err) == (0, "")
    assert len(calls) == 1


def test_verify_delta_text_and_generic_infinity(capsys):
    code, out, _ = run_cli(capsys, "verify",
                           str(DATA / "conic_line" / "curve.json"),
                           "--delta", "1", "--infinity", "generic")
    assert code == 0
    assert out.strip().endswith("overall: pass")


def test_verify_delta_factorization_file(capsys):
    code, out, _ = run_cli(capsys, "verify",
                           str(DATA / "zariski_sextic" / "curve.json"),
                           "--delta",
                           str(DATA / "zariski_sextic" / "factorization.json"),
                           "--output", "json")
    assert code == 0
    assert json.loads(out)["alexander"] == "t^2 - t + 1"


def test_verify_delta_presentation_file(capsys):
    code, out, _ = run_cli(capsys, "verify",
                           str(DATA / "two_lines" / "curve.json"),
                           "--delta", str(DATA / "groups" / "trefoil.json"))
    assert code == 1
    assert "overall: fail" in out


def test_verify_infinity_link_file(capsys):
    code, out, _ = run_cli(capsys, "verify",
                           str(DATA / "two_lines" / "curve.json"),
                           str(DATA / "two_lines" / "factorization.json"),
                           "--infinity", str(DATA / "torus" / "t22.json"))
    assert code == 0
    assert out.strip().endswith("overall: pass")


def test_verify_needs_exactly_one_delta_source(capsys):
    code, _, err = run_cli(capsys, "verify",
                           str(DATA / "two_lines" / "curve.json"))
    assert code == 2
    assert "either a factorization file or --delta" in err

    code, _, err = run_cli(capsys, "verify",
                           str(DATA / "two_lines" / "curve.json"),
                           str(DATA / "two_lines" / "factorization.json"),
                           "--delta", "1")
    assert code == 2


def test_verify_wrong_infinity_fails(capsys):
    code, out, _ = run_cli(capsys, "verify",
                           str(DATA / "zariski_sextic" / "curve.json"),
                           str(DATA / "zariski_sextic" / "factorization.json"),
                           "--infinity", "1")
    assert code == 1
    assert "fail" in out


def test_cyclo_success(capsys):
    code, out, _ = run_cli(capsys, "cyclo", "t^2 - t + 1")
    assert code == 0
    assert out.strip() == "Phi_6"


def test_cyclo_product_json(capsys):
    code, out, _ = run_cli(capsys, "cyclo", "t^4 - 3*t^3 + 4*t^2 - 3*t + 1",
                           "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cyclotomic"] is True
    assert payload["factors"] == {"1": 2, "6": 1}
    assert payload["text"] == "Phi_1^2 * Phi_6"


def test_cyclo_parentheses_rejected(capsys):
    code, _, err = run_cli(capsys, "cyclo", "(t - 1)^2")
    assert code == 2
    assert "parentheses" in err


def test_cyclo_failure(capsys):
    code, out, _ = run_cli(capsys, "cyclo", "t^2 + t + 7")
    assert code == 1
    assert "not a cyclotomic product" in out


def test_cyclo_zero_rejected(capsys):
    code, _, err = run_cli(capsys, "cyclo", "0")
    assert code == 1
    assert "zero polynomial" in err


def test_cyclo_bad_poly_is_input_error(capsys):
    code, _, err = run_cli(capsys, "cyclo", "t^2 +")
    assert code == 2
    assert err.startswith("error:")


def test_cyclo_rejects_several_variables(capsys):
    code, out, err = run_cli(capsys, "cyclo", "t0*t1 - 1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: argument:")


def test_cyclo_degree_limit(capsys):
    code, out, err = run_cli(capsys, "cyclo", "t^1001 + 2")
    assert code == 2
    assert out == ""
    assert err.strip() == ("error: argument: degree 1001 exceeds the "
                           "cyclotomic extraction limit 1000")


def test_verify_delta_degree_limit(capsys):
    code, out, err = run_cli(capsys, "verify", str(DATA / "two_lines" / "curve.json"),
                             "--delta", "t^1001 + 2")
    assert code == 2
    assert out == ""
    assert err.strip() == ("error: --delta: degree 1001 exceeds the "
                           "cyclotomic extraction limit 1000")


def test_verify_infinity_degree_limit(capsys):
    # a sparse exponent parses at once; past the limit the written-out
    # polynomial would take time linear in its degree
    code, out, err = run_cli(capsys, "verify", str(DATA / "two_lines" / "curve.json"),
                             "--delta", "t - 1", "--infinity", "t^1000000000 - 1")
    assert code == 2
    assert out == ""
    assert err.strip() == ("error: --infinity: degree 1000000000 exceeds the "
                           "cyclotomic extraction limit 1000")


@pytest.mark.parametrize("argv", [
    ["verify", str(DATA / "zariski_sextic" / "curve.json"),
     str(DATA / "zariski_sextic" / "factorization.json")],
    ["verify", str(DATA / "zariski_sextic" / "curve.json"),
     "--delta", str(DATA / "groups" / "trefoil.json")],
])
def test_verify_computed_delta_degree_limit(capsys, monkeypatch, argv):
    # the polynomial computed from the file, t^2 - t + 1, is refused as
    # soon as it is known, with the file named
    monkeypatch.setattr(alexpoly.ring.cyclotomic, "MAX_DEGREE", 1)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.strip() == (f"error: {argv[-1]}: degree 2 exceeds the "
                           "cyclotomic extraction limit 1")


@pytest.mark.parametrize("delta, code, ledger", [
    ("t - 1", 0, "inapplicable cf-ledger: "),
    ("0", 1, "fail         cf-ledger: "),
])
def test_verify_zero_boundary_product(capsys, tmp_path, delta, code, ledger):
    # two lines meeting on L: the marked T(3,3) link of degree 2 has hat
    # invariant 0, so the boundary product is 0
    link = {"braid": {"strands": 3, "word": [1, 2, 1, 2, 1, 2]},
            "colours": {"1": 0, "2": 1, "3": 2}, "marked": 1, "degree": 2}
    curve = {"components": [{"name": n, "degree": 1, "genus": 0}
                            for n in ("L", "A", "B")],
             "singularities": [{"link": link, "on_L": True}]}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve), encoding="utf-8")
    got, out, err = run_cli(capsys, "verify", str(path), "--delta", delta)
    assert got == code
    assert ledger in out
    assert "Traceback" not in err


def count_calls(monkeypatch, module, name) -> list:
    """Rebind every alexpoly.* name bound to module.name to a wrapper
    that records each call; returns the record."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "alexpoly":
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)
    return calls


def test_verify_arrangement_derives_local_data_once(capsys, tmp_path,
                                                    monkeypatch):
    # 66 nodes and 12 points on L share two distinct links; checks that
    # each derived them for themselves made 168 hat_delta calls and two
    # boundary products.  The boundary product is never expanded: the
    # invariant is factored once, and so is t - 1, the hat of both links
    path = tmp_path / "arrangement12.json"
    path.write_text(json.dumps(arrangement_curve(12)), encoding="utf-8")
    delta = poly_to_str(LaurentPoly.univariate({0: -1, 1: 1}) ** 11)
    hats = count_calls(monkeypatch, alexpoly.linkpoly, "hat_delta")
    boundaries = count_calls(monkeypatch, alexpoly.curve, "boundary_delta")
    factored = count_calls(monkeypatch, alexpoly.ring.cyclotomic,
                           "cyclotomic_factorization")
    code, out, _ = run_cli(capsys, "verify", str(path), "--delta", delta)
    assert code == 0
    assert out.splitlines()[-1] == "overall: pass"
    assert len(hats) == 2
    assert len(boundaries) == 0
    assert len(factored) == 2


def test_verify_96_lines(capsys, tmp_path):
    # the generic 96-line arrangement with (t - 1)^95 written out: 4,560
    # nodes and 96 points on L; Delta_inf has degree 9,025 and is never
    # written out
    path = tmp_path / "arrangement96.json"
    path.write_text(json.dumps(arrangement_curve(96)), encoding="utf-8")
    delta = poly_to_str(LaurentPoly.univariate({0: -1, 1: 1}) ** 95)
    code, out, _ = run_cli(capsys, "verify", str(path), "--delta", delta)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "overall: pass"
    assert lines[0].endswith(
        "divides (Phi_1^95 * Phi_2^94 * Phi_3^94 * Phi_4^94 * Phi_6^94 * "
        "Phi_8^94 * Phi_12^94 * Phi_16^94 * Phi_24^94 * Phi_32^94 * "
        "Phi_48^94 * Phi_96^94)")
    assert lines[1].startswith("pass         local: ")


@pytest.mark.parametrize("argv", [["curve"], ["verify", "--delta", "1"]])
def test_hat_degree_limit_names_the_curve(capsys, monkeypatch, argv):
    # the cusp's hat t^2 - t + 1 is factored for the boundary product:
    # past the limit it is refused with the curve file named, like an
    # invariant past it
    monkeypatch.setattr(alexpoly.ring.cyclotomic, "MAX_DEGREE", 1)
    curve = str(DATA / "cuspidal_cubic" / "curve.json")
    code, out, err = run_cli(capsys, argv[0], curve, *argv[1:])
    assert (code, out) == (2, "")
    assert err == (f"error: {curve}: degree 2 exceeds the cyclotomic "
                   "extraction limit 1\n")


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "zvk", str(tmp_path / "nope.json"))
    assert code == 2
    assert "file not found" in err


def test_invalid_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "zvk", str(path))
    assert code == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize("kind, message", [
    ("not UTF-8", "invalid JSON: 'utf-8' codec can't decode byte 0xff"),
    ("directory", "cannot read: Is a directory"),
    ("5000-digit int", "invalid JSON: Exceeds the limit"),
    ("nested 100,000 deep", "invalid JSON: nested too deeply"),
])
def test_unreadable_file_is_input_error(capsys, tmp_path, kind, message):
    path = tmp_path / "presentation.json"
    if kind == "not UTF-8":
        path.write_bytes(b'{"generators": ["\xff"], "relators": []}')
    elif kind == "directory":
        path.mkdir()
    elif kind == "nested 100,000 deep":
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    else:
        path.write_text('{"generators": ["a"], "relators": [], "n": '
                        + "1" * 5000 + "}", encoding="utf-8")
    code, out, err = run_cli(capsys, "fox", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: {message}")


@pytest.mark.parametrize("argv", [
    ["cyclo", "1" * 5000 + "*t + 1"],
    ["verify", str(DATA / "two_lines" / "curve.json"), "--delta",
     "t^" + "1" * 5000],
])
def test_overlong_number_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith("field 'polynomial': 5000-digit number is too long\n")


def test_closure_syllable_budget(capsys, tmp_path):
    rng = random.Random(1)  # the word of test_braid's syllable budget test
    word = [rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(75)]
    path = tmp_path / "braid.json"
    path.write_text(json.dumps({"strands": 5, "word": word}), encoding="utf-8")
    code, out, err = run_cli(capsys, "closure", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: field 'word': the braid's generator "
                   f"images exceed {MAX_SYLLABLES} syllables\n")


def test_factorization_syllable_budget(capsys, tmp_path):
    # one factor w s_1 w^-1 with a random 40-letter w: its Artin images
    # once passed MAX_SYLLABLES, but the product is certified on Dynnikov
    # coordinates, and one conjugate of s_1 is not the full twist
    rng = random.Random(0)
    w = [rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(40)]
    path = tmp_path / "factorization.json"
    path.write_text(json.dumps({"strands": 5, "factors": [
        w + [1] + [-v for v in reversed(w)]]}), encoding="utf-8")
    for argv in (["zvk", str(path)],
                 ["verify", str(DATA / "two_lines" / "curve.json"), str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: field 'factors': product of the "
                       "factors is not the full twist\n")


def conjugated_arrangement(length: int) -> dict:
    """The generic 5-line arrangement with every factor conjugated by the
    same seeded random braid of `length` letters: the product is still
    the full twist, which is central."""
    rng = random.Random(0)
    c = [rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(length)]
    c_inv = [-v for v in reversed(c)]
    factors = []
    for j in range(2, 6):
        for i in range(1, j):
            w = list(range(j - 1, i, -1))
            factors.append(c + w + [i, i] + [-v for v in reversed(w)] + c_inv)
    return {"strands": 5, "factors": factors}


@pytest.mark.parametrize("length", [40, 60])
def test_conjugated_arrangement_is_validated(capsys, tmp_path, length):
    # the Artin images of the 40-letter product passed MAX_SYLLABLES
    path = tmp_path / "factorization.json"
    path.write_text(json.dumps(conjugated_arrangement(length)),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "zvk", str(path))
    assert (code, err) == (0, "")
    assert out.endswith("alexander: t^4 - 4*t^3 + 6*t^2 - 4*t + 1\n")


def test_conjugated_arrangement_relator_budget(capsys, tmp_path):
    # validation passes; the relator of factor 1, whose conjugator has 81
    # letters, passes MAX_SYLLABLES, and the message names the factor
    path = tmp_path / "factorization.json"
    path.write_text(json.dumps(conjugated_arrangement(80)), encoding="utf-8")
    assert run_cli(capsys, "zvk", str(path)) == (
        2, "", f"error: {path}: field 'factors': factor 1: the braid's "
        f"generator images exceed {MAX_SYLLABLES} syllables\n")


def test_pseudo_anosov_product_coordinate_bound(capsys, tmp_path):
    # (s_1 s_2^-1)^100000: the coordinates gain about 0.7 bits a letter,
    # so the action stops after about 1,500 of the 200,000 letters
    path = tmp_path / "factorization.json"
    path.write_text(json.dumps({"strands": 5, "factors": [[1], [-2]] * 100_000}),
                    encoding="utf-8")
    assert run_cli(capsys, "zvk", str(path)) == (
        2, "", f"error: {path}: field 'factors': the braid's Dynnikov "
        f"coordinates exceed {MAX_COORDINATE_BITS} bits\n")


def test_wide_factorization_in_linear_memory(tmp_path):
    # the full twist's coordinates on 100,000 strands take O(d) memory;
    # its Artin images in closed form would take O(d^2), tens of GB
    path = tmp_path / "factorization.json"
    path.write_text(json.dumps({"strands": 100_000, "factors": [[1]]}),
                    encoding="utf-8")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "alexpoly.cli", "zvk", str(path)],
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=limit_memory)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: {path}: field 'factors': product of the "
                           "factors is not the full twist\n")


def test_fox_relator_letter_budget(capsys, tmp_path):
    # 2,000,002 letters as written are refused before any word is built;
    # 200,002 stay accepted
    path = tmp_path / "presentation.json"
    for n, want in ((100_000, (0, "t^100000 - 1\n", "")),
                    (1_000_000, (2, "", f"error: {path}: field 'relators': "
                                 "the relators hold 2000002 letters in all, "
                                 f"more than {MAX_LETTERS}\n"))):
        path.write_text(json.dumps({"generators": ["a", "b"], "relators": [
            f"a^{n} b a^-{n} b^-1"]}), encoding="utf-8")
        assert run_cli(capsys, "fox", str(path)) == want


def test_fox_phi_letter_budget(capsys, tmp_path):
    # the trefoil's 6 letters times images 100,000 stay accepted; times
    # 200,000 they pass MAX_LETTERS
    path = tmp_path / "trefoil.json"
    obj = json.loads(pathlib.Path(FOX_FILE).read_text(encoding="utf-8"))
    for top, want in ((100_000, (0, "t^200000 - t^100000 + 1\n", "")),
                      (200_000, (2, "", f"error: {path}: field 'phi': 6 "
                                 "relator letters times the largest |phi "
                                 "coordinate| 200000 is 1200000, more than "
                                 f"{MAX_LETTERS}\n"))):
        obj["phi"] = {"a": top, "b": top}
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert run_cli(capsys, "fox", str(path)) == want


@pytest.mark.parametrize("extra", [["--multi"], ["--hat", "3", "--marked", "1"]])
def test_closure_colour_budget(capsys, tmp_path, extra):
    # the closure of the trivial braid has one colour per strand
    path = tmp_path / "braid.json"
    path.write_text(json.dumps({"strands": MAX_VARIABLES + 1, "word": []}),
                    encoding="utf-8")
    assert run_cli(capsys, "closure", str(path), *extra) == (
        2, "", f"error: {path}: field 'colours': the link has "
        f"{MAX_VARIABLES + 1} colours; the multivariable invariant takes at "
        f"most {MAX_VARIABLES}\n")


@pytest.mark.parametrize("argv", [
    ["curve", "CURVE"],
    ["verify", "CURVE", "--delta", "t - 1"],
    ["verify", str(DATA / "two_lines" / "curve.json"), "--delta", "t - 1",
     "--infinity", "LINK"],
])
def test_curve_link_syllable_budget(capsys, tmp_path, argv):
    # the braid of the closure test as a link file (LINK) and at the node
    # of two_lines (CURVE); the diagnostic names the file that holds it
    rng = random.Random(1)
    word = [rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(75)]
    link = {"braid": {"strands": 5, "word": word},
            "colours": {"1": 1, "2": 2}}  # components (1, 3, 4) and (2, 5)
    curve = json.loads((DATA / "two_lines" / "curve.json")
                       .read_text(encoding="utf-8"))
    curve["singularities"][0]["link"] = link
    files = {"CURVE": tmp_path / "curve.json", "LINK": tmp_path / "link.json"}
    files["CURVE"].write_text(json.dumps(curve), encoding="utf-8")
    files["LINK"].write_text(json.dumps(link), encoding="utf-8")
    code, out, err = run_cli(capsys, *(str(files.get(a, a)) for a in argv))
    path = files["LINK" if "LINK" in argv else "CURVE"]
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: field 'word': the braid's generator "
                   f"images exceed {MAX_SYLLABLES} syllables\n")


def test_wrong_shape_is_input_error(capsys, tmp_path):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"strands": "six"}), encoding="utf-8")
    code, _, err = run_cli(capsys, "zvk", str(path))
    assert code == 2
    assert "strands" in err


def test_zvk_rejects_factor_not_conjugate_of_generator_power(capsys, tmp_path):
    # (s1 s2)^3 is the full twist, but s1 s2 is not w s_i^k w^-1
    path = tmp_path / "not_conjugates.json"
    path.write_text(json.dumps({"strands": 3, "factors": [[1, 2]] * 3}),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "zvk", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: field 'factors': factor 0 ")


@pytest.mark.parametrize("argv", [["curve"], ["verify", "--delta", "1"]])
@pytest.mark.parametrize("names, singularities, apart", [
    ("LA", [], "'A'"),
    # A and B meet each other but neither meets the line
    ("LAB", [{"link": {"braid": {"strands": 2, "word": [1, 1]},
                       "colours": {"1": 1, "2": 2}}, "on_L": False}],
     "'A', 'B'"),
])
def test_disconnected_divisor_is_input_error(capsys, tmp_path, argv, names,
                                             singularities, apart):
    comps = [{"name": name, "degree": 1, "genus": 0} for name in names]
    path = tmp_path / "apart.json"
    path.write_text(json.dumps({"components": comps,
                                "singularities": singularities}),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert err == (f"error: {path}: field 'singularities': no chain of "
                   f"singular points joins {apart} to the line; plane "
                   "curves always meet, so the divisor must be connected\n")


def test_validation_diagnostic_names_the_file(capsys, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"strands": 3, "factors": [[1, 1]]}),
                    encoding="utf-8")
    curve = str(DATA / "three_lines" / "curve.json")
    expected = (f"error: {path}: field 'factors': product of the factors "
                "is not the full twist\n")
    for argv in (("zvk", str(path)), ("verify", curve, str(path)),
                 ("verify", curve, "--delta", str(path))):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err == expected, argv


@pytest.mark.parametrize("presentation, field, message", [
    ({"generators": ["a", "a"]}, "generators", "generator names must be distinct"),
    ({"generators": ["a", "b"], "phi": {"a": [], "b": []}}, "phi",
     "rank must be at least 1"),
])
def test_presentation_constructor_errors_are_input_errors(
        capsys, tmp_path, presentation, field, message):
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps(presentation), encoding="utf-8")
    curve = str(DATA / "two_lines" / "curve.json")
    for argv in (("fox", str(path)), ("verify", curve, "--delta", str(path))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == f"error: {path}: field '{field}': {message}\n", argv


HOPF = {"strands": 2, "word": [1, 1]}


@pytest.mark.parametrize("link, field, message", [
    (HOPF, "braid", "braid must be a JSON object"),   # a bare braid file
    ({"braid": 5, "colours": {"1": 1}}, "braid", "braid must be a JSON object"),
    ({"braid": HOPF, "colours": {"1": 0, "2": 1}, "marked": 1, "degree": 0},
     "degree", "a marked link needs a degree >= 1"),
    ({"braid": HOPF, "colours": {"1": 0, "2": 1}, "marked": 1},
     "degree", "a marked link needs a degree >= 1"),
])
def test_link_diagnostics_name_the_field(capsys, tmp_path, link, field, message):
    path = tmp_path / "link.json"
    path.write_text(json.dumps(link), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify",
                             str(DATA / "two_lines" / "curve.json"),
                             str(DATA / "two_lines" / "factorization.json"),
                             "--infinity", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: field '{field}': {message}\n"

    # the same link as the singularity of a curve
    curve = json.loads((DATA / "two_lines" / "curve.json").read_text("utf-8"))
    marked = next(s for s in curve["singularities"] if s["on_L"])
    marked["link"] = link
    path.write_text(json.dumps(curve), encoding="utf-8")
    for argv in (("curve", str(path)), ("verify", str(path), "--delta", "1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == f"error: {path}: field '{field}': {message}\n", argv


def _two_lines_edited(edit):
    curve = json.loads((DATA / "two_lines" / "curve.json").read_text("utf-8"))
    edit(curve)
    return curve


def _two_lines_with(**component_a):
    return _two_lines_edited(lambda c: c["components"][1].update(component_a))


HOPF_MARKED = {"braid": HOPF, "colours": {"1": 0, "2": 1}, "marked": 1,
               "degree": 2}


@pytest.mark.parametrize("command, obj, field, message", [
    ("closure", {"strands": True, "word": []}, "strands",
     "strands must be an integer >= 2"),
    ("closure", {"strands": 2, "word": [True, True, True]}, "word",
     "word must be a list of nonzero integers"),
    ("zvk", {"strands": 2, "factors": [[True, True]]}, "factors",
     "factor 0 must be a list of integers"),
    ("closure", {"braid": HOPF, "colours": {"1": 1, "2": True}}, "colours",
     "colour of strand 2 must be an integer"),
    ("closure", dict(HOPF_MARKED, marked=True), "marked",
     "marked must be the base strand of a component or null"),
    ("closure", dict(HOPF_MARKED, degree=True), "degree",
     "degree must be an integer or null"),
    ("fox", {"generators": ["a"], "relators": [], "phi": {"a": True}}, "phi",
     "phi['a'] must be an integer or a list of integers"),
    ("curve", _two_lines_with(degree=True), "components",
     "component 1 needs integer degree and genus"),
    ("curve", _two_lines_with(genus=False), "components",
     "component 1 needs integer degree and genus"),
], ids=["strands", "word", "factor letters", "colour", "marked", "degree",
        "phi", "component degree", "component genus"])
def test_boolean_is_not_an_integer(capsys, tmp_path, command, obj, field,
                                   message):
    # JSON true and false decode to Python bools, which are ints; with
    # the same value in place of each boolean, every file but the first
    # is accepted
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: field '{field}': {message}\n"


@pytest.mark.parametrize("argv, obj, field, message", [
    (["curve"], _two_lines_edited(lambda c: c["components"][0].update(degree=2)),
     "components", "component 0 is the line: degree 1, genus 0"),
    (["curve"], _two_lines_edited(
        lambda c: c["singularities"][0]["link"]["colours"].update({"2": 7})),
     "singularities", "singularity 0 colours [7] do not name components"),
    (["curve"], _two_lines_edited(lambda c: c["singularities"][1].update(on_L=False)),
     "singularities", "singularity 1: a branch of colour 0 is required "
     "exactly when the point lies on the line"),
    (["curve"], _two_lines_edited(
        lambda c: c["singularities"][1]["link"].update(degree=5)),
     "singularities", "singularity 1: marked link degree 5 != curve degree 2"),
    (["curve"], _two_lines_edited(lambda c: c["singularities"][0].update(link=5)),
     "singularities", "link must be a JSON object"),
    (["closure", "--multi"], {"braid": {"strands": 2, "word": [1, 1, 1]},
                              "colours": {"1": 1}},
     "colours", "the multivariable invariant needs at least 2 colours"),
    (["closure", "--marked", "1"], HOPF_MARKED, "--marked",
     "--marked applies to bare braid files; this file sets the marking itself"),
    (["closure", "--marked", "1"], HOPF, "--hat",
     "a marked link needs a degree >= 1"),
    (["closure", "--marked", "1", "--hat", "3"], {"strands": 2, "word": [1]},
     "--marked", "at least one component needs a nonzero colour"),
], ids=["line", "colours", "on_L", "marked degree", "link", "one colour",
        "marked link file", "marked without degree", "only component marked"])
def test_diagnostics_name_the_field(capsys, tmp_path, argv, obj, field, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: field '{field}': {message}\n"


@pytest.mark.parametrize("colours, key", [
    ({"1": 1, "2": 2, "02": 3}, "02"),   # would override strand 2's colour
    ({"1": 1, " 2": 2}, " 2"),
    ({"+1": 1, "2": 2}, "+1"),
])
def test_colour_keys_are_plain_decimal(capsys, tmp_path, colours, key):
    # int() reads all of these; only the plain decimal spelling names a
    # strand, so no two keys can name the same one
    path = tmp_path / "link.json"
    path.write_text(json.dumps({"braid": HOPF, "colours": colours}),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "closure", str(path), "--multi")
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: field 'colours': colour key {key!r} is "
                   "not a strand number in plain decimal\n")


def test_json_output_is_deterministic(capsys):
    argv = ("verify", str(DATA / "zariski_sextic" / "curve.json"),
            str(DATA / "zariski_sextic" / "factorization.json"),
            "--output", "json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    payload = json.loads(first)
    assert payload["ok"] is True
    assert payload["alexander"] == "t^2 - t + 1"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "alexpoly.cli", "cyclo", "t^2 - t + 1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Phi_6" in proc.stdout


def test_cli_builds_parsers_only_for_help_and_errors(capsys, monkeypatch):
    # counts every ArgumentParser, subparsers included; a subclass put in
    # place of argparse.ArgumentParser would recurse, as argparse's own
    # __init__ calls super(ArgumentParser, self)
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["cyclo", "t - 1"]) == 0
    assert main(["closure", LINK_FILE, "--hat", "--output=json"]) == 0
    assert built == []
    # an abbreviation is left to the command's own parser
    assert main(["fox", FOX_FILE, "--on"]) == 0
    assert built == ["alexpoly fox"]
    for argv, code in ((["-h"], 0), (["bogus"], 2)):
        built.clear()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert len(built) == 1 + len(COMMANDS)
    capsys.readouterr()


def test_well_formed_call_imports_no_argparse_locale_or_dataclasses():
    # the records are plain classes: dataclasses would pull in inspect,
    # ast, dis and tokenize at every call's startup
    code = ("import sys\n"
            "import alexpoly.cli\n"
            "assert alexpoly.cli.main(['fox', sys.argv[1], '--one']) == 0\n"
            "print(sorted({'argparse', 'gettext', 'locale', 'dataclasses',\n"
            "              'inspect', 'ast', 'dis', 'tokenize'}\n"
            "             & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code, FOX_FILE],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "t^2 - t + 1\n[]\n"


def test_only_the_cli_module_freezes_the_import_heap():
    # cli's module body ends with gc.freeze(); the library modules make no
    # gc calls, so importing them alone freezes nothing
    code = ("import gc\n"
            "import alexpoly\n"
            "print(gc.get_freeze_count())\n"
            "import alexpoly.cli\n"
            "print(gc.get_freeze_count() > 0)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "0\nTrue\n"


def subparser(name: str) -> argparse.ArgumentParser:
    """The parser build_parser() makes for subcommand `name`."""
    sub, = (action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    return sub.choices[name]


def exit_of(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_help_is_the_subparser_help(capsys, name):
    assert exit_of(capsys, main, [name, "-h"]) == (
        0, subparser(name).format_help(), "")


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["fox"], ["cyclo", "--output", "xml", "t"],
    ["closure", LINK_FILE, "--multi", "--hat"],
    ["closure", LINK_FILE, "--hat", "x"],
])
def test_usage_errors_match_the_full_parser(capsys, argv):
    code, out, err = exit_of(capsys, main, argv)
    assert (code, out) == (2, "")
    assert ": error: " in err
    assert exit_of(capsys, build_parser().parse_args, argv) == (code, out, err)


def test_unrecognized_argument_names_the_command(capsys):
    # the one stderr difference from the full parser: the command's own
    # parser reports the argument it does not know, with its own usage
    argv = ["fox", FOX_FILE, "--bogus"]
    assert exit_of(capsys, main, argv) == (
        2, "", subparser("fox").format_usage()
        + "alexpoly fox: error: unrecognized arguments: --bogus\n")
    code, out, err = exit_of(capsys, build_parser().parse_args, argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: alexpoly [-h]")
    assert err.endswith("alexpoly: error: unrecognized arguments: --bogus\n")


def test_option_spellings_accepted(capsys):
    fact = str(DATA / "two_lines" / "factorization.json")
    code, out, _ = run_cli(capsys, "cyclo", "--output=json", "t - 1")
    assert code == 0
    assert json.loads(out)["cyclotomic"] is True
    assert run_cli(capsys, "zvk", fact, "--mult") == run_cli(
        capsys, "zvk", fact, "--multi")


def readme_examples():
    """(command line, stdout) of every `$ alexpoly` example in README.md
    whose output is shown in full, that is without `...`."""
    examples, block, command, output = [], False, None, []
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            block = not block
        if command is not None and (not block or not line or line.startswith("$ ")):
            if not any("..." in out for out in output):
                examples.append((command, "".join(o + "\n" for o in output)))
            command = None
        if block and line.startswith("$ alexpoly "):
            command, output = line[len("$ alexpoly "):], []
        elif command is not None:
            output.append(line)
    return examples


README_EXAMPLES = readme_examples()


def test_readme_examples_found():
    commands = [command.split()[0] for command, _ in README_EXAMPLES]
    assert {"fox", "zvk", "closure", "cyclo"} <= set(commands)


@pytest.mark.parametrize("command,stdout", README_EXAMPLES,
                         ids=[c for c, _ in README_EXAMPLES])
def test_readme_example_output(capsys, monkeypatch, command, stdout):
    monkeypatch.chdir(ROOT)
    code, out, _ = run_cli(capsys, *shlex.split(command))
    assert code == 0
    assert out == stdout
