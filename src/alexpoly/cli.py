"""Command line interface.

Subcommands:

  fox PRESENTATION.json     Alexander polynomial of a presented group
  zvk FACTORIZATION.json    presentation and polynomial from braid monodromy
  closure LINK.json         polynomials of a (marked) braid closure
  curve CURVE.json          topology derived from curve data
  verify CURVE.json [FACT.json | --delta ...]   divisibility checks
  cyclo POLY                cyclotomic factorization of a polynomial

Every subcommand accepts --output text|json; json output has sorted keys
and is byte-for-byte reproducible.  Exit status: 0 on success, 1 when a
check or computation fails, 2 for malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from .braid import (braid_from_json, factorization_from_json,
                    strand_components, zvk_presentation)
from .curve import (affine_counts, boundary_delta, curve_from_json,
                    euler_characteristic, first_betti, local_deltas)
from .errors import ComputationError, InputError
from .fox import alexander_one_variable, alexander_polynomial
from .group import AbelMap, Presentation, load_json_file, presentation_from_json
from .linkpoly import (MarkedLink, hat_delta, link_from_json,
                       multivariable_delta, one_variable_delta)
from .ring import (LaurentPoly, check_degree, cyclotomic_factorization,
                   normalize, parse_poly, poly_to_str)
from .verify import cyclotomic_text, run_verification


def _print(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _is_file(arg: str) -> bool:
    """Whether a --delta or --infinity value names a file, not polynomial text."""
    return os.path.exists(arg) or arg.endswith(".json")


def _presentation(obj: object, source: str) -> tuple[Presentation, AbelMap]:
    """A decoded presentation and its phi, by default every generator to t."""
    pres, phi = presentation_from_json(obj, source=source)
    if phi is None:
        phi = AbelMap.constant_one(len(pres.generators))
    return pres, phi


def cmd_fox(args: argparse.Namespace) -> int:
    pres, phi = _presentation(load_json_file(args.presentation),
                              args.presentation)
    delta = (alexander_one_variable(pres, phi) if args.one
             else alexander_polynomial(pres, phi))
    text = poly_to_str(delta)
    _print(args, {"alexander": text, "variables": delta.nvars}, text)
    return 0


def cmd_zvk(args: argparse.Namespace) -> int:
    fact = factorization_from_json(load_json_file(args.factorization),
                                   source=args.factorization)
    projective = True if args.projective else None
    pres, phi = zvk_presentation(fact, projective=projective,
                                 source=args.factorization)
    delta = (alexander_polynomial(pres, phi) if args.multi
             else alexander_one_variable(pres, phi))
    text = poly_to_str(delta)
    payload = {
        "alexander": text,
        "variables": delta.nvars,
        "generators": list(pres.generators),
        "relators": len(pres.relators),
    }
    lines = [f"generators: {' '.join(pres.generators)}",
             f"relators: {len(pres.relators)}",
             f"alexander: {text}"]
    _print(args, payload, "\n".join(lines))
    return 0


def _load_closure_link(args: argparse.Namespace) -> MarkedLink:
    """Accept either a link file or a bare braid file.

    For a bare braid, closure components get distinct colours in base
    strand order; --marked (a 1-based base strand) selects the colour-0
    component and --hat DEGREE supplies the degree.
    """
    degree = args.hat if isinstance(args.hat, int) and args.hat > 0 else None
    obj = load_json_file(args.link)
    if isinstance(obj, dict) and "braid" in obj:
        link = link_from_json(obj, source=args.link)
        if args.marked is not None:
            raise InputError("--marked applies to bare braid files; this "
                             "file sets the marking itself", source=args.link)
        if degree is not None and link.degree != degree:
            link = MarkedLink(link.braid, link.colours, marked=link.marked,
                              degree=degree)
        return link
    braid = braid_from_json(obj, source=args.link)
    bases = sorted(min(comp) for comp in strand_components(braid))
    marked = args.marked - 1 if args.marked is not None else None
    if marked is not None and marked not in bases:
        raise InputError("marked must be the base strand of a component "
                         f"{[b + 1 for b in bases]}", source=args.link,
                         field="--marked")
    colours, nxt = {}, 1
    for base in bases:
        if base == marked:
            colours[base] = 0
        else:
            colours[base] = nxt
            nxt += 1
    try:
        return MarkedLink(braid, colours, marked=marked, degree=degree)
    except ValueError as exc:
        raise InputError(str(exc), source=args.link) from exc


def cmd_closure(args: argparse.Namespace) -> int:
    link = _load_closure_link(args)
    try:
        if args.multi:
            kind, delta = "multivariable", multivariable_delta(link)
        elif args.hat is not None:
            kind, delta = "hat", hat_delta(link)
        else:
            kind, delta = "one-variable", one_variable_delta(link)
    except ValueError as exc:
        raise InputError(str(exc), source=args.link) from exc
    text = poly_to_str(delta)
    _print(args, {"alexander": text, "kind": kind, "variables": delta.nvars},
           text)
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    curve = curve_from_json(load_json_file(args.curve), source=args.curve)
    counts = affine_counts(curve)
    fields = [  # (JSON key, text label, value)
        ("degree", "degree", curve.degree),
        ("curve_components", "curve components", curve.n_curve_components),
        ("euler_characteristic", "chi of the divisor",
         euler_characteristic(curve)),
        ("first_betti", "first Betti number", first_betti(curve)),
        ("boundary_delta", "boundary delta",
         poly_to_str(boundary_delta(curve, local_deltas(curve)))),
        ("affine_points", "affine singular points", counts.s_aff),
        ("affine_chi", "affine chi bound", counts.chi_ns),
    ]
    _print(args, {key: value for key, _, value in fields},
           "\n".join(f"{label}: {value}" for _, label, value in fields))
    return 0


def _file_delta(path: str, presentation_ok: bool) -> LaurentPoly:
    """One-variable polynomial of the factorization in a JSON file, or,
    when presentation_ok, of the presentation in a file without "factors"."""
    obj = load_json_file(path)
    if presentation_ok and not (isinstance(obj, dict) and "factors" in obj):
        pres, phi = _presentation(obj, path)
    else:
        pres, phi = zvk_presentation(factorization_from_json(obj, source=path),
                                     source=path)
    return alexander_one_variable(pres, phi)


def cmd_verify(args: argparse.Namespace) -> int:
    curve = curve_from_json(load_json_file(args.curve), source=args.curve)
    if (args.factorization is None) == (args.delta is None):
        raise InputError("give either a factorization file or --delta, "
                         "not both", source="verify")
    if args.factorization is not None:
        delta, source = _file_delta(args.factorization, False), args.factorization
    elif _is_file(args.delta):
        delta, source = _file_delta(args.delta, True), args.delta
    else:
        delta, source = parse_poly(args.delta, nvars=1, source="--delta"), "--delta"
    check_degree(delta, source=source)
    if args.infinity is None or args.infinity == "generic":
        delta_inf = None  # run_verification derives the generic one
    elif _is_file(args.infinity):
        link = link_from_json(load_json_file(args.infinity),
                              source=args.infinity)
        delta_inf = one_variable_delta(link)
    else:
        delta_inf = parse_poly(args.infinity, nvars=1, source="--infinity")
    report = run_verification(curve, delta, delta_inf)
    payload = report.to_json()
    payload["alexander"] = poly_to_str(delta)
    _print(args, payload, report.to_text())
    return 0 if report.ok else 1


def cmd_cyclo(args: argparse.Namespace) -> int:
    p = parse_poly(args.poly, nvars=1, source="argument")
    if p.is_zero:
        print("error: the zero polynomial is not a cyclotomic product",
              file=sys.stderr)
        return 1
    check_degree(p, source="argument")
    factors, remainder = cyclotomic_factorization(normalize(p))
    if remainder.is_unit:
        text = cyclotomic_text(factors)
        _print(args, {"cyclotomic": True,
                      "factors": {str(n): e for n, e in factors.items()},
                      "text": text},
               text)
        return 0
    _print(args, {"cyclotomic": False,
                  "remainder": poly_to_str(remainder)},
           f"not a cyclotomic product; remainder ({poly_to_str(remainder)})")
    return 1


def _fox_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("presentation", help="presentation JSON file")
    p.add_argument("--one", action="store_true",
                   help="compose the abelianization to a single variable")


def _zvk_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("factorization", help="factorization JSON file")
    p.add_argument("--projective", action="store_true",
                   help="add the projective relation regardless of the file")
    p.add_argument("--multi", action="store_true",
                   help="one variable per curve component")


def _closure_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("link", help="link JSON file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--one", action="store_true",
                      help="single-variable polynomial (the default)")
    mode.add_argument("--multi", action="store_true",
                      help="one variable per colour")
    mode.add_argument("--hat", nargs="?", const=0, type=int, metavar="DEGREE",
                      help="specialized polynomial of a marked link; the "
                           "degree defaults to the one in the file")
    p.add_argument("--marked", type=int, metavar="STRAND",
                   help="base strand of the marked component (bare braid "
                        "files only)")


def _curve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("curve", help="curve JSON file")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("curve", help="curve JSON file")
    p.add_argument("factorization", nargs="?",
                   help="factorization JSON file (or use --delta)")
    p.add_argument("--delta", metavar="POLY_OR_JSON",
                   help="the curve polynomial, or a factorization or "
                        "presentation file to compute it from")
    p.add_argument("--infinity", metavar="POLY_OR_LINK",
                   help="polynomial at infinity: 'generic' (the default), "
                        "a link JSON file, or polynomial text")


def _cyclo_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("poly", help="polynomial, e.g. 't^2 - t + 1'")


class Command(NamedTuple):
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


COMMANDS: dict[str, Command] = {
    "fox": Command("Alexander polynomial of a presented group",
                   _fox_arguments, cmd_fox),
    "zvk": Command("presentation and polynomial from braid monodromy",
                   _zvk_arguments, cmd_zvk),
    "closure": Command("polynomials of a (marked) braid closure",
                       _closure_arguments, cmd_closure),
    "curve": Command("topology derived from curve data",
                     _curve_arguments, cmd_curve),
    "verify": Command("run the divisibility and cyclotomicity checks",
                      _verify_arguments, cmd_verify),
    "cyclo": Command("cyclotomic factorization of a polynomial",
                     _cyclo_arguments, cmd_cyclo),
}


def _fill_command_parser(p: argparse.ArgumentParser, name: str) -> None:
    """Give p the options of command `name`, --output first, as its help
    lists them."""
    p.add_argument("--output", choices=("text", "json"), default="text",
                   help="output format (default: text)")
    COMMANDS[name].add_arguments(p)
    p.set_defaults(func=COMMANDS[name].run)


def build_parser() -> argparse.ArgumentParser:
    """The full parser, with one subparser per entry of COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="alexpoly",
        description="Alexander polynomials of plane curve complements "
                    "and links, with exact divisibility checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _fill_command_parser(sub.add_parser(name, help=command.help), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Building and running the full parser (eight ArgumentParsers, with
    # gettext lookups, a HelpFormatter per add_argument and regex
    # compiles) took about 4.4 ms of a 4.7 ms `fox` call in a fresh
    # Python 3.11 process; the one parser of the named command takes about
    # 2.5 ms, most of it argparse's first use (the locale import).  So a
    # named command gets only the parser build_parser() makes as its
    # subparser; no arguments, -h or an unknown command go to the full
    # parser for its help and errors.
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"alexpoly {argv[0]}")
        _fill_command_parser(parser, argv[0])
        args = parser.parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
