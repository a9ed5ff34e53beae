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

import contextlib
import gc
import json
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .braid import (_generator_names, _zvk_rows, braid_from_json,
                    factorization_from_json, strand_components)
from .curve import (affine_counts, boundary_factors, curve_from_json,
                    euler_characteristic, first_betti, local_deltas)
from .errors import ComputationError, InputError
from .fox import _rows_polynomial, alexander_one_variable, alexander_polynomial
from .group import AbelMap, Presentation, load_json_file, presentation_from_json
from .linkpoly import (MarkedLink, hat_delta, link_from_json,
                       multivariable_delta, one_variable_delta)
from .ring import (LaurentPoly, check_degree, cyclotomic_factorization,
                   normalize, parse_poly, poly_to_str)
from .ring.textfmt import _parse_scaled, _quotient_str
from .verify import cyclotomic_text, factored_text, run_verification

if TYPE_CHECKING:  # argparse is imported only for help and usage errors
    import argparse


def _print(args: SimpleNamespace, payload: dict, text: str) -> None:
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _is_file(arg: str) -> bool:
    """Whether a --delta or --infinity value names a file, not polynomial text."""
    return os.path.exists(arg) or arg.endswith(".json")


@contextlib.contextmanager
def _reading(name: str) -> Iterator[None]:
    """Name the file or argument `name` in an InputError raised inside
    that names none yet."""
    try:
        yield
    except InputError as exc:
        if exc.source is None:
            exc.source = name
        raise


def _presentation(obj: object) -> tuple[Presentation, AbelMap]:
    """A decoded presentation and its phi, by default every generator to t."""
    pres, phi = presentation_from_json(obj)
    if phi is None:
        phi = AbelMap.constant_one(len(pres.generators))
    return pres, phi


def cmd_fox(args: SimpleNamespace) -> int:
    with _reading(args.presentation):
        pres, phi = _presentation(load_json_file(args.presentation))
    delta = (alexander_one_variable(pres, phi) if args.one
             else alexander_polynomial(pres, phi))
    text = poly_to_str(delta)
    _print(args, {"alexander": text, "variables": delta.nvars}, text)
    return 0


def cmd_zvk(args: SimpleNamespace) -> int:
    projective = True if args.projective else None
    with _reading(args.factorization):
        fact = factorization_from_json(load_json_file(args.factorization))
        rows, phi = _zvk_rows(fact, projective, args.multi)
    delta = _rows_polynomial(rows, phi)
    text = poly_to_str(delta)
    generators = _generator_names(fact.strands)
    payload = {
        "alexander": text,
        "variables": delta.nvars,
        "generators": list(generators),
        "relators": len(rows),
    }
    lines = [f"generators: {' '.join(generators)}",
             f"relators: {len(rows)}",
             f"alexander: {text}"]
    _print(args, payload, "\n".join(lines))
    return 0


def _load_closure_link(args: SimpleNamespace) -> MarkedLink:
    """Accept either a link file or a bare braid file.

    For a bare braid, closure components get distinct colours in base
    strand order; --marked (a 1-based base strand) selects the colour-0
    component and --hat DEGREE supplies the degree.
    """
    if args.hat is not None and args.hat < 0:
        raise InputError(f"degree {args.hat} is negative", field="--hat")
    degree = args.hat or None
    obj = load_json_file(args.link)
    if isinstance(obj, dict) and "braid" in obj:
        link = link_from_json(obj, degree)
        if args.marked is not None:
            raise InputError("--marked applies to bare braid files; this "
                             "file sets the marking itself", field="--marked")
        return link
    braid = braid_from_json(obj)
    comps = strand_components(braid)
    bases = sorted(min(comp) for comp in comps)
    marked = args.marked - 1 if args.marked is not None else None
    if marked is not None and marked not in bases:
        raise InputError("marked must be the base strand of a component "
                         f"{[b + 1 for b in bases]}", field="--marked")
    if bases == [marked]:
        raise InputError("at least one component needs a nonzero colour",
                         field="--marked")
    if marked is not None and degree is None:
        raise InputError("a marked link needs a degree >= 1", field="--hat")
    colours, nxt = {}, 1
    for base in bases:
        if base == marked:
            colours[base] = 0
        else:
            colours[base] = nxt
            nxt += 1
    return MarkedLink(braid, colours, marked=marked, degree=degree,
                      components=comps)


def cmd_closure(args: SimpleNamespace) -> int:
    with _reading(args.link):
        link = _load_closure_link(args)
        if args.multi:
            kind, delta = "multivariable", multivariable_delta(link)
        elif args.hat and link.marked is None:
            raise InputError("a degree needs a marked component", field="--hat")
        elif args.hat is not None:
            kind, delta = "hat", hat_delta(link)
        else:
            kind, delta = "one-variable", one_variable_delta(link)
    text = poly_to_str(delta)
    _print(args, {"alexander": text, "kind": kind, "variables": delta.nvars},
           text)
    return 0


def cmd_curve(args: SimpleNamespace) -> int:
    with _reading(args.curve):
        curve = curve_from_json(load_json_file(args.curve))
        bound = boundary_factors(curve, local_deltas(curve))
    counts = affine_counts(curve)
    fields = [  # (JSON key, text label, value)
        ("degree", "degree", curve.degree),
        ("curve_components", "curve components", curve.n_curve_components),
        ("euler_characteristic", "chi of the divisor",
         euler_characteristic(curve)),
        ("first_betti", "first Betti number", first_betti(curve)),
        ("boundary_delta", "boundary delta", factored_text(bound)),
        ("affine_points", "affine singular points", counts.s_aff),
        ("affine_chi", "affine chi bound", counts.chi_ns),
    ]
    _print(args, {key: value for key, _, value in fields},
           "\n".join(f"{label}: {value}" for _, label, value in fields))
    return 0


def _file_delta(path: str, presentation_ok: bool) -> LaurentPoly:
    """One-variable polynomial of the factorization in a JSON file, or,
    when presentation_ok, of the presentation in a file without "factors".
    An InputError names the file, also one for a degree past MAX_DEGREE."""
    with _reading(path):
        obj = load_json_file(path)
        if presentation_ok and not (isinstance(obj, dict) and "factors" in obj):
            delta = alexander_one_variable(*_presentation(obj))
        else:
            delta = _rows_polynomial(*_zvk_rows(factorization_from_json(obj)))
        check_degree(delta)
    return delta


def cmd_verify(args: SimpleNamespace) -> int:
    with _reading(args.curve):
        curve = curve_from_json(load_json_file(args.curve))
    if (args.factorization is None) == (args.delta is None):
        raise InputError("give either a factorization file or --delta, "
                         "not both", source="verify")
    den = 1  # the lcm of the denominators cleared from --delta text
    if args.factorization is not None:
        delta = _file_delta(args.factorization, False)
    elif _is_file(args.delta):
        delta = _file_delta(args.delta, True)
    else:
        with _reading("--delta"):
            delta, den = _parse_scaled(args.delta, nvars=1)
            check_degree(delta)
    if args.infinity is None or args.infinity == "generic":
        delta_inf = None  # run_verification derives the generic one
    elif _is_file(args.infinity):
        with _reading(args.infinity):
            delta_inf = one_variable_delta(
                link_from_json(load_json_file(args.infinity)))
            check_degree(delta_inf)
    else:
        with _reading("--infinity"):
            delta_inf = parse_poly(args.infinity, nvars=1)
            check_degree(delta_inf)
    with _reading(args.curve):  # a curve link passes MAX_SYLLABLES
        report = run_verification(curve, delta, delta_inf)
    payload = report.to_json()
    payload["alexander"] = _quotient_str(delta, den)  # as written
    _print(args, payload, report.to_text())
    return 0 if report.ok else 1


def cmd_cyclo(args: SimpleNamespace) -> int:
    with _reading("argument"):
        p = parse_poly(args.poly, nvars=1)
        check_degree(p)
    if p.is_zero:
        print("error: the zero polynomial is not a cyclotomic product",
              file=sys.stderr)
        return 1
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


class Arg(NamedTuple):
    """One argument of a command: `name` is a positional's dest or an
    option's one spelling, `spec` the other add_argument keywords."""
    name: str
    help: str
    spec: dict = {}
    exclusive: bool = False  # in the command's mutually exclusive group

    @property
    def dest(self) -> str:
        return self.name.lstrip("-")


FLAG = {"action": "store_true"}

OUTPUT = Arg("--output", "output format (default: text)",
             {"choices": ("text", "json"), "default": "text"})


class Command(NamedTuple):
    help: str
    arguments: tuple[Arg, ...]  # after OUTPUT, in the order help lists them
    run: Callable[[SimpleNamespace], int]


COMMANDS: dict[str, Command] = {
    "fox": Command("Alexander polynomial of a presented group", (
        Arg("presentation", "presentation JSON file"),
        Arg("--one", "compose the abelianization to a single variable", FLAG),
    ), cmd_fox),
    "zvk": Command("presentation and polynomial from braid monodromy", (
        Arg("factorization", "factorization JSON file"),
        Arg("--projective",
            "add the projective relation regardless of the file", FLAG),
        Arg("--multi", "one variable per curve component", FLAG),
    ), cmd_zvk),
    "closure": Command("polynomials of a (marked) braid closure", (
        Arg("link", "link JSON file"),
        Arg("--one", "single-variable polynomial (the default)", FLAG,
            exclusive=True),
        Arg("--multi", "one variable per colour", FLAG, exclusive=True),
        Arg("--hat", "specialized polynomial of a marked link of degree "
            "DEGREE, or without it or with 0 the file's; an unmarked link "
            "takes no DEGREE and gives the one-variable polynomial",
            {"nargs": "?", "const": 0, "type": int, "metavar": "DEGREE"},
            exclusive=True),
        Arg("--marked", "base strand of the marked component (bare braid "
            "files only)", {"type": int, "metavar": "STRAND"}),
    ), cmd_closure),
    "curve": Command("topology derived from curve data", (
        Arg("curve", "curve JSON file"),
    ), cmd_curve),
    "verify": Command("run the divisibility and cyclotomicity checks", (
        Arg("curve", "curve JSON file"),
        Arg("factorization", "factorization JSON file (or use --delta)",
            {"nargs": "?"}),
        Arg("--delta", "the curve polynomial, or a factorization or "
            "presentation file to compute it from", {"metavar": "POLY_OR_JSON"}),
        Arg("--infinity", "polynomial at infinity: 'generic' (the default), "
            "a link JSON file, or polynomial text", {"metavar": "POLY_OR_LINK"}),
    ), cmd_verify),
    "cyclo": Command("cyclotomic factorization of a polynomial", (
        Arg("poly", "polynomial, e.g. 't^2 - t + 1'"),
    ), cmd_cyclo),
}


def parse_well_formed(argv: list[str]) -> SimpleNamespace | None:
    """What the command's argparse parser returns for argv, read without
    argparse, when argv is a command, then all its positionals, then exact
    option names as `--opt value` or `--opt=value` with valid values.

    Anything else is None and left to argparse: help, abbreviations,
    `--`, any other token or a separate value starting with `-`, a
    missing, extra or refused value, two exclusive options.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values: dict[str, object] = {"func": command.run}
    options, positionals = {}, []
    for arg in (OUTPUT,) + command.arguments:
        if arg.name.startswith("-"):
            options[arg.name] = arg
            values[arg.dest] = (False if arg.spec == FLAG
                                else arg.spec.get("default"))
        else:
            positionals.append(arg)
            values[arg.dest] = None
    tokens = argv[1:]
    k = next((i for i, token in enumerate(tokens) if token.startswith("-")),
             len(tokens))
    required = sum(arg.spec.get("nargs") != "?" for arg in positionals)
    if not required <= k <= len(positionals):
        return None
    values.update(zip((arg.dest for arg in positionals), tokens[:k]))
    exclusive = None
    while k < len(tokens):
        name, eq, value = tokens[k].partition("=")
        arg = options.get(name)
        if arg is None:
            return None
        k += 1
        if arg.spec == FLAG:
            if eq:
                return None
            value = True
        elif eq or (k < len(tokens) and not tokens[k].startswith("-")):
            if not eq:
                value, k = tokens[k], k + 1
            if "type" in arg.spec:
                try:
                    value = arg.spec["type"](value)
                except ValueError:
                    return None
            if value not in arg.spec.get("choices", (value,)):
                return None
        elif "const" in arg.spec:
            value = arg.spec["const"]
        else:
            return None
        if arg.exclusive:
            if exclusive not in (None, arg):
                return None
            exclusive = arg
        values[arg.dest] = value
    return SimpleNamespace(**values)


def _fill_command_parser(p: argparse.ArgumentParser, name: str) -> None:
    """Give p the arguments of command `name`, --output first, as its help
    lists them."""
    group = None
    for arg in (OUTPUT,) + COMMANDS[name].arguments:
        target = p
        if arg.exclusive:
            if group is None:
                group = p.add_mutually_exclusive_group()
            target = group
        target.add_argument(arg.name, help=arg.help, **arg.spec)
    p.set_defaults(func=COMMANDS[name].run)


def build_parser() -> argparse.ArgumentParser:
    """The full parser, with one subparser per entry of COMMANDS."""
    import argparse

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
    # In a fresh Python 3.11 process, building and running the command's
    # ArgumentParser took 2.2-2.7 ms, most of it gettext importing locale,
    # and importing argparse about 3 ms more; most commands take 0.5-0.9 ms.
    # parse_well_formed reads the same argv in about 0.02 ms.  Help, usage
    # errors and any argv outside its subset go to the command's own parser
    # (the subparser build_parser() makes), or to the full parser when no
    # command is named.
    args = parse_well_formed(argv)
    if args is None:
        import argparse

        if argv and argv[0] in COMMANDS:
            parser = argparse.ArgumentParser(prog=f"alexpoly {argv[0]}")
            _fill_command_parser(parser, argv[0])
            argv = argv[1:]
        else:
            parser = build_parser()
        args = SimpleNamespace(**vars(parser.parse_args(argv)))
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# The objects that importing the package leaves allocated (thousands of
# functions, classes and compiled patterns) live as long as the process.
# Freezing them once, here, moves them out of the collector's generations,
# so a later collection inside a command walks only that command's
# objects.  It is not in main(), which one process may call many times:
# each freeze would pin that call's garbage for good.
gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
