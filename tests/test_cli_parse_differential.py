"""Differential test of ``cli.parse_well_formed`` against argparse.

``cli.main`` reads a well-formed argv without argparse and leaves every
other argv to the command's argparse parser.  For each command, seeded
random argvs are drawn over its options and those of other commands,
abbreviations, ``-h``, ``--``, ``=`` forms, repeats, missing and extra
values, negative numbers, values and positionals that start with ``-``
(with and without spaces), and 5,000-digit integers.  Whenever the fast
parser accepts an argv, argparse must accept it too and give a namespace
with the same ``vars()``.  Rejected argvs need no check: argparse parses
them.
"""

import argparse
import contextlib
import io
import random

import pytest

from alexpoly.cli import (COMMANDS, FLAG, OUTPUT, _fill_command_parser,
                          parse_well_formed)

DRAWS = 10_000
BIG = "1" * 5000

FILES = ["data/groups/trefoil.json", "a.json", "x=y.json", "", " b.json",
         "fox", "-c.json", "- d.json"]
VALUES = ["text", "json", "xml", "", "0", "3", "17", "+4", " 7", "1_000",
          "٣", "abc", "generic", "t^2 - t + 1", "t^-1", "-1", "-5", "-t",
          "-t + 1", "-", BIG, "-" + BIG, "=", "json=x"]
NOISE = ["-h", "--help", "--", "-", "--bogus", "-x", "--one", "--multi",
         "--hat", "--marked", "--projective", "--delta", "--infinity",
         "--output"]


def valid_value(rng: random.Random, spec: dict) -> str:
    """A value the option takes, as text."""
    if "choices" in spec:
        return rng.choice(spec["choices"])
    if "type" in spec:
        return str(rng.randrange(10))
    return rng.choice(FILES[:2] + VALUES[11:14])


def draw(rng: random.Random, name: str) -> list[str]:
    arguments = (OUTPUT,) + COMMANDS[name].arguments
    positionals = [arg for arg in arguments if not arg.name.startswith("-")]
    options = [arg for arg in arguments if arg.name.startswith("-")]
    abbreviations = [arg.name[:k] for arg in options
                     for k in range(3, len(arg.name))]
    argv = [name]
    count = len(positionals) + rng.choice((-1, 0, 0, 0, 0, 1))
    argv += [rng.choice(FILES[:2] if rng.random() < 0.8 else FILES)
             for _ in range(max(count, 0))]
    for _ in range(rng.randrange(5)):
        form = rng.random()
        if rng.random() < 0.75:  # an exact option, mostly well formed
            arg = rng.choice(options)
            option = arg.name
            value = (valid_value(rng, arg.spec) if rng.random() < 0.8
                     else rng.choice(VALUES))
            if arg.spec == FLAG and rng.random() < 0.9:
                form = 1  # bare
        else:
            option = rng.choice([arg.name for arg in options]
                                + abbreviations + NOISE)
            value = rng.choice(VALUES)
        if form < 0.3:
            argv.append(f"{option}={value}")
        elif form < 0.9:
            argv += [option, value]
        else:
            argv.append(option)
    if rng.random() < 0.1:  # options before positionals
        argv[1:] = rng.sample(argv[1:], len(argv) - 1)
    if rng.random() < 0.05:
        argv.insert(rng.randrange(1, len(argv) + 1), "--")
    return argv


def command_parser(name: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"alexpoly {name}")
    _fill_command_parser(parser, name)
    return parser


@pytest.mark.parametrize("name", list(COMMANDS))
def test_fast_parser_agrees_with_argparse(name):
    rng = random.Random(f"argv {name}")
    parser = command_parser(name)
    accepted = 0
    for _ in range(DRAWS):
        argv = draw(rng, name)
        fast = parse_well_formed(argv)
        if fast is None:
            continue
        accepted += 1
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                expected = parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"accepted {argv!r}, argparse refused it: {err.getvalue()}")
        assert vars(fast) == vars(expected), argv
    # enough argvs reach the fast path for the comparison to mean something
    assert accepted > DRAWS // 5


@pytest.mark.parametrize("argv", [
    ["fox", "a.json", "-h"], ["fox", "a.json", "--on"], ["fox", "a.json", "--"],
    ["fox", "--one", "a.json"], ["fox", "a.json", "--one=1"],
    ["cyclo", "-t + 1"], ["cyclo", "-1"], ["cyclo", "t", "--output", "xml"],
    ["closure", "l.json", "--one", "--multi"], ["closure", "l.json", "--hat", "abc"],
    ["closure", "l.json", "--hat", "-1"], ["closure", "l.json", "--marked", BIG],
    ["closure", "l.json", "--marked"], ["verify", "c.json", "--delta", "-t"],
    ["verify", "c.json", "--delta", "x", "f.json"], ["verify"], ["bogus"], [],
])
def test_fast_parser_leaves_to_argparse(argv):
    assert parse_well_formed(argv) is None


def test_fast_parser_defaults_and_forms():
    args = parse_well_formed(["closure", "l.json", "--hat", "--marked=2",
                              "--output", "json"])
    assert vars(args) == {"func": COMMANDS["closure"].run, "output": "json",
                          "link": "l.json", "one": False, "multi": False,
                          "hat": 0, "marked": 2}
    args = parse_well_formed(["verify", "c.json", "--delta=", "--delta", "t"])
    assert (args.factorization, args.delta, args.infinity) == (None, "t", None)
