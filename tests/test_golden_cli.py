"""The command line's output, byte for byte.

``golden_cli.json`` lists command lines with the exit code, stdout and
stderr each one gave: ``fox``, ``zvk`` (plain, ``--multi``,
``--projective``), ``closure`` (plain, ``--multi``, ``--hat``), ``curve``
and ``verify`` on every JSON file under ``data/``, each in text and in
``--output json``, and ``cyclo`` on t^n - 1 and t^n + 2 for n = 30, 60,
120.  Polynomial text with ``p/q`` coefficients goes to ``cyclo`` (a
cyclotomic product and a remainder) and to ``verify`` as ``--delta``
and as ``--infinity``, each in text and in JSON, and one zero
denominator exits 2.  Paths are relative to the repository root, where every command
runs.  A refactor that should not change behaviour must leave every
entry equal.

After an intended change of output, re-record the outputs of the listed
command lines with ``python tests/test_golden_cli.py`` from the
repository root, and review the diff of the JSON file.
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from alexpoly.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_cli.json"


def load() -> list[dict]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def run(argv: list[str]) -> dict:
    """argv run in-process, as the entry of the golden file it gives."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


ENTRIES = load()


@pytest.mark.parametrize("entry", ENTRIES,
                         ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_output_matches_golden(entry, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run(entry["argv"]) == entry


def test_every_data_file_is_pinned():
    named = {arg for e in ENTRIES for arg in e["argv"]}
    files = {p.relative_to(ROOT).as_posix()
             for p in (ROOT / "data").rglob("*.json")}
    assert files <= named


if __name__ == "__main__":
    os.chdir(ROOT)
    entries = [run(e["argv"]) for e in ENTRIES]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
