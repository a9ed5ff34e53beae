"""Names that code outside the package reaches.

The README's Library section documents exactly ``alexpoly.__all__``: the
leading name of every inline code span there, ``alexpoly.`` stripped and
Python builtins left out, must be an export, and every export must
appear.

The benchmark harness looks functions up by module and attribute name
(``SPANS`` and ``CALL_COUNTS`` in ``perfbench/child.py``) and imports
others when it builds its workloads (``perfbench/workloads.py``), as the
sextic derivation script does.  Those files are read with ``ast`` and
never executed; every name they use must exist once ``alexpoly.cli`` is
imported, so that deleting one fails here and not only in a traced
benchmark run.
"""

import ast
import builtins
import importlib
import pathlib
import re
import sys

import alexpoly
import alexpoly.cli  # noqa: F401  (imports every module the CLI uses)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def library_section() -> str:
    readme = (ROOT / "README.md").read_text("utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.sub(r"```.*?```", "", section, flags=re.S)


def test_readme_library_section_names_exactly_the_exports():
    spans = re.findall(r"`([^`\n]+)`", library_section())
    leading = [re.match(r"(?:alexpoly\.)?(\w*)", span).group(1)
               for span in spans]
    documented = {name for name in leading if not hasattr(builtins, name)}
    exports = set(alexpoly.__all__)
    assert sorted(exports - documented) == []
    assert sorted(documented - exports) == []


def module_dict(path: pathlib.Path, name: str) -> dict:
    """The literal value of the top-level assignment `name` in the file."""
    tree = ast.parse(path.read_text("utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def alexpoly_imports(path: pathlib.Path) -> list[tuple[str, str]]:
    """(module, name) of every `from alexpoly... import name` in the file."""
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "alexpoly"
            for alias in node.names]


def test_benchmark_and_script_names_resolve():
    child = ROOT / "perfbench" / "child.py"
    looked_up = [pair for table in ("SPANS", "CALL_COUNTS")
                 for pair in module_dict(child, table).values()]
    assert len(looked_up) >= 20
    # child.py looks each one up in sys.modules after importing the CLI
    missing = [(module, attr) for module, attr in looked_up
               if not hasattr(sys.modules.get(module), attr)]
    imported = (alexpoly_imports(ROOT / "perfbench" / "workloads.py")
                + alexpoly_imports(ROOT / "scripts" / "derive_sextic_monodromy.py"))
    assert ("alexpoly.braid", "braid_equal") in imported
    missing += [(module, name) for module, name in imported
                if not hasattr(importlib.import_module(module), name)]
    assert missing == []
