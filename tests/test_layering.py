"""No module of the package imports a private name from another.

A name with a leading underscore belongs to the module that defines it.
When a second module needs it, it has become part of that module's
interface and gets a public name (or moves to where both can reach it).
The modules are parsed with `ast`, not imported.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "triadica"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(path: pathlib.Path) -> list[str]:
    """`module.name (line n)` for each underscore name that `path` imports
    from a triadica module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level == 0 and module.split(".")[0] != "triadica":
                continue
            names = [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names
                     if alias.name.split(".")[0] == "triadica"]
        else:
            continue
        out += [f"{name} (line {node.lineno})" for name in names
                if any(is_private(part) for part in name.split("."))]
    return out


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_every_module_is_checked():
    assert "cli.py" in {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_name_crosses_modules(path):
    assert private_imports(path) == []
