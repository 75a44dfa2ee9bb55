"""No module of the package imports a private name from another, every
definition in the package is reached from its supported surface, and every
one is reached from what the command line runs.

A name with a leading underscore belongs to the module that defines it.
When a second module needs it, it has become part of that module's
interface and gets a public name (or moves to where both can reach it).

The supported surface is the command line (`cli.main`), the names in
`triadica.__all__`, and the functions the benchmark's tracer patches by
name.  A function, class or method that none of them reaches is code that
nobody supports; one that only the tests use belongs in the tests.  The
second walk leaves `__all__` out: what the command line runs is `cli.main`,
`cli.console_entry`, the algebra builders the workspace reader looks up by
the names in `workspace._BUILDERS`, and, while the tracer pins them, the
functions it patches.  So an exported name that no command reaches fails it
too: it belongs in the tests' `builders` module.

The modules are parsed with `ast`, not imported, except to read
`triadica.__all__` (importing the package runs none of its layers) and to
look up the base classes of a class that defines a method nothing in the
package calls.
"""

import ast
import importlib
import pathlib

import pytest

import triadica
from test_trace_names import LAYER_NAMES

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


# ---------------------------------------------------------------------------
# every definition is reached from the supported surface


def _references(nodes) -> tuple[set[str], set[str], set[tuple[str, str]]]:
    """The bare names and the attribute names used anywhere in `nodes`, and
    the `(module, name)` pairs of attributes read off a package module's
    handle, as in `kaehler.kaehler_presheaf`."""
    names, attrs, qualified = set(), set(), set()
    stems = {path.stem for path in MODULES}
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
                if isinstance(sub.value, ast.Name) and sub.value.id in stems:
                    qualified.add((sub.value.id, sub.attr))
    return names, attrs, qualified


def _definitions(trees: dict) -> dict:
    """`(module, qualname) -> (node, class name or None, body)` for every
    top-level function and class and every method of a class; a class's
    body leaves out its methods, which are definitions of their own."""
    defs = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[module, node.name] = (node, None, [node])
            elif isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if isinstance(n, ast.FunctionDef)]
                rest = [n for n in node.body if n not in methods]
                defs[module, node.name] = (
                    node, None, node.decorator_list + node.bases + rest)
                for m in methods:
                    defs[module, f"{node.name}.{m.name}"] = (m, node.name, [m])
    return defs


def _overrides_foreign_method(module: str, cls: str, name: str) -> bool:
    """Whether method `name` of `cls` overrides one that a base class from
    outside the package defines, so that code outside the package calls it."""
    obj = getattr(importlib.import_module(f"triadica.{module}"), cls)
    return any(name in vars(base) for base in obj.__mro__[1:]
               if not base.__module__.startswith("triadica"))


def builder_functions() -> set[tuple[str, str]]:
    """`("algebra", name)` for each function `workspace._BUILDERS` names, which
    the workspace reader reads off `algebra` by that string."""
    tree = ast.parse((PACKAGE / "workspace.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_BUILDERS" for t in node.targets):
            return {("algebra", name) for name in ast.literal_eval(node.value).values()}
    raise AssertionError("workspace._BUILDERS is gone")


def unreached(roots, exported=frozenset()) -> list[str]:
    """`module.name (line n)` for each function, class or method that
    nothing reaches from `roots`, the module-level statements, the names in
    `exported` and the package's module `__getattr__` (PEP 562), which the
    interpreter calls.

    Reference is by name: a bare name reaches every top-level definition
    of that name, an attribute read off a module's handle reaches that
    module's top-level definition of the name, and an attribute name
    reaches the methods of that name on every reached class.  A reached
    class also reaches its dunder methods and the methods that override one
    of a foreign base class."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in MODULES}
    defs = _definitions(trees)
    module_level = [node for tree in trees.values() for node in tree.body
                    if not isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    reached = {("__init__", "__getattr__"), *roots}
    while True:
        names, attrs, qualified = _references(
            module_level + [n for key in reached for n in defs[key][2]])
        grown = set(reached)
        for (module, qualname), (node, cls, _) in defs.items():
            if cls is None:
                if node.name in names or node.name in exported or \
                        (module, node.name) in qualified:
                    grown.add((module, qualname))
            elif (module, cls) in reached and (
                    node.name.startswith("__") and node.name.endswith("__")
                    or node.name in attrs
                    or _overrides_foreign_method(module, cls, node.name)):
                grown.add((module, qualname))
        if grown == reached:
            break
        reached = grown
    return [f"{module}.{qualname} (line {node.lineno})"
            for (module, qualname), (node, _, _) in sorted(defs.items())
            if (module, qualname) not in reached]


def test_every_definition_is_reached():
    missing = unreached({("cli", "main"), *LAYER_NAMES}, set(triadica.__all__))
    assert not missing, "reached by nothing:\n" + "\n".join(missing)


def test_every_definition_is_reached_from_the_command_line():
    missing = unreached({("cli", "main"), ("cli", "console_entry"), *LAYER_NAMES,
                         *builder_functions()})
    assert not missing, "reached by no command:\n" + "\n".join(missing)
