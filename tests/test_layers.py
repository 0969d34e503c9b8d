"""The package is a strict chain of layers: each module imports, at module
level only, modules that come earlier in CHAIN."""

import ast
import pathlib

import operad_forge

CHAIN = ("foundation", "group_module", "weight_spaces", "relation_dsl",
         "operad_calculus", "tensor_closure", "algebra_instances", "cli")
PACKAGE = pathlib.Path(operad_forge.__file__).parent


def _package_imports(node):
    """The package modules an import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            if node.module:
                return [node.module.split(".")[0]]
            return [alias.name for alias in node.names]
        if node.module and node.module.split(".")[0] == "operad_forge":
            parts = node.module.split(".")
            if len(parts) > 1:
                return [parts[1]]
            return [alias.name for alias in node.names]
        return []
    return [alias.name.split(".")[1] for alias in node.names
            if alias.name.startswith("operad_forge.")]


def _violations(stem, source):
    """One line for each import in a module's source that breaks the chain."""
    earlier = CHAIN[:CHAIN.index(stem)] if stem in CHAIN else ()
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if id(node) not in top:
            found.append(f"{stem}:{node.lineno}: import below module "
                         "level")
        for module in _package_imports(node):
            if module not in earlier:
                found.append(f"{stem}:{node.lineno}: imports {module}, "
                             f"which is not above {stem}")
    return found


def test_every_module_has_a_place_in_the_chain():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(CHAIN)


def test_modules_import_only_earlier_modules_at_module_level():
    found = [v for path in sorted(PACKAGE.glob("*.py"))
             for v in _violations(path.stem, path.read_text())]
    assert found == []


def test_the_check_sees_upward_and_nested_imports():
    source = ("from .foundation import span\n"
              "from . import cli\n"
              "import operad_forge.tensor_closure\n"
              "class C:\n"
              "    def f(self):\n"
              "        from .group_module import PERMS\n")
    assert _violations("weight_spaces", source) == [
        "weight_spaces:2: imports cli, which is not above weight_spaces",
        "weight_spaces:3: imports tensor_closure, which is not above "
        "weight_spaces",
        "weight_spaces:6: import below module level",
    ]
