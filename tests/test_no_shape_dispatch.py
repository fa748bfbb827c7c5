"""Entry points take one input shape: the package never asks an argument
which shape it has with `hasattr`, so a second shape cannot come back in
unnoticed.  Nor does it probe for an attribute with a three-argument
`getattr`: an attribute some objects carry is a declared field with a
default."""

import ast
import pathlib

import strat_ic

PACKAGE = pathlib.Path(strat_ic.__file__).parent


def test_package_has_no_hasattr_dispatch():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "hasattr(" in line:
                found.append("%s:%d" % (path.name, lineno))
    assert found == []


def test_package_has_no_getattr_default_probes():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr" and len(node.args) == 3):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []
