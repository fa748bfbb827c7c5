"""The package raises typed errors, never `assert`: `python -O` strips
asserts, and every check here must hold under it too."""

import ast
import pathlib

import strat_ic

PACKAGE = pathlib.Path(strat_ic.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []
