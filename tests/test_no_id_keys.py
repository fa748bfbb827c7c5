"""The package keys nothing by object identity: no module calls `id()`.
An `id` is reused once its object is freed, so a cache keyed by it can
answer for a different object; state belongs to an object the caller
holds."""

import ast
import pathlib

import strat_ic

PACKAGE = pathlib.Path(strat_ic.__file__).parent


def test_package_calls_no_id():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "id"):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []
