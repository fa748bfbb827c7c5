"""Entry points take one input shape: the package never asks an argument
which shape it has with `hasattr`, so a second shape cannot come back in
unnoticed."""

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
