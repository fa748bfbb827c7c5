"""Every module of the package parses under the oldest Python that
`pyproject.toml` declares (`requires-python = ">=3.10"`): `ast.parse`
with `feature_version` refuses syntax that version lacks, so a newer
construct cannot come in unnoticed."""

import ast
import pathlib
import re

import pytest

import strat_ic

PACKAGE = pathlib.Path(strat_ic.__file__).parent
FLOOR = (3, 10)


def test_declared_floor_is_the_one_checked():
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    assert re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups() \
        == tuple(str(v) for v in FLOOR)


def test_every_module_parses_at_the_floor():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=FLOOR)


def test_floor_parse_refuses_newer_syntax():
    # `except*` is Python 3.11 syntax
    src = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(src, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(src, feature_version=FLOOR)
