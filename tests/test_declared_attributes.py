"""An attribute the package stores on an object other than `self` (in the
`_of` constructors, or as provenance a constructor records) is declared on
a package class: a class-body name, a `__slots__` entry or a `self.`
assignment.  Readers then meet a default on every object, never an
AttributeError on one that constructor did not make (see
test_no_shape_dispatch)."""

import ast
import pathlib

import strat_ic

PACKAGE = pathlib.Path(strat_ic.__file__).parent


def _targets(node):
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    else:
        return
    while stack:
        t = stack.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            stack.extend(t.elts)
        else:
            yield t


def _undeclared(sources):
    """(attribute, "file:line") for each store on an object other than
    `self` of an attribute no class in `sources` declares."""
    declared, stored = set(), []
    for name, text in sources:
        for node in ast.walk(ast.parse(text, name)):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                        declared.add(item.name)
                    for t in _targets(item):
                        if not isinstance(t, ast.Name):
                            continue
                        declared.add(t.id)
                        if t.id == "__slots__":
                            declared.update(
                                c.value for c in ast.walk(item.value)
                                if isinstance(c, ast.Constant)
                                and isinstance(c.value, str))
            for t in _targets(node):
                if (isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)):
                    if t.value.id == "self":
                        declared.add(t.attr)
                    else:
                        stored.append((t.attr, "%s:%d" % (name, t.lineno)))
    return [(a, at) for a, at in stored if a not in declared]


def test_attributes_stored_from_outside_are_declared():
    sources = [(p.name, p.read_text()) for p in sorted(PACKAGE.rglob("*.py"))]
    assert _undeclared(sources) == []


def test_scan_flags_only_undeclared_attributes():
    src = ("class A:\n"
           "    __slots__ = ('s',)\n"
           "    x = None\n"
           "    def __init__(self):\n"
           "        self.y = 1\n"
           "    def m(self):\n"
           "        pass\n"
           "def build():\n"
           "    out = A()\n"
           "    out.x, (out.y, out.s) = 1, (2, 3)\n"
           "    out.m = out.z = 4\n"
           "    out.w += 1\n")
    assert sorted(_undeclared([("a.py", src)])) == [("w", "a.py:12"),
                                                    ("z", "a.py:11")]
