"""Named example spaces.

Base ids: point, interval, s1, s2, t2, genus2.  Composite ids: cone-<id>,
suspension-<id>, and product:<id>,<id> (constructors nest, so cone-cone-s1
is legal).  All base examples carry the one-stratum filtration at their
dimension; composites get their filtration from the constructors.

>>> get_example("s1").complex.f_vector()
(3, 3)
>>> get_example("cone-s1").strata()[0]
[(3,)]
"""

from . import spaces
from .spaces import SimplicialComplex, single_stratum


class UnknownExample(Exception):
    pass


def _point():
    return SimplicialComplex(1, [(0,)])


def _interval():
    return SimplicialComplex(2, [(0, 1)])


def _circle():
    return SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)])


def _sphere2():
    # boundary of the 3-simplex
    return SimplicialComplex(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def _torus_triangles():
    # 7-vertex torus: orbits of {0,1,3} and {0,2,3} under i -> i+1 mod 7
    tris = []
    for i in range(7):
        tris.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        tris.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return sorted(set(tris))


def _torus():
    return SimplicialComplex(7, _torus_triangles())


def _genus2():
    """Connected sum of two 7-vertex tori.

    Remove the triangle (0,1,3) from each copy and glue the boundary
    triangles with the vertex match 7->0, 8->3, 10->1; the remaining second
    copy vertices 9,11,12,13 become 7,8,9,10.  Gives 11 vertices, 39 edges,
    26 triangles, a closed orientable surface with Euler characteristic -2.
    """
    removed = (0, 1, 3)
    base = _torus_triangles()
    vmap = {7: 0, 8: 3, 10: 1}
    nxt = 7
    for b in (9, 11, 12, 13):
        vmap[b] = nxt
        nxt += 1
    tris = [t for t in base if t != removed]
    for t in base:
        if t == removed:
            continue
        tris.append(tuple(sorted(vmap[v + 7] for v in t)))
    return SimplicialComplex(11, sorted(set(tris)))


_BASE = {
    "point": _point,
    "interval": _interval,
    "s1": _circle,
    "s2": _sphere2,
    "t2": _torus,
    "genus2": _genus2,
}

# spelled-out synonyms accepted anywhere an id is
_ALIASES = {
    "circle": "s1",
    "sphere": "s2",
    "torus": "t2",
    "genus-2": "genus2",
}


def list_examples():
    """Base ids plus the composite forms accepted by get_example."""
    return sorted(_BASE) + ["cone-<id>", "suspension-<id>", "product:<id>,<id>"]


def get_example(name):
    """Resolve an example id to a stratified complex."""
    name = name.strip()
    name = _ALIASES.get(name, name)
    if name.startswith("product:"):
        rest = name[len("product:"):]
        parts = rest.split(",")
        if len(parts) != 2:
            raise UnknownExample(
                "product takes exactly two ids, got %r" % (name,))
        return spaces.product(get_example(parts[0]), get_example(parts[1]))
    if name.startswith("cone-"):
        return spaces.cone(get_example(name[len("cone-"):]))
    if name.startswith("suspension-"):
        return spaces.suspension(get_example(name[len("suspension-"):]))
    if name in _BASE:
        return single_stratum(_BASE[name]())
    raise UnknownExample("no example named %r (known: %s)"
                         % (name, ", ".join(list_examples())))
