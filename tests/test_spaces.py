"""Oracles for complexes, stratifications, and constructors.

The classical invariants asserted here (f-vectors, Euler characteristics,
betti numbers of surfaces, suspension shifts) are frozen targets computed
independently of the code under test.
"""

import doctest
import hashlib

import pytest
from conftest import run_python
from hypothesis import given, settings, strategies as st

from strat_ic import examples, spaces
from strat_ic.examples import UnknownExample, get_example
from strat_ic.spaces import (
    BadLevelMap, BadSimplex, CellNotFound, FiltrationNotClosed, FrontierViolation,
    SimplicialComplex, StratifiedComplex, SubcomplexNotClosed, build_stratified,
    collapse, cone, link, product,
)


def test_doctests():
    assert doctest.testmod(examples).failed == 0


# -- basic complexes -------------------------------------------------------

def test_f_vectors():
    assert get_example("point").complex.f_vector() == (1,)
    assert get_example("interval").complex.f_vector() == (2, 1)
    assert get_example("s1").complex.f_vector() == (3, 3)
    assert get_example("s2").complex.f_vector() == (4, 6, 4)
    assert get_example("t2").complex.f_vector() == (7, 21, 14)
    assert get_example("genus2").complex.f_vector() == (11, 39, 26)


def test_euler_characteristics():
    for name, chi in [("point", 1), ("interval", 1), ("s1", 0),
                      ("s2", 2), ("t2", 0), ("genus2", -2)]:
        assert get_example(name).complex.euler_characteristic() == chi


def test_betti_numbers():
    assert get_example("s1").complex.betti_numbers() == (1, 1)
    assert get_example("s2").complex.betti_numbers() == (1, 0, 1)
    assert get_example("t2").complex.betti_numbers() == (1, 2, 1)
    assert get_example("genus2").complex.betti_numbers() == (1, 4, 1)


def test_surfaces_are_closed():
    # every edge of a closed surface lies in exactly two triangles
    for name in ("s2", "t2", "genus2"):
        c = get_example(name).complex
        for e in c.cells_of_dim(1):
            stars = [t for t in c.cells_of_dim(2) if set(e) <= set(t)]
            assert len(stars) == 2, (name, e)


def test_face_closure_enforced():
    with pytest.raises(FiltrationNotClosed):
        SimplicialComplex(3, [(0, 1, 2)], close=False)


BAD_SIMPLICES = [([(0, 5)], "vertex out of range in (0, 5)"),
                 ([(-1, 0)], "vertex out of range in (-1, 0)"),
                 ([()], "empty simplex"),
                 ([(0, 0, 1)], "cell has repeated vertices: (0, 0, 1)")]


@pytest.mark.parametrize("simplices, message", BAD_SIMPLICES,
                         ids=["out-of-range", "negative", "empty",
                              "repeated"])
def test_bad_simplex_raises(simplices, message):
    for close in (True, False):
        with pytest.raises(BadSimplex) as err:
            SimplicialComplex(3, simplices, close=close)
        assert str(err.value) == message
    assert issubclass(BadSimplex, spaces.StratificationError)


def test_bad_simplex_raises_under_optimize():
    # -O strips asserts, so the input checks must not be asserts
    code = "\n".join([
        "from strat_ic.spaces import BadSimplex, SimplicialComplex",
        "for s in %r:" % ([s for s, _m in BAD_SIMPLICES],),
        "    try:",
        "        print(SimplicialComplex(3, s).cells)",
        "    except BadSimplex as e:",
        "        print(e)",
    ])
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [m for _s, m in BAD_SIMPLICES]


def test_bad_filtration_cell_raises():
    cx = SimplicialComplex(3, [(0, 1)])
    with pytest.raises(BadSimplex, match="repeated"):
        build_stratified(cx, {1: [(0, 1), (0, 0)]})


def test_filtration_cell_outside_the_complex_raises():
    # (0, 3) names two vertices of the complex but no simplex of it
    cx = SimplicialComplex(4, [(0, 1), (1, 2)])
    stage = [(0, 1), (1, 2), (0,), (2,), (0, 3)]
    with pytest.raises(CellNotFound, match=r"\(0, 3\)") as err:
        build_stratified(cx, {"0": [(1,)], "1": stage})
    assert err.value.where == ("1", 4)
    stage.pop()
    assert build_stratified(cx, {"0": [(1,)], "1": stage}).stratum(0) == [(1,)]


def test_build_stratified_refuses_an_unplaced_cell():
    cx = SimplicialComplex(3, [(0, 1), (1, 2)])
    with pytest.raises(FiltrationNotClosed, match=r"\(2,\) not placed"):
        build_stratified(cx, {"0": [(1,)], "1": [(0, 1), (1, 2), (0,)]})


def test_cell_order_is_by_dim_then_lex():
    c = get_example("s2").complex
    dims = [len(x) for x in c.cells]
    assert dims == sorted(dims)
    for a, b in zip(c.cells, c.cells[1:]):
        assert (len(a), a) < (len(b), b)


def test_connected_components():
    two = SimplicialComplex(4, [(0, 1), (2, 3)])
    assert len(two.connected_components()) == 2
    assert len(get_example("genus2").complex.connected_components()) == 1


# -- stratification validation --------------------------------------------

def test_build_stratified_rejects_nonclosed_filtration():
    c = get_example("s1").complex
    filt = {0: [(0, 1)], 1: list(c.cells)}
    with pytest.raises(FiltrationNotClosed):
        build_stratified(c, filt)


def test_frontier_violation_names_the_pair():
    c = SimplicialComplex(4, [(0, 1), (2, 3)])
    filt = {0: [(0,), (2,)], 1: [(1,), (0, 1)], 2: list(c.cells)}
    with pytest.raises(FrontierViolation) as err:
        build_stratified(c, filt)
    assert "(1, 0)" in str(err.value)


def test_level_map_must_cover_the_cells():
    cx = SimplicialComplex(2, [(0, 1)])
    with pytest.raises(BadLevelMap, match="cover all cells"):
        StratifiedComplex(cx, {(0,): 0, (0, 1): 1})


def test_space_inputs_rejected_under_optimize():
    # -O strips asserts, so the level-map cover must be a typed raise
    code = "\n".join([
        "from strat_ic.spaces import (SimplicialComplex, StratificationError,",
        "                             StratifiedComplex)",
        "cx = SimplicialComplex(2, [(0, 1)])",
        "try:",
        "    print(StratifiedComplex(cx, {(0,): 0, (0, 1): 1}))",
        "except StratificationError as e:",
        "    print('rejected:', e)",
    ])
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "rejected: level map must cover all cells",
    ]


def test_single_stratum_levels():
    s = get_example("t2")
    assert s.stratum_levels() == [2]
    assert s.regular_part() == list(s.complex.cells)


def test_constructors_revalidate():
    # validate() runs on every constructor output without raising
    for name in ("cone-s1", "suspension-t2", "product:s1,s1", "cone-genus2"):
        get_example(name).validate()


# -- cone and suspension ---------------------------------------------------

def test_cone_shape():
    s = get_example("cone-s1")
    assert s.complex.f_vector() == (4, 6, 3)
    assert s.complex.betti_numbers() == (1, 0, 0)
    assert s.strata()[0] == [(3,)]
    assert len(s.stratum(2)) == 12


def test_suspension_shape():
    s = get_example("suspension-t2")
    assert s.stratum_levels() == [0, 3]
    assert s.stratum(0) == [(7,), (8,)]
    assert len(s.complex.connected_components(s.stratum(0))) == 2
    assert s.complex.euler_characteristic() == 2
    assert s.complex.betti_numbers() == (1, 0, 2, 1)


def test_cone_top_components_match_base():
    for name in ("s1", "s2", "genus2"):
        s = get_example("cone-" + name)
        base = get_example(name)
        assert (len(s.complex.connected_components(s.stratum(s.top)))
                == len(base.complex.connected_components()))


# -- link ------------------------------------------------------------------

def test_link_of_cone_apex_is_base():
    for name in ("s1", "t2", "genus2"):
        s = get_example("cone-" + name)
        apex = (s.complex.n_vertices - 1,)
        lk = link(s, apex)
        base = get_example(name)
        assert lk.complex.f_vector() == base.complex.f_vector()
        assert lk.complex.betti_numbers() == base.complex.betti_numbers()
        assert lk.stratum_levels() == [base.dim]
        assert lk.base_cell == apex
        # apex link vertices are exactly the base vertices, in order
        assert [lk.vertex_map[i] for i in range(lk.complex.n_vertices)] \
            == list(range(base.complex.n_vertices))


def test_link_in_closed_surface_is_circle():
    s = get_example("t2")
    lk = link(s, (0,))
    assert lk.complex.betti_numbers() == (1, 1)
    assert lk.complex.f_vector() == (6, 6)


def test_link_missing_cell():
    with pytest.raises(CellNotFound):
        link(get_example("s1"), (0, 1, 2))


def test_link_of_facet_is_empty():
    lk = link(get_example("s1"), (0, 1))
    assert lk.complex.cells == ()


# -- product ---------------------------------------------------------------

def test_product_torus_from_circles():
    s = product(get_example("s1"), get_example("s1"))
    assert s.complex.f_vector() == (9, 27, 18)
    assert s.complex.betti_numbers() == (1, 2, 1)
    assert s.stratum_levels() == [2]


def test_product_euler_multiplicative():
    pairs = [("s1", "s2"), ("t2", "s1"), ("s2", "s2"), ("interval", "genus2")]
    for a, b in pairs:
        sa, sb = get_example(a), get_example(b)
        p = product(sa, sb)
        assert (p.complex.euler_characteristic()
                == sa.complex.euler_characteristic()
                * sb.complex.euler_characteristic())


def test_product_levels_add():
    p = get_example("product:cone-s1,s1")
    assert p.stratum_levels() == [1, 3]
    # apex x circle: a closed circle stratum
    assert len(p.stratum(1)) == 6
    assert len(p.complex.connected_components(p.stratum(1))) == 1


def test_product_cells_split_into_factor_cells():
    p = get_example("product:s1,interval")
    for cell in p.complex.cells:
        a = tuple(sorted({v // p.n_right for v in cell}))
        b = tuple(sorted({v % p.n_right for v in cell}))
        assert a in p.factors[0].complex.cell_index
        assert b in p.factors[1].complex.cell_index
        assert p.levels[cell] == p.factors[0].levels[a] + p.factors[1].levels[b]


# -- collapse --------------------------------------------------------------

def _product_slice(p, right_vertex):
    """Cells of X x {v} inside a product with right factor vertex v."""
    out = []
    for cell in p.complex.cells:
        if all(v % p.n_right == right_vertex for v in cell):
            out.append(cell)
    return out


def test_collapse_of_product_slice_is_cone():
    base = get_example("s1")
    cyl = product(base, get_example("interval"))
    sub = _product_slice(cyl, 0)
    q, cmap = collapse(cyl, sub)
    reference = get_example("cone-s1")
    assert q.complex.f_vector() == reference.complex.f_vector()
    assert q.complex.betti_numbers() == reference.complex.betti_numbers()
    assert q.strata()[0] == [(0,)]
    assert len(q.stratum(2)) == len(reference.stratum(2))
    assert set(cmap) == set(cyl.complex.cells)
    for img in cmap.values():
        assert img in q.complex.cell_index
    for c in sub:
        assert cmap[c] == (0,)


def test_collapse_rejects_open_subset():
    s = get_example("s1")
    with pytest.raises(SubcomplexNotClosed, match=r"misses face \(1,\) of \(0, 1\)"):
        collapse(s, [(0, 1)])
    with pytest.raises(SubcomplexNotClosed, match="not in the complex"):
        collapse(s, [(0, 1, 2)])
    with pytest.raises(SubcomplexNotClosed):
        collapse(s, [])


def test_collapse_whole_subcomplex_level_zero():
    s = get_example("t2")
    q, cmap = collapse(s, [c for c in s.complex.cells if set(c) <= {0, 1, 3}])
    assert q.levels[(0,)] == 0
    assert q.stratum(0) == [(0,)]
    # image cells of the collapsed part all hit the fresh vertex
    for c in s.complex.cells:
        if set(c) <= {0, 1, 3}:
            assert cmap[c] == (0,)
    q.validate()


def test_unknown_example():
    with pytest.raises(UnknownExample):
        get_example("klein")
    with pytest.raises(UnknownExample):
        get_example("product:s1")


# -- property tests --------------------------------------------------------

_NAMES = ["point", "interval", "s1", "s2", "t2"]


@given(st.sampled_from(_NAMES))
def test_cone_is_acyclic(name):
    c = cone(get_example(name))
    b = c.complex.betti_numbers()
    assert b[0] == 1 and not any(b[1:])


@given(st.sampled_from(_NAMES), st.sampled_from(_NAMES))
def test_product_chi(a, b):
    p = product(get_example(a), get_example(b))
    assert (p.complex.euler_characteristic()
            == get_example(a).complex.euler_characteristic()
            * get_example(b).complex.euler_characteristic())


@given(st.sampled_from(_NAMES))
def test_apex_link(name):
    s = cone(get_example(name))
    lk = link(s, (s.complex.n_vertices - 1,))
    assert lk.complex.f_vector() == get_example(name).complex.f_vector()


# -- differential tests against the earlier face-closure code --------------
# The references are the earlier implementations: closure from all 2^k - 2
# proper faces by bitmask, validation that sorts every filtration stage once
# per level, and the quadratic maximal-cell scan.

def _ref_complex_cells(n_vertices, simplices, close):
    cells = set()
    for s in simplices:
        t = spaces._normalize_cell(s)
        if not t:
            raise BadSimplex("empty simplex")
        if t[0] < 0 or t[-1] >= n_vertices:
            raise BadSimplex("vertex out of range in %r" % (t,))
        cells.add(t)
        if close:
            k = len(t)
            for mask in range(1, (1 << k) - 1):
                cells.add(tuple(t[i] for i in range(k) if mask >> i & 1))
    if not close:
        for t in list(cells):
            for i in range(len(t)):
                face = t[:i] + t[i + 1:]
                if face and face not in cells:
                    raise FiltrationNotClosed(
                        "cell %r missing face %r" % (t, face))
    return tuple(sorted(cells, key=lambda c: (len(c), c)))


def _ref_closure(cells):
    out = set()
    for c in cells:
        k = len(c)
        out.add(c)
        for mask in range(1, (1 << k) - 1):
            out.add(tuple(c[i] for i in range(k) if mask >> i & 1))
    return out


def _ref_validate(s):
    levels = s.levels
    for tau in s.complex.cells:
        for pos in range(len(tau)):
            face = tau[:pos] + tau[pos + 1:]
            if face and face in levels and levels[face] > levels[tau]:
                raise FiltrationNotClosed(
                    "X^%d not closed: %r (level %d) has face %r at level %d"
                    % (levels[tau], tau, levels[tau], face, levels[face]))
    for p in s.stratum_levels():
        for c in s.filtration_stage(p):
            if len(c) - 1 > p:
                raise FiltrationNotClosed(
                    "dim X^%d exceeds %d at cell %r" % (p, p, c))
    strata = s.strata()
    closures = {p: _ref_closure(cells) for p, cells in strata.items()}
    lvls = s.stratum_levels()
    for i, p in enumerate(lvls):
        for q in lvls[:i]:
            lower = set(strata[q])
            met = closures[p] & lower
            if met and met != lower:
                missing = sorted(lower - met)[0]
                raise FrontierViolation(
                    "strata (%d, %d): closure of S^%d meets S^%d but misses %r"
                    % (p, q, p, q, missing))


def _ref_maximal_cells(cx):
    return [c for c in cx.cells
            if not any(set(c) < set(d) for d in cx.cells)]


def _outcome(call):
    """("ok", value), or the exception's class and message."""
    try:
        return "ok", call()
    except spaces.StratificationError as e:
        return type(e), str(e)


_simplex_lists = st.lists(
    st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
    min_size=1, max_size=8)


@settings(max_examples=150)
@given(_simplex_lists, st.booleans(), st.data())
def test_complex_cells_match_the_subset_walk(simplices, close, data):
    if not close:
        # a closed list with some cells dropped, in a drawn order
        full = sorted(_ref_closure(tuple(sorted(s)) for s in simplices))
        dropped = data.draw(st.sets(st.sampled_from(full), max_size=2))
        simplices = data.draw(st.permutations(
            [c for c in full if c not in dropped]))
    got = _outcome(lambda: SimplicialComplex(6, simplices, close=close).cells)
    assert got == _outcome(lambda: _ref_complex_cells(6, simplices, close))
    cells = [tuple(sorted(s)) for s in simplices]
    assert spaces.closure(cells) == _ref_closure(cells)


@settings(max_examples=200)
@given(_simplex_lists, st.sampled_from(["free", "closed", "closed-dim"]),
       st.data())
def test_validate_matches_the_reference(simplices, kind, data):
    cx = SimplicialComplex(6, simplices)
    top = cx.dim + 1
    if kind == "free":
        levels = dict(zip(cx.cells, data.draw(st.lists(
            st.integers(0, top), min_size=len(cx.cells),
            max_size=len(cx.cells)))))
    else:
        # a cell's level is the least weight of a maximal cell holding it,
        # so every stage is closed; "closed-dim" also keeps dim X^p <= p,
        # and the frontier condition may still fail
        maximal = _ref_maximal_cells(cx)
        weight = dict(zip(maximal, data.draw(st.lists(
            st.integers(0, top), min_size=len(maximal),
            max_size=len(maximal)))))
        floor = kind == "closed-dim"
        levels = {c: max(floor * (len(c) - 1),
                         min(w for m, w in weight.items() if set(c) <= set(m)))
                  for c in cx.cells}
    s = StratifiedComplex._of(cx, levels)
    assert _outcome(s.validate) == _outcome(lambda: _ref_validate(s))
    assert cx.maximal_cells() == _ref_maximal_cells(cx)


_BASES = ["point", "interval", "s1", "s2", "t2", "genus2"]
_FAMILY = (_BASES + ["cone-%s" % b for b in _BASES]
           + ["suspension-%s" % b for b in _BASES]
           + ["product:%s,%s" % (a, b) for i, a in enumerate(_BASES)
              for b in _BASES[i:]]
           + ["cone-cone-s1", "suspension-cone-s2", "cone-suspension-interval"])


@pytest.mark.parametrize("name", _FAMILY)
def test_examples_match_the_references(name):
    s = get_example(name)
    cx = s.complex
    assert _outcome(s.validate) == ("ok", None) == \
        _outcome(lambda: _ref_validate(s))
    # built by construction, with the d o d product left to this audit
    cx.cochain_complex().certify()
    for cells in s.strata().values():
        assert spaces.closure(cells) == _ref_closure(cells)
    maximal = cx.maximal_cells()
    if len(cx.cells) <= 1100:  # the reference scan is quadratic
        assert maximal == _ref_maximal_cells(cx)
    for close, given_cells in ((True, maximal), (False, cx.cells)):
        rebuilt = SimplicialComplex(cx.n_vertices, given_cells, close=close)
        assert rebuilt.cells == cx.cells == \
            _ref_complex_cells(cx.n_vertices, given_cells, close)


# -- spaces certified by construction --------------------------------------
# single_stratum, cone and suspension build through `_of` with no check, and
# product checks only its frontier condition, from the factors' tables.  The
# full validator and the d o d product stay as the independent audit.

def _certify_space(s):
    assert _outcome(s.validate) == ("ok", None)
    cc = s.complex.cochain_complex()
    cc.certify()
    assert cc.dims == dict(enumerate(s.complex.f_vector()))


def _delannoy(p, q):
    """Staircase chains over a p-simplex times a q-simplex."""
    if p == 0 or q == 0:
        return 1
    return (_delannoy(p - 1, q) + _delannoy(p, q - 1)
            + _delannoy(p - 1, q - 1))


def _product_size(x, y):
    fx, fy = x.complex.f_vector(), y.complex.f_vector()
    return sum(a * b * _delannoy(p, q) for p, a in enumerate(fx)
               for q, b in enumerate(fy))


_SMALL = ["point", "interval", "s1", "s2"]
_JOINED = st.builds(lambda prefixes, base: "".join(prefixes) + base,
                    st.lists(st.sampled_from(["cone-", "suspension-"]),
                             max_size=3),
                    st.sampled_from(_SMALL))


@settings(max_examples=30)
@given(_JOINED, _JOINED)
def test_drawn_joins_and_products_validate_and_certify(a, b):
    x, y = get_example(a), get_example(b)
    for s in (x, y):
        _certify_space(s)
    if _product_size(x, y) > 3000:
        return
    got = _outcome(lambda: product(x, y))
    if got[0] == "ok":
        _certify_space(got[1])
    else:
        assert got[0] is FrontierViolation
        assert got == _outcome(_unchecked_product(x, y).validate)


def _unchecked_product(sx, sy):
    """The product as it was built before it skipped validation: the
    staircase cells checked closed by `SimplicialComplex`, its levels the
    sums of the factor levels, through `_of` with no filtration check."""
    ny = sy.complex.n_vertices
    levels = {}
    for a in sx.complex.cells:
        for b in sy.complex.cells:
            for chain in spaces._staircase_chains(len(a) - 1, len(b) - 1):
                cell = tuple(sorted(a[i] * ny + b[j] for i, j in chain))
                levels[cell] = sx.levels[a] + sy.levels[b]
    cx = SimplicialComplex(sx.complex.n_vertices * ny, sorted(levels),
                           close=False)
    return StratifiedComplex._of(cx, levels)


# point, interval, s1 and s2 under six prefixes, and their ordered products
# up to 40000 cells: 555 products, 166 of which break the frontier condition
_PREFIXES = ["", "cone-", "suspension-", "cone-cone-", "suspension-cone-",
             "cone-suspension-"]
_FACTORS = [p + b for p in _PREFIXES for b in _SMALL]
_PRODUCT_CAP = 40000


def _product_family(left):
    x = get_example(left)
    for right in _FACTORS:
        y = get_example(right)
        if _product_size(x, y) <= _PRODUCT_CAP:
            yield right, x, y


# per left factor, the first 16 hex digits of the sha256 of the lines
# "<right>: <exception>: <message>" of its refused products, in _FACTORS
# order, as the product raised them when it validated every output
_REFUSALS = {
    "point": "e3b0c44298fc1c14",
    "interval": "e3b0c44298fc1c14",
    "s1": "e3b0c44298fc1c14",
    "s2": "e3b0c44298fc1c14",
    "cone-point": "7c293445233c8627",
    "cone-interval": "ce261f416d60d2d2",
    "cone-s1": "d5658f6db31e1ad4",
    "cone-s2": "85b42b52914411fd",
    "suspension-point": "7c293445233c8627",
    "suspension-interval": "ce261f416d60d2d2",
    "suspension-s1": "d5658f6db31e1ad4",
    "suspension-s2": "85b42b52914411fd",
    "cone-cone-point": "af0869c2695edd49",
    "cone-cone-interval": "d8340c4d2ac9508a",
    "cone-cone-s1": "4873a9f34ccde934",
    "cone-cone-s2": "8807a40feb7665d6",
    "suspension-cone-point": "af0869c2695edd49",
    "suspension-cone-interval": "d8340c4d2ac9508a",
    "suspension-cone-s1": "923dfbd05342551f",
    "suspension-cone-s2": "1866b0c10387dc44",
    "cone-suspension-point": "af0869c2695edd49",
    "cone-suspension-interval": "4873a9f34ccde934",
    "cone-suspension-s1": "5a43f1b028558827",
    "cone-suspension-s2": "4b7d07e1f7d04d96",
}


@pytest.mark.parametrize("left", _FACTORS)
def test_product_frontier_table_matches_validate(left):
    # the table's verdict is the full validator's: an accepted product
    # passes validate(), and the refusals are the ones pinned above
    refused = []
    for right, x, y in _product_family(left):
        holds = spaces._product_frontier_holds(x, y)
        got = _outcome(lambda: product(x, y))
        if got[0] == "ok":
            assert holds, right
            assert _outcome(got[1].validate) == ("ok", None), right
        else:
            assert not holds, right
            refused.append("%s: %s: %s" % (right, got[0].__name__, got[1]))
    digest = hashlib.sha256("\n".join(refused).encode()).hexdigest()[:16]
    assert digest == _REFUSALS[left]


def _three_step_tetrahedron():
    """A tetrahedron at level 3 whose edge (0, 1) and its vertices are a
    level-1 stratum.  Both triangles of the tetrahedron on that edge sit at
    level 2, so no facet of a level-3 cell lies at level 1: level 1 is in
    the closure of level 3 only through level 2."""
    cx = SimplicialComplex(4, [(0, 1, 2, 3)])
    levels = {c: 2 for c in cx.cells}
    levels.update({(0,): 1, (1,): 1, (0, 1): 1})
    levels.update({c: 3 for c in [(0, 1, 2, 3), (0, 2, 3), (1, 2, 3),
                                  (2, 3)]})
    return StratifiedComplex(cx, levels)


@pytest.mark.parametrize("name", _FAMILY + ["three-step"])
def test_closure_table_matches_the_stratum_closures(name):
    s = (_three_step_tetrahedron() if name == "three-step"
         else get_example(name))
    want = {p: {s.levels[c] for c in _ref_closure(cells)}
            for p, cells in s.strata().items()}
    assert spaces._closure_levels(s) == want


@pytest.mark.parametrize("other", ["point", "cone-point", "cone-interval",
                                   "cone-cone-point", "suspension-s1"])
def test_product_frontier_reads_the_closure_through_levels(other):
    x, y = _three_step_tetrahedron(), get_example(other)
    for a, b in ((x, y), (y, x)):
        got = _outcome(lambda: product(a, b))
        want = _outcome(_unchecked_product(a, b).validate)
        assert got[0] == want[0] and (got[0] == "ok" or got == want)
        assert spaces._product_frontier_holds(a, b) == (want[0] == "ok")


def test_product_family_has_both_outcomes():
    refused = [left + "," + right for left in _FACTORS
               for right, x, y in _product_family(left)
               if not spaces._product_frontier_holds(x, y)]
    assert sum(1 for left in _FACTORS for _ in _product_family(left)) == 555
    assert len(refused) == 166
    assert "cone-point,cone-cone-interval" in refused
    with pytest.raises(FrontierViolation,
                       match=r"strata \(3, 1\): closure of S\^3 meets S\^1 "
                             r"but misses \(3,\)"):
        get_example("product:cone-point,cone-cone-interval")


@settings(max_examples=60)
@given(st.sampled_from(["cone-s1", "suspension-interval", "cone-cone-interval",
                        "product:cone-point,s1", "cone-s2"]), st.data())
def test_mutated_filtration_is_refused_by_the_public_constructors(name, data):
    s = get_example(name)
    cx = s.complex
    cell = data.draw(st.sampled_from(cx.cells))
    level = data.draw(st.integers(0, s.top + 1).filter(
        lambda p: p != s.levels[cell]))
    levels = dict(s.levels)
    levels[cell] = level
    want = _outcome(lambda: _ref_validate(StratifiedComplex._of(cx, levels)))
    got = _outcome(lambda: StratifiedComplex(cx, levels))
    assert got[0] == want[0] and (got[0] == "ok" or got == want)
    stages = {}
    for c, p in levels.items():
        stages.setdefault(p, []).append(c)
    got = _outcome(lambda: build_stratified(cx, stages))
    assert got[0] == want[0] and (got[0] == "ok" or got == want)


def test_broken_filtrations_are_refused():
    s = get_example("cone-s1")
    cx = s.complex
    apex = (cx.n_vertices - 1,)
    raised = dict(s.levels)
    raised[apex] = 3  # the apex above its edges
    lowered = dict(s.levels)
    lowered[(0, 1)] = 0  # an edge below its vertices and its dimension
    for levels, error in ((raised, FiltrationNotClosed),
                          (lowered, FiltrationNotClosed)):
        with pytest.raises(error):
            StratifiedComplex(cx, levels)
        stages = {}
        for c, p in levels.items():
            stages.setdefault(p, []).append(c)
        with pytest.raises(error):
            build_stratified(cx, stages)
    bad = _unchecked_product(get_example("cone-point"),
                             get_example("cone-cone-interval"))
    with pytest.raises(FrontierViolation):
        StratifiedComplex(bad.complex, bad.levels)


@settings(max_examples=150)
@given(_simplex_lists)
def test_dimension_index_matches_the_scan(simplices):
    cx = SimplicialComplex(6, simplices)
    assert cx.dim == max(len(c) for c in cx.cells) - 1
    for d in range(-1, cx.dim + 2):
        assert list(cx.cells_of_dim(d)) == [c for c in cx.cells
                                            if len(c) == d + 1]
    assert cx.f_vector() == tuple(len(cx.cells_of_dim(d))
                                  for d in range(cx.dim + 1))
    assert cx.euler_characteristic() == sum((-1) ** (len(c) - 1)
                                            for c in cx.cells)
    sub = SimplicialComplex._of(6, [c for c in cx.cells if len(c) <= 2])
    assert list(sub.cells) == [c for c in cx.cells if len(c) <= 2]
    assert sub.dim == min(cx.dim, 1)
