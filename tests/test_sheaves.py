"""Sheaf cohomology against independent oracles.

Frozen targets: constant coefficients reproduce simplicial cohomology;
pushforward stalks on a cone point carry the link's cohomology; truncated
pushforwards reproduce the cone formula (link cohomology below the cutoff,
zero above); hypercohomology of a pushforward equals cohomology of the open
part it came from.
"""

from functools import partial
from unittest import mock

import pytest
from conftest import assert_normalized, run_python, two_term_sheaf
from hypothesis import given, settings, strategies as st

from strat_ic.examples import get_example
from strat_ic import duality, sheaves, spaces
from strat_ic.linalg import (CochainComplex, ExactMatrix, kernel_basis, rank,
                             solve_many, unit_rows)
from strat_ic.sheaves import (
    NotOpen, NotOpenComplement, SheafComplex, SheafError, _flags,
    constant_sheaf, derived_pushforward, flag_complex,
    incidence_complex, kan_pushforward, refine, sheaf_cohomology, truncate,
)
from strat_ic.spaces import single_stratum


def _betti_tuple(coh, top):
    return tuple(coh.get(k, 0) for k in range(top + 1))


# -- constant coefficients -------------------------------------------------

def test_constant_sheaf_matches_simplicial():
    for name, betti in [("s1", (1, 1)), ("s2", (1, 0, 1)),
                        ("t2", (1, 2, 1)), ("genus2", (1, 4, 1))]:
        s = get_example(name)
        coh = sheaf_cohomology(constant_sheaf(s, 1))
        assert _betti_tuple(coh, s.dim) == betti, name


@pytest.mark.parametrize("name", ["s2", "t2", "genus2", "product:s1,s1",
                                  "product:t2,s1", "cone-t2",
                                  "suspension-s2"])
def test_constant_sheaf_incidence_complex_is_the_cochain_complex(name):
    # the incidence complex of the rank-one constant sheaf is the simplicial
    # cochain complex entry for entry: the same cells in the same order and
    # the same `facets` signs.  So the `sheaf` command's simplicial-betti
    # oracle and proptest's sheaf-gluing row reduce one matrix twice: they
    # check that the reduction is deterministic, not a second route
    s = get_example(name)
    cx, _layout = sheaves.incidence_complex(constant_sheaf(s, 1))
    cc = s.complex.cochain_complex()
    assert cx.dims == cc.dims
    assert {k: m.entries for k, m in cx.diffs.items()} == \
        {k: m.entries for k, m in cc.diffs.items()}


def test_flag_model_agrees_on_full_space():
    for name in ("s1", "cone-s1", "s2"):
        s = get_example(name)
        F = constant_sheaf(s, 1)
        assert (sheaf_cohomology(F)
                == sheaf_cohomology(F, open_cells=list(s.complex.cells)))


def test_constant_sheaf_rank_scales():
    s = get_example("s1")
    coh = sheaf_cohomology(constant_sheaf(s, 3))
    assert coh == {0: 3, 1: 3}


def test_constant_sheaf_torsion_integral():
    s = get_example("s1")
    F = two_term_sheaf(s, 0, (2,))
    coh = sheaf_cohomology(F, integral=True)
    assert coh[-1].is_zero()
    assert coh[0].describe() == "Z/2"
    assert coh[1].describe() == "Z/2"


def test_validation_catches_broken_functoriality():
    s = get_example("s2")
    F = constant_sheaf(s, 1)
    bad = dict(F.restrictions)
    key = ((0, 1), (0, 1, 2))
    bad[key] = {0: bad[key][0].scale(2)}
    with pytest.raises(SheafError):
        SheafComplex(s, F.stalks, bad)


def test_malformed_sheaf_data_rejected():
    # the input checks are raises, not asserts, so -O keeps them
    code = "\n".join([
        "from strat_ic.examples import get_example",
        "from strat_ic.sheaves import (SheafComplex, SheafError,",
        "                              constant_sheaf, kan_pushforward)",
        "F = constant_sheaf(get_example('s2'), 1)",
        "R = F.restrictions",
        "for call in (",
        "        lambda: SheafComplex(F.space, dict(list(F.stalks.items())[1:]), R),",
        "        lambda: SheafComplex(F.space, F.stalks, {**R, ((0,), (0, 99)): {}}),",
        "        lambda: SheafComplex(F.space, F.stalks, {**R, ((0,), (0, 1, 2)): {}}),",
        "        lambda: kan_pushforward(F, {(99,): (0,)}, F.space),",
        "        lambda: kan_pushforward(F, {(0,): (99,)}, F.space),",
        "        lambda: F.restriction((0,), (1, 2), 0),",
        "        lambda: F.restriction((0,), (1, 2, 3), 0)):",
        "    try:",
        "        call()",
        "        print('accepted')",
        "    except SheafError as e:",
        "        print('rejected:', e)",
    ])
    for optimize in (False, True):
        proc = run_python("-c", code, optimize=optimize)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "rejected: stalks must cover all cells",
            "rejected: restriction (0,) -> (0, 99) off the complex",
            "rejected: stored restrictions must follow covering pairs, "
            "got (0,) -> (0, 1, 2)",
            "rejected: source cell (99,) unknown",
            "rejected: target cell (99,) unknown",
            "rejected: (0,) is not a face of (1, 2)",
            "rejected: (0,) is not a face of (1, 2, 3)",
        ]


# -- sections --------------------------------------------------------------
#
# Global sections over an open up-set U are H^0 of the derived sections
# sheaf_cohomology(F, open_cells=U) of a sheaf in stalk degree 0.

def test_global_sections_count_components():
    from strat_ic.spaces import SimplicialComplex
    two = single_stratum(SimplicialComplex(4, [(0, 1), (2, 3)]))
    assert sheaf_cohomology(constant_sheaf(two, 1))[0] == 2
    one = get_example("t2")
    assert sheaf_cohomology(constant_sheaf(one, 1))[0] == 1


def test_global_sections_over_star():
    s = get_example("cone-s1")
    F = constant_sheaf(s, 1)
    star = [c for c in s.complex.cells if 3 in c]
    assert sheaf_cohomology(F, open_cells=star)[0] == 1


def test_global_sections_rejects_non_open():
    s = get_example("s1")
    F = constant_sheaf(s, 1)
    with pytest.raises(NotOpen):
        sheaf_cohomology(F, open_cells=[(0,)])
    with pytest.raises(NotOpen):
        sheaf_cohomology(F, open_cells=[(0, 99)])


# -- pushforward -----------------------------------------------------------

def test_pushforward_stalk_is_link_cohomology():
    for name, link_betti in [("cone-s1", {0: 1, 1: 1}),
                             ("cone-t2", {0: 1, 1: 2, 2: 1})]:
        s = get_example(name)
        apex = (s.complex.n_vertices - 1,)
        Rj = derived_pushforward(constant_sheaf(s, 1), [apex])
        stalk_betti = Rj.stalk(apex).betti_numbers()
        for k, b in link_betti.items():
            assert stalk_betti.get(k, 0) == b, (name, k)


def test_leray_identity():
    # H(X, Rj_* F) = H(U, F) for the open inclusion j
    cases = [("cone-s1", [(3,)]), ("cone-t2", [(7,)])]
    for name, closed in cases:
        s = get_example(name)
        F = constant_sheaf(s, 1)
        Rj = derived_pushforward(F, closed)
        U = [c for c in s.complex.cells if c not in set(closed)]
        assert sheaf_cohomology(Rj) == sheaf_cohomology(F, open_cells=U), name


def test_leray_identity_with_edge_bearing_singular_set():
    # the removed closed set has cells of positive dimension, which makes
    # mixed face diamonds (one intermediate removed, one kept); strict
    # functoriality of the flag projections is what keeps this consistent
    p = get_example("product:cone-s1,s1")
    F = constant_sheaf(p, 1)
    sigma = p.stratum(1)
    Rj = derived_pushforward(F, sigma)
    Rj.validate()
    U = [c for c in p.complex.cells if c not in set(sigma)]
    out = sheaf_cohomology(Rj)
    assert out == sheaf_cohomology(F, open_cells=U)
    assert _betti_tuple(out, 3) == (1, 2, 1, 0)


def test_pushforward_requires_open_complement():
    s = get_example("cone-s1")
    F = constant_sheaf(s, 1)
    with pytest.raises(NotOpenComplement):
        derived_pushforward(F, [(0, 1)])  # an edge without its vertices
    with pytest.raises(NotOpenComplement):
        derived_pushforward(F, [(9,)])


def test_identity_pushforward_is_identity():
    s = get_example("s1")
    F = constant_sheaf(s, 1)
    same = kan_pushforward(F, {c: c for c in s.complex.cells}, s)
    assert same is F


# -- truncation ------------------------------------------------------------

def test_truncation_cone_formula():
    # IH of a cone: link cohomology strictly below the cutoff, zero at the
    # cone point above it
    cases = [
        ("cone-s1", 0, (1, 0, 0)),
        ("cone-s1", 1, (1, 1, 0)),
        ("cone-t2", 0, (1, 0, 0, 0)),
        ("cone-t2", 1, (1, 2, 0, 0)),
        ("cone-genus2", 1, (1, 4, 0, 0)),
        ("cone-s2", 1, (1, 0, 0, 0)),
        ("cone-s2", 2, (1, 0, 1, 0)),
    ]
    for name, cutoff, expect in cases:
        s = get_example(name)
        apex = (s.complex.n_vertices - 1,)
        Rj = derived_pushforward(constant_sheaf(s, 1), [apex])
        T = truncate(Rj, cutoff)
        coh = sheaf_cohomology(T)
        assert _betti_tuple(coh, s.dim) == expect, (name, cutoff)


def test_truncation_kills_high_stalk_degrees():
    s = get_example("cone-s1")
    Rj = derived_pushforward(constant_sheaf(s, 1), [(3,)])
    T = truncate(Rj, 0)
    for c in s.complex.cells:
        b = T.stalk(c).betti_numbers()
        assert all(v == 0 for k, v in b.items() if k > 0), c


def test_truncation_with_explicit_kernel_is_canonical():
    from strat_ic.linalg import kernel_basis
    s = get_example("cone-s1")
    Rj = derived_pushforward(constant_sheaf(s, 1), [(3,)])
    subs = {}
    for c in s.complex.cells:
        subs[c] = kernel_basis(Rj.stalk(c).diff(0))
    A = truncate(Rj, 0)
    B = refine(A, subs)
    assert sheaf_cohomology(A) == sheaf_cohomology(B)


# -- property: Leray holds for arbitrary closed subcomplexes ---------------

@st.composite
def _closed_subsets(draw):
    s = get_example("cone-s1")
    cells = list(s.complex.cells)
    picked = draw(st.lists(st.sampled_from(cells), max_size=3))
    closed = spaces.closure(picked)
    return s, sorted(closed, key=lambda c: (len(c), c))


@given(_closed_subsets())
@settings(max_examples=20)
def test_leray_random_closed_sets(case):
    s, closed = case
    F = constant_sheaf(s, 1)
    Rj = derived_pushforward(F, closed)
    U = [c for c in s.complex.cells if c not in set(closed)]
    lhs = sheaf_cohomology(Rj)
    rhs = sheaf_cohomology(F, open_cells=U) if U else {}
    for k in set(lhs) | set(rhs):
        assert lhs.get(k, 0) == rhs.get(k, 0), k


# -- differential: target-side assembly against the source-side original ---
#
# The references below are the flag enumeration and total-complex assembly
# that `sheaves` used before arrows were read off drops: `_ref_flags` walks
# an `above` table, and the flag differential is found from the source side
# by trying every candidate cell at every insert position.

def _ref_flags(cells):
    cells = sorted(set(cells), key=lambda c: (len(c), c))
    above = {c: [d for d in cells if len(d) > len(c) and set(c) < set(d)]
             for c in cells}
    out = []

    def extend(flag):
        out.append(tuple(flag))
        for d in above[flag[-1]]:
            flag.append(d)
            extend(flag)
            flag.pop()

    for c in cells:
        extend([c])
    out.sort(key=lambda f: (len(f), f))
    return out


def _ref_layout(sheaf, keys, top):
    layout = {}
    for key in keys:
        cx = sheaf.stalks[top(key)]
        for q in cx.degrees():
            if cx.dim(q):
                layout.setdefault(len(key) - 1 + q, []).append(
                    [key, q, 0, cx.dim(q)])
    for k in sorted(layout):
        off = 0
        blocks = layout[k]
        blocks.sort(key=lambda blk: (len(blk[0]), blk[0], blk[1]))
        for blk in blocks:
            blk[2] = off
            off += blk[3]
        layout[k] = [tuple(blk) for blk in blocks]
    return layout


def _ref_assemble(layout, arrows):
    if not layout:
        return CochainComplex({0: 0}, {})
    degrees = sorted(layout)
    dims = {k: sum(b[3] for b in layout.get(k, []))
            for k in range(degrees[0], degrees[-1] + 1)}
    index = {(key, q): (k, off, sz)
             for k, blocks in layout.items() for (key, q, off, sz) in blocks}
    diffs = {}
    for k in dims:
        if k + 1 not in dims:
            continue
        ent = {}
        for (key, q, off, sz) in layout.get(k, []):
            for (target, sign, mat) in arrows(key, q):
                spot = index.get(target)
                if spot is None:
                    continue
                tk, toff, tsz = spot
                assert tk == k + 1 and mat.shape == (tsz, sz)
                for (i, j), v in mat.entries.items():
                    cur = ent.get((toff + i, off + j), 0) + sign * v
                    if cur:
                        ent[(toff + i, off + j)] = cur
                    else:
                        ent.pop((toff + i, off + j), None)
        diffs[k] = ExactMatrix(dims[k + 1], dims[k], ent)
    return CochainComplex(dims, diffs)


def _ref_cofaces(cells):
    # cell -> [(coface, sign)]: a coface adds one vertex v, with the sign
    # (-1)^(position of v in the coface)
    cells = set(cells)
    verts = sorted({v for c in cells for v in c})
    out = {c: [] for c in cells}
    for c in cells:
        for v in verts:
            tau = tuple(sorted(c + (v,)))
            if v not in c and tau in cells:
                out[c].append((tau, (-1) ** tau.index(v)))
    return out


def _ref_incidence_complex(sheaf):
    layout = _ref_layout(sheaf, sheaf.space.complex.cells, lambda c: c)
    cofaces = _ref_cofaces(sheaf.space.complex.cells)

    def arrows(c, q):
        out = [((c, q + 1), (-1) ** (len(c) - 1), sheaf.stalks[c].diff(q))]
        for (tau, sign) in cofaces[c]:
            out.append(((tau, q), sign, sheaf.restriction(c, tau, q)))
        return out
    return _ref_assemble(layout, arrows), layout


def _ref_flag_complex(sheaf, cells):
    flags = _ref_flags(cells)
    layout = _ref_layout(sheaf, flags, lambda f: f[-1])
    flagset = set(flags)
    cand = sorted({c for f in flags for c in f}, key=lambda c: (len(c), c))

    def arrows(f, q):
        out = [((f, q + 1), (-1) ** (len(f) - 1), sheaf.stalks[f[-1]].diff(q))]
        ident = ExactMatrix.identity(sheaf.stalks[f[-1]].dim(q))
        for c in cand:
            if c in f:
                continue
            for pos in range(len(f) + 1):
                if pos > 0 and not set(f[pos - 1]) < set(c):
                    continue
                if pos < len(f) and not set(c) < set(f[pos]):
                    continue
                g = f[:pos] + (c,) + f[pos:]
                if g not in flagset:
                    continue
                mat = (sheaf.restriction(f[-1], c, q) if pos == len(f)
                       else ident)
                out.append(((g, q), (-1) ** pos, mat))
        return out
    return _ref_assemble(layout, arrows), layout


def _flag_total(sheaf, cells, through=None):
    # the complex of `flag_complex`'s rows, as the open-set cohomology
    # assembles it
    arrows, layout = flag_complex(sheaf, cells, through)
    return sheaves._total_complex(layout, arrows), layout


def _assert_same_total(got, want):
    (cx, layout), (ref_cx, ref_layout) = got, want
    assert list(layout.items()) == list(ref_layout.items())
    assert cx.dims == ref_cx.dims
    for k in cx.degrees():
        assert cx.diff(k).shape == ref_cx.diff(k).shape, k
        assert cx.diff(k).entries == ref_cx.diff(k).entries, k


@st.composite
def _sheaf_and_up_set(draw):
    # an up-set is the complement of a closed set; the sheaf is constant or
    # a derived pushforward, whose stalks on the removed cells are flag
    # complexes in several degrees with flag projections as restrictions
    s, closed = draw(_closed_subsets())
    _, removed = draw(_closed_subsets())
    F = constant_sheaf(s, draw(st.sampled_from([1, 2])))
    if draw(st.booleans()):
        F = derived_pushforward(F, removed)
    return F, [c for c in s.complex.cells if c not in set(closed)]


@given(_sheaf_and_up_set())
@settings(max_examples=25, deadline=None)
def test_total_complexes_match_source_side_reference(case):
    F, up = case
    assert _flags(up)[0] == _ref_flags(up)
    got = _flag_total(F, up), incidence_complex(F)
    for cx, _layout in got:
        cx.certify()    # assembled without the product
    _assert_same_total(got[0], _ref_flag_complex(F, up))
    _assert_same_total(got[1], _ref_incidence_complex(F))


# -- differential: stalks sliced from one flag complex against per-fiber ----
#
# The reference is the pushforward as it was before slicing, with nothing
# of `flag_complex`: one `_ref_flag_complex` per target cell, over the
# source cells whose image lies over that cell, and each restriction an
# identity on every block the two fibers share.

def _ref_kan_pushforward(sheaf, cell_map, target_space):
    cmap = {tuple(a): tuple(b) for a, b in cell_map.items()}
    stalks, layouts = {}, {}
    for t in target_space.complex.cells:
        cells = [c for c in sorted(cmap, key=lambda c: (len(c), c))
                 if set(t) <= set(cmap[c])]
        stalks[t], layouts[t] = _ref_flag_complex(sheaf, cells)
    index = {t: sheaves._block_index(layout) for t, layout in layouts.items()}
    restrictions = {}
    cells = target_space.complex.cells
    faces = {tau: [] for tau in cells}
    for sig, ups in _ref_cofaces(cells).items():
        for tau, _s in ups:
            faces[tau].append(sig)
    for tau in cells:
        # in the order of the dropped vertex, as the pushforward stores them
        for sig in sorted(faces[tau],
                          key=lambda sig: [v for v in tau if v not in sig]):
            mats = {}
            for k, blocks in layouts[tau].items():
                ent = {}
                for (f, q, toff, sz) in blocks:
                    spot = index[sig].get((f, q))
                    if spot is not None:
                        for i in range(sz):
                            ent[(toff + i, spot[1] + i)] = 1
                src_dim, tgt_dim = stalks[sig].dim(k), stalks[tau].dim(k)
                if ent or (src_dim and tgt_dim):
                    mats[k] = ExactMatrix(tgt_dim, src_dim, ent)
            restrictions[(sig, tau)] = mats
    out = SheafComplex(target_space, stalks, restrictions)
    out.stalk_layouts = layouts
    return out


def _assert_same_pushforward(got, want):
    assert list(got.stalks) == list(want.stalks)
    for t in want.stalks:
        _assert_same_total((got.stalks[t], got.stalk_layouts[t]),
                           (want.stalks[t], want.stalk_layouts[t]))
        for k in got.stalks[t].degrees():
            assert_normalized(got.stalks[t].diff(k))
    assert list(got.restrictions) == list(want.restrictions)
    for key, mats in want.restrictions.items():
        assert got.restrictions[key] == mats, key
        for m in got.restrictions[key].values():
            assert_normalized(m)


@given(_sheaf_and_up_set())
@settings(max_examples=25, deadline=None)
def test_derived_pushforward_matches_per_fiber_reference(case):
    F, up = case
    closed = [c for c in F.space.complex.cells if c not in set(up)]
    got = derived_pushforward(F, closed)
    if not closed:
        assert got is F
        return
    _assert_same_pushforward(
        got, _ref_kan_pushforward(F, {c: c for c in up}, F.space))


def _collapse_case(name):
    # the collapse of the bottom slice of section x interval, restratified,
    # as duality.fibration_decomposition builds it
    section = get_example(name)
    prod = spaces.product(section, get_example("interval"))
    slice_cells = duality._section_slice(prod, 0)
    levels = {c: section.dim + (c not in set(slice_cells))
              for c in prod.complex.cells}
    total = spaces.StratifiedComplex(prod.complex, levels)
    quotient, cmap = spaces.collapse(total, slice_cells)
    return total, quotient, cmap


@pytest.mark.parametrize("name", ["s1", "s2"])
@pytest.mark.parametrize("rank", [1, 2])
def test_collapse_pushforward_matches_per_fiber_reference(name, rank):
    total, quotient, cmap = _collapse_case(name)
    F = constant_sheaf(total, rank)
    _assert_same_pushforward(kan_pushforward(F, cmap, quotient),
                             _ref_kan_pushforward(F, cmap, quotient))


def test_non_monotone_cell_map_rejected():
    s = get_example("s1")
    F = constant_sheaf(s, 1)
    cmap = {c: c for c in s.complex.cells}
    cmap[(0,)], cmap[(0, 1)] = (0, 1), (0,)
    with pytest.raises(SheafError, match="not monotone"):
        kan_pushforward(F, cmap, s)


def test_pushforward_certifies_d_squared_above_check_limit():
    # a sheaf on s2 whose restriction (0,) -> (0, 1) is doubled, so the
    # diamonds (0,) < (0, 1) < (0, 1, k) no longer commute and its
    # pushforward's flag complex would not square to zero.  The sheaf is
    # above the size 1500 that once gated d o d checks; it is refused when
    # it is built, so no pushforward sees it, also under -O
    code = "\n".join([
        "from strat_ic.examples import get_example",
        "from strat_ic.sheaves import (SheafComplex, SheafError,",
        "                              constant_sheaf, derived_pushforward)",
        "F = constant_sheaf(get_example('s2'), 120)",
        "bad = dict(F.restrictions)",
        "bad[((0,), (0, 1))] = {0: bad[((0,), (0, 1))][0].scale(2)}",
        "print(F.total_dimension() > 1500)",
        "try:",
        "    G = SheafComplex(F.space, F.stalks, bad)",
        "    derived_pushforward(G, [(3,)])",
        "    print('accepted')",
        "except SheafError as e:",
        "    print('rejected:', e)",
    ])
    for optimize in (False, True):
        proc = run_python("-c", code, optimize=optimize)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "True", "rejected: restrictions (0,) -> (0, 1, 2) not functorial"]


# -- differential: pushforwards assembled through a degree ------------------
#
# `through` must give, on each stalk, the brutal truncation of the full
# pushforward at that stalk's top: through + 1 over a fiber with cells but
# no least cell and over every fiber containing one, else through.  The
# same stalk dimensions, differentials, layouts and restriction matrices in
# every degree up to the top, and nothing above.

def _ref_tops(cmap, targets, through):
    # brute force: each target cell's top stalk degree under `through`
    fibers = {t: [c for c, b in cmap.items() if set(t) <= set(b)]
              for t in targets}
    open_ended = [u for u, fiber in fibers.items()
                  if fiber and _ref_least_cell(cmap, u) is None]
    return {t: through + any(set(t) <= set(u) for u in open_ended)
            for t in targets}


def _assert_brutal_truncation(got, full, cmap, through):
    tops = _ref_tops(cmap, list(full.stalks), through)
    assert got.through == through and full.through is None
    assert list(got.stalks) == list(full.stalks)
    for t, cx in full.stalks.items():
        mine, top = got.stalks[t], tops[t]
        assert got.stalk_layouts[t] == {
            k: blocks for k, blocks in full.stalk_layouts[t].items()
            if k <= top}, t
        for q in set(cx.degrees()) | set(mine.degrees()):
            assert mine.dim(q) == (cx.dim(q) if q <= top else 0), (t, q)
            if q < top:
                assert mine.diff(q) == cx.diff(q), (t, q)
    assert list(got.restrictions) == list(full.restrictions)
    for key, mats in full.restrictions.items():
        assert got.restrictions[key] == {
            q: m for q, m in mats.items() if q <= tops[key[1]]}, key


# each case: (through -> pushforward, the cell map it is pushed along)

def _cone_t2_case():
    s = get_example("cone-t2")
    F = constant_sheaf(s, 1)
    return (lambda through: derived_pushforward(F, s.filtration_stage(0),
                                                through=through),
            _open_map(s, s.filtration_stage(0)))


def _cone_cone_s1_case():
    # the second attachment, pushed forward from a truncated sheaf
    s = get_example("cone-cone-s1")
    F = truncate(derived_pushforward(constant_sheaf(s, 1),
                                     s.filtration_stage(1)), 0)
    return (lambda through: derived_pushforward(F, s.filtration_stage(0),
                                                through=through),
            _open_map(s, s.filtration_stage(0)))


def _torsion_case():
    # two-term stalks start in stalk degree -1
    s = get_example("cone-s1")
    F = two_term_sheaf(s, 1, (2,))
    return (lambda through: derived_pushforward(F, [(3,)], through=through),
            _open_map(s, [(3,)]))


def _s1_collapse_case():
    total, quotient, cmap = _collapse_case("s1")
    F = constant_sheaf(total, 1)
    return (lambda through: kan_pushforward(F, cmap, quotient,
                                            through=through), cmap)


@pytest.mark.parametrize("case", [_cone_t2_case, _cone_cone_s1_case,
                                  _torsion_case, _s1_collapse_case])
def test_pushforward_through_is_brutal_truncation(case):
    # the brutal truncation of the full pushforward, on each stalk at that
    # stalk's top
    push, cmap = case()
    full = push(None)
    degrees = {k for lay in full.stalk_layouts.values() for k in lay}
    for through in range(min(degrees) - 1, max(degrees) + 2):
        got = push(through)
        assert got.source is full.source
        _assert_brutal_truncation(got, full, cmap, through)


def test_flags_stop_at_longest():
    cells = get_example("cone-s1").complex.cells
    every = _flags(cells)[0]
    for longest in range(1, 5):
        assert _flags(cells, longest)[0] == [f for f in every
                                          if len(f) <= longest]
    # one cell more for the chains over an up-set: the star of a vertex
    deeper = {c for c in cells if 3 in c}
    for longest in range(1, 4):
        flags, drops = _flags(cells, longest, deeper)
        assert flags == [f for f in every if len(f) <= longest
                         or (len(f) == longest + 1 and f[0] in deeper)]
        for f, ds in zip(flags, drops):
            assert [(flags[m], sign) for m, sign in ds] == [
                (f[:i] + f[i + 1:], (-1) ** i) for i in range(len(f))
                if len(f) > 1]


# -- differential: certified by construction against the generic validate ---
#
# No constructor calls `SheafComplex.validate`: pushforwards and truncations
# certify themselves from how they are built, at every size.  The
# generic check (shapes, chain maps and functoriality by exact products) and
# d o d = 0 on every stalk must still pass on each of them.

def _assert_certified(F):
    # the generic check, and d o d = 0 multiplied out on the stalks and on
    # both total complexes, which are assembled without that product
    F.validate()
    cells = F.space.complex.cells
    for cx in [*F.stalks.values(), incidence_complex(F)[0],
               _flag_total(F, cells)[0]]:
        cx.certify()


def _rebased(m, draw):
    # the same column span, rebased by 2I plus a random strictly upper
    # triangular matrix (invertible), which turns the unit rows that
    # kernel_basis puts on its free rows into rows without a lone 1
    n = m.cols
    ent = {(i, i): 2 for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.integers(-2, 2))
            if v:
                ent[(i, j)] = v
    return m * ExactMatrix(n, n, ent)


def _pushed(F, cmap, target, through):
    # the pushforward of a drawn case, with its inputs for the references
    return kan_pushforward(F, cmap, target, through), (F, cmap, through)


def _case(F, cmap, target, through, k):
    push, src = _pushed(F, cmap, target, through)
    return push, k, src


def _open_map(space, closed):
    closed = set(closed)
    return {c: c for c in space.complex.cells if c not in closed}


@st.composite
def _built_pushforwards(draw):
    # a derived pushforward off a random closed set of cone-s1 or off the
    # singular stratum of a cone or suspension, or a collapse pushforward;
    # assembled in every degree or through k + 1 for a drawn cutoff k.
    # Returns (push, k, (sheaf, map, through))
    k = draw(st.integers(0, 2))
    through = draw(st.sampled_from([None, k + 1]))
    kind = draw(st.sampled_from(["closed", "stratum", "collapse"]))
    rank_ = draw(st.sampled_from([1, 2]))
    if kind == "closed":
        # an empty closed set gives the constant sheaf itself
        s, closed = draw(_closed_subsets())
        push, src = _pushed(constant_sheaf(s, rank_), _open_map(s, closed),
                            s, through)
    elif kind == "stratum":
        s = get_example(draw(st.sampled_from(["cone-s1", "cone-t2",
                                              "suspension-s2"])))
        push, src = _pushed(constant_sheaf(s, rank_),
                            _open_map(s, s.filtration_stage(0)), s, through)
    else:
        total, quotient, cmap = _collapse_case(
            draw(st.sampled_from(["s1", "s2"])))
        push, src = _pushed(constant_sheaf(total, rank_), cmap, quotient,
                            through)
    return push, k, src


@given(_built_pushforwards(), st.data())
@settings(max_examples=20, deadline=None)
def test_constructed_sheaves_pass_generic_validate(case, data):
    push, k, _src = case
    _assert_certified(push)
    _assert_certified(truncate(push, k))
    # the same truncation refined onto rebased kernels: caller subspaces
    # without the unit-row witness, solved through the RREF
    cells = data.draw(st.sets(st.sampled_from(sorted(push.stalks))))
    subs = {c: _rebased(kernel_basis(push.stalk(c).diff(k)), data.draw)
            for c in cells}
    _assert_certified(refine(truncate(push, k), subs))


def _assert_same_truncation(got, want):
    assert got.untruncated is want.untruncated
    assert got.cutoff == want.cutoff
    assert list(got.stalks) == list(want.stalks)
    for c, cx in want.stalks.items():
        other = got.stalks[c]
        assert other.dims == cx.dims, c
        assert all(other.diff(q) == cx.diff(q) for q in cx.degrees()), c
        assert got.inclusions[c] == want.inclusions[c], c
    assert got.restrictions == want.restrictions


@given(_built_pushforwards(), st.data())
@settings(max_examples=20, deadline=None)
def test_refine_reuses_the_plain_truncation(case, data):
    # a refinement onto rebased kernels at drawn cells records the plain
    # truncation it refines, takes the caller's columns at the drawn cells,
    # and away from them is made of the plain truncation's own objects
    push, k, _src = case
    T = truncate(push, k)
    cells = data.draw(st.sets(st.sampled_from(sorted(push.stalks))))
    subs = {c: _rebased(kernel_basis(push.stalk(c).diff(k)), data.draw)
            for c in cells}
    G = refine(T, subs)
    assert G.refines is T and T.refines is None
    assert G.untruncated is push and G.cutoff == k
    assert list(G.stalks) == list(T.stalks)
    for c in push.stalks:
        if c in cells:
            assert G.inclusions[c] == (subs[c], None)
        else:
            assert G.stalks[c] is T.stalks[c]
            assert G.inclusions[c] is T.inclusions[c]
    for cover, mats in T.restrictions.items():
        if not cells.intersection(cover):
            assert G.restrictions[cover] is mats


def test_large_pushforward_passes_generic_validate():
    # above the size that once gated validate in the constructors
    s = get_example("suspension-t2")
    push = derived_pushforward(constant_sheaf(s, 1), s.filtration_stage(0))
    assert push.total_dimension() > 1500
    _assert_certified(push)
    _assert_certified(truncate(push, 1))


def test_refined_truncation_passes_generic_validate():
    # refined_ic refines the plain truncation onto caller subspaces: image
    # plus lifted classes
    from strat_ic.ic import (Mezzoperversity, lagrangian_subspaces,
                             link_middle_form, refined_ic)
    s = get_example("suspension-t2")
    choices = {v: lagrangian_subspaces(link_middle_form(s, v)[2],
                                       count_limit=1)[0]
               for v in s.stratum(0)}
    _assert_certified(refined_ic(s, Mezzoperversity(choices)).sheaf)


def test_refine_rejects_dependent_subspace_columns():
    # the certificate multiplies by the basis and needs it injective; a
    # repeated kernel column spans the right space but is refused, also
    # under -O
    code = "\n".join([
        "from strat_ic.examples import get_example",
        "from strat_ic.linalg import kernel_basis",
        "from strat_ic.sheaves import (SheafError, constant_sheaf,",
        "                              derived_pushforward, refine, truncate)",
        "Rj = derived_pushforward(constant_sheaf(get_example('cone-s1'), 1),",
        "                         [(3,)])",
        "T = truncate(Rj, 0)",
        "kb = kernel_basis(Rj.stalk((3,)).diff(0))",
        "for subs in ({(3,): kb}, {(3,): kb.stack_cols(kb)}):",
        "    try:",
        "        refine(T, subs)",
        "        print('accepted')",
        "    except SheafError as e:",
        "        print('rejected:', e)",
    ])
    for optimize in (False, True):
        proc = run_python("-c", code, optimize=optimize)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "accepted",
            "rejected: subspace at (3,) has dependent columns",
        ]


def test_refine_rejects_subspaces_that_are_not_cocycles():
    # e_0 at the open vertex (0,) is not a cocycle, yet every projection
    # to a coface kills it, so no map along a cover sees it; the product
    # B C == S refuses it, also under -O
    code = "\n".join([
        "from strat_ic.examples import get_example",
        "from strat_ic.linalg import ExactMatrix",
        "from strat_ic.sheaves import (SheafError, constant_sheaf,",
        "                              derived_pushforward, refine, truncate)",
        "Rj = derived_pushforward(constant_sheaf(get_example('cone-s1'), 1),",
        "                         [(3,)])",
        "cx = Rj.stalk((0,))",
        "e0 = ExactMatrix(cx.dim(0), 1, {(0, 0): 1})",
        "print('cocycle', (cx.diff(0) * e0).is_zero())",
        "print('killed', all((Rj.restriction((0,), b, 0) * e0).is_zero()",
        "                    for b in Rj.stalks if len(b) == 2 and 0 in b))",
        "try:",
        "    refine(truncate(Rj, 0), {(0,): e0})",
        "    print('accepted')",
        "except SheafError as e:",
        "    print('rejected:', e)",
    ])
    for optimize in (False, True):
        proc = run_python("-c", code, optimize=optimize)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "cocycle False",
            "killed True",
            "rejected: subspace at (0,) is not made of cocycles",
        ]


def test_pushforward_rejects_fiber_not_nested_in_its_faces():
    # the fibers are nested because the target cells over an image cell
    # are its faces; a face lookup that loses the vertex (0,) leaves the
    # fiber over (0,) empty while the fibers over the edges at (0,) are
    # not.  The restriction would be a zero map, not a projection: refused,
    # also under -O
    code = "\n".join([
        "from strat_ic import sheaves",
        "from strat_ic.examples import get_example",
        "faces = sheaves.faces",
        "sheaves.faces = lambda cell: [c for c in faces(cell) if c != (0,)]",
        "F = sheaves.constant_sheaf(get_example('cone-s1'), 1)",
        "try:",
        "    sheaves.derived_pushforward(F, [(3,)])",
        "    print('accepted')",
        "except sheaves.SheafError as e:",
        "    print('rejected:', e)",
    ])
    for optimize in (False, True):
        proc = run_python("-c", code, optimize=optimize)
        assert proc.returncode == 0, proc.stderr
        line, = proc.stdout.splitlines()
        assert line.startswith("rejected: the fiber over "), line
        assert line.endswith("is not inside the fiber over its face (0,)")


# -- kernel bases by the cone contraction ------------------------------------
#
# A pushforward records each fiber's least cell; `truncate` writes the kernel
# basis of a stalk with one down from the stalk (`_cone_kernel`) instead of
# eliminating.  The reference is `kernel_basis` on the same stalk.

def _ref_least_cell(push_source_cells, t):
    # brute force: the fiber cell that is a face of every fiber cell
    fiber = [c for c, b in push_source_cells.items() if set(t) <= set(b)]
    for s in fiber:
        if all(set(s) <= set(c) for c in fiber):
            return s
    return None


def _ladder_step(name, cut=0, torsion=False):
    # the input of the last step of a ladder and the map it is pushed
    # along: on cone-cone-s1 a pushforward truncated at `cut`, whose stalks
    # on the first stratum have a differential when cut > 0; `torsion`
    # starts from the two-term sheaf for Z + Z/2
    s = get_example(name)
    *upper, low = sorted(s.singular_levels(), reverse=True)
    F = two_term_sheaf(s, 1, (2,)) if torsion else constant_sheaf(s, 1)
    for p in upper:
        F = truncate(derived_pushforward(F, s.filtration_stage(p)), cut)
    return F, _open_map(s, s.filtration_stage(low))


@st.composite
def _pushforwards_with_least_cells(draw):
    # derived pushforwards off random closed sets and singular strata, the
    # fibration_decomposition collapse, and the last step of two ladders,
    # through k + 1; the others through k + 1 or every degree.  The
    # ladder's second step and torsion coefficients (stalks in degrees -1
    # and 0) give fibers whose least cell's stalk has a differential d_s.
    # Returns (push, k, (sheaf, map, through))
    k = draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["closed", "stratum", "collapse", "ladder",
                                 "torsion"]))
    through = draw(st.sampled_from([None, k + 1]))
    rank_ = draw(st.sampled_from([1, 2]))
    if kind == "closed":
        # nonempty: along the identity the pushforward is the sheaf itself
        s, closed = draw(_closed_subsets().filter(lambda sc: sc[1]))
        return _case(constant_sheaf(s, rank_), _open_map(s, closed), s,
                     through, k)
    if kind == "stratum":
        s = get_example(draw(st.sampled_from(["cone-s1", "cone-t2",
                                              "suspension-s2"])))
        return _case(constant_sheaf(s, rank_),
                     _open_map(s, s.filtration_stage(0)), s, through, k)
    if kind == "collapse":
        total, quotient, cmap = _collapse_case(
            draw(st.sampled_from(["s1", "s2"])))
        return _case(constant_sheaf(total, rank_), cmap, quotient, through, k)
    if kind == "ladder":
        F, cmap = _ladder_step(
            draw(st.sampled_from(["cone-cone-s1", "cone-product:s1,s1"])),
            cut=draw(st.integers(0, 1)))
        return _case(F, cmap, F.space, k + 1, k)
    F, cmap = _ladder_step(draw(st.sampled_from(["cone-s1", "cone-cone-s1"])),
                           torsion=True)
    return _case(F, cmap, F.space, k, k - 1)


@given(_pushforwards_with_least_cells())
@settings(max_examples=30, deadline=None)
def test_cone_kernel_spans_the_kernel(case):
    push, k, (_F, cmap, _through) = case
    assert push.least_cells == {t: _ref_least_cell(cmap, t)
                                for t in push.space.complex.cells}
    cut = truncate(push, k)
    _assert_certified(push)
    _assert_certified(cut)
    for t, cx in push.stalks.items():
        s = push.least_cells[t]
        old = kernel_basis(cx.diff(k))
        inc = cut.inclusions[t]
        _assert_unit_rows(inc)
        if s is None:
            assert inc.basis == old
            continue
        got, runs = sheaves._cone_kernel(push, t, k)
        assert inc == got and cut.matching.get(t, ()) == runs
        assert got.units == unit_rows(got.basis)
        new = got.basis
        assert_normalized(new)
        assert (cx.diff(k) * new).is_zero()
        assert (rank(new) == new.cols == old.cols
                == rank(old.stack_cols(new)))


def _assert_unit_rows(inc):
    # `units` names, for every column of the basis, a row where it holds a
    # lone 1 and no other column has an entry, so a cocycle's coordinates
    # are its entries at those rows
    rows = {}
    for (r, c), v in inc.basis.entries.items():
        rows.setdefault(r, {})[c] = v
    assert len(inc.units) == inc.basis.cols
    for p, i in enumerate(inc.units):
        assert rows.get(i) == {p: 1}, (p, i)


def test_derived_pushforward_least_cells_are_the_open_cells():
    s = get_example("cone-t2")
    closed = set(s.filtration_stage(0))
    push = derived_pushforward(constant_sheaf(s, 1), closed, through=2)
    assert push.least_cells == {t: None if t in closed else t
                                for t in s.complex.cells}


def test_truncate_eliminates_only_on_fibers_without_a_least_cell():
    # the constant sheaf's stalk has no differential, so the open stalks'
    # small kernels need no elimination either: one rref per closed stalk
    from unittest import mock
    from strat_ic import linalg
    s = get_example("suspension-t2")
    push = derived_pushforward(constant_sheaf(s, 1), s.filtration_stage(0),
                               through=2)
    with mock.patch.object(linalg, "rref", wraps=linalg.rref) as spy:
        truncate(push, 1)
    shapes = sorted(call.args[0].shape for call in spy.call_args_list)
    assert shapes == sorted(push.stalk(t).diff(1).shape
                            for t, least in push.least_cells.items()
                            if least is None)
    assert len(shapes) == 2


def test_cone_kernel_refuses_a_missing_partner_block():
    # cone-s1 cut at 1, assembled through 1: the stalk over the edge (0, 1)
    # holds the flags of its star; the last block of degree 1 is a partner,
    # so dropping it leaves an A-flag of degree 0 without one.  Refused,
    # also under -O
    code = "\n".join([
        "from strat_ic.examples import get_example",
        "from strat_ic.sheaves import (SheafError, constant_sheaf,",
        "                              derived_pushforward, truncate)",
        "s = get_example('cone-s1')",
        "push = derived_pushforward(constant_sheaf(s, 1),",
        "                           s.filtration_stage(0), through=1)",
        "t = (0, 1)",
        "print(push.least_cells[t], push.stalk_layouts[t][1][-1][0])",
        "for drop in (False, True):",
        "    if drop:",
        "        layouts = dict(push.stalk_layouts)",
        "        layouts[t] = dict(layouts[t])",
        "        layouts[t][1] = layouts[t][1][:-1]",
        "        push.stalk_layouts = layouts",
        "    try:",
        "        truncate(push, 1)",
        "        print('accepted')",
        "    except SheafError as e:",
        "        print('rejected:', e)",
    ])
    for optimize in (False, True):
        proc = run_python("-c", code, optimize=optimize)
        assert proc.returncode == 0, proc.stderr
        first, accepted, rejected = proc.stdout.splitlines()
        assert first.startswith("(0, 1) ((0, 1), "), first
        assert accepted == "accepted"
        assert rejected.startswith("rejected: block "), rejected
        assert "has no partner" in rejected
        assert rejected.endswith("in stalk degrees 0 and 1 of its layout")


def test_cone_kernel_refuses_a_partner_without_its_a_flag():
    # the other direction of the matching: a partner block of degree k
    # whose A-flag of degree k - 1 is gone from the layout
    s = get_example("cone-s1")
    push = derived_pushforward(constant_sheaf(s, 1), s.filtration_stage(0),
                               through=2)
    t = (0, 1)
    assert push.stalk_layouts[t][0] and push.least_cells[t] == t
    blocks = push.stalk_layouts[t][0]
    a_flag = next(b for b in blocks if b[0][0] != t)
    layouts = dict(push.stalk_layouts)
    layouts[t] = dict(layouts[t])
    layouts[t][0] = [b for b in blocks if b is not a_flag]
    push.stalk_layouts = layouts
    with pytest.raises(SheafError, match="has no partner"):
        truncate(push, 1)


def test_cone_kernel_refuses_a_non_cocycle_lift():
    # the lift is read on the pushforward's input: a caller's copy of the
    # constant sheaf (restrictions as stored, not recorded as identities),
    # pushed forward through 0, then one of its restrictions doubled.  iota(z) would no longer be a cocycle; the two face paths
    # from (0,) to (0, 1, 3) disagree on z.  Refused, also under -O
    code = "\n".join([
        "from strat_ic.examples import get_example",
        "from strat_ic.linalg import CertificateError, ExactMatrix",
        "from strat_ic.sheaves import (SheafComplex, constant_sheaf,",
        "                              derived_pushforward, truncate)",
        "s = get_example('cone-s1')",
        "C = constant_sheaf(s, 1)",
        "F = SheafComplex(s, C.stalks, C.restrictions)",
        "push = derived_pushforward(F, s.filtration_stage(0), through=0)",
        "print(push.least_cells[(0,)], F.identity_restrictions,",
        "      push.source is F)",
        "for bad in (False, True):",
        "    if bad:",
        "        F.restrictions[((0, 1), (0, 1, 3))] = {",
        "            0: ExactMatrix(1, 1, {(0, 0): 2})}",
        "        F._composed.clear()",
        "    try:",
        "        truncate(push, 0)",
        "        print('accepted')",
        "    except CertificateError as e:",
        "        print('rejected:', e)",
    ])
    for optimize in (False, True):
        proc = run_python("-c", code, optimize=optimize)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "(0,) False True", "accepted",
            "rejected: the input's restrictions from (0,) to (0, 1, 3) "
            "disagree along two face paths on a kernel vector"]


# -- the arrow-emitted pushforward and the maps read at unit rows ------------
#
# `kan_pushforward` writes each fiber's stalk from the arrows `flag_complex`
# emits once and records each projection's pick list, and `truncate` reads
# every map at its cutoff at the target basis's unit rows.  The
# references: `_ref_kan_pushforward` and `_ref_flag_complex`, which share
# no code with them, and `solve_many` on every column of the full product.

_pushforward_cases = st.one_of(_built_pushforwards(),
                               _pushforwards_with_least_cells())


@given(_pushforward_cases)
@settings(max_examples=30, deadline=None)
def test_arrow_emitted_pushforward_matches_references(case):
    push, _k, (F, cmap, through) = case
    if push is F:
        return      # along the identity the pushforward is the sheaf itself
    _assert_same_total(_flag_total(F, list(cmap)),
                       _ref_flag_complex(F, list(cmap)))
    ref = _ref_kan_pushforward(F, cmap, push.space)
    if through is None:
        _assert_same_pushforward(push, ref)
    else:
        _assert_brutal_truncation(push, ref, cmap, through)
    for cover, mats in push.restrictions.items():
        assert set(push.projections[cover]) == set(mats)
        for q, m in mats.items():
            pick = push.projections[cover][q]
            assert m == ExactMatrix(m.rows, m.cols, dict.fromkeys(
                enumerate(pick), 1)), (cover, q)


def _assert_maps_match_solve_many(push, k, G):
    # every map of G at the cutoff, read or solved for, is the one
    # solve_many finds for it from the full product, on every column; a
    # caller subspace records no unit rows, every other basis one per column
    for c, cx in push.stalks.items():
        inc = G.inclusions[c]
        if G.refines is not None and inc is not G.refines.inclusions[c]:
            assert inc.units is None
        else:
            _assert_unit_rows(inc)
        if k - 1 in G.stalks[c].dims and k in G.stalks[c].dims:
            assert G.stalks[c].diff(k - 1) == solve_many(
                inc.basis, cx.diff(k - 1)), c
    for (a, b), mats in G.restrictions.items():
        if k in mats:
            want = push.restriction(a, b, k) * G.inclusions[a].basis
            assert mats[k] == solve_many(G.inclusions[b].basis, want), (a, b)


@given(_pushforward_cases)
@settings(max_examples=30, deadline=None)
def test_truncated_maps_match_solve_many(case):
    # truncate reads every map and solves for none
    push, k, _src = case
    with mock.patch.object(sheaves, "solve_columns", _no_solve):
        G = truncate(push, k)
    _assert_maps_match_solve_many(push, k, G)


def _no_solve(basis, target):
    raise AssertionError("solve_columns called")


def _ladder_steps(name, perversity):
    # every step of the ih ladder: (pushforward, cutoff, its truncation)
    from strat_ic.ic import Perversity
    s, perv = get_example(name), Perversity.named(perversity)
    F = constant_sheaf(s)
    for p in sorted(s.singular_levels(), reverse=True):
        cut = perv(s.top - p)
        push = derived_pushforward(F, s.filtration_stage(p), through=cut)
        F = truncate(push, cut)
        yield push, cut, F


def _second_step(cut, torsion, k):
    # the last step of the cone-cone-s1 ladder, over a truncated sheaf whose
    # restrictions between least cells are not identities: iota_a(z) meets
    # the next least cell s_b in r(s_a, s_b) z, not in z
    F, cmap = _ladder_step("cone-cone-s1", cut, torsion)
    push = kan_pushforward(F, cmap, F.space, k + 1)
    yield push, k, truncate(push, k)


def _fibration_step(name):
    # the truncated Kan pushforward of duality.fibration_decomposition
    total, quotient, cmap = _collapse_case(name)
    cut = get_example(name).dim - 1
    push = kan_pushforward(constant_sheaf(total), cmap, quotient,
                           through=cut)
    yield push, cut, truncate(push, cut)


def _refined_step(name):
    # refined_ic's truncation: refined onto caller subspaces at the cone
    # points
    from strat_ic.ic import (Mezzoperversity, lagrangian_subspaces,
                             link_middle_form, refined_ic)
    s = get_example(name)
    G = refined_ic(s, Mezzoperversity({
        v: lagrangian_subspaces(link_middle_form(s, v)[2], count_limit=1)[0]
        for v in s.stratum(0)})).sheaf
    assert any(inc.units is None for inc in G.inclusions.values())
    yield G.untruncated, G.cutoff, G


def _truncated_twice():
    # a certified sheaf that is not a pushforward: r B_a is the restriction
    # times B_a, read at B_b's unit rows
    F, _cmap = _ladder_step("cone-cone-s1", cut=1)
    assert F.projections is None
    yield F, 0, truncate(F, 0)


_CUTOFF_CASES = {
    **{"ladder %s %s" % (name, perversity): partial(_ladder_steps, name,
                                                    perversity)
       for name in ["cone-s2", "cone-t2", "cone-genus2", "suspension-s2",
                    "suspension-t2", "cone-cone-s1", "cone-product:s1,s1"]
       for perversity in ["lower-middle", "upper-middle"]},
    **{"second step cut %d torsion %s k %d" % args: partial(_second_step,
                                                            *args)
       for args in [(1, False, 1), (0, True, 0), (1, True, 1)]},
    **{"fibration %s" % name: partial(_fibration_step, name)
       for name in ["s1", "s2", "t2", "genus2"]},
    "refined suspension-t2": partial(_refined_step, "suspension-t2"),
    "truncation of a truncation": _truncated_twice,
}


@pytest.mark.parametrize("case", list(_CUTOFF_CASES))
def test_cutoff_maps_match_solve_many(case):
    # one differential test for every map at the cutoff, on the ih ladder's
    # spaces, the second cone-cone-s1 step, the fibrations and a refined
    # truncation; the drawn pushforwards go through the same check in
    # test_truncated_maps_match_solve_many
    for push, k, G in _CUTOFF_CASES[case]():
        _assert_maps_match_solve_many(push, k, G)


@pytest.mark.parametrize("case", [_cone_t2_case, _cone_cone_s1_case,
                                  _torsion_case, _s1_collapse_case])
def test_truncate_by_projections_matches_full_products(case, monkeypatch):
    # without the recorded pick lists every map at the cutoff is solved
    # for on every column of r B_a, the product
    push = case()[0](None)
    degrees = sorted({k for lay in push.stalk_layouts.values() for k in lay})
    for k in degrees[:-1]:
        fast = truncate(push, k)
        with monkeypatch.context() as patched:
            patched.setattr(push, "projections", None)
            slow = truncate(push, k)
        assert fast.restrictions == slow.restrictions, k
        assert all(fast.stalks[c].diffs == slow.stalks[c].diffs
                   for c in push.stalks), k


def _solved_columns(push, k, G, cells):
    # the columns a refinement of the truncation of `push` at k onto
    # subspaces at `cells` hands solve_columns: d^(k-1) at each of `cells`
    # and the map along every cover into one of them
    calls = []
    for c, cx in push.stalks.items():
        if c in cells and k - 1 in G.stalks[c].dims and k in G.stalks[c].dims:
            calls.append(cx.dim(k - 1))
    for (a, b), mats in push.restrictions.items():
        if k in mats and b in cells:
            calls.append(G.inclusions[a].basis.cols)
    return sorted(calls)


def test_refine_solves_only_the_columns_it_changes(monkeypatch):
    # the pushforward builds no identity matrix, and truncate reads every
    # map at the cutoff: solve_columns is not called.  refine calls it once
    # per subspace cell and once per cover into one, on exactly those
    # columns; with the truncation's own bases as subspaces it gives the
    # truncation's maps
    s = get_example("suspension-t2")
    F = constant_sheaf(s, 1)

    def no_identity(n):
        raise AssertionError("identity built")
    with monkeypatch.context() as patched:
        patched.setattr(ExactMatrix, "identity", no_identity)
        push = derived_pushforward(F, s.filtration_stage(0), through=2)
    seen = []
    real = sheaves.solve_columns

    def counted(basis, target):
        seen.append(target.cols)
        return real(basis, target)
    monkeypatch.setattr(sheaves, "solve_columns", counted)
    plain = truncate(push, 1)
    assert seen == []
    # caller subspaces equal to the kernel bases: the closed cells, one open
    # vertex and one open edge, which is the target of two covers; the maps
    # solved for are the ones read without them
    cells = {c for c, least in push.least_cells.items() if least is None}
    assert len(cells) == 2
    cells.add(min(c for c in push.stalks if c not in cells))
    cells.add(min(c for c in push.stalks if len(c) == 2))
    G = refine(plain, {c: plain.inclusions[c].basis for c in cells})
    into = [cover for cover in push.restrictions if cover[1] in cells]
    assert len(into) == 2
    assert len(seen) == len(cells) + len(into)
    assert sorted(seen) == _solved_columns(push, 1, G, cells)
    assert G.restrictions == plain.restrictions
    assert all(G.stalks[c].diffs == plain.stalks[c].diffs
               for c in push.stalks)


# -- differential: refine against the route that solved for every map --------
#
# The reference, `_solved_refinement`, solves for every map at the cutoff
# from the pushforward's stalks and restrictions: S X = d^(k-1) at every
# cell and B_b Y = r B_a along every cover, by `solve_many` on the full
# products, with S the caller's columns where given and the plain
# truncation's basis elsewhere.  `refine` gives the same stalks,
# restrictions and inclusions.

def _solved_refinement(push, k, subspaces):
    plain = truncate(push, k).inclusions
    bases = {c: sheaves.Inclusion(subspaces[c], None) if c in subspaces
             else plain[c] for c in push.stalks}
    stalks = {}
    for c, cx in push.stalks.items():
        B = bases[c].basis
        dims = {q: cx.dim(q) if q < k else B.cols
                for q in cx.degrees() if q <= k} or {k: 0}
        stalks[c] = CochainComplex._of(dims, {
            q: cx.diff(q) if q + 1 < k else solve_many(B, cx.diff(q))
            for q in dims if q + 1 in dims})
    restrictions = {
        (a, b): {q: m if q < k else solve_many(
            bases[b].basis, push.restriction(a, b, k) * bases[a].basis)
            for q, m in mats.items() if q <= k}
        for (a, b), mats in push.restrictions.items()}
    out = SheafComplex._of(push.space, stalks, restrictions)
    out.untruncated, out.cutoff, out.inclusions = push, k, bases
    return out


@given(_built_pushforwards(), st.data())
@settings(max_examples=20, deadline=None)
def test_refine_matches_the_solved_route(case, data):
    push, k, _src = case
    cells = data.draw(st.sets(st.sampled_from(sorted(push.stalks))))
    subs = {c: _rebased(kernel_basis(push.stalk(c).diff(k)), data.draw)
            for c in cells}
    _assert_same_truncation(refine(truncate(push, k), subs),
                            _solved_refinement(push, k, subs))


@pytest.mark.parametrize("name", ["suspension-t2", "suspension-genus2"])
def test_refined_ic_matches_the_solved_route(name):
    (push, k, G), = _refined_step(name)
    subs = {c: inc.basis for c, inc in G.inclusions.items()
            if inc.units is None}
    assert sorted(subs) == sorted(get_example(name).stratum(0))
    _assert_same_truncation(G, _solved_refinement(push, k, subs))


# -- differential: open fibers stopped at the cutoff against the uniform rule
#
# A pushforward truncated at k holds degree k + 1 only over the fibers with
# no least cell (and those containing one).  The reference is the uniform
# rule: the pushforward through k + 1 cut brutally at k + 1 on every stalk
# (`_uniform`, rebuilt here from the stalks, layouts and pick lists).  Truncated at k, both give the same
# stalks, restrictions, inclusion bases and cohomology.

def _uniform(push, top):
    # every stalk, layout, pick list and restriction of `push` cut at `top`
    stalks = {t: CochainComplex._of(
        {q: n for q, n in cx.dims.items() if q <= top} or {top: 0},
        {q: m for q, m in cx.diffs.items() if q < top})
        for t, cx in push.stalks.items()}
    out = SheafComplex._of(push.space, stalks, {
        cover: {q: m for q, m in mats.items() if q <= top}
        for cover, mats in push.restrictions.items()})
    out.stalk_layouts = {t: {k: b for k, b in lay.items() if k <= top}
                         for t, lay in push.stalk_layouts.items()}
    out.projections = {cover: {k: p for k, p in picks.items() if k <= top}
                       for cover, picks in push.projections.items()}
    out.least_cells, out.source = push.least_cells, push.source
    out.through = top
    return out


def _assert_same_cut(got, want):
    # two truncations at one cutoff: equal stalks, maps, bases and
    # cohomology
    assert got.cutoff == want.cutoff
    for c, cx in want.stalks.items():
        assert got.stalks[c].dims == cx.dims, c
        assert got.stalks[c].diffs == cx.diffs, c
        assert got.inclusions[c].basis == want.inclusions[c].basis, c
    assert got.restrictions == want.restrictions
    assert sheaf_cohomology(got) == sheaf_cohomology(want)


def _against_uniform(F, cmap, target, k):
    # the truncation at k of the pushforward through k, checked against the
    # uniform rule's, and returned
    push = kan_pushforward(F, cmap, target, k)
    old = _uniform(kan_pushforward(F, cmap, target, k + 1), k + 1)
    assert push.through == k and old.through == k + 1
    tops = _ref_tops(cmap, list(push.stalks), k)
    for t, cx in push.stalks.items():
        assert all(q <= tops[t] for q, n in cx.dims.items() if n), t
    got = truncate(push, k)
    _assert_same_cut(got, truncate(old, k))
    return got


_IH_LADDERS = [(name, perversity)
               for name in ["cone-s2", "cone-t2", "cone-genus2",
                            "suspension-s2", "suspension-t2", "cone-cone-s1",
                            "cone-product:s1,s1"]
               for perversity in ["lower-middle", "upper-middle"]]


@pytest.mark.parametrize("name,perversity", _IH_LADDERS)
def test_ladder_steps_match_the_uniform_rule(name, perversity):
    from strat_ic.ic import Perversity, deligne_construction
    s, perv = get_example(name), Perversity.named(perversity)
    F = constant_sheaf(s)
    for p in sorted(s.singular_levels(), reverse=True):
        F = _against_uniform(F, _open_map(s, s.filtration_stage(p)), s,
                             perv(s.top - p))
    assert F.restrictions == deligne_construction(s, perv).sheaf.restrictions


@given(_pushforward_cases)
@settings(max_examples=30, deadline=None)
def test_drawn_pushforwards_match_the_uniform_rule(case):
    # the drawn pushforwards, two-term stalks from stalk degree -1 included
    push, k, (F, cmap, _through) = case
    if push is not F:
        _against_uniform(F, cmap, push.space, k)


@pytest.mark.parametrize("k", [-1, 0, 1])
def test_two_term_pushforward_matches_the_uniform_rule(k):
    # stalks from stalk degree -1 (Z + Z/2), pushed off the cone point
    s = get_example("cone-s1")
    _against_uniform(two_term_sheaf(s, 1, (2,)), _open_map(s, [(3,)]), s, k)


@pytest.mark.parametrize("name", ["s1", "genus2"])
def test_fibration_collapse_matches_the_uniform_rule(name):
    total, quotient, cmap = _collapse_case(name)
    _against_uniform(constant_sheaf(total), cmap, quotient,
                     get_example(name).dim - 1)


@pytest.mark.parametrize("name,perversity", _IH_LADDERS)
def test_cone_kernel_units_are_the_scanned_unit_rows(name, perversity):
    # the unit rows the contraction writes down are the ones the scan of
    # linalg.unit_rows finds, on every contraction stalk of the ladder
    seen = 0
    for push, _k, G in _ladder_steps(name, perversity):
        for t, s in push.least_cells.items():
            if s is not None:
                inc = G.inclusions[t]
                assert inc.units == unit_rows(inc.basis), t
                seen += 1
    assert seen


def test_ladder_pushforwards_stop_their_open_fibers_at_the_cutoff():
    # a guard against assembling every fiber through cutoff + 1 again: the
    # summed fiber-stalk dimensions of the lower-middle ladder pushforwards
    # (1680 on cone-t2 and 2982 on suspension-t2 under the uniform rule),
    # and no stalk over a fiber with a least cell above the cutoff
    dims = {}
    for name in ("cone-t2", "suspension-t2"):
        (push, cut, _G), = _ladder_steps(name, "lower-middle")
        assert push.through == cut == 0
        dims[name] = sum(cx.total_dimension() for cx in push.stalks.values())
        for t, cx in push.stalks.items():
            if push.least_cells[t] is not None:
                assert all(q <= cut for q, n in cx.dims.items() if n), t
    assert dims == {"cone-t2": 672, "suspension-t2": 1176}


# the certificates the constructors, the refinement and the pairing keep,
# each broken once: a non-monotone map, a restriction of the wrong shape, a
# corrupted projection along a cover into a cell that took a caller
# subspace (the coboundaries, which the true maps land in), a corrupted
# column of a stalk and a corrupted restriction of a caller's copy, both
# refused when they are built, and a component outside the top truncation
# in a pairing
_KEPT_CERTIFICATES = "\n".join([
    "from strat_ic import duality, ic, sheaves",
    "from strat_ic.examples import get_example",
    "from strat_ic.linalg import (CertificateError, CochainComplex,",
    "                             ExactMatrix, pivot_columns, solve)",
    "def attempt(label, call):",
    "    try:",
    "        call()",
    "        print(label, 'accepted')",
    "    except (sheaves.SheafError, CertificateError) as e:",
    "        print(label, type(e).__name__, e)",
    "s1 = get_example('s1')",
    "F = sheaves.constant_sheaf(s1, 1)",
    "cmap = {c: c for c in s1.complex.cells}",
    "cmap[(0,)], cmap[(0, 1)] = (0, 1), (0,)",
    "attempt('monotone', lambda: sheaves.kan_pushforward(F, cmap, s1))",
    "wide = {0: ExactMatrix(2, 1, {(0, 0): 1, (1, 0): 1})}",
    "attempt('shape', lambda: sheaves.SheafComplex(",
    "    s1, F.stalks, {**F.restrictions, ((0,), (0, 1)): wide}))",
    "s = get_example('cone-t2')",
    "push = sheaves.derived_pushforward(sheaves.constant_sheaf(s, 1),",
    "                                   [(0,), (7,), (0, 7)], through=2)",
    "def image(c):",
    "    d = push.stalks[c].diff(0)",
    "    return d.submatrix_cols(pivot_columns(d))",
    "kept = {c: image(c) for c in [(0,), (0, 7)]}",
    "attempt('coboundaries', lambda: sheaves.refine(",
    "    sheaves.truncate(push, 1), kept))",
    "picks = dict(push.projections)",
    "cover = ((7,), (0, 7))",
    "picks[cover] = {q: p[1:] + p[:1] for q, p in picks[cover].items()}",
    "push.projections = picks",
    "attempt('projection', lambda: sheaves.refine(",
    "    sheaves.truncate(push, 1), kept))",
    "push = sheaves.derived_pushforward(sheaves.constant_sheaf(s, 1),",
    "                                   s.filtration_stage(0), through=2)",
    "t = (7,)",
    "cx = push.stalks[t]",
    "m = cx.diff(0)",
    "ent = dict(m.entries)",
    "i = min(i for i, j in ent if j == 0)",
    "ent[(i, 0)] = ent[(i, 0)] + 1 or 1",
    "attempt('read column', lambda: sheaves.SheafComplex(s, {",
    "    **push.stalks, t: CochainComplex(cx.dims, {",
    "        **cx.diffs, 0: ExactMatrix(m.rows, m.cols, ent)})},",
    "    push.restrictions))",
    "push = sheaves.derived_pushforward(sheaves.constant_sheaf(s, 1),",
    "                                   s.filtration_stage(0), through=2)",
    "maps = dict(push.restrictions)",
    "maps[cover] = {q: ExactMatrix(m.rows, m.cols, {",
    "    (i, p[(i + 1) % len(p)]): 1 for i in range(len(p))})",
    "    for q, m in maps[cover].items()",
    "    for p in [push.projections[cover][q]]}",
    "attempt('restriction', lambda: sheaves.SheafComplex(s, push.stalks,",
    "                                                    maps))",
    "res = ic.deligne_construction(get_example('suspension-s1'),",
    "                              ic.Perversity.lower_middle())",
    "context = duality.PairingContext(res, res)",
    "amb, T, n = context.ambient(0), context.top, context.n",
    "def unit(n, i):",
    "    return [int(j == i) for j in range(n)]",
    "k, z = next((k, unit(amb.dim(k), off + i))",
    "            for k, blocks in sorted(amb.layout.items())",
    "            for c, q, off, size in blocks if q == T.cutoff",
    "            for i in range(size)",
    "            if solve(T.inclusions[c].basis, unit(size, i)) is None)",
    "def blocks(z, k):",
    "    return {(c, q): z[off:off + size] for c, q, off, size",
    "            in amb.layout[k] if any(z[off:off + size])}",
    "attempt('project', lambda: context.project_into(blocks(z, k), k))",
])


def test_kept_certificates_raise_under_optimize():
    outs = []
    for optimize in (False, True):
        proc = run_python("-c", _KEPT_CERTIFICATES, optimize=optimize)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.splitlines())
    assert outs[0] == outs[1]
    assert outs[0] == [
        "monotone SheafError cell map is not monotone: the fiber over (1,) "
        "is not an up-set",
        "shape SheafError restriction (0,) -> (0, 1) in degree 0 has shape "
        "(2, 1), not (1, 1)",
        "coboundaries accepted",
        "projection SheafError vector outside the chosen subspace",
        "read column CertificateError d o d != 0 at degree 0",
        "restriction SheafError restriction (7,) -> (0, 7) not a chain map "
        "at degree 0",
        "project CertificateError component outside the truncated subspace "
        "at (0,)"]


# -- one d o d rule for every total complex ----------------------------------
#
# Every sheaf is certified when it is built, so its total complexes are
# assembled without multiplying out d o d: the sign rule of `spaces.facets`,
# chain maps and functoriality make it zero.  Every arrow must still fit its
# block.

@given(st.lists(st.integers(-5, 20), min_size=1, max_size=7, unique=True))
def test_facets_signs_cancel_around_codimension_two(entries):
    c = tuple(sorted(entries))
    got = spaces.facets(c)
    assert got == ([] if len(c) == 1 else
                   [(c[:i] + c[i + 1:], (-1) ** i) for i in range(len(c))])
    paths = {}
    for face, s1 in got:
        for e, s2 in spaces.facets(face):
            paths.setdefault(e, []).append(s1 * s2)
    # every codimension-2 face is reached along two paths, of opposite sign
    assert len(paths) == len(c) * (len(c) - 1) // 2 * (len(c) > 2)
    assert all(len(p) == 2 and sum(p) == 0 for p in paths.values())


def test_mezzo_pairing_complexes_above_1500_pass_certify(monkeypatch):
    # every total complex a refined-duality pairing on suspension-t2
    # assembles, the largest of them above 1500, certifies
    from strat_ic.ic import (Mezzoperversity, lagrangian_subspaces,
                             link_middle_form, refined_ic)
    s = get_example("suspension-t2")
    res = refined_ic(s, Mezzoperversity({
        v: lagrangian_subspaces(link_middle_form(s, v)[2], count_limit=1)[0]
        for v in s.stratum(0)}))
    built = []
    real = sheaves._total_complex

    def keep(layout, arrows):
        built.append(real(layout, arrows))
        return built[-1]
    monkeypatch.setattr(sheaves, "_total_complex", keep)
    # a degree-2 class of the heap's own pivots (the reduction without the
    # cone matching) times a degree-1 class has a product above the top
    # truncation's window, which assembles the complex of the ambient
    # built for the middle degrees (through stalk degree 2; the result's
    # own stops at 1)
    for k in (1, 2):
        duality.ic_pairing(res, res, k)
    plain = res.complex.reduction()
    duality.PairingContext(res, res).value(plain.cohomology_basis(2)[0], 2,
                                           plain.cohomology_basis(1)[0])
    assert max(cx.total_dimension() for cx in built) > 1500
    for cx in built:
        cx.certify()


def test_constructors_certify_without_validate(monkeypatch):
    s = get_example("cone-s1")
    # checked once here, before validate is barred
    torsion = two_term_sheaf(s, 1, (2,))
    monkeypatch.setattr(SheafComplex, "validate",
                        lambda self: pytest.fail("validate called"))
    F = constant_sheaf(s, 1)
    push = derived_pushforward(F, s.filtration_stage(0), through=1)
    total, quotient, cmap = _collapse_case("s1")
    truncate(push, 0)
    derived_pushforward(torsion, s.filtration_stage(0))
    kan_pushforward(constant_sheaf(total, 2), cmap, quotient)
    # a caller's sheaf is checked when it is built
    seen = []
    monkeypatch.setattr(SheafComplex, "validate",
                        lambda self: seen.append(self))
    G = SheafComplex(s, F.stalks, F.restrictions)
    assert seen == [G]


def test_uncertified_sheaf_total_complexes_checked_at_every_size():
    # the doubled restriction of the pushforward test above, at rank 1 (14
    # cochains) and at rank 120 (1680, above the size that once gated the
    # check): refused when the sheaf is built, so no total complex is
    # assembled from it, also under -O
    code = "\n".join([
        "from strat_ic.examples import get_example",
        "from strat_ic.sheaves import (SheafComplex, SheafError,",
        "                              constant_sheaf)",
        "for rank in (1, 120):",
        "    F = constant_sheaf(get_example('s2'), rank)",
        "    bad = dict(F.restrictions)",
        "    bad[((0,), (0, 1))] = {0: bad[((0,), (0, 1))][0].scale(2)}",
        "    print(F.total_dimension())",
        "    try:",
        "        SheafComplex(F.space, F.stalks, bad)",
        "        print('accepted')",
        "    except SheafError as e:",
        "        print('rejected:', e)",
    ])
    for optimize in (False, True):
        proc = run_python("-c", code, optimize=optimize)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            line for rank in (14, 1680) for line in (
                str(rank),
                "rejected: restrictions (0,) -> (0, 1, 2) not functorial")]


def test_restriction_of_the_wrong_shape_refused_when_built():
    # a restriction (0,) -> (0, 1) of shape (2, 1) between rank-1 stalks,
    # on s1 (no codimension-2 diamond) and on s2 (where the diamond
    # product cannot multiply it): refused by the shape check, also under -O
    code = "\n".join([
        "from strat_ic.examples import get_example",
        "from strat_ic.linalg import ExactMatrix",
        "from strat_ic.sheaves import (SheafComplex, SheafError,",
        "                              constant_sheaf)",
        "wide = {0: ExactMatrix(2, 1, {(0, 0): 1, (1, 0): 1})}",
        "for name in ('s1', 's2'):",
        "    F = constant_sheaf(get_example(name), 1)",
        "    try:",
        "        SheafComplex(F.space, F.stalks,",
        "                     {**F.restrictions, ((0,), (0, 1)): wide})",
        "        print(name, 'accepted')",
        "    except SheafError as e:",
        "        print(name, 'rejected:', e)",
    ])
    for optimize in (False, True):
        proc = run_python("-c", code, optimize=optimize)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "%s rejected: restriction (0,) -> (0, 1) in degree 0 has shape "
            "(2, 1), not (1, 1)" % name for name in ("s1", "s2")]


def test_arrow_that_does_not_fit_its_block_is_refused():
    # a restriction (0,) -> (0, 1) of shape (2, 1) between rank-1 stalks,
    # put into a built sheaf: refused when the total complex is assembled,
    # also under -O
    code = "\n".join([
        "from strat_ic.examples import get_example",
        "from strat_ic.linalg import CertificateError, ExactMatrix",
        "from strat_ic.sheaves import constant_sheaf, incidence_complex",
        "F = constant_sheaf(get_example('s1'), 1)",
        "F.restrictions[((0,), (0, 1))] = {",
        "    0: ExactMatrix(2, 1, {(0, 0): 1, (1, 0): 1})}",
        "try:",
        "    incidence_complex(F)",
        "    print('accepted')",
        "except CertificateError as e:",
        "    print('rejected:', e)",
    ])
    for optimize in (False, True):
        proc = run_python("-c", code, optimize=optimize)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "rejected: arrow ((0,), 0) -> ((0, 1), 0) has shape (2, 1), "
            "not its block's (1, 1)"]
