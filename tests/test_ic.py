"""Intersection cohomology constructions against frozen oracles.

Every betti tuple below was computed independently (cone formula plus
Mayer-Vietoris by hand, cross-checked against the sheaf pipeline on first
freeze) before the construction ran; the construction has to reproduce
them exactly.
"""

from types import MappingProxyType

import pytest
from conftest import ref_deligne_construction, run_python, two_term_sheaf
from hypothesis import given, settings, strategies as hst

from strat_ic import duality, ic, spaces
from strat_ic.examples import get_example
from strat_ic.ic import (
    EmptyRegularPart, FormDegenerate, ICError, Mezzoperversity,
    MezzoStrataMismatch, NotLagrangian, Perversity, deligne_construction,
    is_lagrangian, lagrangian_perp,
    lagrangian_subspaces, link_middle_form, refined_ic, skew_gram_matrix,
    stratified_de_rham, stratumwise_rows, verify_support_conditions,
    witt_check,
)
from strat_ic.linalg import ExactMatrix, rank
from strat_ic.sheaves import derived_pushforward, truncate


M = Perversity.lower_middle()
N = Perversity.upper_middle()


# -- perversities ----------------------------------------------------------

def test_perversity_values():
    assert [M(c) for c in range(2, 7)] == [0, 0, 1, 1, 2]
    assert [N(c) for c in range(2, 7)] == [0, 1, 1, 2, 2]
    # the CLI's long names come from the same table
    for long, short in (("lower-middle", M), ("upper-middle", N)):
        p = Perversity.named(long)
        assert p.name == short.name
        assert [p(c) for c in range(2, 7)] == [short(c) for c in range(2, 7)]
    assert [Perversity.zero()(c) for c in range(2, 7)] == [0] * 5
    assert [Perversity.total()(c) for c in range(2, 7)] == [0, 1, 2, 3, 4]


def test_perversity_growth_and_duality():
    for name in ("0", "t", "m", "n"):
        Perversity.named(name).check_growth(9)
    # m and n are dual, 0 and t are dual
    for c in range(2, 9):
        assert M.dual()(c) == N(c)
        assert Perversity.zero().dual()(c) == Perversity.total()(c)
    assert M.dual().name == "n"


def test_perversity_from_values_and_errors():
    values = {2: 0, 3: 1, 4: 1}
    p = Perversity(values.__getitem__, "custom")
    p.check_growth(4)
    assert p(3) == 1 and p.name == "custom"
    with pytest.raises(ICError):
        p(1)
    with pytest.raises(ICError):
        Perversity.named("middle-ish")
    bad = Perversity({2: 0, 3: 2}.__getitem__, "bad")
    with pytest.raises(ICError):
        bad.check_growth(3)


def test_growth_and_functoriality_checks_run_under_optimize():
    # -O strips asserts, so neither input check may be one
    code = "\n".join([
        "from strat_ic.examples import get_example",
        "from strat_ic.ic import ICError, Perversity",
        "from strat_ic.sheaves import SheafComplex, SheafError, constant_sheaf",
        "F = constant_sheaf(get_example('s2'), 1)",
        "bad = dict(F.restrictions)",
        "key = ((0, 1), (0, 1, 2))",
        "bad[key] = {0: bad[key][0].scale(2)}",
        "steep = Perversity({2: 0, 3: 2}.__getitem__, 'steep')",
        "for call, err in (",
        "        (lambda: SheafComplex(F.space, F.stalks, bad), SheafError),",
        "        (lambda: steep.check_growth(3), ICError)):",
        "    try:",
        "        call()",
        "        print('accepted')",
        "    except err as e:",
        "        print('rejected:', e)",
    ])
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "rejected: restrictions (1,) -> (0, 1, 2) not functorial",
        "rejected: perversity grows by 0 or 1 per codimension (at 2)",
    ]


# -- Deligne construction oracles ------------------------------------------

CONE_ORACLES = [
    # cone formula: H^k(link) below the cutoff, 0 at and above it
    ("cone-s1", "m", (1, 0, 0)),
    ("cone-s2", "m", (1, 0, 0, 0)),
    ("cone-s2", "n", (1, 0, 0, 0)),
    ("cone-t2", "m", (1, 0, 0, 0)),
    ("cone-t2", "n", (1, 2, 0, 0)),
    ("cone-genus2", "m", (1, 0, 0, 0)),
    ("cone-genus2", "n", (1, 4, 0, 0)),
]


@pytest.mark.parametrize("name,perv,betti", CONE_ORACLES)
def test_deligne_on_cones(name, perv, betti):
    res = deligne_construction(get_example(name), Perversity.named(perv))
    assert res.betti() == betti


def test_deligne_suspension_t2():
    # Mayer-Vietoris over the two cone points:
    # H^k = H^k(T^2) for k < cut+1, H^{k-1}(T^2) above middle, glued copies
    st = get_example("suspension-t2")
    assert deligne_construction(st, M).betti() == (1, 0, 2, 1)
    assert deligne_construction(st, N).betti() == (1, 2, 0, 1)


@pytest.mark.parametrize("name,perv,betti", [
    # non-Witt: the two middle perversities differ on the product too
    ("cone-t2", "m", (1, 1, 0, 0, 0)),
    ("cone-t2", "n", (1, 3, 2, 0, 0)),
    ("cone-s2", "m", (1, 1, 0, 0, 0)),
    ("cone-s2", "n", (1, 1, 0, 0, 0)),
])
def test_deligne_on_products_with_a_circle_is_the_convolution(name, perv,
                                                              betti):
    # IC_p(X x M) = IC_p(X) [x] Q_M for a closed manifold M, so over Q the
    # Betti row of the product is IH_p(X) convolved with H(M) (King,
    # "Topological invariance of intersection homology without sheaves")
    p = Perversity.named(perv)
    got = deligne_construction(get_example("product:%s,s1" % name), p)
    ih = deligne_construction(get_example(name), p).betti()
    circle = get_example("s1").complex.betti_numbers()
    assert got.betti() == duality._convolve(ih, circle, 5) == betti


def test_deligne_nonsingular_is_ordinary_cohomology():
    t2 = get_example("t2")
    res = deligne_construction(t2, M)
    assert res.betti() == (1, 2, 1)
    assert res.cutoffs == {}


def test_support_conditions_audit():
    st = get_example("suspension-t2")
    for perv in (M, N):
        table = verify_support_conditions(deligne_construction(st, perv))
        assert all(row["ok"] for row in table.values())
        assert table[0]["allowed"] == perv(3)


def test_support_audit_does_not_read_the_matching(monkeypatch):
    # the audit is independent of the cone matching the truncation hands
    # to the result's reduction: stripping it leaves the table as it was
    st = get_example("suspension-t2")
    for res in (deligne_construction(st, N),
                deligne_construction(get_example("cone-cone-s1"), N)):
        want = verify_support_conditions(res)
        assert res.sheaf.matching
        monkeypatch.setattr(res.sheaf, "matching", MappingProxyType({}))
        assert verify_support_conditions(res) == want


def test_empty_regular_part():
    # an isolated bottom vertex beside a top-level triangle: frontier is
    # vacuous but the top stratum is not dense
    cx = spaces.SimplicialComplex(4, [(0,), (1, 2, 3)])
    rest = [c for c in cx.cells if c != (0,)]
    sp = spaces.build_stratified(cx, {0: [(0,)], 2: rest})
    with pytest.raises(EmptyRegularPart):
        deligne_construction(sp, M)


# -- Witt condition --------------------------------------------------------

def test_witt_check_table():
    witt = ["s1", "s2", "t2", "genus2", "cone-s1", "cone-s2"]
    for name in witt:
        assert witt_check(get_example(name))["is_witt"], name
    for name, mb in [("cone-t2", 2), ("cone-genus2", 4),
                     ("suspension-t2", 2)]:
        out = witt_check(get_example(name))
        assert not out["is_witt"], name
        bad = [e for e in out["strata"].values() if not e["ok"]]
        assert bad and all(e["middle_betti"] == mb for e in bad), name


def test_witt_even_codimension_always_passes():
    out = witt_check(get_example("cone-s1"))
    assert out["strata"][0]["codim"] == 2
    assert out["strata"][0]["ok"]


# -- stratumwise tables ----------------------------------------------------

def test_stratumwise_rows_cone_s1():
    rows = stratumwise_rows(get_example("cone-s1"))
    assert rows == {0: (1, 0, 0), 2: (1, 1, 1)}


def test_stratumwise_rows_cone_genus2():
    rows = stratumwise_rows(get_example("cone-genus2"))
    assert rows == {0: (1, 0, 0, 0), 3: (1, 4, 1, 1)}


def test_stratumwise_rows_product():
    prod = spaces.product(get_example("cone-s1"), get_example("s1"))
    rows = stratumwise_rows(prod)
    assert rows == {1: (1, 1, 0, 0), 3: (1, 2, 2, 1)}


# Closed strata take their cohomology from their own simplicial cochains;
# `ic._order_cohomology`, the route every stratum took before, is the
# reference: barycentric subdivision does not change cohomology.

_BASE_IDS = ("point", "interval", "s1", "s2", "t2", "genus2")
_CLOSED_STRATUM_IDS = (
    list(_BASE_IDS) + ["cone-%s" % b for b in _BASE_IDS]
    + ["suspension-%s" % b for b in _BASE_IDS]
    + ["product:%s,%s" % (a, b) for a in ("interval", "s1", "s2", "t2")
       for b in ("point", "interval", "s1")]
    + ["product:cone-s1,s1", "product:cone-s1,cone-s1",
       "product:suspension-s1,interval", "cone-cone-s1"])


@pytest.mark.parametrize("name", _CLOSED_STRATUM_IDS)
def test_closed_strata_cohomology_matches_order_complex(name):
    space = get_example(name)
    closed = [p for p in space.stratum_levels()
              if spaces.missing_face(space.stratum(p),
                                     set(space.stratum(p))) is None]
    assert closed
    for p in closed:
        cells = space.stratum(p)
        assert ic._closed_cohomology(space, cells) == \
            ic._order_cohomology(cells), p


@settings(max_examples=100, deadline=None)
@given(hst.lists(hst.lists(hst.integers(0, 5), min_size=1, max_size=4,
                           unique=True), min_size=1, max_size=8),
       hst.data())
def test_closed_cohomology_matches_order_complex_on_drawn_subcomplexes(
        simplices, data):
    cx = spaces.SimplicialComplex(6, [tuple(s) for s in simplices])
    space = spaces.single_stratum(cx)
    picked = data.draw(hst.lists(hst.sampled_from(cx.cells), min_size=1))
    closure = spaces.SimplicialComplex(6, picked).cells
    assert spaces.missing_face(closure, set(closure)) is None
    assert ic._closed_cohomology(space, closure) == \
        ic._order_cohomology(closure)


def _ref_order_cohomology(cells):
    # the order complex as `ic._order_cohomology` built it before it read
    # the drops of `sheaves._flags`: every degree sorted again, every
    # flag hashed, every facet looked up, d o d multiplied out
    from strat_ic import sheaves
    from strat_ic.linalg import CochainComplex
    cells = sorted(set(cells), key=lambda c: (len(c), c))
    if not cells:
        return {}
    flags = sheaves._flags(cells)[0]
    by_deg = {}
    for f in flags:
        by_deg.setdefault(len(f) - 1, []).append(f)
    degrees = sorted(by_deg)
    index = {}
    for n in degrees:
        by_deg[n].sort()
        for i, f in enumerate(by_deg[n]):
            index[f] = i
    dims = {n: len(by_deg.get(n, ())) for n in range(degrees[-1] + 1)}
    diffs = {}
    for n in range(degrees[-1]):
        ent = {}
        for g in by_deg.get(n + 1, ()):
            i = index[g]
            for sub, sign in spaces.facets(g):
                j = index.get(sub)
                if j is not None:
                    ent[(i, j)] = ent.get((i, j), 0) + sign
        diffs[n] = ExactMatrix(dims[n + 1], dims[n], ent)
    return CochainComplex(dims, diffs).betti_numbers()


@pytest.mark.parametrize("name", _CLOSED_STRATUM_IDS
                         + ["cone-product:s1,s1", "suspension-cone-s1"])
def test_order_cohomology_matches_sorted_reference(name):
    # every stratum, closed or not, and the whole complex
    space = get_example(name)
    for cells in ([space.stratum(p) for p in space.stratum_levels()]
                  + [space.complex.cells]):
        assert ic._order_cohomology(cells) == _ref_order_cohomology(cells)


def test_order_cohomology_of_no_cells_is_empty():
    assert ic._order_cohomology([]) == {} == _ref_order_cohomology([])


def test_closed_strata_skip_the_order_complex(monkeypatch):
    # every stratum of a product of closed manifolds is closed, so neither
    # the table nor the Kunneth cross-check builds an order complex
    def refuse(cells):
        raise AssertionError("order complex built for a closed stratum")

    monkeypatch.setattr(ic, "_order_cohomology", refuse)
    from strat_ic.duality import kunneth
    rep = kunneth(get_example("t2"), get_example("s1"), mode="stratumwise")
    assert rep.match and rep.closed_strata_ok
    assert stratumwise_rows(get_example("genus2")) == {2: (1, 4, 1)}


def test_stratified_de_rham_cone_s1():
    rep = stratified_de_rham(get_example("cone-s1"))
    # the table double counts the apex component; both answers reported
    assert rep.total == (2, 1, 1)
    assert rep.ladder == (1, 0, 0)
    assert rep.deligne == (1, 0, 0)


def test_stratified_de_rham_cone_t2():
    rep = stratified_de_rham(get_example("cone-t2"), N)
    assert rep.rows[0] == (1, 0, 0, 0)
    assert rep.total[0] == 2
    assert rep.deligne == (1, 2, 0, 0)
    # ladder truncates at stratum dimension 0 here, agreeing with m
    assert rep.ladder == (1, 0, 0, 0)


# -- Lagrangian data -------------------------------------------------------

def _t2_link_form():
    st = get_example("suspension-t2")
    verts = sorted(st.stratum(0))
    lk, basis, form = link_middle_form(st, verts[0])
    return st, verts, lk, basis, form


def test_link_middle_form_is_standard_symplectic():
    _st, _verts, lk, basis, form = _t2_link_form()
    assert len(basis) == 2
    assert form.to_triples() == [(0, 1, "-1/1"), (1, 0, "1/1")]


def test_lagrangian_enumeration_first_three():
    _st, _verts, _lk, _basis, form = _t2_link_form()
    ws = lagrangian_subspaces(form, count_limit=3)
    assert [w.to_triples() for w in ws] == [
        [(0, 0, "1/1")],
        [(0, 0, "1/1"), (1, 0, "1/1")],
        [(0, 0, "1/1"), (1, 0, "-1/1")],
    ]
    for w in ws:
        assert is_lagrangian(form, w)


def test_lagrangian_perp_of_lagrangian_is_itself():
    _st, _verts, _lk, _basis, form = _t2_link_form()
    for w in lagrangian_subspaces(form, count_limit=3):
        perp = lagrangian_perp(form, w)
        assert rank(w.stack_cols(perp)) == rank(w)


def test_skew_gram_rejects_bad_forms():
    with pytest.raises(FormDegenerate):
        skew_gram_matrix(ExactMatrix.from_rows([[0, 1]]))
    with pytest.raises(FormDegenerate):
        skew_gram_matrix(ExactMatrix.from_rows([[1, 0], [0, 1]]))
    with pytest.raises(FormDegenerate):
        skew_gram_matrix(ExactMatrix.from_rows([[0, 0], [0, 0]]))
    with pytest.raises(FormDegenerate):
        # antisymmetric, invertible, odd rank is impossible; degenerate
        # 3x3 skew form trips the rank check first
        skew_gram_matrix(ExactMatrix.from_rows(
            [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))


# -- refined middle sheaf --------------------------------------------------

def _mezzo(space, pick):
    """pick maps vertex index position -> lagrangian index."""
    verts = sorted(space.stratum(0))
    choices = {}
    for i, v in enumerate(verts):
        _lk, _basis, form = link_middle_form(space, v)
        ws = lagrangian_subspaces(form, count_limit=3)
        choices[v] = ws[pick[i]]
    return Mezzoperversity(choices)


@pytest.mark.parametrize("name, dims", [("suspension-s2", (1, 0, 0, 1)),
                                        ("cone-s2", (1, 0, 0, 0))])
def test_refined_on_links_without_middle_cohomology(name, dims):
    # H^1(S^2) = 0: the only Lagrangian is zero, the class representatives
    # form a matrix with no columns, and the refined sheaf is both middle
    # perversities' IC sheaf
    st = get_example(name)
    mezzo = _mezzo(st, [0] * len(st.stratum(0)))
    assert all(w.shape == (0, 0) for w in mezzo.choices.values())
    assert refined_ic(st, mezzo).betti() == dims
    assert deligne_construction(st, M).betti() == dims
    assert deligne_construction(st, N).betti() == dims


def test_refined_same_choice_both_points():
    st = get_example("suspension-t2")
    res = refined_ic(st, _mezzo(st, [0, 0]))
    assert res.betti() == (1, 1, 1, 1)


def test_refined_pushforward_stops_its_open_fibers_at_mid():
    # the ladder's step: through mid = 1, and mid + 1 only over the fibers
    # with no least cell; a guard against assembling every fiber through
    # mid + 1 again (4746 summed fiber-stalk dimensions under that rule)
    st = get_example("suspension-t2")
    res = refined_ic(st, _mezzo(st, [0, 0]))
    F, mid = res.sheaf.untruncated, res.sheaf.cutoff
    assert F.through == mid == 1
    assert res.sheaf.refines.untruncated is F
    assert sum(cx.total_dimension() for cx in F.stalks.values()) == 3150
    for t, cx in F.stalks.items():
        if F.least_cells[t] is not None:
            assert all(q <= mid for q, n in cx.dims.items() if n), t


def test_refined_mixed_choices():
    st = get_example("suspension-t2")
    res = refined_ic(st, _mezzo(st, [0, 1]))
    assert res.betti() == (1, 0, 0, 1)


def test_refined_sits_between_middle_perversities():
    st = get_example("suspension-t2")
    lo = deligne_construction(st, M).betti()
    hi = deligne_construction(st, N).betti()
    ref = refined_ic(st, _mezzo(st, [0, 0])).betti()
    for k in range(4):
        assert min(lo[k], hi[k]) <= ref[k] <= max(lo[k], hi[k])


def test_refined_rejects_non_lagrangian():
    st = get_example("suspension-t2")
    verts = sorted(st.stratum(0))
    full = ExactMatrix.identity(2)
    with pytest.raises(NotLagrangian) as err:
        refined_ic(st, Mezzoperversity({v: full for v in verts}))
    # the first cone point in stratum order is the one named
    assert err.value.vertex == verts[0]


def test_refined_rejects_wrong_cells():
    st = get_example("suspension-t2")
    mez = _mezzo(st, [0, 0])
    del mez.choices[sorted(mez.choices)[0]]
    with pytest.raises(MezzoStrataMismatch):
        refined_ic(st, mez)


def test_refined_rejects_even_codimension():
    cs = get_example("cone-s1")
    with pytest.raises(MezzoStrataMismatch):
        refined_ic(cs, Mezzoperversity({}))


@pytest.mark.parametrize("name", ["suspension-t2", "suspension-genus2"])
def test_lagrangian_perp_spans_each_lagrangian(name):
    # a Lagrangian is its own symplectic complement, computed independently
    # of the subspace it came from
    space = get_example(name)
    for v in sorted(space.stratum(0)):
        form = link_middle_form(space, v)[2]
        for w in lagrangian_subspaces(form, count_limit=3):
            perp = lagrangian_perp(form, w)
            assert rank(perp) == rank(w) == rank(w.stack_cols(perp))


# -- differential: pushforwards through the cutoff against full ones --------

def _assert_same_ic(got, want, p):
    assert got.cutoffs == want.cutoffs
    G, W = got.sheaf, want.sheaf
    assert G.cutoff == W.cutoff
    for c, cx in W.stalks.items():
        assert G.stalks[c].dims == cx.dims, (p, c)
        assert G.stalks[c].diffs == cx.diffs, (p, c)
        assert G.inclusions[c] == W.inclusions[c], (p, c)
    assert G.restrictions == W.restrictions, p
    assert got.layout == want.layout, p
    assert got.complex.dims == want.complex.dims, p
    assert got.complex.diffs == want.complex.diffs, p
    assert got.cohomology == want.cohomology, p
    # the recorded pushforward is assembled through the cutoff, and one
    # degree more only over fibers without a least cell
    assert G.untruncated.through == G.cutoff


# the trailing 1 in each id is the rank of the constant sheaf both ladders
# start from
@pytest.mark.parametrize("name,perversities", [
    ("cone-t2", "mn"),
    ("suspension-s2", "0mnt"),
    ("cone-cone-s1", "mnt"),
], ids=["cone-t2-mn-1", "suspension-s2-0mnt-1", "cone-cone-s1-mnt-1"])
def test_deligne_matches_full_pushforward_reference(name, perversities):
    space = get_example(name)
    for p in perversities:
        perv = Perversity.named(p)
        _assert_same_ic(deligne_construction(space, perv),
                        ref_deligne_construction(space, perv), p)


def test_two_term_pushforward_through_cut_matches_full_pushforward():
    # stalks in degrees -1 and 0 (Z + Z/2): the cone point's pushforward
    # through the cutoff, truncated, against the full pushforward
    space = get_example("cone-s1")
    F = two_term_sheaf(space, 1, (2,))
    stage = space.filtration_stage(0)
    cut = M(space.top)
    got, want = (
        ic.ICResult(space, truncate(derived_pushforward(F, stage, through),
                                    cut), {0: cut}, "two-term")
        for through in (cut, None))
    _assert_same_ic(got, want, "m")
    # rationally Z + Z/2 is Q: the cone formula's (1, 0, 0)
    assert got.cohomology == {-1: 0, 0: 1, 1: 0, 2: 0}


def test_last_vertex_transport_refuses_wider_stalks_under_optimize():
    # the transport writes one entry per flag block, so every block must
    # have size one; a rank-two pushforward's blocks have size two.  The
    # refusal is a typed raise, so it holds under -O
    code = "\n".join([
        "from strat_ic import spaces",
        "from strat_ic.examples import get_example",
        "from strat_ic.ic import ICError, last_vertex_cochain_map",
        "from strat_ic.sheaves import constant_sheaf, derived_pushforward",
        "s = get_example('cone-s1')",
        "v = (3,)",
        "lk = spaces.link(s, v)",
        "for r in (1, 2):",
        "    F = derived_pushforward(constant_sheaf(s, r), [v])",
        "    try:",
        "        m = last_vertex_cochain_map(v, F.stalk_layouts[v],",
        "                                    F.stalk(v).dim(0), lk, 0)",
        "        print('accepted', m.shape)",
        "    except ICError as e:",
        "        print('rejected:', e)",
    ])
    for optimize in (False, True):
        proc = run_python("-c", code, optimize=optimize)
        assert proc.returncode == 0, proc.stderr
        accepted, rejected = proc.stdout.splitlines()
        assert accepted.startswith("accepted ("), accepted
        assert rejected.startswith(
            "rejected: last-vertex transport needs rank-one stalks"), rejected
