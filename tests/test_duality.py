"""Pairings, Kunneth comparisons, and the collapse decomposition.

The pairing matrices asserted here were frozen from independent runs of
the chain-level product (and, for the closed surfaces, from the standard
symplectic form of the cup product); the decomposition rows come from the
cone formula and the cohomology of the cylinder.
"""

import gc
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from strat_ic import spaces
from strat_ic.examples import get_example
from strat_ic.ic import (
    ExactMatrix, Mezzoperversity, Perversity, deligne_construction,
    lagrangian_subspaces, link_middle_form, refined_ic,
)
from strat_ic.linalg import CertificateError, rank, solve
from strat_ic import duality
from strat_ic.duality import (
    DegreeMismatch, DegreeOutOfRange, DualityError, InconsistentCollapse,
    ModeMismatch, NotOrientable, StratumNotFound, cup_pairing_matrix,
    PairingContext, duality_pairing, fibration_decomposition,
    fundamental_class, ic_pairing, intersection_number, kunneth,
    local_contribution, orient_top_cells, stratumwise_duality,
)


RP2_TRIANGLES = [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
                 (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)]


def _rp2():
    return spaces.single_stratum(spaces.SimplicialComplex(6, RP2_TRIANGLES))


@pytest.fixture(scope="module")
def st():
    return get_example("suspension-t2")


@pytest.fixture(scope="module")
def res_m(st):
    return deligne_construction(st, Perversity.lower_middle())


@pytest.fixture(scope="module")
def res_n(st):
    return deligne_construction(st, Perversity.upper_middle())


@pytest.fixture(scope="module")
def res_w(st):
    verts = sorted(st.stratum(0))
    choices = {}
    for v in verts:
        _lk, _basis, form = link_middle_form(st, v)
        choices[v] = lagrangian_subspaces(form, count_limit=1)[0]
    return refined_ic(st, Mezzoperversity(choices))


# -- orientations ----------------------------------------------------------

def test_orientation_closed_surfaces():
    for name in ("s1", "s2", "t2", "genus2"):
        cx = get_example(name).complex
        signs = orient_top_cells(cx)
        assert set(signs) == set(cx.cells_of_dim(cx.dim))
        assert set(signs.values()) <= {1, -1}


def test_orientation_rejects_boundary():
    with pytest.raises(NotOrientable):
        orient_top_cells(get_example("interval").complex)


def test_orientation_rejects_projective_plane():
    with pytest.raises(NotOrientable):
        orient_top_cells(_rp2().complex)


def test_fundamental_class_is_a_cycle(st):
    # the signed boundary of the fundamental chain cancels ridge by ridge
    cx = get_example("t2").complex
    signs = fundamental_class(get_example("t2"))
    from collections import defaultdict
    bd = defaultdict(int)
    for t, s in signs.items():
        for i in range(len(t)):
            bd[t[:i] + t[i + 1:]] += s * (-1) ** i
    assert all(v == 0 for v in bd.values())


# -- cup pairings on closed spaces -----------------------------------------

def test_torus_symplectic_pairing():
    pm = duality_pairing(get_example("t2"), 1)
    assert pm.matrix.to_triples() in (
        [(0, 1, "-1/1"), (1, 0, "1/1")],
        [(0, 1, "1/1"), (1, 0, "-1/1")],
    )
    assert pm.nondegenerate() and pm.antisymmetric()


def test_genus2_pairing_rank_four():
    pm = duality_pairing(get_example("genus2"), 1)
    assert pm.matrix.rows == 4
    assert pm.nondegenerate() and pm.antisymmetric()


def test_sphere_top_bottom_pairing():
    pm = duality_pairing(get_example("s2"), 0)
    assert pm.matrix.rows == pm.matrix.cols == 1
    assert pm.matrix.entry(0, 0) != 0


def test_pairing_degree_errors():
    t2 = get_example("t2")
    with pytest.raises(DegreeOutOfRange):
        duality_pairing(t2, 5)
    cx = t2.complex
    cc = cx.cochain_complex()
    with pytest.raises(DegreeMismatch):
        cup_pairing_matrix(cx, 1, 2, cc.cohomology_basis(1),
                          cc.cohomology_basis(2))


# -- chain-level product in the ambient pushforward ------------------------

def test_ambient_product_satisfies_leibniz():
    # D(x.y) = Dx.y + (-1)^k x.Dy for the front/back product on total
    # cochains of the pushforward; checked on every unit cochain pair in
    # low degrees
    from strat_ic import sheaves
    sp = get_example("cone-s1")
    F = sheaves.constant_sheaf(sp)
    R = sheaves.derived_pushforward(F, sp.filtration_stage(0))
    amb = duality._Ambient(R)
    cx, _lay = sheaves.incidence_complex(R)
    for k, l in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        for i in range(cx.dim(k)):
            x = [Fraction(0)] * cx.dim(k)
            x[i] = Fraction(1)
            dx = list(cx.diff(k).apply(x))
            for j in range(cx.dim(l)):
                y = [Fraction(0)] * cx.dim(l)
                y[j] = Fraction(1)
                dy = list(cx.diff(l).apply(y))
                z = amb.cup(x, k, y, l)
                dz = list(cx.diff(k + l).apply(z))
                lhs = amb.cup(dx, k + 1, y, l)
                rhs = amb.cup(x, k, dy, l + 1)
                sign = (-1) ** k
                assert all(a == b + sign * c
                           for a, b, c in zip(dz, lhs, rhs)), (k, l, i, j)


def test_middle_perversity_pairing(res_m, res_n):
    pm0 = ic_pairing(res_m, res_n, 0)
    assert pm0.matrix.to_triples() == [(0, 0, "1/1")]
    pm2 = ic_pairing(res_m, res_n, 2)
    assert pm2.matrix.to_triples() == [(0, 1, "1/1"), (1, 0, "-1/1")]
    assert pm2.nondegenerate() and pm2.antisymmetric()
    pm3 = ic_pairing(res_m, res_n, 3)
    assert pm3.matrix.to_triples() == [(0, 0, "1/1")]


def test_refined_pairing_nondegenerate_every_degree(res_w):
    values = {}
    for k in range(4):
        pm = ic_pairing(res_w, res_w, k)
        assert pm.matrix.rows == pm.matrix.cols == 1
        assert pm.nondegenerate(), k
        values[k] = pm.matrix.entry(0, 0)
    # the complementary-degree values agree up to the degree sign
    assert values[0] == -values[3] or values[0] == values[3]
    assert values[1] == -values[2] or values[1] == values[2]


def test_pairing_value_is_class_invariant(res_m, res_n):
    cxa = res_m.complex
    context = PairingContext(res_m, res_n)
    x = cxa.cohomology_basis(2)[0]
    y = res_n.complex.cohomology_basis(1)[0]
    base = context.value(x, 2, y)
    w = [Fraction(0)] * cxa.dim(1)
    w[0] = Fraction(3)
    shifted = [a + b for a, b in zip(x, cxa.diff(1).apply(w))]
    assert context.value(shifted, 2, y) == base


@pytest.fixture(scope="module")
def susp_s1():
    return deligne_construction(get_example("suspension-s1"),
                                Perversity.lower_middle())


def test_pairing_context_answers_every_degree(susp_s1):
    # one context serves all degrees, in any order, like fresh ones do
    context = PairingContext(susp_s1, susp_s1)
    for k in (2, 0, 1, 2):
        assert context.matrix(k).matrix == \
            ic_pairing(susp_s1, susp_s1, k).matrix
    assert context.matrix(0).matrix.to_triples() == [(0, 0, "1/1")]
    with pytest.raises(DegreeOutOfRange):
        context.matrix(3)


def _unit(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def test_pairing_certificate_sticks_out(susp_s1):
    context = PairingContext(susp_s1, susp_s1)
    amb, n = context.ambient, context.n
    covered = {(c, q) for c, q, _o, _s in context.top_layout[n]}
    _c, _q, off, _s = next(b for b in amb.layout[n]
                               if (b[0], b[1]) not in covered)
    with pytest.raises(CertificateError, match="sticks out"):
        context.project_into(_unit(amb.cx.dim(n), off), n)


def test_pairing_certificate_outside_subspace(susp_s1):
    context = PairingContext(susp_s1, susp_s1)
    amb, T = context.ambient, context.top
    # a unit cochain at the cutoff stalk degree outside the truncation's
    # kernel subspace, in whatever total degree one exists
    k, z = next((k, _unit(amb.cx.dim(k), off + i))
                for k, blocks in sorted(amb.layout.items())
                for c, q, off, size in blocks if q == T.cutoff
                for i in range(size)
                if solve(T.inclusions[c], _unit(size, i)) is None)
    with pytest.raises(CertificateError, match="truncated subspace"):
        context.project_into(z, k)


def test_pairing_certificate_not_a_class(monkeypatch, susp_s1):
    context = PairingContext(susp_s1, susp_s1)
    x = susp_s1.complex.cohomology_basis(0)[0]
    y = susp_s1.complex.cohomology_basis(2)[0]
    assert context.value(x, 0, y) != 0
    real = duality.solve
    monkeypatch.setattr(duality, "solve", lambda m, t: None
                        if m is context.read else real(m, t))
    with pytest.raises(CertificateError, match="not a class"):
        context.value(x, 0, y)


def test_ic_pairing_same_under_optimize(susp_s1):
    # the pairing certificates are raises, not asserts, so -O keeps them
    # and must not change the answer
    src = str(Path(duality.__file__).resolve().parents[1])
    code = "\n".join([
        "from strat_ic import duality, ic",
        "from strat_ic.examples import get_example",
        "res = ic.deligne_construction(get_example('suspension-s1'),",
        "                              ic.Perversity.lower_middle())",
        "for k in range(3):",
        "    print(duality.ic_pairing(res, res, k).matrix.to_triples())",
    ])
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable] + flags + ["-c", code],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    want = "".join("%s\n" % ic_pairing(susp_s1, susp_s1, k).matrix.to_triples()
                   for k in range(3))
    assert outs == [want, want]


def test_pairing_keeps_no_ambient_sheaf_alive():
    res = deligne_construction(get_example("suspension-s1"),
                               Perversity.lower_middle())
    ambient = weakref.ref(res.sheaf.untruncated)
    ic_pairing(res, res, 0)
    del res
    gc.collect()
    assert ambient() is None


def test_pairing_rejects_second_space(res_m):
    other = deligne_construction(get_example("cone-s1"),
                                 Perversity.lower_middle())
    with pytest.raises(DualityError):
        ic_pairing(res_m, other, 0)


# -- stratumwise mirror audit ----------------------------------------------

def test_stratumwise_mirror_closed_surface():
    out = stratumwise_duality(get_example("t2"))
    assert out["symmetric"]
    assert out["total"] == [1, 2, 1]


def test_stratumwise_mirror_cone_breaks():
    out = stratumwise_duality(get_example("cone-t2"))
    assert not out["symmetric"]
    bad = [r["degree"] for r in out["per_degree"] if not r["ok"]]
    assert bad


# -- Kunneth ---------------------------------------------------------------

def test_kunneth_rational_tori():
    rep = kunneth(get_example("s1"), get_example("s1"))
    assert rep.match and rep.lhs == (1, 2, 1)


def test_kunneth_rational_singular_factor():
    rep = kunneth(get_example("cone-s1"), get_example("s1"))
    assert rep.match
    assert rep.lhs == (1, 1, 0, 0)


def test_kunneth_integral_torsion():
    rep = kunneth(_rp2(), get_example("s1"), mode="integral")
    assert rep.match
    assert rep.lhs[2] == "Z/2" and rep.lhs[3] == "Z/2"
    assert all(d["computed"] == d["predicted"] for d in rep.detail)


def test_kunneth_integral_free():
    rep = kunneth(get_example("s1"), get_example("s1"), mode="integral")
    assert rep.match
    assert rep.lhs == {0: "Z", 1: "Z^2", 2: "Z"}


def test_kunneth_stratumwise():
    rep = kunneth(get_example("cone-s1"), get_example("s1"),
                  mode="stratumwise")
    assert rep.match
    assert rep.closed_strata_ok
    assert any(d["level"] == 1 for d in rep.detail)


def test_kunneth_mode_mismatch():
    with pytest.raises(ModeMismatch):
        kunneth(get_example("s1"), get_example("s1"), mode="derived")


def test_tor_group_algebra():
    # the predicted group for two Z/2 factors one degree apart picks up
    # an honest Tor term
    from strat_ic.linalg import FGAbelianGroup
    z2 = FGAbelianGroup(0, (2,))
    assert z2.tor(z2).describe() == "Z/2"
    assert z2.tensor(z2).describe() == "Z/2"


# -- collapse decomposition ------------------------------------------------

def test_fibration_circle_section():
    rep = fibration_decomposition(get_example("s1"))
    assert rep["mode"] == "pushforward"
    assert rep["rows"]["total"] == [1, 1, 0]
    assert rep["rows"]["ih"] == [1, 0, 0]
    assert rep["rows"]["skyscraper"] == [0, 1, 0]
    assert rep["additivity"]["ok"]
    # the literal shifted row over-counts below the section's top degree
    lit = rep["literal_additivity"]
    assert not lit["ok"]
    assert [r["degree"] for r in lit["per_degree"] if not r["ok"]] == [1, 2]
    assert not rep["degree_split"]["shows_plus_one"]


def test_fibration_genus2_section():
    rep = fibration_decomposition(get_example("genus2"))
    assert rep["mode"] == "cone-truncation"
    assert rep["rows"]["total"] == [1, 4, 1, 0]
    assert rep["rows"]["ih"] == [1, 4, 0, 0]
    assert rep["rows"]["skyscraper"] == [0, 0, 1, 0]
    assert rep["additivity"]["ok"]
    split = rep["degree_split"]
    assert split["shows_plus_one"] and split["ih"] == 0 and split["total"] == 1
    lit = rep["literal_additivity"]
    assert [r["degree"] for r in lit["per_degree"] if not r["ok"]] == [3]


def test_fibration_pipeline_routes_agree():
    # the genuine pushforward and the cone-truncation substitute must give
    # the same middle row where both run
    a = fibration_decomposition(get_example("s1"), max_kan_cells=150)
    b = fibration_decomposition(get_example("s1"), max_kan_cells=1)
    assert a["mode"] == "pushforward" and b["mode"] == "cone-truncation"
    assert a["rows"]["ih"] == b["rows"]["ih"]


def test_fibration_trivial():
    rep = fibration_decomposition(get_example("s1"), trivial=True)
    assert rep["rows"]["ih"] == rep["rows"]["total"]
    assert rep["rows"]["skyscraper"] == [0, 0, 0]
    assert rep["rows"]["section_shift"] == [0, 0, 0]
    assert rep["additivity"]["ok"] and rep["literal_additivity"]["ok"]


def test_fibration_inconsistent_collapse():
    with pytest.raises(InconsistentCollapse):
        fibration_decomposition(get_example("s1"),
                                collapse_cells=[(0,), (2,)])


# -- intersection numbers --------------------------------------------------

def test_intersection_number_degree_bookkeeping():
    # a point class against itself in non-complementary degrees pairs to
    # an honest exact zero
    s2 = get_example("s2")
    pt = s2.complex.cochain_complex().cohomology_basis(0)[0]
    v = intersection_number(s2, s2, pt, pt, 0, 0)
    assert v == Fraction(0)


def test_intersection_number_torus_sections():
    t2 = get_example("t2")
    b1 = t2.complex.cochain_complex().cohomology_basis(1)
    vals = {(i, j): intersection_number(t2, t2, b1[i], b1[j], 1, 1)
            for i in range(2) for j in range(2)}
    assert vals[(0, 0)] == vals[(1, 1)] == 0
    assert vals[(0, 1)] == -vals[(1, 0)]
    assert abs(vals[(0, 1)]) == 1


def test_intersection_number_singular_route(res_m, res_n):
    a0 = res_m.complex.cohomology_basis(0)[0]
    b3 = res_n.complex.cohomology_basis(3)[0]
    assert intersection_number(res_m, res_n, a0, b3, 0, 3) == 1
    assert intersection_number(res_m, res_n, a0, a0, 0, 0) == 0


def test_intersection_number_rejects_singular_plain_route(st):
    with pytest.raises(DualityError):
        intersection_number(st, st, [], [], 0, 3)


def test_intersection_number_degree_range(st, res_m, res_n):
    with pytest.raises(DegreeOutOfRange):
        intersection_number(res_m, res_n, [], [], 0, 9)


# -- local contributions ---------------------------------------------------

def test_local_contribution_lagrangian_rank_one(st):
    verts = sorted(st.stratum(0))
    choices = {}
    for v in verts:
        _lk, _basis, form = link_middle_form(st, v)
        choices[v] = lagrangian_subspaces(form, count_limit=1)[0]
    out = local_contribution(st, Mezzoperversity(choices))
    assert out["per_vertex"] == {verts[0]: 1, verts[1]: 1}
    assert out["value"] == 2


def test_local_contribution_full_space_zero(st):
    verts = sorted(st.stratum(0))
    full = ExactMatrix.identity(2)
    out = local_contribution(st, Mezzoperversity({v: full for v in verts}))
    assert out["value"] == 0


def test_local_contribution_errors(st):
    verts = sorted(st.stratum(0))
    full = ExactMatrix.identity(2)
    with pytest.raises(StratumNotFound):
        local_contribution(st, Mezzoperversity({verts[0]: full}))
    with pytest.raises(StratumNotFound):
        local_contribution(st, Mezzoperversity({v: full for v in verts}),
                           level=2)
