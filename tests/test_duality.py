"""Pairings, Kunneth comparisons, and the collapse decomposition.

The pairing matrices asserted here were frozen from independent runs of
the chain-level product (and, for the closed surfaces, from the standard
symplectic form of the cup product); the decomposition rows come from the
cone formula and the cohomology of the cylinder.
"""

import gc
import hashlib
import json
import random
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import (RP2_TRIANGLES, ladder_result, projective_plane,
                      ref_deligne_construction, run_python, two_term_sheaf)
from hypothesis import given, settings, strategies as hst

from strat_ic import ic as ic_module, linalg, sheaves, spaces
from strat_ic.examples import get_example
from strat_ic.ic import (
    ExactMatrix, ICResult, Mezzoperversity, Perversity, deligne_construction,
    lagrangian_subspaces, link_middle_form, refined_ic,
)
from strat_ic.linalg import CertificateError, rank, solve
from strat_ic import duality
from strat_ic.duality import (
    DegreeMismatch, DegreeOutOfRange, DualityError, ModeMismatch,
    NotOrientable, StratumNotFound, cup_pairing_matrix,
    PairingContext, duality_pairing, fibration_decomposition, ic_pairing,
    intersection_number, kunneth, local_contribution, orient_top_cells,
    stratumwise_duality,
)


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


def test_orientation_of_a_point():
    # a closed 0-manifold has no ridges: its vertex is a top cell, sign +1
    pt = get_example("point")
    assert orient_top_cells(pt.complex) == {(0,): 1}
    assert duality_pairing(pt, 0).matrix.to_triples() == [(0, 0, "1/1")]


def test_orientation_rejects_boundary():
    with pytest.raises(NotOrientable):
        orient_top_cells(get_example("interval").complex)


def test_orientation_rejects_projective_plane():
    with pytest.raises(NotOrientable):
        orient_top_cells(projective_plane().complex)


def _reference_orient_top_cells(cx):
    """The quadratic orientation check, kept as the reference for the
    facet-set version: a lower cell is tested against every cell for
    containment."""
    n = cx.dim
    tops = cx.cells_of_dim(n)
    if not tops:
        raise NotOrientable("no top cells")
    if n == 0:
        return {t: 1 for t in tops}
    for c in cx.cells:
        if len(c) - 1 < n and not any(len(t) > len(c) and set(c) <= set(t)
                                      for t in cx.cells):
            raise NotOrientable("cell %r is not a face of a top cell" % (c,))
    cofaces = {}
    for t in tops:
        for i in range(len(t)):
            r = t[:i] + t[i + 1:]
            cofaces.setdefault(r, []).append((t, -1 if i % 2 else 1))
    for r, pair in sorted(cofaces.items()):
        if len(pair) != 2:
            raise NotOrientable(
                "ridge %r lies in %d top cells, need exactly 2" % (r, len(pair)))
    signs = {}
    for start in tops:
        if start in signs:
            continue
        signs[start] = 1
        queue = [start]
        while queue:
            t = queue.pop()
            for i in range(len(t)):
                r = t[:i] + t[i + 1:]
                (t1, s1), (t2, s2) = cofaces[r]
                other, so = (t2, s2) if t1 == t else (t1, s1)
                st = s1 if t1 == t else s2
                want = -signs[t] * st * so
                if other in signs:
                    if signs[other] != want:
                        raise NotOrientable(
                            "orientation conflict across ridge %r" % (r,))
                else:
                    signs[other] = want
                    queue.append(other)
    return signs


def _outcome(orient, cx):
    try:
        return orient(cx)
    except NotOrientable as e:
        return "NotOrientable: %s" % e


def _assert_orientation_matches_reference(cx):
    assert _outcome(orient_top_cells, cx) == \
        _outcome(_reference_orient_top_cells, cx)


BASE_IDS = ("point", "interval", "s1", "s2", "t2", "genus2")
BUILTIN_IDS = (list(BASE_IDS) + ["cone-%s" % b for b in BASE_IDS]
               + ["suspension-%s" % b for b in BASE_IDS]
               + ["product:%s,%s" % (a, b) for a in BASE_IDS[:5]
                  for b in ("point", "interval", "s1")]
               + ["product:s2,s2", "product:t2,s2"])


@pytest.mark.parametrize("name", BUILTIN_IDS)
def test_orientation_matches_reference_on_examples(name):
    _assert_orientation_matches_reference(get_example(name).complex)


@pytest.mark.parametrize("extra", [[(3,)], [(2, 3)], [(3, 4)]],
                         ids=["isolated-vertex", "dangling-edge",
                              "separate-edge"])
def test_orientation_matches_reference_off_pure(extra):
    # a lower cell that is a face of nothing sits beside a top cell
    for top in ([(0, 1, 2)], [(0, 1), (1, 2), (0, 2)]):
        cx = spaces.SimplicialComplex(5, top + extra)
        _assert_orientation_matches_reference(cx)
        with pytest.raises(NotOrientable):
            orient_top_cells(cx)


_SIMPLICES = hst.lists(
    hst.lists(hst.integers(0, 6), min_size=1, max_size=4, unique=True),
    max_size=8)
# closed orientable and non-orientable seeds, so random extras land on
# both sides of every check
_SEEDS = hst.sampled_from([
    [], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], [(0, 1), (1, 2), (0, 2)],
    RP2_TRIANGLES, [(0, 1, 2, 3)]])


@settings(max_examples=150, deadline=None)
@given(_SEEDS, _SIMPLICES)
def test_orientation_matches_reference_on_drawn_complexes(seed, extra):
    simplices = seed + [tuple(s) for s in extra]
    if simplices:
        _assert_orientation_matches_reference(
            spaces.SimplicialComplex(7, simplices))


def test_fundamental_class_is_a_cycle(st):
    # the signed boundary of the fundamental chain cancels ridge by ridge
    cx = get_example("t2").complex
    signs = orient_top_cells(cx)
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


def _reference_cup(cx, signs, p, alpha, beta):
    """<alpha cup beta, [X]> with the cell positions looked up afresh."""
    n = cx.dim
    pos_p = {c: i for i, c in enumerate(cx.cells_of_dim(p))}
    pos_q = {c: i for i, c in enumerate(cx.cells_of_dim(n - p))}
    return sum((s * alpha[pos_p[t[:p + 1]]] * beta[pos_q[t[p:]]]
                for t, s in signs.items()), Fraction(0))


@pytest.mark.parametrize("name", ["point", "s1", "s2", "t2", "genus2",
                                  "product:s1,s1", "product:s2,s1"])
def test_shared_pairings_match_a_pairing_per_degree(name):
    # one complex, orientation, basis and position map per report give the
    # matrices of a fresh complex, basis and orientation per degree
    space = get_example(name)
    cx = space.complex
    n = cx.dim
    shared = duality.duality_pairings(space, range(n + 1))
    assert [pm.row_degree for pm in shared] == list(range(n + 1))
    for k, pm in enumerate(shared):
        cc = cx.cochain_complex()
        signs = orient_top_cells(cx)
        rows = [[_reference_cup(cx, signs, k, a, b)
                 for b in cc.cohomology_basis(n - k)]
                for a in cc.cohomology_basis(k)]
        want = (ExactMatrix.from_rows(rows) if rows else
                ExactMatrix.zeros(0, len(cc.cohomology_basis(n - k))))
        assert pm.matrix.shape == want.shape
        assert pm.matrix.entries == want.entries
        assert (pm.row_degree, pm.col_degree, pm.label) == \
            (k, n - k, "H^%d x H^%d" % (k, n - k))
        single = duality_pairing(space, k)
        assert single.matrix.entries == pm.matrix.entries
    with pytest.raises(DegreeOutOfRange):
        duality.duality_pairings(space, [0, n + 1])


# -- chain-level product in the ambient pushforward ------------------------

def _blocks(amb, vec, degree):
    """A dense ambient cochain of `degree` in `_Ambient`'s sparse form:
    {(cell, q): block} over the blocks where it has support."""
    return {(c, q): list(vec[off:off + size])
            for c, q, off, size in amb.layout.get(degree, ())
            if any(vec[off:off + size])}


def _dense(amb, z, degree):
    """A sparse ambient cochain of `degree`, written out densely."""
    out = [Fraction(0)] * amb.dim(degree)
    for key, part in z.items():
        _k, off, size = amb.lmap[key]
        out[off:off + size] = part
    return out


def _dense_cup(amb, x, k, y, l):
    """`_Ambient.cup` on dense cochains, its product written out densely."""
    return _dense(amb, amb.cup(_blocks(amb, x, k), _blocks(amb, y, l)), k + l)


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
                z = _dense_cup(amb, x, k, y, l)
                dz = list(cx.diff(k + l).apply(z))
                lhs = _dense_cup(amb, dx, k + 1, y, l)
                rhs = _dense_cup(amb, x, k, dy, l + 1)
                sign = (-1) ** k
                assert all(a == b + sign * c
                           for a, b, c in zip(dz, lhs, rhs)), (k, l, i, j)


def _cup_by_restriction(amb, x, k, y, l):
    """The ambient cup with every restriction built and applied as a
    matrix: the reference for `_Ambient.cup`, which reads them by flag."""
    R = amb.R
    z = [Fraction(0)] * amb.dim(k + l)
    for tau, q, off, _size in amb.layout.get(k + l, ()):
        p = len(tau) - 1
        fidx = amb.fidx[tau]
        for i in range(p + 1):
            q1, q2 = k - i, l - (p - i)
            front, back = tau[:i + 1], tau[i:]
            sa, sb = amb.lmap.get((front, q1)), amb.lmap.get((back, q2))
            if q1 < 0 or q2 < 0 or sa is None or sb is None:
                continue
            a = R.restriction(front, tau, q1).apply(x[sa[1]:sa[1] + sa[2]])
            b = R.restriction(back, tau, q2).apply(y[sb[1]:sb[1] + sb[2]])
            sign = (-1) ** (q1 * (p - i))
            for g, _q, _off, _size in R.stalk_layouts[tau].get(q, ()):
                z[off + fidx[g]] += \
                    sign * a[fidx[g[:q1 + 1]]] * b[fidx[g[q1:]]]
    return z


def _sparse_cochain(rng, size):
    """A cochain with about a third of its entries nonzero."""
    x = [Fraction(0)] * size
    for i in rng.sample(range(size), max(1, size // 3)):
        x[i] = Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 1, 2]))
    return x


@pytest.mark.parametrize("name", ["suspension-s1", "suspension-s2",
                                  "suspension-t2",
                                  "product:suspension-s1,s1"])
def test_ambient_cup_reads_the_restrictions_by_flag(name):
    sp = get_example(name)
    n = sp.dim
    R = sheaves.derived_pushforward(
        sheaves.constant_sheaf(sp, 1),
        sp.filtration_stage(sp.singular_levels()[0]), through=n)
    amb = duality._Ambient(R)
    rng = random.Random(name)
    nonzero = 0
    for k in range(n + 1):
        for l in range(n + 1 - k):
            if not amb.dim(k) or not amb.dim(l):
                continue
            for _ in range(3):
                x = _sparse_cochain(rng, amb.dim(k))
                y = _sparse_cochain(rng, amb.dim(l))
                z = _dense_cup(amb, x, k, y, l)
                assert z == _cup_by_restriction(amb, x, k, y, l), (k, l)
                nonzero += any(z)
    assert nonzero


# -- the sparse pairing path against the dense one it replaced -------------
#
# The references are `_Ambient.embed`, `cup` and `clear_overshoot` and
# `PairingContext.project_into` as they were on dense cochains, each the
# size of its whole complex.

def _ref_embed(amb, result, vec, degree):
    sheaf = result.sheaf
    out = [Fraction(0)] * amb.dim(degree)
    for cell, q, off, size in result.layout.get(degree, ()):
        block = vec[off:off + size]
        if not any(block):
            continue
        roff, rsize = amb.spot(cell, q, degree)
        if q > sheaf.cutoff or (q < sheaf.cutoff and rsize != size):
            raise CertificateError("block %r does not fit" % (cell,))
        if q == sheaf.cutoff:
            block = sheaf.inclusions[cell].basis.apply(block)
        for i, v in enumerate(block):
            out[roff + i] += v
    return out


def _ref_cup(amb, x, k, y, l):
    n = k + l
    z = [Fraction(0)] * amb.dim(n)
    for tau, q, off, _size in amb.layout.get(n, ()):
        p = len(tau) - 1
        fidx = amb.fidx[tau]
        flags = [f for f, _q, _off, _size in amb.R.stalk_layouts[tau].get(q, ())]
        for i in range(p + 1):
            q1, q2 = k - i, l - (p - i)
            if q1 < 0 or q2 < 0:
                continue
            front, back = tau[:i + 1], tau[i:]
            sa, sb = amb.lmap.get((front, q1)), amb.lmap.get((back, q2))
            if sa is None or sb is None:
                continue
            xa, yb = x[sa[1]:sa[1] + sa[2]], y[sb[1]:sb[1] + sb[2]]
            fa, fb = amb.fidx[front], amb.fidx[back]
            sign = -1 if (q1 * (p - i)) % 2 else 1
            for g in flags:
                z[off + fidx[g]] += sign * xa[fa[g[:q1 + 1]]] * yb[fb[g[q1:]]]
    return z


def _ref_clear_overshoot(amb, z, degree, cutoff):
    blocks = amb.layout.get(degree, ())
    for q in sorted({q for _c, q, _o, _s in blocks}, reverse=True):
        if q <= cutoff:
            break
        w = [Fraction(0)] * amb.dim(degree - 1)
        for cell, bq, off, size in blocks:
            part = z[off:off + size]
            if bq != q or not any(part):
                continue
            sgn = -1 if (len(cell) - 1) % 2 else 1
            u = solve(amb.R.stalks[cell].diff(q - 1), [sgn * v for v in part])
            if u is None:
                raise DualityError("product class does not descend")
            woff, _ = amb.spot(cell, q - 1, degree - 1)
            for i, v in enumerate(u):
                w[woff + i] += v
        dw = amb.cx.diff(degree - 1).apply(w)
        z = [a - b for a, b in zip(z, dw)]
    return z


def _ref_project_into(context, amb, layT, z, degree):
    """`layT` is the layout of the top truncation's incidence complex, and
    z a cochain of the ambient amb."""
    T = context.top
    out = [Fraction(0)] * sum(s for _c, _q, _o, s in layT.get(degree, ()))
    for cell, q, off, size in layT.get(degree, ()):
        spot = amb.lmap.get((cell, q))
        if spot is None:
            continue
        part = z[spot[1]:spot[1] + spot[2]]
        if q < T.cutoff:
            coords = part
        else:
            inc = T.inclusions[cell]
            coords = [part[i] for i in inc.units]
            if inc.basis.apply(coords) != tuple(part):
                raise CertificateError(
                    "component outside the truncated subspace at %r" % (cell,))
        out[off:off + size] = coords
    covered = {(c, q) for c, q, _o, _s in layT.get(degree, ())}
    for cell, q, off, size in amb.layout.get(degree, ()):
        if (cell, q) not in covered and any(z[off:off + size]):
            raise CertificateError(
                "cochain still sticks out of the truncation window at %r"
                % (cell,))
    return out


def _ref_value(context, layT, xa, k, yb):
    amb, n = context.ambient(k), context.n
    z = _ref_cup(amb, _ref_embed(amb, context.low, xa, k), k,
                 _ref_embed(amb, context.high, yb, n - k), n - k)
    zt = _ref_project_into(
        context, amb, layT, _ref_clear_overshoot(amb, z, n, context.cut_top),
        n)
    return sum((v * zt[j] for j, v in context.functional.items()),
               Fraction(0)) / context.lead


def _outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except (CertificateError, DualityError) as e:
        return type(e).__name__, str(e)


def _drawn_classes(result, k, rng, count=2):
    """Drawn cocycles of degree k: integer combinations of the cohomology
    basis plus a drawn coboundary."""
    cx = result.complex
    basis = result.reduction.cohomology_basis(k)
    out = []
    for _ in range(count):
        vec = [Fraction(0)] * cx.dim(k)
        for b in basis:
            c = rng.choice([-2, -1, 1, 3])
            vec = [a + c * x for a, x in zip(vec, b)]
        out.append(_shifted(cx, k, vec, rng))
    return out


def _cut_results(name):
    """Truncations of one pushforward through n at every cutoff up to the
    top truncation's, as results."""
    sp = get_example(name)
    level = sp.singular_levels()[0]
    R = sheaves.derived_pushforward(
        sheaves.constant_sheaf(sp, 1), sp.filtration_stage(level),
        through=sp.dim)
    return [ICResult(sp, sheaves.truncate(R, c), {level: c}, "cut %d" % c)
            for c in range(sp.top - level - 1)]


@pytest.mark.parametrize("name", ["suspension-s1", "suspension-s2",
                                  "suspension-t2",
                                  "product:suspension-s1,s1"])
def test_sparse_pairing_matches_the_dense_reference(name):
    rng = random.Random(name)
    results = _cut_results(name)
    n = results[0].space.dim
    drawn = {(res, k): _drawn_classes(res, k, rng)
             for res in results for k in range(n + 1)}
    products = 0
    for low in results:
        for high in results:
            context = PairingContext(low, high)
            # the results' pushforward holds every stalk degree: it serves
            # every degree
            amb = context.ambient(0)
            assert all(context.ambient(k) is amb for k in range(n + 1))
            layT = sheaves.incidence_complex(context.top)[1]
            for (res, k), vecs in drawn.items():
                for v in vecs:
                    got = amb.embed(res, {i: x for i, x in enumerate(v) if x},
                                    k)
                    assert _dense(amb, got, k) == _ref_embed(amb, res, v, k)
            # every degree split: products below n, and values at n
            for k in range(n + 1):
                for l in range(n + 1 - k):
                    for xa in drawn[(low, k)]:
                        x = _ref_embed(amb, low, xa, k)
                        for yb in drawn[(high, l)]:
                            y = _ref_embed(amb, high, yb, l)
                            z = _ref_cup(amb, x, k, y, l)
                            assert _dense_cup(amb, x, k, y, l) == z, (k, l)
                            products += any(z)
                            if k + l == n:
                                assert _outcome(context.value, xa, k, yb) \
                                    == _outcome(_ref_value, context, layT,
                                                xa, k, yb), k
            # unit cochains at both ends of each top block, in the window
            # or out of it
            for i in sorted({i for _c, _q, off, size in amb.layout[n]
                             for i in (off, off + size - 1)}):
                z = _unit(amb.dim(n), i)
                want = _outcome(_ref_project_into, context, amb, layT, z, n)
                got = _outcome(context.project_into, _blocks(amb, z, n), n)
                if isinstance(got, dict):
                    got = [got.get(i, 0) for i in range(len(want))]
                assert got == want
    assert products


def test_middle_perversity_pairing(res_m, res_n):
    # pinned in the bases lifted through the unit reduction, which cancels
    # the truncation's cone matching first; the greedy bases of the whole
    # complexes gave 1 in degree 0 and [[0, 1], [-1, 0]] in degree 2, and
    # the heap's own pivots -1 and [[-1, 0], [0, -1]]
    # (`test_pairings_move_by_the_change_of_basis` relates them)
    pm0 = ic_pairing(res_m, res_n, 0)
    assert pm0.matrix.to_triples() == [(0, 0, "1/1")]
    pm2 = ic_pairing(res_m, res_n, 2)
    assert pm2.matrix.to_triples() == [(0, 0, "-1/1"), (0, 1, "1/1"),
                                       (1, 0, "1/1")]
    assert pm2.nondegenerate()
    # graded symmetry, which holds in any bases:
    # m_(n,m)(1) = (-1)^(1 * 2) m_(m,n)(2)^T
    assert ic_pairing(res_n, res_m, 1).matrix == pm2.matrix.transpose()
    pm3 = ic_pairing(res_m, res_n, 3)
    assert pm3.matrix.to_triples() == [(0, 0, "1/1")]


def _greedy_basis(c, k):
    """The greedy basis of H^k on the whole complex: the kernel basis
    columns of d^k that extend a basis of im d^(k-1)."""
    ker = linalg.kernel_basis(c.diff(k))
    img = c.diff(k - 1)
    _, pivots = linalg.rref(img.stack_cols(ker))
    return [ker.column(j - img.cols) for j in pivots if j >= img.cols]


def _change_of_basis(c, k, new, old):
    """A with new_i = sum_j A[i, j] old_j + d^(k-1) w_i: old is a basis of
    H^k, so the coefficients on old are unique."""
    olds = ExactMatrix(c.dim(k), len(old), {
        (r, j): x for j, v in enumerate(old) for r, x in enumerate(v)})
    m = olds.stack_cols(c.diff(k - 1))
    ent = {}
    for i, v in enumerate(new):
        y = solve(m, v)
        assert y is not None
        ent.update({(i, j): x for j, x in enumerate(y[:len(old)])})
    return ExactMatrix(len(new), len(old), ent)


@pytest.mark.parametrize("pair", ["m-n", "n-m", "w-w"])
def test_pairings_move_by_the_change_of_basis(request, pair):
    # the pairing matrices in the lifted bases are those in the greedy
    # bases of the whole complexes under the change of basis of each side:
    # the bases name the same classes, and the values are class invariant
    low, high = (request.getfixturevalue("res_" + p) for p in pair.split("-"))
    context = PairingContext(low, high)
    n = context.n
    for k in range(n + 1):
        new_a, new_b = low.reduction.cohomology_basis(k), \
            high.reduction.cohomology_basis(n - k)
        old_a, old_b = _greedy_basis(low.complex, k), \
            _greedy_basis(high.complex, n - k)
        a = _change_of_basis(low.complex, k, new_a, old_a)
        b = _change_of_basis(high.complex, n - k, new_b, old_b)
        old = ExactMatrix(len(old_a), len(old_b), {
            (i, j): context.value(x, k, y) for i, x in enumerate(old_a)
            for j, y in enumerate(old_b)})
        got = context.matrix(k).matrix
        assert got == a * old * b.transpose(), k
        assert got.shape == old.shape and rank(got) == rank(old) == got.rows


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
    assert context.matrix(0).matrix.to_triples() == [(0, 0, "-1/1")]
    with pytest.raises(DegreeOutOfRange):
        context.matrix(3)


def _count_cohomology_bases(monkeypatch):
    calls = []
    real = linalg.UnitReduction._lifts

    def counted(self, k):
        calls.append((id(self), k))
        return real(self, k)

    monkeypatch.setattr(linalg.UnitReduction, "_lifts", counted)
    return calls


def _fresh(res):
    # the same result with a new complex and reduction, no basis kept yet
    return ic_module.ICResult(res.space, res.sheaf, res.cutoffs, res.label)


def test_pairing_context_computes_each_basis_once(monkeypatch, res_w):
    # the refined-duality scenario: two contexts, one after the other, on
    # the same result on both sides, degrees 0..3; each of the four bases
    # is computed once per reduction, off the reduction the result holds,
    # and the second context reads the bases the first one left there
    res = _fresh(res_w)
    calls = _count_cohomology_bases(monkeypatch)
    first = PairingContext(res, res)
    got = [first.matrix(k).matrix for k in range(4)]
    assert sorted(calls) == [(id(res.reduction), k) for k in range(4)]
    calls.clear()
    second = PairingContext(res, res)
    assert [second.matrix(k).matrix for k in range(4)] == got
    assert [first.matrix(k).matrix for k in range(4)] == got
    assert calls == []


def test_pairing_context_keeps_two_results_apart(monkeypatch, res_m, res_n):
    # two results in two contexts: each degree is computed once per
    # reduction, and each result reads only its own
    low, high = _fresh(res_m), _fresh(res_n)
    calls = _count_cohomology_bases(monkeypatch)
    context = PairingContext(low, high)
    for k in (1, 2, 1):
        context.matrix(k)
    swapped = PairingContext(high, low)
    for k in (1, 2):
        swapped.matrix(k)
    assert sorted(calls) == sorted([(id(low.reduction), 1),
                                    (id(high.reduction), 2),
                                    (id(low.reduction), 2),
                                    (id(high.reduction), 1)])
    for k in (1, 2):
        assert low.reduction.lifts(k) is not high.reduction.lifts(k)
        assert low.reduction.lifts(k) == res_m.reduction._lifts(k)
        assert high.reduction.lifts(k) == res_n.reduction._lifts(k)


def _unit(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def test_pairing_certificate_sticks_out(res_w):
    # the ambient of degree 1 holds stalk degree 2 on every stalk, above
    # the top truncation's window at cut_top = 1
    context = PairingContext(res_w, res_w)
    amb, n = context.ambient(1), context.n
    covered = {(c, q) for c, q, _o, _s in context.top_layout[n]}
    _c, _q, off, _s = next(b for b in amb.layout[n]
                               if (b[0], b[1]) not in covered)
    with pytest.raises(CertificateError, match="sticks out"):
        context.project_into(_blocks(amb, _unit(amb.cx.dim(n), off), n), n)


def test_pairing_certificate_outside_subspace(susp_s1):
    context = PairingContext(susp_s1, susp_s1)
    amb, T = context.ambient(0), context.top
    # a unit cochain at the cutoff stalk degree outside the truncation's
    # kernel subspace, in whatever total degree one exists
    k, z = next((k, _unit(amb.cx.dim(k), off + i))
                for k, blocks in sorted(amb.layout.items())
                for c, q, off, size in blocks if q == T.cutoff
                for i in range(size)
                if solve(T.inclusions[c].basis, _unit(size, i)) is None)
    with pytest.raises(CertificateError, match="truncated subspace"):
        context.project_into(_blocks(amb, z, k), k)


def test_pairing_certificate_needs_unit_rows(monkeypatch, susp_s1):
    # a top truncation whose basis at some cell records no unit rows (as a
    # caller subspace would) cannot be read there, so it is refused
    context = PairingContext(susp_s1, susp_s1)
    amb, T, n = context.ambient(0), context.top, context.n
    cell = next(c for c, q, _o, size in context.top_layout[n]
                if q == T.cutoff and size)
    _c, _q, off, _s = next(b for b in amb.layout[n]
                           if b[:2] == (cell, T.cutoff))
    monkeypatch.setattr(T, "inclusions", {
        **T.inclusions, cell: T.inclusions[cell]._replace(units=None)})
    with pytest.raises(CertificateError, match="no unit rows"):
        context.project_into(_blocks(amb, _unit(amb.cx.dim(n), off), n), n)


# wraps the forward pass that `PairingContext` runs over [d^(n-1) | I] so
# that the top-class functional it hands over is off by one at a row where
# d^(n-1) is not zero: phi d^(n-1) then picks up that row
_CORRUPT_FUNCTIONAL = "\n".join([
    "from strat_ic import duality, linalg",
    "real_echelon = linalg._echelon",
    "def corrupt(m):",
    "    rows, cols, pivots = real_echelon(m)",
    "    width = m.cols - m.rows",
    "    i = min(i for i, j in m.entries if j < width)",
    "    _col, r = next(p for p in pivots if p[0] >= width)",
    "    rows[r][width + i] = rows[r].get(width + i, 0) + 1",
    "    return rows, cols, pivots",
])


def test_pairing_certificate_not_a_class(monkeypatch, susp_s1):
    # a functional that does not vanish on im d^(n-1) would read different
    # values off cohomologous products; one product refuses it, plainly
    # and under -O
    x = susp_s1.complex.cohomology_basis(0)[0]
    y = susp_s1.complex.cohomology_basis(2)[0]
    assert PairingContext(susp_s1, susp_s1).value(x, 0, y) != 0
    scope = {}
    exec(_CORRUPT_FUNCTIONAL, scope)
    monkeypatch.setattr(duality, "_echelon", scope["corrupt"])
    with pytest.raises(CertificateError, match="does not vanish on im d"):
        PairingContext(susp_s1, susp_s1).value(x, 0, y)
    out = _run_optimized("\n".join([
        _CORRUPT_FUNCTIONAL,
        "from strat_ic import ic",
        "from strat_ic.examples import get_example",
        "duality._echelon = corrupt",
        "res = ic.deligne_construction(get_example('suspension-s1'),",
        "                              ic.Perversity.lower_middle())",
        "try:",
        "    duality.PairingContext(res, res)",
        "except linalg.CertificateError as e:",
        "    print('rejected: %s' % e)",
    ]))
    assert out == "rejected: the top-class functional does not vanish on " \
        "im d^1\n"


def test_pairing_refuses_a_top_truncation_above_n(monkeypatch, susp_s1):
    # the reader needs d_T^n = 0; a T with cochains in degree n + 1 is a bug
    real = sheaves._incidence_into

    def one_degree_more(sheaf, k):
        layout, d = real(sheaf, k)
        top = max(layout)
        return {**layout, top + 1: [((0,), top + 1, 0, 1)]}, d

    monkeypatch.setattr(sheaves, "_incidence_into", one_degree_more)
    with pytest.raises(CertificateError, match="cochains in degree 3"):
        PairingContext(susp_s1, susp_s1)


def test_pairing_value_does_not_depend_on_the_scale_of_the_functional(
        monkeypatch, susp_s1):
    # every row of the forward pass is fixed only up to a scalar; value
    # divides phi z by phi_f, so a functional scaled by -3 reads the same
    want = [PairingContext(susp_s1, susp_s1).matrix(k).matrix
            for k in range(3)]
    real = linalg._echelon

    def scaled(m):
        rows, cols, pivots = real(m)
        for row in rows:
            for j in row:
                row[j] *= -3
        return rows, cols, pivots

    monkeypatch.setattr(duality, "_echelon", scaled)
    assert [PairingContext(susp_s1, susp_s1).matrix(k).matrix
            for k in range(3)] == want


def _reference_reader(context):
    """[gen | d^(n-1)] of the top truncation T, with gen = e_f for the
    first basis vector e_f outside im d^(n-1): the two-elimination
    `cohomology_basis(n)` of T, since d^n = 0 makes its kernel the
    identity."""
    cx, _ = sheaves.incidence_complex(context.top)
    d = cx.diff(context.n - 1)
    _, pivots = linalg.rref(d.stack_cols(ExactMatrix.identity(d.rows)))
    (f,) = [j - d.cols for j in pivots if j >= d.cols]
    return ExactMatrix(d.rows, 1, {(f, 0): 1}).stack_cols(d)


def _shifted(cx, k, vec, rng):
    """vec plus the coboundary of a random small cochain of degree k - 1."""
    if not cx.dim(k - 1):
        return list(vec)
    w = [Fraction(rng.randint(-2, 2)) for _ in range(cx.dim(k - 1))]
    return [a + b for a, b in zip(vec, cx.diff(k - 1).apply(w))]


@pytest.mark.parametrize("name", ["suspension-s1", "suspension-t2",
                                  "suspension-genus2"])
def test_pairing_value_matches_solve_reference(request, name):
    results = [request.getfixturevalue("susp_s1")] \
        if name == "suspension-s1" else \
        request.getfixturevalue("refined_by_space")[name]
    rng = random.Random(name)
    for res in results:
        context = PairingContext(res, res)
        read = _reference_reader(context)
        # the reference solves [gen | d^(n-1)] against the very top cochain
        # `value` read, as `value` did before
        tops = []
        project = context.project_into

        def project_and_keep(z, degree):
            zt = project(z, degree)
            tops.append([zt.get(i, 0) for i in range(read.rows)])
            return zt

        context.project_into = project_and_keep
        cx, n = res.complex, context.n
        for k in range(n + 1):
            for xa in cx.cohomology_basis(k):
                for yb in cx.cohomology_basis(n - k):
                    got = context.value(xa, k, yb)
                    assert got == solve(read, tops[-1])[0]
                    shifted = context.value(_shifted(cx, k, xa, rng), k,
                                            _shifted(cx, n - k, yb, rng))
                    assert shifted == got == solve(read, tops[-1])[0]
        assert tops


def test_pairing_reads_top_classes_without_solving(monkeypatch, res_w):
    # in degrees 0 and n, `value` reads the top class with no solve
    # (`project_into` reads each block at the top truncation's unit rows),
    # and no rref runs outside a kernel_basis: the top generator takes the
    # forward pass alone
    callers, stray, inner, inside = [], [], [], []
    real_rref, real_kernel, real_solve = \
        linalg.rref, linalg.kernel_basis, linalg.solve

    def kernel(m):
        inside.append(m.shape)
        try:
            return real_kernel(m)
        finally:
            inside.pop()

    def counted_rref(m):
        (inner if inside else stray).append(m.shape)
        return real_rref(m)

    def counted_solve(m, target):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_solve(m, target)

    for module in (linalg, sheaves, ic_module):
        monkeypatch.setattr(module, "kernel_basis", kernel)
    monkeypatch.setattr(linalg, "rref", counted_rref)
    for module in (linalg, duality):
        monkeypatch.setattr(module, "solve", counted_solve)
    for k in (0, 3):
        assert PairingContext(res_w, res_w).matrix(k).nondegenerate()
    assert callers == []
    # the bases are lifted from the result's reduction, whose remainder
    # here has zero differentials: no rref runs at all
    assert stray == inner == []
def test_ic_pairing_same_under_optimize(susp_s1):
    # the pairing certificates are raises, not asserts, so -O keeps them
    # and must not change the answer
    code = "\n".join([
        "from strat_ic import duality, ic",
        "from strat_ic.examples import get_example",
        "res = ic.deligne_construction(get_example('suspension-s1'),",
        "                              ic.Perversity.lower_middle())",
        "for k in range(3):",
        "    print(duality.ic_pairing(res, res, k).matrix.to_triples())",
    ])
    outs = []
    for optimize in (False, True):
        proc = run_python("-c", code, optimize=optimize)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    want = "".join("%s\n" % ic_pairing(susp_s1, susp_s1, k).matrix.to_triples()
                   for k in range(3))
    assert outs == [want, want]


def test_embed_refuses_blocks_outside_the_ambient_under_optimize():
    # the ambient's block invariants are CertificateErrors, so -O keeps them
    code = "\n".join([
        "from types import SimpleNamespace",
        "from strat_ic import duality, ic, sheaves",
        "from strat_ic.examples import get_example",
        "from strat_ic.linalg import CertificateError",
        "sp = get_example('suspension-s1')",
        "res = ic.deligne_construction(sp, ic.Perversity.lower_middle())",
        "# the ladder's pushforward stops its open fibers at the cutoff 0;",
        "# one through 1 holds the open blocks of stalk degree 1",
        "amb = duality._Ambient(sheaves.derived_pushforward(",
        "    sheaves.constant_sheaf(sp), sp.filtration_stage(0), through=1))",
        "above = SimpleNamespace(cutoff=1, inclusions={})",
        "for sheaf, block, degree in (",
        "        (res.sheaf, ((99,), 0, 0, 1), 0),",
        "        (res.sheaf, ((0,), 1, 0, 1), 1),",
        "        (above, ((0,), 0, 0, 2), 0)):",
        "    fake = SimpleNamespace(sheaf=sheaf, layout={degree: [block]})",
        "    try:",
        "        amb.embed(fake, dict.fromkeys(range(block[3]), 1), degree)",
        "        print('accepted')",
        "    except CertificateError as e:",
        "        print('rejected:', e)",
    ])
    assert _run_optimized(code).splitlines() == [
        "rejected: the ambient complex has no block (99,) in stalk degree 0 "
        "and total degree 0",
        "rejected: block (0,) in stalk degree 1 (cutoff 0, size 1) does not "
        "fit the ambient block of size 16",
        "rejected: block (0,) in stalk degree 0 (cutoff 1, size 2) does not "
        "fit the ambient block of size 9",
    ]


def _run_optimized(code):
    proc = run_python("-c", code, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# subprocess prologue: the helpers of conftest, importable there too
_IMPORT_HELPERS = "\n".join([
    "import sys",
    "sys.path.insert(0, %r)" % str(Path(__file__).resolve().parent),
    "from conftest import ladder_result, two_term_sheaf",
])


def _rank_two(space, perversity):
    """The ladder of `deligne_construction` started from the rank-two
    constant sheaf."""
    return ladder_result(space, perversity, two_term_sheaf(space, 2, ()))


def test_pairing_rejects_rank_two_coefficients():
    # a typed raise, so -O gives the same refusal instead of failing later
    # on the rank of the top truncation
    code = "\n".join([
        _IMPORT_HELPERS,
        "from strat_ic import duality, ic",
        "from strat_ic.examples import get_example",
        "sp = get_example('suspension-s1')",
        "res = ladder_result(sp, ic.Perversity.lower_middle(),",
        "                    two_term_sheaf(sp, 2, ()))",
        "try:",
        "    duality.ic_pairing(res, res, 0)",
        "    print('accepted')",
        "except duality.DualityError as e:",
        "    print('rejected:', e)",
    ])
    res = _rank_two(get_example("suspension-s1"), Perversity.lower_middle())
    with pytest.raises(DualityError, match="rank-one scalar coefficients"):
        ic_pairing(res, res, 0)
    assert _run_optimized(code) == \
        "rejected: pairing needs rank-one scalar coefficients\n"


def test_pairing_rejects_different_ambients(st, res_w):
    # the refined result's ambient has rank-one stalks, the other rank two;
    # a typed raise, so -O refuses too instead of pairing the two
    two = _rank_two(st, Perversity.upper_middle())
    with pytest.raises(DualityError, match="ambient pushforwards differ"):
        PairingContext(res_w, two)
    code = "\n".join([
        _IMPORT_HELPERS,
        "from strat_ic import duality, ic",
        "from strat_ic.examples import get_example",
        "st = get_example('suspension-t2')",
        "choices = {}",
        "for v in sorted(st.stratum(0)):",
        "    _lk, _basis, form = ic.link_middle_form(st, v)",
        "    choices[v] = ic.lagrangian_subspaces(form, count_limit=1)[0]",
        "w = ic.refined_ic(st, ic.Mezzoperversity(choices))",
        "two = ladder_result(st, ic.Perversity.upper_middle(),",
        "                    two_term_sheaf(st, 2, ()))",
        "try:",
        "    print(duality.ic_pairing(w, two, 0).matrix.to_triples())",
        "except duality.DualityError as e:",
        "    print('rejected:', e)",
    ])
    assert _run_optimized(code) == ("rejected: ambient pushforwards differ; "
                                    "rebuild both results alike\n")


def test_local_contribution_needs_level_with_several_strata():
    # cone-cone-s1 has singular strata at levels 0 and 1; a typed raise, so
    # -O refuses too instead of picking level 0
    cc = get_example("cone-cone-s1")
    mezzo = Mezzoperversity({v: ExactMatrix(0, 0) for v in cc.stratum(0)})
    with pytest.raises(DualityError, match="pass level="):
        local_contribution(cc, mezzo)
    code = "\n".join([
        "from strat_ic import duality, ic",
        "from strat_ic.examples import get_example",
        "from strat_ic.linalg import ExactMatrix",
        "cc = get_example('cone-cone-s1')",
        "mezzo = ic.Mezzoperversity({v: ExactMatrix(0, 0)",
        "                            for v in cc.stratum(0)})",
        "try:",
        "    print(duality.local_contribution(cc, mezzo))",
        "except duality.DualityError as e:",
        "    print('rejected:', e)",
    ])
    assert _run_optimized(code) == (
        "rejected: pass level= unless there is exactly one singular "
        "stratum, got [0, 1]\n")


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


def test_pairing_refuses_a_truncation_of_no_pushforward():
    # the rank-one check reads the pushforward's input stalks, so a
    # truncation of a sheaf that is not a pushforward is refused as such
    sp = get_example("suspension-s1")
    res = ICResult(sp, sheaves.truncate(sheaves.constant_sheaf(sp), 0),
                   {0: 0}, "not pushed")
    with pytest.raises(DualityError, match="no truncation of a pushforward"):
        PairingContext(res, res)


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
    rep = kunneth(projective_plane(), get_example("s1"), mode="integral")
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


def test_kunneth_stratumwise_computes_each_factor_once(monkeypatch):
    # the factors' rows feed both the product table and the prediction
    seen = []
    rows = ic_module.stratumwise_rows
    monkeypatch.setattr(ic_module, "stratumwise_rows",
                        lambda space: seen.append(space) or rows(space))
    t2, s1 = get_example("t2"), get_example("s1")
    rep = kunneth(t2, s1, mode="stratumwise")
    assert rep.match and rep.closed_strata_ok
    assert seen == [t2, s1]
    assert kunneth(t2, s1, mode="rational").closed_strata_ok is None


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
    assert rep["mode"] == "pushforward"
    assert rep["rows"]["total"] == [1, 4, 1, 0]
    assert rep["rows"]["ih"] == [1, 4, 0, 0]
    assert rep["rows"]["skyscraper"] == [0, 0, 1, 0]
    assert rep["additivity"]["ok"]
    split = rep["degree_split"]
    assert split["shows_plus_one"] and split["ih"] == 0 and split["total"] == 1
    lit = rep["literal_additivity"]
    assert [r["degree"] for r in lit["per_degree"] if not r["ok"]] == [3]


# -- intersection numbers --------------------------------------------------

def test_intersection_number_degree_bookkeeping():
    # a point class against itself in non-complementary degrees pairs to
    # an honest exact zero
    s2 = get_example("s2")
    pt = s2.complex.cochain_complex().cohomology_basis(0)[0]
    v = intersection_number(s2, pt, pt, 0, 0)
    assert v == Fraction(0)


def test_intersection_number_torus_sections():
    t2 = get_example("t2")
    b1 = t2.complex.cochain_complex().cohomology_basis(1)
    vals = {(i, j): intersection_number(t2, b1[i], b1[j], 1, 1)
            for i in range(2) for j in range(2)}
    assert vals[(0, 0)] == vals[(1, 1)] == 0
    assert vals[(0, 1)] == -vals[(1, 0)]
    assert abs(vals[(0, 1)]) == 1


def test_intersection_number_singular_route(res_m, res_n):
    # classes of intersection sheaves pair through the pairing context
    a0 = res_m.complex.cohomology_basis(0)[0]
    b3 = res_n.complex.cohomology_basis(3)[0]
    assert PairingContext(res_m, res_n).value(a0, 0, b3) == -1


def test_intersection_number_rejects_singular_plain_route(st):
    with pytest.raises(DualityError, match="PairingContext"):
        intersection_number(st, [], [], 0, 3)


def test_intersection_number_degree_range():
    with pytest.raises(DegreeOutOfRange):
        intersection_number(get_example("t2"), [], [], 0, 9)


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


# -- the ambient pushforward: assembled through the degree products reach ----

@pytest.fixture(scope="module")
def ss2_results():
    sp = get_example("suspension-s2")
    return {p: deligne_construction(sp, Perversity.named(p))
            for p in ("0", "m", "n", "t")}


@pytest.fixture(scope="module")
def ss2_reaching():
    # the same ladders with each pushforward assembled through its cutoff
    # + 1, so the ones cut at 1 reach the pairing's depth
    sp = get_example("suspension-s2")
    return {p: ladder_result(sp, Perversity.named(p),
                             sheaves.constant_sheaf(sp), beyond=1)
            for p in ("0", "m", "n", "t")}


def _depths(context):
    """D(k) = max(min(cut_low, k) + min(cut_high, n - k), cut_top) for
    k = 0..n, written out."""
    a, b, n = context.low.sheaf.cutoff, context.high.sheaf.cutoff, context.n
    return [max(min(a, k) + min(b, n - k), context.cut_top)
            for k in range(n + 1)]


@pytest.mark.parametrize("low,high,depths", [
    ("0", "0", [1, 1, 1, 1]),     # both record through 1
    ("m", "n", [1, 1, 1, 1]),     # m records through 1
    ("t", "t", [1, 2, 2, 1]),     # t records through 2
    ("0", "t", [1, 1, 1, 1]),
])
def test_pairing_ambient_depth_rule(ss2_reaching, low, high, depths):
    # suspension-s2: n = 3, cone points of codimension 3, cut_top = 1;
    # each pushforward here reaches one degree past its cutoff, so the
    # first result's serves every degree
    a, b = ss2_reaching[low], ss2_reaching[high]
    context = PairingContext(a, b)
    assert _depths(context) == depths
    for k, depth in enumerate(depths):
        R = context.ambient(k).R
        assert R is a.sheaf.untruncated and duality._reaches(R, depth), k
    assert all(context.ambient(k) is context.ambient(0) for k in range(4))


def test_ladder_pushforwards_reach_the_complementary_pairing_depth(
        ss2_results):
    # the package's ladder assembles its pushforward through the cutoff,
    # and a complementary pair's cutoffs sum to cut_top = 1 on
    # suspension-s2 and suspension-t2: the lower x upper context reuses the
    # upper result's pushforward and takes its top truncation from it, and
    # the matrices stay those of full pushforwards
    for res in ss2_results.values():
        R = res.sheaf.untruncated
        cut = res.sheaf.cutoff
        assert R.through == cut and not duality._reaches(R, cut + 1)
    sp = get_example("suspension-t2")
    lo, hi = (deligne_construction(sp, Perversity.named(p)) for p in "mn")
    context = PairingContext(lo, hi)
    assert _depths(context) == [1] * 4
    for k in range(4):
        assert context.ambient(k).R is hi.sheaf.untruncated
    assert hi.sheaf.untruncated.through == 1
    assert context.top is hi.sheaf
    full = PairingContext(*(ref_deligne_construction(sp, Perversity.named(p))
                            for p in "mn"))
    assert full.ambient(0).R.through is None
    # in the bases that cancel the cone matching first; the heap's own
    # pivots gave [[-1]] in degree 0 and [[-1, 0], [0, -1]] in degree 2
    want = {0: [[1]], 1: [], 2: [[-1, 1], [1, 0]], 3: [[1]]}
    for k in range(4):
        got = context.matrix(k).matrix
        assert got == full.matrix(k).matrix, k
        assert [[got.entry(i, j) for j in range(got.cols)]
                for i in range(got.rows)] == want[k], k


@pytest.mark.parametrize("name", ["suspension-s2", "suspension-t2"])
def test_pairings_at_the_depth_rule_match_full_pushforwards(name):
    # the ambient of degree k holds stalk degrees up to D(k): a recorded
    # pushforward, each through its cutoff, serves where it reaches D(k)
    # (y), and otherwise one is built (n); every matrix is that of full
    # pushforwards
    sp = get_example(name)
    res = {p: deligne_construction(sp, Perversity.named(p)) for p in "0mnt"}
    ref = {p: ref_deligne_construction(sp, Perversity.named(p))
           for p in "0mnt"}
    reused = {"mn": "yyyy", "0t": "yyyy", "t0": "yyyy", "mm": "nnnn",
              "nn": "ynny"}
    for (low, high), want in reused.items():
        context = PairingContext(res[low], res[high])
        recorded = (res[low].sheaf.untruncated, res[high].sheaf.untruncated)
        assert "".join("y" if context.ambient(k).R in recorded else "n"
                       for k in range(4)) == want, (low, high)
        full = PairingContext(ref[low], ref[high])
        for k in range(sp.dim + 1):
            assert context.matrix(k).matrix == full.matrix(k).matrix, (
                low, high, k)


def test_pairing_ambient_reaches_the_sum_of_the_cutoffs():
    # cutoffs 1 and 2 on suspension-t2, where cut_top = 1: products of
    # degree-1 and degree-2 classes land in stalk degrees up to 1 + 2 = 3 >
    # cut_top, and the ambient of degree 1 holds them; the first result's
    # pushforward, through 2, falls short there and serves the other
    # degrees
    sp = get_example("suspension-t2")

    def cut_at(cut, through):
        R = sheaves.derived_pushforward(sheaves.constant_sheaf(sp, 1),
                                        sp.filtration_stage(0),
                                        through=through)
        return ICResult(sp, sheaves.truncate(R, cut), {0: cut}, "cut")

    low, high = cut_at(1, 2), cut_at(2, 3)
    context = PairingContext(low, high)
    assert _depths(context) == [2, 3, 2, 1]
    assert [context.ambient(k).R is high.sheaf.untruncated
            for k in range(4)] == [False, True, False, False]
    assert all(context.ambient(k).R is low.sheaf.untruncated
               for k in (0, 2, 3))
    full = PairingContext(cut_at(1, None), cut_at(2, None))
    for k in range(4):
        assert context.matrix(k).matrix == full.matrix(k).matrix, k


def test_refined_pairing_reuses_its_pushforward(res_w):
    # the refined result's pushforward, through mid = 1, serves the edge
    # degrees, whose depth is max(1 + 0, 1) = 1; the middle degrees need
    # max(1 + 1, 1) = 2 and share one pushforward built through 2
    context = PairingContext(res_w, res_w)
    R = res_w.sheaf.untruncated
    assert R.through == 1 and _depths(context) == [1, 2, 2, 1]
    assert context.ambient(0) is context.ambient(3)
    assert context.ambient(0).R is R
    built = context.ambient(1)
    assert built is context.ambient(2)
    assert built.R is not R and built.R.through == 2


def test_rebuilt_ambient_pairs_like_full_pushforward(ss2_results):
    res = ss2_results["0"]
    ref = ref_deligne_construction(res.space, Perversity.zero())
    assert ref.sheaf.untruncated.through is None
    rebuilt = PairingContext(res, res)
    full = PairingContext(ref, ref)
    for k in range(4):
        assert rebuilt.ambient(k).R is not res.sheaf.untruncated
        assert full.ambient(k).R is ref.sheaf.untruncated
        assert rebuilt.matrix(k).matrix == full.matrix(k).matrix, k


def test_rebuilt_ambient_refuses_rank_two_coefficients():
    # the rebuild path builds a rank-one ambient; rank-two results are
    # refused as such, not as a dimension mismatch, also under -O
    code = "\n".join([
        _IMPORT_HELPERS,
        "from strat_ic import duality, ic",
        "from strat_ic.examples import get_example",
        "sp = get_example('suspension-s2')",
        "res = ladder_result(sp, ic.Perversity.zero(),",
        "                    two_term_sheaf(sp, 2, ()))",
        "try:",
        "    duality.PairingContext(res, res)",
        "    print('accepted')",
        "except duality.DualityError as e:",
        "    print('rejected:', e)",
    ])
    for optimize in (False, True):
        proc = run_python("-c", code, optimize=optimize, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == \
            "rejected: pairing needs rank-one scalar coefficients\n"


# -- the top truncation from a result's own, and the lazy ambient complex ---

# sha256 of the matrices `_all_matrices` gives for three Lagrangians on
# suspension-genus2 in the bases lifted through the unit reduction; the
# greedy bases of the whole complexes gave 632e1ddd...
# cancelling the truncation's cone matching first moved the bases, and
# these matrices with them (was 5a805332...)
SUSPENSION_GENUS2_MATRICES = \
    "fe73459e52c3bde7bfc742f85b00d4abee2222fad3e2dc6a788cd371ba19d8cf"


def _refined_results(name, count=3):
    sp = get_example(name)
    forms = {v: link_middle_form(sp, v)[2] for v in sorted(sp.stratum(0))}
    return [refined_ic(sp, Mezzoperversity({
        v: lagrangian_subspaces(f, count_limit=count)[i]
        for v, f in forms.items()})) for i in range(count)]


@pytest.fixture(scope="module")
def refined_by_space():
    return {name: _refined_results(name)
            for name in ("suspension-t2", "suspension-genus2")}


def _all_matrices(results):
    # [Lagrangian index, degree, rows of entry strings] for every degree
    out = []
    for i, res in enumerate(results):
        context = PairingContext(res, res)
        for k in range(res.space.dim + 1):
            m = context.matrix(k).matrix
            out.append([i, k, [[str(m.entry(r, c)) for c in range(m.cols)]
                               for r in range(m.rows)]])
    return out


def test_suspension_genus2_matrices_are_pinned(refined_by_space):
    got = _all_matrices(refined_by_space["suspension-genus2"])
    assert [len(m) for _i, k, m in got if k in (1, 2)] == [2] * 6
    # graded symmetry, m(2) = (-1)^(1 * 2) m(1)^T, and nondegeneracy
    for i, k, m in got:
        want = [list(r) for r in zip(*got[4 * i + 3 - k][2])]
        assert m == want and rank(ExactMatrix.from_rows(
            [[Fraction(x) for x in r] for r in m])) == len(m)
    assert hashlib.sha256(json.dumps(got).encode()).hexdigest() == \
        SUSPENSION_GENUS2_MATRICES


@pytest.mark.parametrize("name", ["suspension-t2", "suspension-genus2"])
def test_top_truncation_from_the_result_pairs_like_truncate(
        monkeypatch, refined_by_space, name):
    # each refined result was cut at cut_top, so every context takes its
    # top truncation from the result: the plain truncation it refines.
    # The reference truncates the ambient again and hands it to the
    # contexts in its place
    results = refined_by_space[name]
    got = _all_matrices(results)
    for res in results:
        G = res.sheaf
        assert PairingContext(res, res).top is G.refines
        monkeypatch.setattr(G, "refines",
                            sheaves.truncate(G.untruncated, G.cutoff))
    assert _all_matrices(results) == got


def test_top_truncation_is_the_result_when_it_took_no_subspace(ss2_reaching):
    # perversity t cuts at cut_top = 1 with no subspaces, from a pushforward
    # that serves as the ambient: T is the result
    res = ss2_reaching["t"]
    context = PairingContext(res, res)
    assert context.top is res.sheaf


def test_ambient_complex_only_where_a_product_overshoots(monkeypatch, res_w):
    # in the bases lifted through the cone matching no product has
    # components above cut_top, so no matrix assembles a complex.  The
    # bases of the heap's own pivots (the reduction without the matching)
    # are classes of the same complex whose degree-2 products do overshoot:
    # `value` on them assembles the complex of the ambient the middle
    # degrees share, once, and clears the overshoot to a nonzero value
    assembled = []
    real = sheaves.incidence_complex

    def counted(sheaf):
        assembled.append(sheaf)
        return real(sheaf)

    monkeypatch.setattr(sheaves, "incidence_complex", counted)
    for k in (0, 3):
        PairingContext(res_w, res_w).matrix(k)
    assert assembled == []
    context = PairingContext(res_w, res_w)
    context.matrix(1)
    context.matrix(2)
    assert assembled == []
    plain = res_w.complex.reduction()
    x, y = plain.cohomology_basis(1)[0], plain.cohomology_basis(2)[0]
    assert context.value(x, 1, y) != 0
    assert assembled == []
    assert context.value(y, 2, x) != 0
    assert assembled == [context.ambient(2).R]
    context.value(y, 2, x)
    context.matrix(2)
    context.matrix(1)
    assert assembled == [context.ambient(1).R]


def test_pairing_builds_an_ambient_only_for_the_middle_degrees(monkeypatch,
                                                              res_w):
    # counted per context: the refined result's own pushforward serves the
    # edge degrees, and degrees 1 and 2 share one built through 2 (the
    # overshoot complex is counted in the test above)
    pushed = []
    real = sheaves.kan_pushforward

    def counted(sheaf, cell_map, target_space, through=None):
        pushed.append(through)
        return real(sheaf, cell_map, target_space, through)

    monkeypatch.setattr(sheaves, "kan_pushforward", counted)
    n = res_w.space.dim
    for k in (0, n):
        PairingContext(res_w, res_w).matrix(k)
    assert pushed == []
    context = PairingContext(res_w, res_w)
    context.matrix(1)
    context.matrix(2)
    assert pushed == [2]
    for k in (0, n, 2, 1):
        context.matrix(k)
    assert pushed == [2]
    # flag offsets are built for the cells the cup touched, not all
    amb = context.ambient(0)
    assert 0 < len(amb.fidx) < len(amb.R.stalks)


@pytest.mark.parametrize("name", ["suspension-t2", "suspension-genus2"])
def test_refined_results_by_the_ladder_step_match_full_pushforwards(
        monkeypatch, refined_by_space, name):
    # refined results whose pushforward stops where the ladder's step does
    # (through mid, and mid + 1 only over fibers with no least cell) against
    # results from the pushforward in every stalk degree: the pushforwards
    # agree up to mid, and the refined sheaves, their complexes,
    # reductions, bases and pairing matrices are equal
    results = refined_by_space[name]
    real = sheaves.derived_pushforward
    with monkeypatch.context() as m:
        m.setattr(ic_module, "derived_pushforward",
                  lambda F, closed, through=None: real(F, closed))
        refs = _refined_results(name)
    assert len(results) == len(refs) == 3
    for res, ref in zip(results, refs):
        G, H = res.sheaf, ref.sheaf
        F, full = G.untruncated, H.untruncated
        mid, n = G.cutoff, res.space.dim
        assert (F.through, full.through, H.cutoff) == (mid, None, mid)
        for c, cx in F.stalks.items():
            other = full.stalks[c]
            assert [cx.dim(q) for q in range(mid + 1)] == \
                [other.dim(q) for q in range(mid + 1)], c
            assert all(cx.diff(q) == other.diff(q) for q in range(mid)), c
            assert {q: b for q, b in F.stalk_layouts[c].items()
                    if q <= mid} == {q: b for q, b
                                     in full.stalk_layouts[c].items()
                                     if q <= mid}, c
        for cover, mats in F.restrictions.items():
            assert {q: x for q, x in mats.items() if q <= mid} == \
                {q: x for q, x in full.restrictions[cover].items()
                 if q <= mid}, cover
        assert G.stalks.keys() == H.stalks.keys()
        for c, cx in G.stalks.items():
            assert (cx.dims, cx.diffs) == (H.stalks[c].dims,
                                           H.stalks[c].diffs), c
        assert G.restrictions == H.restrictions
        assert G.inclusions == H.inclusions
        assert (res.complex.dims, res.complex.diffs, res.layout) == \
            (ref.complex.dims, ref.complex.diffs, ref.layout)
        assert res.reduction.steps == ref.reduction.steps
        context, full_context = PairingContext(res, res), \
            PairingContext(ref, ref)
        for k in range(n + 1):
            assert res.reduction._lifts(k) == ref.reduction._lifts(k), k
            assert context.matrix(k).matrix == \
                full_context.matrix(k).matrix, k


# -- the top-class reader gathers only the arrows into degree n -------------

@pytest.fixture(scope="module")
def top_contexts(refined_by_space, ss2_results):
    """Contexts over refined results (three Lagrangians on suspension-t2,
    one on suspension-genus2) and the Deligne m/n pairs on suspension-t2
    and suspension-s2, both ways round."""
    st2 = get_example("suspension-t2")
    t2 = {p: deligne_construction(st2, Perversity.named(p)) for p in "mn"}
    out = {"refined suspension-t2": [PairingContext(res, res) for res
                                     in refined_by_space["suspension-t2"]],
           "refined suspension-genus2": [PairingContext(
               *[refined_by_space["suspension-genus2"][0]] * 2)]}
    for name, res in (("suspension-t2", t2), ("suspension-s2", ss2_results)):
        out["m/n " + name] = [PairingContext(res["m"], res["n"]),
                              PairingContext(res["n"], res["m"])]
    return out


@pytest.mark.parametrize("case", ["refined suspension-t2",
                                  "refined suspension-genus2",
                                  "m/n suspension-t2", "m/n suspension-s2"])
def test_top_reader_gathers_the_last_differential_of_incidence_complex(
        top_contexts, case):
    # d^(n-1) and the layouts of degrees n - 1 and n, gathered from the
    # arrows into degree n, are those of the whole incidence complex, and
    # those of the source-side reference assembly
    from test_sheaves import _ref_incidence_complex
    for context in top_contexts[case]:
        T, n = context.top, context.n
        layout, d = sheaves._incidence_into(T, n)
        cx, full = sheaves.incidence_complex(T)
        ref_cx, ref = _ref_incidence_complex(T)
        assert n + 1 not in layout and cx.dim(n + 1) == 0
        for k in (n - 1, n):
            assert layout[k] == full[k] == ref[k] == context.top_layout[k]
        assert d.shape == cx.diff(n - 1).shape == ref_cx.diff(n - 1).shape
        assert d.entries == cx.diff(n - 1).entries == \
            ref_cx.diff(n - 1).entries
        assert d.entries


def test_pairing_assembles_no_complex_in_the_edge_degrees(monkeypatch, res_w):
    # in degrees 0 and n nothing overshoots the window, and the top reader
    # gathers d^(n-1) alone: no incidence complex is assembled
    assembled = []
    real = sheaves.incidence_complex

    def counted(sheaf):
        assembled.append(sheaf)
        return real(sheaf)

    monkeypatch.setattr(sheaves, "incidence_complex", counted)
    for k in (0, 3):
        assert PairingContext(res_w, res_w).matrix(k).nondegenerate()
    assert assembled == []


def test_pairing_refusals_raise_under_optimize():
    # the top-class functional's phi d == 0 check, the truncated-subspace
    # (span) check and the window check are raises, so -O keeps them
    code = "\n".join([
        _CORRUPT_FUNCTIONAL,
        "from strat_ic import ic",
        "from strat_ic.examples import get_example",
        "from strat_ic.linalg import solve",
        "res = ic.deligne_construction(get_example('suspension-s1'),",
        "                              ic.Perversity.lower_middle())",
        "context = duality.PairingContext(res, res)",
        "amb, T = context.ambient(0), context.top",
        "def blocks(z, k):",
        "    return {(c, q): z[off:off + size] for c, q, off, size",
        "            in amb.layout[k] if any(z[off:off + size])}",
        "def unit(n, i):",
        "    return [int(j == i) for j in range(n)]",
        "def attempt(f):",
        "    try:",
        "        f()",
        "        print('accepted')",
        "    except linalg.CertificateError as e:",
        "        print('rejected:', e)",
        "covered = {(c, q) for blocks_k in context.top_layout.values()",
        "           for c, q, _o, _s in blocks_k}",
        "k, off = next((k, b[2]) for k, blocks_k in sorted(amb.layout.items())",
        "              for b in blocks_k if b[:2] not in covered)",
        "attempt(lambda: context.project_into(",
        "    blocks(unit(amb.dim(k), off), k), k))",
        "k, z = next((k, unit(amb.dim(k), off + i))",
        "            for k, blocks_k in sorted(amb.layout.items())",
        "            for c, q, off, size in blocks_k if q == T.cutoff",
        "            for i in range(size)",
        "            if solve(T.inclusions[c].basis, unit(size, i)) is None)",
        "attempt(lambda: context.project_into(blocks(z, k), k))",
        "duality._echelon = corrupt",
        "attempt(lambda: duality.PairingContext(res, res))",
    ])
    out = _run_optimized(code).splitlines()
    assert [line.split(" at ")[0] for line in out] == [
        "rejected: cochain still sticks out of the truncation window",
        "rejected: component outside the truncated subspace",
        "rejected: the top-class functional does not vanish on im d^1"]
