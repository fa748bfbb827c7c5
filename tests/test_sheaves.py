"""Sheaf cohomology against independent oracles.

Frozen targets: constant coefficients reproduce simplicial cohomology;
pushforward stalks on a cone point carry the link's cohomology; truncated
pushforwards reproduce the cone formula (link cohomology below the cutoff,
zero above); hypercohomology of a pushforward equals cohomology of the open
part it came from.
"""

import pytest
from hypothesis import given, settings, strategies as st

from strat_ic.examples import get_example
from strat_ic.linalg import FGAbelianGroup
from strat_ic.sheaves import (
    NotOpen, NotOpenComplement, SheafComplex, SheafError, constant_sheaf,
    derived_pushforward, external_tensor, flag_complex, global_sections,
    graded_sections_functor, incidence_complex, kan_pushforward,
    resolution_complex, sheaf_cohomology, truncate,
)
from strat_ic.spaces import product, single_stratum
from strat_ic import examples


def _betti_tuple(coh, top):
    return tuple(coh.get(k, 0) for k in range(top + 1))


# -- constant coefficients -------------------------------------------------

def test_constant_sheaf_matches_simplicial():
    for name, betti in [("s1", (1, 1)), ("s2", (1, 0, 1)),
                        ("t2", (1, 2, 1)), ("genus2", (1, 4, 1))]:
        s = get_example(name)
        coh = sheaf_cohomology(constant_sheaf(s, 1))
        assert _betti_tuple(coh, s.dim) == betti, name


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
    F = constant_sheaf(s, FGAbelianGroup(0, (2,)))
    coh = sheaf_cohomology(F, integral=True)
    assert coh[-1].is_zero()
    assert coh[0].describe() == "Z/2"
    assert coh[1].describe() == "Z/2"


def test_resolution_complex_shape():
    g = FGAbelianGroup(2, (3, 6))
    cx = resolution_complex(g)
    assert cx.dims == {-1: 2, 0: 4}
    groups = cx.cohomology_groups()
    assert groups[0] == g
    assert groups[-1].is_zero()


def test_validation_catches_broken_functoriality():
    s = get_example("s2")
    F = constant_sheaf(s, 1)
    bad = dict(F.restrictions)
    key = ((0, 1), (0, 1, 2))
    bad[key] = {0: bad[key][0].scale(2)}
    with pytest.raises(SheafError):
        SheafComplex(s, F.stalks, bad)


# -- sections --------------------------------------------------------------

def test_global_sections_count_components():
    from strat_ic.spaces import SimplicialComplex
    two = single_stratum(SimplicialComplex(4, [(0, 1), (2, 3)]))
    sec = global_sections(constant_sheaf(two, 1))
    assert sec.dim(0) == 2
    one = get_example("t2")
    assert global_sections(constant_sheaf(one, 1)).dim(0) == 1


def test_global_sections_over_star():
    s = get_example("cone-s1")
    F = constant_sheaf(s, 1)
    star = F.poset.open_star((3,))
    sec = global_sections(F, star)
    assert sec.dim(0) == 1


def test_global_sections_rejects_non_open():
    s = get_example("s1")
    F = constant_sheaf(s, 1)
    with pytest.raises(NotOpen):
        global_sections(F, [(0,)])
    with pytest.raises(NotOpen):
        sheaf_cohomology(F, open_cells=[(0,)])


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
    B = truncate(Rj, 0, subspaces=subs)
    assert sheaf_cohomology(A) == sheaf_cohomology(B)


# -- tensor ----------------------------------------------------------------

def test_external_tensor_kunneth_rational():
    a = get_example("s1")
    b = get_example("s1")
    p = product(a, b)
    F = external_tensor(constant_sheaf(a, 1), constant_sheaf(b, 1), p)
    F.validate()
    assert _betti_tuple(sheaf_cohomology(F), 2) == (1, 2, 1)


def test_graded_sections_functor_derived_terms():
    z2 = FGAbelianGroup(0, (2,))
    a = single_stratum(examples._circle(), {1: z2})
    b = single_stratum(examples._circle(), {1: z2})
    p = product(a, b)
    M = graded_sections_functor(p)
    coh = sheaf_cohomology(M, integral=True)
    assert coh[-1].describe() == "Z/2"
    assert coh[0].describe() == "Z/2 + Z/2 + Z/2"
    assert coh[1].describe() == "Z/2 + Z/2 + Z/2"
    assert coh[2].describe() == "Z/2"


def test_graded_sections_functor_free_case():
    s = get_example("t2")
    M = graded_sections_functor(s)
    assert _betti_tuple(sheaf_cohomology(M), 2) == (1, 2, 1)


def test_graded_sections_functor_rejects_mixed_groups():
    from strat_ic.sheaves import SheafError
    s = get_example("cone-s1")
    s.coefficients[0] = FGAbelianGroup(0, (2,))
    with pytest.raises(SheafError):
        graded_sections_functor(s)


# -- property: Leray holds for arbitrary closed subcomplexes ---------------

@st.composite
def _closed_subsets(draw):
    s = get_example("cone-s1")
    cells = list(s.complex.cells)
    picked = draw(st.lists(st.sampled_from(cells), max_size=3))
    closed = set()
    for c in picked:
        k = len(c)
        closed.add(c)
        for mask in range(1, (1 << k) - 1):
            closed.add(tuple(c[i] for i in range(k) if mask >> i & 1))
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
