"""Exact linear algebra: frozen oracles first, then property invariants."""

import doctest
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import strat_ic.linalg as linalg
from strat_ic.linalg import (
    CertificateError,
    CochainComplex,
    ExactMatrix,
    FGAbelianGroup,
    kernel_basis,
    rank,
    rref,
    smith_normal_form,
    solve,
    solve_many,
    tensor_complex,
    tor1,
)


def test_doctests():
    failures, _ = doctest.testmod(linalg)
    assert failures == 0


# ---------------------------------------------------------------- oracles

def test_identity_rank():
    for n in (0, 1, 5):
        assert rank(ExactMatrix.identity(n)) == n


def test_zero_rank():
    assert rank(ExactMatrix.zeros(4, 7)) == 0


def test_circle_coboundary_rank_and_kernel():
    # triangle circle: vertices 0,1,2; edges (0,1),(0,2),(1,2)
    d0 = ExactMatrix.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    assert rank(d0) == 2
    ker = kernel_basis(d0)
    assert len(ker) == 1
    # the kernel is spanned by the constant function
    v = ker[0]
    assert v[0] == v[1] == v[2] != 0


def test_circle_complex_betti():
    d0 = ExactMatrix.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    c = CochainComplex({0: 3, 1: 3}, {0: d0})
    assert c.betti_numbers() == {0: 1, 1: 1}
    assert c.euler_characteristic() == 0


def test_rref_is_canonical():
    m = ExactMatrix.from_rows([[2, 4, 6], [1, 2, 4]])
    r, pivots = rref(m)
    assert pivots == [0, 2]
    assert r.entry(0, 0) == 1 and r.entry(0, 1) == 2 and r.entry(0, 2) == 0
    assert r.entry(1, 2) == 1


def test_solve_consistent_and_inconsistent():
    m = ExactMatrix.from_rows([[1, 1], [0, 1]])
    x = solve(m, (Fraction(3), Fraction(1)))
    assert m.apply(x) == (Fraction(3), Fraction(1))
    bad = ExactMatrix.from_rows([[1, 1], [2, 2]])
    assert solve(bad, (Fraction(0), Fraction(1))) is None


def test_snf_2x2():
    m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    d, u, v, vinv = smith_normal_form(m)
    assert [int(d.entry(i, i)) for i in range(2)] == [1, 2]
    assert u * m * v == d
    assert v * vinv == ExactMatrix.identity(2)


def test_snf_divisibility_fold():
    m = ExactMatrix.from_rows([[2, 4], [4, 2]])
    d, u, v, _ = smith_normal_form(m)
    assert [int(d.entry(i, i)) for i in range(2)] == [2, 6]
    assert u * m * v == d


def test_snf_divisibility_fold_late_offender():
    # after the pivot 2, only the second entry of [4, 3] breaks divisibility
    m = ExactMatrix.from_rows([[2, 0, 0], [0, 4, 3]])
    d, u, v, _ = smith_normal_form(m)
    assert [int(d.entry(i, i)) for i in range(2)] == [1, 2]
    assert u * m * v == d


def test_snf_rectangular_with_zero_rows():
    m = ExactMatrix.from_rows([[6, 0, 0], [0, 10, 0]])
    d, u, v, _ = smith_normal_form(m)
    assert [int(d.entry(i, i)) for i in range(2)] == [2, 30]


def test_snf_rejects_non_integers():
    with pytest.raises(ValueError):
        smith_normal_form(ExactMatrix.from_rows([[Fraction(1, 2), 0], [0, 3]]))
    with pytest.raises(ValueError):
        FGAbelianGroup.from_presentation(
            ExactMatrix.from_rows([[Fraction(1, 2)]]))


def test_snf_rejects_non_integers_under_optimize():
    # -O strips asserts, so the integrality check must not be one
    src = str(Path(linalg.__file__).resolve().parents[1])
    code = "\n".join([
        "from fractions import Fraction",
        "from strat_ic.linalg import ExactMatrix, FGAbelianGroup, "
        "smith_normal_form",
        "half = ExactMatrix.from_rows([[Fraction(1, 2)]])",
        "for call in (lambda: smith_normal_form(half),",
        "             lambda: FGAbelianGroup.from_presentation(half)):",
        "    try:",
        "        print(call())",
        "    except ValueError:",
        "        print('rejected')",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["rejected", "rejected"]


@pytest.mark.parametrize("call,message", [
    (2, "transform check"), (3, "check failed for u"),
    (4, "check failed for v")])
def test_snf_certificate_raises(monkeypatch, call, message):
    # products in order: u*m, (u*m)*v, u*u^-1, v*v^-1; corrupt one of them
    mul_rows = linalg._mul_rows
    calls = []

    def corrupt(x_rows, y_rows):
        out = mul_rows(x_rows, y_rows)
        calls.append(None)
        if len(calls) == call:
            out[0][0] = out[0].get(0, 0) + 1
        return out

    monkeypatch.setattr(linalg, "_mul_rows", corrupt)
    with pytest.raises(CertificateError, match=message):
        smith_normal_form(ExactMatrix.from_rows([[1, 2], [3, 4]]))


def test_group_normalization_to_chain():
    g = FGAbelianGroup(0, (4, 6))
    assert g.torsion == (2, 12)
    assert g.order() == 24


def test_tor_z4_z6():
    assert tor1(FGAbelianGroup(0, (4,)), FGAbelianGroup(0, (6,))) == FGAbelianGroup(0, (2,))


def test_tensor_with_free_part():
    g = FGAbelianGroup(1, (2,)).tensor(FGAbelianGroup(0, (4,)))
    assert g == FGAbelianGroup(0, (2, 4))


def test_presentation_cokernel():
    rel = ExactMatrix.from_rows([[2, 0], [0, 3], [0, 0]])
    g = FGAbelianGroup.from_presentation(rel)
    assert g == FGAbelianGroup(1, (6,))


def test_integral_cohomology_of_circle():
    d0 = ExactMatrix.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    c = CochainComplex({0: 3, 1: 3}, {0: d0})
    groups = c.cohomology_groups()
    assert groups[0] == FGAbelianGroup.free(1)
    assert groups[1] == FGAbelianGroup.free(1)


def test_integral_cohomology_torsion():
    # multiplication by 2 in degrees 1 -> 2 gives H^2 = Z/2
    c = CochainComplex({1: 1, 2: 1}, {1: ExactMatrix.from_rows([[2]])})
    groups = c.cohomology_groups()
    assert groups[1] == FGAbelianGroup.zero()
    assert groups[2] == FGAbelianGroup(0, (2,))


def test_complex_rejects_bad_differential():
    d0 = ExactMatrix.from_rows([[1], [0]])
    d1 = ExactMatrix.from_rows([[1, 0]])
    with pytest.raises(AssertionError):
        CochainComplex({0: 1, 1: 2, 2: 1}, {0: d0, 1: d1})


def test_cohomology_basis_deterministic():
    d0 = ExactMatrix.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    c = CochainComplex({0: 3, 1: 3}, {0: d0})
    assert c.cohomology_basis(1) == c.cohomology_basis(1)
    assert len(c.cohomology_basis(1)) == 1


def test_tensor_complex_euler_multiplicative():
    d0 = ExactMatrix.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    circle = CochainComplex({0: 3, 1: 3}, {0: d0})
    tot, _ = tensor_complex(circle, circle)
    assert tot.euler_characteristic() == circle.euler_characteristic() ** 2
    # torus Betti numbers via the Kunneth convolution
    assert tot.betti_numbers() == {0: 1, 1: 2, 2: 1}


# ------------------------------------------------------------- invariants

small_entries = st.integers(min_value=-4, max_value=4)


# mostly zeros, the rest small rationals
sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                             st.fractions(-3, 3, max_denominator=4))


def matrix_strategy(max_dim=4, entries=small_entries):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.lists(entries, min_size=c, max_size=c),
                               min_size=r, max_size=r)))


@given(matrix_strategy())
def test_rank_nullity(data):
    m = ExactMatrix.from_rows(data)
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(st.one_of(matrix_strategy(), matrix_strategy(12, sparse_rationals)))
def test_rank_agrees_with_rref(data):
    m = ExactMatrix.from_rows(data)
    _, pivots = rref(m)
    assert rank(m) == len(pivots)


@given(matrix_strategy())
def test_snf_self_verifies(data):
    m = ExactMatrix.from_rows(data)
    d, u, v, vinv = smith_normal_form(m)
    diag = [int(d.entry(i, i)) for i in range(min(m.rows, m.cols))]
    diag = [x for x in diag if x]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    assert u * m * v == d


sparse_ints = st.one_of(st.just(0), st.just(0), st.integers(-6, 6))


@st.composite
def sparse_integer_matrices(draw):
    """Sparse integer matrices up to 8x8 with up to two zero rows and two
    zero columns, and half the time a last row that combines the first two."""
    data = draw(matrix_strategy(8, sparse_ints))
    r, c = len(data), len(data[0])
    for i in draw(st.sets(st.integers(0, r - 1), max_size=2)):
        data[i] = [0] * c
    for j in draw(st.sets(st.integers(0, c - 1), max_size=2)):
        for row in data:
            row[j] = 0
    if r >= 3 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        data[-1] = [a * x + b * y for x, y in zip(data[0], data[1])]
    return ExactMatrix.from_rows(data)


@pytest.fixture(scope="module")
def sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    return lambda m: invariant_factors(
        sympy.Matrix(m.rows, m.cols, lambda i, j: int(m.entry(i, j))),
        domain=sympy.ZZ)


@given(sparse_integer_matrices())
def test_snf_matches_sympy(sympy_invariant_factors, m):
    d, u, v, vinv = smith_normal_form(m)
    assert all(i == j for (i, j) in d.entries)
    diag = [int(d.entry(i, i)) for i in range(min(m.rows, m.cols))]
    assert diag == [int(x) for x in sympy_invariant_factors(m)]
    assert u.is_integral() and v.is_integral()
    assert u * m * v == d
    assert v * vinv == ExactMatrix.identity(m.cols)


groups = st.builds(
    FGAbelianGroup,
    st.integers(0, 3),
    st.lists(st.integers(2, 12), max_size=3).map(tuple),
)


@given(groups, groups)
def test_tor_symmetry(a, b):
    assert tor1(a, b) == tor1(b, a)


@given(groups, groups)
def test_tensor_symmetry(a, b):
    assert a.tensor(b) == b.tensor(a)


@given(groups)
def test_tensor_unit(g):
    assert g.tensor(FGAbelianGroup.free(1)) == g


def two_step_complex(entries=small_entries):
    """Random three-degree complex with d1 built inside ker of composition."""
    def build(data):
        a_rows, combos = data
        a = ExactMatrix.from_rows(a_rows)  # d0: C0 -> C1, shape m x n
        ker_t = kernel_basis(a.transpose())
        rows = []
        for combo in combos:
            vec = [Fraction(0)] * a.rows
            for coeff, kv in zip(combo, ker_t):
                for i, x in enumerate(kv):
                    vec[i] += coeff * x
            rows.append(vec)
        if rows:
            b = ExactMatrix.from_rows(rows)
            dims = {0: a.cols, 1: a.rows, 2: b.rows}
            return CochainComplex(dims, {0: a, 1: b})
        return CochainComplex({0: a.cols, 1: a.rows}, {0: a})
    return st.tuples(
        matrix_strategy(3, entries),
        st.lists(st.lists(entries, min_size=3, max_size=3), max_size=2),
    ).map(build)


@given(two_step_complex(), two_step_complex())
def test_kunneth_over_q(x, y):
    tot, _ = tensor_complex(x, y)
    bx, by, bt = x.betti_numbers(), y.betti_numbers(), tot.betti_numbers()
    for n in tot.degrees():
        conv = sum(bx.get(p, 0) * by.get(n - p, 0) for p in bx)
        assert bt[n] == conv


@given(two_step_complex())
def test_euler_is_alternating_betti_sum(c):
    b = c.betti_numbers()
    assert c.euler_characteristic() == sum((-1) ** k * v for k, v in b.items())


# ----------------------------------------------- span queries vs references

def _gauss_solve(a, b):
    """Reference: X with a X == b over plain Fractions, free variables zero;
    None if some column of b is outside the column span of a."""
    cols, nb = len(a[0]), len(b[0])
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    pivots = []
    for c in range(cols + nb):
        r = len(pivots)
        p = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        aug[r] = [v / aug[r][c] for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
    if any(c >= cols for c in pivots):
        return None
    x = [[Fraction(0)] * nb for _ in range(cols)]
    for i, c in enumerate(pivots):
        x[c] = aug[i][cols:]
    return x


def _dense(m):
    return [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]


def _greedy_columns(m):
    """Reference: keep a column when it makes linalg.rank grow."""
    keep = []
    for j in range(m.cols):
        if rank(m.submatrix_cols(keep + [j])) > len(keep):
            keep.append(j)
    return keep


@st.composite
def system(draw):
    a = draw(matrix_strategy(5, sparse_rationals))
    m = ExactMatrix.from_rows(a)
    nb = draw(st.integers(1, 3))
    if draw(st.booleans()):
        # consistent by construction
        y = draw(st.lists(st.lists(sparse_rationals, min_size=nb,
                                   max_size=nb),
                          min_size=m.cols, max_size=m.cols))
        return m, m * ExactMatrix.from_rows(y)
    b = draw(st.lists(st.lists(sparse_rationals, min_size=nb, max_size=nb),
                      min_size=m.rows, max_size=m.rows))
    return m, ExactMatrix.from_rows(b)


@given(system())
def test_solve_many_matches_gauss_reference(sys_):
    m, targets = sys_
    x = solve_many(m, targets)
    ref = _gauss_solve(_dense(m), _dense(targets))
    assert (x is None) == (rank(m.stack_cols(targets)) > rank(m))
    if x is None:
        assert ref is None
        return
    assert m * x == targets
    assert ref is not None and x == ExactMatrix.from_rows(ref)
    for j in range(targets.cols):
        assert solve(m, targets.column(j)) == x.column(j)


@given(matrix_strategy(5, sparse_rationals))
def test_rref_pivots_are_greedy_rank_columns(data):
    m = ExactMatrix.from_rows(data)
    assert rref(m)[1] == _greedy_columns(m)


@given(two_step_complex(sparse_rationals))
def test_cohomology_basis_is_greedy_extension(c):
    for k in c.degrees():
        img = c.diff(k - 1)
        ker = kernel_basis(c.diff(k))
        both = img.stack_cols(ExactMatrix.from_columns(img.rows, ker))
        want = [ker[j - img.cols] for j in _greedy_columns(both)
                if j >= img.cols]
        assert c.cohomology_basis(k) == want
        assert len(want) == c.betti_numbers()[k]


# -------------------------------------- integral cohomology vs a reference

def _two_snf_cohomology_groups(c):
    """H^k = ker d^k / im d^{k-1} through two Smith forms: the kernel from
    the column transform of d^k, the image rewritten in those coordinates
    through the inverse transform, and the quotient's invariant factors."""
    out = {}
    for k in c.degrees():
        a, b = c.diff(k), c.diff(k - 1)
        n = c.dim(k)
        if n == 0:
            out[k] = FGAbelianGroup.zero()
            continue
        if a.is_zero():
            vinv, ra = ExactMatrix.identity(n), 0
        else:
            d, _, _, vinv = smith_normal_form(a)
            ra = sum(1 for (i, j) in d.entries if i == j)
        if ra == n:
            out[k] = FGAbelianGroup.zero()
            continue
        if b.is_zero():
            out[k] = FGAbelianGroup.free(n - ra)
            continue
        coords = vinv * b
        assert all(i >= ra for (i, j) in coords.entries)
        pres = ExactMatrix(n - ra, b.cols, {(i - ra, j): v for (i, j), v
                                            in coords.entries.items()})
        out[k] = FGAbelianGroup.from_presentation(pres)
    return out


@st.composite
def integer_complexes(draw):
    """Tensor products of two or three one-step complexes Z^a -M-> Z^b:
    integral, d o d = 0 by construction, torsion from the entries of M."""
    def one_step():
        rows = draw(matrix_strategy(3))
        m = ExactMatrix.from_rows(rows)
        return CochainComplex({0: m.cols, 1: m.rows}, {0: m})
    c = one_step()
    for _ in range(draw(st.integers(1, 2))):
        c, _layout = tensor_complex(c, one_step())
    return c


@given(integer_complexes())
def test_cohomology_groups_match_two_snf_reference(c):
    got = c.cohomology_groups()
    assert got == _two_snf_cohomology_groups(c)
    assert {k: g.free_rank for k, g in got.items()} == c.betti_numbers()


def test_cohomology_groups_certify_d_squared():
    # d o d != 0 slips past construction with check=False; the integral
    # computation must still refuse it, also under python -O
    d0 = ExactMatrix.from_rows([[1], [0]])
    d1 = ExactMatrix.from_rows([[1, 0]])
    c = CochainComplex({0: 1, 1: 2, 2: 1}, {0: d0, 1: d1}, check=False)
    with pytest.raises(CertificateError, match="degree 1"):
        c.cohomology_groups()


def test_cohomology_groups_reject_non_integers():
    c = CochainComplex({0: 1, 1: 1}, {0: ExactMatrix.from_rows([[Fraction(1, 2)]])})
    with pytest.raises(ValueError):
        c.cohomology_groups()
