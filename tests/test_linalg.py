"""Exact linear algebra: frozen oracles first, then property invariants."""

import doctest
import heapq
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from conftest import assert_normalized, projective_plane, run_python
from hypothesis import given, strategies as st

import strat_ic.linalg as linalg
from strat_ic.examples import get_example
from strat_ic.linalg import (
    CertificateError,
    CochainComplex,
    ExactMatrix,
    FGAbelianGroup,
    kernel_basis,
    pivot_columns,
    rank,
    rref,
    smith_normal_form,
    solve,
    solve_many,
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
    assert ker.cols == 1
    # the kernel is spanned by the constant function
    v = ker.column(0)
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
    proc = run_python("-c", code)
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


def test_snf_certificate_raises_under_optimize():
    # -O strips asserts, so each of the three certificates must raise
    code = "\n".join([
        "from strat_ic import linalg",
        "from strat_ic.linalg import CertificateError, ExactMatrix",
        "mul_rows = linalg._mul_rows",
        "for call in (2, 3, 4):",
        "    calls = []",
        "    def corrupt(x_rows, y_rows):",
        "        out = mul_rows(x_rows, y_rows)",
        "        calls.append(None)",
        "        if len(calls) == call:",
        "            out[0][0] = out[0].get(0, 0) + 1",
        "        return out",
        "    linalg._mul_rows = corrupt",
        "    try:",
        "        linalg.smith_normal_form(ExactMatrix.from_rows([[1, 2], [3, 4]]))",
        "        print('accepted')",
        "    except CertificateError as e:",
        "        print('rejected:', e)",
        "    finally:",
        "        linalg._mul_rows = mul_rows",
    ])
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "rejected: SNF transform check failed",
        "rejected: SNF inverse check failed for u",
        "rejected: SNF inverse check failed for v",
    ]


@pytest.mark.parametrize("name", ["t2", "genus2", "s2", "product:s1,s1",
                                  "product:t2,s1"])
def test_closed_examples_need_no_smith_form(monkeypatch, name):
    # the unit reduction leaves zero differentials on these, so integral
    # cohomology reads every group off without a Smith form
    calls = []
    snf = linalg.smith_normal_form
    monkeypatch.setattr(linalg, "smith_normal_form",
                        lambda m: calls.append(m.shape) or snf(m))
    groups = get_example(name).complex.cochain_complex().cohomology_groups()
    assert all(not g.torsion for g in groups.values())
    assert calls == []


def test_tor_scenario_makes_one_smith_form(monkeypatch, tmp_path):
    # the Tor oracle of `reproduce --example tor-correction` reads one
    # presentation's Smith form; the group arithmetic needs none
    from strat_ic import cli
    calls = []
    snf = linalg.smith_normal_form
    monkeypatch.setattr(linalg, "smith_normal_form",
                        lambda m: calls.append(m.shape) or snf(m))
    out = tmp_path / "out.json"
    assert cli.main(["reproduce", "--example", "tor-correction",
                     "--output", str(out)]) == 0
    assert calls == [(1, 2)]


def test_group_normalization_to_chain():
    g = FGAbelianGroup(0, (4, 6))
    assert g.torsion == (2, 12)


def _trial_division_invariant_factors(factors):
    """Reference: the invariant factors of the sum of the Z/n, by factoring
    every n into primes by trial division and stacking each prime's
    powers, largest first, into the slots of the chain.  0 and 1 add
    nothing."""
    exps = {}
    for n in factors:
        n = abs(int(n))
        if n <= 1:
            continue
        d = 2
        while d * d <= n:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e:
                exps.setdefault(d, []).append(e)
            d += 1
        if n > 1:
            exps.setdefault(n, []).append(1)
    depth = max((len(v) for v in exps.values()), default=0)
    for p in exps:
        exps[p].sort(reverse=True)
        exps[p] += [0] * (depth - len(exps[p]))
    chain = []
    for slot in range(depth):
        val = 1
        for p, es in exps.items():
            val *= p ** es[slot]
        if val > 1:
            chain.append(val)
    chain.sort()
    return tuple(chain)


_cyclic_orders = st.one_of(
    st.sampled_from([0, 1, -1, 2, 3, 5, 7, 97, 4, 8, 9, 27, 25, 32, 49]),
    st.builds(pow, st.sampled_from([2, 3, 5, 7]), st.integers(0, 6)),
    st.integers(-400, 400))


@given(st.lists(_cyclic_orders, max_size=7))
def test_invariant_factors_match_trial_division(factors):
    got = linalg._invariant_factors(factors)
    assert got == _trial_division_invariant_factors(factors)
    assert FGAbelianGroup(0, tuple(factors)).torsion == got


def test_tor_z4_z6():
    z4, z6 = FGAbelianGroup(0, (4,)), FGAbelianGroup(0, (6,))
    assert z4.tor(z6) == FGAbelianGroup(0, (2,))


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
    with pytest.raises(CertificateError, match="degree 0"):
        CochainComplex({0: 1, 1: 2, 2: 1}, {0: d0, 1: d1})
    # a rational differential is checked the same way
    half = ExactMatrix.from_rows([[Fraction(1, 2), 0]])
    with pytest.raises(CertificateError, match="degree 0"):
        CochainComplex({0: 1, 1: 2, 2: 1}, {0: d0, 1: half})


def test_complex_rejects_bad_differential_under_optimize():
    # -O strips asserts, so the d o d check must not be one
    code = "\n".join([
        "from strat_ic.linalg import CertificateError, CochainComplex, "
        "ExactMatrix",
        "d0 = ExactMatrix.from_rows([[1], [0]])",
        "d1 = ExactMatrix.from_rows([[1, 0]])",
        "try:",
        "    print(CochainComplex({0: 1, 1: 2, 2: 1}, {0: d0, 1: d1}))",
        "except CertificateError as e:",
        "    print('rejected:', e)",
    ])
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected: d o d != 0 at degree 0"


def test_complex_rejects_misshaped_differentials():
    with pytest.raises(ValueError, match="out of range"):
        CochainComplex({0: 1, 1: 1}, {1: ExactMatrix.from_rows([[1]])})
    with pytest.raises(ValueError, match="shape"):
        CochainComplex({0: 1, 1: 2}, {0: ExactMatrix.from_rows([[1, 1]])})


def test_product_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="shapes"):
        ExactMatrix.from_rows([[1, 2]]) * ExactMatrix.from_rows([[1, 2]])


def test_shape_checks_under_optimize():
    # -O strips asserts, and the d o d and SNF certificates mean nothing
    # on mis-shaped input, so the shape checks must not be asserts
    code = "\n".join([
        "from strat_ic.linalg import CochainComplex, ExactMatrix",
        "one = ExactMatrix.from_rows([[1]])",
        "row = ExactMatrix.from_rows([[1, 1]])",
        "for call in (lambda: CochainComplex({0: 1, 1: 1}, {1: one}),",
        "             lambda: CochainComplex({0: 1, 1: 2}, {0: row}),",
        "             lambda: row * row):",
        "    try:",
        "        print(call())",
        "    except ValueError:",
        "        print('rejected')",
    ])
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["rejected"] * 3


def test_group_and_complex_inputs_are_typed_raises():
    # a negative free rank is refused by FGAbelianGroup, and an empty
    # complex gives CochainComplex no degrees; -O must keep both raises
    with pytest.raises(ValueError, match="negative free rank"):
        FGAbelianGroup(-1)
    with pytest.raises(ValueError, match="explicit degree range"):
        CochainComplex({})
    code = "\n".join([
        "from strat_ic.linalg import CochainComplex, FGAbelianGroup",
        "for call in (lambda: FGAbelianGroup(-1), lambda: CochainComplex({})):",
        "    try:",
        "        print(call())",
        "    except ValueError as e:",
        "        print('rejected:', e)",
    ])
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "rejected: negative free rank -1",
        "rejected: empty complex needs an explicit degree range",
    ]


# caller errors that must stay typed raises under python -O: each entry is
# (message, expression), evaluated after _CALLER_SETUP
_CALLER_SETUP = "\n".join([
    "from strat_ic import linalg",
    "from strat_ic.linalg import (CochainComplex, ExactMatrix, "
    "FGAbelianGroup, solve, solve_many)",
    "i2, i3 = ExactMatrix.identity(2), ExactMatrix.identity(3)",
    "def broken_chain(tors):",
    "    # the chain check guards the torsion normalization; fake a bad one",
    "    real = linalg._invariant_factors",
    "    linalg._invariant_factors = lambda _factors: tors",
    "    try:",
    "        return FGAbelianGroup(0, tors)",
    "    finally:",
    "        linalg._invariant_factors = real",
])
_CALLER_ERRORS = [
    ("negative shape", "ExactMatrix(-1, 2)"),
    ("outside shape", "ExactMatrix(1, 1, {(1, 0): 1})"),
    ("outside shape", "ExactMatrix(1, 1, {(0, -1): 1})"),
    ("ragged rows", "ExactMatrix.from_rows([[1], [1, 2]])"),
    ("cannot add", "i2 + i3"),
    ("vector of length", "i2.apply((1,))"),
    ("cannot stack", "i2.stack_cols(i3)"),
    ("targets of shape", "solve_many(i2, i3)"),
    ("target of length", "solve(i2, (1,))"),
    ("contiguous", "CochainComplex({0: 1, 2: 1})"),
    ("not a divisibility chain", "broken_chain((4, 6))"),
]


@pytest.mark.parametrize("message,expr", _CALLER_ERRORS)
def test_caller_errors_are_value_errors(message, expr):
    ns = {}
    exec(_CALLER_SETUP, ns)
    with pytest.raises(ValueError, match=message):
        eval(expr, ns)


def test_caller_errors_under_optimize():
    # -O strips asserts, so none of these checks may be one
    code = "\n".join([
        _CALLER_SETUP,
        "for expr in %r:" % [expr for _m, expr in _CALLER_ERRORS],
        "    try:",
        "        print('accepted:', eval(expr))",
        "    except ValueError as e:",
        "        print('rejected:', e)",
    ])
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(_CALLER_ERRORS)
    for line, (message, _expr) in zip(lines, _CALLER_ERRORS):
        assert line.startswith("rejected:") and message in line, line


_WRONG_RANK = "\n".join([
    "from strat_ic import linalg",
    "from strat_ic.linalg import CertificateError, CochainComplex, "
    "ExactMatrix",
    "c = CochainComplex({0: 1, 1: 1}, {0: ExactMatrix.from_rows([[0]])})",
    "linalg.rank = lambda m: m.rows + 1  # a rank that overcounts",
    "try:",
    "    print(c.betti_numbers())",
    "except CertificateError as e:",
    "    print('rejected:', e)",
])


def test_betti_numbers_certify_the_ranks():
    c = CochainComplex({0: 1, 1: 1}, {0: ExactMatrix.from_rows([[0]])})
    assert c.betti_numbers() == {0: 1, 1: 1}
    with mock.patch.object(linalg, "rank", lambda m: m.rows + 1):
        with pytest.raises(CertificateError, match="negative Betti"):
            c.betti_numbers()


def test_betti_numbers_certify_the_ranks_under_optimize():
    # -O strips asserts, so the rank certificate must not be one
    proc = run_python("-c", _WRONG_RANK)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: negative Betti number")


def test_cohomology_basis_deterministic():
    d0 = ExactMatrix.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    c = CochainComplex({0: 3, 1: 3}, {0: d0})
    assert c.cohomology_basis(1) == c.cohomology_basis(1)
    assert len(c.cohomology_basis(1)) == 1


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
    assert rank(m) + kernel_basis(m).cols == m.cols


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


# ------------------------------ Smith normal form vs the full-scan loop

def _reference_snf(m):
    """Reference: the Smith normal form loop before its pivot search
    stopped at a +-1.  Every pivot scans the whole remaining block for the
    smallest (|entry|, row, col), and every finished pivot scans all later
    rows for a divisibility offender; plain dict rows, no column index, no
    certificate.  Returns (u * m * v, u, v, v^-1) built through the
    normalizing `ExactMatrix` constructor."""
    nr, nc = m.rows, m.cols
    a = [dict() for _ in range(nr)]
    for (i, j), x in m.entries.items():
        a[i][j] = x
    u = [{i: 1} for i in range(nr)]        # rows
    v = [{j: 1} for j in range(nc)]        # columns
    vinv = [{j: 1} for j in range(nc)]     # rows

    def axpy(y, x, c):
        for k, xv in x.items():
            w = y.get(k, 0) + c * xv
            if w:
                y[k] = w
            else:
                del y[k]

    def row_op(i1, i2, c):
        axpy(a[i1], a[i2], c)
        axpy(u[i1], u[i2], c)

    def col_op(j1, j2, c):
        for r in a:
            if j2 in r:
                w = r.get(j1, 0) + c * r[j2]
                if w:
                    r[j1] = w
                else:
                    del r[j1]
        axpy(v[j1], v[j2], c)
        axpy(vinv[j2], vinv[j1], -c)

    def col_swap(j1, j2):
        for r in a:
            x1, x2 = r.pop(j1, 0), r.pop(j2, 0)
            if x2:
                r[j1] = x2
            if x1:
                r[j2] = x1
        v[j1], v[j2] = v[j2], v[j1]
        vinv[j1], vinv[j2] = vinv[j2], vinv[j1]

    t = 0
    while t < min(nr, nc):
        best = min(((abs(x), i, j) for i in range(t, nr)
                    for j, x in a[i].items() if j >= t), default=None)
        if best is None:
            break
        _, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        u[t], u[bi] = u[bi], u[t]
        if bj != t:
            col_swap(t, bj)
        piv = a[t][t]
        for i in range(t + 1, nr):
            q = a[i].get(t, 0) // piv
            if q:
                row_op(i, t, -q)
        for j in [j for j in a[t] if j > t]:
            q = a[t][j] // piv
            if q:
                col_op(j, t, -q)
        if any(t in a[i] for i in range(t + 1, nr)) or len(a[t]) > 1:
            continue
        offender = next((i for i in range(t + 1, nr)
                         if any(j > t and x % piv for j, x in a[i].items())),
                        None)
        if offender is not None:
            row_op(t, offender, 1)
            continue
        if piv < 0:
            a[t] = {k: -x for k, x in a[t].items()}
            u[t] = {k: -x for k, x in u[t].items()}
        t += 1

    def build(r, c, vecs, by_rows):
        return ExactMatrix(r, c, {((i, j) if by_rows else (j, i)): x
                                  for i, vec in enumerate(vecs)
                                  for j, x in vec.items()})

    um, mv, mvinv = (build(nr, nr, u, True), build(nc, nc, v, False),
                     build(nc, nc, vinv, True))
    return um * m * mv, um, mv, mvinv


def _assert_snf_matches_reference(m):
    got = smith_normal_form(m)
    want = _reference_snf(m)
    for name, g, w in zip(("d", "u", "v", "vinv"), got, want):
        assert g.shape == w.shape, name
        assert g.entries == w.entries, name
        assert_normalized(g)


@given(sparse_integer_matrices())
def test_snf_matches_full_scan_reference(m):
    _assert_snf_matches_reference(m)


@pytest.mark.parametrize("name", ["product:t2,s1", "genus2"])
def test_snf_matches_full_scan_reference_on_differentials(name):
    diffs = get_example(name).complex.cochain_complex().diffs
    assert diffs
    for d in diffs.values():
        _assert_snf_matches_reference(d)


@pytest.mark.parametrize("rows", [
    [[2, 0], [0, 3]],
    [[4, 6, 0], [6, 0, 10], [0, 10, 15]],
    [[2, 0, 0], [0, 4, 3], [0, 0, 6]],
])
def test_snf_matches_full_scan_reference_when_a_fold_makes_a_unit(rows):
    # no entry is +-1, yet the first invariant factor is 1: a +-1 exists
    # only after the divisibility fold
    m = ExactMatrix.from_rows(rows)
    assert all(abs(x) != 1 for x in m.entries.values())
    assert smith_normal_form(m)[0].entries[(0, 0)] == 1
    _assert_snf_matches_reference(m)


groups = st.builds(
    FGAbelianGroup,
    st.integers(0, 3),
    st.lists(st.integers(2, 12), max_size=3).map(tuple),
)


@given(groups, groups)
def test_tor_symmetry(a, b):
    assert a.tor(b) == b.tor(a)


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
            for coeff, t in zip(combo, range(ker_t.cols)):
                for i, x in enumerate(ker_t.column(t)):
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


def _rref_solve(m, targets):
    """Reference: X read off the RREF of [m | targets], free variables
    zero; None if a pivot lands in the target block."""
    r, pivots = rref(m.stack_cols(targets))
    if pivots and pivots[-1] >= m.cols:
        return None
    return ExactMatrix(m.cols, targets.cols,
                       {(pivots[i], j - m.cols): v
                        for (i, j), v in r.entries.items() if j >= m.cols})


nonzero_rationals = st.fractions(-3, 3, max_denominator=4).filter(bool)


@st.composite
def identity_row_systems(draw):
    """(m, targets, fast, outside) for the identity-row path of solve_many.

    m is a kernel basis, a row-permuted [I; A], or a near miss of the
    latter: the identity row of one column (whose A part is zeroed) holds a
    2, or a second nonzero.  `fast` says whether every column keeps a row
    with a lone 1.  targets is m * C, and when `outside` is set one entry in
    a row off the identity is perturbed, which leaves the span.
    """
    kind = draw(st.sampled_from(["kernel", "stacked", "two", "second"]))
    if kind == "kernel":
        a = ExactMatrix.from_rows(draw(matrix_strategy(6, sparse_rationals)))
        m = kernel_basis(a)
        off_identity = rref(a)[1]
    else:
        r = draw(st.integers(1, 4))
        extra = draw(st.integers(0, 4))
        ent = {(i, i): 1 for i in range(r)}
        for i in range(r, r + extra):
            for j in range(r):
                ent[(i, j)] = draw(sparse_rationals)
        if kind != "stacked":
            j0 = draw(st.integers(0, r - 1))
            for i in range(r, r + extra):
                ent[(i, j0)] = 0
            if kind == "two" or r == 1:
                ent[(j0, j0)] = 2
            else:
                j1 = draw(st.integers(0, r - 1).filter(lambda j: j != j0))
                ent[(j0, j1)] = draw(nonzero_rationals)
        perm = draw(st.permutations(range(r + extra)))
        m = ExactMatrix(r + extra, r,
                        {(perm[i], j): v for (i, j), v in ent.items()})
        off_identity = [perm[i] for i in range(r, r + extra)]
    nb = draw(st.integers(1, 3))
    c = draw(st.lists(st.lists(sparse_rationals, min_size=nb, max_size=nb),
                      min_size=m.cols, max_size=m.cols))
    targets = m * ExactMatrix(m.cols, nb, {(i, j): v for i, row in enumerate(c)
                                           for j, v in enumerate(row)})
    outside = bool(off_identity) and draw(st.booleans())
    if outside:
        i = draw(st.sampled_from(off_identity))
        j = draw(st.integers(0, nb - 1))
        delta = ExactMatrix(m.rows, nb, {(i, j): draw(nonzero_rationals)})
        targets = targets + delta
    return m, targets, kind in ("kernel", "stacked"), outside


@given(identity_row_systems())
def test_solve_many_identity_rows_match_references(case):
    m, targets, fast, outside = case
    with mock.patch.object(linalg, "rref", wraps=linalg.rref) as spy:
        x = solve_many(m, targets)
    assert spy.called == (not fast)
    assert x == _rref_solve(m, targets)
    ref = _gauss_solve(_dense(m), _dense(targets))
    if x is None:
        assert ref is None
    else:
        assert not outside
        assert m * x == targets and _dense(x) == ref


@st.composite
def unit_row_systems(draw):
    """(m, targets) for the unit-row path of solve_many, with a corrupted
    read-off half the time.

    Each column of m has one or two rows holding a lone 1, the other rows
    are random.  targets is m * C; half the time one entry is perturbed in
    a row that solve_many reads X off (so the X read off is corrupted),
    in a second unit row of a column (which contradicts it) or in another
    row.
    """
    r = draw(st.integers(1, 4))
    twins = draw(st.sets(st.integers(0, r - 1), max_size=2))
    extra = draw(st.integers(0, 3))
    ent = {(j, j): 1 for j in range(r)}
    units = r + len(twins)
    for n, j in enumerate(sorted(twins)):
        ent[(r + n, j)] = 1
    for i in range(units, units + extra):
        for j in range(r):
            ent[(i, j)] = draw(sparse_rationals)
    perm = draw(st.permutations(range(units + extra)))
    m = ExactMatrix(units + extra, r,
                    {(perm[i], j): v for (i, j), v in ent.items()})
    nb = draw(st.integers(1, 3))
    c = draw(st.lists(st.lists(sparse_rationals, min_size=nb, max_size=nb),
                      min_size=r, max_size=r))
    targets = m * ExactMatrix(r, nb, {(i, j): v for i, row in enumerate(c)
                                      for j, v in enumerate(row)})
    if draw(st.booleans()):
        i = draw(st.integers(0, m.rows - 1))
        j = draw(st.integers(0, nb - 1))
        targets = targets + ExactMatrix(m.rows, nb,
                                        {(i, j): draw(nonzero_rationals)})
    return m, targets


@given(unit_row_systems())
def test_solve_many_unit_rows_certify_like_the_full_product(case):
    # the product on the rows not read off refuses exactly what the full
    # product refuses; every answer returned passes the full product
    m, targets = case
    with mock.patch.object(linalg, "rref", wraps=linalg.rref) as spy:
        x = solve_many(m, targets)
    assert not spy.called
    ref = _rref_solve(m, targets)
    assert x == ref
    if x is None:
        assert rank(m.stack_cols(targets)) > rank(m)
    else:
        assert m * x == targets
        assert_normalized(x)


def test_solve_many_certifies_rref_answers():
    # an answer read off a wrong RREF fails m * X == targets and is refused
    # with a CertificateError, not returned
    m = ExactMatrix.from_rows([[2, 1], [1, 1]])
    targets = ExactMatrix.from_rows([[3], [2]])
    assert solve_many(m, targets) == ExactMatrix.from_rows([[1], [1]])
    real = linalg.rref

    def off_by_one(mat):
        r, pivots = real(mat)
        ent = dict(r.entries)
        ent[(0, mat.cols - 1)] += 1
        return ExactMatrix(r.rows, r.cols, ent), pivots
    with mock.patch.object(linalg, "rref", off_by_one):
        with pytest.raises(CertificateError, match="RREF"):
            solve_many(m, targets)


@given(matrix_strategy(5, sparse_rationals))
def test_rref_pivots_are_greedy_rank_columns(data):
    m = ExactMatrix.from_rows(data)
    assert rref(m)[1] == _greedy_columns(m)


@given(two_step_complex(sparse_rationals))
def test_cohomology_basis_is_greedy_extension(c):
    for k in c.degrees():
        img = c.diff(k - 1)
        ker = kernel_basis(c.diff(k))
        both = img.stack_cols(ker)
        want = [ker.column(j - img.cols) for j in _greedy_columns(both)
                if j >= img.cols]
        got = c.cohomology_basis(k)
        assert got == _matching_lift_reference(c.reduction(), k)
        _assert_same_classes(c, k, got, want)
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


def _koszul(x, y):
    """Total complex of x (x) y: degree n holds the nonzero blocks (p, n - p)
    in increasing p, a (x) b sits at i * dim y^q + j inside its block, and
    d(a (x) b) = da (x) b + (-1)^p a (x) db."""
    dims, off = {}, {}
    for n in range(x.lo + y.lo, x.hi + y.hi + 1):
        dims[n] = 0
        for p in x.degrees():
            if x.dim(p) * y.dim(n - p):
                off[p, n - p] = dims[n]
                dims[n] += x.dim(p) * y.dim(n - p)
    ent = {n: {} for n in dims}
    for (p, q), o in off.items():
        wy = y.dim(q)
        for (i2, i1), v in x.diff(p).entries.items():
            t = off[p + 1, q]
            for j in range(wy):
                ent[p + q][t + i2 * wy + j, o + i1 * wy + j] = v
        sign = -1 if p % 2 else 1
        for (j2, j1), v in y.diff(q).entries.items():
            t, wy1 = off[p, q + 1], y.dim(q + 1)
            for i in range(x.dim(p)):
                ent[p + q][t + i * wy1 + j2, o + i * wy + j1] = sign * v
    return CochainComplex(dims, {n: ExactMatrix(dims[n + 1], dims[n], e)
                                 for n, e in ent.items() if e})


@st.composite
def integer_complexes(draw):
    """Koszul tensor products of two or three one-step complexes
    Z^a -M-> Z^b: integral, d o d = 0 by construction, torsion from the
    entries of M."""
    def one_step():
        rows = draw(matrix_strategy(3))
        m = ExactMatrix.from_rows(rows)
        return CochainComplex({0: m.cols, 1: m.rows}, {0: m})
    c = one_step()
    for _ in range(draw(st.integers(1, 2))):
        c = _koszul(c, one_step())
    return c


def test_tensor_complex_euler_multiplicative():
    d0 = ExactMatrix.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    circle = CochainComplex({0: 3, 1: 3}, {0: d0})
    tot = _koszul(circle, circle)
    assert tot.euler_characteristic() == circle.euler_characteristic() ** 2
    # torus Betti numbers via the Kunneth convolution
    assert tot.betti_numbers() == {0: 1, 1: 2, 2: 1}


@given(two_step_complex(), two_step_complex())
def test_kunneth_over_q(x, y):
    """Over Q the Betti numbers of x (x) y are the convolution of the
    factors'; this also pins `_koszul`, which `integer_complexes` builds
    with (its d o d = 0 is certified by the public constructor)."""
    tot = _koszul(x, y)
    bx, by, bt = x.betti_numbers(), y.betti_numbers(), tot.betti_numbers()
    for n in tot.degrees():
        conv = sum(bx.get(p, 0) * by.get(n - p, 0) for p in bx)
        assert bt[n] == conv


@given(integer_complexes())
def test_cohomology_groups_match_two_snf_reference(c):
    got = c.cohomology_groups()
    assert got == _two_snf_cohomology_groups(c)
    assert {k: g.free_rank for k, g in got.items()} == c.betti_numbers()


def test_cohomology_groups_certify_d_squared():
    # a complex with d o d != 0 is refused when it is built, so integral
    # cohomology is never asked of it
    d0 = ExactMatrix.from_rows([[1], [0]])
    d1 = ExactMatrix.from_rows([[1, 0]])
    with pytest.raises(CertificateError, match="d o d != 0 at degree 0"):
        CochainComplex({0: 1, 1: 2, 2: 1}, {0: d0, 1: d1})


def test_cohomology_groups_certify_d_squared_under_optimize():
    code = "\n".join([
        "from strat_ic.linalg import CertificateError, CochainComplex, "
        "ExactMatrix",
        "d0 = ExactMatrix.from_rows([[1], [0]])",
        "d1 = ExactMatrix.from_rows([[1, 0]])",
        "try:",
        "    c = CochainComplex({0: 1, 1: 2, 2: 1}, {0: d0, 1: d1})",
        "    print(c.cohomology_groups())",
        "except CertificateError as e:",
        "    print('rejected:', e)",
    ])
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["rejected: d o d != 0 at degree 0"]


def test_cohomology_groups_reject_non_integers():
    c = CochainComplex({0: 1, 1: 1}, {0: ExactMatrix.from_rows([[Fraction(1, 2)]])})
    with pytest.raises(ValueError):
        c.cohomology_groups()


# ------------------------------- unit-pivot reduction vs unreduced references

def _rank_betti_numbers(c):
    """b_k = dim C^k - rank d^k - rank d^{k-1} on the unreduced
    differentials."""
    return {k: c.dim(k) - rank(c.diff(k)) - rank(c.diff(k - 1))
            for k in c.degrees()}


@st.composite
def unimodular(draw, n):
    """(g, g^-1) for a random n x n integer g with an integer inverse: a
    signed permutation, then up to 2n elementary row operations."""
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    g = ExactMatrix(n, n, {(perm[i], i): signs[i] for i in range(n)})
    ginv = g.transpose()
    ops = st.tuples(st.integers(0, max(n - 1, 0)),
                    st.integers(0, max(n - 1, 0)), st.integers(-2, 2))
    for i, j, c in draw(st.lists(ops, max_size=2 * n)):
        if i != j and c:
            e = ExactMatrix.identity(n) + ExactMatrix(n, n, {(i, j): c})
            einv = ExactMatrix.identity(n) + ExactMatrix(n, n, {(i, j): -c})
            g, ginv = e * g, ginv * einv
    return g, ginv


@st.composite
def unit_reducible_complexes(draw, top=3):
    """A direct sum of pieces Z (one cell in degree k) and Z --n--> Z (from
    degree k to k + 1) in degrees 0..top, under a random unimodular change
    of basis in every degree, so the unit pivots sit off the diagonal and
    share rows and columns with the other pieces.  Returns the complex and
    the groups its pieces give: Z per lone cell and per end of a zero map,
    Z/|n| in degree k + 1 for |n| > 1."""
    lone = st.tuples(st.none(), st.integers(0, top))
    arrow = st.tuples(st.sampled_from([0, 1, -1, 1, -1, 2, -3, 4, 6]),
                      st.integers(0, top - 1))
    pieces = draw(st.lists(st.one_of(lone, arrow), min_size=1, max_size=8))
    dims = {k: 0 for k in range(top + 1)}
    free = dict(dims)
    torsion = {k: [] for k in dims}
    ent = {k: {} for k in range(top)}
    for n, k in pieces:
        if n is None:
            free[k] += 1
        else:
            ent[k][(dims[k + 1], dims[k])] = n
            dims[k + 1] += 1
            if n == 0:
                free[k] += 1
                free[k + 1] += 1
            elif abs(n) > 1:
                torsion[k + 1].append(abs(n))
        dims[k] += 1
    basis = {k: draw(unimodular(dims[k])) for k in dims}
    diffs = {k: basis[k + 1][0] * ExactMatrix(dims[k + 1], dims[k], ent[k])
             * basis[k][1] for k in range(top)}
    want = {k: FGAbelianGroup(free[k], tuple(torsion[k])) for k in dims}
    return CochainComplex(dims, diffs), want


def _assert_reduction_matches_references(c):
    groups = c.cohomology_groups()
    assert groups == _two_snf_cohomology_groups(c)
    assert c.betti_numbers() == _rank_betti_numbers(c) == \
        {k: g.free_rank for k, g in groups.items()}
    red = linalg._reduce_units(c).remainder
    assert all(v * v != 1 for m in red.diffs.values()
               for v in m.entries.values())
    return groups


@given(unit_reducible_complexes())
def test_reduction_matches_references_on_direct_sums(case):
    c, want = case
    assert _assert_reduction_matches_references(c) == want


@pytest.mark.parametrize("name", ["point", "s1", "s2", "t2", "genus2",
                                  "product:s1,s1", "product:t2,s1"])
def test_reduction_matches_references_on_closed_examples(name):
    _assert_reduction_matches_references(
        get_example(name).complex.cochain_complex())


def test_reduction_keeps_rp2_torsion():
    groups = _assert_reduction_matches_references(
        projective_plane().complex.cochain_complex())
    assert groups == {0: FGAbelianGroup.free(1), 1: FGAbelianGroup.zero(),
                      2: FGAbelianGroup(0, (2,))}


def test_reduction_requeues_rows_that_gain_a_unit():
    # row 0 has no unit and leaves the queue first; cancelling (0, 1)
    # turns it into (0 1), whose unit must then be cancelled too
    d0 = ExactMatrix.from_rows([[2, 3], [1, 1]])
    red = linalg._reduce_units(CochainComplex({0: 2, 1: 2}, {0: d0}))
    assert red.remainder.dims == {0: 0, 1: 0}


def _with_zero_diffs(c):
    """c with every differential held as an explicit zero matrix, which a
    `CochainComplex` drops when built, so `_reduce_units` takes its
    general path on it (a one-degree complex holds a 0 x n placeholder,
    which the reduction never reads)."""
    twin = CochainComplex._of(c.dims)
    twin.diffs = {k: ExactMatrix.zeros(c.dim(k + 1), c.dim(k))
                  for k in range(c.lo, c.hi)} or {
        c.lo: ExactMatrix.zeros(0, c.dim(c.lo))}
    return twin


@given(st.integers(-2, 3), st.lists(st.integers(0, 3), min_size=1,
                                    max_size=4))
def test_reduction_without_differential_matches_general_path(lo, sizes):
    # a complex with no differential is its own remainder; the general
    # path, run on the same complex with zero matrices, cancels nothing
    # and gives the same index, Betti numbers and lifted bases
    c = CochainComplex({lo + i: n for i, n in enumerate(sizes)})
    fast = linalg._reduce_units(c)
    general = linalg._reduce_units(_with_zero_diffs(c))
    assert fast.remainder is c
    assert fast.steps == general.steps == []
    assert fast.index == general.index
    assert fast.remainder.dims == general.remainder.dims == c.dims
    assert fast.betti_numbers() == general.betti_numbers() == c.dims
    for k in c.degrees():
        assert fast._lifts(k) == general._lifts(k)


def test_cancel_certifies_the_unit():
    # d^0 = (2): not a unit, so the cancellation must refuse it
    rows, cols = {0: [{0: 2}]}, {0: [{0}]}
    with pytest.raises(CertificateError, match="not a unit"):
        linalg._cancel(rows, cols, 0, 0, 0)


def _bad_square_after_cancelling():
    # d^1 d^0 = (0 6) != 0, which `_of` takes as it is; the unit at
    # (0, 0) cancels and leaves Z -2-> Z -3-> Z, which still fails
    d0 = ExactMatrix.from_rows([[1, 0], [0, 2]])
    d1 = ExactMatrix.from_rows([[0, 3]])
    return CochainComplex._of({0: 2, 1: 2, 2: 1}, {0: d0, 1: d1})


def test_reduction_rechecks_d_squared():
    with pytest.raises(CertificateError, match="d o d"):
        linalg._reduce_units(_bad_square_after_cancelling())
    with pytest.raises(CertificateError, match="d o d"):
        _bad_square_after_cancelling().betti_numbers()


def test_reduction_certificates_under_optimize():
    # -O strips asserts, so neither reduction certificate may be one
    code = "\n".join([
        "from strat_ic import linalg",
        "from strat_ic.linalg import CertificateError, CochainComplex, "
        "ExactMatrix",
        "d0 = ExactMatrix.from_rows([[1, 0], [0, 2]])",
        "d1 = ExactMatrix.from_rows([[0, 3]])",
        "c = CochainComplex._of({0: 2, 1: 2, 2: 1}, {0: d0, 1: d1})",
        "for call in (lambda: linalg._cancel({0: [{0: 2}]}, {0: [{0}]}, "
        "0, 0, 0),",
        "             c.betti_numbers):",
        "    try:",
        "        print(call())",
        "    except CertificateError as e:",
        "        print('rejected:', e)",
    ])
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "rejected: cancelled coefficient 2 is not a unit",
        "rejected: d o d != 0 at degree 0",
    ]


# ------------------------------ ExactMatrix vs dense plain-Fraction lists

# halves and thirds, so sums and products often cancel to integers
exact_rationals = st.one_of(st.just(Fraction(0)),
                            st.fractions(-3, 3, max_denominator=3))


def _as_form(q, form, k=1):
    """q written as an int (when integral), a Fraction, or an unreduced
    'n/d' string with both parts multiplied by k."""
    if form == "int" and q.denominator == 1:
        return int(q)
    if form == "str":
        return "%d/%d" % (q.numerator * k, q.denominator * k)
    return q


@st.composite
def exact_inputs(draw):
    """A rational written in one of the three accepted input forms."""
    return _as_form(draw(exact_rationals),
                    draw(st.sampled_from(["int", "fraction", "str"])),
                    draw(st.integers(1, 3)))


def _build(nr, nc, data):
    return ExactMatrix(nr, nc, {(i, j): v for i, row in enumerate(data)
                                for j, v in enumerate(row)})


def _grid(draw, nr, nc):
    return draw(st.lists(st.lists(exact_inputs(), min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))


def _ref(data):
    return [[Fraction(v) for v in row] for row in data]


def _ref_mul(a, b, k, c):
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
             for j in range(c)] for i in range(len(a))]


@st.composite
def operand_sets(draw):
    """Shapes r x k, k x c and r x c2, with the inputs for a, a2 (r x k),
    b (k x c), s (r x c2), a scalar, and a column selection of a."""
    r, k, c, c2 = (draw(st.integers(0, 4)) for _ in range(4))
    return dict(r=r, k=k, c=c, c2=c2, a=_grid(draw, r, k),
                a2=_grid(draw, r, k), b=_grid(draw, k, c),
                s=_grid(draw, r, c2), scalar=draw(exact_inputs()),
                pick=draw(st.permutations(range(k)).flatmap(
                    lambda p: st.integers(0, len(p)).map(lambda n: p[:n]))))


@given(operand_sets())
def test_exact_matrix_matches_dense_fraction_reference(ops):
    r, k, c, c2 = ops["r"], ops["k"], ops["c"], ops["c2"]
    a, a2 = _build(r, k, ops["a"]), _build(r, k, ops["a2"])
    b, s = _build(k, c, ops["b"]), _build(r, c2, ops["s"])
    ra, ra2, rb, rs = (_ref(ops[n]) for n in ("a", "a2", "b", "s"))
    q = Fraction(ops["scalar"])
    want = {
        "a": (a, ra),
        "a*b": (a * b, _ref_mul(ra, rb, k, c)),
        "a+a2": (a + a2, [[x + y for x, y in zip(u, w)]
                          for u, w in zip(ra, ra2)]),
        "a-a2": (a - a2, [[x - y for x, y in zip(u, w)]
                          for u, w in zip(ra, ra2)]),
        "a-a": (a - a, [[Fraction(0)] * k for _ in range(r)]),
        "scale": (a.scale(ops["scalar"]), [[q * x for x in u] for u in ra]),
        "a*scalar": (a * ops["scalar"], [[q * x for x in u] for u in ra]),
        "transpose": (a.transpose(), [list(col) for col in zip(*ra)]
                      if r else [[] for _ in range(k)]),
        "stack_cols": (a.stack_cols(s), [u + w for u, w in zip(ra, rs)]),
        "submatrix_cols": (a.submatrix_cols(ops["pick"]),
                           [[u[j] for j in ops["pick"]] for u in ra]),
        "identity": (ExactMatrix.identity(k),
                     [[Fraction(int(i == j)) for j in range(k)]
                      for i in range(k)]),
    }
    for name, (got, ref) in want.items():
        assert_normalized(got)
        dense = _dense(got)
        assert all(type(x) is Fraction for row in dense for x in row), name
        assert dense == ref, name
        # the same values written as Fractions, then as unreduced strings,
        # give an equal matrix with an equal hash
        for form in ("fraction", "str"):
            again = _build(got.rows, got.cols,
                           [[_as_form(x, form, 2) for x in row] for row in ref])
            assert again == got and hash(again) == hash(got), (name, form)
    if r:
        assert ExactMatrix.from_rows(ops["a"]) == a


def test_entries_cancelling_to_integers_are_ints():
    half = ExactMatrix.from_rows([["1/2", Fraction(3, 2)]])
    total = half + ExactMatrix.from_rows([[Fraction(1, 2), "1/2"]])
    assert total.entries == {(0, 0): 1, (0, 1): 2}
    assert_normalized(total)
    assert (half.scale(2)).entries == {(0, 0): 1, (0, 1): 3}
    assert_normalized(half.scale(2))
    assert ExactMatrix.from_rows([["4/2", Fraction(6, 3)]]).entries == \
        {(0, 0): 2, (0, 1): 2}
    with pytest.raises(TypeError):
        ExactMatrix.from_rows([[0.5]])


# ------------------------------------ elimination vs plain-Fraction loops

def _rows_of(m):
    rows = [dict() for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = Fraction(v)
    return rows


def _reference_rref(m):
    """Reference: the plain-Fraction RREF loop, pivot in each column the
    first available row, every row scanned for every pivot."""
    rows = _rows_of(m)
    pivot_cols = []
    cur = 0
    for col in range(m.cols):
        piv = None
        for r in range(cur, m.rows):
            if rows[r].get(col):
                piv = r
                break
        if piv is None:
            continue
        rows[cur], rows[piv] = rows[piv], rows[cur]
        pv = rows[cur][col]
        if pv != 1:
            rows[cur] = {j: v / pv for j, v in rows[cur].items()}
        for r in range(m.rows):
            if r != cur:
                f = rows[r].get(col)
                if f:
                    rr = rows[r]
                    for j, v in rows[cur].items():
                        w = rr.get(j, Fraction(0)) - f * v
                        if w:
                            rr[j] = w
                        elif j in rr:
                            del rr[j]
        pivot_cols.append(col)
        cur += 1
        if cur == m.rows:
            break
    ent = {}
    for i, row in enumerate(rows):
        for j, v in row.items():
            ent[(i, j)] = v
    return ExactMatrix(m.rows, m.cols, ent), pivot_cols


def _reference_rank(m):
    """Reference: the plain-Fraction Markowitz rank loop (sparsest row from
    a heap, then sparsest column, ties to the lower index)."""
    rows = {}
    col_rows = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[j] = Fraction(v)
        col_rows.setdefault(j, set()).add(i)
    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    rnk = 0
    while heap:
        n, pr = heapq.heappop(heap)
        prow = rows.get(pr)
        if prow is None or len(prow) != n:
            continue
        pc = min(prow, key=lambda c: (len(col_rows[c]), c))
        pv = prow[pc]
        for r2 in list(col_rows[pc]):
            if r2 == pr:
                continue
            row2 = rows[r2]
            n2 = len(row2)
            f = row2[pc] / pv
            for c, v in prow.items():
                w = row2.get(c, Fraction(0)) - f * v
                if w:
                    if c not in row2:
                        col_rows[c].add(r2)
                    row2[c] = w
                elif c in row2:
                    del row2[c]
                    col_rows[c].discard(r2)
            if not row2:
                del rows[r2]
            elif len(row2) != n2:
                heapq.heappush(heap, (len(row2), r2))
        for c in prow:
            col_rows[c].discard(pr)
        del rows[pr]
        rnk += 1
    return rnk


def _markowitz_rank(m):
    """Reference: a fraction-free Markowitz rank.  Integer rows are
    eliminated by `linalg._eliminate` like `rref`'s, but each pivot is the
    sparsest row (from a heap), then the sparsest column in it, ties to the
    lower index; so `_eliminate` runs here in an order `rref` never uses."""
    rows = [linalg._primitive(row) for row in linalg._int_rows(m)]
    cols = [set() for _ in range(m.cols)]
    for i, j in m.entries:
        cols[j].add(i)
    # (length, row) for every live row; a row whose length changes is pushed
    # again, and entries that no longer match their row are skipped
    heap = [(len(row), r) for r, row in enumerate(rows) if row]
    heapq.heapify(heap)
    rnk = 0
    while heap:
        n, pr = heapq.heappop(heap)
        prow = rows[pr]
        if prow is None or len(prow) != n:
            continue
        pc = min(prow, key=lambda c: (len(cols[c]), c))
        for r in list(cols[pc]):
            if r == pr:
                continue
            row = rows[r]
            n2 = len(row)
            linalg._eliminate(row, prow, pc, cols, r)
            if row and len(row) != n2:
                heapq.heappush(heap, (len(row), r))
        for c in prow:
            cols[c].discard(pr)
        rows[pr] = None
        rnk += 1
    return rnk


def _assert_matches_references(m):
    r, pivots = rref(m)
    want_r, want_pivots = _reference_rref(m)
    assert pivots == want_pivots
    assert r == want_r
    assert_normalized(r)
    assert_normalized(kernel_basis(m))
    assert rank(m) == len(pivots)
    assert _reference_rank(m) == _markowitz_rank(m) == len(pivots)


# mixed denominators, non-unit and negative pivots
mixed_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                            st.just(Fraction(0)),
                            st.fractions(-6, 6, max_denominator=7))


@st.composite
def sparse_rational_matrices(draw):
    """Sparse rational matrices up to 12x12 with up to two zero rows and two
    zero columns, and half the time a last row that combines the first
    two."""
    data = draw(matrix_strategy(12, mixed_rationals))
    r, c = len(data), len(data[0])
    for i in draw(st.sets(st.integers(0, r - 1), max_size=2)):
        data[i] = [Fraction(0)] * c
    for j in draw(st.sets(st.integers(0, c - 1), max_size=2)):
        for row in data:
            row[j] = Fraction(0)
    if r >= 3 and draw(st.booleans()):
        a, b = draw(mixed_rationals), draw(mixed_rationals)
        data[-1] = [a * x + b * y for x, y in zip(data[0], data[1])]
    return ExactMatrix.from_rows(data)


@given(sparse_rational_matrices())
def test_elimination_matches_fraction_reference(m):
    _assert_matches_references(m)


@st.composite
def wide_with_identity(draw):
    """[A | I] with A sparse and three or four times wider than tall: the
    shape of the top-degree cohomology_basis call, [d^(n-1) | ker d^n]
    with d^n = 0."""
    r = draw(st.integers(1, 8))
    c = draw(st.integers(3 * r, 4 * r))
    a = draw(st.lists(st.lists(mixed_rationals, min_size=c, max_size=c),
                      min_size=r, max_size=r))
    return ExactMatrix.from_rows(a).stack_cols(ExactMatrix.identity(r))


@given(wide_with_identity())
def test_wide_elimination_matches_fraction_reference(m):
    _assert_matches_references(m)


def test_rref_content_above_one():
    # rows with content 2 and 2 (and 3 once the denominators are cleared),
    # and pivots that do not divide the entries below them
    m = ExactMatrix.from_rows([[6, 4, 2, 0],
                               [4, 0, 8, 10],
                               [Fraction(3, 2), 3, 0, Fraction(9, 2)]])
    _assert_matches_references(m)
    r, pivots = rref(m)
    assert pivots == [0, 1, 2]
    assert r.to_triples() == [(0, 0, '1/1'), (0, 3, '-17/6'),
                              (1, 1, '1/1'), (1, 3, '35/12'),
                              (2, 2, '1/1'), (2, 3, '8/3')]


def test_eliminate_scales_and_divides_by_content():
    # p = 6, f = 4, g = 2: y = 3 y - 2 x = (0, 18, 6, -6), content 6
    y, x = {0: 4, 1: 6, 2: 2}, {0: 6, 3: 3}
    cols = [{0, 1}, {0}, {0}, {1}]
    linalg._eliminate(y, x, 0, cols, 0)
    assert y == {1: 3, 2: 1, 3: -1}
    assert cols == [{1}, {0}, {0}, {0, 1}]


def test_eliminate_unit_pivot_neither_scales_nor_divides():
    # p = -1, f = 4: y = y - f p x = y + 4 x = (0, 6, 12), content 6 kept
    y, x = {0: 4, 1: 6}, {0: -1, 2: 3}
    cols = [{0, 1}, {0}, {1}]
    linalg._eliminate(y, x, 0, cols, 0)
    assert y == {1: 6, 2: 12}
    assert cols == [{1}, {0}, {0, 1}]


def _eliminate_every_pivot_alike(y, x, col, cols, i):
    """`_eliminate` as it was before +-1 pivots skipped the rescaling and
    the division by the content."""
    p, f = x[col], y[col]
    g = gcd(p, f)
    linalg._axpy(y, x, -(f // g), p // g, cols, i)
    linalg._primitive(y)


# integer entries with many +-1, and with none
unit_ints = st.one_of(st.just(0), st.just(0), st.sampled_from([1, -1]),
                      st.integers(-6, 6))
non_unit_ints = st.one_of(st.just(0), st.just(0),
                          st.sampled_from([2, -2, 3, -3, 4, 6, -6]))


@given(st.one_of(matrix_strategy(10, unit_ints),
                 matrix_strategy(10, non_unit_ints)))
def test_unit_pivot_elimination_matches_general_one(data):
    m = ExactMatrix.from_rows(data)
    got = rref(m), rank(m)
    with mock.patch.object(linalg, "_eliminate", _eliminate_every_pivot_alike):
        want = rref(m), rank(m)
    assert got == want
    assert_normalized(got[0][0])


def test_rref_pivots_on_sparsest_row():
    # column 0 is nonzero in rows 0 and 2; row 2 is the sparser one and
    # takes the pivot, and row 0 stays available for column 1
    m = ExactMatrix.from_rows([[2, 1, 1], [0, 0, 3], [-4, 0, 0]])
    _assert_matches_references(m)
    r, pivots = rref(m)
    assert pivots == [0, 1, 2]
    assert r == ExactMatrix.identity(3)


# ------------------------------- forward pass vs the Gauss-Jordan loop

def _gauss_jordan_rref(m):
    """Reference: `rref` as one Gauss-Jordan loop, each pivot clearing its
    column from every row, used or not (the pivot rule of `rref`: the
    sparsest unused row, ties to the higher index)."""
    rows = [linalg._primitive(row) for row in linalg._int_rows(m)]
    cols = [set() for _ in range(m.cols)]
    for i, j in m.entries:
        cols[j].add(i)
    used = [False] * m.rows
    pivots = []
    for col in range(m.cols):
        cand = [r for r in cols[col] if not used[r]]
        if not cand:
            continue
        pr = min(cand, key=lambda r: (len(rows[r]), -r))
        prow = rows[pr]
        for r in list(cols[col]):
            if r != pr:
                linalg._eliminate(rows[r], prow, col, cols, r)
        used[pr] = True
        pivots.append((col, pr))
        if len(pivots) == m.rows:
            break
    ent = {}
    for i, (col, r) in enumerate(pivots):
        p = rows[r][col]
        for j, x in rows[r].items():
            ent[(i, j)] = x // p if x % p == 0 else Fraction(x, p)
    return ExactMatrix._of(m.rows, m.cols, ent), [col for col, _ in pivots]


def _two_rref_cohomology_basis(c, k):
    """Reference: the greedy basis of H^k on the whole complex, by two
    full eliminations, the kernel of d^k and then the pivot columns of
    [d^(k-1) | kernel].  `cohomology_basis` takes this rule on the
    remainder of the unit reduction only, so on the whole complex it is a
    class-level reference (`_assert_same_classes`)."""
    ker = kernel_basis(c.diff(k))
    img = c.diff(k - 1)
    _, pivots = _gauss_jordan_rref(img.stack_cols(ker))
    return [ker.column(j - img.cols) for j in pivots if j >= img.cols]


def _solve_by_fractions(rows, rhs):
    """x with rows . x == rhs for a square, invertible system of sparse
    Fraction rows ({column: value}), by plain Gauss-Jordan elimination."""
    rows = [{j: Fraction(v) for j, v in r.items()} for r in rows]
    rhs = [Fraction(v) for v in rhs]
    pivot_row = {}    # column -> row whose pivot it is
    for i, row in enumerate(rows):
        for col, r in list(pivot_row.items()):
            f = row.get(col, 0)
            if f:
                for j, v in rows[r].items():
                    row[j] = row.get(j, 0) - f * v
                    if not row[j]:
                        del row[j]
                rhs[i] -= f * rhs[r]
        col = min(row)    # raises on a singular system
        p = row[col]
        for j in row:
            row[j] /= p
        rhs[i] /= p
        for r in pivot_row.values():
            f = rows[r].get(col, 0)
            if f:
                for j, v in row.items():
                    rows[r][j] = rows[r].get(j, 0) - f * v
                    if not rows[r][j]:
                        del rows[r][j]
                rhs[r] -= f * rhs[i]
        pivot_row[col] = i
    return {col: rhs[r] for col, r in pivot_row.items()}


def _matching_lift_reference(red, k):
    """Reference for `UnitReduction.cohomology_basis` from the matching
    alone: which cells were cancelled, and which remainder cell is which.
    L are the cells of C^k cancelled as the lower cell s of a step, U the
    cells of C^(k+1) cancelled as the upper cell t, R the remainder's
    cells of C^k.  Each greedy remainder class z extends to the cocycle
    with x_R = z, zero on the other cancelled cells of C^k and x_L the
    solution of d[U, L] x_L = -d[U, R] z."""
    c = red.complex
    lower = {k: [], k + 1: []}
    for deg, s, _p, _row in red.steps:
        if deg in lower:
            lower[deg].append(s)
    kept = red.index.get(k + 1, {})
    upper = [t for t in range(c.dim(k + 1))
             if t not in kept and t not in set(lower[k + 1])]
    place = red.index.get(k, {})
    low, rem = lower[k], sorted(place, key=place.get)
    col = {j: i for i, j in enumerate(low)}
    assert len(upper) == len(low)
    d = linalg._rows(c.diff(k))
    out = []
    for z in _two_rref_cohomology_basis(red.remainder, k):
        x = [Fraction(0)] * c.dim(k)
        for i, v in zip(rem, z):
            x[i] = v
        if low:
            sol = _solve_by_fractions(
                [{col[j]: v for j, v in d[u].items() if j in col}
                 for u in upper],
                [-sum((v * x[j] for j, v in d[u].items()), Fraction(0))
                 for u in upper])
            for t, v in sol.items():
                x[low[t]] = v
        out.append(tuple(x))
    return out


def _assert_same_classes(c, k, got, want):
    """got and want are bases of one H^k: equally many, each independent
    modulo im d^(k-1), and spanning the same space with it."""
    img = c.diff(k - 1)

    def rank_with(*bases):
        vecs = [v for b in bases for v in b]
        cols = ExactMatrix(c.dim(k), len(vecs), {
            (i, j): x for j, v in enumerate(vecs) for i, x in enumerate(v)})
        return rank(img.stack_cols(cols))

    base = rank(img)
    assert len(got) == len(want)
    assert rank_with(got) - base == rank_with(want) - base == \
        rank_with(got, want) - base == len(got)


def _assert_basis_matches_references(c):
    red = c.reduction()
    for k in c.degrees():
        got = c.cohomology_basis(k)
        assert got == red.cohomology_basis(k) == \
            _matching_lift_reference(red, k)
        _assert_same_classes(c, k, got, _two_rref_cohomology_basis(c, k))
        assert len(got) == c.betti_numbers()[k]


@st.composite
def kernel_inputs(draw):
    """Sparse int or Fraction matrices, tall, wide or square, with many
    +-1 entries or none, up to three zero rows and three zero columns."""
    entries = draw(st.sampled_from([unit_ints, non_unit_ints,
                                    mixed_rationals]))
    short = draw(st.integers(1, 5))
    long_ = draw(st.integers(short, 3 * short + 2))
    r, c = draw(st.sampled_from([(short, long_), (long_, short),
                                 (short, short)]))
    data = draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    for i in draw(st.sets(st.integers(0, r - 1), max_size=3)):
        data[i] = [0] * c
    for j in draw(st.sets(st.integers(0, c - 1), max_size=3)):
        for row in data:
            row[j] = 0
    return ExactMatrix.from_rows(data)


@given(kernel_inputs())
def test_rref_matches_gauss_jordan_loop(m):
    got = rref(m)
    assert got == _gauss_jordan_rref(m)
    assert_normalized(got[0])


@given(kernel_inputs())
def test_forward_pass_pivots_are_rref_pivots(m):
    _, pivots = rref(m)
    assert [col for col, _r in linalg._echelon(m)[2]] == pivots
    assert pivot_columns(m) == pivots
    assert rank(m) == _markowitz_rank(m) == len(pivots)


@given(st.one_of(two_step_complex(), two_step_complex(sparse_rationals),
                 two_step_complex(unit_ints)))
def test_cohomology_basis_matches_two_rref_reference(c):
    _assert_basis_matches_references(c)
    for k in (c.lo - 1, c.hi + 1):
        assert c.cohomology_basis(k) == _two_rref_cohomology_basis(c, k) == []


@given(integer_complexes())
def test_cohomology_basis_matches_references_on_integer_complexes(c):
    _assert_basis_matches_references(c)


@given(unit_reducible_complexes())
def test_cohomology_basis_matches_references_on_direct_sums(case):
    _assert_basis_matches_references(case[0])


@pytest.mark.parametrize("name", ["point", "s1", "s2", "t2", "genus2",
                                  "product:s1,s1", "product:t2,s1"])
def test_cohomology_basis_matches_references_on_closed_examples(name):
    _assert_basis_matches_references(
        get_example(name).complex.cochain_complex())


def test_cohomology_basis_without_image_eliminates_nothing(monkeypatch):
    # d^0 = 0, and the unit at (0, 0) of d^1 cancels: the remainder's
    # differentials are zero, so its kernel columns are the classes, read
    # off as they are, and each lifts to a kernel column of d^1
    c = CochainComplex({0: 2, 1: 3, 2: 1},
                       {1: ExactMatrix.from_rows([[1, -1, 2]])})
    want = _matching_lift_reference(c.reduction(), 1)
    monkeypatch.setattr(linalg, "_echelon", None)
    monkeypatch.setattr(linalg, "rref", _gauss_jordan_rref)
    assert c.cohomology_basis(1) == want == [
        kernel_basis(c.diff(1)).column(j) for j in range(2)]


def test_lift_through_rows_copied_when_recorded(monkeypatch):
    # `_cancel` replaces the pivot row and never writes to the old one, so
    # the recorded references still hold the rows as they were when their
    # cells cancelled: lifting through copies taken then gives the same
    # vectors
    copies = []
    real = linalg._cancel

    def cancel(rows, cols, k, t, s):
        copies.append(dict(rows[k][t]))
        return real(rows, cols, k, t, s)

    monkeypatch.setattr(linalg, "_cancel", cancel)
    for name in ("t2", "product:t2,s1"):
        copies.clear()
        c = get_example(name).complex.cochain_complex()
        red = c.reduction()
        assert len(copies) == len(red.steps)
        assert [row for _k, _s, _p, row in red.steps] == copies
        copied = linalg.UnitReduction(
            c, red.remainder, red.index,
            [(k, s, p, row) for (k, s, p, _row), row
             in zip(red.steps, copies)])
        for k in c.degrees():
            assert copied.cohomology_basis(k) == red.cohomology_basis(k)


_TAMPER = """
def tampered(c, k):
    # the reduction of c with the unit of its last step in degree k
    # negated, so the lift through that step breaks (d x)_t = 0
    red = c.reduction()
    last = max(i for i, step in enumerate(red.steps) if step[0] == k)
    steps = list(red.steps)
    deg, s, p, row = steps[last]
    steps[last] = (deg, s, -p, row)
    return linalg.UnitReduction(c, red.remainder, red.index, steps)
"""


def test_tampered_lift_fails_its_certificate():
    scope = {"linalg": linalg}
    exec(_TAMPER, scope)
    c = get_example("s1").complex.cochain_complex()
    with pytest.raises(CertificateError, match="not a cocycle"):
        scope["tampered"](c, 0).cohomology_basis(0)


def test_lift_certificate_under_optimize():
    # -O strips asserts, so the lift's certificate may not be one
    code = "\n".join([
        "from strat_ic import linalg",
        "from strat_ic.examples import get_example",
        _TAMPER,
        "c = get_example('s1').complex.cochain_complex()",
        "try:",
        "    print(tampered(c, 0).cohomology_basis(0))",
        "except linalg.CertificateError as e:",
        "    print('rejected:', e)",
    ])
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "rejected: a lifted class of degree 0 is not a cocycle"]


def _example_result(name, kind, lagrangian=0):
    from strat_ic import ic
    space = get_example(name)
    if kind != "refined":
        return ic.deligne_construction(space, ic.Perversity.named(kind))
    choices = {}
    for v in sorted(space.stratum(0)):
        _lk, _basis, form = ic.link_middle_form(space, v)
        choices[v] = ic.lagrangian_subspaces(
            form, count_limit=lagrangian + 1)[lagrangian]
    return ic.refined_ic(space, ic.Mezzoperversity(choices))


@pytest.mark.parametrize("name, kind", [
    (name, kind)
    for name in ("cone-s1", "cone-s2", "cone-t2", "cone-genus2",
                 "cone-cone-s1", "suspension-s1", "suspension-s2",
                 "suspension-t2", "suspension-genus2")
    for kind in ("m", "n")
] + [("suspension-t2", "refined"), ("suspension-genus2", "refined")])
def test_cohomology_basis_matches_two_rref_reference_on_results(name, kind):
    # a result's reduction cancels its truncation's cone matching first, so
    # its bases are those of a fresh reduction handed the same matching
    # (a plain `c.reduction()` picks other pivots, and other bases)
    from strat_ic import ic
    res = _example_result(name, kind)
    c = res.complex
    again = c.reduction(ic._handed_over(res.sheaf, res.layout))
    for k in c.degrees():
        got = res.reduction.cohomology_basis(k)
        assert got == again.cohomology_basis(k) == \
            _matching_lift_reference(res.reduction, k)
        _assert_same_classes(c, k, got, _two_rref_cohomology_basis(c, k))


# -- the cone matching handed over by the ladder -----------------------------
#
# A result of a truncation hands the cone matching its truncation recorded
# to its unit reduction, which cancels those pairs first, cofaces first.
# The references below rebuild the matching from the pushforward's flag
# layouts by name: an A-flag f (bottom not the least cell s) goes with the
# flag (s) + f, found by lookup, not by the merge of `sheaves._partners`.

def _cone_pairs(res):
    """(key, (k, s, t)) for every pair the ladder hands over, unsorted: each
    A-flag of stalk degree q below the cutoff, at a cell whose fiber has a
    least cell and whose stalk kept the plain kernel, with its partner in
    degree q + 1 below the cutoff, or at the cutoff the basis column whose
    unit row is the partner's; key = (-dim, -q, coordinate)."""
    G = res.sheaf
    F, cut = G.untruncated, G.cutoff
    at = {(c, q): (deg, off) for deg, blocks in res.layout.items()
          for c, q, off, _n in blocks}
    out = []
    for c, s in F.least_cells.items():
        inc = G.inclusions[c]
        if s is None or inc.units is None:
            continue
        layout = F.stalk_layouts[c]
        place = {(f, q): off for q, blocks in layout.items()
                 for f, _q, off, _n in blocks}
        for q in range(cut):
            for f, _q, off, size in layout.get(q, ()):
                if f[0] == s:
                    continue
                poff = place[((s,) + f, q + 1)]
                deg, lo = at[(c, q)]
                hi = at[(c, q + 1)][1]
                for i in range(size):
                    up = poff + i
                    if q + 1 == cut:
                        up = inc.units.index(up)
                    out.append(((-len(c), -q, lo + off + i),
                                (deg, lo + off + i, hi + up)))
    return out


def _a_flags_below_the_cutoff(res):
    """The number of A-flag coordinates of stalk degree below the cutoff
    over every stalk with a least cell and the plain kernel."""
    G = res.sheaf
    F = G.untruncated
    return sum(size for c, s in F.least_cells.items()
               if s is not None and G.inclusions[c].units is not None
               for q, blocks in F.stalk_layouts[c].items() if q < G.cutoff
               for f, _q, _off, size in blocks if f[0] != s)


_HANDOVER_RESULTS = [
    (name, kind, 0)
    for name in ("cone-s2", "cone-t2", "cone-genus2", "cone-cone-s1",
                 "suspension-s2", "suspension-t2", "suspension-genus2")
    for kind in ("m", "n", "t")
] + [("cone-product:s2,s1", "t", 0)] + [
    (name, "refined", i) for name in ("suspension-t2", "suspension-genus2")
    for i in range(3)]


@pytest.mark.parametrize("name, kind, lagrangian", _HANDOVER_RESULTS)
def test_handed_over_reduction_matches_the_plain_one(name, kind, lagrangian):
    # the reduction that cancels the cone matching first has the Betti
    # numbers of the plain one, bases of the same classes as the greedy
    # basis of the whole complex, and lifts that are cocycles; its first
    # steps are the handed-over pairs, in their order (`cone-product:s2,s1`
    # at t, cut at 2, is the one case with pairs below the cutoff's)
    res = _example_result(name, kind, lagrangian)
    c, red = res.complex, res.reduction
    want = [pair for _key, pair in sorted(_cone_pairs(res))]
    assert bool(want) == (res.sheaf.cutoff > 0)
    assert [(k, s) for k, s, _p, _row in red.steps[:len(want)]] == \
        [(k, s) for k, s, _t in want]
    assert red.betti_numbers() == c.reduction().betti_numbers()
    for k in c.degrees():
        d = linalg._rows(c.diff(k))
        for x in red.lifts(k):
            assert not any(sum(v * x[j] for j, v in row.items() if j in x)
                           for row in d)
        _assert_same_classes(c, k, red.cohomology_basis(k),
                             _two_rref_cohomology_basis(c, k))


@pytest.mark.parametrize("name, kind, lagrangian", [
    ("cone-t2", "n", 0), ("cone-cone-s1", "t", 0),
    ("suspension-genus2", "t", 0), ("cone-product:s2,s1", "t", 0),
    ("suspension-t2", "refined", 1)])
def test_handed_over_pairs_come_first_cofaces_first(name, kind, lagrangian):
    # one pair per A-flag below the cutoff, cancelled first, by descending
    # cell dimension, then descending stalk degree, then layout order
    from strat_ic import ic
    res = _example_result(name, kind, lagrangian)
    keyed = sorted(_cone_pairs(res))
    want = [pair for _key, pair in keyed]
    assert len(want) == _a_flags_below_the_cutoff(res) > 0
    assert ic._handed_over(res.sheaf, res.layout) == want
    steps = res.reduction.steps[:len(want)]
    assert [(k, s) for k, s, _p, _row in steps] == \
        [(k, s) for k, s, _t in want]
    assert all(p * p == 1 and row[s] == p for _k, s, p, row in steps)
    dims = [(-key[0], -key[1]) for key, _pair in keyed]
    assert dims == sorted(dims, reverse=True)
    if name == "cone-product:s2,s1":
        assert {q for _d, q in dims} == {0, 1}


def test_handed_over_pair_that_is_not_a_unit_is_refused():
    # a handed-over coefficient tampered to 2 is refused by the unit check
    # of `_cancel`, plainly and under -O
    code = "\n".join([
        "from strat_ic import ic, linalg",
        "from strat_ic.examples import get_example",
        "res = ic.deligne_construction(get_example('cone-t2'),",
        "                              ic.Perversity.named('n'))",
        "pairs = ic._handed_over(res.sheaf, res.layout)",
        "k, s, t = pairs[len(pairs) // 2]",
        "cx = res.complex",
        "d = cx.diffs[k]",
        "print(d.entry(t, s) in (1, -1))",
        "ent = dict(d.entries)",
        "ent[(t, s)] = 2",
        "bad = linalg.CochainComplex._of(cx.dims, {**cx.diffs, k:",
        "    linalg.ExactMatrix._of(d.rows, d.cols, ent)})",
        "try:",
        "    linalg._reduce_units(bad, pairs)",
        "    print('accepted')",
        "except linalg.CertificateError as e:",
        "    print('rejected:', e)",
    ])
    for optimize in (False, True):
        proc = run_python("-c", code, optimize=optimize)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "True", "rejected: cancelled coefficient 2 is not a unit"]


# -- `_cancel` writes its Schur update inline: the pivots do not move -------

def _reference_reduce_units(cx):
    """(steps, index, remainder diffs) of the unit reduction, by a plain
    copy of the loop before `_cancel` wrote its Schur update inline: each
    touched row takes `_axpy`.  Same pivot rule: the sparsest queued row
    with a unit, then its unit column with the fewest entries."""
    rows, cols = {}, {}
    for k in range(cx.lo, cx.hi):
        rows[k] = [{} for _ in range(cx.dim(k + 1))]
        cols[k] = [set() for _ in range(cx.dim(k))]
        if k in cx.diffs:
            for (i, j), v in cx.diffs[k].entries.items():
                rows[k][i][j] = v
                cols[k][j].add(i)

    def cancel(k, t, s):
        prow = rows[k][t]
        p = prow[s]
        assert p * p == 1
        touched = [r for r in cols[k][s] if r != t]
        for r in touched:
            row = rows[k][r]
            linalg._axpy(row, prow, -row[s] * p, cols=cols[k], i=r)
        for c in prow:
            cols[k][c].discard(t)
        rows[k][t] = {}
        if k - 1 in rows:
            for c in rows[k - 1][s]:
                cols[k - 1][c].discard(s)
            rows[k - 1][s] = {}
        if k + 1 in rows:
            for r in cols[k + 1][t]:
                del rows[k + 1][r][t]
            cols[k + 1][t] = set()
        return touched

    alive = {k: [True] * n for k, n in cx.dims.items()}
    heap = [(len(row), k, t) for k in rows for t, row in enumerate(rows[k])
            if row]
    heapq.heapify(heap)
    queued = {k: [bool(row) for row in rows[k]] for k in rows}
    steps = []
    while heap:
        n, k, t = heapq.heappop(heap)
        prow = rows[k][t]
        if prow and len(prow) != n:
            heapq.heappush(heap, (len(prow), k, t))
            continue
        queued[k][t] = False
        units = [(len(cols[k][s]), s) for s, x in prow.items() if x * x == 1]
        if not units:
            continue
        s = min(units)[1]
        steps.append((k, s, prow[s], prow))
        for r in cancel(k, t, s):
            if not queued[k][r]:
                queued[k][r] = True
                heapq.heappush(heap, (len(rows[k][r]), k, r))
        alive[k][s] = alive[k + 1][t] = False
    index = {k: {old: new for new, old in
                 enumerate(i for i, a in enumerate(live) if a)}
             for k, live in alive.items()}
    diffs = {k: {(index[k + 1][t], index[k][s]): x
                 for t, row in enumerate(drows) for s, x in row.items()}
             for k, drows in rows.items()}
    return steps, index, {k: e for k, e in diffs.items() if e}


def _assert_reduction_matches_the_reference_loop(c):
    red = linalg._reduce_units(c)
    steps, index, diffs = _reference_reduce_units(c)
    assert red.steps == steps
    assert red.index == index
    assert {k: m.entries for k, m in red.remainder.diffs.items()} == diffs


@given(st.one_of(two_step_complex(), two_step_complex(sparse_rationals),
                 two_step_complex(unit_ints), integer_complexes(),
                 unit_reducible_complexes().map(lambda case: case[0])))
def test_inline_schur_update_matches_the_reference_loop(c):
    _assert_reduction_matches_the_reference_loop(c)


@pytest.mark.parametrize("name", ["t2", "product:t2,s1"])
def test_inline_schur_update_matches_the_reference_loop_on_cochains(name):
    _assert_reduction_matches_the_reference_loop(
        get_example(name).complex.cochain_complex())
