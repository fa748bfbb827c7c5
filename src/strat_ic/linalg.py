"""Exact sparse linear algebra over Q and Z.

Everything in this package reduces to the primitives in this module: ranks and
kernels of sparse rational matrices, Smith normal forms with verified
unimodular transforms, finitely generated abelian groups in invariant-factor
form, and cochain complexes with exact differentials.  No floats anywhere:
a matrix entry is an `int` when integral and a `fractions.Fraction` otherwise,
so integral matrices multiply and eliminate in `int`.

Matrices act on column vectors: a matrix with shape (rows, cols) sends Q^cols
to Q^rows.  A differential d^k of a cochain complex is stored as the matrix of
shape (dim^{k+1}, dim^k).

Row elimination happens in exactly three routines:

- One forward pass over Q, `_echelon` (pivots in column order, each
  clearing its column from the unused rows only), answers every span and
  rank query.  Queries that read only pivot columns stop there, through
  `pivot_columns`: `rank` (the number of pivots), which drives Betti
  numbers and independence checks, and the greedy classes of a unit
  reduction's remainder (pivot columns of [image | kernel basis]).  The
  pairing's top-class functional is a row of the forward pass too (see
  `duality.PairingContext`).  `rref` adds back substitution for the
  queries that read the reduced rows: `kernel_basis` (of stalk
  differentials, of remainders, and in proptest's rank-nullity check),
  and `solve` and `solve_many` (one elimination of [m | targets],
  certified by one exact product).  RREF is unique, so every basis it
  picks is deterministic.  `kernel_basis` returns a sparse matrix whose
  columns are the basis; it is the identity on the rows of the free
  columns (`unit_rows`), so a cocycle's coordinates in it are its entries
  there, with no solve.  It works fraction-free (after Bareiss, Math.
  Comp. 1968) on integer rows with a column -> rows index; see
  `_eliminate`.
- `_reduce_units` cancels every pair of cells joined by a +-1 incidence
  from a cochain complex, on row dicts with a column -> rows index (see
  `_cancel`, whose Schur update is written out inline), and records each
  cancellation.  Pairs handed over with the complex go first, in the
  order given: an `ICResult` hands over the cone matching its truncation
  recorded, cofaces first, so each coface's rows are gone before a face's
  pair is cancelled.  A heap search finds the rest.  The remainder
  has the same cohomology over Z, and the `UnitReduction` it returns
  answers every cohomology question about the complex from it: Betti
  numbers and integral groups hand only the remainder's differentials,
  which hold no +-1, to `rank` and `smith_normal_form` (on the closed
  torsion-free examples they are all zero), and a cohomology basis is a
  basis of the remainder's cohomology lifted back through the recorded
  cancellations, with no elimination on the whole complex (pairings take
  the lifts as sparse dicts, `UnitReduction.lifts`, kept per degree once
  computed).  The bases depend on the order in which `_reduce_units`
  picks its pivots, so a change of that rule, or of the pairs handed
  over, moves the printed pairing matrices.  A caller with several
  questions about one complex holds one reduction
  (`CochainComplex.reduction`); an `ICResult` holds its complex's.
- `smith_normal_form` (over Z) drives integral cohomology and
  presentations, on plain row dicts through `_axpy`: it sees only what
  `_reduce_units` leaves, zero on every shipped example, so it keeps no
  column index.  It tracks u^-1 and v^-1 next to u and v and certifies
  u * m * v == d, u * u^-1 == I and v * v^-1 == I in exact integers; an
  integer matrix with an integer inverse is unimodular.  A failed check
  raises `CertificateError`, also under `python -O`, as do the unit and
  d o d = 0 re-checks of the reduction and the cocycle check of every
  lifted class.
"""

from __future__ import annotations

import heapq
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "CertificateError",
    "ExactMatrix",
    "FGAbelianGroup",
    "CochainComplex",
    "UnitReduction",
    "rank",
    "rref",
    "pivot_columns",
    "kernel_basis",
    "solve",
    "solve_many",
    "unit_rows",
    "smith_normal_form",
]


class CertificateError(Exception):
    """An exact re-check of a computed result failed: a bug, not bad input."""


def _exact(x):
    """x as a matrix entry: an int when integral, else a Fraction."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError("exact entries must be int, Fraction, or 'num/den' string, got %r" % (x,))


class ExactMatrix:
    """Sparse exact matrix, nonzero entries only: an `int` when integral,
    else a `Fraction` with denominator > 1.  `__init__` normalizes every
    entry given as int, Fraction or "num/den" string; `entry`, `column` and
    `apply` hand out Fractions.

    >>> m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    >>> m.shape
    (2, 2)
    >>> (m * m).entry(0, 0)
    Fraction(7, 1)
    """

    __slots__ = ("rows", "cols", "entries")

    @classmethod
    def _of(cls, rows, cols, entries):
        """Matrix that takes `entries` as they are: every value already
        normalized and nonzero, every position inside the shape.  For
        entries copied or sliced out of other matrices; products and sums,
        which can cancel or leave integral Fractions, go through
        `__init__`."""
        out = cls.__new__(cls)
        out.rows = rows
        out.cols = cols
        out.entries = entries
        return out

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative shape (%d, %d)" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                v = _exact(v)
                if v:
                    if not (0 <= i < rows and 0 <= j < cols):
                        raise ValueError("entry (%d, %d) outside shape (%d, %d)"
                                         % (i, j, rows, cols))
                    self.entries[(i, j)] = v

    @classmethod
    def from_rows(cls, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        return cls(rows, cols, {(i, j): v for i, row in enumerate(data)
                                for j, v in enumerate(row)})

    @classmethod
    def identity(cls, n):
        return cls._of(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i, j):
        return Fraction(self.entries.get((i, j), 0))

    def is_zero(self):
        return not self.entries

    def is_integral(self):
        return all(v.denominator == 1 for v in self.entries.values())

    def transpose(self):
        return ExactMatrix._of(self.cols, self.rows,
                               {(j, i): v for (i, j), v in self.entries.items()})

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.shape == other.shape
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.entries.items()))))

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("cannot add shapes %r and %r"
                             % (self.shape, other.shape))
        ent = dict(self.entries)
        for k, v in other.entries.items():
            ent[k] = ent.get(k, 0) + v
        return ExactMatrix(self.rows, self.cols, ent)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = _exact(c)
        if not c:
            return ExactMatrix.zeros(self.rows, self.cols)
        return ExactMatrix(self.rows, self.cols,
                           {k: c * v for k, v in self.entries.items()})

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("cannot multiply shapes %r and %r"
                                 % (self.shape, other.shape))
            # group left entries by column to walk the sparse product once
            by_col = {}
            for (i, j), v in self.entries.items():
                by_col.setdefault(j, []).append((i, v))
            ent = {}
            for (j, k), w in other.entries.items():
                for i, v in by_col.get(j, ()):
                    key = (i, k)
                    ent[key] = ent.get(key, 0) + v * w
            return ExactMatrix(self.rows, other.cols, ent)
        return self.scale(other)

    def apply(self, vec):
        """Multiply against a column vector given as a sequence; returns a tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector of length %d for %d columns"
                             % (len(vec), self.cols))
        out = [Fraction(0)] * self.rows
        for (i, j), v in self.entries.items():
            x = vec[j]
            if x:
                out[i] += v * x
        return tuple(out)

    def column(self, j):
        return tuple(self.entry(i, j) for i in range(self.rows))

    def stack_cols(self, other):
        """Horizontal concatenation [self | other]."""
        if self.rows != other.rows:
            raise ValueError("cannot stack shapes %r and %r"
                             % (self.shape, other.shape))
        ent = dict(self.entries)
        for (i, j), v in other.entries.items():
            ent[(i, j + self.cols)] = v
        return ExactMatrix._of(self.rows, self.cols + other.cols, ent)

    def submatrix_cols(self, col_indices):
        """The columns at `col_indices` (distinct), in that order."""
        pos = {j: new_j for new_j, j in enumerate(col_indices)}
        return ExactMatrix._of(self.rows, len(col_indices),
                               {(i, pos[j]): v
                                for (i, j), v in self.entries.items()
                                if j in pos})

    def to_triples(self):
        """Sorted (row, col, "num/den") triples, the canonical dump format."""
        out = []
        for (i, j) in sorted(self.entries):
            v = self.entries[(i, j)]
            out.append((i, j, "%d/%d" % (v.numerator, v.denominator)))
        return out

    def __repr__(self):
        return "ExactMatrix(%d, %d, nnz=%d)" % (self.rows, self.cols, len(self.entries))


def _echelon(m):
    """Forward pass of the elimination behind `rref`: (rows, cols, pivots).

    Columns are taken in order; each pivot is the sparsest unused row with a
    nonzero in its column, ties to the higher index, and clears that column
    from the unused rows only.  So an unused row stays zero in every column
    already taken, and each pivot row is zero in the pivot columns before
    its own.  `rows` are the integer row dicts left (each row of m, scaled
    and reduced against the pivot rows before it, divided by its content,
    see `_eliminate`), `cols` the column -> rows index of their nonzeros,
    and `pivots` the (column, row) pairs in column order.  The pivot
    columns are those of the RREF: the unused rows, and so the pivot
    choices, are the ones full Gauss-Jordan elimination would see.
    """
    rows = [_primitive(row) for row in _int_rows(m)]
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
        for r in cand:
            if r != pr:
                _eliminate(rows[r], prow, col, cols, r)
        used[pr] = True
        pivots.append((col, pr))
        if len(pivots) == m.rows:
            break
    return rows, cols, pivots


def rref(m):
    """Reduced row echelon form with pivots chosen in column order.

    Returns (R, pivot_cols) where R is the RREF of m and pivot_cols the sorted
    pivot column indices: the forward pass `_echelon`, then back
    substitution in reverse pivot order, each pivot row clearing its column
    from the pivot rows before it.  The RREF is unique, so R and every
    basis read off it do not depend on the pivot rows: each pivot is the
    sparsest unused row with a nonzero in its column and touches only the
    rows with a nonzero there.  Ties go to the higher index, which changes
    only the speed: a star of rows e_c - e_v, as a truncated pushforward's
    differential has at each open cell v, then pivots on its last row and
    fills only its last column, not every column in turn.  Rows stay
    integer vectors (divided by their content after each elimination,
    except under a +-1 pivot, see `_eliminate`) until the pivot rows are
    divided by their pivots, at the end; a quotient the pivot divides
    stays an int.  A caller that reads only the pivot columns takes
    `pivot_columns`, which stops after the forward pass.
    """
    rows, cols, pivots = _echelon(m)
    for col, pr in reversed(pivots):
        prow = rows[pr]
        for r in [r for r in cols[col] if r != pr]:
            _eliminate(rows[r], prow, col, cols, r)
    ent = {}
    for i, (col, r) in enumerate(pivots):
        p = rows[r][col]
        for j, x in rows[r].items():
            ent[(i, j)] = x // p if x % p == 0 else Fraction(x, p)
    return ExactMatrix._of(m.rows, m.cols, ent), [col for col, _ in pivots]


def pivot_columns(m):
    """The pivot columns of `rref(m)`, in order, from the forward pass
    alone: column j is a pivot exactly when it is independent of the
    columns before it.  A zero matrix has none and is not eliminated."""
    return [col for col, _ in _echelon(m)[2]] if m.entries else []


def rank(m):
    """Exact rank: the number of pivot columns (see `pivot_columns`)."""
    return len(pivot_columns(m))


def kernel_basis(m):
    """Deterministic basis of ker(m), as the columns of a sparse matrix.

    Free columns are parametrized in increasing index order; basis column t
    belongs to the t-th free column f and has a 1 in row f.  That row has no
    other nonzero, so the basis is the identity on the free rows (see
    `unit_rows`).

    A zero matrix has every column free, so its basis is the identity,
    with no elimination.

    >>> m = ExactMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
    >>> kernel_basis(m).to_triples()
    [(0, 0, '-1/1'), (1, 0, '1/1')]
    """
    if not m.entries:
        return ExactMatrix.identity(m.cols)
    r, pivot_cols = rref(m)
    pivset = set(pivot_cols)
    free = {f: t for t, f in enumerate(f for f in range(m.cols)
                                       if f not in pivset)}
    ent = {(f, t): 1 for f, t in free.items()}
    # entry (i, f) of a pivot row is minus coordinate pivot_cols[i] of the
    # basis vector of the free column f
    for (i, f), v in r.entries.items():
        if f in free:
            ent[(pivot_cols[i], free[f])] = -v
    return ExactMatrix._of(m.cols, len(free), ent)


def unit_rows(m):
    """For each column j of m, a row whose only nonzero is a 1 at j, as a
    tuple indexed by column; None when some column has no such row.

    Such columns are independent, and a vector m y is y read at these rows:
    row units[j] of m y is y_j, so a vector in the span of m has its
    coordinates there, with no solve.  Every `kernel_basis` result has
    them, on its free rows.

    >>> unit_rows(ExactMatrix.from_rows([[1, 0], [2, 1], [0, 1]]))
    (0, 2)
    >>> unit_rows(ExactMatrix.from_rows([[1, 1], [0, 1]])) is None
    True
    """
    count = Counter(i for i, _j in m.entries)
    read = {}
    for (i, j), v in m.entries.items():
        if v == 1 and count[i] == 1:
            read.setdefault(j, i)
    if len(read) != m.cols:
        return None
    return tuple(read[j] for j in range(m.cols))


def solve_many(m, targets):
    """Matrix X with m * X == targets, or None if some column is inconsistent.

    One elimination of [m | targets]: a column lies in the span of m
    exactly when no pivot lands in the target block; free variables are
    set to zero, so X is read off the pivot rows, and the full product
    certifies it (CertificateError if it fails).  So every X returned
    satisfies m * X == targets exactly.

    >>> m = ExactMatrix.from_rows([[1, 1], [0, 0]])
    >>> solve_many(m, ExactMatrix.from_rows([[2, 3], [0, 0]])).to_triples()
    [(0, 0, '2/1'), (0, 1, '3/1')]
    >>> solve_many(m, ExactMatrix.from_rows([[0], [1]])) is None
    True
    >>> k = ExactMatrix.from_rows([[2], [1]])
    >>> solve_many(k, ExactMatrix.from_rows([[6], [3]])).to_triples()
    [(0, 0, '3/1')]
    """
    if targets.rows != m.rows:
        raise ValueError("targets of shape %r for a matrix of shape %r"
                         % (targets.shape, m.shape))
    r, pivot_cols = rref(m.stack_cols(targets))
    if pivot_cols and pivot_cols[-1] >= m.cols:
        return None
    # rows past the last pivot are zero, so only pivot rows carry entries
    x = ExactMatrix._of(m.cols, targets.cols,
                        {(pivot_cols[i], j - m.cols): v
                         for (i, j), v in r.entries.items() if j >= m.cols})
    if m * x != targets:
        raise CertificateError("solution read off the RREF fails m * X == "
                               "targets")
    return x


def solve(m, target):
    """One solution x of m x = target, or None if inconsistent.

    The one-column case of `solve_many`; free variables are set to zero.
    """
    if len(target) != m.rows:
        raise ValueError("target of length %d for %d rows"
                         % (len(target), m.rows))
    x = solve_many(m, ExactMatrix(m.rows, 1, {(i, 0): v
                                              for i, v in enumerate(target)}))
    return None if x is None else x.column(0)


def _axpy(y, x, c, a=1, cols=None, i=None):
    """y = a * y + c * x in place, on sparse dict vectors; zeros are dropped.

    With `cols`, a column -> rows index, y is row i and the index follows
    the entries that appear and vanish."""
    if a != 1:
        for k in y:
            y[k] *= a
    for k, xv in x.items():
        w = y.get(k, 0) + c * xv
        if w:
            if cols is not None and k not in y:
                cols[k].add(i)
            y[k] = w
        else:
            del y[k]
            if cols is not None:
                cols[k].discard(i)


def _primitive(y):
    """y divided in place by the gcd of its integer entries."""
    g = gcd(*y.values())
    if g > 1:
        for k in y:
            y[k] //= g
    return y


def _eliminate(y, x, col, cols, i):
    """Clear column `col` of the integer row y (row i of the index `cols`)
    with the pivot row x: y = (p/g) y - (f/g) x for p = x[col], f = y[col],
    g = gcd(p, f), then divided by its content.  Row scaling keeps the RREF;
    the per-row gcd replaces Bareiss's division by the previous pivot,
    which needs a fixed pivot order.  A pivot of +-1 needs neither: y - f p x
    is integral as it stands, so the row is not rescaled or divided."""
    p, f = x[col], y[col]
    if p == 1 or p == -1:
        _axpy(y, x, -f * p, 1, cols, i)
        return
    g = gcd(p, f)
    _axpy(y, x, -(f // g), p // g, cols, i)
    _primitive(y)


def _transpose(vecs, n):
    """Rows of a matrix given by its columns, or columns given its rows;
    `n` is the length of each vector in `vecs`."""
    out = [{} for _ in range(n)]
    for i, vec in enumerate(vecs):
        for j, x in vec.items():
            out[j][i] = x
    return out


def _mul_rows(x_rows, y_rows):
    """Rows of x * y from the rows of both factors, in exact arithmetic."""
    out = []
    for xr in x_rows:
        acc = {}
        for k, c in xr.items():
            for j, y in y_rows[k].items():
                acc[j] = acc.get(j, 0) + c * y
        out.append({j: s for j, s in acc.items() if s})
    return out


def _rows(m):
    """Row dicts of m, without zeros."""
    rows = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    return rows


def _int_rows(m):
    """Integer row dicts of m, each row scaled by the lcm of its
    denominators; the rows of an integral matrix are its own entries."""
    rows = _rows(m)
    for row in rows:
        den = lcm(*(v.denominator for v in row.values()))
        if den > 1:
            for j, v in row.items():
                row[j] = v.numerator * (den // v.denominator)
    return rows


def _matrix(nr, nc, int_rows):
    """ExactMatrix of shape (nr, nc) from integer row dicts without zeros."""
    return ExactMatrix._of(nr, nc, {(i, j): x for i, r in enumerate(int_rows)
                                    for j, x in r.items()})


def smith_normal_form(m):
    """Smith normal form with verified transforms.

    Returns (d, u, v, vinv) where u * m * v == d exactly, d is diagonal with
    divisibility d_1 | d_2 | ..., u and v are unimodular integer matrices, and
    vinv is the inverse of v.  Raises ValueError if m has a non-integer
    entry.  The call certifies its answer in exact integers: u * m * v is
    re-multiplied and must be the diagonal left, ones and then its
    `_invariant_factors`, and u * u^-1 == I and v * v^-1 == I must hold for
    the tracked inverses (an integer matrix with an integer inverse is
    unimodular).  A failed check raises CertificateError; it is a bug, not
    an input error.

    Plain dicts, kept simple (see the module docstring): the working copy
    `a` of m, u and vinv are rows, v and u^-1 columns, every operation is
    an `_axpy` and each pivot the smallest (|entry|, row, col) left.

    >>> d, u, v, vinv = smith_normal_form(ExactMatrix.from_rows([[1, 2], [3, 4]]))
    >>> [int(d.entry(i, i)) for i in range(2)]
    [1, 2]
    """
    if not m.is_integral():
        raise ValueError("smith_normal_form needs integer entries")
    nr, nc = m.rows, m.cols
    m_rows = _int_rows(m)
    a = [dict(r) for r in m_rows]
    u = [{i: 1} for i in range(nr)]
    uinv = [{i: 1} for i in range(nr)]
    v = [{j: 1} for j in range(nc)]
    vinv = [{j: 1} for j in range(nc)]

    def row_op(i1, i2, c):
        # row i1 += c * row i2 on a and u; column i2 -= c * column i1 of u^-1
        _axpy(a[i1], a[i2], c)
        _axpy(u[i1], u[i2], c)
        _axpy(uinv[i2], uinv[i1], -c)

    def col_op(j1, j2, c):
        # col j1 += c * col j2 on a and v; row j2 -= c * row j1 of v^-1
        for r in a:
            if j2 in r:
                _axpy(r, {j1: r[j2]}, c)
        _axpy(v[j1], v[j2], c)
        _axpy(vinv[j2], vinv[j1], -c)

    t = 0
    limit = min(nr, nc)
    while t < limit:
        best = min(((abs(x), i, j) for i in range(t, nr)
                    for j, x in a[i].items() if j >= t), default=None)
        if best is None:
            break
        _, bi, bj = best
        for vecs in (a, u, uinv):
            vecs[t], vecs[bi] = vecs[bi], vecs[t]
        if bj != t:
            for r in a:
                x1, x2 = r.pop(t, 0), r.pop(bj, 0)
                if x2:
                    r[t] = x2
                if x1:
                    r[bj] = x1
            for vecs in (v, vinv):
                vecs[t], vecs[bj] = vecs[bj], vecs[t]
        piv = a[t][t]
        # each op reads only row or column t, which it leaves alone, so the
        # order within a sweep does not change the result
        for i in range(t + 1, nr):
            q = a[i].get(t, 0) // piv
            if q:
                row_op(i, t, -q)
        for j in [j for j in a[t] if j > t]:
            q = a[t][j] // piv
            if q:
                col_op(j, t, -q)
        if len(a[t]) > 1 or any(t in a[i] for i in range(t + 1, nr)):
            continue
        # pivot must divide every remaining entry; if not, fold in the row
        # of the smallest (row, col) offender
        offender = next((i for i in range(t + 1, nr)
                         if any(j > t and x % piv for j, x in a[i].items())),
                        None)
        if offender is not None:
            row_op(t, offender, 1)
            continue
        if piv < 0:
            # its own inverse: negate row t of a and u and column t of u^-1
            for vecs in (a, u, uinv):
                vecs[t] = {k: -x for k, x in vecs[t].items()}
        t += 1

    diag = [a[i][i] for i in range(t)]
    v_rows = _transpose(v, nc)
    prod = _mul_rows(_mul_rows(u, m_rows), v_rows)
    if (prod != [{i: x} for i, x in enumerate(diag)] + [{}] * (nr - t)
            or _invariant_factors(diag) != tuple(diag[diag.count(1):])):
        raise CertificateError("SNF transform check failed")
    if _mul_rows(u, _transpose(uinv, nr)) != [{i: 1} for i in range(nr)]:
        raise CertificateError("SNF inverse check failed for u")
    if _mul_rows(v_rows, vinv) != [{j: 1} for j in range(nc)]:
        raise CertificateError("SNF inverse check failed for v")
    return (_matrix(nr, nc, prod), _matrix(nr, nr, u),
            _matrix(nc, nc, v_rows), _matrix(nc, nc, vinv))


def _invariant_factors(factors):
    """The invariant factors d_1 | d_2 | ... > 1 of the sum of the cyclic
    groups Z/n, n in `factors` (0 and +-1 add nothing).  The pairwise pass
    replaces d_i, d_j by gcd and lcm, which keeps the product and sorts
    every prime's exponents across the slots, so each slot divides the
    next."""
    d = [abs(int(n)) for n in factors if abs(int(n)) > 1]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(x for x in d if x > 1)


class FGAbelianGroup:
    """Finitely generated abelian group: free rank plus a divisibility chain.

    >>> FGAbelianGroup(1, (2, 6))
    FGAbelianGroup('Z + Z/2 + Z/6')
    >>> FGAbelianGroup(0, (4,)).tensor(FGAbelianGroup(0, (6,)))
    FGAbelianGroup('Z/2')
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank=0, torsion=()):
        if free_rank < 0:
            raise ValueError("negative free rank %d" % free_rank)
        tors = _invariant_factors(torsion)
        for a, b in zip(tors, tors[1:]):
            if b % a:
                raise ValueError("not a divisibility chain: %r" % (tors,))
        self.free_rank = free_rank
        self.torsion = tors

    @classmethod
    def zero(cls):
        return cls(0, ())

    @classmethod
    def free(cls, n):
        return cls(n, ())

    @classmethod
    def from_presentation(cls, relations):
        """Cokernel Z^rows / column span of `relations` (an integer matrix)."""
        if relations.cols == 0 or relations.is_zero():
            return cls(relations.rows, ())
        d, _, _, _ = smith_normal_form(relations)
        diag = [abs(int(d.entry(i, i))) for i in range(min(d.rows, d.cols))]
        diag = [x for x in diag if x]
        free = relations.rows - len(diag)
        return cls(free, tuple(x for x in diag if x > 1))

    def is_zero(self):
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, other):
        return FGAbelianGroup(self.free_rank + other.free_rank,
                              self.torsion + other.torsion)

    def tensor(self, other):
        factors = []
        # free x free
        rank_part = self.free_rank * other.free_rank
        # free x torsion, both ways
        for t in other.torsion:
            factors.extend([t] * self.free_rank)
        for t in self.torsion:
            factors.extend([t] * other.free_rank)
        # torsion x torsion
        for a in self.torsion:
            for b in other.torsion:
                g = gcd(a, b)
                if g > 1:
                    factors.append(g)
        return FGAbelianGroup(rank_part, tuple(factors))

    def tor(self, other):
        """Tor_1 with another group; free parts contribute nothing."""
        factors = []
        for a in self.torsion:
            for b in other.torsion:
                g = gcd(a, b)
                if g > 1:
                    factors.append(g)
        return FGAbelianGroup(0, tuple(factors))

    def __eq__(self, other):
        return (isinstance(other, FGAbelianGroup)
                and self.free_rank == other.free_rank
                and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def describe(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % t for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "FGAbelianGroup(%r)" % self.describe()


class CochainComplex:
    """Cochain complex over a contiguous degree range with exact differentials.

    `dims` maps each degree in [lo, hi] to a dimension (zero allowed);
    `diffs` maps degree k to the matrix of d^k with shape (dims[k+1], dims[k]).
    Missing differentials are zero.  d o d = 0 is checked at construction
    (`certify`) and raises CertificateError when it fails, also under
    python -O.  The builders of this package whose output squares to zero
    by how they build it (the total complexes of a sheaf, the stalks of a
    pushforward or a truncation) use `_of`, which skips that product.
    """

    __slots__ = ("lo", "hi", "dims", "diffs")

    @classmethod
    def _of(cls, dims, diffs=None):
        """Complex whose d o d = 0 holds by how its builder made it: the
        degrees and shapes are checked as in `__init__`, the product is
        not multiplied out."""
        out = cls.__new__(cls)
        out._set(dims, diffs)
        return out

    def __init__(self, dims, diffs=None):
        self._set(dims, diffs)
        self.certify()

    def _set(self, dims, diffs):
        if not dims:
            raise ValueError("empty complex needs an explicit degree range")
        degrees = sorted(dims)
        self.lo, self.hi = degrees[0], degrees[-1]
        if degrees != list(range(self.lo, self.hi + 1)):
            raise ValueError("degrees must be contiguous, got %r" % (degrees,))
        self.dims = {k: int(dims[k]) for k in degrees}
        self.diffs = {}
        for k, m in (diffs or {}).items():
            if m is None or m.is_zero():
                continue
            if not self.lo <= k < self.hi:
                raise ValueError("differential %d out of range %d..%d"
                                 % (k, self.lo, self.hi - 1))
            if m.shape != (self.dims[k + 1], self.dims[k]):
                raise ValueError("d^%d has shape %r, not (%d, %d)"
                                 % (k, m.shape, self.dims[k + 1], self.dims[k]))
            self.diffs[k] = m

    def certify(self):
        """Check d o d = 0 in every degree, on row dicts in exact
        arithmetic; CertificateError if it fails."""
        nxt = None
        for k in range(self.hi - 1, self.lo - 1, -1):
            d = self.diffs.get(k)
            rows = None if d is None else _rows(d)
            if rows and nxt and any(_mul_rows(nxt, rows)):
                raise CertificateError("d o d != 0 at degree %d" % k)
            nxt = rows

    def dim(self, k):
        return self.dims.get(k, 0)

    def diff(self, k):
        m = self.diffs.get(k)
        if m is None:
            return ExactMatrix.zeros(self.dim(k + 1), self.dim(k))
        return m

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def total_dimension(self):
        return sum(self.dims.values())

    def euler_characteristic(self):
        return sum((-1) ** k * d for k, d in self.dims.items())

    def reduction(self, matching=()):
        """The unit reduction of this complex (`UnitReduction`), made
        afresh on every call: a caller with several questions about one
        complex holds one reduction and asks it.  `matching` lists unit
        pairs to cancel first (see `_reduce_units`)."""
        return _reduce_units(self, matching)

    def betti_numbers(self):
        """Q-cohomology dimensions per degree (`UnitReduction.betti_numbers`)."""
        return _reduce_units(self).betti_numbers()

    def cohomology_basis(self, k):
        """Deterministic representatives of H^k over Q, as coordinate tuples
        (`UnitReduction.cohomology_basis`)."""
        return _reduce_units(self).cohomology_basis(k)

    def cohomology_groups(self):
        """Integral cohomology per degree as FGAbelianGroup
        (`UnitReduction.cohomology_groups`)."""
        return _reduce_units(self).cohomology_groups()

    def __repr__(self):
        spans = ", ".join("%d:%d" % (k, self.dims[k]) for k in self.degrees())
        return "CochainComplex(%s)" % spans


class UnitReduction:
    """A cochain complex with its unit reduction (`_reduce_units`), which
    answers every cohomology question about it: Betti numbers, integral
    groups and bases.  Build it through `CochainComplex.reduction`.

    `complex` is the input and `remainder` the complex left: `index[k]`
    maps each cell of C^k that is left to its place in the remainder, in
    increasing order of both.  `steps` lists the cancellations in the
    order made, handed-over pairs first, as (k, s, p, row): cell s of C^k
    went against a cell t of C^(k+1) through the unit p = row[s], where
    row is row t of d^k at that moment.  `_cancel` replaces row t with a
    new dict, and nothing writes to the old one again, so row is kept as
    it is, not copied.

    The lifted basis of each degree (`_lifts`) is computed once, on first
    use, and kept in `_kept` for the reduction's life, so every reader of
    one reduction (each pairing context on one result) shares it.
    """

    __slots__ = ("complex", "remainder", "index", "steps", "_kept")

    def __init__(self, cx, remainder, index, steps):
        self.complex = cx
        self.remainder = remainder
        self.index = index
        self.steps = steps
        self._kept = {}     # degree -> the lifts of `_lifts`

    def betti_numbers(self):
        """Q-cohomology dimensions per degree, read off the remainder by
        rank-nullity: dim = rank d_k + dim ker d_k, and b_k = dim ker d_k -
        rank d_{k-1}.  `rank` sees only the remainder's differentials,
        which hold no +-1.
        """
        red = self.remainder
        rks = {k: rank(red.diff(k)) for k in range(red.lo, red.hi)}
        out = {}
        for k in red.degrees():
            out[k] = red.dim(k) - rks.get(k, 0) - rks.get(k - 1, 0)
            if out[k] < 0:
                raise CertificateError(
                    "negative Betti number %d in degree %d: the ranks exceed "
                    "the cochain dimension" % (out[k], k))
        return out

    def cohomology_basis(self, k):
        """Deterministic representatives of H^k over Q, as coordinate
        tuples of `complex`: the lifts of `lifts`, written out densely as
        new tuples on every call."""
        n = self.complex.dim(k)
        out = []
        for x in self.lifts(k):
            vec = [Fraction(0)] * n
            for i, v in x.items():
                vec[i] = Fraction(v)
            out.append(tuple(vec))
        return out

    def lifts(self, k):
        """The cohomology basis of degree k, each vector sparse as
        {coordinate of `complex`: nonzero value}: `_lifts(k)`, run on the
        first call for k and kept.  Callers read the list and its dicts and
        never write to them."""
        out = self._kept.get(k)
        if out is None:
            out = self._kept[k] = self._lifts(k)
        return out

    def _lifts(self, k):
        """The cohomology basis of degree k, each vector sparse as
        {coordinate of `complex`: nonzero value}; read it through `lifts`,
        which keeps it.

        First a basis of the remainder's H^k: the kernel basis vectors of
        its d^k that extend a basis of its image, taken greedily in
        kernel-basis order (the pivot columns of [d^(k-1) | ker] in the
        kernel block, from the forward pass `pivot_columns`; every kernel
        column when d^(k-1) is zero).  Then each is lifted through the
        cancellations of degree k, in reverse order: x_s = -p (row . x),
        which zeroes (d x)_t and leaves every other entry of d x as the
        remainder's; cells cancelled as the upper cell t of a step stay 0.
        This is the chain inclusion of the reduction, so the lifts are a
        basis of H^k (Kaczynski, Mischaikow and Mrozek, "Computational
        Homology", 2004).  One exact product d^k X == 0 over the lifts X
        certifies them (CertificateError, also under `python -O`).

        The basis depends on the order in which `_reduce_units` picks its
        pivots: a matching handed over to it (an `ic.ICResult`'s) is
        cancelled first, so its pairs and their order move the printed
        pairing matrices of a truncation's result.
        """
        red = self.remainder
        ker = kernel_basis(red.diff(k))
        img = red.diff(k - 1)
        picked = range(ker.cols) if img.is_zero() else [
            j - img.cols for j in pivot_columns(img.stack_cols(ker))
            if j >= img.cols]
        cells = list(self.index.get(k, ()))
        vecs = [{} for _ in range(ker.cols)]
        for (i, j), v in ker.entries.items():
            vecs[j][cells[i]] = v
        mine = [(s, p, row) for deg, s, p, row in reversed(self.steps)
                if deg == k]
        lifts = []
        for j in picked:
            x = vecs[j]
            for s, p, row in mine:
                v = sum(c * x[i] for i, c in row.items() if i in x)
                if v:
                    x[s] = -p * v
            lifts.append(x)
        n = self.complex.dim(k)
        if any(_mul_rows(_rows(self.complex.diff(k)), _transpose(lifts, n))):
            raise CertificateError(
                "a lifted class of degree %d is not a cocycle" % k)
        return lifts

    def cohomology_groups(self):
        """Integral cohomology per degree as FGAbelianGroup.

        Requires integer differentials (ValueError).  The groups are read
        off the remainder, which has the same cohomology over Z and whose
        differentials hold no +-1.  There ker d^k is a direct summand of
        C^k (C^k / ker d^k embeds in the free group C^{k+1}), so
        C^k / im d^{k-1} = H^k + Z^{rank d^k}: one Smith form of d^{k-1}
        gives the cokernel, whose free rank loses rank d^k.  The Smith form
        of d^k, taken once for degree k + 1, gives that rank too, as
        dim C^{k+1} minus the free rank of its cokernel.  A zero remainder
        differential needs no Smith form at all.
        """
        if not all(m.is_integral() for m in self.complex.diffs.values()):
            raise ValueError("cohomology_groups needs integer differentials")
        red = self.remainder
        out = {}
        coker = FGAbelianGroup.free(red.dim(red.lo))    # C^lo / 0
        for k in red.degrees():
            nxt = FGAbelianGroup.from_presentation(red.diff(k))
            rank_a = red.dim(k + 1) - nxt.free_rank
            out[k] = FGAbelianGroup(coker.free_rank - rank_a, coker.torsion)
            coker = nxt
        return out


def _cancel(rows, cols, k, t, s):
    """Cancel cell s of C^k against cell t of C^{k+1}, joined by the unit
    p = d^k[t, s], in the row dicts `rows` and column index `cols` of
    `_reduce_units`.  d^k takes the rank-one Schur update
    d^k[r, c] -= d^k[r, s] * p * d^k[t, c] (1/p = p) and loses row t and
    column s, d^{k-1} loses row s and d^{k+1} loses column t.  Returns the
    rows of d^k the update changed.  Raises CertificateError when p is not
    +-1, also for a pair handed to `_reduce_units` that is not joined.

    The update is `_axpy`'s, written out: entries that appear are indexed,
    entries that vanish are dropped, and column s vanishes from every
    touched row."""
    rk, ck = rows[k], cols[k]
    prow = rk[t]
    p = prow.get(s, 0)
    if p * p != 1:
        raise CertificateError("cancelled coefficient %r is not a unit" % (p,))
    touched = [r for r in ck[s] if r != t]
    pitems = prow.items()
    for r in touched:
        row = rk[r]
        f = -row[s] * p
        get = row.get
        for c, x in pitems:
            v = get(c)
            if v is None:
                row[c] = f * x
                ck[c].add(r)
            else:
                v += f * x
                if v:
                    row[c] = v
                else:
                    del row[c]
                    ck[c].discard(r)
    for c in prow:
        ck[c].discard(t)
    rk[t] = {}
    if k - 1 in rows:
        below = cols[k - 1]
        for c in rows[k - 1][s]:
            below[c].discard(s)
        rows[k - 1][s] = {}
    if k + 1 in rows:
        above = rows[k + 1]
        for r in cols[k + 1][t]:
            del above[r][t]
        cols[k + 1][t] = set()
    return touched


def _reduce_units(cx, matching=()):
    """The `UnitReduction` of cx: cancel every pair of cells joined by a
    unit incidence (see `_cancel`), the elementary reduction of Kaczynski,
    Mischaikow and Mrozek ("Computational Homology", 2004), and record
    each cancellation.  Each pair splits off a summand Z s -+1-> Z t, so
    the remainder has the same cohomology over Z, and its differentials
    hold no +-1.

    `matching` lists pairs (k, s, t) known in advance to be joined by
    units, cell s of C^k against cell t of C^(k+1): an `ic.ICResult`
    hands over the cone matching its truncation recorded, cofaces first.
    They are cancelled first, in the order given, each through `_cancel`,
    which re-checks its unit (CertificateError, also under `python -O`),
    and recorded as the first `steps`.  A matching that is acyclic keeps
    every later coefficient it names as it was (Skoldberg, "Morse theory
    from an algebraic viewpoint", Trans. AMS 2006), and its order only
    sets the fill-in.  Then the rest is searched: pivots are picked to
    limit fill-in, the sparsest row with a unit, then its unit column with
    the fewest entries.  The remainder of a complex with a differential is
    a new `CochainComplex`, so d o d = 0 is re-checked on it in exact
    arithmetic and raises CertificateError when it fails.  A complex with
    no differential has nothing to cancel and nothing to re-check: it is
    its own remainder, with the identity `index` and no `steps`.
    """
    if not (cx.diffs or matching):
        return UnitReduction(cx, cx, {k: dict(enumerate(range(n)))
                                      for k, n in cx.dims.items()}, [])
    # rows[k][t]: row t of d^k; cols[k][s]: the rows with a nonzero at s
    rows, cols = {}, {}
    dims = cx.dims
    for k in range(cx.lo, cx.hi):
        rk = rows[k] = [{} for _ in range(dims[k + 1])]
        ck = cols[k] = [set() for _ in range(dims[k])]
        if k in cx.diffs:
            for (i, j), v in cx.diffs[k].entries.items():
                rk[i][j] = v
                ck[j].add(i)
    alive = {k: [True] * n for k, n in dims.items()}
    steps = []
    for k, s, t in matching:
        prow = rows[k][t]
        _cancel(rows, cols, k, t, s)
        steps.append((k, s, prow[s], prow))
        alive[k][s] = alive[k + 1][t] = False
    # one (length, degree, row) entry per queued row.  A row popped under a
    # stale length goes back under its own; a row popped without a unit
    # leaves the queue until an update changes it; a cancelled cell's row
    # is empty and drops out.
    heap = [(len(row), k, t) for k in rows for t, row in enumerate(rows[k])
            if row]
    heapq.heapify(heap)
    queued = {k: [bool(row) for row in rows[k]] for k in rows}
    while heap:
        n, k, t = heapq.heappop(heap)
        prow = rows[k][t]
        if prow and len(prow) != n:
            heapq.heappush(heap, (len(prow), k, t))
            continue
        queued[k][t] = False
        best = None
        for s, x in prow.items():
            if x == 1 or x == -1:
                key = (len(cols[k][s]), s)
                if best is None or key < best:
                    best = key
        if best is None:
            continue
        s = best[1]
        steps.append((k, s, prow[s], prow))
        for r in _cancel(rows, cols, k, t, s):
            if not queued[k][r]:
                queued[k][r] = True
                heapq.heappush(heap, (len(rows[k][r]), k, r))
        alive[k][s] = alive[k + 1][t] = False
    index = {k: {old: new for new, old in
                 enumerate(i for i, a in enumerate(live) if a)}
             for k, live in alive.items()}
    diffs = {}
    for k, drows in rows.items():
        src, dst = index[k], index[k + 1]
        ent = {(dst[t], src[s]): x for t, row in enumerate(drows)
               for s, x in row.items()}
        if ent:
            diffs[k] = ExactMatrix(len(dst), len(src), ent)
    remainder = CochainComplex({k: len(ix) for k, ix in index.items()}, diffs)
    return UnitReduction(cx, remainder, index, steps)
