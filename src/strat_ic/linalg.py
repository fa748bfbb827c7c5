"""Exact sparse linear algebra over Q and Z.

Everything in this package reduces to the primitives in this module: ranks and
kernels of sparse rational matrices, Smith normal forms with verified
unimodular transforms, finitely generated abelian groups in invariant-factor
form, and cochain complexes with exact differentials.  No floats anywhere;
rational entries are `fractions.Fraction`, integer entries plain `int`.

Matrices act on column vectors: a matrix with shape (rows, cols) sends Q^cols
to Q^rows.  A differential d^k of a cochain complex is stored as the matrix of
shape (dim^{k+1}, dim^k).

Row elimination happens in exactly three routines:

- `rref` (over Q, pivots in column order) answers every span query:
  `kernel_basis`, `solve` and `solve_many` (one elimination of
  [m | targets]), and `CochainComplex.cohomology_basis` (pivot columns of
  [image | kernel vectors]).  RREF is unique, so every basis it picks is
  deterministic.
- `rank` (over Q, sparsest pivots first) gives the rank alone; it drives
  `CochainComplex.betti_numbers` and independence checks.
- `smith_normal_form` (over Z) drives integral cohomology and
  presentations.  It tracks u^-1 and v^-1 next to u and v and certifies
  u * m * v == d, u * u^-1 == I and v * v^-1 == I in exact integers; an
  integer matrix with an integer inverse is unimodular.  A failed check
  raises `CertificateError`, also under `python -O`.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

__all__ = [
    "CertificateError",
    "ExactMatrix",
    "FGAbelianGroup",
    "CochainComplex",
    "rank",
    "rref",
    "kernel_basis",
    "solve",
    "solve_many",
    "smith_normal_form",
    "tensor_complex",
    "tor1",
]


class CertificateError(Exception):
    """An exact re-check of a computed result failed: a bug, not bad input."""


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("exact entries must be int, Fraction, or 'num/den' string, got %r" % (x,))


class ExactMatrix:
    """Sparse matrix with Fraction entries, nonzero entries only.

    >>> m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    >>> m.shape
    (2, 2)
    >>> (m * m).entry(0, 0)
    Fraction(7, 1)
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        assert rows >= 0 and cols >= 0
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                v = _frac(v)
                if v:
                    assert 0 <= i < rows and 0 <= j < cols, (i, j, rows, cols)
                    self.entries[(i, j)] = v

    @classmethod
    def from_rows(cls, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        ent = {}
        for i, row in enumerate(data):
            assert len(row) == cols, "ragged rows"
            for j, v in enumerate(row):
                v = _frac(v)
                if v:
                    ent[(i, j)] = v
        return cls(rows, cols, ent)

    @classmethod
    def from_columns(cls, rows, vecs):
        """Matrix whose columns are `vecs`, each of length `rows`."""
        ent = {}
        for j, vec in enumerate(vecs):
            assert len(vec) == rows, "column %d has length %d, not %d" % (
                j, len(vec), rows)
            for i, v in enumerate(vec):
                ent[(i, j)] = v
        return cls(rows, len(vecs), ent)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i, j):
        return self.entries.get((i, j), Fraction(0))

    def is_zero(self):
        return not self.entries

    def is_integral(self):
        return all(v.denominator == 1 for v in self.entries.values())

    def transpose(self):
        return ExactMatrix(self.cols, self.rows,
                           {(j, i): v for (i, j), v in self.entries.items()})

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.shape == other.shape
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.entries.items()))))

    def __add__(self, other):
        assert self.shape == other.shape
        ent = dict(self.entries)
        for k, v in other.entries.items():
            w = ent.get(k, Fraction(0)) + v
            if w:
                ent[k] = w
            elif k in ent:
                del ent[k]
        return ExactMatrix(self.rows, self.cols, ent)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = _frac(c)
        if not c:
            return ExactMatrix.zeros(self.rows, self.cols)
        return ExactMatrix(self.rows, self.cols,
                           {k: c * v for k, v in self.entries.items()})

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            assert self.cols == other.rows, (self.shape, other.shape)
            # group left entries by column to walk the sparse product once
            by_col = {}
            for (i, j), v in self.entries.items():
                by_col.setdefault(j, []).append((i, v))
            ent = {}
            for (j, k), w in other.entries.items():
                for i, v in by_col.get(j, ()):
                    key = (i, k)
                    s = ent.get(key, Fraction(0)) + v * w
                    if s:
                        ent[key] = s
                    elif key in ent:
                        del ent[key]
            return ExactMatrix(self.rows, other.cols, ent)
        return self.scale(other)

    def apply(self, vec):
        """Multiply against a column vector given as a sequence; returns a tuple."""
        assert len(vec) == self.cols
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
        assert self.rows == other.rows
        ent = dict(self.entries)
        for (i, j), v in other.entries.items():
            ent[(i, j + self.cols)] = v
        return ExactMatrix(self.rows, self.cols + other.cols, ent)

    def submatrix_cols(self, col_indices):
        ent = {}
        for new_j, j in enumerate(col_indices):
            for i in range(self.rows):
                v = self.entries.get((i, j))
                if v:
                    ent[(i, new_j)] = v
        return ExactMatrix(self.rows, len(col_indices), ent)

    def to_triples(self):
        """Sorted (row, col, "num/den") triples, the canonical dump format."""
        out = []
        for (i, j) in sorted(self.entries):
            v = self.entries[(i, j)]
            out.append((i, j, "%d/%d" % (v.numerator, v.denominator)))
        return out

    def __repr__(self):
        return "ExactMatrix(%d, %d, nnz=%d)" % (self.rows, self.cols, len(self.entries))


def _rows_of(m):
    rows = [dict() for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    return rows


def rref(m):
    """Reduced row echelon form with pivots chosen in column order.

    Returns (R, pivot_cols) where R is the RREF of m and pivot_cols the sorted
    pivot column indices.  The pivot in each column is the first available row,
    which makes every downstream basis choice deterministic.
    """
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


def rank(m):
    """Exact rank.  Pivots on the sparsest row, then the sparsest column in
    it, to limit fill-in; ties go to the lower index.  The answer does not
    depend on the pivot order, only the speed."""
    rows = {}
    col_rows = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[j] = v
        col_rows.setdefault(j, set()).add(i)
    # (length, row) for every live row; a row whose length changes is pushed
    # again, and entries that no longer match their row are skipped
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


def kernel_basis(m):
    """Deterministic basis of ker(m) as column vectors (tuples of Fractions).

    Free columns are parametrized in increasing index order; each basis vector
    has a 1 in its free coordinate.

    >>> m = ExactMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
    >>> kernel_basis(m)
    [(Fraction(-1, 1), Fraction(1, 1), Fraction(0, 1))]
    """
    r, pivot_cols = rref(m)
    pivset = set(pivot_cols)
    free = [j for j in range(m.cols) if j not in pivset]
    basis = []
    for f in free:
        vec = [Fraction(0)] * m.cols
        vec[f] = Fraction(1)
        for pi, pc in enumerate(pivot_cols):
            v = r.entry(pi, f)
            if v:
                vec[pc] = -v
        basis.append(tuple(vec))
    return basis


def solve_many(m, targets):
    """Matrix X with m * X == targets, or None if some column is inconsistent.

    One elimination of [m | targets]: a target column lies in the column span
    of m exactly when no pivot lands in the target block.  Deterministic: free
    variables are set to zero, so X is read off the pivot rows.

    >>> m = ExactMatrix.from_rows([[1, 1], [0, 0]])
    >>> solve_many(m, ExactMatrix.from_rows([[2, 3], [0, 0]])).to_triples()
    [(0, 0, '2/1'), (0, 1, '3/1')]
    >>> solve_many(m, ExactMatrix.from_rows([[0], [1]])) is None
    True
    """
    assert targets.rows == m.rows, (m.shape, targets.shape)
    r, pivot_cols = rref(m.stack_cols(targets))
    if pivot_cols and pivot_cols[-1] >= m.cols:
        return None
    # rows past the last pivot are zero, so only pivot rows carry entries
    ent = {(pivot_cols[i], j - m.cols): v
           for (i, j), v in r.entries.items() if j >= m.cols}
    return ExactMatrix(m.cols, targets.cols, ent)


def solve(m, target):
    """One solution x of m x = target, or None if inconsistent.

    The one-column case of `solve_many`; free variables are set to zero.
    """
    assert len(target) == m.rows
    x = solve_many(m, ExactMatrix.from_columns(m.rows, [target]))
    return None if x is None else x.column(0)


def _axpy(y, x, c):
    """y += c * x in place, on sparse dict vectors; zeros are dropped."""
    for k, xv in x.items():
        w = y.get(k, 0) + c * xv
        if w:
            y[k] = w
        else:
            del y[k]


def _transpose(vecs, n):
    """Rows of a matrix given by its columns, or columns given its rows;
    `n` is the length of each vector in `vecs`."""
    out = [{} for _ in range(n)]
    for i, vec in enumerate(vecs):
        for j, x in vec.items():
            out[j][i] = x
    return out


def _mul_rows(x_rows, y_rows):
    """Rows of x * y from the rows of both factors, in exact ints."""
    out = []
    for xr in x_rows:
        acc = {}
        for k, c in xr.items():
            for j, y in y_rows[k].items():
                acc[j] = acc.get(j, 0) + c * y
        out.append({j: s for j, s in acc.items() if s})
    return out


def _int_rows(m):
    """Integer row dicts of an integral ExactMatrix."""
    rows = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = int(v)
    return rows


def _matrix(nr, nc, int_rows):
    """ExactMatrix of shape (nr, nc) from integer row dicts."""
    return ExactMatrix(nr, nc, {(i, j): Fraction(x)
                                for i, r in enumerate(int_rows)
                                for j, x in r.items()})


def smith_normal_form(m):
    """Smith normal form with verified transforms.

    Returns (d, u, v, vinv) where u * m * v == d exactly, d is diagonal with
    divisibility d_1 | d_2 | ..., u and v are unimodular integer matrices, and
    vinv is the inverse of v.  Raises ValueError if m has a non-integer
    entry.  The call certifies its answer in exact integers: u * m * v is
    re-multiplied and must be diagonal with the invariant factors, and
    u * u^-1 == I and v * v^-1 == I must hold for the tracked inverses (an
    integer matrix with an integer inverse is unimodular).  A failed check
    raises CertificateError; it is a bug, not an input error.

    Only nonzeros are touched: the working copy `a` of m is kept as row
    dicts plus a column -> rows index, u and vinv as rows, v and u^-1 as
    columns.

    >>> d, u, v, vinv = smith_normal_form(ExactMatrix.from_rows([[1, 2], [3, 4]]))
    >>> [int(d.entry(i, i)) for i in range(2)]
    [1, 2]
    """
    if not m.is_integral():
        raise ValueError("smith_normal_form needs integer entries")
    nr, nc = m.rows, m.cols
    m_rows = _int_rows(m)
    a = [dict(r) for r in m_rows]          # rows of the working copy
    a_cols = [set() for _ in range(nc)]    # column -> rows with a nonzero
    for i, j in m.entries:
        a_cols[j].add(i)

    u = [{i: 1} for i in range(nr)]
    uinv = [{i: 1} for i in range(nr)]
    v = [{j: 1} for j in range(nc)]
    vinv = [{j: 1} for j in range(nc)]

    def row_op(i1, i2, c):
        # row i1 += c * row i2 on a and u; column i2 -= c * column i1 of u^-1
        r1 = a[i1]
        for j, x in a[i2].items():
            w = r1.get(j, 0) + c * x
            if w:
                if j not in r1:
                    a_cols[j].add(i1)
                r1[j] = w
            else:
                del r1[j]
                a_cols[j].discard(i1)
        _axpy(u[i1], u[i2], c)
        _axpy(uinv[i2], uinv[i1], -c)

    def col_op(j1, j2, c):
        # col j1 += c * col j2 on a and v; row j2 -= c * row j1 of v^-1
        for i in a_cols[j2]:
            r = a[i]
            w = r.get(j1, 0) + c * r[j2]
            if w:
                if j1 not in r:
                    a_cols[j1].add(i)
                r[j1] = w
            else:
                del r[j1]
                a_cols[j1].discard(i)
        _axpy(v[j1], v[j2], c)
        _axpy(vinv[j2], vinv[j1], -c)

    def row_swap(i1, i2):
        r1, r2 = a[i1], a[i2]
        for j in r1:
            a_cols[j].discard(i1)
        for j in r2:
            a_cols[j].discard(i2)
        for j in r1:
            a_cols[j].add(i2)
        for j in r2:
            a_cols[j].add(i1)
        a[i1], a[i2] = r2, r1
        u[i1], u[i2] = u[i2], u[i1]
        uinv[i1], uinv[i2] = uinv[i2], uinv[i1]

    def col_swap(j1, j2):
        for i in a_cols[j1] | a_cols[j2]:
            r = a[i]
            x1, x2 = r.pop(j1, 0), r.pop(j2, 0)
            if x2:
                r[j1] = x2
            if x1:
                r[j2] = x1
        a_cols[j1], a_cols[j2] = a_cols[j2], a_cols[j1]
        v[j1], v[j2] = v[j2], v[j1]
        vinv[j1], vinv[j2] = vinv[j2], vinv[j1]

    def negate_row(t):
        # its own inverse: negate row t of a and u and column t of u^-1
        for vecs in (a, u, uinv):
            vecs[t] = {k: -x for k, x in vecs[t].items()}

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # smallest nonzero entry in the remaining block, ties by (row, col)
        best = None
        for i in range(t, nr):
            for j, val in a[i].items():
                if j >= t:
                    key = (abs(val), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        piv = a[t][t]
        # each op reads only row or column t, which it leaves alone, so the
        # order within a sweep does not change the result
        for i in [i for i in a_cols[t] if i > t]:
            q = a[i][t] // piv
            if q:
                row_op(i, t, -q)
        for j in [j for j in a[t] if j > t]:
            q = a[t][j] // piv
            if q:
                col_op(j, t, -q)
        if len(a_cols[t]) > 1 or len(a[t]) > 1:
            continue
        # pivot must divide every remaining entry; if not, fold in the row
        # of the smallest (row, col) offender
        offender = next((i for i in range(t + 1, nr)
                         if any(j > t and val % piv
                                for j, val in a[i].items())), None)
        if offender is not None:
            row_op(t, offender, 1)
            continue
        if piv < 0:
            negate_row(t)
        t += 1

    # sort diagonal ascending; entries already divide each other pairwise
    diag = [a[i][i] for i in range(limit) if a[i].get(i)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            l = diag[i] * diag[j] // g
            diag[i], diag[j] = g, l

    v_rows = _transpose(v, nc)
    prod = _mul_rows(_mul_rows(u, m_rows), v_rows)
    # the diagonal sort above re-derives invariant factors; compare the
    # transform product's diagonal against it as a multiset
    got = sorted(abs(x) for r in prod for x in r.values())
    if (got != sorted(abs(x) for x in diag)
            or any(j != i for i, r in enumerate(prod) for j in r)):
        raise CertificateError("SNF transform check failed")
    if _mul_rows(u, _transpose(uinv, nr)) != [{i: 1} for i in range(nr)]:
        raise CertificateError("SNF inverse check failed for u")
    if _mul_rows(v_rows, vinv) != [{j: 1} for j in range(nc)]:
        raise CertificateError("SNF inverse check failed for v")
    # prod is diagonal with the same multiset; return it as d so that
    # u * m * v == d holds literally
    return (_matrix(nr, nc, prod), _matrix(nr, nr, u),
            _matrix(nc, nc, v_rows), _matrix(nc, nc, vinv))


def _normalize_torsion(factors):
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


class FGAbelianGroup:
    """Finitely generated abelian group: free rank plus a divisibility chain.

    >>> FGAbelianGroup(1, (2, 6))
    FGAbelianGroup('Z + Z/2 + Z/6')
    >>> FGAbelianGroup(0, (4,)).tensor(FGAbelianGroup(0, (6,)))
    FGAbelianGroup('Z/2')
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank=0, torsion=()):
        assert free_rank >= 0
        tors = _normalize_torsion(torsion)
        for a, b in zip(tors, tors[1:]):
            assert b % a == 0, "not a divisibility chain: %r" % (tors,)
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

    def order(self):
        """Order of the torsion part (None when the group is infinite)."""
        if self.free_rank:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

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

    def to_json(self):
        return {"rank": self.free_rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, obj):
        return cls(int(obj.get("rank", 0)), tuple(obj.get("torsion", ())))

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


def tor1(a, b):
    """Tor_1 of two finitely generated abelian groups.

    >>> tor1(FGAbelianGroup(0, (4,)), FGAbelianGroup(0, (6,)))
    FGAbelianGroup('Z/2')
    """
    return a.tor(b)


class CochainComplex:
    """Cochain complex over a contiguous degree range with exact differentials.

    `dims` maps each degree in [lo, hi] to a dimension (zero allowed);
    `diffs` maps degree k to the matrix of d^k with shape (dims[k+1], dims[k]).
    Missing differentials are zero.  d o d = 0 is checked at construction.
    """

    __slots__ = ("lo", "hi", "dims", "diffs")

    def __init__(self, dims, diffs=None, check=True):
        assert dims, "empty complex needs an explicit degree range"
        degrees = sorted(dims)
        self.lo, self.hi = degrees[0], degrees[-1]
        assert degrees == list(range(self.lo, self.hi + 1)), "degrees must be contiguous"
        self.dims = {k: int(dims[k]) for k in degrees}
        self.diffs = {}
        diffs = diffs or {}
        for k, m in diffs.items():
            if m is None or m.is_zero():
                continue
            assert self.lo <= k < self.hi, "differential %d out of range" % k
            assert m.shape == (self.dims[k + 1], self.dims[k]), \
                (k, m.shape, self.dims[k + 1], self.dims[k])
            self.diffs[k] = m
        if check:
            for k in self.diffs:
                nxt = self.diffs.get(k + 1)
                if nxt is not None:
                    assert (nxt * self.diffs[k]).is_zero(), "d o d != 0 at degree %d" % k

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

    def betti_numbers(self):
        """Q-cohomology dimensions per degree.

        rank-nullity per degree: dim = rank d_k + dim ker d_k, and
        b_k = dim ker d_k - rank d_{k-1}.
        """
        rks = {k: rank(self.diff(k)) for k in range(self.lo, self.hi)}
        out = {}
        for k in self.degrees():
            out[k] = self.dim(k) - rks.get(k, 0) - rks.get(k - 1, 0)
            assert out[k] >= 0
        return out

    def cohomology_basis(self, k):
        """Deterministic representatives of H^k over Q, as coordinate tuples.

        Representatives are kernel basis vectors that extend a basis of the
        image, taken greedily in kernel-basis order.
        """
        ker = kernel_basis(self.diff(k))
        img = self.diff(k - 1)
        # a pivot column of [img | ker] is independent of the columns before it
        both = img.stack_cols(ExactMatrix.from_columns(img.rows, ker))
        _, pivot_cols = rref(both)
        return [ker[j - img.cols] for j in pivot_cols if j >= img.cols]

    def cohomology_groups(self):
        """Integral cohomology per degree as FGAbelianGroup.

        Requires integer differentials.  ker d^k is a direct summand of C^k
        (C^k / ker d^k embeds in the free group C^{k+1}), so
        C^k / im d^{k-1} = H^k + Z^{rank d^k}: one Smith form of d^{k-1}
        gives the cokernel, whose free rank loses rank d^k.  The inclusion
        im d^{k-1} in ker d^k, that is d^k d^{k-1} = 0, is re-checked in
        exact integers and raises CertificateError when it fails.
        """
        out = {}
        for k in self.degrees():
            a = self.diff(k)          # C^k -> C^{k+1}
            b = self.diff(k - 1)      # C^{k-1} -> C^k
            if not (a.is_integral() and b.is_integral()):
                raise ValueError("cohomology_groups needs integer "
                                 "differentials")
            if any(_mul_rows(_int_rows(a), _int_rows(b))):
                raise CertificateError(
                    "image not contained in kernel at degree %d" % k)
            coker = FGAbelianGroup.from_presentation(b)
            out[k] = FGAbelianGroup(coker.free_rank - rank(a), coker.torsion)
        return out

    def shifted(self, s):
        """Same complex with degrees shifted up by s (no sign changes)."""
        dims = {k + s: v for k, v in self.dims.items()}
        diffs = {k + s: m for k, m in self.diffs.items()}
        return CochainComplex(dims, diffs, check=False)

    def __repr__(self):
        spans = ", ".join("%d:%d" % (k, self.dims[k]) for k in self.degrees())
        return "CochainComplex(%s)" % spans


def tensor_complex(x, y):
    """Total complex of the tensor product of two cochain complexes.

    Basis of degree n: pairs (p, q) with p + q = n in increasing p, and within
    a pair the index is i * dim_Y^q + j.  The differential follows the Koszul
    rule d(a (x) b) = da (x) b + (-1)^p a (x) db.
    Returns (complex, layout) where layout maps n to the list of
    (p, q, offset) blocks.
    """
    dims = {}
    layout = {}
    lo = x.lo + y.lo
    hi = x.hi + y.hi
    for n in range(lo, hi + 1):
        blocks = []
        off = 0
        for p in range(x.lo, x.hi + 1):
            q = n - p
            if q < y.lo or q > y.hi:
                continue
            sz = x.dim(p) * y.dim(q)
            if sz:
                blocks.append((p, q, off))
                off += sz
        dims[n] = off
        layout[n] = blocks

    def offset_of(n, p):
        for (pp, qq, off) in layout[n]:
            if pp == p:
                return off
        return None

    diffs = {}
    for n in range(lo, hi):
        ent = {}
        for (p, q, off) in layout[n]:
            dx = x.diffs.get(p)
            if dx is not None:
                off2 = offset_of(n + 1, p + 1)
                if off2 is not None:
                    dy_dim = y.dim(q)
                    for (i2, i1), val in dx.entries.items():
                        for j in range(dy_dim):
                            ent[(off2 + i2 * dy_dim + j, off + i1 * dy_dim + j)] = val
            dy = y.diffs.get(q)
            if dy is not None:
                off2 = offset_of(n + 1, p)
                if off2 is not None:
                    sign = Fraction(-1 if p % 2 else 1)
                    dyd = y.dim(q + 1)
                    dyq = y.dim(q)
                    for (j2, j1), val in dy.entries.items():
                        for i in range(x.dim(p)):
                            key = (off2 + i * dyd + j2, off + i * dyq + j1)
                            ent[key] = ent.get(key, Fraction(0)) + sign * val
        m = ExactMatrix(dims[n + 1], dims[n], ent)
        if not m.is_zero():
            diffs[n] = m
    return CochainComplex(dims, diffs), layout
