"""Pairings, orientation classes, and product decompositions.

Everything here evaluates against a fundamental cocycle: orient the top
cells coherently, then pair cohomology classes through the front-face /
back-face product summed over oriented top cells.  The same evaluation
drives Poincare pairings on closed spaces, the refined pairings on
intersection sheaves, Kunneth comparisons, and intersection numbers.
"""

from fractions import Fraction

from .linalg import (CertificateError, ExactMatrix, FGAbelianGroup, rank,
                     solve)
from . import spaces
from . import sheaves


class DualityError(Exception):
    pass


class NotOrientable(DualityError):
    """Top cells admit no coherent orientation (or the space is not a
    closed pseudomanifold of pure top dimension)."""


class DegreeOutOfRange(DualityError):
    pass


class DegreeMismatch(DualityError):
    pass


class ModeMismatch(DualityError):
    pass


class InconsistentCollapse(DualityError):
    pass


class StratumNotFound(DualityError):
    pass


# -- orientation -----------------------------------------------------------

def orient_top_cells(cx):
    """Coherent signs on the top cells, as a dict cell -> +1/-1.

    Requires every codimension-one cell to bound exactly two top cells;
    signs are propagated from the lexicographically first top cell of each
    dual-graph component.

    >>> from .examples import get_example
    >>> o = orient_top_cells(get_example("s2").complex)
    >>> sorted(o.values())[0], len(o)
    (-1, 4)
    """
    n = cx.dim
    tops = cx.cells_of_dim(n)
    if not tops:
        raise NotOrientable("no top cells")
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


def fundamental_class(space):
    """Signed top-cell chain of a closed oriented space."""
    cx = space.complex if hasattr(space, "complex") else space
    return orient_top_cells(cx)


# -- cup evaluation --------------------------------------------------------

def _cup_eval(cx, signs, p, alpha, beta):
    """<alpha cup beta, [X]> with alpha in C^p, beta in C^(n-p)."""
    n = cx.dim
    pos_p = {c: i for i, c in enumerate(cx.cells_of_dim(p))}
    pos_q = {c: i for i, c in enumerate(cx.cells_of_dim(n - p))}
    total = Fraction(0)
    for t, s in signs.items():
        a = alpha[pos_p[t[:p + 1]]]
        if not a:
            continue
        b = beta[pos_q[t[p:]]]
        if b:
            total += s * a * b
    return total


def cup_pairing_matrix(cx, p, q, basis_p, basis_q):
    """Pairing matrix of cohomology classes through the cup product.

    Entry (i, j) is the evaluation of basis_p[i] cup basis_q[j] on the
    fundamental class; p + q must equal the dimension.  Well defined on
    classes because the fundamental chain is a cycle.
    """
    if p + q != cx.dim:
        raise DegreeMismatch(
            "degrees %d + %d do not sum to the dimension %d" % (p, q, cx.dim))
    signs = orient_top_cells(cx)
    rows = [[_cup_eval(cx, signs, p, a, b) for b in basis_q] for a in basis_p]
    if not rows:
        return ExactMatrix.zeros(0, len(basis_q))
    return ExactMatrix.from_rows(rows)


class PairingMatrix:
    """A bilinear pairing between two cohomology degrees."""

    def __init__(self, matrix, row_degree, col_degree, label=""):
        self.matrix = matrix
        self.row_degree = row_degree
        self.col_degree = col_degree
        self.label = label

    def nondegenerate(self):
        m = self.matrix
        return m.rows == m.cols and rank(m) == m.rows

    def antisymmetric(self):
        return (self.matrix + self.matrix.transpose()).is_zero()

    def symmetric(self):
        return (self.matrix - self.matrix.transpose()).is_zero()

    def __repr__(self):
        return "PairingMatrix(%dx%d, degrees (%d, %d)%s)" % (
            self.matrix.rows, self.matrix.cols,
            self.row_degree, self.col_degree,
            ", nondegenerate" if self.nondegenerate() else "")


def duality_pairing(space, k):
    """Poincare pairing H^k x H^(n-k) -> Q on a closed oriented space."""
    cx = space.complex if hasattr(space, "complex") else space
    n = cx.dim
    if k < 0 or k > n:
        raise DegreeOutOfRange("degree %d outside 0..%d" % (k, n))
    cc = cx.cochain_complex()
    basis_p = cc.cohomology_basis(k)
    basis_q = cc.cohomology_basis(n - k)
    mat = cup_pairing_matrix(cx, k, n - k, basis_p, basis_q)
    return PairingMatrix(mat, k, n - k, label="H^%d x H^%d" % (k, n - k))


# -- pairings on intersection sheaves --------------------------------------
#
# Intersection classes pair at the chain level.  Both sheaves embed into the
# untruncated pushforward recorded by the truncation; its stalks are scalar
# cochains on order complexes, hence honest algebras, and the front-face /
# back-face product there satisfies the Leibniz rule for the total
# differential.  The product of two classes then descends into the top
# truncation window (clearing any overshoot through stalk-exact corrections,
# which is exactly where the Lagrangian condition enters) and is read off
# against the canonical top-degree generator.

class _Ambient:
    """Index structures for cupping inside an untruncated pushforward R."""

    def __init__(self, R):
        self.R = R
        self.cx, self.layout = sheaves.incidence_complex(R)
        self.lmap = {}
        for k, blocks in self.layout.items():
            for cell, q, off, size in blocks:
                self.lmap[(cell, q)] = (k, off, size)
        self.fidx = {}
        for cell, lay in R.stalk_layouts.items():
            d = {}
            for blocks in lay.values():
                for flag, q, off, size in blocks:
                    assert q == 0 and size == 1, \
                        "pairing needs rank-one scalar coefficients"
                    d[flag] = off
            self.fidx[cell] = d

    def embed(self, result, vec, degree):
        """Coordinates of a class of `result` inside the ambient complex."""
        sheaf = result.sheaf
        out = [Fraction(0)] * self.cx.dim(degree)
        for cell, q, off, size in result.layout.get(degree, ()):
            block = vec[off:off + size]
            if not any(block):
                continue
            spot = self.lmap.get((cell, q))
            assert spot is not None and spot[0] == degree
            _, roff, rsize = spot
            if q < sheaf.cutoff:
                assert rsize == size
                for i, v in enumerate(block):
                    out[roff + i] += v
            else:
                assert q == sheaf.cutoff
                lifted = sheaf.inclusions[cell].apply(block)
                for i, v in enumerate(lifted):
                    out[roff + i] += v
        return out

    def cup(self, x, k, y, l):
        """Front-face / back-face product of ambient total cochains.

        Component at a cell tau of dimension p with stalk degree q: sum over
        splits of tau at position i of the stalk product of the restricted
        front component of x (stalk degree k - i) with the restricted back
        component of y, with the double-complex sign (-1)^(q1 (p - i)).
        """
        R = self.R
        n = k + l
        z = [Fraction(0)] * self.cx.dim(n)
        for tau, q, off, size in self.layout.get(n, ()):
            p = len(tau) - 1
            fidx = self.fidx[tau]
            flags = [f for f, _off in sorted(fidx.items(), key=lambda kv: kv[1])
                     if len(f) == q + 1]
            for i in range(p + 1):
                q1 = k - i
                q2 = l - (p - i)
                if q1 < 0 or q2 < 0:
                    continue
                front, back = tau[:i + 1], tau[i:]
                sa = self.lmap.get((front, q1))
                sb = self.lmap.get((back, q2))
                if sa is None or sb is None:
                    continue
                xa = x[sa[1]:sa[1] + sa[2]]
                yb = y[sb[1]:sb[1] + sb[2]]
                if not any(xa) or not any(yb):
                    continue
                a = xa if front == tau else \
                    R.restriction(front, tau, q1).apply(xa)
                b = yb if back == tau else \
                    R.restriction(back, tau, q2).apply(yb)
                if not any(a) or not any(b):
                    continue
                sign = -1 if (q1 * (p - i)) % 2 else 1
                for g in flags:
                    va = a[fidx[g[:q1 + 1]]]
                    if not va:
                        continue
                    vb = b[fidx[g[q1:]]]
                    if vb:
                        z[off + fidx[g]] += sign * va * vb
        return z

    def clear_overshoot(self, z, degree, cutoff):
        """Push a top-degree ambient cocycle into stalk degrees <= cutoff.

        Components above the cutoff are removed by subtracting the total
        differential of a stalkwise preimage; solvability is exactly the
        vanishing of the offending stalk classes (for refined sheaves, the
        Lagrangian condition).
        """
        blocks = self.layout.get(degree, ())
        qs = sorted({q for _c, q, _o, _s in blocks}, reverse=True)
        for q in qs:
            if q <= cutoff:
                break
            w = [Fraction(0)] * self.cx.dim(degree - 1)
            dirty = False
            for cell, bq, off, size in blocks:
                if bq != q:
                    continue
                part = z[off:off + size]
                if not any(part):
                    continue
                sgn = -1 if (len(cell) - 1) % 2 else 1
                d = self.R.stalks[cell].diff(q - 1)
                u = solve(d, [sgn * v for v in part])
                if u is None:
                    raise DualityError(
                        "product class does not descend below stalk degree "
                        "%d at cell %r; the middle conditions are not "
                        "complementary" % (q, cell))
                spot = self.lmap.get((cell, q - 1))
                assert spot is not None and spot[0] == degree - 1
                for i, v in enumerate(u):
                    w[spot[1] + i] += v
                dirty = True
            if dirty:
                dw = self.cx.diff(degree - 1).apply(w)
                z = [a - b for a, b in zip(z, dw)]
        return z


def _single_step_data(result):
    sheaf = result.sheaf
    R = getattr(sheaf, "untruncated", None)
    if R is None or getattr(sheaf, "inclusions", None) is None:
        raise DualityError(
            "sheaf records no truncation provenance; build it through the "
            "constructions in this package")
    return R


class PairingContext:
    """Everything needed to pair classes of two truncation results.

    Built once per pair of results and owned by the caller: the ambient
    pushforward's index structures, the top truncation T of the ambient
    sheaf, its layout, and the [generator | d^(n-1)] matrix that reads a
    top class of T against the canonical generator.  `value` pairs two
    cochains, `matrix` pairs the cohomology bases of complementary degrees.
    Only spaces with a single attachment step are supported.
    """

    def __init__(self, result_low, result_high):
        space = result_low.space
        if result_high.space is not space and \
                result_high.space.complex.cells != space.complex.cells:
            raise DualityError("results live on different spaces")
        n = space.dim
        levels = space.singular_levels()
        if len(levels) != 1:
            raise DualityError(
                "pairing supports exactly one singular stratum, got %r"
                % levels)
        cut_top = space.top - levels[0] - 2
        if cut_top < 0:
            raise DualityError("singular stratum has codimension below two")
        R = _single_step_data(result_low)
        RB = _single_step_data(result_high)
        if RB is not R:
            for c, cx in R.stalks.items():
                assert RB.stalks[c].dims == cx.dims, \
                    "ambient pushforwards differ; rebuild both results alike"
        self.low, self.high = result_low, result_high
        self.n, self.cut_top = n, cut_top
        self.ambient = _Ambient(R)
        self.top = sheaves.truncate(R, cut_top)
        cxT, self.top_layout = sheaves.incidence_complex(self.top)
        gens = cxT.cohomology_basis(n)
        if len(gens) != 1:
            raise DualityError(
                "top truncation has H^%d of rank %d, cannot normalize"
                % (n, len(gens)))
        gen_col = ExactMatrix.from_columns(len(gens[0]), gens)
        self.read = gen_col.stack_cols(cxT.diff(n - 1))

    def project_into(self, z, degree):
        """Coordinates of an ambient window cochain in the top truncation."""
        amb, T, layT = self.ambient, self.top, self.top_layout
        out = [Fraction(0)] * sum(s for _c, _q, _o, s in layT.get(degree, ()))
        for cell, q, off, size in layT.get(degree, ()):
            spot = amb.lmap.get((cell, q))
            if spot is None:
                continue
            _, roff, rsize = spot
            part = z[roff:roff + rsize]
            if q < T.cutoff:
                assert rsize == size
                for i, v in enumerate(part):
                    out[off + i] = v
            else:
                coords = solve(T.inclusions[cell], part)
                if coords is None:
                    raise CertificateError(
                        "component outside the truncated subspace at %r"
                        % (cell,))
                for i, v in enumerate(coords):
                    out[off + i] = v
        # anything in the ambient complex outside the window must be gone
        covered = {(c, q) for c, q, _o, _s in layT.get(degree, ())}
        for cell, q, off, size in amb.layout.get(degree, ()):
            if (cell, q) not in covered and any(z[off:off + size]):
                raise CertificateError(
                    "cochain still sticks out of the truncation window at %r"
                    % (cell,))
        return out

    def value(self, xa, k, yb):
        """Pairing of a degree-k cochain of the first result with a
        degree-(n-k) cochain of the second (coordinate vectors of their
        incidence complexes)."""
        amb, n = self.ambient, self.n
        x = amb.embed(self.low, xa, k)
        y = amb.embed(self.high, yb, n - k)
        z = amb.cup(x, k, y, n - k)
        z = amb.clear_overshoot(z, n, self.cut_top)
        zt = self.project_into(z, n)
        sol = solve(self.read, zt)
        if sol is None:
            raise CertificateError("product is not a class of the truncation")
        return sol[0]

    def matrix(self, k):
        """PairingMatrix of H^k of the first result against H^(n-k) of the
        second, in their deterministic cohomology bases."""
        n = self.n
        if k < 0 or k > n:
            raise DegreeOutOfRange("degree %d outside 0..%d" % (k, n))
        basis_a = self.low.complex.cohomology_basis(k)
        basis_b = self.high.complex.cohomology_basis(n - k)
        rows = [[self.value(xa, k, yb) for yb in basis_b] for xa in basis_a]
        mat = ExactMatrix.from_rows(rows) if rows else \
            ExactMatrix.zeros(0, len(basis_b))
        return PairingMatrix(mat, k, n - k, label="%s x %s" % (
            self.low.label, self.high.label))


def ic_pairing(result_low, result_high, k):
    """Pairing of intersection classes in complementary total degrees.

    Degree-k classes of the first result multiply degree-(n-k) classes of
    the second inside the shared untruncated pushforward; the product is a
    top-degree class of the top truncation and its coefficient against the
    canonical generator is the pairing value.  Only spaces with a single
    attachment step are supported.  To pair several degrees, build one
    PairingContext and ask it for each.
    """
    return PairingContext(result_low, result_high).matrix(k)


def stratumwise_duality(space, perversity=None):
    """Mirror audit of the stratumwise table.

    Reports the total row against its reversal degree by degree; closed
    oriented manifolds come out symmetric, singular spaces generally do
    not, and the failure locations are the content.
    """
    from .ic import stratumwise_rows
    rows = stratumwise_rows(space)
    width = space.dim + 1
    total = tuple(sum(r[k] for r in rows.values()) for k in range(width))
    mirror = tuple(reversed(total))
    per_degree = [{"degree": k, "value": total[k], "dual_value": mirror[k],
                   "ok": total[k] == mirror[k]} for k in range(width)]
    return {
        "rows": {str(p): list(r) for p, r in sorted(rows.items())},
        "total": list(total),
        "mirror": list(mirror),
        "symmetric": total == mirror,
        "per_degree": per_degree,
    }


# -- Kunneth ---------------------------------------------------------------

def _convolve(a, b, width):
    out = [0] * width
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y and i + j < width:
                out[i + j] += x * y
    return tuple(out)


class KunnethReport:
    """Comparison of a product invariant with the factorwise prediction."""

    def __init__(self, mode, lhs, rhs, detail=None):
        self.mode = mode
        self.lhs = lhs
        self.rhs = rhs
        self.detail = detail or []

    @property
    def match(self):
        return self.lhs == self.rhs

    def __repr__(self):
        return "KunnethReport(%s, match=%r)" % (self.mode, self.match)


def integral_prediction(ga, gb, width):
    """Degreewise groups of a product from the factor groups.

    Tensor terms come from bidegrees summing to n, torsion-product terms
    from bidegrees summing to n + 1; both maps of finitely generated
    abelian groups are computed exactly.
    """
    out = {}
    for n in range(width):
        parts = []
        for p_, grp in ga.items():
            q_ = n - p_
            if q_ in gb:
                parts.append(grp.tensor(gb[q_]))
            q_ = n + 1 - p_
            if q_ in gb:
                parts.append(grp.tor(gb[q_]))
        g = FGAbelianGroup.zero()
        for part in parts:
            g = g.direct_sum(part)
        out[n] = g
    return out


def kunneth(left, right, mode="rational"):
    """Product comparison in one of three modes.

    rational: Betti numbers of the product versus the convolution of the
    factor Betti numbers.  integral: cohomology groups versus the
    tensor-and-torsion prediction.  stratumwise: the product table versus
    factor table convolutions, with closed product strata recomputed
    directly as a cross-check.
    """
    if mode not in ("rational", "integral", "stratumwise"):
        raise ModeMismatch(
            "mode %r not one of rational, integral, stratumwise" % (mode,))
    prod = spaces.product(left, right)
    width = prod.dim + 1
    if mode == "rational":
        lhs = prod.complex.betti_numbers()
        rhs = _convolve(left.complex.betti_numbers(),
                        right.complex.betti_numbers(), width)
        return KunnethReport(mode, tuple(lhs), rhs)
    if mode == "integral":
        lhs = prod.complex.cochain_complex().cohomology_groups()
        lhs = {k: lhs.get(k, FGAbelianGroup.zero()) for k in range(width)}
        rhs = integral_prediction(
            left.complex.cochain_complex().cohomology_groups(),
            right.complex.cochain_complex().cohomology_groups(), width)
        detail = [{"degree": k, "computed": lhs[k].describe(),
                   "predicted": rhs[k].describe()} for k in range(width)]
        return KunnethReport(mode, {k: v.describe() for k, v in lhs.items()},
                             {k: v.describe() for k, v in rhs.items()}, detail)
    # stratumwise: table of the product vs convolved factor tables, and a
    # direct recomputation of every closed product stratum
    from .ic import stratumwise_rows, _order_cohomology, _is_closed_stratum
    prod_rows = stratumwise_rows(prod)
    total = tuple(sum(r[k] for r in prod_rows.values()) for k in range(width))
    lrows = stratumwise_rows(left)
    rrows = stratumwise_rows(right)
    ltot = tuple(sum(r[k] for r in lrows.values())
                 for k in range(left.dim + 1))
    rtot = tuple(sum(r[k] for r in rrows.values())
                 for k in range(right.dim + 1))
    predicted = _convolve(ltot, rtot, width)
    detail = []
    ok = total == predicted
    for p in sorted(prod_rows):
        if not _is_closed_stratum(prod, prod.stratum(p)):
            continue
        direct = _order_cohomology(prod.stratum(p))
        direct = tuple(direct.get(k, 0) for k in range(width))
        row = tuple(prod_rows[p])
        detail.append({"level": p, "direct": list(direct), "table": list(row),
                       "ok": direct == row})
        ok = ok and direct == row
    report = KunnethReport(mode, total, predicted, detail)
    report.closed_strata_ok = all(d["ok"] for d in detail)
    return report


# -- fibrewise decomposition ----------------------------------------------

def _section_slice(prod, vertex):
    nr = prod.n_right
    return [c for c in prod.complex.cells
            if all(v % nr == vertex for v in c)]


def fibration_decomposition(section, collapse_cells=None, trivial=False,
                            max_kan_cells=150):
    """Collapse a cylinder end onto a cone and audit the resulting rows.

    The total space is section x interval with the bottom slice marked as
    its own stratum; collapsing that slice gives the cone over the section
    and a map whose only nontrivial fiber is the section itself.  Reported
    rows: the cohomology of the total space, the truncated-pushforward
    cohomology of the cone (cut one below the section dimension, the top
    allowable cutoff), the skyscraper quotient carrying the section
    cohomology above the cutoff, and the literal shift H^(k-2) of the
    section.  Additivity total = truncated + skyscraper is the exact
    sequence of the truncation and is checked per degree; the same check
    against the literal shifted row is reported separately (it fails
    wherever the section has cohomology between the cutoff and its top
    degree, and the report says so rather than papering over it).
    """
    from .examples import get_example
    from .ic import Perversity, deligne_construction
    interval = get_example("interval")
    prod = spaces.product(section, interval)
    d = section.dim
    width = prod.dim + 1
    # restratify: the bottom slice is a codimension-one stratum
    slice_cells = _section_slice(prod, 0)
    levels = {c: (d if c in set(slice_cells) else d + 1)
              for c in prod.complex.cells}
    total_space = spaces.StratifiedComplex(prod.complex, levels)
    total_space.n_right = prod.n_right
    if collapse_cells is not None and not trivial:
        got = {tuple(c) for c in collapse_cells}
        if got != set(slice_cells):
            raise InconsistentCollapse(
                "collapsed cells do not form the bottom slice "
                "section x {0}")
    total_row = tuple(prod.complex.betti_numbers())
    sec_betti = section.complex.betti_numbers()
    cut = d - 1
    notes = []
    report = {
        "schema": 1,
        "section_cells": len(section.complex.cells),
        "total_cells": len(prod.complex.cells),
        "cutoff": cut,
        "rows": {"total": list(total_row)},
        "notes": notes,
    }
    if trivial:
        # nothing collapsed: the pushforward along the identity is the
        # sheaf itself and no skyscraper appears
        ih_row = total_row
        sky = (0,) * width
        report["rows"]["ih"] = list(ih_row)
        report["mode"] = "identity"
        notes.append("trivial collapse: pushforward row equals the total "
                     "row, fiber row zero")
    else:
        quotient, cmap = spaces.collapse(total_space, slice_cells)
        report["cone_cells"] = len(quotient.complex.cells)
        if len(prod.complex.cells) <= max_kan_cells:
            F = sheaves.constant_sheaf(total_space)
            Rf = sheaves.kan_pushforward(F, cmap, quotient)
            G = sheaves.truncate(Rf, cut)
            coh = sheaves.sheaf_cohomology(G)
            report["mode"] = "pushforward"
        else:
            # stalkwise the truncated pushforward is the truncated
            # link-neighborhood sheaf of the cone, so compute there; the
            # small cases cross-check this substitution against the
            # genuine pushforward
            res = deligne_construction(quotient, Perversity.named("t"))
            coh = res.cohomology
            report["mode"] = "cone-truncation"
            notes.append(
                "total space has %d cells (> %d); pushforward row computed "
                "through the cone truncation, which has the same stalks"
                % (len(prod.complex.cells), max_kan_cells))
        ih_row = tuple(coh.get(k, 0) for k in range(width))
        report["rows"]["ih"] = list(ih_row)
        sky = tuple(sec_betti[q] if cut < q < len(sec_betti) else 0
                    for q in range(width))
    literal = tuple(sec_betti[k - 2] if 0 <= k - 2 < len(sec_betti) else 0
                    for k in range(width))
    if trivial:
        literal = (0,) * width
    report["rows"]["skyscraper"] = list(sky)
    report["rows"]["section_shift"] = list(literal)
    per_degree = [{"degree": k, "total": total_row[k], "ih": ih_row[k],
                   "skyscraper": sky[k],
                   "ok": total_row[k] == ih_row[k] + sky[k]}
                  for k in range(width)]
    report["additivity"] = {"ok": all(r["ok"] for r in per_degree),
                            "per_degree": per_degree}
    lit_degree = [{"degree": k, "total": total_row[k], "ih": ih_row[k],
                   "section_shift": literal[k],
                   "ok": total_row[k] == ih_row[k] + literal[k]}
                  for k in range(width)]
    report["literal_additivity"] = {
        "ok": all(r["ok"] for r in lit_degree),
        "per_degree": lit_degree,
        "informational": True,
    }
    if width > 2:
        report["degree_split"] = {
            "degree": 2,
            "total": total_row[2],
            "ih": ih_row[2],
            "extra": sky[2],
            "shows_plus_one": total_row[2] == ih_row[2] + 1,
        }
    return report


# -- intersection numbers --------------------------------------------------

def intersection_number(first, second, class_a, class_b, p, q):
    """Exact rational intersection number of two cohomology classes.

    `first` and `second` are either truncation results carrying their
    ambient pushforward (singular case; the classes are coordinate vectors
    of their incidence complexes) or plain stratified complexes without
    singular strata (the classes are simplicial cochain vectors and the
    product is read against the fundamental class).  Degrees that do not
    sum to the ambient dimension pair to zero, so the value is an honest 0
    rather than an error.
    """
    has_sheaf = hasattr(first, "sheaf")
    space = first.space if has_sheaf else first
    n = space.dim
    if p < 0 or q < 0 or p > n or q > n:
        raise DegreeOutOfRange(
            "degrees (%d, %d) outside 0..%d" % (p, q, n))
    if p + q != n:
        # complementary-degree bookkeeping: the pairing vanishes
        return Fraction(0)
    if not has_sheaf:
        if space.singular_levels():
            raise DualityError(
                "plain cup evaluation needs a nonsingular space; pass "
                "truncation results for %r" % space.singular_levels())
        cx = space.complex
        signs = orient_top_cells(cx)
        return _cup_eval(cx, signs, p, class_a, class_b)
    return PairingContext(first, second).value(class_a, p, class_b)


def local_contribution(space, mezzo, level=None):
    """Rank of W meeting its perpendicular at one singular stratum.

    The local count an intersection pairing picks up at an isolated
    singular point is the rank of W intersected with its perp under the
    link form; a Lagrangian W gives the full middle rank, a W meeting its
    perp trivially gives zero.
    """
    from . import ic
    refinements = getattr(mezzo, "choices", mezzo)
    if level is None:
        levels = space.singular_levels()
        assert len(levels) == 1, "pass level= when several strata exist"
        level = levels[0]
    if level not in space.stratum_levels():
        raise StratumNotFound("no stratum at level %d" % level)
    out = {}
    for vertex in sorted(space.stratum(level)):
        if vertex not in refinements:
            raise StratumNotFound(
                "no refinement subspace at cell %r" % (vertex,))
        W = refinements[vertex]
        _lk, _basis, form = ic.link_middle_form(space, vertex)
        perp = ic.lagrangian_perp(form, W)
        if W.cols == 0 or perp.cols == 0:
            out[vertex] = 0
            continue
        joint = W.stack_cols(perp)
        out[vertex] = rank(W) + rank(perp) - rank(joint)
    return {
        "level": level,
        "per_vertex": out,
        "value": sum(out.values()),
    }
