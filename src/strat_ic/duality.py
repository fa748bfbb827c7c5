"""Pairings, orientation classes, and product decompositions.

Everything here evaluates against a fundamental cocycle: orient the top
cells coherently, then pair cohomology classes through the front-face /
back-face product summed over oriented top cells.  The same evaluation
drives Poincare pairings on closed spaces, the refined pairings on
intersection sheaves, Kunneth comparisons, and intersection numbers.
"""

from bisect import bisect_right
from fractions import Fraction

from .linalg import (CertificateError, ExactMatrix, FGAbelianGroup, _echelon,
                     _mul_rows, _rows, rank, solve)
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


class StratumNotFound(DualityError):
    pass


# -- orientation -----------------------------------------------------------

def orient_top_cells(cx):
    """Coherent signs on the top cells, as a dict cell -> +1/-1.

    Requires every maximal cell to be a top cell, and every codimension-one
    cell to bound exactly two top cells; signs are propagated from the
    lexicographically first top cell of each dual-graph component.  In
    dimension 0 there are no ridges: every vertex is a top cell, with
    sign +1.

    >>> from .examples import get_example
    >>> o = orient_top_cells(get_example("s2").complex)
    >>> sorted(o.values())[0], len(o)
    (-1, 4)
    """
    n = cx.dim
    tops = cx.cells_of_dim(n)
    if not tops:
        raise NotOrientable("no top cells")
    if n == 0:
        # a closed 0-manifold: every vertex is a top cell, and no ridges
        return {t: 1 for t in tops}
    for c in cx.maximal_cells():
        if len(c) - 1 < n:
            raise NotOrientable("cell %r is not a face of a top cell" % (c,))
    cofaces = {}
    for t in tops:
        for r, sign in spaces.facets(t):
            cofaces.setdefault(r, []).append((t, sign))
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
            for r, _sign in spaces.facets(t):
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


# -- cup evaluation --------------------------------------------------------

def _positions(cx, k):
    """{cell: its place among the k-cells}, the coordinates of a k-cochain."""
    return {c: i for i, c in enumerate(cx.cells_of_dim(k))}


def _cup_eval(signs, p, alpha, beta, pos_p, pos_q):
    """<alpha cup beta, [X]> with alpha in C^p, beta in C^(n-p); `pos_p`
    and `pos_q` are the `_positions` of the p- and (n-p)-cells."""
    total = Fraction(0)
    for t, s in signs.items():
        a = alpha[pos_p[t[:p + 1]]]
        if not a:
            continue
        b = beta[pos_q[t[p:]]]
        if b:
            total += s * a * b
    return total


def _cup_matrix(signs, p, basis_p, basis_q, pos_p, pos_q):
    """Matrix of <a cup b, [X]> over a in basis_p and b in basis_q."""
    rows = [[_cup_eval(signs, p, a, b, pos_p, pos_q) for b in basis_q]
            for a in basis_p]
    if not rows:
        return ExactMatrix.zeros(0, len(basis_q))
    return ExactMatrix.from_rows(rows)


def cup_pairing_matrix(cx, p, q, basis_p, basis_q):
    """Pairing matrix of cohomology classes through the cup product.

    Entry (i, j) is the evaluation of basis_p[i] cup basis_q[j] on the
    fundamental class; p + q must equal the dimension.  Well defined on
    classes because the fundamental chain is a cycle.
    """
    if p + q != cx.dim:
        raise DegreeMismatch(
            "degrees %d + %d do not sum to the dimension %d" % (p, q, cx.dim))
    return _cup_matrix(orient_top_cells(cx), p, basis_p, basis_q,
                       _positions(cx, p), _positions(cx, q))


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

    def __repr__(self):
        return "PairingMatrix(%dx%d, degrees (%d, %d)%s)" % (
            self.matrix.rows, self.matrix.cols,
            self.row_degree, self.col_degree,
            ", nondegenerate" if self.nondegenerate() else "")


def duality_pairings(space, degrees):
    """Poincare pairings H^k x H^(n-k) -> Q on a closed oriented space,
    one PairingMatrix per k in `degrees`.

    They share one cochain complex and its one unit reduction, one
    orientation, and each degree's cohomology basis and cell positions,
    built once for all of them.
    """
    cx = space.complex
    n = cx.dim
    for k in degrees:
        if k < 0 or k > n:
            raise DegreeOutOfRange("degree %d outside 0..%d" % (k, n))
    red = cx.cochain_complex().reduction()
    bases, positions = {}, {}
    for k in degrees:
        for j in (k, n - k):
            if j not in bases:
                bases[j] = red.cohomology_basis(j)
                positions[j] = _positions(cx, j)
    signs = orient_top_cells(cx)
    return [PairingMatrix(_cup_matrix(signs, k, bases[k], bases[n - k],
                                      positions[k], positions[n - k]),
                          k, n - k, label="H^%d x H^%d" % (k, n - k))
            for k in degrees]


def duality_pairing(space, k):
    """Poincare pairing H^k x H^(n-k) -> Q on a closed oriented space."""
    return duality_pairings(space, [k])[0]


# -- pairings on intersection sheaves --------------------------------------
#
# Intersection classes pair at the chain level.  Both sheaves embed into a
# pushforward like the one their truncations were cut from, assembled
# through the stalk degrees the product reaches (see PairingContext); its
# stalks are scalar cochains on order complexes, hence honest algebras, and
# the front-face / back-face product there satisfies the Leibniz rule for
# the total differential.  The product of two classes then descends into
# the top truncation window (clearing any overshoot through stalk-exact
# corrections, which is exactly where the Lagrangian condition enters) and
# is read off against the canonical top-degree generator.

def _rank_one(R):
    """Refuse (DualityError) a pushforward R whose input has a stalk that
    is not one scalar in stalk degree 0.  Read once per input cell: every
    flag block of R is then (flag, 0, offset, 1), so a flag's place in its
    stalk is its offset (`_FlagOffsets`)."""
    for cx in R.source.stalks.values():
        if any(size and (q, size) != (0, 1) for q, size in cx.dims.items()):
            raise DualityError("pairing needs rank-one scalar coefficients")


class _FlagOffsets(dict):
    """cell -> {flag: offset in the cell's stalk} of a pushforward whose
    flag blocks are all one scalar in stalk degree 0 (`_rank_one`), each
    cell's table built from its stalk layout when it is first read."""

    __slots__ = ("layouts",)

    def __init__(self, layouts):
        super().__init__()
        self.layouts = layouts

    def __missing__(self, cell):
        out = self[cell] = {flag: off for blocks in self.layouts[cell].values()
                            for flag, _q, off, _size in blocks}
        return out


def _reaches(R, degree):
    """Whether the pushforward R holds every stalk degree up to `degree`."""
    return R.through is None or R.through >= degree


def _same_dims(R, A):
    """Whether two pushforwards have the same stalk dimensions in every
    degree both of them assemble."""
    tops = [t for t in (R.through, A.through) if t is not None]
    top = min(tops, default=None)
    for c, cx in R.stalks.items():
        other = A.stalks[c]
        for q in set(cx.dims) | set(other.dims):
            if (top is None or q <= top) and cx.dim(q) != other.dim(q):
                return False
    return True


class _Ambient:
    """Index structures for cupping inside a pushforward R that holds
    every stalk degree the products reach: the layout of R's incidence
    complex, its block index, the size of each total degree, and the flag
    offsets of each cell `cup` touches, built when it first touches it.
    The incidence complex itself, `cx`, is assembled on first use and
    kept; only `clear_overshoot` reads it, when a product has components
    above the cutoff.

    Cochains are sparse.  An ambient cochain of one total degree is a dict
    {(cell, q): block} over the blocks where it has support, a block being
    the list of its entries in the order of the stalk's flags (`fidx`); a
    cochain of a result or of the top truncation is a dict {coordinate:
    value} of its incidence complex.  Every step reads only the blocks
    where its input has support: `embed` writes the blocks of a class,
    `cup` multiplies the (front, back) block pairs that meet in a cell,
    and `clear_overshoot` and `PairingContext.project_into` visit the
    product's own blocks."""

    def __init__(self, R):
        self.R = R
        self.layout = sheaves.incidence_layout(R)
        self.lmap = sheaves._block_index(self.layout)
        self.fidx = _FlagOffsets(R.stalk_layouts)
        self.dims = sheaves._layout_dims(self.layout)
        self._cx = None
        self._columns = {}

    @property
    def cx(self):
        if self._cx is None:
            self._cx, _ = sheaves.incidence_complex(self.R)
        return self._cx

    def dim(self, degree):
        return self.dims.get(degree, 0)

    def embed(self, result, x, degree):
        """The ambient cochain of a cochain x = {coordinate: value} of
        `result`'s incidence complex in `degree`: only the blocks where x
        has support.  A block below the cutoff is copied, a block at it is
        sent through the cell's inclusion basis, and a block that does not
        fit its ambient block is refused (CertificateError)."""
        sheaf = result.sheaf
        blocks = result.layout.get(degree, ())
        starts = [off for _c, _q, off, _s in blocks]
        parts = {}
        for i, v in x.items():
            b = bisect_right(starts, i) - 1
            part = parts.get(b)
            if part is None:
                part = parts[b] = [0] * blocks[b][3]
            part[i - starts[b]] = v
        out = {}
        for b, part in sorted(parts.items()):
            cell, q, _off, size = blocks[b]
            _roff, rsize = self.spot(cell, q, degree)
            if q > sheaf.cutoff or (q < sheaf.cutoff and rsize != size):
                raise CertificateError(
                    "block %r in stalk degree %d (cutoff %d, size %d) does "
                    "not fit the ambient block of size %d"
                    % (cell, q, sheaf.cutoff, size, rsize))
            if q == sheaf.cutoff:
                part = sheaf.inclusions[cell].basis.apply(part)
            out[(cell, q)] = part
        return out

    def spot(self, cell, q, degree):
        """Offset and size of the ambient block (cell, q), which must sit in
        total degree `degree`; CertificateError if it does not."""
        spot = self.lmap.get((cell, q))
        if spot is None or spot[0] != degree:
            raise CertificateError(
                "the ambient complex has no block %r in stalk degree %d and "
                "total degree %d" % (cell, q, degree))
        return spot[1], spot[2]

    def cup(self, x, y):
        """Front-face / back-face product of ambient total cochains x of
        degree k and y of degree l (each block's degree is its cell's
        dimension plus its stalk degree, so k and l are not passed).

        Component at a cell tau of dimension p with stalk degree q: sum over
        splits of tau at position i of the stalk product of the restricted
        front component of x (stalk degree k - i) with the restricted back
        component of y, with the double-complex sign (-1)^(q1 (p - i)).  A
        split contributes only where x has the front block and y the back
        block, so the product runs over the pairs of a block (front, q1) of
        x and a block (back, q2) of y with front[-1] == back[0]: such a
        pair is the split of tau = front + back[1:] at i = dim front, when
        tau is a cell, into its block (tau, q1 + q2).

        The restrictions are read by flag, not built.  `kan_pushforward`
        makes the restriction from a face to tau the projection onto tau's
        flags, and the front g[:q1 + 1] and back g[q1:] of a flag g over
        tau are flags over tau (their bottoms lie in tau's fiber, an
        up-set).  So the restricted front component at g[:q1 + 1] is x's
        entry at that flag's offset in the front face's stalk, and
        likewise for the back.
        """
        backs = {}
        for (back, q2), yb in y.items():
            backs.setdefault(back[0], []).append((back, q2, yb))
        z = {}
        for (front, q1), xa in x.items():
            fa = self.fidx[front]
            for back, q2, yb in backs.get(front[-1], ()):
                tau, q = front + back[1:], q1 + q2
                spot = self.lmap.get((tau, q))
                if spot is None:
                    continue
                out = z.get((tau, q))
                if out is None:
                    out = z[(tau, q)] = [0] * spot[2]
                fidx, fb = self.fidx[tau], self.fidx[back]
                sign = -1 if (q1 * (len(back) - 1)) % 2 else 1
                for g, _q, _off, _size in self.R.stalk_layouts[tau][q]:
                    va = xa[fa[g[:q1 + 1]]]
                    if not va:
                        continue
                    vb = yb[fb[g[q1:]]]
                    if vb:
                        out[fidx[g]] += sign * va * vb
        return z

    def clear_overshoot(self, z, degree, cutoff):
        """Push a top-degree ambient cocycle into stalk degrees <= cutoff.

        Components above the cutoff are removed by subtracting the total
        differential of a stalkwise preimage, highest stalk degree first;
        solvability is exactly the vanishing of the offending stalk
        classes (for refined sheaves, the Lagrangian condition).  Only z's
        own blocks are read, and the ambient complex is assembled only when
        there is something to remove.
        """
        q = max((bq for (_c, bq), part in z.items() if any(part)),
                default=cutoff)
        while q > cutoff:
            w = {}
            for (cell, bq), part in z.items():
                if bq != q or not any(part):
                    continue
                sgn = -1 if (len(cell) - 1) % 2 else 1
                d = self.R.stalks[cell].diff(q - 1)
                u = solve(d, [sgn * v for v in part])
                if u is None:
                    raise DualityError(
                        "product class does not descend below stalk degree "
                        "%d at cell %r; the middle conditions are not "
                        "complementary" % (q, cell))
                woff, _ = self.spot(cell, q - 1, degree - 1)
                w.update((woff + i, v) for i, v in enumerate(u) if v)
            if w:
                z = self._minus_coboundary(z, w, degree)
            q -= 1
        return z

    def _minus_coboundary(self, z, w, degree):
        """z - d w for an ambient cochain z of `degree` and w = {offset:
        value} of degree - 1, reading the columns of d at w's support (the
        columns of d^(degree-1) are indexed on first use and kept)."""
        cols = self._columns.get(degree - 1)
        if cols is None:
            cols = self._columns[degree - 1] = _rows(
                self.cx.diff(degree - 1).transpose())
        blocks = self.layout[degree]
        starts = [off for _c, _q, off, _s in blocks]
        z = dict(z)
        copied = set()
        for j, x in w.items():
            for i, v in cols[j].items():
                cell, q, off, size = blocks[bisect_right(starts, i) - 1]
                if (cell, q) not in copied:
                    copied.add((cell, q))
                    z[(cell, q)] = list(z.get((cell, q), [0] * size))
                z[(cell, q)][i - off] -= v * x
        return z


def _single_step_data(result):
    sheaf = result.sheaf
    R = sheaf.untruncated
    if R is None or sheaf.inclusions is None or R.source is None:
        raise DualityError(
            "sheaf records no truncation of a pushforward; build it through "
            "the constructions in this package")
    return R


class PairingContext:
    """Everything needed to pair classes of two truncation results.

    Built once per pair of results and owned by the caller: the top
    truncation T of the ambient sheaf, its layout, the functional phi that
    reads a top class of T against the canonical generator, and, for each
    degree asked about, the index structures of an ambient pushforward
    deep enough for it (`ambient`).  `value` pairs two cochains, `matrix`
    pairs the cohomology bases of complementary degrees; each ambient is
    built on first use and kept for the context's life.  The context keeps
    no bases: each result's unit reduction keeps its own per degree
    (`UnitReduction.lifts`), so every context on one result reads the
    same ones.  Only spaces with a single attachment step are supported.

    What is gathered of T.  The reader needs d = d_T^(n-1), the layout of
    degree n (the coordinates phi reads and `project_into` writes) and
    that of degree n - 1 (d's columns), so only the arrows into total
    degree n are gathered (`sheaves._incidence_into`, the loop
    `incidence_complex` gathers through, with its shape checks); T's
    incidence complex is never assembled.

    Sparse cochains.  The bases are the results' lifted classes as
    {coordinate: value} dicts (`UnitReduction.lifts`), never written out
    densely.  `matrix` embeds each class once, as the ambient blocks where
    it has support, and every value is read off the product of two
    embedded classes: the cup runs over the block pairs where both have
    support, and clearing, projection and phi read the product's own
    blocks (see `_Ambient`).

    The top-class reader.  A cell of dimension p has stalk degree at most
    n - p, so T has no total degree n + 1 (refused with CertificateError
    if it does): d_T^n = 0, every degree-n cochain is a cocycle, and
    H^n(T) is the cokernel of d = d_T^(n-1).  The forward pass of the
    elimination (`linalg._echelon`) runs once over [d | I].  Each of its
    rows is [lambda d | lambda] for the combination lambda of the rows of
    [d | I] it holds, and an unused row stays zero in every column already
    taken.  So the row that takes a pivot in the identity block, at
    column f, is [0 | phi] with phi d = 0, phi_f != 0 and phi_j = 0 for
    j < f.  The identity pivot columns are those of the RREF, that is the
    basis vectors independent of im d and the ones before them, so there
    is exactly one (DualityError otherwise): e_f is the first basis
    vector outside im d, and its class generates H^n(T).  The value is
    normalized against that class, whatever representatives
    `cohomology_basis` picks.  A top cochain z is c e_f + d w for
    exactly one c, the pairing value, and phi z = c phi_f + phi d w =
    c phi_f: `value` returns phi z / phi_f, with no elimination.  The
    certificate runs at every size, also under `python -O`: exactly one
    identity pivot, and one exact product phi d == 0 (CertificateError).

    What is reused.  When a result was truncated at cut_top itself (every
    refined result here, whose cutoff (c - 1) // 2 is c - 2 at the
    codimension-3 cone points, and every deligne result at perversity t,
    or at the upper perversity of a complementary pair whose cutoffs sum
    to cut_top), T is the plain truncation that result's sheaf refines
    (`sheaves.refine`), or the sheaf itself when it refines nothing; no
    cell is truncated again.  Otherwise T is `truncate(R, cut_top)`, R the
    first pushforward below that reaches cut_top.  An ambient's incidence
    complex is assembled lazily, once per ambient, and only if a product
    has components above cut_top to clear.  A degree-0 class sits in
    stalk degree 0, so in degrees 0 and n that takes a cutoff above
    cut_top, which no perversity gives: only middle degrees assemble it.

    The depth of each degree.  A degree-k class has stalk degrees at most
    min(k, cutoff), so the product of a degree-k class of the first
    result and a degree-(n - k) class of the second lands in stalk
    degrees up to min(cutoff_low, k) + min(cutoff_high, n - k).  The
    ambient for degree k holds every stalk degree up to
    D(k) = max(min(cutoff_low, k) + min(cutoff_high, n - k), cut_top):
    the top truncation is cut at cut_top, which reads degree cut_top + 1
    only over the fibers with no least cell, and a pushforward through
    cut_top holds those.  So D(0) = max(cutoff_high, cut_top) and D(n) =
    max(cutoff_low, cut_top), which a result cut at cut_top reaches by
    itself.  A recorded pushforward that reaches D(k) serves; otherwise
    the single-step pushforward of the rank-one constant sheaf is built
    through D(k) on first need, kept, and serves every later degree it
    reaches.  A pushforward's stalks are its brutal truncation, with the
    same blocks, offsets and maps in every degree it keeps, so which one
    serves moves no value.  The recorded pushforwards must have rank-one
    scalar inputs and the same stalk dimensions in the degrees both hold,
    refused (DualityError) when the context is built; a built one must
    match them too.
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
        # the pushforwards an ambient sits on: the recorded ones, then the
        # ones built for depths no earlier one reaches; and the _Ambient of
        # each that has served, by its place in the list
        self._pushforwards = list(dict.fromkeys(
            (_single_step_data(result_low), _single_step_data(result_high))))
        self._ambients = {}
        self._check_dims(self._pushforwards[-1])    # the recorded two
        for R in self._pushforwards:
            _rank_one(R)
        self.low, self.high = result_low, result_high
        self.n, self.cut_top = n, cut_top
        source = next((x for x in (result_low, result_high)
                       if x.sheaf.cutoff == cut_top), None)
        if source is None:
            R = self._pushforwards[self._reaching(cut_top)]
            self.top = sheaves.truncate(R, cut_top)
        else:
            self.top = source.sheaf.refines or source.sheaf
        self.top_layout, d = sheaves._incidence_into(self.top, n)
        if self.top_layout.get(n + 1):
            raise CertificateError(
                "top truncation has cochains in degree %d" % (n + 1))
        self.top_index = sheaves._block_index(self.top_layout)
        rows, _cols, pivots = _echelon(
            d.stack_cols(ExactMatrix.identity(d.rows)))
        gens = [(col, r) for col, r in pivots if col >= d.cols]
        if len(gens) != 1:
            raise DualityError(
                "top truncation has H^%d of rank %d, cannot normalize"
                % (n, len(gens)))
        col, r = gens[0]
        self.functional = {j - d.cols: x for j, x in rows[r].items()
                           if j >= d.cols}
        self.lead = rows[r][col]
        if _mul_rows([self.functional], _rows(d))[0]:
            raise CertificateError(
                "the top-class functional does not vanish on im d^%d"
                % (n - 1))

    def _check_dims(self, R):
        """Refuse (DualityError) a pushforward R whose stalk dimensions
        differ from those of the context's pushforwards in a degree both
        hold."""
        if not all(x is R or _same_dims(x, R) for x in self._pushforwards):
            raise DualityError(
                "ambient pushforwards differ; rebuild both results alike")

    def _reaching(self, depth):
        """The place in `_pushforwards` of the first one that holds every
        stalk degree up to `depth`; when none does, the single-step
        pushforward of the rank-one constant sheaf through `depth` is
        built and appended."""
        for i, R in enumerate(self._pushforwards):
            if _reaches(R, depth):
                return i
        space = self.low.space
        R = sheaves.derived_pushforward(
            sheaves.constant_sheaf(space, 1),
            space.filtration_stage(space.singular_levels()[0]), through=depth)
        self._check_dims(R)
        self._pushforwards.append(R)
        return len(self._pushforwards) - 1

    def ambient(self, k):
        """The `_Ambient` in which degree-k classes of the first result
        pair with degree-(n - k) classes of the second: the first
        pushforward that reaches D(k) (see the class docstring), its index
        structures built on first use and kept."""
        n = self.n
        if k < 0 or k > n:
            raise DegreeOutOfRange("degree %d outside 0..%d" % (k, n))
        depth = max(min(self.low.sheaf.cutoff, k)
                    + min(self.high.sheaf.cutoff, n - k), self.cut_top)
        i = self._reaching(depth)
        amb = self._ambients.get(i)
        if amb is None:
            amb = self._ambients[i] = _Ambient(self._pushforwards[i])
        return amb

    def project_into(self, z, degree):
        """Coordinates {coordinate: value} in the top truncation's
        incidence complex of an ambient window cochain z of `degree`, read
        off z's own blocks; CertificateError for a block outside the
        window, or at the cutoff outside the truncated subspace."""
        T = self.top
        out = {}
        for (cell, q), part in z.items():
            if not any(part):
                continue
            spot = self.top_index.get((cell, q))
            if spot is None or spot[0] != degree:
                raise CertificateError(
                    "cochain still sticks out of the truncation window at %r"
                    % (cell,))
            _, off, size = spot
            if q < T.cutoff:
                if len(part) != size:
                    raise CertificateError(
                        "ambient block %r of size %d against %d in the top "
                        "truncation" % (cell, len(part), size))
                coords = part
            else:
                # the top is a plain truncation, so its basis has unit rows
                # and the coordinates are part read there; one product
                # certifies that part lies in the span
                inc = T.inclusions[cell]
                if inc.units is None:
                    raise CertificateError(
                        "top truncation at %r has no unit rows" % (cell,))
                coords = [part[i] for i in inc.units]
                if inc.basis.apply(coords) != tuple(part):
                    raise CertificateError(
                        "component outside the truncated subspace at %r"
                        % (cell,))
            out.update((off + i, v) for i, v in enumerate(coords) if v)
        return out

    def _read(self, amb, z):
        """The pairing value of a top-degree cocycle z of the ambient amb:
        z cleared into the window and projected into the top truncation,
        then phi z / phi_f, reading phi only at z's support."""
        z = amb.clear_overshoot(z, self.n, self.cut_top)
        zt = self.project_into(z, self.n)
        phi = self.functional
        return Fraction(sum(phi[j] * v for j, v in zt.items()
                            if j in phi)) / self.lead

    def value(self, xa, k, yb):
        """Pairing of a degree-k cochain of the first result with a
        degree-(n-k) cochain of the second (coordinate vectors of their
        incidence complexes)."""
        amb, n = self.ambient(k), self.n
        x = amb.embed(self.low, _support(xa), k)
        y = amb.embed(self.high, _support(yb), n - k)
        return self._read(amb, amb.cup(x, y))

    def matrix(self, k):
        """PairingMatrix of H^k of the first result against H^(n-k) of the
        second, in their deterministic cohomology bases.  Each basis class
        is embedded once, and every value is read off the product of two
        embedded classes."""
        amb, n = self.ambient(k), self.n
        xs = [amb.embed(self.low, x, k)
              for x in self.low.reduction.lifts(k)]
        ys = [amb.embed(self.high, y, n - k)
              for y in self.high.reduction.lifts(n - k)]
        rows = [[self._read(amb, amb.cup(x, y)) for y in ys] for x in xs]
        mat = ExactMatrix.from_rows(rows) if rows else \
            ExactMatrix.zeros(0, len(ys))
        return PairingMatrix(mat, k, n - k, label="%s x %s" % (
            self.low.label, self.high.label))


def _support(vec):
    """{coordinate: value} over the nonzero entries of a vector."""
    return {i: v for i, v in enumerate(vec) if v}


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


def stratumwise_duality(space):
    """Mirror audit of the stratumwise table.

    Reports the total row against its reversal degree by degree; closed
    oriented manifolds come out symmetric, singular spaces generally do
    not, and the failure locations are the content.
    """
    from .ic import stratumwise_rows, stratumwise_total
    rows = stratumwise_rows(space)
    width = space.dim + 1
    total = stratumwise_total(rows)
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
    """Comparison of a product invariant with the factorwise prediction.
    `closed_strata_ok` is set in stratumwise mode only."""

    closed_strata_ok = None

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

    In stratumwise mode the `prediction` verdict holds by construction:
    the product table is a sum of convolutions of factor rows
    (`ic.product_rows`), convolution is bilinear and is not cut below
    width dim + 1, so the total of the table is the convolution of the
    factor totals for any factors.  Only the closed strata recomputed
    from their own cochains (the detail rows, `closed_strata_ok`) check
    the table independently.
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
    # stratumwise: table of the product vs convolved factor tables (each
    # factor's rows computed once feed both), and a direct recomputation
    # of every closed product stratum
    from .ic import (_closed_cohomology, product_rows, stratumwise_rows,
                     stratumwise_total)
    rows_l, rows_r = stratumwise_rows(left), stratumwise_rows(right)
    prod_rows = product_rows(rows_l, rows_r, width)
    total = stratumwise_total(prod_rows)
    predicted = _convolve(stratumwise_total(rows_l),
                          stratumwise_total(rows_r), width)
    detail = []
    for p in sorted(prod_rows):
        cells = prod.stratum(p)
        if spaces.missing_face(cells, set(cells)) is not None:
            continue
        direct = _closed_cohomology(prod, cells)
        direct = tuple(direct.get(k, 0) for k in range(width))
        row = tuple(prod_rows[p])
        detail.append({"level": p, "direct": list(direct), "table": list(row),
                       "ok": direct == row})
    report = KunnethReport(mode, total, predicted, detail)
    report.closed_strata_ok = all(d["ok"] for d in detail)
    return report


# -- fibrewise decomposition ----------------------------------------------

def _section_slice(prod, vertex):
    """Cells of the slice (left factor) x {vertex} of a product."""
    nr = prod.n_right
    return [c for c in prod.complex.cells
            if all(v % nr == vertex for v in c)]


def fibration_decomposition(section):
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
    interval = get_example("interval")
    prod = spaces.product(section, interval)
    d = section.dim
    width = prod.dim + 1
    # restratify: the bottom slice is a codimension-one stratum
    slice_cells = _section_slice(prod, 0)
    bottom = set(slice_cells)
    levels = {c: (d if c in bottom else d + 1) for c in prod.complex.cells}
    total_space = spaces.StratifiedComplex(prod.complex, levels)
    total_row = tuple(prod.complex.betti_numbers())
    sec_betti = section.complex.betti_numbers()
    cut = d - 1
    quotient, cmap = spaces.collapse(total_space, slice_cells)
    Rf = sheaves.kan_pushforward(sheaves.constant_sheaf(total_space),
                                 cmap, quotient, through=cut)
    coh = sheaves.sheaf_cohomology(sheaves.truncate(Rf, cut))
    ih_row = tuple(coh.get(k, 0) for k in range(width))
    report = {
        "schema": 1,
        "section_cells": len(section.complex.cells),
        "total_cells": len(prod.complex.cells),
        "cone_cells": len(quotient.complex.cells),
        "cutoff": cut,
        "mode": "pushforward",
        "rows": {"total": list(total_row), "ih": list(ih_row)},
        "notes": [],
    }
    sky = tuple(sec_betti[q] if cut < q < len(sec_betti) else 0
                for q in range(width))
    literal = tuple(sec_betti[k - 2] if 0 <= k - 2 < len(sec_betti) else 0
                    for k in range(width))
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

def intersection_number(space, class_a, class_b, p, q):
    """Exact rational intersection number of two cohomology classes of a
    space without singular strata.

    The classes are simplicial cochain vectors and their product is read
    against the fundamental class.  Degrees that do not sum to the
    dimension pair to zero, so the value is an honest 0 rather than an
    error.  Classes of intersection sheaves pair through
    `PairingContext.value`.
    """
    n = space.dim
    if p < 0 or q < 0 or p > n or q > n:
        raise DegreeOutOfRange(
            "degrees (%d, %d) outside 0..%d" % (p, q, n))
    if p + q != n:
        # complementary-degree bookkeeping: the pairing vanishes
        return Fraction(0)
    if space.singular_levels():
        raise DualityError(
            "plain cup evaluation needs a nonsingular space; pair classes "
            "of truncation results through PairingContext for %r"
            % space.singular_levels())
    cx = space.complex
    return _cup_eval(orient_top_cells(cx), p, class_a, class_b,
                     _positions(cx, p), _positions(cx, q))


def local_contribution(space, mezzo, level=None):
    """Rank of W meeting its perpendicular at one singular stratum.

    The local count an intersection pairing picks up at an isolated
    singular point is the rank of W intersected with its perp under the
    link form; a Lagrangian W gives the full middle rank, a W meeting its
    perp trivially gives zero.
    """
    from . import ic
    if level is None:
        levels = space.singular_levels()
        if len(levels) != 1:
            raise DualityError("pass level= unless there is exactly one "
                               "singular stratum, got %r" % levels)
        level = levels[0]
    if level not in space.stratum_levels():
        raise StratumNotFound("no stratum at level %d" % level)
    out = {}
    for vertex in sorted(space.stratum(level)):
        if vertex not in mezzo.choices:
            raise StratumNotFound(
                "no refinement subspace at cell %r" % (vertex,))
        W = mezzo.choices[vertex]
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
