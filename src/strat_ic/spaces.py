"""Stratified simplicial complexes and their constructors.

A simplicial complex stores its full face-closed cell set; every cell is a
strictly increasing tuple of vertex indices and the global cell order is
(dimension, lexicographic).  A stratified complex adds a filtration by closed
subcomplexes, encoded as the minimal filtration level of each cell.

Every stratified complex is valid: its stages are closed, dim X^p <= p, and
the frontier condition holds.  A caller's space is checked when it is built
(`StratifiedComplex(...)`, `build_stratified`, and so `--input` files);
the constructors below build through `SimplicialComplex._of` and
`StratifiedComplex._of`, and each docstring proves what it does not check:

- `single_stratum`, `cone` and `suspension` keep a valid filtration valid,
  so they run no check.
- `product` is closed and dimension-bounded by construction, but the level
  sum of two valid filtrations can break the frontier condition; it is
  read off the factors' stratum-closure tables, with no walk over the
  product's cells, and a product that breaks it is refused by `validate`.
- `collapse` and `link` build closed complexes but validate the
  filtration: a collapse can break the frontier condition, and `link`
  reads a refused shifted filtration as its cue to fall back to one
  stratum.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations

from .linalg import CochainComplex, ExactMatrix


class StratificationError(Exception):
    """Base class for structural errors in this module."""


class FiltrationNotClosed(StratificationError):
    pass


class FrontierViolation(StratificationError):
    pass


class SubcomplexNotClosed(StratificationError):
    pass


class CellNotFound(StratificationError):
    """A cell that is not a cell of the complex.  `where` is its (level
    key, position) in a filtration, when it came from one."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class BadSimplex(StratificationError):
    """A simplex that is empty, repeats a vertex or names a vertex out of
    range."""


class BadLevelMap(StratificationError):
    """A level map whose keys are not exactly the cells of the complex."""


def _normalize_cell(c):
    t = tuple(sorted(set(int(v) for v in c)))
    if len(t) != len(tuple(c)):
        raise BadSimplex("cell has repeated vertices: %r" % (c,))
    return t


def closure(cells):
    """Face closure of `cells`: the cells and all their nonempty faces.

    Faces are reached one dropped vertex at a time, and each face is expanded
    once, the first time it is reached.

    >>> sorted(closure([(0, 1, 2)]), key=lambda c: (len(c), c))
    [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    """
    out = set(cells)
    todo = list(out)
    while todo:
        c = todo.pop()
        if len(c) > 1:
            for i in range(len(c)):
                face = c[:i] + c[i + 1:]
                if face not in out:
                    out.add(face)
                    todo.append(face)
    return out


def faces(cell):
    """Every nonempty face of one cell: its nonempty vertex subsets, by
    size, then in order.

    >>> faces((0, 1, 2))
    [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    """
    return [e for r in range(1, len(cell) + 1)
            for e in combinations(cell, r)]


def facets(cell):
    """[(face, (-1)^i)] for the face dropping entry i of a sorted tuple (a
    cell, or a chain of cells), in order of i; a single entry has none.

    Every total complex here is signed by this rule, and the signs cancel
    around each codimension-2 face.  Let e be c without its entries i < j.
    Dropping j then i gives (-1)^j (-1)^i; dropping i, then j, now at
    position j - 1, gives (-1)^i (-1)^(j - 1).  So the two paths carry
    opposite signs, and arrows that compose to one map along both cancel.

    >>> facets((0, 2, 5))
    [((2, 5), 1), ((0, 5), -1), ((0, 2), 1)]
    """
    if len(cell) < 2:
        return []
    return [(cell[:i] + cell[i + 1:], (-1) ** i) for i in range(len(cell))]


def missing_face(cells, within):
    """First (cell, facet) in `cells` order whose facet is outside `within`,
    or None; `cells` is closed under faces inside `within` exactly when this
    is None.

    >>> missing_face([(0,), (0, 1)], {(0,), (0, 1)})
    ((0, 1), (1,))
    """
    for c in cells:
        for i in range(len(c)):
            face = c[:i] + c[i + 1:]
            if face and face not in within:
                return c, face
    return None


class SimplicialComplex:
    """Finite abstract simplicial complex on vertices 0..n-1.

    `cells` is sorted by (size, lexicographic), so the cells of one
    dimension form one run: `starts[d]` is the place of the first cell of
    dimension d, for d = 0..dim + 1, and `dim` is the size of the last cell
    less one (-1 for no cells).  A caller's simplices are normalized, range
    checked and closed (or checked to be closed) by `__init__`; the
    constructors of this package hand cell sets that are closed under faces
    by how they are built to `_of`.
    """

    @classmethod
    def _of(cls, n_vertices, cells):
        """Complex that takes `cells` as they are: strictly increasing
        tuples of vertices in 0..n_vertices-1, closed under faces by how its
        builder made them, so nothing is normalized or checked."""
        out = cls.__new__(cls)
        out._set(n_vertices, cells)
        return out

    def __init__(self, n_vertices, simplices, close=True):
        n_vertices = int(n_vertices)
        cells = set()
        for s in simplices:
            t = _normalize_cell(s)
            if not t:
                raise BadSimplex("empty simplex")
            if t[0] < 0 or t[-1] >= n_vertices:
                raise BadSimplex("vertex out of range in %r" % (t,))
            cells.add(t)
        if close:
            cells = closure(cells)
        else:
            missing = missing_face(cells, cells)
            if missing:
                raise FiltrationNotClosed("cell %r missing face %r" % missing)
        self._set(n_vertices, cells)

    def _set(self, n_vertices, cells):
        self.n_vertices = n_vertices
        self.cells = tuple(sorted(cells, key=lambda c: (len(c), c)))
        self.cell_index = {c: i for i, c in enumerate(self.cells)}
        self.dim = len(self.cells[-1]) - 1 if self.cells else -1
        starts = [0]
        for d in range(1, self.dim + 2):
            starts.append(bisect_left(self.cells, d + 1, starts[-1], key=len))
        self.starts = tuple(starts)

    def f_vector(self):
        s = self.starts
        return tuple(s[d + 1] - s[d] for d in range(self.dim + 1))

    def euler_characteristic(self):
        return sum((-1) ** d * n for d, n in enumerate(self.f_vector()))

    def cells_of_dim(self, d):
        if not 0 <= d <= self.dim:
            return ()
        return self.cells[self.starts[d]:self.starts[d + 1]]

    def maximal_cells(self):
        """Cells that are no cell's facet, in cell order.  The complex is
        closed under faces, so these are the cells in no larger cell."""
        facets = {c[:i] + c[i + 1:] for c in self.cells for i in range(len(c))}
        return [c for c in self.cells if c not in facets]

    def coboundary_matrix(self, k):
        """Matrix of d^k from k-cochains to (k+1)-cochains, integer entries.

        The incidence number of sigma < tau is its sign in `facets(tau)`:
        +-1 at a face of tau, which the complex holds since it is closed
        under faces, and each face of tau once, so the entries go in as
        they are (`ExactMatrix._of`).
        """
        rows = self.cells_of_dim(k + 1)
        cols = self.cells_of_dim(k)
        col_index = {c: j for j, c in enumerate(cols)}
        ent = {(i, col_index[face]): sign for i, tau in enumerate(rows)
               for face, sign in facets(tau)}
        return ExactMatrix._of(len(rows), len(cols), ent)

    def cochain_complex(self):
        """Simplicial cochains over the cells, d^k = `coboundary_matrix(k)`.

        d o d = 0 holds by the sign rule of `facets`: the entry of
        d^(k+1) d^k at (rho, sigma), for sigma a face of rho of codimension
        2, sums over the two cells between them, and the two paths drop the
        same two vertices of rho in the two orders, with opposite signs (see
        `facets`).  Every other entry is an empty sum.  So the complex is
        built through `CochainComplex._of`, with no product; the tests run
        `certify()` on it.
        """
        s = self.starts
        dims = {k: s[k + 1] - s[k] for k in range(self.dim + 1)}
        diffs = {k: self.coboundary_matrix(k) for k in range(self.dim)}
        return CochainComplex._of(dims, diffs)

    def betti_numbers(self):
        b = self.cochain_complex().betti_numbers()
        return tuple(b[k] for k in range(self.dim + 1))

    def connected_components(self, cells=None):
        """Partition cells into components; comparable cells are adjacent.

        With the default cell set this is topological connectivity.  For a
        subset (for instance one stratum) two cells are linked only through
        comparabilities staying inside the subset, which matches the topology
        of the union of their open cells.
        """
        if cells is None:
            cells = self.cells
        cells = sorted(set(cells), key=lambda c: (len(c), c))
        parent = {c: c for c in cells}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        cellset = set(cells)
        for c in cells:
            for face, _s in facets(c):
                if face in cellset:
                    ra, rb = find(c), find(face)
                    if ra != rb:
                        parent[ra] = rb
        groups = {}
        for c in cells:
            groups.setdefault(find(c), []).append(c)
        return sorted(groups.values(), key=lambda g: g[0])

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.n_vertices == other.n_vertices
                and self.cells == other.cells)

    def __repr__(self):
        return "SimplicialComplex(V=%d, f=%r)" % (self.n_vertices, self.f_vector())


class StratifiedComplex:
    """Simplicial complex with a filtration by closed subcomplexes.

    `levels[c]` is the smallest p with c in X^p.  The filtration is recovered
    as X^p = {c : levels[c] <= p}.  `factors` is the pair of factors of a
    `product` and `n_right` its right factor's vertex count; `vertex_map`
    and `base_cell` are recorded by `link`.  Each is None on a space that
    constructor did not make.  A caller's level map is checked by `validate`
    when the space is built; the constructors of this module that preserve
    a valid filtration by how they build it go through `_of` (see the
    module docstring).
    """

    factors = None
    n_right = None
    vertex_map = None
    base_cell = None

    @classmethod
    def _of(cls, complex_, levels):
        """Space that takes `levels` as it is: an int for every cell of
        `complex_`, keyed by its cell tuples, and a valid filtration by how
        its builder made it, so `validate` is not run."""
        out = cls.__new__(cls)
        out.complex, out.levels = complex_, levels
        out.top = max(levels.values(), default=0)
        return out

    def __init__(self, complex_, levels):
        self.complex = complex_
        self.levels = {tuple(c): int(p) for c, p in levels.items()}
        if set(self.levels) != set(complex_.cells):
            raise BadLevelMap("level map must cover all cells")
        self.top = max(self.levels.values(), default=0)
        self.validate()

    # -- structure ---------------------------------------------------------

    def stratum_levels(self):
        return sorted(set(self.levels.values()))

    def stratum(self, p):
        """Cells of S^p = X^p minus X^{p-1}, in cell order."""
        levels = self.levels
        return [c for c in self.complex.cells if levels[c] == p]

    def strata(self):
        return {p: self.stratum(p) for p in self.stratum_levels()}

    def filtration_stage(self, p):
        levels = self.levels
        return [c for c in self.complex.cells if levels[c] <= p]

    def singular_levels(self):
        return [p for p in self.stratum_levels() if p != self.top]

    def regular_part(self):
        return self.stratum(self.top)

    @property
    def dim(self):
        return self.complex.dim

    # -- validation --------------------------------------------------------

    def validate(self):
        """Certify the three conditions on the filtration.

        - Every stage X^p is closed: no face sits at a higher level than its
          cell.
        - dim X^p <= p: no cell sits at a level below its own dimension.
        - Frontier: the closure of a stratum that meets a lower stratum
          contains all of it.

        Raises FiltrationNotClosed or FrontierViolation on the first failure.
        """
        levels = self.levels
        for tau in self.complex.cells:
            for pos in range(len(tau)):
                face = tau[:pos] + tau[pos + 1:]
                if face and face in levels and levels[face] > levels[tau]:
                    raise FiltrationNotClosed(
                        "X^%d not closed: %r (level %d) has face %r at level %d"
                        % (levels[tau], tau, levels[tau], face, levels[face]))
        # a cell above its level breaks dim X^p <= p first at p = its level
        low = [(p, len(c), c) for c, p in levels.items() if len(c) - 1 > p]
        if low:
            p, _len, c = min(low)
            raise FiltrationNotClosed("dim X^%d exceeds %d at cell %r" % (p, p, c))
        # frontier condition, pairwise on strata
        strata = self.strata()
        closures = {p: closure(cells) for p, cells in strata.items()}
        lvls = self.stratum_levels()
        for i, p in enumerate(lvls):
            for q in lvls[:i]:
                lower = set(strata[q])
                met = closures[p] & lower
                if met and met != lower:
                    missing = sorted(lower - met)[0]
                    raise FrontierViolation(
                        "strata (%d, %d): closure of S^%d meets S^%d but misses %r"
                        % (p, q, p, q, missing))

    def __repr__(self):
        parts = ", ".join("%d:%d" % (p, len(self.stratum(p)))
                          for p in self.stratum_levels())
        return "StratifiedComplex(dim=%d, strata={%s})" % (self.dim, parts)


def build_stratified(complex_, filtration):
    """Assemble and certify a stratified complex.

    `filtration` maps level -> iterable of cells (cumulative stages or bare
    strata both work: a cell's level is the smallest key mentioning it).
    A listed cell that is not a cell of the complex raises CellNotFound.
    """
    placed = {}
    for key, cells in filtration.items():
        p = int(key)
        for i, c in enumerate(cells):
            c = _normalize_cell(c)
            if c not in complex_.cell_index:
                raise CellNotFound("filtration level %s lists %r, which is not "
                                   "a cell of the complex" % (key, c),
                                   where=(key, i))
            placed[c] = min(p, placed.get(c, p))
    levels = {}
    for c in complex_.cells:
        if c not in placed:
            raise FiltrationNotClosed("cell %r not placed by the filtration" % (c,))
        levels[c] = placed[c]
    return StratifiedComplex(complex_, levels)


def single_stratum(complex_):
    """`complex_` as one stratum at its dimension.

    Valid by construction: the one stage X^dim is the whole complex, which
    is closed and has dimension dim, and one stratum leaves no pair for the
    frontier condition.
    """
    levels = {c: complex_.dim for c in complex_.cells}
    return StratifiedComplex._of(complex_, levels)


# -- constructors ----------------------------------------------------------

def _apex_join(s, n_apexes):
    """Join with `n_apexes` fresh vertices after the base's; no two apexes
    share a cell.

    Each apex is its own level-0 stratum; every other level shifts up by
    one, so the join over the p-th stage is the (p+1)-st stage.  For a
    valid base the join is valid, so it is built through `_of`:

    - Closed: the apexes come after every base vertex, so c + (a,) is a
      sorted tuple, and its facets are c and f + (a,) for the facets f of c
      (or the apex (a,) when c is a vertex), all cells of the join, as the
      base is closed.
    - Stages closed: a facet of c, or of c + (a,), sits at its base level
      plus one, at most c's, or is an apex, at level 0.
    - dim X^p <= p: a base cell has dim c <= l(c) < l(c) + 1, and
      c + (a,) has dimension dim c + 1 <= l(c) + 1.
    - Frontier: the closure of the stratum at level p + 1 >= 1 is
      cl(S^p), cl(S^p) + (a,) for every apex a, and every apex.  It meets
      the stratum at q + 1, which is S^q and S^q + (a,) for every a, only
      where cl(S^p) meets S^q, and then holds S^q whole (the base's
      frontier condition), and with it the whole stratum.  It holds all of
      the level-0 stratum, the apexes.
    """
    base = s.complex
    apexes = [(v,) for v in range(base.n_vertices,
                                  base.n_vertices + n_apexes)]
    levels = dict.fromkeys(apexes, 0)
    for c in base.cells:
        lvl = s.levels[c] + 1
        levels[c] = lvl
        for a in apexes:
            levels[c + a] = lvl
    complex_ = SimplicialComplex._of(base.n_vertices + n_apexes, levels)
    return StratifiedComplex._of(complex_, levels)


def cone(s):
    """Cone with a fresh apex as the last vertex."""
    return _apex_join(s, 1)


def suspension(s):
    """Double cone: two fresh apexes, both at level 0."""
    return _apex_join(s, 2)


def _staircase_chains(p, q):
    """Monotone chains through the (p+1) x (q+1) grid hitting every row and
    column: the simplices of the product of a p-simplex and a q-simplex that
    project onto both factors.  Steps move +1 in one or both coordinates."""
    out = []

    def walk(i, j, acc):
        if i == p and j == q:
            out.append(tuple(acc))
            return
        if i < p:
            walk(i + 1, j, acc + [(i + 1, j)])
        if j < q:
            walk(i, j + 1, acc + [(i, j + 1)])
        if i < p and j < q:
            walk(i + 1, j + 1, acc + [(i + 1, j + 1)])

    walk(0, 0, [(0, 0)])
    return out


def _closure_levels(s):
    """{p: the levels of the cells in the closure of S^p} of a valid space.

    A facet at level q of a cell at level p puts a cell of S^q into
    cl(S^p).  In a valid space that puts all of S^q into cl(S^p) (frontier
    condition), and so cl(S^q) too.  So the table is the reflexive and
    transitive closure of the facet relation on levels.  A facet never sits
    above its cell, so the rows complete in increasing level order.
    """
    levels = s.levels
    below = {p: {p} for p in s.stratum_levels()}
    for c, p in levels.items():
        for face, _sign in facets(c):
            below[p].add(levels[face])
    for p in sorted(below):
        for q in sorted(below[p]):
            if q < p:
                below[p] |= below[q]
    return below


def _product_frontier_holds(sx, sy):
    """Whether the level-sum filtration of sx x sy meets the frontier
    condition, for valid factors, read off their `_closure_levels`.

    The product cells over a pair of factor cells (a, b) are the staircase
    chains over them, and their faces are the chains over the pairs of
    faces (a', b') (each chain over (a', b') extends to a maximal chain
    over (a, b)).  Write P(c, d) for the product cells over S^c x S^d, one
    nonempty block for each pair of factor levels.  The product stratum at
    level q is the union of P(a, b) over a + b = q.  Its closure meets
    P(c, d) exactly when some such (a, b) has c among the closure levels
    of a and d among those of b, and then holds all of P(c, d), by the
    factors' frontier conditions.  So the closure of stratum q holds
    stratum p < q exactly when it holds every P(c, d) with c + d = p, and
    the condition asks for that whenever it holds one.
    """
    bx, by = _closure_levels(sx), _closure_levels(sy)
    pairs = {}
    for a in bx:
        for b in by:
            pairs.setdefault(a + b, []).append((a, b))
    for q, above in pairs.items():
        for p, lower in pairs.items():
            if p >= q:
                continue
            under = [any(c in bx[a] and d in by[b] for a, b in above)
                     for c, d in lower]
            if any(under) and not all(under):
                return False
    return True


def product(sx, sy):
    """Categorical product of ordered-vertex complexes.

    Simplices are the monotone staircase chains over pairs of factor
    simplices, the pair of vertices (u, v) numbered u * n_right + v; a
    product cell's level is the sum of its projections' levels.

    For valid factors the product is closed and dimension-bounded by
    construction, so it is built through `_of` once its frontier condition
    holds:

    - Closed: a chain is monotone in both coordinates, so its vertices
      u * n_right + v increase along it.  Dropping one vertex leaves a
      monotone chain that projects onto faces a' of a and b' of b, with
      steps of +1 in one or both coordinates once reindexed onto them: a
      staircase chain over (a', b'), cells of the factors, so a product
      cell.  Each cell projects onto one pair, so its level is well
      defined.
    - Stages closed: a face projects onto faces, at factor levels at most
      those of a and b.
    - dim X^p <= p: a chain over (a, b) has dimension at most
      dim a + dim b <= l(a) + l(b).
    - Frontier: not implied.  The level sum of two valid filtrations can
      break it (cone-point x cone-cone-interval does), so it is read off
      the factors' closure tables (`_product_frontier_holds`).  A product
      that breaks it is handed to `validate`, which raises the
      FrontierViolation that names the pair of strata.
    """
    bx, by = sx.complex, sy.complex
    ny = by.n_vertices
    chains = {}
    levels = {}
    for a in bx.cells:
        pa = len(a) - 1
        la = sx.levels[a]
        for b in by.cells:
            qb = len(b) - 1
            lb = sy.levels[b]
            if (pa, qb) not in chains:
                chains[pa, qb] = _staircase_chains(pa, qb)
            for chain in chains[pa, qb]:
                levels[tuple(a[i] * ny + b[j] for i, j in chain)] = la + lb
    complex_ = SimplicialComplex._of(bx.n_vertices * ny, levels)
    out = StratifiedComplex._of(complex_, levels)
    if not _product_frontier_holds(sx, sy):
        out.validate()
    out.factors = (sx, sy)
    out.n_right = ny
    return out


def collapse(s, subcells):
    """Collapse a nonempty closed subcomplex to a fresh vertex at index 0.

    Returns (quotient, cell_map) where cell_map sends each source cell to its
    image cell.  The image complex is the honest simplicial image; for the
    shipped uses (a factor slice inside a product) it is also the topological
    quotient.  The new vertex sits at filtration level 0; other cells keep the
    minimum level over their preimages.

    The image complex is closed by construction: a face of an image cell is
    the image of the face of a preimage spanned by the vertices that map
    into it.  The filtration is not: a collapse can break the frontier
    condition, so the quotient is validated.
    """
    sub = {_normalize_cell(c) for c in subcells}
    if not sub:
        raise SubcomplexNotClosed("empty subcomplex")
    for c in sub:
        if c not in s.complex.cell_index:
            raise SubcomplexNotClosed("cell %r not in the complex" % (c,))
    missing = missing_face(sub, sub)
    if missing:
        raise SubcomplexNotClosed(
            "subcomplex misses face %r of %r" % (missing[1], missing[0]))
    collapsed_vertices = {v for c in sub for v in c}
    vmap = {}
    nxt = 1
    for v in range(s.complex.n_vertices):
        if v in collapsed_vertices:
            vmap[v] = 0
        else:
            vmap[v] = nxt
            nxt += 1
    cell_map = {}
    levels = {}
    for c in s.complex.cells:
        img = tuple(sorted({vmap[v] for v in c}))
        cell_map[c] = img
        lvl = 0 if img == (0,) else s.levels[c]
        if img in levels:
            levels[img] = min(levels[img], lvl)
        else:
            levels[img] = lvl
    complex_ = SimplicialComplex._of(nxt, levels)
    return StratifiedComplex(complex_, levels), cell_map


def link(s, sigma):
    """Link of a cell, as a stratified complex with relabeled vertices.

    The returned object carries `vertex_map` (link vertex -> ambient vertex)
    and `base_cell`.  Stratification: ambient level minus (dim sigma + 1)
    when that shift lands every cell at a level >= its own dimension's needs;
    otherwise the link is returned with a single stratum at its dimension.

    The link is closed by construction: a face f of c with c + sigma a cell
    has f + sigma a cell too, and the relabeling keeps the vertex order.
    The shifted filtration is validated, and refused it falls back to one
    stratum.
    """
    sigma = _normalize_cell(sigma)
    if sigma not in s.complex.cell_index:
        raise CellNotFound("no cell %r" % (sigma,))
    sigset = set(sigma)
    ambient = []
    for c in s.complex.cells:
        if sigset & set(c):
            continue
        joined = tuple(sorted(c + sigma))
        if joined in s.complex.cell_index:
            ambient.append(c)
    verts = sorted({v for c in ambient for v in c})
    vmap = {v: i for i, v in enumerate(verts)}
    cells = [tuple(vmap[v] for v in c) for c in ambient]
    complex_ = SimplicialComplex._of(len(verts), cells)
    shift = len(sigma)  # dim sigma + 1
    shifted = {}
    ok = True
    for c, amb in zip(cells, ambient):
        lvl = s.levels[amb] - shift
        if lvl < 0:
            ok = False
            break
        shifted[c] = lvl
    if ok and shifted:
        try:
            out = StratifiedComplex(complex_, shifted)
        except StratificationError:
            out = single_stratum(complex_)
    else:
        out = single_stratum(complex_)
    out.vertex_map = {i: v for v, i in vmap.items()}
    out.base_cell = sigma
    return out
