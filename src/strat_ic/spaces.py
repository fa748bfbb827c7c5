"""Stratified simplicial complexes and their constructors.

A simplicial complex stores its full face-closed cell set; every cell is a
strictly increasing tuple of vertex indices and the global cell order is
(dimension, lexicographic).  A stratified complex adds a filtration by closed
subcomplexes, encoded as the minimal filtration level of each cell.

Constructors (cone, suspension, product, collapse, link) re-run the full
validation on their output; nothing is trusted by construction.
"""

from __future__ import annotations

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
    """Finite abstract simplicial complex on vertices 0..n-1."""

    def __init__(self, n_vertices, simplices, close=True):
        self.n_vertices = int(n_vertices)
        cells = set()
        for s in simplices:
            t = _normalize_cell(s)
            if not t:
                raise BadSimplex("empty simplex")
            if t[0] < 0 or t[-1] >= self.n_vertices:
                raise BadSimplex("vertex out of range in %r" % (t,))
            cells.add(t)
        if close:
            cells = closure(cells)
        else:
            missing = missing_face(cells, cells)
            if missing:
                raise FiltrationNotClosed("cell %r missing face %r" % missing)
        self.cells = tuple(sorted(cells, key=lambda c: (len(c), c)))
        self.cell_index = {c: i for i, c in enumerate(self.cells)}

    @property
    def dim(self):
        return max((len(c) for c in self.cells), default=0) - 1

    def f_vector(self):
        out = [0] * (self.dim + 1)
        for c in self.cells:
            out[len(c) - 1] += 1
        return tuple(out)

    def euler_characteristic(self):
        return sum((-1) ** (len(c) - 1) for c in self.cells)

    def cells_of_dim(self, d):
        return [c for c in self.cells if len(c) == d + 1]

    def maximal_cells(self):
        """Cells that are no cell's facet, in cell order.  The complex is
        closed under faces, so these are the cells in no larger cell."""
        facets = {c[:i] + c[i + 1:] for c in self.cells for i in range(len(c))}
        return [c for c in self.cells if c not in facets]

    def coboundary_matrix(self, k):
        """Matrix of d^k from k-cochains to (k+1)-cochains, integer entries.

        The incidence number of sigma < tau is its sign in `facets(tau)`.
        """
        rows = self.cells_of_dim(k + 1)
        cols = self.cells_of_dim(k)
        col_index = {c: j for j, c in enumerate(cols)}
        ent = {(i, col_index[face]): sign for i, tau in enumerate(rows)
               for face, sign in facets(tau)}
        return ExactMatrix(len(rows), len(cols), ent)

    def cochain_complex(self):
        dims = {k: len(self.cells_of_dim(k)) for k in range(self.dim + 1)}
        diffs = {k: self.coboundary_matrix(k) for k in range(self.dim)}
        return CochainComplex(dims, diffs)

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
    `product`, None for any other space.
    """

    factors = None

    def __init__(self, complex_, levels, check=True):
        self.complex = complex_
        self.levels = {tuple(c): int(p) for c, p in levels.items()}
        if set(self.levels) != set(complex_.cells):
            raise BadLevelMap("level map must cover all cells")
        self.top = max(self.levels.values(), default=0)
        if check:
            self.validate()

    # -- structure ---------------------------------------------------------

    def stratum_levels(self):
        return sorted(set(self.levels.values()))

    def stratum(self, p):
        """Cells of S^p = X^p minus X^{p-1}, sorted."""
        return sorted((c for c, q in self.levels.items() if q == p),
                      key=lambda c: (len(c), c))

    def strata(self):
        return {p: self.stratum(p) for p in self.stratum_levels()}

    def filtration_stage(self, p):
        return sorted((c for c, q in self.levels.items() if q <= p),
                      key=lambda c: (len(c), c))

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
    levels = {c: complex_.dim for c in complex_.cells}
    return StratifiedComplex(complex_, levels)


# -- constructors ----------------------------------------------------------

def _apex_join(s, n_apexes):
    """Join with `n_apexes` fresh vertices after the base's; no two apexes
    share a cell.

    Each apex is its own level-0 stratum; every other level shifts up by
    one, so the join over the p-th stage is the (p+1)-st stage.
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
    complex_ = SimplicialComplex(base.n_vertices + n_apexes, levels,
                                 close=False)
    return StratifiedComplex(complex_, levels)


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


def product_vertex(u, v, n_right):
    return u * n_right + v


def product(sx, sy):
    """Categorical product of ordered-vertex complexes.

    Simplices are the monotone staircase chains over pairs of factor
    simplices; a product cell's level is the sum of its projections' levels.
    """
    bx, by = sx.complex, sy.complex
    ny = by.n_vertices
    cells = set()
    levels = {}
    for a in bx.cells:
        pa = len(a) - 1
        la = sx.levels[a]
        for b in by.cells:
            qb = len(b) - 1
            lb = sy.levels[b]
            for chain in _staircase_chains(pa, qb):
                cell = tuple(sorted(product_vertex(a[i], b[j], ny)
                                    for (i, j) in chain))
                cells.add(cell)
                levels[cell] = la + lb
    complex_ = SimplicialComplex(bx.n_vertices * ny, sorted(cells), close=False)
    out = StratifiedComplex(complex_, levels)
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
    complex_ = SimplicialComplex(nxt, sorted(levels), close=False)
    return StratifiedComplex(complex_, levels), cell_map


def link(s, sigma):
    """Link of a cell, as a stratified complex with relabeled vertices.

    The returned object carries `vertex_map` (link vertex -> ambient vertex)
    and `base_cell`.  Stratification: ambient level minus (dim sigma + 1)
    when that shift lands every cell at a level >= its own dimension's needs;
    otherwise the link is returned with a single stratum at its dimension.
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
    complex_ = SimplicialComplex(len(verts), cells, close=False)
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
