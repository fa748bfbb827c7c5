"""Stratified simplicial complexes and their constructors.

A simplicial complex stores its full face-closed cell set; every cell is a
strictly increasing tuple of vertex indices and the global cell order is
(dimension, lexicographic).  A stratified complex adds a filtration by closed
subcomplexes, encoded as the minimal filtration level of each cell, plus one
coefficient group per level.

Constructors (cone, suspension, product, collapse, link) re-run the full
validation on their output; nothing is trusted by construction.
"""

from __future__ import annotations

from .linalg import CochainComplex, ExactMatrix, FGAbelianGroup


class StratificationError(Exception):
    """Base class for structural errors in this module."""


class FiltrationNotClosed(StratificationError):
    pass


class FrontierViolation(StratificationError):
    pass


class SubcomplexNotClosed(StratificationError):
    pass


class CellNotFound(StratificationError):
    pass


def _normalize_cell(c):
    t = tuple(sorted(set(int(v) for v in c)))
    assert len(t) == len(tuple(c)), "cell has repeated vertices: %r" % (c,)
    return t


class SimplicialComplex:
    """Finite abstract simplicial complex on vertices 0..n-1."""

    def __init__(self, n_vertices, simplices, close=True):
        self.n_vertices = int(n_vertices)
        cells = set()
        for s in simplices:
            t = _normalize_cell(s)
            assert t, "empty simplex"
            assert t[-1] < self.n_vertices, "vertex out of range in %r" % (t,)
            cells.add(t)
            if close:
                # all nonempty proper faces
                k = len(t)
                for mask in range(1, (1 << k) - 1):
                    face = tuple(t[i] for i in range(k) if mask >> i & 1)
                    cells.add(face)
        if not close:
            for t in list(cells):
                for i in range(len(t)):
                    face = t[:i] + t[i + 1:]
                    if face and face not in cells:
                        raise FiltrationNotClosed(
                            "cell %r missing face %r" % (t, face))
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

    def coboundary_matrix(self, k):
        """Matrix of d^k from k-cochains to (k+1)-cochains, integer entries.

        The incidence number of sigma < tau = sigma + {v} is (-1)^i where i
        is the position of v in tau.
        """
        rows = self.cells_of_dim(k + 1)
        cols = self.cells_of_dim(k)
        col_index = {c: j for j, c in enumerate(cols)}
        ent = {}
        for i, tau in enumerate(rows):
            for pos in range(len(tau)):
                face = tau[:pos] + tau[pos + 1:]
                j = col_index.get(face)
                if j is not None:
                    ent[(i, j)] = (-1) ** pos
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
            for i in range(len(c)):
                face = c[:i] + c[i + 1:]
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


class FacePoset:
    """Covering relations of the face poset, with incidence signs."""

    def __init__(self, complex_):
        self.complex = complex_
        self.covers_up = {c: [] for c in complex_.cells}    # cell -> [(coface, sign)]
        self.covers_down = {c: [] for c in complex_.cells}  # cell -> [(face, sign)]
        for tau in complex_.cells:
            for pos in range(len(tau)):
                face = tau[:pos] + tau[pos + 1:]
                if face and face in complex_.cell_index:
                    sign = (-1) ** pos
                    self.covers_up[face].append((tau, sign))
                    self.covers_down[tau].append((face, sign))

    def open_star(self, sigma):
        """All cells containing sigma (sigma included): an open up-set."""
        out = [c for c in self.complex.cells if set(sigma) <= set(c)]
        return out

    def is_up_set(self, cells):
        cellset = set(cells)
        for c in cells:
            for tau, _ in self.covers_up[c]:
                if tau not in cellset:
                    return False
        return True


class StratifiedComplex:
    """Simplicial complex with a filtration by closed subcomplexes.

    `levels[c]` is the smallest p with c in X^p.  The filtration is recovered
    as X^p = {c : levels[c] <= p}.  `coefficients[p]` is the coefficient
    group attached to the level-p stratum (free rank 1 unless said otherwise).
    """

    def __init__(self, complex_, levels, coefficients=None, check=True):
        self.complex = complex_
        self.levels = {tuple(c): int(p) for c, p in levels.items()}
        assert set(self.levels) == set(complex_.cells), "level map must cover all cells"
        self.top = max(self.levels.values(), default=0)
        if coefficients is None:
            coefficients = {}
        self.coefficients = {int(p): g for p, g in coefficients.items()}
        for p in self.stratum_levels():
            self.coefficients.setdefault(p, FGAbelianGroup.free(1))
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

    def coefficient(self, p):
        return self.coefficients.get(p, FGAbelianGroup.free(1))

    def components_of_stratum(self, p):
        return self.complex.connected_components(self.stratum(p))

    # -- validation --------------------------------------------------------

    def validate(self):
        levels = self.levels
        for tau in self.complex.cells:
            for pos in range(len(tau)):
                face = tau[:pos] + tau[pos + 1:]
                if face and face in levels and levels[face] > levels[tau]:
                    raise FiltrationNotClosed(
                        "X^%d not closed: %r (level %d) has face %r at level %d"
                        % (levels[tau], tau, levels[tau], face, levels[face]))
        for p in self.stratum_levels():
            for c in self.filtration_stage(p):
                if len(c) - 1 > p:
                    raise FiltrationNotClosed(
                        "dim X^%d exceeds %d at cell %r" % (p, p, c))
        # frontier condition, pairwise on strata
        strata = self.strata()
        closures = {}
        for p, cells in strata.items():
            cl = set()
            for c in cells:
                k = len(c)
                cl.add(c)
                for mask in range(1, (1 << k) - 1):
                    face = tuple(c[i] for i in range(k) if mask >> i & 1)
                    cl.add(face)
            closures[p] = cl
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

    # -- serialization -----------------------------------------------------

    def to_json(self):
        filtration = {}
        for p in self.stratum_levels():
            filtration[str(p)] = [list(c) for c in self.filtration_stage(p)]
        return {
            "vertices": self.complex.n_vertices,
            "simplices": [list(c) for c in self.complex.cells],
            "filtration": filtration,
            "coefficients": {str(p): self.coefficient(p).to_json()
                             for p in self.stratum_levels()},
        }

    @classmethod
    def from_json(cls, obj):
        n = int(obj["vertices"])
        complex_ = SimplicialComplex(n, [tuple(s) for s in obj["simplices"]])
        filtration = obj.get("filtration")
        if not filtration:
            levels = {c: complex_.dim for c in complex_.cells}
        else:
            stages = sorted((int(p), {tuple(sorted(s)) for s in cells})
                            for p, cells in filtration.items())
            levels = {}
            for c in complex_.cells:
                lvl = None
                for p, cellset in stages:
                    if c in cellset:
                        lvl = p
                        break
                if lvl is None:
                    raise FiltrationNotClosed(
                        "cell %r missing from every filtration stage" % (c,))
                levels[c] = lvl
        coeffs = {}
        for p, g in (obj.get("coefficients") or {}).items():
            coeffs[int(p)] = FGAbelianGroup.from_json(g)
        return cls(complex_, levels, coeffs)

    def __repr__(self):
        parts = ", ".join("%d:%d" % (p, len(self.stratum(p)))
                          for p in self.stratum_levels())
        return "StratifiedComplex(dim=%d, strata={%s})" % (self.dim, parts)


def build_stratified(complex_, filtration, coefficients=None):
    """Assemble and certify a stratified complex.

    `filtration` maps level -> iterable of cells (cumulative stages or bare
    strata both work: a cell's level is the smallest key mentioning it).
    """
    stages = sorted((int(p), {_normalize_cell(c) for c in cells})
                    for p, cells in filtration.items())
    levels = {}
    for c in complex_.cells:
        lvl = None
        for p, cellset in stages:
            if c in cellset:
                lvl = p
                break
        if lvl is None:
            raise FiltrationNotClosed("cell %r not placed by the filtration" % (c,))
        levels[c] = lvl
    return StratifiedComplex(complex_, levels, coefficients)


def single_stratum(complex_, coefficients=None, level=None):
    lvl = complex_.dim if level is None else int(level)
    levels = {c: lvl for c in complex_.cells}
    return StratifiedComplex(complex_, levels, coefficients)


# -- constructors ----------------------------------------------------------

def cone(s):
    """Cone with a fresh apex as the last vertex.

    The apex is the unique level-0 stratum; every other level shifts up by
    one, so the cone over the p-th stage is the (p+1)-st stage.
    """
    base = s.complex
    apex = base.n_vertices
    cells = [c for c in base.cells]
    cells.extend(c + (apex,) for c in base.cells)
    cells.append((apex,))
    complex_ = SimplicialComplex(apex + 1, cells, close=False)
    levels = {(apex,): 0}
    for c in base.cells:
        levels[c] = s.levels[c] + 1
        levels[c + (apex,)] = s.levels[c] + 1
    coeffs = {0: FGAbelianGroup.free(1)}
    for p, g in s.coefficients.items():
        coeffs[p + 1] = g
    return StratifiedComplex(complex_, levels, coeffs)


def suspension(s):
    """Double cone: two fresh apexes, both at level 0."""
    base = s.complex
    north = base.n_vertices
    south = base.n_vertices + 1
    cells = [c for c in base.cells]
    cells.extend(c + (north,) for c in base.cells)
    cells.extend(c + (south,) for c in base.cells)
    cells.extend([(north,), (south,)])
    complex_ = SimplicialComplex(south + 1, cells, close=False)
    levels = {(north,): 0, (south,): 0}
    for c in base.cells:
        lvl = s.levels[c] + 1
        levels[c] = lvl
        levels[c + (north,)] = lvl
        levels[c + (south,)] = lvl
    coeffs = {0: FGAbelianGroup.free(1)}
    for p, g in s.coefficients.items():
        coeffs[p + 1] = g
    return StratifiedComplex(complex_, levels, coeffs)


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


def product_projections(cell, n_right):
    """Split a product cell back into its two factor cells."""
    left = tuple(sorted({v // n_right for v in cell}))
    right = tuple(sorted({v % n_right for v in cell}))
    return left, right


def product(sx, sy):
    """Categorical product of ordered-vertex complexes.

    Simplices are the monotone staircase chains over pairs of factor
    simplices; a product cell's level is the sum of its projections' levels,
    and the level-k coefficient group is the sum over i + j = k of the tensor
    products of factor groups.
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
    coeffs = {}
    for i, gi in sx.coefficients.items():
        for j, hj in sy.coefficients.items():
            k = i + j
            t = gi.tensor(hj)
            coeffs[k] = coeffs[k].direct_sum(t) if k in coeffs else t
    out = StratifiedComplex(complex_, levels, coeffs)
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
        for i in range(len(c)):
            face = c[:i] + c[i + 1:]
            if face and face not in sub:
                raise SubcomplexNotClosed(
                    "subcomplex misses face %r of %r" % (face, c))
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
    coeffs = {0: FGAbelianGroup.free(1)}
    for p in set(levels.values()):
        if p and p in s.coefficients:
            coeffs[p] = s.coefficients[p]
    out = StratifiedComplex(complex_, levels, coeffs)
    out.collapsed_cells = sorted(sub, key=lambda c: (len(c), c))
    out.source = s
    return out, cell_map


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
