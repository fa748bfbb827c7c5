"""Cellular sheaves of cochain complexes and their cohomology.

A sheaf assigns to every cell a bounded cochain complex (the stalk, really
the complex of sections over the cell's open star) and to every face
relation a degreewise restriction map.  Every sheaf is certified: its
stalks square to zero and its restrictions are strictly functorial chain
maps of the stalks' shapes.  A caller's sheaf is checked by exact products
when it is built (`SheafComplex.validate`); the constructors below build
through `SheafComplex._of`, their output certified by how they build it,
at every size:

- `constant_sheaf`: identity restrictions.
- `kan_pushforward`: d o d = 0 on one global flag complex, whose arrows
  are emitted once (drops resolved to flag places once per flag, a drop
  that keeps the top cell, or any drop of a sheaf whose restrictions are
  identities, written as +-1 with no matrix) and written into
  each fiber at its offsets; every arrow into a fiber comes from inside
  it, and every fiber is nested in the fibers of its faces, so the
  projections, recorded as pick lists, are chain maps and compose.
- `truncate`: its maps below the cutoff, and at the cutoff maps through
  bases of the cocycles (the cone contraction's on a fiber with a least
  cell, else `kernel_basis`), each column with a row where it holds a
  lone 1.  One rule gives every map at the cutoff: its source, d^(k-1)
  or r B_a, is a cocycle, so it is read at the target basis's unit rows,
  with no solve and no product.  The contraction's unit pairs are recorded
  as it builds each basis (`matching`), for the result's reduction.
- `refine`: a truncation cut down to caller subspaces at chosen cells.
  Each subspace is read in the truncation's basis at its unit rows and
  checked by one exact product.  The maps at the cutoff that touch it
  are the truncation's in those coordinates, solved for (`solve_columns`,
  checked by one exact product) where it is the target; every other
  stalk and map is the truncation's own.

Cohomology over the whole complex uses the incidence total complex (one
summand per cell, horizontal differential weighted by incidence signs).
Over a proper open up-set that model computes the compactly supported
answer, so open sets get the flag complex instead: one summand per strict
chain of cells, with the alternating-drop differential.  Both are signed
by `spaces.facets`, so D o D = 0 on both (Curry, "Sheaves, Cosheaves and
Applications", 2014): the stalk terms square to zero, a chain map cancels
against the twist (-1)^dim of the stalk differentials, and the two paths
around a codimension-2 face carry one composite with opposite signs; so
`_total_complex` assembles both from their arrows with no product.
Pushforwards take the pointwise homotopy Kan extension: every stalk of
the image is a flag complex over the source cells sitting above the
target cell, and every restriction is a flag projection, which makes
functoriality strict instead of up-to-homotopy.  Those cells form an
up-set, so every stalk is a slice of one flag complex over all mapped
cells.  A canonical truncation at k reads a stalk in degree k + 1 only
where it eliminates (`kernel_basis`, on a fiber with no least cell); on a
fiber with one, the cone contraction reads degrees up to k.  So a
pushforward that feeds one is assembled through k, and through k + 1 only
over the fibers with no least cell and the fibers containing one (on each
stalk its brutal truncation: the same blocks in every degree it keeps).
Its restrictions are built as matrices below k alone; at k and k + 1 the
pick lists stand for them, and a reader that asks for one of those maps
gets its matrix made from the list (`SheafComplex._cover_matrix`).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, zip_longest
from types import MappingProxyType

from .linalg import (CertificateError, CochainComplex, ExactMatrix,
                     kernel_basis, rank, solve_many, unit_rows)
from .spaces import faces, facets, missing_face


class SheafError(Exception):
    pass


class NotOpen(SheafError):
    pass


class NotOpenComplement(SheafError):
    pass


def solve_columns(basis, target):
    """Matrix Y with basis * Y == target (`solve_many`): one elimination
    of both, checked by one exact product.  `refine` is its one caller.

    Raises SheafError when some column is not in the span: the caller picked
    a subspace that is not stable under the maps being expressed.
    """
    y = solve_many(basis, target)
    if y is None:
        raise SheafError("vector outside the chosen subspace")
    return y


class SheafComplex:
    """Stalk complexes on cells plus restriction maps along face relations.

    `restrictions[(a, b)][q]` is the degree-q matrix of the map stalk(a) ->
    stalk(b) for a covering pair a < b; missing degrees are zero maps,
    except where a pushforward records a pick list instead: one assembled
    through k (`through`) stores no matrix in degrees k and k + 1, which a
    truncation at k replaces, and its map there is the pick matrix of
    `projections[(a, b)][q]`.  Read a map through `restriction`, which
    gives the same matrix at every degree either way.  Restrictions along
    longer face relations are composites (functoriality makes them path
    independent).  A caller's sheaf is checked by `validate` when it is
    built; the constructors of this module build through `_of` (see the
    module docstring).

    Provenance, recorded by the constructors that build such sheaves:
    `identity_restrictions` by `constant_sheaf`, whose restrictions are
    identities; `least_cells`, `projections`, `through` and `source` (with
    `stalk_layouts`) by `kan_pushforward`; `untruncated`, `cutoff`,
    `inclusions` and `matching` by `truncate` and `refine`, and `refines`
    by `refine`.  Any other sheaf keeps the defaults below: restrictions as
    stored, no least cells, no pick lists or flag layouts, every stalk
    degree assembled, no input, no truncation, no matching.
    """

    identity_restrictions = False
    least_cells = MappingProxyType({})
    projections = None
    stalk_layouts = None
    through = None
    source = None
    untruncated = None
    cutoff = None
    inclusions = None
    matching = MappingProxyType({})
    refines = None

    @classmethod
    def _of(cls, space, stalks, restrictions):
        """Sheaf that takes its stalks and restrictions as they are: keyed
        by cell tuples, a stalk on every cell, and certified by how its
        builder made them, so `validate` is not run."""
        out = cls.__new__(cls)
        out.space, out.stalks, out.restrictions = space, stalks, restrictions
        out._composed = {}
        return out

    def __init__(self, space, stalks, restrictions):
        self.space = space
        self.stalks = {tuple(c): cx for c, cx in stalks.items()}
        self.restrictions = {(tuple(a), tuple(b)): dict(mats)
                             for (a, b), mats in restrictions.items()}
        self._composed = {}
        self.validate()

    def stalk(self, c):
        return self.stalks[tuple(c)]

    def degrees(self):
        lo = min(cx.lo for cx in self.stalks.values())
        hi = max(cx.hi for cx in self.stalks.values())
        return range(lo, hi + 1)

    def _cover_matrix(self, a, b, q):
        """Degree-q map along the cover a < b, read where it is stored: its
        matrix in `restrictions`, else the pick matrix of its pick list in
        `projections` (made on each call, not kept), else zero."""
        mats = self.restrictions.get((a, b))
        m = None if mats is None else mats.get(q)
        if m is not None:
            return m
        pick = (self.projections or {}).get((a, b), {}).get(q)
        if pick is not None:
            return _pick_matrix(pick, self.stalks[a].dim(q))
        return ExactMatrix(self.stalks[b].dim(q), self.stalks[a].dim(q), {})

    def restriction(self, a, b, q):
        """Degree-q component of the restriction along a <= b.

        Raises SheafError when a is not a face of b (checked on a cache
        miss only)."""
        a, b = tuple(a), tuple(b)
        key = (a, b, q)
        if key not in self._composed:
            if (a not in self.stalks or b not in self.stalks
                    or not set(a) <= set(b)):
                raise SheafError("%r is not a face of %r" % (a, b))
            if a == b:
                self._composed[key] = ExactMatrix.identity(
                    self.stalks[a].dim(q))
            elif (a, b) in self.restrictions or len(b) == len(a) + 1:
                self._composed[key] = self._cover_matrix(a, b, q)
            else:
                # peel one cover step off the top; any path gives the same map
                mid = next((face for face, _s in facets(b)
                            if set(a) <= set(face) and face in self.stalks),
                           None)
                if mid is None:
                    raise SheafError("no face path %r -> %r" % (a, b))
                outer = self._cover_matrix(mid, b, q)
                inner = self.restriction(a, mid, q)
                self._composed[key] = outer * inner
        return self._composed[key]

    def validate(self):
        """Check the sheaf by exact products: a stalk on every cell,
        restrictions stored on covering pairs with the shapes of their
        stalks, stalks that square to zero (CertificateError), chain maps
        and strict functoriality (SheafError)."""
        cells = self.space.complex.cells
        index = self.space.complex.cell_index
        if set(self.stalks) != set(cells):
            raise SheafError("stalks must cover all cells")
        for (a, b), mats in self.restrictions.items():
            if a not in index or b not in index:
                raise SheafError("restriction %r -> %r off the complex"
                                 % (a, b))
            if not (set(a) < set(b) and len(b) == len(a) + 1):
                raise SheafError("stored restrictions must follow covering "
                                 "pairs, got %r -> %r" % (a, b))
            for q, m in mats.items():
                want = (self.stalks[b].dim(q), self.stalks[a].dim(q))
                if m.shape != want:
                    raise SheafError("restriction %r -> %r in degree %d has "
                                     "shape %r, not %r"
                                     % (a, b, q, m.shape, want))
        for cx in self.stalks.values():
            cx.certify()
        # restrictions are chain maps
        for tau in cells:
            for (sig, _sign) in facets(tau):
                sx, tx = self.stalks[sig], self.stalks[tau]
                for q in range(min(sx.lo, tx.lo), max(sx.hi, tx.hi)):
                    left = self.restriction(sig, tau, q + 1) * sx.diff(q)
                    right = tx.diff(q) * self.restriction(sig, tau, q)
                    if left != right:
                        raise SheafError(
                            "restriction %r -> %r not a chain map at degree %d"
                            % (sig, tau, q))
        # strict functoriality across codimension-2 diamonds
        degrees = self.degrees()
        for rho in cells:
            for (mid, _s1) in facets(rho):
                for (sig, _s2) in facets(mid):
                    for q in degrees:
                        via = (self.restriction(mid, rho, q)
                               * self.restriction(sig, mid, q))
                        flat = self.restriction(sig, rho, q)
                        if via != flat:
                            raise SheafError(
                                "restrictions %r -> %r not functorial"
                                % (sig, rho))

    def total_dimension(self):
        return sum(cx.dim(q) for cx in self.stalks.values()
                   for q in cx.degrees())

    def __repr__(self):
        return "SheafComplex(cells=%d, degrees=%s, total=%d)" % (
            len(self.stalks), list(self.degrees()), self.total_dimension())


# -- constructors ----------------------------------------------------------

def constant_sheaf(space, coefficient=1):
    """The free stalk of rank `coefficient` in degree 0 on every cell,
    identity restrictions (recorded as `identity_restrictions`)."""
    stalk = CochainComplex({0: int(coefficient)}, {})
    stalks = {c: stalk for c in space.complex.cells}
    ident = {q: ExactMatrix.identity(stalk.dim(q)) for q in stalk.degrees()}
    out = SheafComplex._of(space, stalks, {(sig, tau): ident
                                           for tau in space.complex.cells
                                           for sig, _s in facets(tau)})
    out.identity_restrictions = True
    return out


# -- total complexes -------------------------------------------------------

def incidence_complex(sheaf):
    """Total complex over all cells: degree = cell dimension + stalk degree.

    Horizontal differential: incidence-signed restrictions along covers.
    Vertical: stalk differential twisted by (-1)^dim.  Computes the
    hypercohomology of the whole (compact) complex.

    Returns (complex, layout) where layout[k] is a list of blocks
    (cell, stalk_degree, offset, size).  The arrows into each block are
    gathered by `_incidence_arrows` and `_total_complex` assembles them.
    """
    layout, arrows = _incidence_arrows(sheaf)
    return _total_complex(layout, arrows), layout


def _incidence_into(sheaf, k):
    """(layout, d^(k-1)) of `incidence_complex(sheaf)`, from the arrows into
    total degree k alone: the same layout and the same matrix, with no
    other differential gathered or assembled."""
    layout, arrows = _incidence_arrows(sheaf, k)
    dims = _layout_dims(layout)
    shape = (dims.get(k, 0), dims.get(k - 1, 0))
    if k not in arrows:
        return layout, ExactMatrix._of(*shape, {})
    return layout, _differential(layout, arrows[k], k, shape)


def _incidence_arrows(sheaf, into=None):
    """(layout, arrows) of the incidence complex, the arrows gathered as
    `flag_complex` gathers them, with the same shape check: into every
    degree, or into degree `into` alone.  The arrows along `facets(c)` are
    covers, so each map is read where it is stored (`_cover_matrix`), with
    no face check and nothing kept in `restriction`'s cache."""
    cells = sheaf.space.complex.cells
    index = sheaf.space.complex.cell_index
    sizes = _stalk_sizes(sheaf, cells)
    layout, place = _layout(cells, lambda c: len(c) - 1, sizes)
    arrows = {k: [] for k in layout
              if k - 1 in layout and (into is None or k == into)}
    for n, c in enumerate(cells):
        twist = -1 if len(c) % 2 == 0 else 1
        for q, size in sizes[c]:
            out = arrows.get(len(c) - 1 + q)
            if out is None:
                continue
            below, mats = layout[len(c) - 2 + q], []
            d = sheaf.stalks[c].diffs.get(q - 1)
            spot = place.get((n, q - 1))
            if d is not None and spot is not None:
                if d.rows != size or d.cols != spot[1]:
                    _misfit(d, size, spot, below, (c, q))
                mats.append((spot[0], twist, d))
            for sig, sign in facets(c):
                spot = place.get((index[sig], q))
                if spot is not None:
                    r = sheaf._cover_matrix(sig, c, q)
                    if r.rows != size or r.cols != spot[1]:
                        _misfit(r, size, spot, below, (c, q))
                    if r.entries:
                        mats.append((spot[0], sign, r))
            out.append((mats, ()))
    return layout, arrows


def incidence_layout(sheaf):
    """The layout of `incidence_complex(sheaf)`, without assembling it."""
    cells = sheaf.space.complex.cells
    return _layout(cells, lambda c: len(c) - 1, _stalk_sizes(sheaf, cells))[0]


def _stalk_sizes(sheaf, cells):
    """cell -> [(q, dim)] for the nonzero degrees of its stalk, rising."""
    out = {}
    for c in cells:
        cx = sheaf.stalks[c]
        out[c] = [(q, n) for q, n in cx.dims.items() if n]
    return out


def _layout(keys, shift, sizes, top=lambda key: key, reach=None):
    """(layout, place) for blocks (key, q, offset, size) per total degree
    shift(key) + q, one for each nonzero stalk degree (q, size) in
    sizes[top(key)].

    `keys` come in (len(key), key) order, and with `reach` no total degree
    above reach(key) gets a block of key.  A key has one block per degree,
    so within a degree the blocks run by (len(key), key, q) as they
    arrive.  place[(i, q)] = (n, size) for the block of the i-th key in
    stalk degree q, the n-th of its degree.
    """
    layout, place = {}, {}
    for i, key in enumerate(keys):
        base = shift(key)
        cap = None if reach is None else reach(key)
        for q, size in sizes[top(key)]:
            if cap is not None and base + q > cap:
                break
            group = layout.setdefault(base + q, [])
            place[(i, q)] = (len(group), size)
            off = group[-1][2] + group[-1][3] if group else 0
            group.append((key, q, off, size))
    return layout, place


def _block_index(layout):
    """(key, q) -> (total degree, offset, size) for every block of a layout."""
    return {(key, q): (k, off, size)
            for k, blocks in layout.items() for (key, q, off, size) in blocks}


def _layout_dims(layout):
    """Total dimension of each degree from the lowest to the highest degree
    of a layout, zero where a degree has no block."""
    if not layout:
        return {}
    return {k: sum(blk[3] for blk in layout.get(k, ()))
            for k in range(min(layout), max(layout) + 1)}


def _misfit(mat, size, spot, below, target):
    """Refuse the arrow `mat` from the block at `spot` = (place, size) in
    the blocks `below`, which does not have the shape of its (target,
    source) block."""
    raise CertificateError("arrow %r -> %r has shape %r, not its block's %r"
                           % (below[spot[0]][:2], target, mat.shape,
                              (size, spot[1])))


def _arrow_entries(targets, into, sources, sizes, shape):
    """Entries of one differential of a total complex, from its arrows into
    degree k (into = arrows[k], see `flag_complex`): `targets` yields (n,
    offset) for the target blocks, n their place in the degree, sources[m]
    is the offset of the m-th block of degree k - 1, sizes[n] the size of
    the n-th block of degree k, and `shape` the differential's.  KeyError
    when a source is missing.  Each arrow fills its own block, so the
    entries are written once; the positions share one int per row and per
    column."""
    targets = list(targets)
    row, col = list(range(shape[0])), list(range(shape[1]))
    ent = {(row[toff + i], col[so + j]): v if sign > 0 else -v
           for n, toff in targets
           for m, sign, mat in into[n][0]
           for so in (sources[m],)
           for (i, j), v in mat.entries.items()}
    ent.update(((row[toff + x], col[so + x]), sign)
               for n, toff in targets
               for m, sign in into[n][1]
               for so in (sources[m],)
               for x in range(sizes[n]))
    return ent


def _total_complex(layout, arrows):
    """The total complex with `layout` and `arrows` (see `flag_complex`;
    `incidence_complex` gathers its arrows the same way), assembled.
    d o d = 0 holds on it by construction (see the module docstring)."""
    if not layout:
        return CochainComplex({0: 0}, {})
    dims = _layout_dims(layout)
    diffs = {k - 1: _differential(layout, into, k, (dims[k], dims[k - 1]))
             for k, into in arrows.items()}
    return CochainComplex._of(dims, diffs)


def _differential(layout, into, k, shape):
    """d^(k-1) of `shape`, from the arrows `into` degree k."""
    return ExactMatrix._of(*shape, _arrow_entries(
        ((n, blk[2]) for n, blk in enumerate(layout[k])), into,
        [blk[2] for blk in layout[k - 1]], [blk[3] for blk in layout[k]],
        shape))


def _flags(cells, longest=None, deeper=frozenset()):
    """Strict chains of the given cells under face inclusion, with their
    drops: (flags, drops).

    Cells are sorted vertex tuples.  The chains of length one are the
    cells in order, and the chains of each next length extend those of the
    last by a coface of their top cell, in order, so the list runs in
    (length, chain) order without sorting.  With `longest`, no chain has
    more than that many cells, but a chain whose bottom cell is in
    `deeper` has up to one more.  drops[n] lists, for a chain g of two cells
    or more, (place of g without its entry pos, (-1)^pos) for each pos.  g
    without its top is the chain g extends; g without an earlier entry is
    that chain's drop at pos extended by g's top, whose place was recorded
    when that drop was extended.  So no chain is hashed or looked up.
    `deeper` must be an up-set: the drops of a chain that grows past
    `longest` have their bottoms in it too, so they were all extended.
    """
    cells = sorted(set(cells))
    # extend[n][d]: the place of chain n extended by d; the empty chain
    # (root) extends to the one-cell chains
    root = {c: n for n, c in enumerate(cells)}
    up = {c: [] for c in cells}
    for d in cells:
        for r in range(1, len(d)):
            for e in combinations(d, r):
                if e in root:
                    up[e].append(d)
    flags = [(c,) for c in cells]
    drops = [()] * len(cells)
    extend = [{} for _ in cells]
    level = range(len(cells))
    size = 1
    stop = None if longest is None else longest + bool(deeper)
    while level and (stop is None or size < stop):
        if size == longest:
            level = [n for n in level if flags[n][0] in deeper]
        size += 1
        nxt = []
        signs = [-1 if pos % 2 else 1 for pos in range(size)]
        for n in level:
            f = flags[n]
            below = [extend[m] for m, _sign in drops[n]] or [root]
            for d in up[f[-1]]:
                g = len(flags)
                flags.append(f + (d,))
                extend[n][d] = g
                extend.append({})
                drops.append(list(zip([ext[d] for ext in below] + [n],
                                      signs)))
                nxt.append(g)
        level = nxt
    return flags, drops


def flag_complex(sheaf, cells, through=None, deeper=frozenset()):
    """Total complex over strict chains in an up-set of cells, as arrows.

    Block (flag, q) carries the stalk of the flag's top cell in total degree
    len(flag) - 1 + q.  The arrows into block (g, q) are the stalk
    differential, signed (-1)^(len(g) - 1), and one arrow per drop of g:
    removing entry pos gives a chain f of the same cells, with sign (-1)^pos
    and the restriction from f's top cell to g's.  The drops come from
    `_flags` as places, once per flag.  A drop that keeps the top cell is
    the identity of one stalk, written as +-1 entries with no matrix; so
    is the drop of the top cell when the sheaf's restrictions are
    identities (`identity_restrictions`), and otherwise it calls
    `restriction`.  Computes derived sections over the open set.

    With `through`, only total degrees up to it are assembled, and through
    + 1 for the flags whose bottom cell is in `deeper`, an up-set of
    `cells`: the result is the same blocks and offsets as the full complex
    in every degree it keeps, so d o d = 0 holds on it (every path of two
    arrows into a kept block runs through kept blocks, as every degree
    below the top is whole).  Chains longer than through + 1 - lo cells,
    lo the lowest stalk degree, reach no such degree and are not
    enumerated; one more cell is allowed over `deeper`.

    Returns (arrows, layout), layout like incidence_complex's with flags
    as keys.  arrows[k][n] = (mats, units) holds the arrows into the n-th
    block of degree k, once: (m, sign, matrix) in mats, and (m, sign) in
    units for an identity, m the place of the source block in degree
    k - 1.  Zero matrices are left out; every other matrix must have the
    shape of its (target, source) block (CertificateError).  No matrix is
    assembled: `sheaf_cohomology` assembles one (`_total_complex`), and
    `kan_pushforward` writes each fiber's stalk from the arrows into its
    flags (`_fiber_slices`).
    """
    reach = longest = None
    if through is not None:
        longest = through + 1 - min(
            (sheaf.stalks[c].lo for c in cells), default=0)
        reach = lambda f: through + 1 if f[0] in deeper else through
    flags, drops = _flags(cells, longest, deeper)
    sizes = _stalk_sizes(sheaf, cells)
    layout, place = _layout(flags, lambda f: len(f) - 1, sizes,
                            lambda f: f[-1], reach)
    arrows = {k: [] for k in layout if k - 1 in layout}
    stalks, restriction = sheaf.stalks, sheaf.restriction
    identities = sheaf.identity_restrictions
    for n, g in enumerate(flags):
        top = g[-1]
        for q, size in sizes[top]:
            if (n, q) not in place:
                break       # above the flag's reach
            out = arrows.get(len(g) - 1 + q)
            if out is None:
                continue
            mats, units = [], []
            d = stalks[top].diffs.get(q - 1)
            spot = place.get((n, q - 1))
            if d is not None and spot is not None:
                if d.rows != size or d.cols != spot[1]:
                    _misfit(d, size, spot, layout[len(g) - 2 + q], (g, q))
                mats.append((spot[0], -1 if len(g) % 2 == 0 else 1, d))
            if drops[n]:
                *kept, (m, sign) = drops[n]
                for m2, sign2 in kept:
                    spot = place.get((m2, q))
                    if spot is not None:
                        units.append((spot[0], sign2))
                spot = place.get((m, q))
                if spot is not None and identities:
                    units.append((spot[0], sign))
                elif spot is not None:
                    r = restriction(g[-2], top, q)
                    if r.rows != size or r.cols != spot[1]:
                        _misfit(r, size, spot, layout[len(g) - 2 + q],
                                (g, q))
                    if r.entries:
                        mats.append((spot[0], sign, r))
            out.append((mats, units))
    return arrows, layout


def sheaf_cohomology(sheaf, open_cells=None):
    """Hypercohomology over the whole space or an open up-set U.

    Returns a dict degree -> rational betti number.  For a sheaf
    concentrated in stalk degree 0, degree 0 is the space of sections over
    U.  Integral groups over the whole space are
    `incidence_complex(sheaf)[0].cohomology_groups()`.
    """
    if open_cells is None:
        cx, _ = incidence_complex(sheaf)
    else:
        open_cells = [tuple(c) for c in open_cells]
        for c in open_cells:
            if c not in sheaf.space.complex.cell_index:
                raise NotOpen("cell %r not in the complex" % (c,))
        closed = set(sheaf.space.complex.cells).difference(open_cells)
        if missing_face(closed, closed):
            raise NotOpen("cell set is not open (not an up-set)")
        arrows, layout = flag_complex(sheaf, open_cells)
        cx = _total_complex(layout, arrows)
    return cx.betti_numbers()


# -- pushforward -----------------------------------------------------------

def kan_pushforward(sheaf, cell_map, target_space, through=None):
    """Pointwise homotopy Kan extension along a monotone cell map.

    The stalk at a target cell t is the flag complex over the source cells c
    with cell_map(c) >= t, and restrictions are flag projections.  For the
    identity map this returns the sheaf itself.

    `through` is the highest stalk degree every stalk holds (None: every
    degree).  A fiber with cells but no least cell (see below) also holds
    degree through + 1, the one degree its `kernel_basis` elimination in
    `truncate` at through reads, and so does every fiber that contains
    one: the fibers over the faces of its target cell.  Every stalk is
    then the brutal truncation of the full one at through or through + 1,
    with the same layout, offsets, differentials and projections in each
    degree it keeps.  A caller that truncates at k passes k.  The result
    records `through`, and its input as `source`.

    Each fiber is an up-set of the mapped cells, so a flag lies in it
    exactly when its bottom cell does, and its flag complex is the principal
    submatrix, in the same block order, of the flag complex over all mapped
    cells: `flag_complex` emits that one's arrows once, and each fiber
    writes the arrows into its flags at its own offsets (`_fiber_slices`);
    no global matrix is built.  An arrow into a fiber from a flag outside
    it means the map is not monotone (SheafError).  Each restriction is the
    projection onto the target
    fiber's flags: row i holds a lone 1, in column pick[i].  The pick lists
    are recorded as `projections[(sig, tau)][q]`, next to
    `stalk_layouts`.  Their matrices are built into `restrictions` only in
    the degrees below `through`: a truncation at through reads the lists
    at through and through + 1 and replaces those maps, so no matrix is
    built there for it, and any other reader gets the matrix from the list
    (`SheafComplex._cover_matrix`).

    Certificate, at every size.  The global flag complex squares to zero by
    construction, so every slice does: each holds every block of its flags
    up to through, so every path of two arrows into one of its blocks runs
    inside it.  The fiber over tau is nested in the fiber over each face
    sig (SheafError if a block of tau's layout is missing from sig's; the
    fibers holding through + 1 are closed under faces, so tau's blocks of
    that degree are sig's too), and no arrow into tau's slice comes from
    outside it; so the projection onto tau's flags is a chain map, and
    projections between nested slices compose.  Where sig holds degree
    through + 1 and tau does not, the projection in that degree is the
    zero map onto nothing, which commutes with tau's zero d^through.

    Least cells.  The result records, as `least_cells`, each target cell's
    least fiber cell: the fiber cell that is a face of every other, or
    None.  A fiber with one is a poset with an initial object, so its flag
    complex contracts onto the stalk of that cell (Bousfield and Kan,
    1972), and `truncate` writes its kernel bases and maps down by that
    contraction instead of solving for them; see there for the proof and
    its certificate.  Along the inclusion of an open set
    (`derived_pushforward`) every open cell is its own fiber's least cell.
    """
    cmap = {tuple(a): tuple(b) for a, b in cell_map.items()}
    src = sheaf.space.complex
    tcells = target_space.complex.cell_index
    for a, b in cmap.items():
        if a not in src.cell_index:
            raise SheafError("source cell %r unknown" % (a,))
        if b not in tcells:
            raise SheafError("target cell %r unknown" % (b,))
    if (target_space is sheaf.space
            and all(a == b for a, b in cmap.items())
            and set(cmap) == set(src.cells)):
        return sheaf
    # the target cells over each image cell: its faces
    over = {b: [t for t in faces(b) if t in tcells]
            for b in set(cmap.values())}
    cells = target_space.complex.cells
    covers = [(sig, tau) for tau in cells for (sig, _s) in facets(tau)]
    fibers = {t: [] for t in cells}
    for c, b in cmap.items():
        for t in over[b]:
            fibers[t].append(c)
    least = {}
    for t, fiber in fibers.items():
        # a least cell is the one smallest cell, so ties leave None
        s = min(fiber, key=len, default=None)
        verts = set(s or ())
        least[t] = s if all(verts.issubset(c) for c in fiber) else None
    # the fibers holding through + 1 (closed under faces) and their cells,
    # an up-set: the bottoms of the flags that reach that degree
    deep = set()
    if through is not None:
        for u, fiber in fibers.items():
            if fiber and least[u] is None:
                deep.update(t for t in faces(u) if t in tcells)
    total = flag_complex(sheaf, list(cmap), through,
                         {c for t in deep for c in fibers[t]})
    stalks, layouts, projections = _fiber_slices(
        total, cells, lambda f: over[cmap[f[0]]], covers, through, deep)
    restrictions = {
        (sig, tau): {k: _pick_matrix(pick, stalks[sig].dim(k))
                     for k, pick in picks.items()
                     if through is None or k < through}
        for (sig, tau), picks in projections.items()}
    out = SheafComplex._of(target_space, stalks, restrictions)
    out.stalk_layouts = layouts
    out.projections = projections
    out.least_cells = least
    out.through = through
    out.source = sheaf
    return out


def _fiber_slices(total, targets, over, covers, through, deep):
    """Stalks, layouts and projections of the fibers, written from the
    arrows of one flag complex.

    `total` is (arrows, layout) of the flag complex over all mapped cells,
    as `flag_complex` returns it, `targets` the target cells, `over(flag)`
    the target cells whose fibers hold the flag, and `covers` the pairs
    (sig, tau) of target cells with sig a facet of tau.  The global blocks
    are walked once, in layout order, and handed to their fibers, so each
    fiber's layout is the global one restricted to its flags; a block of a
    degree above `through` goes only to the fibers in `deep`.  Each fiber
    differential is the arrows into its blocks, at its offsets; an arrow
    from a block outside the fiber raises SheafError.  d o d = 0 on each
    slice is the global complex's (see `kan_pushforward`).  The projection
    along (sig, tau) picks, for each block of tau's fiber, the same block
    of sig's (SheafError if sig's fiber lacks it): projections[(sig,
    tau)][k] lists, per row, the column of its lone 1.
    """
    arrows, glayout = total
    sizes = {k: [blk[3] for blk in blocks] for k, blocks in glayout.items()}
    layouts = {t: {} for t in targets}
    local = {t: {} for t in targets}    # degree -> {global place: offset}
    for k in sorted(glayout):
        here = {}       # t -> (its blocks of degree k, their places)
        top = through is not None and k > through
        for n, (f, q, _goff, size) in enumerate(glayout[k]):
            for t in over(f):
                if top and t not in deep:
                    continue
                spot = here.get(t)
                if spot is None:
                    spot = here[t] = ([], {})
                    loff = 0
                else:
                    loff = spot[0][-1][2] + spot[0][-1][3]
                spot[0].append((f, q, loff, size))
                spot[1][n] = loff
        for t, (blocks, places) in here.items():
            layouts[t][k] = blocks
            local[t][k] = places
    stalks = {}
    for t, layout in layouts.items():
        if not layout:
            stalks[t] = CochainComplex({0: 0}, {})
            continue
        dims = {k: 0 for k in range(min(layout), max(layout) + 1)}
        for k, blocks in layout.items():
            dims[k] = blocks[-1][2] + blocks[-1][3]
        diffs = {}
        for k, places in local[t].items():
            if k not in arrows:
                continue
            shape = (dims[k], dims.get(k - 1, 0))
            try:
                ent = _arrow_entries(places.items(), arrows[k],
                                     local[t].get(k - 1, {}), sizes[k], shape)
            except KeyError:
                raise SheafError("cell map is not monotone: the fiber over "
                                 "%r is not an up-set" % (t,)) from None
            if ent:
                diffs[k - 1] = ExactMatrix._of(*shape, ent)
        stalks[t] = CochainComplex._of(dims, diffs)
    projections = {}
    for sig, tau in covers:
        picks = projections[(sig, tau)] = {}
        for k, places in local[tau].items():
            onto, size = local[sig].get(k, {}), sizes[k]
            try:
                picks[k] = [so + x for n in places for so in (onto[n],)
                            for x in range(size[n])]
            except KeyError:
                raise _not_nested(sig, tau) from None
    return stalks, layouts, projections


def _pick_matrix(pick, cols):
    """The projection whose row i holds a lone 1, in column pick[i]."""
    return ExactMatrix._of(len(pick), cols, dict.fromkeys(enumerate(pick), 1))


def _not_nested(a, b):
    """The refusal of a cover (a, b) whose fiber over b is not inside the
    fiber over a."""
    return SheafError("the fiber over %r is not inside the fiber over its "
                      "face %r" % (b, a))


def derived_pushforward(sheaf, closed_cells, through=None):
    """Pushforward along the inclusion of the complement of a closed set.

    `closed_cells` is the subcomplex being removed; its complement must be
    open, else NotOpenComplement.  Stalks on the removed cells become flag
    complexes over the nearby open cells, carrying the cohomology of the
    deleted neighborhood.  `through` caps the stalk degrees assembled, as
    in kan_pushforward: every open cell is its own fiber's least cell, so
    its stalk stops at through, and a removed cell's stalk holds
    through + 1 when the open cells of its star have no least one.
    """
    closed = {tuple(c) for c in closed_cells}
    for c in closed:
        if c not in sheaf.space.complex.cell_index:
            raise NotOpenComplement("cell %r not in the complex" % (c,))
    if missing_face(closed, closed):
        raise NotOpenComplement(
            "complement of the given cells is not open; the set must be "
            "closed under faces")
    cmap = {c: c for c in sheaf.space.complex.cells if c not in closed}
    return kan_pushforward(sheaf, cmap, sheaf.space, through)


# -- truncation ----------------------------------------------------------------

def truncate(sheaf, degree):
    """Canonical truncation: keep degrees below, the kernel at the cutoff.

    Kernel bases.  Here d^k is the full flag complex's: a pushforward
    cut at k holds every stalk degree up to k, and k + 1 wherever it is
    read (SheafError for a pushforward assembled through less than k).  A
    stalk of a pushforward whose fiber has a least cell s
    (`kan_pushforward`'s `least_cells`) gets its basis of ker d^k from its
    layout in degrees up to k and the pushforward's input F (`source`),
    with no elimination and without degree k + 1, which such a stalk need
    not hold (`_cone_kernel`); every other stalk gets `kernel_basis` of
    its d^k.  s is a face of every cell of the fiber, an up-set, so every
    flag a whose bottom is not s (an A-flag) has a partner (s) + a, a
    flag of the fiber: this is a layout fact, in every degree.  The arrow
    from block (a, q) to ((s) + a, q) drops s: sign +1, identity matrix.
    Every flag with bottom s but (s) is such a partner, so this is an
    acyclic matching with unit weights (Skoldberg, "Morse theory from an
    algebraic viewpoint", Trans. AMS 2006), and it leaves the stalk F_s on
    (s), whose differential d_s is the (s) -> (s) block: the stalk
    contracts onto F_s, as a homotopy limit over a poset with an initial
    object does (Bousfield and Kan, "Homotopy Limits, Completions and
    Localizations", 1972).  Deleting s from the front is a homotopy h with
    id - iota pi = dh + hd, and h lands on the A-flags, so every cocycle is
    iota(pi x) plus a coboundary of the A-flags.  The basis is
    - the columns of d^(k-1) at the A-flags of degree k - 1, in layout
      order (the A-columns); each has a lone +1 on the partner rows, on
      its own partner's row: the only flag with bottom s that contains an
      A-flag f as a drop is (s) + f;
    - iota(z) for z in `kernel_basis` of d_s, F's stalk differential over
      s in degree k: z on (s), r(s, c) z on each other one-cell flag (c),
      r F's restrictions, and zero on every longer flag.  r(s, c) z is
      computed up F's face poset, as r(a, c) r(s, a) z for a facet a of c
      that contains s, and every other such facet must give the same
      (CertificateError); for a sheaf with `identity_restrictions` it is
      z.
    Every basis column has a unit row, where it holds a lone 1 and no
    other column has an entry, and the contraction writes them down: an
    A-column's partner row, and iota(z)'s free row of z on (s), where the
    A-columns vanish (an arrow into a one-cell flag comes only from its
    own stalk) and the other iota columns do too; iota vanishes on the
    partner rows.  A `kernel_basis` column has one on its free row, found
    by the scan of `linalg.unit_rows`.  `Inclusion.units` records one per
    column.

    Maps at the cutoff: one rule.  Below k the maps are the input's.  At k
    the truncation needs X with B X = d^(k-1) at each cell, B its basis,
    and Y with B_b Y = r B_a along each cover (a, b).  Each is its source
    read at the target basis's unit rows: X is d^(k-1) at B's unit rows,
    and Y is r B_a at B_b's unit rows, that is B_a's rows at the
    projection's recorded pick list (`kan_pushforward`'s `projections`)
    composed with those rows, or the restriction's rows there times B_a
    for a sheaf that is not a pushforward.  So a pushforward's maps at the
    cutoff stay pick lists: its covers and degrees are taken from
    `projections`, and no matrix of those maps is built.  Proof: the
    sources are cocycles, since d^k d^(k-1) = 0 and d_b r B_a = r d_a B_a
    = 0 (r is a chain map, and B_a's columns are cocycles).  B spans ker
    d^k with a unit row per column, so a cocycle v is B y for one y, and
    row i of B y is y_p when i is the unit row of column p: y is v read at
    the unit rows.  No map is solved for.

    Certificate, at every size.  Kernel: the A-columns are cocycles by
    the pushforward's d o d = 0 certificate (its blocks up to degree k are
    the full complex's).  iota(Z) is a cocycle of the full complex, by one
    product d_s Z = 0 on F's stalk over s (CertificateError) and F's
    certified chain maps and functoriality: its component on ((c), k + 1)
    is d_c r(s, c) Z = r(s, c) d_s Z = 0, r being a chain map; on a
    two-cell flag ((a, b), k) it is r(s, b) Z - r(a, b) r(s, a) Z = 0, the
    restriction along any face path from s to b giving one map, which the
    lift checks on Z itself; and an arrow into a longer flag comes from
    flags where iota vanishes.  The columns are independent, each having a
    lone +1 row.  They span: every A-flag of degree k - 1 has its partner
    block in the layout, and every partner of degree k its A-flag
    (SheafError if not), and every A-flag of degree k has its partner in
    the full complex, by the layout fact above.  Then d^k, on the partner
    rows of the A-flags of degree k and on (s), is [[I, *], [0, d_s]] from
    the A-columns and (s), so dim ker d^k is at most the number of
    partners of degree k plus dim ker d_s, which is the number of columns.
    Maps: every map read is right by the proof above, which rests on the
    input's certificates (d o d = 0 and restrictions that are chain maps)
    and on the kernel's.  So B X = d^{k-1} and B_b Y = r B_a hold exactly,
    each output identity at k (d o d = 0, chain map, functoriality) times
    B on the left is the input's, and B is injective.

    The matching.  Each truncated stalk over a fiber with a least cell
    keeps the contraction's pairs, each a unit of an identity block of its
    differential: every A-block of degree q < k - 1 with its partner block
    of degree q + 1, and every A-column of degree k - 1 with its own basis
    column, where X, being d^(k-1) read at the unit rows, holds the
    partner row's lone 1 (`_cone_kernel` lists both as it builds the
    basis).  Stalks eliminated by `kernel_basis` keep none.

    Each kind of work is done once per call.  An input stalk object that
    several fibers' least cells share (the constant sheaf hands one to
    every cell) has its kernel, that kernel's product d_s Z = 0 and its
    unit rows computed once, at the first fiber that reads it, and kept
    for the call; each basis B_a gets one index of its rows, at the first
    cover out of a, which every map out of a reads; and the contraction
    writes the A-columns of B and d^(k-1) at B's unit rows from one pass
    over d^(k-1).

    The result records its input as `untruncated`, k as `cutoff`, the
    `Inclusion` of each cell's basis as `inclusions`, and, as `matching`,
    cell -> its pairs as runs (q, col, row, size): columns col to col +
    size - 1 of the truncated stalk's degree q against rows row to row +
    size - 1 of its degree q + 1, in that order.  `refine` cuts it down at
    chosen cells, and an `ic.ICResult` hands it, as `matched_pairs` reads
    it into its incidence complex, to its unit reduction
    (`linalg._reduce_units`).
    """
    k = int(degree)
    if sheaf.through is not None and sheaf.through < k:
        raise SheafError("a pushforward assembled through stalk degree %d "
                         "cannot be truncated at %d" % (sheaf.through, k))
    # per call: each input stalk's kernel, and each basis's row index
    kernels, index = {}, {}
    bases, stalks, matching = {}, {}, {}
    for c in sheaf.stalks:
        bases[c], stalks[c], runs = _truncated_stalk(sheaf, c, k, kernels)
        if runs:
            matching[c] = runs
    maps = sheaf.restrictions
    degrees = maps if sheaf.projections is None else sheaf.projections
    restrictions = {cover: {q: maps[cover][q] if q < k
                            else _cutoff_map(sheaf, cover, k, bases, index)
                            for q in qs if q <= k}
                    for cover, qs in degrees.items()}
    return _truncation(sheaf, k, stalks, restrictions, bases, matching)


def refine(T, subspaces):
    """The truncation T (from `truncate`) cut down to caller subspaces at
    chosen cells, for refined middle-degree conditions.

    `subspaces` maps a cell c to S, columns in the untruncated stalk's
    coordinates, whose span replaces ker d^k at c.  Every stalk, inclusion
    and restriction away from the subspace cells is T's own object.

    Proof.  C is S read at the unit rows of T's basis B: if S's columns
    are cocycles, S = B y for one y, which is S read there, as `truncate`
    says.  One exact product B C == S certifies C and refuses an S that is
    not made of cocycles (SheafError).  B is injective, so S is exactly
    when C is: `rank(C) == C.cols` (SheafError).  The maps at k follow from
    T's: S X = d^(k-1) = B X_T is C X = X_T, so X is `solve_columns(C,
    X_T)`, which refuses an S that misses im d^(k-1).  Along a cover
    (a, b), r S_a = r B_a C_a = B_b Y_T C_a, so Y is Y_T C_a, or
    `solve_columns(C_b, Y_T C_a)` when b took a subspace, which refuses an
    S_b that misses r S_a.  `solve_columns` checks its answer by one exact
    product.  So S X = d^(k-1) and S_b Y = r S_a hold exactly, and each
    output identity at k times S on the left is T's.

    The result records T's `untruncated` and `cutoff`, `Inclusion(S,
    None)` at each subspace cell and T's elsewhere as `inclusions`, T's
    `matching` away from the subspace cells, whose stalks changed at the
    cutoff, and T as `refines`.
    """
    k = T.cutoff
    bases, stalks = dict(T.inclusions), dict(T.stalks)
    coords = {}
    for c, S in subspaces.items():
        inc = T.inclusions[c]
        C = coords[c] = _at_rows(S, inc.units)
        if inc.basis * C != S:
            raise SheafError("subspace at %r is not made of cocycles" % (c,))
        if rank(C) != C.cols:
            raise SheafError("subspace at %r has dependent columns" % (c,))
        cx = T.stalks[c]
        diffs = dict(cx.diffs)
        if k - 1 in diffs:
            diffs[k - 1] = solve_columns(C, diffs[k - 1])
        bases[c] = Inclusion(S, None)
        stalks[c] = CochainComplex._of(
            {q: C.cols if q == k else n for q, n in cx.dims.items()}, diffs)
    restrictions = dict(T.restrictions)
    for (a, b), mats in T.restrictions.items():
        if k in mats and (a in coords or b in coords):
            y = mats[k] if a not in coords else mats[k] * coords[a]
            if b in coords:
                y = solve_columns(coords[b], y)
            restrictions[(a, b)] = {**mats, k: y}
    matching = {c: runs for c, runs in T.matching.items()
                if c not in subspaces}
    out = _truncation(T.untruncated, k, stalks, restrictions, bases, matching)
    out.refines = T
    return out


class Inclusion(namedtuple("Inclusion", "basis units")):
    """How the cutoff degree of a truncation embeds into the stalk it was
    cut from.  The columns of `basis` are the kept cocycles, in stalk
    coordinates.  `units` lists, per column, a row where that column holds
    a lone 1 and no other column has an entry (`linalg.unit_rows`), for a
    basis of ker d^k; it is None for a caller subspace (`refine`)."""

    __slots__ = ()


def _truncated_stalk(sheaf, c, k, kernels):
    """(Inclusion of ker d^k, truncated stalk, matching) at cell c, cut at
    k: the cone contraction's basis and pairs on a fiber with a least cell
    (`kernels` as `_cone_kernel` takes it), else `kernel_basis` and no
    pairs.  d^(k-1) in the basis is read at its unit rows, as `truncate`
    says: by the contraction's own pass over d^(k-1), or `_at_rows`."""
    cx = sheaf.stalks[c]
    if sheaf.least_cells.get(c) is None:
        basis = kernel_basis(cx.diff(k))
        inc, runs = Inclusion(basis, unit_rows(basis)), ()
        read = _at_rows(cx.diff(k - 1), inc.units)
    else:
        inc, read, runs = _cone_kernel(sheaf, c, k, kernels)
    dims = {q: cx.dim(q) if q < k else inc.basis.cols
            for q in cx.degrees() if q <= k} or {k: 0}
    diffs = {q: cx.diff(q) if q + 1 < k else read
             for q in dims if q + 1 in dims}
    return inc, CochainComplex._of(dims, diffs), runs


def _cutoff_map(sheaf, cover, k, bases, index):
    """Y with B_b Y = r B_a at the cutoff k along the cover (a, b): r B_a
    read at B_b's unit rows, as `truncate` says.  The rows of r B_a are
    B_a's rows at the projection's pick list, read through B_a's row index
    (`index[a]`, made at the first cover out of a), or the restriction's
    rows times B_a for a sheaf that is not a pushforward."""
    a, b = cover
    rows, basis = bases[b].units, bases[a].basis
    if sheaf.projections is None:
        return _at_rows(sheaf._cover_matrix(a, b, k), rows) * basis
    at = index.get(a)
    if at is None:
        at = index[a] = {}
        for (i, j), v in basis.entries.items():
            at.setdefault(i, []).append((j, v))
    pick = sheaf.projections[cover][k]
    return ExactMatrix._of(len(rows), basis.cols, {
        (p, j): v for p, i in enumerate(rows) for j, v in at.get(pick[i], ())})


def _at_rows(m, rows):
    """The matrix whose row p is row rows[p] of m (rows distinct)."""
    at = {i: p for p, i in enumerate(rows)}
    return ExactMatrix._of(len(at), m.cols, {(at[i], j): v for (i, j), v
                                             in m.entries.items() if i in at})


def _truncation(sheaf, k, stalks, restrictions, bases, matching):
    out = SheafComplex._of(sheaf.space, stalks, restrictions)
    # provenance for pairings: the ambient sheaf and how the cutoff degree
    # embeds back into it (an Inclusion per cell; lower degrees embed
    # identically); and for the result's reduction, the cone matching
    out.untruncated = sheaf
    out.cutoff = k
    out.inclusions = bases
    out.matching = matching
    return out


def _partners(layout, s, deg):
    """[(A-block, partner block)]: each block (f, q) of degree deg whose
    flag's bottom is not s, with its partner ((s) + f, q) of degree
    deg + 1, for a stalk over a fiber with least cell s.

    Both run in layout order, by (length, flag), and (s) + f sorts as f
    does, so one merge pairs them: every flag of degree deg + 1 with bottom
    s and two cells or more is (s) + f for an f of degree deg.  A block of
    either side without its mate, or of another size, raises SheafError:
    the layout is not that of a flag complex over a fiber with least cell
    s, whole in both degrees."""
    bottom = (s,)
    ablocks = [blk for blk in layout.get(deg, ()) if blk[0][0] != s]
    pblocks = [blk for blk in layout.get(deg + 1, ())
               if blk[0][0] == s and len(blk[0]) > 1]
    want = [(bottom + f, q, size) for (f, q, _off, size) in ablocks]
    have = [(g, q, size) for (g, q, _off, size) in pblocks]
    if want != have:
        w, h = next((w, h) for w, h in zip_longest(want, have) if w != h)
        if w is not None and (h is None or (len(w[0]), w[0]) <= (len(h[0]),
                                                                 h[0])):
            blk, mate = (w[0][1:], w[1]), (w[0], w[1])
        else:
            blk, mate = (h[0], h[1]), (h[0][1:], h[1])
        raise SheafError("block %r of the stalk over %r has no partner %r "
                         "in stalk degrees %d and %d of its layout"
                         % (blk, s, mate, deg, deg + 1))
    return list(zip(ablocks, pblocks))


def _cone_kernel(sheaf, t, k, kernels):
    """(Inclusion, d^(k-1) in its basis, matching) of ker d^k in the stalk
    over t of the pushforward `sheaf`, whose fiber has the least cell s:
    the A-columns of d^(k-1), then iota of the kernel of d_s on the input's
    stalk over s, with their unit rows, certified as `truncate` says.
    Only degrees up to k of the stalk are read: the A-blocks and their
    partners come from one merge of the layout per degree (`_partners`),
    one pass over d^(k-1) picks out the A-columns and reads d^(k-1) at the
    unit rows, and iota is written from the input (`_lifts`).  The kernel
    of d_s, its certificate and its unit rows are looked up in `kernels`,
    keyed by the input's stalk object, and computed and kept there on a
    miss.  The unit entries are written first, so the scan of
    `linalg.unit_rows` finds the same rows.

    The matching is the truncated stalk's, as runs (q, col, row, size)
    (see `truncate`, and `_runs`, which joins adjacent pairs): the
    A-columns of degree k - 1 against their basis columns, recorded from
    the merge that places them (`where`), then the A-blocks of each lower
    degree against their partners, highest degree first."""
    cx, layout = sheaf.stalks[t], sheaf.stalk_layouts[t]
    s = sheaf.least_cells[t]
    # each column of d^(k-1): its basis column p >= 0 at an A-flag, else -1
    where, units, cut = [-1] * cx.dim(k - 1), [], []
    for (_f, _q, off, size), (_g, _p, poff, _n) in _partners(layout, s, k - 1):
        cut.append((off, len(units), size))
        where[off:off + size] = range(len(units), len(units) + size)
        units.extend(range(poff, poff + size))
    runs = _runs(k - 1, cut)
    for q in range(k - 2, min(layout, default=k) - 1, -1):
        runs += _runs(q, [(off, poff, size) for (_f, _q, off, size),
                          (_g, _p, poff, _n) in _partners(layout, s, q)])
    na = len(units)
    # the one-cell flags come first in each degree, and iota lives on them
    heads = []
    for blk in layout.get(k, ()):
        if len(blk[0]) > 1:
            break
        heads.append(blk)
    iota, nz = {}, 0
    spot = next((blk for blk in heads if blk[0] == (s,)), None)
    if spot is not None:
        stalk = sheaf.source.stalks[s]
        kernel = kernels.get(stalk)
        if kernel is None:
            d_s = stalk.diff(k)
            z = kernel_basis(d_s)
            if not (d_s * z).is_zero():
                raise CertificateError("a kernel vector of the input's stalk "
                                       "over %r is not a cocycle" % (s,))
            kernel = kernels[stalk] = (z, unit_rows(z))
        z, zunits = kernel
        nz = z.cols
        units.extend(spot[2] + i for i in zunits)
        lifts = _lifts(sheaf.source, s, k, z, [blk[0][0] for blk in heads])
        for (f, _q, off, _size) in heads:
            iota.update(((off + i, na + j), v)
                        for (i, j), v in lifts[f[0]].entries.items())
    at = {i: p for p, i in enumerate(units)}
    ent = {(i, p): 1 for i, p in at.items()}
    read = {}
    for (i, j), v in cx.diff(k - 1).entries.items():
        if where[j] >= 0:
            ent[(i, where[j])] = v
        p = at.get(i)
        if p is not None:
            read[(p, j)] = v
    ent.update(iota)
    return (Inclusion(ExactMatrix._of(cx.dim(k), na + nz, ent), tuple(units)),
            ExactMatrix._of(len(units), cx.dim(k - 1), read), tuple(runs))


def _runs(q, pairs):
    """The pairs (col, row, size) of stalk degree q, in order, as runs (q,
    col, row, size), merging each pair that starts where the last ended on
    both sides.  The flags with bottom s are adjacent in each length, so
    the A-flags of a length, and their partners, form few runs."""
    out = []
    for col, row, size in pairs:
        if out and out[-1][1] + out[-1][3] == col and \
                out[-1][2] + out[-1][3] == row:
            out[-1] = (q, out[-1][1], out[-1][2], out[-1][3] + size)
        else:
            out.append((q, col, row, size))
    return out


def matched_pairs(sheaf, layout):
    """The cone matching of a truncation (`SheafComplex.matching`, runs as
    `_runs` writes them) as pairs (k, s, t) of its incidence complex with
    `layout`: cell s of total degree k against cell t of degree k + 1.  A
    stalk pair of cell c sits in the vertical differential of c, twisted by
    (-1)^dim c, so it is still a unit there; the blocks (c, q) and
    (c, q + 1) place it.

    Order: by descending cell dimension, then descending stalk degree, then
    layout order.  A pair of c is joined to the rest of the complex by the
    restrictions to c's cofaces, so cancelling the cofaces' pairs first
    leaves less of a face's pair to carry into the Schur update.  The
    stalkwise matchings are acyclic, the complex is filtered by cell and
    restrictions only go up in it, so their union is acyclic on the total
    complex (Skoldberg, "Morse theory from an algebraic viewpoint", Trans.
    AMS 2006): every pair stays a unit in any order, and
    `linalg._reduce_units` re-checks each one."""
    if not sheaf.matching:
        return ()
    at = _block_index(layout)
    runs = []
    for c, cell_runs in sheaf.matching.items():
        for q, col, row, size in cell_runs:
            k, off, _size = at[(c, q)]
            runs.append((-len(c), -q, off + col, k, at[(c, q + 1)][1] + row,
                         size))
    runs.sort()
    return [(k, s + i, t + i) for _d, _q, s, k, t, size in runs
            for i in range(size)]


def _lifts(source, s, k, z, cells):
    """{c: r(s, c) z} for the cells c >= s of `source`, r its restrictions
    in degree k.  With `identity_restrictions` every one is z.  Else each
    is computed up the face poset: r(a, c) r(s, a) z for the facets a of c
    that contain s, which must all agree (CertificateError: the input's
    restrictions are not functorial on z); a cell whose stalk is zero in
    degree k gets zero, with nothing below it read."""
    if source.identity_restrictions:
        return dict.fromkeys(cells, z)
    verts, stalks = set(s), source.stalks
    lifts = {s: z}

    def lift(c):
        out = lifts.get(c)
        if out is None and not stalks[c].dim(k):
            out = lifts[c] = ExactMatrix._of(0, z.cols, {})
        elif out is None:
            for a, _sign in facets(c):
                if verts.issubset(a):
                    got = source.restriction(a, c, k) * lift(a)
                    if out is None:
                        out = got
                    elif got != out:
                        raise CertificateError(
                            "the input's restrictions from %r to %r disagree "
                            "along two face paths on a kernel vector"
                            % (s, c))
            lifts[c] = out
        return out

    return {c: lift(c) for c in cells}
