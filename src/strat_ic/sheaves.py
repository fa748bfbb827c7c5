"""Cellular sheaves of cochain complexes and their cohomology.

A sheaf assigns to every cell a bounded cochain complex (the stalk, really
the complex of sections over the cell's open star) and to every face
relation a degreewise restriction map.  It is `certified` when its stalks
square to zero and its restrictions are strictly functorial chain maps:
`SheafComplex.validate` checks that by exact products, and the
constructors below certify their output from how they build it, at every
size, without it:

- `constant_sheaf`: identity restrictions.
- `kan_pushforward`: d o d = 0 on one global flag complex, every fiber's
  rows inside its columns, and every fiber nested in the fibers of its
  faces; key-matching projections are then chain maps and compose.
- `truncate`, of a certified sheaf: its maps below the cutoff, and at the
  cutoff the exact products of `solve_many` through injective bases (on a
  fiber with a least cell, the cone contraction's basis).  It works cell
  by cell and cover by cover, so `plain_truncation` turns a truncation
  onto caller subspaces into the plain one by recomputing only the cells
  that took a subspace and the covers that touch them.
- `external_tensor`, of certified factors: Kronecker products of their
  chain maps, each the shape of its block in the tensor layouts.

Cohomology over the whole complex uses the incidence total complex (one
summand per cell, horizontal differential weighted by incidence signs).
Over a proper open up-set that model computes the compactly supported
answer, so open sets get the flag complex instead: one summand per strict
chain of cells, with the alternating-drop differential.  Both are signed
by `spaces.facets`, so D o D = 0 on those of a certified sheaf (Curry,
"Sheaves, Cosheaves and Applications", 2014): the stalk terms square to
zero, a chain map cancels against the twist (-1)^dim of the stalk
differentials, and the two paths around a codimension-2 face carry one
composite with opposite signs.  Only for other sheaves is it multiplied
out, at every size (`_assemble_total`).  Pushforwards take the pointwise
homotopy Kan extension: every stalk of the image is a flag complex over
the source cells sitting above the target cell, and every restriction is
a flag projection, which makes functoriality strict instead of
up-to-homotopy.  Those cells form an up-set, so every stalk is a slice of
one flag complex over all mapped cells.  A canonical truncation at k reads
stalks only in degrees up to k + 1, so a pushforward that feeds one is
assembled only through that degree (its brutal truncation: the same
blocks in every degree it keeps).
"""

from __future__ import annotations

from itertools import combinations
from types import MappingProxyType

from .linalg import (CertificateError, CochainComplex, ExactMatrix, _rows,
                     kernel_basis, rank, solve_many)
from .spaces import closure, facets, missing_face, product_projections


class SheafError(Exception):
    pass


class NotOpen(SheafError):
    pass


class NotOpenComplement(SheafError):
    pass


def solve_columns(basis, target):
    """Matrix Y with basis * Y == target, from one elimination of both.

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
    stalk(b) for a covering pair a < b; missing degrees are zero maps.
    Restrictions along longer face relations are composites (functoriality
    makes them path independent).  `certified` is set by validate() (which
    check=True runs) or by the constructor of this module that built the
    sheaf; the total complexes of any other sheaf are checked by exact
    products when they are assembled (see the module docstring).

    Provenance, recorded by the constructors that build such sheaves:
    `least_cells` and `through` by `kan_pushforward`, `untruncated` and
    `inclusions` by `truncate`.  Any other sheaf keeps the defaults below:
    no least cells, every stalk degree assembled, no truncation.
    """

    least_cells = MappingProxyType({})
    through = None
    untruncated = None
    inclusions = None

    def __init__(self, space, stalks, restrictions, check=True):
        self.space = space
        self.stalks = {tuple(c): cx for c, cx in stalks.items()}
        if set(self.stalks) != set(space.complex.cells):
            raise SheafError("stalks must cover all cells")
        self.restrictions = {}
        for (a, b), mats in restrictions.items():
            a, b = tuple(a), tuple(b)
            self.restrictions[(a, b)] = dict(mats)
        self._composed = {}
        self.certified = False
        if check:
            self.validate()

    def stalk(self, c):
        return self.stalks[tuple(c)]

    def degrees(self):
        lo = min(cx.lo for cx in self.stalks.values())
        hi = max(cx.hi for cx in self.stalks.values())
        return range(lo, hi + 1)

    def _cover_matrix(self, a, b, q):
        mats = self.restrictions.get((a, b))
        m = None if mats is None else mats.get(q)
        if m is not None:
            return m
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
                self._composed[key] = (self._cover_matrix(mid, b, q)
                                       * self.restriction(a, mid, q))
        return self._composed[key]

    def validate(self):
        cells = self.space.complex.cells
        index = self.space.complex.cell_index
        for (a, b) in self.restrictions:
            if a not in index or b not in index:
                raise SheafError("restriction %r -> %r off the complex"
                                 % (a, b))
            if not (set(a) < set(b) and len(b) == len(a) + 1):
                raise SheafError("stored restrictions must follow covering "
                                 "pairs, got %r -> %r" % (a, b))
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
        self.certified = True

    def total_dimension(self):
        return sum(cx.dim(q) for cx in self.stalks.values()
                   for q in cx.degrees())

    def __repr__(self):
        return "SheafComplex(cells=%d, degrees=%s, total=%d)" % (
            len(self.stalks), list(self.degrees()), self.total_dimension())


# -- constructors ----------------------------------------------------------

def constant_sheaf(space, coefficient=1):
    """The free stalk of rank `coefficient` in degree 0 on every cell,
    identity restrictions."""
    stalk = CochainComplex({0: int(coefficient)}, {})
    stalks = {c: stalk for c in space.complex.cells}
    ident = {q: ExactMatrix.identity(stalk.dim(q)) for q in stalk.degrees()}
    out = SheafComplex(space, stalks, {(sig, tau): ident
                                       for tau in space.complex.cells
                                       for sig, _s in facets(tau)},
                       check=False)
    out.certified = True
    return out


# -- total complexes -------------------------------------------------------

def incidence_complex(sheaf):
    """Total complex over all cells: degree = cell dimension + stalk degree.

    Horizontal differential: incidence-signed restrictions along covers.
    Vertical: stalk differential twisted by (-1)^dim.  Computes the
    hypercohomology of the whole (compact) complex.

    Returns (complex, layout) where layout[k] is a list of blocks
    (cell, stalk_degree, offset, size).
    """
    layout = incidence_layout(sheaf)

    def into(c, q):
        yield c, (-1) ** (len(c) - 1), sheaf.stalks[c].diff(q - 1), q - 1
        for (sig, sign) in facets(c):
            yield sig, sign, sheaf.restriction(sig, c, q), q
    return _assemble_total(layout, into, sheaf.certified), layout


def incidence_layout(sheaf):
    """The layout of `incidence_complex(sheaf)`, without assembling it."""
    return _layout((c, len(c) - 1, sheaf.stalks[c])
                   for c in sheaf.space.complex.cells)


def _layout(blocks, through=None):
    """Blocks (key, q, offset, size) per total degree shift + q.

    `blocks` yields (key, shift, stalk) triples; stalk degrees of dimension
    zero get no block, and neither do total degrees above `through`.
    Within a degree, blocks run by (len(key), key, q).
    """
    layout = {}
    for key, shift, cx in blocks:
        for q in cx.degrees():
            if cx.dim(q) and (through is None or shift + q <= through):
                layout.setdefault(shift + q, []).append((key, q, cx.dim(q)))
    for group in layout.values():
        group.sort(key=lambda blk: (len(blk[0]), blk[0], blk[1]))
        off = 0
        for n, (key, q, size) in enumerate(group):
            group[n] = (key, q, off, size)
            off += size
    return layout


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


def _assemble_total(layout, into, certified):
    """Total complex whose block (key, q) receives the arrows into(key, q).

    `into` yields (source key, sign +-1, matrix, source stalk degree);
    arrows from blocks absent from the layout (dimension zero) are skipped,
    and every other arrow must have the shape of its (target, source)
    block (CertificateError).  d o d = 0 holds by construction on the
    total complexes of a `certified` sheaf (see the module docstring), so
    it is multiplied out, at every size, only for an uncertified one.  The
    result is `certified` either way.
    """
    if not layout:
        return CochainComplex({0: 0}, {})
    dims = _layout_dims(layout)
    index = _block_index(layout)
    diffs = {}
    for k in dims:
        if k + 1 not in dims:
            continue
        ent = {}
        for (key, q, toff, size) in layout.get(k + 1, ()):
            for (src, sign, mat, sq) in into(key, q):
                spot = index.get((src, sq))
                if spot is None:
                    continue
                _, soff, ssize = spot
                if mat.rows != size or mat.cols != ssize:
                    raise CertificateError(
                        "arrow %r -> %r has shape %r, not its block's %r"
                        % ((src, sq), (key, q), mat.shape, (size, ssize)))
                for (i, j), v in mat.entries.items():
                    ent[(toff + i, soff + j)] = v if sign > 0 else -v
        # each arrow fills its own block, so entries arrive normalized and
        # are written once
        diffs[k] = ExactMatrix._of(dims[k + 1], dims[k], ent)
    out = CochainComplex(dims, diffs, check=not certified)
    out.certified = True
    return out


def _flags(cells, longest=None):
    """Strict chains of the given cells under face inclusion.

    Cells are sorted vertex tuples.  Chains are enumerated by their top
    cell: those topped by d are (d,) and every chain topped by a proper
    face of d in the set, extended by d.  With `longest`, no chain is
    extended beyond that many cells.  Returned in (length, chain) order.
    """
    topped = {}
    for d in sorted(set(cells), key=len):
        chains = [(d,)]
        for r in range(1, len(d)):
            for e in combinations(d, r):
                chains.extend(f + (d,) for f in topped.get(e, ())
                              if longest is None or len(f) < longest)
        topped[d] = chains
    return sorted((f for chains in topped.values() for f in chains),
                  key=lambda f: (len(f), f))


def flag_complex(sheaf, cells, through=None):
    """Total complex over strict chains in an up-set of cells.

    Block (flag, q) carries the stalk of the flag's top cell in total degree
    len(flag) - 1 + q.  The arrows into block (g, q) are the stalk
    differential, signed (-1)^(len(g) - 1), and one arrow per drop of g:
    removing entry pos gives a chain f of the same cells, with sign (-1)^pos
    and the restriction from f's top cell to g's (the identity unless the
    top cell was dropped).  Computes derived sections over the open set.

    With `through`, only total degrees up to it are assembled: the result
    is the brutal truncation of the full complex, with the same blocks and
    offsets in every degree it keeps.  Chains longer than through + 1 - lo
    cells, lo the lowest stalk degree, reach no such degree and are not
    enumerated.

    Returns (complex, layout) like incidence_complex, with flags as keys.
    """
    longest = None if through is None else through + 1 - min(
        (sheaf.stalks[c].lo for c in cells), default=0)
    layout = _layout(((f, len(f) - 1, sheaf.stalks[f[-1]])
                      for f in _flags(cells, longest)), through)

    def into(g, q):
        top = g[-1]
        yield g, (-1) ** (len(g) - 1), sheaf.stalks[top].diff(q - 1), q - 1
        for f, sign in facets(g):
            yield f, sign, sheaf.restriction(f[-1], top, q), q
    return _assemble_total(layout, into, sheaf.certified), layout


def sheaf_cohomology(sheaf, open_cells=None, integral=False):
    """Hypercohomology over the whole space or an open up-set U.

    Returns a dict degree -> rational betti number, or degree ->
    FGAbelianGroup when integral=True.  For a sheaf concentrated in stalk
    degree 0, degree 0 is the space of sections over U.
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
        cx, _ = flag_complex(sheaf, open_cells)
    if integral:
        return cx.cohomology_groups()
    return cx.betti_numbers()


# -- pushforward -----------------------------------------------------------

def kan_pushforward(sheaf, cell_map, target_space, through=None):
    """Pointwise homotopy Kan extension along a monotone cell map.

    The stalk at a target cell t is the flag complex over the source cells c
    with cell_map(c) >= t, and restrictions are flag projections.  For the
    identity map this returns the sheaf itself.

    `through` is the highest stalk degree assembled (None: every degree).
    Every stalk is then the brutal truncation of the full one, with the
    same layout, offsets, differentials and projections in each degree it
    keeps.  A caller that truncates at k passes k + 1, the highest degree
    the truncation reads.  The result records it as `through`.

    Each fiber is an up-set of the mapped cells, so a flag lies in it
    exactly when its bottom cell does, and its flag complex is the principal
    submatrix, in the same block order, of the flag complex over all mapped
    cells: that is assembled once and sliced (`_fiber_slices`).  A slice
    reaching outside its fiber means the map is not monotone (SheafError).

    Certificate, at every size: the result is `certified`.  The global
    flag complex squares to zero (by construction for a certified input,
    else by the exact product: CertificateError), so every slice does.
    The fiber over tau is nested in the fiber over each face sig
    (SheafError if a block of tau's layout is missing from sig's), and no
    row of tau's slice leaves its columns; so the projection onto tau's
    flags is a chain map, and projections between nested slices compose.

    Least cells.  The result records, as `least_cells`, each target cell's
    least fiber cell: the fiber cell that is a face of every other, or
    None.  A fiber with one is a poset with an initial object, so its flag
    complex contracts onto the stalk of that cell (Bousfield and Kan,
    1972), and `truncate` writes its kernel bases down by that contraction
    instead of eliminating; see there for the proof and its certificate.
    Along the inclusion of an open set (`derived_pushforward`) every open
    cell is its own fiber's least cell.
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
    over = {}
    for b in set(cmap.values()):
        over[b] = [t for t in closure([b]) if t in tcells]
    stalks, layouts = _fiber_slices(flag_complex(sheaf, list(cmap), through),
                                    target_space.complex.cells,
                                    lambda f: over[cmap[f[0]]])
    fibers = {t: [] for t in target_space.complex.cells}
    for c, b in cmap.items():
        for t in over[b]:
            fibers[t].append(c)
    least = {}
    for t, cells in fibers.items():
        # a least cell is the one smallest cell, so ties leave None
        s = min(cells, key=len, default=None)
        faces = set(s or ())
        least[t] = s if all(faces.issubset(c) for c in cells) else None
    index = {t: _block_index(layout) for t, layout in layouts.items()}
    restrictions = {}
    for tau in target_space.complex.cells:
        for (sig, _s) in facets(tau):
            mats = {}
            for k, blocks in layouts[tau].items():
                ent = {}
                for (f, q, toff, sz) in blocks:
                    spot = index[sig].get((f, q))
                    if spot is None:
                        raise SheafError(
                            "the fiber over %r is not inside the fiber over "
                            "its face %r" % (tau, sig))
                    soff = spot[1]
                    for i in range(sz):
                        ent[(toff + i, soff + i)] = 1
                mats[k] = ExactMatrix._of(stalks[tau].dim(k),
                                          stalks[sig].dim(k), ent)
            restrictions[(sig, tau)] = mats
    out = SheafComplex(target_space, stalks, restrictions, check=False)
    out.certified = True
    out.stalk_layouts = layouts
    out.least_cells = least
    out.through = through
    return out


def _fiber_slices(total, targets, over):
    """Stalks and layouts of the fibers, sliced out of one flag complex.

    `total` is (complex, layout) over all mapped cells, `targets` the
    target cells, and `over(flag)` the target cells whose fibers hold the
    flag.  The global blocks are walked once, in layout order, and handed
    to their fibers, so each fiber's layout is the global one restricted to
    its flags.  Each fiber differential is the global rows at its flags; an
    entry outside the fiber's columns raises SheafError.  d o d = 0 on each
    slice is the global complex's, which `flag_complex` certified.
    """
    gx, glayout = total
    # spans[t][k]: (global offset, local offset, size) per block of fiber t
    layouts = {t: {} for t in targets}
    spans = {t: {} for t in targets}
    for k in sorted(glayout):
        for (f, q, goff, size) in glayout[k]:
            for t in over(f):
                span = spans[t].setdefault(k, [])
                loff = span[-1][1] + span[-1][2] if span else 0
                span.append((goff, loff, size))
                layouts[t].setdefault(k, []).append((f, q, loff, size))
    diffs = {t: {} for t in targets}
    for k in sorted(glayout):
        if k + 1 not in glayout:
            continue
        rows = [[] for _ in range(gx.dim(k + 1))]
        for (i, j), v in gx.diff(k).entries.items():
            rows[i].append((j, v))
        gx.diffs.pop(k, None)   # lives on in rows, and is freed with them
        for t, span in spans.items():
            out = span.get(k + 1)
            if out is None:
                continue
            local = {goff + x: loff + x for goff, loff, size in span.get(k, ())
                     for x in range(size)}
            try:
                ent = {(loff + x, local[j]): v for goff, loff, size in out
                       for x in range(size) for j, v in rows[goff + x]}
            except KeyError:
                raise SheafError("cell map is not monotone: the fiber over "
                                 "%r is not an up-set" % (t,)) from None
            diffs[t][k] = ExactMatrix._of(out[-1][1] + out[-1][2],
                                          len(local), ent)
    stalks = {}
    for t, layout in layouts.items():
        if not layout:
            stalks[t] = CochainComplex({0: 0}, {})
            continue
        dims = {k: 0 for k in range(min(layout), max(layout) + 1)}
        for k, blocks in layout.items():
            dims[k] = blocks[-1][2] + blocks[-1][3]
        stalks[t] = CochainComplex(dims, diffs[t], check=False)
    return stalks, layouts


def derived_pushforward(sheaf, closed_cells, through=None):
    """Pushforward along the inclusion of the complement of a closed set.

    `closed_cells` is the subcomplex being removed; its complement must be
    open, else NotOpenComplement.  Stalks on the removed cells become flag
    complexes over the nearby open cells, carrying the cohomology of the
    deleted neighborhood.  `through` caps the stalk degrees assembled, as
    in kan_pushforward.
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


# -- tensor and truncation -------------------------------------------------

def external_tensor(fx, fy, prod):
    """Sheaf on a product whose stalks are tensors of the factor stalks.

    Certificate, from certified factors: each restriction is the Kronecker
    product ra (x) rb blockwise, and a tensor of chain maps is a chain map
    of the Koszul total complexes; functoriality holds factor by factor,
    since (ra' ra) (x) (rb' rb) = (ra' (x) rb') (ra (x) rb).  At run time
    every ra (x) rb must have the shape of its (p, q) block in both stalk
    layouts, so the index arithmetic stays inside it (SheafError if not).
    """
    ny = prod.n_right
    from .linalg import tensor_complex
    stalks = {}
    layouts = {}
    projs = {}
    for c in prod.complex.cells:
        a, b = product_projections(c, ny)
        projs[c] = (a, b)
        cx, layout = tensor_complex(fx.stalks[a], fy.stalks[b])
        stalks[c] = cx
        layouts[c] = layout
    restrictions = {}
    for tau in prod.complex.cells:
        at, bt = projs[tau]
        for (sig, _s) in facets(tau):
            asig, bsig = projs[sig]
            mats = {}
            src_layout, tgt_layout = layouts[sig], layouts[tau]
            for k in stalks[sig].degrees():
                if stalks[tau].dim(k) == 0 or stalks[sig].dim(k) == 0:
                    continue
                ent = {}
                tgt_blocks = _tensor_blocks(tgt_layout.get(k, []),
                                            stalks[tau].dim(k))
                src_blocks = _tensor_blocks(src_layout.get(k, []),
                                            stalks[sig].dim(k))
                for (p, q), (soff, ssize) in src_blocks.items():
                    if (p, q) not in tgt_blocks:
                        continue
                    toff, tsize = tgt_blocks[(p, q)]
                    ra = fx.restriction(asig, at, p)
                    rb = fy.restriction(bsig, bt, q)
                    # entry (i1 wyt + i2, j1 wy + j2) of ra (x) rb lands in
                    # its block when ra (x) rb has the block's shape
                    wyt, wy = rb.shape
                    if (ra.rows * wyt, ra.cols * wy) != (tsize, ssize):
                        raise SheafError(
                            "restriction %r -> %r does not fill its tensor "
                            "block %r in degree %d" % (sig, tau, (p, q), k))
                    for (i1, j1), v1 in ra.entries.items():
                        for (i2, j2), v2 in rb.entries.items():
                            ent[(toff + i1 * wyt + i2,
                                 soff + j1 * wy + j2)] = v1 * v2
                mats[k] = ExactMatrix(stalks[tau].dim(k),
                                      stalks[sig].dim(k), ent)
            restrictions[(sig, tau)] = mats
    out = SheafComplex(prod, stalks, restrictions, check=False)
    out.certified = fx.certified and fy.certified
    return out


def _tensor_blocks(layout, dim):
    """{(p, q): (offset, size)} for one degree of a `tensor_complex` layout
    whose degree has dimension dim."""
    ends = [off for (_p, _q, off) in layout[1:]] + [dim]
    return {(p, q): (off, end - off) for (p, q, off), end in zip(layout, ends)}


def truncate(sheaf, degree, subspaces=None):
    """Canonical truncation: keep degrees below, the kernel at the cutoff.

    `subspaces` optionally replaces the kernel at specific cells by a
    smaller d-stable subspace (columns of a matrix in stalk coordinates,
    which must contain the image of the previous differential); used for
    refined middle-degree conditions.  Its columns must be independent,
    else SheafError.

    Kernel bases.  A stalk of a pushforward whose fiber has a least cell s
    (`kan_pushforward`'s `least_cells`) gets its basis of ker d^k from the
    stalk itself, with no elimination (`_cone_kernel`); every other stalk
    gets `kernel_basis`.  Every flag a whose bottom is not s (an A-flag)
    has a partner (s) + a, and the arrow from block (a, q) to
    ((s) + a, q) drops s: sign +1, identity matrix.  Every flag with bottom
    s but (s) is such a partner, so this is an acyclic matching with unit
    weights (Skoldberg, "Morse theory from an algebraic viewpoint", Trans.
    AMS 2006), and it leaves the stalk F_s on (s), whose differential d_s
    is the (s) -> (s) block: the stalk contracts onto F_s, as a homotopy
    limit over a poset with an initial object does (Bousfield and Kan,
    "Homotopy Limits, Completions and Localizations", 1972).  Deleting s
    from the front is a homotopy h with id - iota pi = dh + hd, and h lands
    on the A-flags, so every cocycle is iota(pi x) plus a coboundary of the
    A-flags.  The basis is
    - the columns of d^(k-1) at the A-flags of degree k - 1, in layout
      order; each has a lone +1, on its partner's row;
    - iota(z) for z in `kernel_basis` of d_s: z on (s), and on each
      one-cell flag (c) the restriction r(s, c) z, read off as minus the
      ((s, c), k) block of d^k(z on (s)).  Its unit rows are z's, on (s),
      where the A-columns vanish.

    Certificate, from a certified input, at every size.  Kernel: the
    A-columns are cocycles by the pushforward's d o d = 0 certificate, and
    d^k iota(Z) = 0 is checked with one product (CertificateError).  The
    columns are independent, each having a lone +1 row.  They span: every
    A-flag of degrees k - 1 and k has its partner block in the layout, and
    every partner of degree k its A-flag (SheafError if not; a pushforward
    cut at k must hold degree k + 1).  Then d^k, on the partner rows of
    the A-flags of degree k and on (s), is [[I, *], [0, d_s]] from the
    A-columns and (s), so dim ker d^k is at most the number of partners of
    degree k plus dim ker d_s, which is the number of columns.  Caller
    subspaces are checked independent by rank.  Maps: below k they are
    the input's.  With B the basis at a cell, `solve_many` certifies
    B X = d^{k-1} and B_b Y = r B_a exactly (r B_a is a row selection of
    B_a when every row of r holds a lone 1, as a pushforward's
    projections do), so each output identity at k (d o d = 0, chain map,
    functoriality) times B on the left is the input's, and B is
    injective.

    The result records its input as `untruncated`, k as `cutoff`, the
    bases B per cell as `inclusions`, and the cells that took caller
    subspaces as `subspace_cells`; `plain_truncation` reads these to
    rebuild the truncation without subspaces from it.
    """
    k = int(degree)
    subspaces = {tuple(c): m for c, m in (subspaces or {}).items()}
    for c, m in subspaces.items():
        # kernel bases are injective by construction (a unit row per column)
        if rank(m) != m.cols:
            raise SheafError("subspace at %r has dependent columns" % (c,))
    bases, stalks = {}, {}
    for c in sheaf.stalks:
        bases[c], stalks[c] = _truncated_stalk(sheaf, c, k, subspaces.get(c))
    basis_rows = {}     # cell -> row dicts of its basis, once selected from
    restrictions = {cover: _truncated_cover(sheaf, cover, k, bases, basis_rows)
                    for cover in sheaf.restrictions}
    return _truncation(sheaf, k, stalks, restrictions, bases,
                       frozenset(c for c in sheaf.stalks if c in subspaces))


def plain_truncation(G):
    """`truncate(G.untruncated, G.cutoff)`, from the truncation G itself.

    Only the cells in `G.subspace_cells`, which took caller subspaces, get
    their basis and stalk recomputed, and only the covers touching one of
    them get their maps recomputed; every other stalk, basis and
    restriction is G's own object.  A G that took no subspaces is returned
    as it is.

    Proof.  `truncate` works cell by cell (`_truncated_stalk`): a cell's
    basis and stalk depend only on that cell's stalk, stalk layout and
    least cell, the cutoff k and the cell's subspace, if any.  A cover's
    maps (`_truncated_cover`) depend only on the input's maps along it and
    on the bases at its two ends.  Away from the subspace cells these
    inputs are the same for G and for `truncate(G.untruncated, k)`, so
    every reused piece is the one `truncate` computes, and it was certified
    when G was built; the recomputed pieces come from the same two bodies
    and are certified by them.
    """
    cells = G.subspace_cells
    if not cells:
        return G
    R, k = G.untruncated, G.cutoff
    bases, stalks = dict(G.inclusions), dict(G.stalks)
    for c in cells:
        bases[c], stalks[c] = _truncated_stalk(R, c, k)
    basis_rows = {}
    restrictions = dict(G.restrictions)
    for cover in R.restrictions:
        if cover[0] in cells or cover[1] in cells:
            restrictions[cover] = _truncated_cover(R, cover, k, bases,
                                                   basis_rows)
    return _truncation(R, k, stalks, restrictions, bases, frozenset())


def _truncated_stalk(sheaf, c, k, subspace=None):
    """(basis of the kept cocycles, truncated stalk) at cell c, cut at k:
    `subspace` if given, else the cone contraction's basis on a fiber with
    a least cell, else `kernel_basis`."""
    cx = sheaf.stalks[c]
    least = sheaf.least_cells.get(c)
    if subspace is not None:
        kb = subspace
    elif least is not None:
        kb = _cone_kernel(cx, sheaf.stalk_layouts[c], least, k)
    else:
        kb = kernel_basis(cx.diff(k))
    dims = {q: cx.dim(q) if q < k else kb.cols
            for q in cx.degrees() if q <= k}
    diffs = {}
    for q in sorted(dims):
        if q + 1 not in dims:
            continue
        if q + 1 < k:
            diffs[q] = cx.diff(q)
        else:
            # express d^{k-1} in the subspace basis
            diffs[q] = solve_columns(kb, cx.diff(q))
    if not dims:
        dims = {k: 0}
    return kb, CochainComplex(dims, diffs, check=False)


def _truncated_cover(sheaf, cover, k, bases, basis_rows):
    """Maps of the truncation along the cover (a, b): the input's below k,
    and at k the solution of B_b Y = r B_a.  `basis_rows` caches the row
    dicts of the bases that a row selection reads."""
    a, b = cover
    out = {}
    for q, m in sheaf.restrictions[cover].items():
        if q < k:
            out[q] = m
        elif q == k:
            r = sheaf.restriction(a, b, k)
            pick = _row_selection(r)
            if pick is None:
                full = r * bases[a]
            else:
                if a not in basis_rows:
                    basis_rows[a] = _rows(bases[a])
                full = _rows_at(basis_rows[a], pick, bases[a].cols)
            out[q] = solve_columns(bases[b], full)
    return out


def _truncation(sheaf, k, stalks, restrictions, bases, subspace_cells):
    out = SheafComplex(sheaf.space, stalks, restrictions, check=False)
    out.certified = sheaf.certified
    # provenance for pairings: the ambient sheaf, how the cutoff degree
    # embeds back into it (columns per cell; lower degrees embed
    # identically), and the cells whose kernel a caller replaced
    out.untruncated = sheaf
    out.cutoff = k
    out.inclusions = bases
    out.subspace_cells = subspace_cells
    return out


def _row_selection(r):
    """[j_0, j_1, ...] when row i of r holds a lone 1, in column j_i (so
    r * m is rows j_0, j_1, ... of m), else None."""
    pick = [None] * r.rows
    for (i, j), v in r.entries.items():
        if v != 1 or pick[i] is not None:
            return None
        pick[i] = j
    return None if None in pick else pick


def _rows_at(rows, pick, cols):
    """The matrix with `cols` columns whose row i is rows[pick[i]], from
    row dicts: r * m for r with `_row_selection(r) == pick` and m with
    `_rows(m) == rows`."""
    return ExactMatrix._of(len(pick), cols, {(i, c): v
                                             for i, j in enumerate(pick)
                                             for c, v in rows[j].items()})


def _cone_kernel(cx, layout, s, k):
    """Basis of ker d^k on the flag-complex stalk `cx` (with `layout`)
    of a fiber whose least cell is s: the A-columns of d^(k-1), then
    iota of the kernel of d_s, certified as `truncate` says."""
    index = _block_index(layout)
    bottom = (s,)
    for deg in (k - 1, k):
        for (f, q, _off, size) in layout.get(deg, ()):
            if f[0] != s:
                mate = (bottom + f, q)
            elif len(f) > 1 and deg == k:
                mate = (f[1:], q)
            else:
                continue
            spot = index.get(mate)
            if spot is None or spot[2] != size:
                raise SheafError(
                    "block %r of the stalk over %r has no partner %r; a "
                    "pushforward truncated at %d must hold degree %d"
                    % ((f, q), s, mate, k, k + 1))
    dk = cx.diff(k)
    # the one-cell flags come first in each degree, and iota lives on them
    width = sum(size for (f, _q, _off, size) in layout.get(k, ())
                if len(f) == 1)
    head = ExactMatrix._of(dk.rows, width, {
        ij: v for ij, v in dk.entries.items() if ij[1] < width})
    zs, nz = {}, 0
    spot = index.get((bottom, k))
    if spot is not None:
        _, off, size = spot
        _, toff, tsize = index.get((bottom, k + 1), (k + 1, 0, 0))
        z = kernel_basis(ExactMatrix._of(tsize, size, {
            (i - toff, j - off): v for (i, j), v in head.entries.items()
            if off <= j < off + size and toff <= i < toff + tsize}))
        zs, nz = {(off + i, t): v for (i, t), v in z.entries.items()}, z.cols
        # d^k(z on (s)) is -r(s, c) z on each ((s, c), k): move it to (c)
        back = {}
        for (f, q, coff, csize) in layout[k]:
            if len(f) == 1 and f[0] != s:
                poff = index[(bottom + f, q)][1]
                back.update((poff + x, coff + x) for x in range(csize))
        lift = head * ExactMatrix._of(width, nz, dict(zs))
        zs.update(((back[i], t), -v) for (i, t), v in lift.entries.items()
                  if i in back)
        if not (head * ExactMatrix._of(width, nz, zs)).is_zero():
            raise CertificateError("a lifted kernel vector of the stalk over "
                                   "%r is not a cocycle" % (s,))
    iota = ExactMatrix._of(cx.dim(k), nz, zs)
    acols = [off + x for (f, _q, off, size) in layout.get(k - 1, ())
             if f[0] != s for x in range(size)]
    return cx.diff(k - 1).submatrix_cols(acols).stack_cols(iota)
