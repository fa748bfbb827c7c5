"""Intersection cohomology of stratified complexes.

The Deligne-style construction attaches strata in decreasing dimension,
pushing forward from the open part and truncating stalk degrees at the
perversity's cutoff for each codimension.  Stalk degrees here always mean
degrees of the flag-complex stalks produced by the pushforward, so the
support table below reads directly off the sheaf.

Middle-degree refinements (for strata where the two middle perversities
disagree) replace the canonical truncation by a chosen Lagrangian subspace
of the link's middle cohomology, transported into stalk coordinates by the
last-vertex map.
"""

from __future__ import annotations

import itertools

from .linalg import (CochainComplex, ExactMatrix, kernel_basis,
                     pivot_columns, rank)
from . import sheaves
from .sheaves import (SheafError, constant_sheaf, derived_pushforward,
                      refine, sheaf_cohomology, truncate)
from . import spaces as spaces_mod


class ICError(Exception):
    pass


class EmptyRegularPart(ICError):
    pass


class LowCodimension(ICError):
    """A perversity value or a link form asked for below codimension 2:
    the space has a singular stratum of codimension 0 or 1."""


class FormDegenerate(ICError):
    pass


class MezzoStrataMismatch(ICError):
    pass


class NotRefinable(MezzoStrataMismatch):
    """A link form asked for at a cone point whose stratum is not made of
    isolated vertices, or whose link is not a closed oriented
    pseudomanifold: a fault of the space."""


class NotLagrangian(ICError):
    """A mezzoperversity choice that is not Lagrangian for its link form;
    `vertex` is the cone point it was given for."""

    def __init__(self, message, vertex):
        super().__init__(message)
        self.vertex = vertex


class Perversity:
    """Growth-constrained function of codimension.

    Requires p(2) = 0 and p(c) <= p(c+1) <= p(c) + 1 on the range it is
    used; values are generated lazily from a rule.

    >>> Perversity.lower_middle()(3)
    0
    >>> Perversity.upper_middle()(3)
    1
    >>> Perversity.zero()(5)
    0
    >>> Perversity.total()(5)
    3
    """

    def __init__(self, rule, name):
        self.rule = rule
        self.name = name

    def __call__(self, codim):
        c = int(codim)
        if c < 2:
            raise LowCodimension("perversities are indexed by codimension "
                                 ">= 2, not %d" % c)
        return int(self.rule(c))

    def check_growth(self, max_codim):
        if self(2) != 0:
            raise ICError("perversity must vanish at codimension 2")
        for c in range(2, max_codim):
            if self(c + 1) - self(c) not in (0, 1):
                raise ICError(
                    "perversity grows by 0 or 1 per codimension (at %d)" % c)

    def dual(self):
        return Perversity(lambda c: c - 2 - self.rule(c),
                          {"0": "t", "t": "0", "m": "n", "n": "m"}.get(
                              self.name, self.name + "*"))

    @classmethod
    def zero(cls):
        return cls(lambda c: 0, "0")

    @classmethod
    def total(cls):
        return cls(lambda c: c - 2, "t")

    @classmethod
    def lower_middle(cls):
        return cls(lambda c: (c - 2) // 2, "m")

    @classmethod
    def upper_middle(cls):
        return cls(lambda c: (c - 1) // 2, "n")

    @classmethod
    def named(cls, name):
        table = {"0": cls.zero, "zero": cls.zero, "t": cls.total,
                 "total": cls.total, "m": cls.lower_middle,
                 "lower": cls.lower_middle, "lower-middle": cls.lower_middle,
                 "n": cls.upper_middle, "upper": cls.upper_middle,
                 "upper-middle": cls.upper_middle}
        if name not in table:
            raise ICError("unknown perversity %r (use one of %s)"
                          % (name, ", ".join(table)))
        return table[name]()

    def __repr__(self):
        return "Perversity(%s)" % self.name


class ICResult:
    """Constructed intersection sheaf plus its global invariants.

    `complex` and `layout` are the sheaf's incidence total complex and its
    block layout (see sheaves.incidence_complex); classes of the result are
    coordinate vectors of that complex.  `reduction` is that complex's
    unit reduction, which gives `cohomology` and, to a pairing, the
    cohomology bases (kept on it per degree).  It cancels the cone
    matching the sheaf's truncation recorded first (`_handed_over`).
    """

    def __init__(self, space, sheaf, cutoffs, label):
        self.space = space
        self.sheaf = sheaf
        self.complex, self.layout = sheaves.incidence_complex(sheaf)
        self.reduction = self.complex.reduction(
            _handed_over(sheaf, self.layout))
        self.cohomology = self.reduction.betti_numbers()
        self.cutoffs = cutoffs  # stratum level -> stalk degree cutoff
        self.label = label

    def betti(self):
        width = self.space.dim + 1
        return tuple(self.cohomology.get(k, 0) for k in range(width))

    def __repr__(self):
        return "ICResult(%s, %r)" % (self.label, self.betti())


def _handed_over(sheaf, layout):
    """The cone matching of a truncation (`SheafComplex.matching`, see
    `sheaves.truncate`) as pairs (k, s, t) of its incidence complex with
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
    AMS 2006): every pair stays a unit in any order, and `_reduce_units`
    re-checks each one."""
    if not sheaf.matching:
        return ()
    at = sheaves._block_index(layout)
    runs = []
    for c, cell_runs in sheaf.matching.items():
        for q, col, row, size in cell_runs:
            k, off, _size = at[(c, q)]
            runs.append((-len(c), -q, off + col, k, at[(c, q + 1)][1] + row,
                         size))
    runs.sort()
    return [(k, s + i, t + i) for _d, _q, s, k, t, size in runs
            for i in range(size)]


def _check_regular_part(space):
    reg = space.regular_part()
    if not reg:
        raise EmptyRegularPart("no cells in the top stratum")
    if spaces_mod.closure(reg) != set(space.complex.cells):
        raise EmptyRegularPart(
            "top stratum is not dense; some cells see no regular part")


def _ladder_step(F, space, level, cut):
    """One step of the ladder: F pushed forward off the filtration stage
    of `level` and truncated at `cut`.  The pushforward is assembled
    through cut, and through cut + 1 only over the fibers with no least
    cell, whose kernels `truncate` eliminates: the degrees its truncation
    reads.  The truncation records it as `untruncated`."""
    F = derived_pushforward(F, space.filtration_stage(level), through=cut)
    return truncate(F, cut)


def _ladder(space, cutoff):
    """The rank-one constant sheaf pushed forward and truncated along the
    filtration: strata attach in decreasing level order, and attaching
    level p truncates stalk degrees above cutoff(p) (`_ladder_step`).
    Returns the sheaf and {level: cutoff}."""
    F = constant_sheaf(space)
    cutoffs = {}
    for p in sorted(space.singular_levels(), reverse=True):
        cut = cutoffs[p] = cutoff(p)
        F = _ladder_step(F, space, p, cut)
    return F, cutoffs


def deligne_construction(space, perversity):
    """Iterated pushforward-and-truncate along the filtration, cut at
    perversity(top - p) when level p attaches."""
    _check_regular_part(space)
    top = space.top
    if space.singular_levels():
        perversity.check_growth(max(top - p for p in space.singular_levels()))
    F, cutoffs = _ladder(space, lambda p: perversity(top - p))
    return ICResult(space, F, cutoffs, "IC^%s(X)" % perversity.name)


def verify_support_conditions(result):
    """Per-stratum stalk degree audit.

    For each singular stratum: the allowed top stalk degree (the cutoff used)
    and the largest degree with nonvanishing stalk cohomology actually
    observed; ok means observed <= allowed.  The regular stratum must sit in
    degree zero.
    """
    space, F = result.space, result.sheaf
    table = {}
    for p in space.stratum_levels():
        allowed = result.cutoffs.get(p, 0)
        worst = None
        for c in space.stratum(p):
            b = F.stalk(c).betti_numbers()
            for k, v in sorted(b.items()):
                if v:
                    worst = k if worst is None else max(worst, k)
        table[p] = {"allowed": allowed,
                    "observed": worst,
                    "ok": worst is None or worst <= allowed}
    return table


# -- stratumwise tables ----------------------------------------------------

def _order_cohomology(cells):
    """Cohomology of a locally closed union of cells via its flag complex.

    One basis vector per strict chain of the cells, in degree len - 1, in
    the order `sheaves._flags` lists them (by length, so each degree is one
    run of places), and d e_f = sum of (-1)^pos e_g over the chains g one
    longer that give f when entry pos is dropped: `_flags` hands over each
    chain's drops as places with those signs, so nothing is sorted or
    hashed.  Distinct drops of a chain are distinct chains, so each entry
    is one +-1.  d o d = 0 by the alternating-sign rule: dropping entries
    i < j of a chain h reaches one chain two ways, j then i with sign
    (-1)^(i + j), and i then j - 1 with sign (-1)^(i + j - 1), which cancel.
    So the complex is built through `CochainComplex._of`, with no product,
    as the one d o d rule builds the flag complexes of `sheaves`.
    """
    flags, drops = sheaves._flags(cells)
    if not flags:
        return {}
    start = [0]     # start[n]: the place of the first chain of degree n
    for n, f in enumerate(flags):
        if len(f) > len(start):
            start.append(n)
    start.append(len(flags))
    dims = {n: start[n + 1] - start[n] for n in range(len(start) - 1)}
    diffs = {n: ExactMatrix._of(dims[n + 1], dims[n], {
        (g - start[n + 1], m - start[n]): sign
        for g in range(start[n + 1], start[n + 2]) for m, sign in drops[g]})
        for n in range(len(dims) - 1)}
    return CochainComplex._of(dims, diffs).betti_numbers()


def _closed_cohomology(space, cells):
    """Cohomology of a closed union of cells from its simplicial cochains;
    equals `_order_cohomology(cells)` (subdivision invariance).  Callers
    have checked that `cells` is closed under faces (`missing_face`)."""
    sub = spaces_mod.SimplicialComplex._of(space.complex.n_vertices, cells)
    return sub.cochain_complex().betti_numbers()


def stratumwise_rows(space):
    """One cohomology row per stratum level, of length dim + 1.

    A closed stratum contributes its own cohomology, read off its simplicial
    cochains.  A stratum of dimension d that is not closed contributes the
    cohomology of its order complex in degrees below d and one class per
    component at degree d.  On a product the rows are `product_rows` of
    the factor rows; this is what makes the table multiplicative.
    """
    width = space.dim + 1
    if space.factors is not None:
        left, right = space.factors
        return product_rows(stratumwise_rows(left), stratumwise_rows(right),
                            width)
    out = {}
    for p in space.stratum_levels():
        cells = space.stratum(p)
        d = max(len(c) - 1 for c in cells)
        row = [0] * width
        if spaces_mod.missing_face(cells, set(cells)) is None:
            for k, v in _closed_cohomology(space, cells).items():
                if k < width:
                    row[k] = v
        else:
            for k, v in _order_cohomology(cells).items():
                if k < min(d, width):
                    row[k] = v
            if d < width:
                row[d] = len(space.complex.connected_components(cells))
        out[p] = tuple(row)
    return out


def product_rows(rows_a, rows_b, width):
    """Rows of a product from its factors' own rows (zero above each
    factor's dimension): convolutions, stratum pair by stratum pair."""
    from .duality import _convolve
    out = {}
    for i, rowa in rows_a.items():
        for j, rowb in rows_b.items():
            conv = _convolve(rowa, rowb, width)
            old = out.get(i + j, (0,) * width)
            out[i + j] = tuple(x + y for x, y in zip(old, conv))
    return out


def stratumwise_total(rows):
    """Degreewise sum of the rows of `stratumwise_rows`."""
    return tuple(map(sum, zip(*rows.values())))


class DeRhamReport:
    """Stratumwise rows plus the two hypercohomology ladders."""

    def __init__(self, space, rows, total, ladder, deligne, perversity):
        self.space = space
        self.rows = rows
        self.total = total
        self.ladder = ladder
        self.deligne = deligne
        self.perversity = perversity

    def __repr__(self):
        return ("DeRhamReport(total=%r, ladder=%r, deligne=%r)"
                % (self.total, self.ladder, self.deligne))


def stratified_de_rham(space, perversity=None):
    """Stratumwise cohomology table and the two global ladders.

    The stratumwise table adds rows per stratum (convolving on products).
    The first ladder truncates at the dimension of each attached stratum;
    the second at the perversity cutoff (lower middle by default).  Both are
    reported; they answer different questions and need not agree.
    """
    if perversity is None:
        perversity = Perversity.lower_middle()
    rows = stratumwise_rows(space)
    total = stratumwise_total(rows)
    # deligne_construction certifies the regular part both ladders need
    deligne = deligne_construction(space, perversity).betti()
    ladder_coh = sheaf_cohomology(_ladder(space, lambda p: p)[0])
    ladder = tuple(ladder_coh.get(k, 0) for k in range(space.dim + 1))
    return DeRhamReport(space, rows, total, ladder, deligne, perversity)


# -- Witt condition --------------------------------------------------------

def _transverse_link(space, level):
    """Link of a top-dimensional cell of the stratum: the transverse slice."""
    cells = space.stratum(level)
    d = max(len(c) - 1 for c in cells)
    cell = sorted(c for c in cells if len(c) - 1 == d)[0]
    return spaces_mod.link(space, cell)


def witt_check(space):
    """Strata of odd codimension must have no middle link cohomology.

    Returns {"is_witt": bool, "strata": {level: entry}} where each entry
    records the codimension and, for odd ones, the middle betti number of
    the transverse link (computed with the lower middle perversity when the
    link is itself stratified).
    """
    out = {}
    ok = True
    for p in space.singular_levels():
        c = space.top - p
        entry = {"codim": c}
        if c % 2 == 0:
            entry["ok"] = True
        else:
            lk = _transverse_link(space, p)
            mid = (c - 1) // 2
            if len(lk.stratum_levels()) <= 1:
                betti = lk.complex.betti_numbers() if lk.complex.cells else ()
                b = betti[mid] if mid < len(betti) else 0
            else:
                b = deligne_construction(
                    lk, Perversity.lower_middle()).betti()[mid]
            entry["middle_betti"] = b
            entry["ok"] = (b == 0)
        ok = ok and entry["ok"]
        out[p] = entry
    return {"is_witt": ok, "strata": out}


# -- Lagrangian data -------------------------------------------------------

def _spiral():
    yield 0
    n = 1
    while True:
        yield n
        yield -n
        n += 1


def _spiral_prefix(n):
    it = _spiral()
    return [next(it) for _ in range(n)]


def skew_gram_matrix(form):
    m = form if isinstance(form, ExactMatrix) else ExactMatrix.from_rows(form)
    if m.rows != m.cols:
        raise FormDegenerate("form matrix must be square")
    if (m + m.transpose()).entries:
        raise FormDegenerate("form must be antisymmetric")
    if rank(m) != m.rows:
        raise FormDegenerate("form is degenerate")
    if m.rows % 2:
        raise FormDegenerate("nondegenerate skew forms need even rank")
    return m


def lagrangian_subspaces(form, count_limit):
    """The first `count_limit` Lagrangian subspaces of a rational
    symplectic space.

    Lists n x m column-span matrices in column echelon form, pivot row
    sets in lexicographic order and free parameters running through
    0, 1, -1, 2, -2, ...; the full enumeration is infinite.

    >>> J = [[0, 1], [-1, 0]]
    >>> [w.to_triples() for w in lagrangian_subspaces(J, count_limit=3)]
    [[(0, 0, '1/1')], [(0, 0, '1/1'), (1, 0, '1/1')], [(0, 0, '1/1'), (1, 0, '-1/1')]]
    """
    j = skew_gram_matrix(form)
    n = j.rows
    m = n // 2

    def emit():
        for pivots in itertools.combinations(range(n), m):
            free_pos = []
            for col, pr in enumerate(pivots):
                for r in range(n):
                    if r > pr and r not in pivots:
                        free_pos.append((r, col))
            t = len(free_pos)
            radius = 0
            while True:
                vals = _spiral_prefix(radius + 1)
                for combo in itertools.product(vals, repeat=t):
                    # tuples not using the newest value were already emitted
                    if radius and vals[-1] not in combo:
                        continue
                    ent = {}
                    for col, pr in enumerate(pivots):
                        ent[(pr, col)] = 1
                    for (rr, cc), v in zip(free_pos, combo):
                        if v:
                            ent[(rr, cc)] = v
                    w = ExactMatrix(n, m, ent)
                    if (w.transpose() * j * w).is_zero():
                        yield w
                if t == 0:
                    break
                radius += 1

    return list(itertools.islice(emit(), int(count_limit)))


def lagrangian_perp(form, w):
    """Symplectic complement of the span of w's columns, as a basis matrix."""
    j = skew_gram_matrix(form)
    rows = w.transpose() * j
    return kernel_basis(rows)


def is_lagrangian(form, w):
    j = skew_gram_matrix(form)
    if w.rows != j.rows or w.cols != j.rows // 2:
        return False
    if rank(w) != w.cols:
        return False
    return (w.transpose() * j * w).is_zero()


# -- mezzoperversities -----------------------------------------------------

class Mezzoperversity:
    """Per-cone-point Lagrangian data refining the middle perversities.

    `choices` maps a vertex cell (a cone point in an odd-codimension
    stratum) to a basis matrix of the chosen subspace of the link's middle
    cohomology, in link cohomology-basis coordinates.
    """

    def __init__(self, choices):
        self.choices = {tuple(c): w for c, w in choices.items()}

    def __repr__(self):
        return "Mezzoperversity(%s)" % (
            ", ".join("%r" % (c,) for c in sorted(self.choices)))


def refinement_strata(space):
    """Levels where the two middle perversities disagree: odd codimension."""
    return [p for p in space.singular_levels() if (space.top - p) % 2 == 1]


def link_middle_form(space, vertex):
    """Middle cohomology of a cone point's link with its intersection form.

    Returns (link, basis, form): deterministic middle-degree representatives
    and the antisymmetric cup pairing matrix between them.  A stratum below
    codimension 2 has a link of dimension 0 or less, which carries no
    antisymmetric middle form: LowCodimension.  A stratum that is not made
    of isolated vertices, or a link with a ridge outside exactly two top
    cells (a link with boundary), has no form either: NotRefinable.
    """
    from .duality import NotOrientable, cup_pairing_matrix
    vertex = tuple(vertex)
    level = space.levels[vertex]
    c = space.top - level
    if c < 2:
        raise LowCodimension("link forms are taken at codimension >= 2, "
                             "not %d (at %r)" % (c, vertex))
    if any(len(cell) != 1 for cell in space.stratum(level)):
        raise NotRefinable("the refinement stratum of %r must consist of "
                           "isolated vertices" % (vertex,))
    lk = spaces_mod.link(space, vertex)
    mid = (c - 1) // 2
    cx = lk.complex.cochain_complex()
    basis = cx.cohomology_basis(mid)
    try:
        form = cup_pairing_matrix(lk.complex, mid, c - 1 - mid, basis, basis)
    except NotOrientable as e:
        raise NotRefinable("the link of %r is not a closed oriented "
                           "pseudomanifold: %s" % (vertex, e)) from None
    return lk, basis, form


def last_vertex_cochain_map(vertex, flag_stalk_layout, n_rows, link, link_deg):
    """Pull back link cochains to flag cochains through the last-vertex map.

    A flag (g0 < g1 < ... < gn) of cells around the cone point maps to the
    link simplex [top vertex of g0 minus the point, ..., top of gn minus the
    point]; degenerate images give zero.  Returns a matrix from link
    cochains in degree link_deg to the n_rows stalk coordinates in the same
    total degree of the flag complex.
    """
    v = vertex[0]
    inv = {amb: i for i, amb in link.vertex_map.items()}
    link_cells = link.complex.cells_of_dim(link_deg)
    link_index = {c: i for i, c in enumerate(link_cells)}
    ent = {}
    for (f, q, off, sz) in flag_stalk_layout.get(link_deg, []):
        if q != 0 or len(f) != link_deg + 1:
            continue
        verts = []
        ok = True
        for g in f:
            rest = tuple(x for x in g if x != v)
            if not rest:
                ok = False
                break
            verts.append(inv[max(rest)])
        if not ok:
            continue
        if len(set(verts)) != len(verts):
            continue
        simplex = tuple(sorted(verts))
        idx = link_index.get(simplex)
        if idx is None:
            continue
        if sz != 1:
            raise ICError("last-vertex transport needs rank-one stalks; "
                          "block %r has size %d" % ((f, q), sz))
        ent[(off, idx)] = _permutation_sign(verts)
    return ExactMatrix(n_rows, len(link_cells), ent)


def _permutation_sign(seq):
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def refined_ic(space, mezzo):
    """Middle-perversity sheaf with Lagrangian middle-degree conditions.

    Only spaces with a single singular stratum of odd codimension whose
    cells are isolated vertices are supported: the last-vertex transport of
    link classes into stalk coordinates is only valid one ladder step deep,
    over the constant sheaf on the regular part.

    That step is the ladder's own (`_ladder_step`, cut at mid = (c - 1) //
    2): the pushforward F, its `untruncated`, is assembled through mid,
    and through mid + 1 only over the fibers with no least cell, the cone
    points' among them.  The Lagrangians are read in F's stalks in degrees
    up to mid, and `refine` cuts the truncation down to them.  A pairing
    that needs stalk degrees above mid builds its own ambient
    (`duality.PairingContext`).
    """
    _check_regular_part(space)
    strata = refinement_strata(space)
    if len(space.singular_levels()) != 1 or not strata:
        raise MezzoStrataMismatch(
            "refinement needs exactly one singular stratum, of odd "
            "codimension")
    level = strata[0]
    stratum = space.stratum(level)
    if any(len(c) != 1 for c in stratum):
        raise NotRefinable(
            "refinement stratum must consist of isolated vertices")
    need = set(stratum)
    have = set(mezzo.choices)
    if need != have:
        raise MezzoStrataMismatch(
            "mezzo data cells %s do not match stratum cells %s"
            % (sorted(have), sorted(need)))

    c = space.top - level
    mid = (c - 1) // 2
    T = _ladder_step(constant_sheaf(space), space, level, mid)
    F = T.untruncated

    subspaces = {}
    cutoffs = {level: mid}
    for vertex in stratum:
        lk, basis, form = link_middle_form(space, vertex)
        w = mezzo.choices[vertex]
        if not is_lagrangian(form, w):
            raise NotLagrangian(
                "choice at %r is not Lagrangian for the link form"
                % (vertex,), vertex)
        # class representatives in link cochain coordinates
        reps = ExactMatrix(len(lk.complex.cells_of_dim(mid)), len(basis),
                           {(i, j): v for j, b in enumerate(basis)
                            for i, v in enumerate(b)})
        w_cochain = reps * w
        stalk = F.stalk(vertex)
        layout = F.stalk_layouts[vertex]
        lam = last_vertex_cochain_map(vertex, layout, stalk.dim(mid), lk, mid)
        lifted = lam * w_cochain
        # the image plus the lifted classes, keeping independent columns in
        # order (zero columns are never pivots); `refine` refuses them
        # unless they are cocycles
        base = stalk.diff(mid - 1).stack_cols(lifted)
        subspaces[vertex] = base.submatrix_cols(pivot_columns(base))
    G = refine(T, subspaces)
    return ICResult(space, G, cutoffs, "IC_L")


def dual_mezzoperversity(space, mezzo):
    """Replace each Lagrangian by its symplectic complement.

    For honest Lagrangians this is the identity on subspaces; the returned
    data carries independently computed complements, so comparing the two is
    a real check.
    """
    out = {}
    for vertex, w in mezzo.choices.items():
        _lk, _basis, form = link_middle_form(space, vertex)
        out[vertex] = lagrangian_perp(form, w)
    return Mezzoperversity(out)
