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
from fractions import Fraction

from .linalg import CochainComplex, ExactMatrix, kernel_basis, rank, rref
from . import sheaves
from .sheaves import (SheafError, constant_sheaf, derived_pushforward,
                      sheaf_cohomology, truncate)
from . import spaces as spaces_mod


class ICError(Exception):
    pass


class EmptyRegularPart(ICError):
    pass


class FormDegenerate(ICError):
    pass


class MezzoStrataMismatch(ICError):
    pass


class NotLagrangian(ICError):
    pass


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
        assert c >= 2, "perversities are indexed by codimension >= 2"
        v = int(self.rule(c))
        return v

    def check_growth(self, max_codim):
        assert self(2) == 0, "perversity must vanish at codimension 2"
        for c in range(2, max_codim):
            step = self(c + 1) - self(c)
            assert step in (0, 1), \
                "perversity grows by 0 or 1 per codimension (at %d)" % c

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
    def from_values(cls, values, name="custom"):
        vals = {int(c): int(v) for c, v in values.items()}

        def rule(c):
            assert c in vals, "no perversity value at codimension %d" % c
            return vals[c]
        return cls(rule, name)

    @classmethod
    def named(cls, name):
        table = {"0": cls.zero, "zero": cls.zero, "t": cls.total,
                 "total": cls.total, "m": cls.lower_middle,
                 "lower": cls.lower_middle, "n": cls.upper_middle,
                 "upper": cls.upper_middle}
        if name not in table:
            raise ICError("unknown perversity %r (use 0, t, m, n)" % (name,))
        return table[name]()

    def __repr__(self):
        return "Perversity(%s)" % self.name


class ICResult:
    """Constructed intersection sheaf plus its global invariants.

    `complex` and `layout` are the sheaf's incidence total complex and its
    block layout (see sheaves.incidence_complex); classes of the result are
    coordinate vectors of that complex.
    """

    def __init__(self, space, sheaf, cutoffs, label):
        self.space = space
        self.sheaf = sheaf
        self.complex, self.layout = sheaves.incidence_complex(sheaf)
        self.cohomology = self.complex.betti_numbers()
        self.cutoffs = cutoffs  # stratum level -> stalk degree cutoff
        self.label = label

    def betti(self):
        width = self.space.dim + 1
        return tuple(self.cohomology.get(k, 0) for k in range(width))

    def __repr__(self):
        return "ICResult(%s, %r)" % (self.label, self.betti())


def _check_regular_part(space):
    reg = space.regular_part()
    if not reg:
        raise EmptyRegularPart("no cells in the top stratum")
    closure = set()
    for c in reg:
        k = len(c)
        closure.add(c)
        for mask in range(1, (1 << k) - 1):
            closure.add(tuple(c[i] for i in range(k) if mask >> i & 1))
    if closure != set(space.complex.cells):
        raise EmptyRegularPart(
            "top stratum is not dense; some cells see no regular part")


def deligne_construction(space, perversity, coefficient=1):
    """Iterated pushforward-and-truncate along the filtration.

    Strata attach in decreasing level order; attaching level p truncates
    stalk degrees above perversity(top - p).
    """
    _check_regular_part(space)
    top = space.top
    if space.singular_levels():
        perversity.check_growth(max(top - p for p in space.singular_levels()))
    F = constant_sheaf(space, coefficient)
    cutoffs = {}
    for p in sorted(space.singular_levels(), reverse=True):
        closed = space.filtration_stage(p)
        F = derived_pushforward(F, closed)
        cut = perversity(top - p)
        cutoffs[p] = cut
        F = truncate(F, cut)
    return ICResult(space, F, cutoffs,
                    "IC^%s(%s)" % (perversity.name, getattr(space, "name", "X")))


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
    """Cohomology of a locally closed union of cells via its flag complex."""
    cells = sorted(set(cells), key=lambda c: (len(c), c))
    if not cells:
        return {}
    flags = sheaves._flags(cells)
    by_deg = {}
    for f in flags:
        by_deg.setdefault(len(f) - 1, []).append(f)
    degrees = sorted(by_deg)
    index = {}
    for n in degrees:
        by_deg[n].sort()
        for i, f in enumerate(by_deg[n]):
            index[f] = i
    dims = {n: len(by_deg.get(n, ())) for n in range(degrees[-1] + 1)}
    diffs = {}
    for n in range(degrees[-1]):
        ent = {}
        for g in by_deg.get(n + 1, ()):
            i = index[g]
            for pos in range(len(g)):
                sub = g[:pos] + g[pos + 1:]
                j = index.get(sub)
                if j is not None:
                    key = (i, j)
                    cur = ent.get(key, 0) + (-1) ** pos
                    if cur:
                        ent[key] = Fraction(cur)
                    elif key in ent:
                        del ent[key]
        diffs[n] = ExactMatrix(dims[n + 1], dims[n], ent)
    return CochainComplex(dims, diffs).betti_numbers()


def _is_closed_stratum(space, cells):
    cellset = set(cells)
    for c in cells:
        for i in range(len(c)):
            face = c[:i] + c[i + 1:]
            if face and face in space.complex.cell_index \
                    and face not in cellset:
                return False
    return True


def stratumwise_rows(space, width=None):
    """One cohomology row per stratum level.

    A closed stratum contributes its own cohomology.  A stratum of dimension
    d that is not closed contributes its cohomology in degrees below d and
    one class per component at degree d.  On a product the rows are the
    degreewise convolutions of the factor rows, stratum pair by stratum
    pair; this is what makes the table multiplicative.
    """
    if width is None:
        width = space.dim + 1
    factors = getattr(space, "factors", None)
    if factors is not None:
        ra = stratumwise_rows(factors[0], width)
        rb = stratumwise_rows(factors[1], width)
        out = {}
        for i, rowa in ra.items():
            for j, rowb in rb.items():
                conv = [0] * width
                for u in range(width):
                    for v in range(width - u):
                        conv[u + v] += rowa[u] * rowb[v]
                key = i + j
                if key in out:
                    out[key] = tuple(x + y for x, y in zip(out[key], conv))
                else:
                    out[key] = tuple(conv)
        return out
    out = {}
    for p in space.stratum_levels():
        cells = space.stratum(p)
        d = max(len(c) - 1 for c in cells)
        row = [0] * width
        if _is_closed_stratum(space, cells):
            coh = _order_cohomology(cells)
            for k, v in coh.items():
                if k < width:
                    row[k] = v
        else:
            coh = _order_cohomology(cells)
            for k, v in coh.items():
                if k < min(d, width):
                    row[k] = v
            if d < width:
                row[d] = len(space.complex.connected_components(cells))
        out[p] = tuple(row)
    return out


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
    width = space.dim + 1
    total = tuple(sum(r[k] for r in rows.values()) for k in range(width))

    _check_regular_part(space)
    F = constant_sheaf(space, 1)
    for p in sorted(space.singular_levels(), reverse=True):
        F = derived_pushforward(F, space.filtration_stage(p))
        F = truncate(F, p)
    ladder_coh = sheaf_cohomology(F)
    ladder = tuple(ladder_coh.get(k, 0) for k in range(width))

    deligne = deligne_construction(space, perversity).betti()
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


def lagrangian_subspaces(form, count_limit=None):
    """Enumerate Lagrangian subspaces of a rational symplectic space.

    Yields n x m column-span matrices in column echelon form, pivot row
    sets in lexicographic order and free parameters running through
    0, 1, -1, 2, -2, ...; enumeration is infinite unless count_limit is
    given.

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
                        ent[(pr, col)] = Fraction(1)
                    for (rr, cc), v in zip(free_pos, combo):
                        if v:
                            ent[(rr, cc)] = Fraction(v)
                    w = ExactMatrix(n, m, ent)
                    if (w.transpose() * j * w).is_zero():
                        yield w
                if t == 0:
                    break
                radius += 1

    gen = emit()
    if count_limit is None:
        return gen
    return list(itertools.islice(gen, int(count_limit)))


def lagrangian_perp(form, w):
    """Symplectic complement of the span of w's columns, as a basis matrix."""
    j = skew_gram_matrix(form)
    rows = w.transpose() * j
    return ExactMatrix.from_columns(j.rows, kernel_basis(rows))


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

    def cells(self):
        return sorted(self.choices)

    def __repr__(self):
        return "Mezzoperversity(%s)" % (
            ", ".join("%r" % (c,) for c in self.cells()))


def _refinement_strata(space):
    """Levels where the two middle perversities disagree: odd codimension."""
    return [p for p in space.singular_levels() if (space.top - p) % 2 == 1]


def link_middle_form(space, vertex):
    """Middle cohomology of a cone point's link with its intersection form.

    Returns (link, basis, form): deterministic middle-degree representatives
    and the antisymmetric cup pairing matrix between them.
    """
    from .duality import cup_pairing_matrix
    lk = spaces_mod.link(space, vertex)
    c = space.top - space.levels[tuple(vertex)]
    mid = (c - 1) // 2
    cx = lk.complex.cochain_complex()
    basis = cx.cohomology_basis(mid)
    form = cup_pairing_matrix(lk.complex, mid, c - 1 - mid, basis, basis)
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
        sign = _permutation_sign(verts)
        assert sz == 1
        ent[(off, idx)] = Fraction(sign)
    return ExactMatrix(n_rows, len(link_cells), ent)


def _permutation_sign(seq):
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def refined_ic(space, mezzo, coefficient=1):
    """Middle-perversity sheaf with Lagrangian middle-degree conditions.

    Only spaces with a single singular stratum of odd codimension whose
    cells are isolated vertices are supported: the last-vertex transport of
    link classes into stalk coordinates is only valid one ladder step deep,
    over the constant sheaf on the regular part.
    """
    _check_regular_part(space)
    refine = _refinement_strata(space)
    if len(space.singular_levels()) != 1 or not refine:
        raise MezzoStrataMismatch(
            "refinement needs exactly one singular stratum, of odd "
            "codimension")
    level = refine[0]
    stratum = space.stratum(level)
    if any(len(c) != 1 for c in stratum):
        raise MezzoStrataMismatch(
            "refinement stratum must consist of isolated vertices")
    need = set(stratum)
    have = set(mezzo.choices)
    if need != have:
        raise MezzoStrataMismatch(
            "mezzo data cells %s do not match stratum cells %s"
            % (sorted(have), sorted(need)))

    c = space.top - level
    mid = (c - 1) // 2
    F = constant_sheaf(space, coefficient)
    F = derived_pushforward(F, space.filtration_stage(level))

    subspaces = {}
    cutoffs = {level: mid}
    for vertex in stratum:
        lk, basis, form = link_middle_form(space, vertex)
        w = mezzo.choices[vertex]
        if not is_lagrangian(form, w):
            raise NotLagrangian(
                "choice at %r is not Lagrangian for the link form" % (vertex,))
        # class representatives in link cochain coordinates
        reps = ExactMatrix.from_rows([list(b) for b in basis]).transpose()
        w_cochain = reps * w
        stalk = F.stalk(vertex)
        layout = F.stalk_layouts[vertex]
        lam = last_vertex_cochain_map(vertex, layout, stalk.dim(mid), lk, mid)
        lifted = lam * w_cochain
        # the transported classes must be cocycles in the stalk
        assert (stalk.diff(mid) * lifted).is_zero(), \
            "transported classes fail to be cocycles"
        # the image plus the lifted classes, keeping independent columns in
        # order (zero columns are never pivots)
        base = stalk.diff(mid - 1).stack_cols(lifted)
        _, keep = rref(base)
        subspaces[vertex] = base.submatrix_cols(keep)
    G = truncate(F, mid, subspaces=subspaces)
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
