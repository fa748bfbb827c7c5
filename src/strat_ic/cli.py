"""Command-line harness: build examples, run pipelines, emit reports.

All numeric output is exact: integers stay integers and rationals print
as "num/den" strings; floats never appear.  Reports serialize as
canonical JSON (sorted keys, explicit "schema": 1) or RFC 4180 CSV, and
identical configuration plus seed gives identical output bytes.  Exit
status is zero exactly when every gating verdict passes; rows flagged
informational never gate.
"""

import argparse
import csv
import hashlib
import io
import json
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import duality, ic, sheaves, spaces
from .examples import UnknownExample, get_example, list_examples
from .linalg import ExactMatrix, FGAbelianGroup, kernel_basis, rank


class BadInput(Exception):
    """Schema violation in a user-supplied file or flag combination.

    `pointer` is a JSON pointer into the offending document ("" for the
    document root).
    """

    def __init__(self, message, pointer=""):
        self.pointer = pointer
        super().__init__("%s (at %r)" % (message, pointer or "/"))


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation; exactly one input source may be set."""

    command: str
    example: str = None
    input_path: str = None
    perversity: str = "lower-middle"
    mezzo_path: str = None
    mode: str = "rational"
    fmt: str = "json"
    seed: int = 0
    degree: int = None
    table: str = "both"
    output: str = None
    dump: bool = False

    def validate(self):
        if self.command in _NEEDS_INPUT:
            if bool(self.example) == bool(self.input_path):
                raise BadInput(
                    "need exactly one of --example or --input", "")
        if self.fmt not in ("json", "csv", "text"):
            raise BadInput("format %r not one of json, csv, text"
                           % self.fmt, "/format")


@dataclass
class ReportBundle:
    """Digest, per-command results, and labeled verdict rows."""

    command: str
    digest: str
    results: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)

    def add(self, label, values, source="computed", verdict=None,
            informational=False):
        if source not in ("computed", "oracle", "target"):
            raise ValueError("row source %r not one of computed, oracle, "
                             "target" % (source,))
        self.rows.append({
            "label": label,
            "source": source,
            "values": values,
            "verdict": verdict,
            "informational": bool(informational),
        })

    def ok(self):
        return all(r["verdict"] is not False
                   for r in self.rows if not r["informational"])

    def to_dict(self):
        return {
            "schema": 1,
            "command": self.command,
            "digest": self.digest,
            "ok": self.ok(),
            "results": self.results,
            "rows": self.rows,
        }


# -- serialization ---------------------------------------------------------

def jsonable(x):
    """Exact JSON image: Fractions become num/den strings, never floats."""
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        raise AssertionError("floats are banned from reports")
    if isinstance(x, str):
        return x
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, ExactMatrix):
        return {"rows": x.rows, "cols": x.cols, "triples": x.to_triples()}
    if isinstance(x, FGAbelianGroup):
        return x.describe()
    return str(x)


def canonical_json(obj):
    return json.dumps(jsonable(obj), sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


def render_csv(bundle):
    """RFC 4180: CRLF line endings, quoted fields where needed."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(["schema", "command", "digest", "ok"])
    w.writerow([1, bundle.command, bundle.digest, bundle.ok()])
    w.writerow(["label", "source", "informational", "verdict", "values"])
    for r in bundle.rows:
        w.writerow([r["label"], r["source"], r["informational"],
                    "" if r["verdict"] is None else r["verdict"],
                    json.dumps(jsonable(r["values"]), sort_keys=True)])
    return buf.getvalue()


def render_text(bundle):
    lines = ["%s  digest=%s  ok=%s" % (bundle.command, bundle.digest,
                                       bundle.ok())]
    for r in bundle.rows:
        mark = " " if r["verdict"] is None else ("+" if r["verdict"] else "-")
        info = " (informational)" if r["informational"] else ""
        lines.append("%s %-34s %-8s %s%s" % (
            mark, r["label"], r["source"],
            json.dumps(jsonable(r["values"]), sort_keys=True), info))
    return "\n".join(lines) + "\n"


def render(bundle, fmt):
    if fmt == "csv":
        return render_csv(bundle)
    if fmt == "text":
        return render_text(bundle)
    return canonical_json(bundle.to_dict())


def _digest(config, payload=b""):
    h = hashlib.sha256()
    h.update(repr((config.command, config.example, config.perversity,
                   config.mode, config.seed, config.degree,
                   config.table)).encode())
    h.update(payload)
    return h.hexdigest()[:16]


# -- input files -----------------------------------------------------------

def _expect(cond, message, pointer):
    if not cond:
        raise BadInput(message, pointer)


def _read_json(path):
    """(document, raw bytes) of the UTF-8 JSON file at `path`.  Its objects
    are `_JSONObject`s; a key given twice at the document root is refused."""
    try:
        with open(path, "rb") as fh:
            payload = fh.read()
        doc = json.loads(payload.decode("utf-8"),
                         object_pairs_hook=_JSONObject)
    except OSError as e:
        raise BadInput("cannot read %s: %s" % (path, e), "")
    except ValueError as e:  # bad UTF-8, bad JSON, or an overlong integer
        raise BadInput("not UTF-8 JSON: %s" % e, "")
    repeated = doc.repeated if isinstance(doc, _JSONObject) else []
    _expect(not repeated, "key named more than once",
            _pointer(*repeated[:1]))
    return doc, payload


def load_space(path):
    """Stratified complex from a UTF-8 JSON description.

    Schema: {"schema": 1, "n_vertices": int, "simplices": [[int...]...],
    "filtration": {"<level>": [[int...]...]}}.  Level keys are plain
    decimal, each given once.  Every cell of the closure must be placed by
    the filtration (closure happens before placement).
    """
    doc, payload = _read_json(path)
    _expect(isinstance(doc, dict), "document must be an object", "")
    _expect(isinstance(doc.get("n_vertices"), int) and
            not isinstance(doc.get("n_vertices"), bool),
            "n_vertices must be an integer", "/n_vertices")
    simplices = doc.get("simplices")
    _expect(isinstance(simplices, list), "simplices must be a list",
            "/simplices")
    _expect(simplices, "simplices must not be empty", "/simplices")
    for i, s in enumerate(simplices):
        _expect(isinstance(s, list) and s, "simplex must be a nonempty list",
                "/simplices/%d" % i)
        for j, v in enumerate(s):
            _expect(isinstance(v, int) and not isinstance(v, bool),
                    "vertex must be an integer", "/simplices/%d/%d" % (i, j))
        _expect(all(0 <= v < doc["n_vertices"] for v in s),
                "vertex out of range 0..%d" % (doc["n_vertices"] - 1),
                "/simplices/%d" % i)
        _expect(len(set(s)) == len(s), "simplex has repeated vertices",
                "/simplices/%d" % i)
    filtration = doc.get("filtration")
    _expect(isinstance(filtration, dict), "filtration must be an object",
            "/filtration")
    repeated = filtration.repeated
    _expect(not repeated, "level named more than once",
            _pointer("filtration", *repeated[:1]))
    stages = {}
    for key, cells in filtration.items():
        _expect(_VERTEX_KEY.fullmatch(key), "filtration keys are levels in "
                "plain decimal", _pointer("filtration", key))
        _expect(isinstance(cells, list), "stage must be a list of cells",
                "/filtration/%s" % key)
        for i, c in enumerate(cells):
            _expect(isinstance(c, list) and
                    all(isinstance(v, int) and not isinstance(v, bool)
                        for v in c),
                    "cell must be a list of integers",
                    "/filtration/%s/%d" % (key, i))
            _expect(all(0 <= v < doc["n_vertices"] for v in c),
                    "vertex out of range 0..%d" % (doc["n_vertices"] - 1),
                    "/filtration/%s/%d" % (key, i))
            _expect(len(set(c)) == len(c), "cell has repeated vertices",
                    "/filtration/%s/%d" % (key, i))
        stages[key] = [tuple(c) for c in cells]
    try:
        cx = spaces.SimplicialComplex(doc["n_vertices"],
                                      [tuple(s) for s in simplices])
        return spaces.build_stratified(cx, stages), payload
    except spaces.CellNotFound as e:
        raise BadInput("invalid space: %s" % e, "/filtration/%s/%d" % e.where)
    except spaces.StratificationError as e:
        raise BadInput("invalid space: %s" % e, "/filtration")


_MEZZO_ENTRY = re.compile(r"[+-]?[0-9]+(?:/([0-9]+))?")


def _mezzo_entry(v):
    """A mezzo matrix entry as a Fraction: a JSON integer, or a string
    "[+-]digits" or "[+-]digits/digits" with a nonzero denominator.  None
    for anything else (bools, floats, decimals, exponents, spaces, and
    digit strings longer than Python converts to int)."""
    if type(v) is int:
        return Fraction(v)
    if isinstance(v, str):
        m = _MEZZO_ENTRY.fullmatch(v)
        try:
            if m and (m[1] is None or int(m[1])):
                return Fraction(v)
        except ValueError:
            pass
    return None


# a vertex or level key in plain decimal: no sign, padding, underscore or
# leading zero
_VERTEX_KEY = re.compile(r"0|[1-9][0-9]*")


class _JSONObject(dict):
    """A JSON object that lists in `repeated` the keys it was given more
    than once; `json` alone keeps the last value silently."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.repeated = sorted(k for k, n in Counter(
            k for k, _v in pairs).items() if n > 1)


def _pointer(*parts):
    """JSON pointer to `parts` (RFC 6901: "~" is "~0" and "/" is "~1")."""
    return "".join("/" + str(p).replace("~", "~0").replace("/", "~1")
                   for p in parts)


def load_mezzo(path, space):
    """(Mezzoperversity, raw bytes) from {"schema": 1, "choices":
    {"<vertex>": rows}}.

    The keys are the vertices of the first odd-codimension stratum of
    `space`, each once, in plain decimal (no sign, padding, underscore or
    leading zero).  Each matrix is given by rows of entries (see
    `_mezzo_entry`), one row per middle Betti number of the vertex's link;
    columns span the chosen subspace of the link's middle cohomology.
    """
    doc, payload = _read_json(path)
    _expect(isinstance(doc, dict) and isinstance(doc.get("choices"), dict),
            "mezzo document must carry a choices object", "/choices")
    levels = ic.refinement_strata(space)
    stratum = set(space.stratum(levels[0])) if levels else set()
    by_key = {str(c[0]): c for c in stratum if len(c) == 1}
    repeated = doc["choices"].repeated
    _expect(not repeated, "vertex named more than once",
            _pointer("choices", *repeated[:1]))
    choices = {}
    for key, rows in doc["choices"].items():
        _expect(_VERTEX_KEY.fullmatch(key), "choice keys are vertex indices "
                "in plain decimal", _pointer("choices", key))
        _expect(key in by_key, "choice keys are vertices of the "
                "odd-codimension stratum", _pointer("choices", key))
        vertex = by_key[key]
        _expect(isinstance(rows, list) and rows and
                all(isinstance(r, list) for r in rows),
                "matrix must be a list of rows", "/choices/%s" % key)
        lk = spaces.link(space, vertex)
        mid = (space.top - levels[0] - 1) // 2
        _expect(len(rows) == lk.complex.cochain_complex().betti_numbers()[mid],
                "matrix needs one row per middle Betti number of the link",
                "/choices/%s" % key)
        parsed = []
        for i, row in enumerate(rows):
            _expect(len(row) == len(rows[0]), "rows must have equal length",
                    "/choices/%s/%d" % (key, i))
            out = []
            for j, v in enumerate(row):
                x = _mezzo_entry(v)
                _expect(x is not None, "entries are integers or num/den "
                        "strings", "/choices/%s/%d/%d" % (key, i, j))
                out.append(x)
            parsed.append(out)
        choices[vertex] = ExactMatrix.from_rows(parsed)
    missing = sorted(stratum - set(choices))
    _expect(not missing, "no choice for stratum cells %s" % missing,
            "/choices")
    return ic.Mezzoperversity(choices), payload


def _example(name):
    """The example space; an unknown id, or a composite whose filtration
    is refused (a product that breaks the frontier condition), is a fault
    of `--example`."""
    try:
        return get_example(name)
    except (UnknownExample, spaces.StratificationError) as e:
        raise BadInput(str(e), "/example") from None


def _resolve_space(config):
    if config.input_path:
        space, payload = load_space(config.input_path)
        return space, _digest(config, payload)
    return _example(config.example), _digest(config)


def _degree(config, n, default):
    """--degree, or `default` when it is absent; refused outside 0..n."""
    k = default if config.degree is None else config.degree
    _expect(k is None or 0 <= k <= n, "degree %s outside 0..%d" % (k, n),
            "/degree")
    return k


def _perversity(name):
    try:
        return ic.Perversity.named(name)
    except ic.ICError:
        raise BadInput("perversity %r not recognized" % name, "/perversity")


def _betti_list(space):
    return list(space.complex.betti_numbers())


def _coh_list(coh, width):
    return [coh.get(k, 0) for k in range(width)]


# -- subcommands -----------------------------------------------------------

def cmd_build(config):
    space, digest = _resolve_space(config)
    bundle = ReportBundle("build", digest)
    cx = space.complex
    bundle.results["dim"] = cx.dim
    bundle.results["levels"] = sorted(space.stratum_levels())
    bundle.add("f-vector", list(cx.f_vector()))
    bundle.add("euler-characteristic", cx.euler_characteristic())
    bundle.add("betti", _betti_list(space))
    try:
        space.validate()
        bundle.add("stratification-valid", True, verdict=True)
    except spaces.StratificationError as e:
        bundle.add("stratification-valid", str(e), verdict=False)
    if config.dump:
        bundle.results["cells"] = [
            {"cell": list(c), "level": space.levels[c]}
            for c in sorted(cx.cells)]
    return bundle


def cmd_sheaf(config):
    space, digest = _resolve_space(config)
    bundle = ReportBundle("sheaf", digest)
    F = sheaves.constant_sheaf(space)
    width = space.dim + 1
    # one incidence complex: its cohomology is the report, and the d o d
    # row audits the same complex
    cx, _lay = sheaves.incidence_complex(F)
    computed = _coh_list(cx.betti_numbers(), width)
    oracle = _betti_list(space)
    bundle.add("sheaf-cohomology", computed)
    bundle.add("simplicial-betti", oracle, source="oracle",
               verdict=computed == oracle)
    square_zero = all(
        (cx.diff(k + 1) * cx.diff(k)).is_zero()
        for k in range(cx.lo, cx.hi))
    bundle.add("differential-squares-to-zero", square_zero,
               verdict=square_zero)
    return bundle


def cmd_derham(config):
    space, digest = _resolve_space(config)
    bundle = ReportBundle("derham", digest)
    rep = ic.stratified_de_rham(space, _perversity(config.perversity))
    if config.table in ("stratumwise", "both"):
        for p in sorted(rep.rows):
            bundle.add("stratum-%d" % p, list(rep.rows[p]))
        bundle.add("stratumwise-total", list(rep.total))
    if config.table in ("ladder", "both"):
        bundle.add("dimension-ladder", list(rep.ladder))
        bundle.add("perversity-ladder", list(rep.deligne))
        agree = tuple(rep.ladder) == tuple(rep.deligne)
        bundle.add("ladders-agree", agree, informational=True)
    bundle.results["perversity"] = rep.perversity.name
    return bundle


def cmd_ih(config):
    space, digest = _resolve_space(config)
    bundle = ReportBundle("ih", digest)
    perv = _perversity(config.perversity)
    res = ic.deligne_construction(space, perv)
    bundle.add("ih-dims", list(res.betti()))
    cert = ic.verify_support_conditions(res)
    for p in sorted(cert):
        row = cert[p]
        bundle.add("support-level-%d" % p,
                   {"allowed": row["allowed"], "observed": row["observed"]},
                   verdict=row["ok"])
    bundle.results["cutoffs"] = {str(p): c for p, c in res.cutoffs.items()}
    bundle.results["perversity"] = perv.name
    return bundle


def cmd_duality(config):
    space, digest = _resolve_space(config)
    bundle = ReportBundle("duality", digest)
    n = space.dim
    degree = _degree(config, n, None)
    if not space.singular_levels():
        degrees = range(n + 1) if degree is None else [degree]
        for pm in duality.duality_pairings(space, degrees):
            k = pm.row_degree
            bundle.add("pairing-%d-%d" % (k, n - k), pm.matrix,
                       verdict=pm.nondegenerate())
    else:
        out = duality.stratumwise_duality(space)
        for key in sorted(out["rows"]):
            bundle.add("stratum-%s" % key, out["rows"][key])
        bundle.add("total", out["total"])
        bundle.add("mirror", out["mirror"], informational=True,
                   verdict=out["symmetric"])
    return bundle


def cmd_kunneth(config):
    space_name = config.example or ""
    names = space_name[len("product:"):].split(",")
    if (config.input_path or not space_name.startswith("product:")
            or len(names) != 2):
        raise BadInput("kunneth needs --example product:<id>,<id>",
                       "/example")
    left, right = (_example(name) for name in names)
    bundle = ReportBundle("kunneth", _digest(config))
    try:
        rep = duality.kunneth(left, right, mode=config.mode)
    except duality.ModeMismatch as e:
        raise BadInput(str(e), "/mode") from None
    except spaces.StratificationError as e:
        # the product of two valid factors can break the frontier condition
        raise BadInput(str(e), "/example") from None
    bundle.add("product", rep.lhs)
    bundle.add("prediction", rep.rhs, source="oracle", verdict=rep.match)
    if rep.detail:
        bundle.results["detail"] = rep.detail
    if rep.closed_strata_ok is not None:
        bundle.add("closed-strata-direct", rep.closed_strata_ok,
                   verdict=rep.closed_strata_ok)
    return bundle


def cmd_intersect(config):
    space, digest = _resolve_space(config)
    bundle = ReportBundle("intersect", digest)
    n = space.dim
    if space.singular_levels():
        raise BadInput("intersect runs on nonsingular examples; build "
                       "refined results in code for singular ones",
                       "/example")
    k = _degree(config, n, n // 2)
    red = space.complex.cochain_complex().reduction()
    basis_p = red.cohomology_basis(k)
    basis_q = red.cohomology_basis(n - k)
    pairing = None
    matrix = [[] for _ in basis_p]
    if basis_p and basis_q:
        # one orientation for the whole matrix; with an empty side there
        # is nothing to pair, and a space with boundary (the interval)
        # must not reach orient_top_cells' NotOrientable
        pairing = duality.cup_pairing_matrix(space.complex, k, n - k,
                                             basis_p, basis_q)
        matrix = [[pairing.entry(i, j) for j in range(pairing.cols)]
                  for i in range(pairing.rows)]
    bundle.add("numbers-%d-%d" % (k, n - k), matrix)
    if len(basis_p) == len(basis_q):
        # empty cohomology pairs nondegenerately by convention (rank 0 = 0)
        got = rank(pairing) if pairing is not None else 0
        full = got == len(basis_p)
        bundle.add("nondegenerate", full, verdict=full)
    if n > 0:
        # degrees that do not sum to the dimension must contribute zero
        pt = red.cohomology_basis(0)[0]
        off = duality.intersection_number(space, pt, pt, 0, 0)
        bundle.add("complementary-bookkeeping-zero", off, verdict=off == 0)
    return bundle


def cmd_mezzo(config):
    space, digest = _resolve_space(config)
    bundle = ReportBundle("mezzo", digest)
    levels = ic.refinement_strata(space)
    if not levels:
        raise BadInput("no odd-codimension stratum to refine", "/example")
    level = levels[0]
    if config.mezzo_path:
        mezzo, payload = load_mezzo(config.mezzo_path, space)
        bundle.digest = _digest(config, payload)
    else:
        choices = {}
        for v in sorted(space.stratum(level)):
            _lk, _basis, form = ic.link_middle_form(space, v)
            choices[v] = ic.lagrangian_subspaces(form, count_limit=1)[0]
        mezzo = ic.Mezzoperversity(choices)
    for v in sorted(mezzo.choices):
        bundle.add("subspace-%d" % v[0], mezzo.choices[v])
    local = duality.local_contribution(space, mezzo, level=level)
    for v in sorted(local["per_vertex"]):
        got = local["per_vertex"][v]
        want = mezzo.choices[v].cols
        bundle.add("local-contribution-%d" % v[0], got,
                   verdict=got == want)
    if config.dump:
        try:
            res = ic.refined_ic(space, mezzo)
        except ic.NotLagrangian as e:
            raise BadInput("choice is not Lagrangian for the link form",
                           _pointer("choices", e.vertex[0]))
        dims = list(res.betti())
        bundle.add("refined-dims", dims)
        # mirror symmetry is a property of closed models only (a one-sided
        # cone honestly reports false here), so it never gates
        bundle.add("self-dual-dims", dims == dims[::-1],
                   informational=True)
    return bundle


# -- reproduction suite ----------------------------------------------------

def _truncated_link_oracle(base, cut, width):
    b = base.complex.betti_numbers()
    return [b[k] if k <= cut and k < len(b) else 0 for k in range(width)]


def _scenario_cone_table(bundle):
    rep = ic.stratified_de_rham(get_example("cone-s1"))
    bundle.add("cone-s1 stratumwise total", list(rep.total))
    bundle.add("cone-s1 stratumwise target", [2, 1, 1], source="target",
               verdict=list(rep.total) == [2, 1, 1])
    bundle.add("cone-s1 hypercohomology ladder", list(rep.ladder))
    bundle.add("cone-s1 table-vs-ladder differ",
               {"table": list(rep.total), "ladder": list(rep.ladder)},
               source="target", informational=True,
               verdict=tuple(rep.total) != tuple(rep.ladder))


def _scenario_cone_genus2(bundle):
    total = ic.stratumwise_total(
        ic.stratumwise_rows(get_example("cone-genus2")))
    bundle.add("cone-genus2 stratumwise total", total)
    bundle.add("cone-genus2 middle dim (2g)", 4, source="target",
               verdict=total[1] == 4)


def _scenario_cone_oracles(bundle):
    for base_name in ("s1", "t2", "genus2", "s2"):
        base = get_example(base_name)
        cone = get_example("cone-" + base_name)
        width = cone.dim + 1
        for pname in ("m", "n"):
            perv = ic.Perversity.named(pname)
            res = ic.deligne_construction(cone, perv)
            cut = perv(cone.top)
            oracle = _truncated_link_oracle(base, cut, width)
            bundle.add("cone-%s %s computed" % (base_name, pname),
                       list(res.betti()))
            bundle.add("cone-%s %s oracle" % (base_name, pname), oracle,
                       source="oracle", verdict=list(res.betti()) == oracle)


def _scenario_witt(bundle):
    # the two middle perversities agree exactly on the Witt examples, so
    # the link criterion must predict whether the ranks split
    for name in ("s1", "s2", "t2", "genus2", "cone-s1", "cone-s2",
                 "cone-t2", "cone-genus2", "suspension-t2"):
        space = get_example(name)
        witt = ic.witt_check(space)["is_witt"]
        lower = list(ic.deligne_construction(
            space, ic.Perversity.lower_middle()).betti())
        upper = list(ic.deligne_construction(
            space, ic.Perversity.upper_middle()).betti())
        bundle.add("witt %s middle-perversity split" % name,
                   {"lower": lower, "upper": upper, "witt": witt},
                   verdict=(lower == upper) == witt)
        if witt:
            rep = ic.stratified_de_rham(space)
            bundle.add("witt %s ladder-vs-ih" % name,
                       {"ladder": list(rep.ladder),
                        "ih": list(rep.deligne)},
                       verdict=tuple(rep.ladder) == tuple(rep.deligne))


def _scenario_duality(bundle):
    for name in ("s2", "t2", "genus2"):
        space = get_example(name)
        ok = all(pm.nondegenerate() for pm in duality.duality_pairings(
            space, range(space.dim + 1)))
        bundle.add("duality %s all degrees" % name, ok, verdict=ok)


def _scenario_refined(bundle):
    st = get_example("suspension-t2")
    verts = sorted(st.stratum(0))
    forms = {v: ic.link_middle_form(st, v)[2] for v in verts}
    laggies = {v: ic.lagrangian_subspaces(forms[v], count_limit=3)
               for v in verts}
    results = []
    for i in range(3):
        mezzo = ic.Mezzoperversity({v: laggies[v][i] for v in verts})
        res = ic.refined_ic(st, mezzo)
        dims = list(res.betti())
        results.append(res)
        bundle.add("refined W%d dims" % (i + 1), dims,
                   verdict=dims == dims[::-1])
    context = duality.PairingContext(results[0], results[0])
    for k in range(4):
        pm = context.matrix(k)
        bundle.add("refined W1 pairing %d-%d" % (k, 3 - k),
                   pm.matrix, verdict=pm.nondegenerate())


def _scenario_fibration(bundle):
    for name in ("s1", "genus2"):
        rep = duality.fibration_decomposition(get_example(name))
        bundle.add("fibration %s rows" % name, rep["rows"])
        bundle.add("fibration %s additivity" % name,
                   rep["additivity"]["ok"], verdict=rep["additivity"]["ok"])
        split = rep["degree_split"]
        bundle.add("fibration %s k=2 split" % name, split,
                   verdict=split["shows_plus_one"] if name == "genus2"
                   else None,
                   informational=name != "genus2")
        lit = rep["literal_additivity"]
        bundle.add("fibration %s shifted-row residue" % name,
                   [r["degree"] for r in lit["per_degree"] if not r["ok"]],
                   source="target", informational=True,
                   verdict=lit["ok"] or None)


def _scenario_local(bundle):
    ct = get_example("cone-t2")
    apex = sorted(ct.stratum(0))[0]
    _lk, _basis, form = ic.link_middle_form(ct, apex)
    for i, w in enumerate(ic.lagrangian_subspaces(form, count_limit=3)):
        out = duality.local_contribution(
            ct, ic.Mezzoperversity({apex: w}), level=0)
        bundle.add("local W%d on cone-t2" % (i + 1), out["value"],
                   verdict=out["value"] == 1)
    s2 = get_example("s2")
    pt = s2.complex.cochain_complex().cohomology_basis(0)[0]
    z = duality.intersection_number(s2, pt, pt, 0, 0)
    bundle.add("point class bookkeeping zero", z, verdict=z == 0)


def _scenario_tor(bundle):
    # two torsion factors, groups Z in degree 0 and Z/2 in degree 2;
    # oracle: tensor the resolution 0 -> Z -2-> Z -> Z/2 -> 0 with Z/2 and
    # read homology through Smith normal form
    z2 = FGAbelianGroup(0, (2,))
    ga = {0: FGAbelianGroup.free(1), 2: z2}
    pred = duality.integral_prediction(ga, ga, 5)
    # Tor(Z/a, Z/b) is Z/gcd(a, b); read the gcd off the Smith form of
    # the presentation [a b] instead of trusting the group arithmetic
    from .linalg import smith_normal_form
    diag = smith_normal_form(ExactMatrix.from_rows([[2, 2]]))[0]
    g = int(abs(diag.entry(0, 0)))
    tor_oracle = "0" if g == 1 else "Z/%d" % g
    bundle.add("tor row degree 3", pred[3].describe())
    bundle.add("tor resolution oracle", tor_oracle, source="oracle",
               verdict=pred[3].describe() == tor_oracle)
    bundle.add("tensor row degree 4", pred[4].describe(),
               verdict=pred[4].describe() == "Z/2")
    bundle.add("mixed row degree 2", pred[2].describe(),
               verdict=pred[2].describe() == "Z/2 + Z/2")


_SCENARIOS = [
    ("cone-s1-table", _scenario_cone_table),
    ("cone-genus2-middle", _scenario_cone_genus2),
    ("cone-oracles", _scenario_cone_oracles),
    ("witt-equivalence", _scenario_witt),
    ("closed-duality", _scenario_duality),
    ("refined-duality", _scenario_refined),
    ("fibration", _scenario_fibration),
    ("local-contribution", _scenario_local),
    ("tor-correction", _scenario_tor),
]


def reproduce_paper(suite="all"):
    """Run the shipped scenarios, comparing computed rows to targets."""
    names = [n for n, _f in _SCENARIOS]
    if suite != "all":
        if suite not in names:
            raise BadInput("unknown scenario %r (known: %s)"
                           % (suite, ", ".join(names + ["all"])), "/example")
        names = [suite]
    chosen = [(n, f) for n, f in _SCENARIOS if n in names]
    bundles = {}
    for name, fn in chosen:
        bundles[name] = ReportBundle(name, "")
        fn(bundles[name])
    out = ReportBundle("reproduce", hashlib.sha256(
        ("reproduce:" + ",".join(names)).encode()).hexdigest()[:16])
    for name, _fn in chosen:
        b = bundles[name]
        out.rows.extend(dict(r, label="%s: %s" % (name, r["label"]))
                        for r in b.rows)
        out.results[name] = {"ok": b.ok()}
    return out


def cmd_reproduce(config):
    suite = config.example or "all"
    return reproduce_paper(suite)


# -- property suite --------------------------------------------------------

def _space_doc(space):
    cx = space.complex
    return {
        "n_vertices": cx.n_vertices,
        "simplices": sorted([list(c) for c in cx.maximal_cells()]),
        "levels": sorted([[list(c), space.levels[c]] for c in cx.cells]),
    }


def _shrink(space, failing):
    """Greedy one-pass shrink: drop maximal cells while the check fails.

    Candidates go through the validating constructor and a refused one is
    skipped, so every shrunk counterexample is a space `--input` takes.  A
    candidate the check refuses (a stratification, IC, sheaf or duality
    error) is skipped too; any other error, a CertificateError among them,
    is a bug and propagates."""
    current = space
    for t in current.complex.maximal_cells():
        remaining = [c for c in current.complex.maximal_cells() if c != t]
        if not remaining:
            break
        try:
            smaller_cx = spaces.SimplicialComplex(
                current.complex.n_vertices, remaining)
            levels = {c: current.levels.get(c, current.top)
                      for c in smaller_cx.cells}
            smaller = spaces.StratifiedComplex(smaller_cx, levels)
            if failing(smaller):
                current = smaller
        except (spaces.StratificationError, ic.ICError, sheaves.SheafError,
                duality.DualityError):
            continue
    return current


def _check_d_squared(space, cc):
    return all((cc.diff(k + 1) * cc.diff(k)).is_zero()
               for k in range(cc.lo, cc.hi))


def _check_rank_nullity(space, cc):
    for k in range(cc.lo, cc.hi + 1):
        d = cc.diff(k)
        if d.cols and rank(d) + kernel_basis(d).cols != d.cols:
            return False
    return True


def _check_gluing(space, cc):
    coh = sheaves.sheaf_cohomology(sheaves.constant_sheaf(space))
    betti = cc.betti_numbers()
    width = space.dim + 1
    return [coh.get(k, 0) for k in range(width)] == \
        [betti[k] for k in range(width)]


def _check_truncation(space):
    levels = space.singular_levels()
    if not levels or len(space.complex.cells) > 120:
        return None
    p = max(levels)
    F = sheaves.constant_sheaf(space)
    cut = max(0, space.top - p - 2)
    G = sheaves.derived_pushforward(F, space.filtration_stage(p),
                                    through=cut)
    T = sheaves.truncate(G, cut)
    for c in space.filtration_stage(p):
        b = T.stalk(c).betti_numbers()
        if any(v and k > cut for k, v in b.items()):
            return False
    return True


def _check_restrictions(space):
    """Whether restrictions compose along the first 25 chains a < b < c,
    in (a, b, c) order; None, checking nothing, on a space over 120 cells
    or with no such chain."""
    if len(space.complex.cells) > 120:
        return None
    flags, _drops = sheaves._flags(space.complex.cells, 3)
    chains = [g for g in flags if len(g) == 3][:25]
    if not chains:
        return None
    levels = space.singular_levels()
    if levels:
        F = sheaves.derived_pushforward(
            sheaves.constant_sheaf(space),
            space.filtration_stage(max(levels)), through=1)
    else:
        F = sheaves.constant_sheaf(space)
    for a, b, c in chains:
        for q in (0, 1):
            direct = F.restriction(a, c, q)
            via = F.restriction(b, c, q) * F.restriction(a, b, q)
            if direct.entries != via.entries:
                return False
    return True


def _check_graded_commutativity(space, cc, flip=False):
    cx = space.complex
    if space.singular_levels() or cx.dim != 2:
        return None
    try:
        signs = duality.orient_top_cells(cx)
    except duality.NotOrientable:
        return None
    basis = cc.cohomology_basis(1)
    if not basis:
        return None
    sign = -1 if not flip else 1  # mutation flips the expected sign
    pos = duality._positions(cx, 1)
    for a in basis:
        for b in basis:
            ab = duality._cup_eval(signs, 1, a, b, pos, pos)
            ba = duality._cup_eval(signs, 1, b, a, pos, pos)
            if ab != sign * ba:
                return False
    return True


def _check_support(space):
    if not space.singular_levels() or len(space.complex.cells) > 120:
        return None
    if any(space.top - p < 2 for p in space.singular_levels()):
        return None  # perversities start at codimension two
    res = ic.deligne_construction(space, ic.Perversity.lower_middle())
    cert = ic.verify_support_conditions(res)
    return all(row["ok"] for row in cert.values())


def _check_euler_product(left, right):
    chi = [s.complex.euler_characteristic()
           for s in (left, right, spaces.product(left, right))]
    return chi[2] == chi[0] * chi[1]


# spaces drawn larger than this stay out of the property sweep's pool
_POOL_MAX_CELLS = 500


def property_suite(seed=0, mutate=None):
    """Randomized invariant sweep over cones, products, and collapses.

    Deterministic for a fixed seed; any failing check attaches a shrunk
    counterexample serialization to its row.
    """
    rng = random.Random(seed)
    bundle = ReportBundle("proptest", hashlib.sha256(
        ("proptest:%d:%s" % (seed, mutate or "")).encode()).hexdigest()[:16])
    bundle.results["seed"] = seed
    bundle.results["mutation"] = mutate
    base_names = ["point", "interval", "s1", "s2", "t2"]
    pool = []
    for i in range(4):
        kind = rng.choice(["cone", "suspension", "product", "collapse"])
        name = rng.choice(base_names)
        if kind == "cone":
            sp = spaces.cone(get_example(name))
            label = "cone-%s" % name
        elif kind == "suspension":
            sp = spaces.suspension(get_example(name))
            label = "suspension-%s" % name
        elif kind == "product":
            other = rng.choice(base_names)
            sp = spaces.product(get_example(name), get_example(other))
            label = "product:%s,%s" % (name, other)
        else:
            other = rng.choice(["interval", "s1"])
            prod = spaces.product(get_example(name), get_example(other))
            sp, _cmap = spaces.collapse(prod, duality._section_slice(prod, 0))
            label = "collapse(%s x %s)" % (name, other)
        if len(sp.complex.cells) <= _POOL_MAX_CELLS:
            pool.append((label, sp))
    # a fixed closed surface keeps the cup checks honest every run
    pool.append(("t2", get_example("t2")))

    # each check takes a space and its simplicial cochain complex, built
    # once per space
    checks = [
        ("d-squared-zero", _check_d_squared),
        ("rank-nullity", _check_rank_nullity),
        ("sheaf-gluing", _check_gluing),
        ("truncation-stalk-contract", lambda s, _cc: _check_truncation(s)),
        ("restriction-composition", lambda s, _cc: _check_restrictions(s)),
        ("graded-commutativity",
         lambda s, cc: _check_graded_commutativity(
             s, cc, flip=mutate == "cup-sign")),
        ("support-certificate", lambda s, _cc: _check_support(s)),
    ]
    for label, sp in pool:
        cc = sp.complex.cochain_complex()
        for cname, fn in checks:
            got = fn(sp, cc)
            if got is None:
                continue
            row_label = "%s: %s" % (label, cname)
            if got:
                bundle.add(row_label, True, verdict=True)
            else:
                shrunk = _shrink(sp, lambda s: fn(
                    s, s.complex.cochain_complex()) is False)
                bundle.add(row_label,
                           {"counterexample": _space_doc(shrunk)},
                           verdict=False)
    lr = (get_example(rng.choice(base_names)),
          get_example(rng.choice(["point", "interval", "s1"])))
    ok = _check_euler_product(*lr)
    bundle.add("euler-multiplicativity", ok, verdict=ok)
    return bundle


def cmd_proptest(config):
    mutate = None
    if config.mode and config.mode.startswith("mutate-"):
        mutate = {"mutate-cup": "cup-sign",
                  "mutate-cup-sign": "cup-sign"}.get(config.mode)
        if mutate is None:
            raise BadInput("unknown mutation %r" % config.mode, "/mode")
    return property_suite(seed=config.seed, mutate=mutate)


# -- entry point -----------------------------------------------------------

_NEEDS_INPUT = {"build", "sheaf", "derham", "ih", "duality", "intersect",
                "mezzo"}

_COMMANDS = {
    "build": cmd_build,
    "sheaf": cmd_sheaf,
    "derham": cmd_derham,
    "ih": cmd_ih,
    "duality": cmd_duality,
    "kunneth": cmd_kunneth,
    "intersect": cmd_intersect,
    "mezzo": cmd_mezzo,
    "reproduce": cmd_reproduce,
    "proptest": cmd_proptest,
}


def _parser():
    """One flat parser: a `command` positional and the options all commands
    share, each declared once.  Options may come before or after the
    command.  `main` parses with the one built at import (`_PARSER`):
    `parse_args` keeps nothing between calls, each returns a new namespace
    from the declared defaults, so no value of one call reaches the next."""
    p = argparse.ArgumentParser(
        prog="strat-ic",
        description="Exact intersection-cohomology toolkit over "
                    "simplicial stratified spaces.")
    p.add_argument("command", choices=list(_COMMANDS))
    p.add_argument("--example", default=None,
                   help="built-in id (see list: %s)"
                   % ", ".join(list_examples()))
    p.add_argument("--input", dest="input_path", default=None,
                   help="UTF-8 JSON space description")
    p.add_argument("--output", default=None)
    p.add_argument("--format", dest="fmt", default="json",
                   choices=["json", "csv", "text"])
    p.add_argument("--perversity", default="lower-middle")
    p.add_argument("--mezzo", dest="mezzo_path", default=None)
    p.add_argument("--mode", default="rational")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--table", default="both",
                   choices=["stratumwise", "ladder", "both"])
    p.add_argument("--dump", action="store_true")
    return p


def _run(config):
    """The command's report; a perversity or a link form asked for at a
    stratum of codimension below 2, a link form at a stratum that is not
    isolated cone points with closed links, a refinement of a space without
    exactly one singular stratum, of odd codimension, and top cells that
    admit no orientation (a space with boundary) are faults of the given
    space."""
    try:
        return _COMMANDS[config.command](config)
    except (ic.LowCodimension, ic.MezzoStrataMismatch) as e:
        raise BadInput(str(e), "/filtration" if config.input_path
                       else "/example") from None
    except duality.NotOrientable as e:
        raise BadInput(str(e), "/simplices" if config.input_path
                       else "/example") from None


def _write(text, path):
    """The report to stdout, or to `path` (BadInput at /output when it
    cannot be written)."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise BadInput("cannot write %s: %s" % (path, e.strerror or e),
                       "/output") from None


_PARSER = _parser()


def main(argv=None):
    config = RunConfig(**vars(_PARSER.parse_args(argv)))
    try:
        config.validate()
        bundle = _run(config)
        _write(render(bundle, config.fmt), config.output)
    except (BadInput, duality.DualityError, ic.ICError,
            spaces.StratificationError, sheaves.SheafError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    return 0 if bundle.ok() else 1


if __name__ == "__main__":
    raise SystemExit(main())
