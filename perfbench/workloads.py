"""Job pools, seeded job lists, job execution and independent checks.

A job is what a user asks for: one ``strat-ic`` command run through
``cli.main(argv)`` with its output captured, or the library calls of a
pairing session.  Every job carries an expected answer that is worked out
here from textbook tables and closed formulas with plain ``Fraction``
arithmetic, never from the package layer being timed.

Every seed gives the same multiset of jobs, in a seeded order with seeded
parameters, so every run measures the same amount of work whatever its
seed; that keeps the end-to-end figures steady while the seed still changes
the inputs the program sees.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

from strat_ic import cli, duality, ic
from strat_ic.examples import get_example

# -- textbook tables ---------------------------------------------------------

# rational Betti numbers of the closed manifolds in the pools
BETTI = {
    "s1": (1, 1),
    "s2": (1, 0, 1),
    "t2": (1, 2, 1),
    "genus2": (1, 4, 1),
    "product:s1,s1": (1, 2, 1),
    "product:s2,s1": (1, 1, 1, 1),
    "product:t2,s1": (1, 3, 3, 1),
    "product:genus2,s1": (1, 5, 5, 1),
}

# Euler characteristics, for the f-vector cross-check of `build`
EULER = {name: sum((-1) ** k * b for k, b in enumerate(bs))
         for name, bs in BETTI.items()}


def _perversity_value(name, codim):
    """lower-middle m(c) = floor((c-2)/2); upper-middle n(c) = c-2-m(c)."""
    m = (codim - 2) // 2
    return m if name == "lower-middle" else codim - 2 - m


def expected_ih(space, perversity):
    """Intersection Betti numbers from the link, by closed formula.

    Cone over L (dimension n, apex of codimension n): IH^k = IH^k(L) for
    k <= p(n), else 0.  Suspension of L (two cone points): Mayer-Vietoris
    over the two cones gives IH^k(L) for k <= p(n), 0 at p(n) + 1, and
    IH^(k-1)(L) above.  A link that is itself a cone is handled by the same
    rule one level down.
    """
    for prefix in ("cone-", "suspension-"):
        if space.startswith(prefix):
            link = space[len(prefix):]
            link_ih = expected_ih(link, perversity)
            n = len(link_ih)
            cut = _perversity_value(perversity, n)
            out = []
            for k in range(n + 1):
                if k <= cut:
                    out.append(link_ih[k] if k < n else 0)
                elif prefix == "cone-" or k == cut + 1:
                    out.append(0)
                else:
                    out.append(link_ih[k - 1])
            return tuple(out)
    return BETTI[space]


def _matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def _triples_matrix(doc):
    m = [[Fraction(0)] * doc["cols"] for _ in range(doc["rows"])]
    for i, j, v in doc["triples"]:
        m[i][j] = Fraction(v)
    return m


def _rank(m):
    """Plain Gaussian elimination over Fraction."""
    m = [list(r) for r in m]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _pairing_ok(m, rows, cols, antisymmetric):
    if len(m) != rows or any(len(r) != cols for r in m):
        return False
    if rows != cols or _rank(m) != rows:
        return False
    if antisymmetric:
        return all(m[i][j] == -m[j][i]
                   for i in range(rows) for j in range(rows))
    return True


def _row(report, label):
    for r in report["rows"]:
        if r["label"] == label:
            return r["values"]
    raise KeyError(label)


# -- checks per command ------------------------------------------------------

def check_build(space, report):
    f = _row(report, "f-vector")
    chi = sum((-1) ** k * x for k, x in enumerate(f))
    return (tuple(_row(report, "betti")) == BETTI[space]
            and _row(report, "euler-characteristic") == EULER[space]
            and chi == EULER[space]
            and _row(report, "stratification-valid") is True)


def check_sheaf(space, report):
    return (tuple(_row(report, "sheaf-cohomology")) == BETTI[space]
            and _row(report, "differential-squares-to-zero") is True)


def check_duality(space, report):
    b = BETTI[space]
    n = len(b) - 1
    for k in range(n + 1):
        m = _triples_matrix(_row(report, "pairing-%d-%d" % (k, n - k)))
        # the cup pairing is antisymmetric on odd middle degrees only
        anti = 2 * k == n and k % 2 == 1
        if not _pairing_ok(m, b[k], b[n - k], anti):
            return False
    return True


def check_intersect(space, report):
    b = BETTI[space]
    n = len(b) - 1
    k = n // 2
    m = _matrix(_row(report, "numbers-%d-%d" % (k, n - k)))
    anti = 2 * k == n and k % 2 == 1
    if b[k] == 0:
        ok = m == []
    else:
        ok = _pairing_ok(m, b[k], b[n - k], anti)
    return ok and Fraction(_row(report, "complementary-bookkeeping-zero")) == 0


def check_kunneth(space, mode, report):
    b = BETTI[space]
    got = _row(report, "product")
    if mode == "integral":
        # every space in the pool is torsion-free: H^k = Z^(b_k)
        want = {str(k): ("0" if v == 0 else "Z" if v == 1 else "Z^%d" % v)
                for k, v in enumerate(b)}
        return got == want
    if tuple(got) != b:
        return False
    return mode != "stratumwise" or _row(report, "closed-strata-direct") is True


def check_ih(space, perversity, report):
    return (tuple(_row(report, "ih-dims")) == expected_ih(space, perversity)
            and all(r["verdict"] for r in report["rows"]
                    if r["label"].startswith("support-level-")))


def check_proptest(report):
    return bool(report["rows"]) and all(r["verdict"] for r in report["rows"])


def check_fibration(section, report):
    """Collapsing section x {0} of section x I: the total row is H*(section);
    the pushforward truncated one below the section dimension keeps the
    degrees below it; the skyscraper carries the top degree."""
    b = BETTI[section]
    d = len(b) - 1
    width = d + 2
    total = [b[k] if k <= d else 0 for k in range(width)]
    ih_row = [b[k] if k < d else 0 for k in range(width)]
    sky = [b[k] if k == d else 0 for k in range(width)]
    rows = report["rows"]
    return (rows["total"] == total and rows["ih"] == ih_row
            and rows["skyscraper"] == sky and report["additivity"]["ok"])


# -- jobs --------------------------------------------------------------------

class Job:
    """One request: a key that names its inputs, a runner and a check."""

    def __init__(self, key, run, check):
        self.key = key
        self.run = run        # () -> canonical JSON text; raises on failure
        self.check = check    # parsed report -> bool


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError("strat-ic %s exited %d: %s"
                           % (" ".join(argv), rc, err.getvalue().strip()))
    return out.getvalue()


def cli_job(argv, check):
    def run():
        return _run_cli(argv)
    return Job("strat-ic " + " ".join(argv), run, check)


def fibration_job(section):
    def run():
        rep = duality.fibration_decomposition(get_example(section))
        return cli.canonical_json(rep)
    return Job("fibration_decomposition " + section, run,
               lambda rep: check_fibration(section, rep))


class PairingSession:
    """One client's refined-duality session on suspension-t2.

    Refined results are kept per Lagrangian index, as a user holding the
    objects would; the first query for an index pays for its refined_ic.
    """

    SPACE = "suspension-t2"

    def __init__(self):
        self.results = {}

    def result(self, i):
        if i not in self.results:
            space = get_example(self.SPACE)
            forms = {v: ic.link_middle_form(space, v)[2]
                     for v in sorted(space.stratum(0))}
            mezzo = ic.Mezzoperversity({
                v: ic.lagrangian_subspaces(f, count_limit=3)[i]
                for v, f in forms.items()})
            self.results[i] = (space, forms, mezzo,
                               ic.refined_ic(space, mezzo))
        return self.results[i]

    def job(self, i, k):
        def run():
            space, forms, mezzo, res = self.result(i)
            pm = duality.ic_pairing(res, res, k)
            local = duality.local_contribution(space, mezzo, level=0)
            choices = [mezzo.choices[v] for v in sorted(forms)]
            return cli.canonical_json({
                "lagrangian": i,
                "degree": k,
                "refined_dims": list(res.betti()),
                "pairing": pm.matrix,
                "local": local["value"],
                "lagrangian_checks": [_is_lagrangian(forms[v], w)
                                      for v, w in zip(sorted(forms), choices)],
                "choice_ranks": [w.cols for w in choices],
            })
        return Job("ic_pairing %s W%d k=%d" % (self.SPACE, i, k), run,
                   check_pairing)


def _is_lagrangian(form, w):
    """W^T form W == 0 and dim W is half the form's size, in Fractions."""
    omega = [[form.entry(a, b) for b in range(form.cols)]
             for a in range(form.rows)]
    cols = [[w.entry(a, j) for a in range(w.rows)] for j in range(w.cols)]
    for x in cols:
        for y in cols:
            if sum(x[a] * omega[a][b] * y[b]
                   for a in range(len(x)) for b in range(len(y))):
                return False
    return 2 * w.cols == form.rows


def check_pairing(rep):
    m = _triples_matrix(rep["pairing"])
    # refined IC of suspension-t2 is (1, 1, 1, 1) for every Lagrangian; each
    # cone point's Lagrangian meets its perpendicular in all of itself
    return (rep["refined_dims"] == [1, 1, 1, 1]
            and len(m) == 1 and len(m[0]) == 1 and m[0][0] != 0
            and all(rep["lagrangian_checks"])
            and rep["local"] == sum(rep["choice_ranks"]))


# -- pools -------------------------------------------------------------------

IH_SPACES = ["cone-s2", "cone-t2", "cone-genus2", "suspension-s2",
             "suspension-t2", "cone-cone-s1", "cone-product:s1,s1"]
# upper-middle sizes kept; cone-genus2 and suspension-t2 (about 11 s each)
# would double a run, see README.md
IH_UPPER = ["cone-s2", "cone-t2", "suspension-s2", "cone-cone-s1",
            "cone-product:s1,s1"]

CLOSED_SPACES = ["t2", "genus2", "s2", "product:s1,s1"]
KUNNETH_PAIRS = ["s1,s1", "s2,s1", "t2,s1"]
# proptest seeds whose sweeps draw only small spaces (each under 0.2 s at
# the seed commit); seeds that draw surface products take 4-10 s each
PROPTEST_SEEDS = [2, 8, 13]


def _ih_job(space, perversity):
    return cli_job(["ih", "--example", space, "--perversity", perversity],
                   lambda rep: check_ih(space, perversity, rep))


def _space_job(cmd, space):
    checks = {"build": check_build, "sheaf": check_sheaf,
              "duality": check_duality, "intersect": check_intersect}
    return cli_job([cmd, "--example", space],
                   lambda rep: checks[cmd](space, rep))


def _kunneth_job(pair, mode):
    space = "product:" + pair
    return cli_job(["kunneth", "--example", space, "--mode", mode],
                   lambda rep: check_kunneth(space, mode, rep))


def ih_ladder_jobs(rng):
    jobs = [_ih_job(s, "lower-middle") for s in IH_SPACES]
    jobs += [_ih_job(s, "upper-middle") for s in IH_UPPER]
    jobs.append(fibration_job("s1"))
    rng.shuffle(jobs)
    return jobs


def closed_mix_jobs(rng):
    jobs = [_space_job(c, s) for s in CLOSED_SPACES
            for c in ("build", "sheaf", "duality", "intersect")]
    jobs += [_space_job(c, "product:t2,s1") for c in ("build", "sheaf",
                                                       "intersect")]
    jobs += [_kunneth_job(p, m) for p in KUNNETH_PAIRS
             for m in ("rational", "integral", "stratumwise")]
    jobs.append(_kunneth_job("genus2,s1", "rational"))
    seed = rng.choice(PROPTEST_SEEDS)
    jobs.append(cli_job(["proptest", "--seed", str(seed)], check_proptest))
    rng.shuffle(jobs)
    return jobs


def mezzo_pairing_jobs(rng):
    """One Lagrangian index, queried in both edge degrees in seeded order.

    Pairings in degrees 0 and 3 cost the same, so the work per run and its
    split between the two jobs stay fixed.  The middle degrees cost half as
    much again and would push a run past the benchmark's time budget.
    """
    session = PairingSession()
    i = rng.randrange(3)
    ks = [0, 3]
    rng.shuffle(ks)
    return [session.job(i, k) for k in ks]


WORKLOADS = {
    "ih-ladder": ih_ladder_jobs,
    "mezzo-pairing": mezzo_pairing_jobs,
    "closed-mix": closed_mix_jobs,
}


def make_jobs(workload, seed):
    """The job list of a run; the same seed gives the same jobs."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (known: %s)"
                         % (workload, ", ".join(sorted(WORKLOADS))))
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)))


def wrong_answer_job():
    """An ih job whose expected table is deliberately off by one in degree 1.

    The program answers correctly, so the check must report a disagreement;
    the benchmark's teeth check feeds this job in and expects the run to fail.
    """
    space, perversity = "cone-t2", "upper-middle"
    want = list(expected_ih(space, perversity))
    want[1] += 1
    return cli_job(["ih", "--example", space, "--perversity", perversity],
                   lambda rep: tuple(_row(rep, "ih-dims")) == tuple(want))


def execute(job):
    """Run one job; returns (ok, digest, error text or None)."""
    try:
        text = job.run()
        report = json.loads(text)
        ok = bool(job.check(report))
    except Exception as e:  # a failed job is counted, the run goes on
        return False, None, "%s: %s: %s" % (job.key, type(e).__name__, e)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return ok, digest, None if ok else "%s: answer disagrees with its check" \
        % job.key
