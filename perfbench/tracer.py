"""Spans around each layer's public functions, installed from outside.

The package is not edited: every traced function is replaced by a wrapper
everywhere it is bound, in the module that defines it and in every module
that copied it in with ``from .x import name``; methods are replaced on
their class.  Spans (id, parent id, job, name, start, end) are kept in
memory and written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

import json
import sys
import time
import weakref

from strat_ic import cli, duality, examples, ic, linalg, sheaves, spaces

# metric name -> list of (owner, attribute); owner is a module or a class
TRACED = {
    "linalg.rref": [(linalg, "rref")],
    "linalg.solve": [(linalg, "solve")],
    "linalg.rank": [(linalg, "rank")],
    "linalg.kernel_basis": [(linalg, "kernel_basis")],
    "linalg.cohomology_basis": [(linalg.CochainComplex, "cohomology_basis")],
    "linalg.betti_numbers": [(linalg.CochainComplex, "betti_numbers")],
    "linalg.smith_normal_form": [(linalg, "smith_normal_form")],
    "linalg.matmul": [(linalg.ExactMatrix, "__mul__")],
    "spaces.construct": [(examples, "get_example"), (spaces, "cone"),
                         (spaces, "suspension"), (spaces, "product"),
                         (spaces, "collapse"), (spaces, "link")],
    "spaces.validate": [(spaces.StratifiedComplex, "validate")],
    "spaces.cochain_complex": [(spaces.SimplicialComplex, "cochain_complex")],
    "sheaves.constant_sheaf": [(sheaves, "constant_sheaf")],
    "sheaves.kan_pushforward": [(sheaves, "kan_pushforward")],
    "sheaves.flag_complex": [(sheaves, "flag_complex")],
    "sheaves.incidence_complex": [(sheaves, "incidence_complex")],
    "sheaves.truncate": [(sheaves, "truncate")],
    "sheaves.solve_columns": [(sheaves, "solve_columns")],
    "sheaves.sheaf_cohomology": [(sheaves, "sheaf_cohomology")],
    "sheaves.validate": [(sheaves.SheafComplex, "validate")],
    "ic.deligne_construction": [(ic, "deligne_construction")],
    "ic.refined_ic": [(ic, "refined_ic")],
    "ic.verify_support_conditions": [(ic, "verify_support_conditions")],
    "ic.link_middle_form": [(ic, "link_middle_form")],
    "ic.lagrangian_subspaces": [(ic, "lagrangian_subspaces")],
    "ic.stratumwise_rows": [(ic, "stratumwise_rows")],
    "duality.ic_pairing": [(duality, "ic_pairing")],
    "duality.duality_pairing": [(duality, "duality_pairing")],
    "duality.cup_pairing_matrix": [(duality, "cup_pairing_matrix")],
    "duality.kunneth": [(duality, "kunneth")],
    "duality.intersection_number": [(duality, "intersection_number")],
    "duality.local_contribution": [(duality, "local_contribution")],
    "cli.main": [(cli, "main")],
    "cli.render": [(cli, "render")],
    "cli.property_suite": [(cli, "property_suite")],
}


def metric_names():
    """Every per-layer metric a traced run reports, with unit and direction."""
    out = []
    for name in TRACED:
        out.append((name + ".calls", "count", "lower"))
        out.append((name + ".total_s", "s", "lower"))
        out.append((name + ".self_s", "s", "lower"))
    out.append(("linalg.rref.nnz_in", "count", "lower"))
    out.append(("linalg.solve.refactor_ratio", "ratio", "lower"))
    out.append(("sheaves.truncate.repeat_ratio", "ratio", "lower"))
    out.append(("sheaves.incidence_complex.repeat_ratio", "ratio", "lower"))
    out.append(("trace.jobs_per_s", "1/ref-s", "higher"))
    return out


class Tracer:
    """Records spans while installed; restores every binding on uninstall."""

    def __init__(self):
        self.spans = []          # (id, parent, job, name, t0, t1)
        self._stack = []
        self._job = None
        self._patches = []
        self.nnz_in = 0
        self.solve_calls = 0
        self.solve_repeats = 0
        self._solve_seen = {}    # id -> matrix, kept alive for one job
        self.truncate_calls = 0
        self.truncate_repeats = 0
        self._truncated = weakref.WeakKeyDictionary()
        self.incidence_calls = 0
        self.incidence_repeats = 0
        self._incidence = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, before=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, self._job, name, t0, t1)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def run_job(self, key, run):
        """Run one job under a root span named "job"."""
        self._job = key
        self._solve_seen.clear()
        return self._wrap("job", run)()

    # -- counters ------------------------------------------------------------

    def _count_rref(self, m):
        self.nnz_in += len(m.entries)

    def _count_solve(self, m, target):
        self.solve_calls += 1
        if id(m) in self._solve_seen:
            self.solve_repeats += 1
        else:
            self._solve_seen[id(m)] = m

    def _count_truncate(self, sheaf, degree, subspaces=None):
        # a truncation onto chosen subspaces is a different result
        key = (int(degree), bool(subspaces))
        self.truncate_calls += 1
        seen = self._truncated.setdefault(sheaf, set())
        if key in seen:
            self.truncate_repeats += 1
        seen.add(key)

    def _count_incidence(self, sheaf):
        self.incidence_calls += 1
        if sheaf in self._incidence:
            self.incidence_repeats += 1
        self._incidence[sheaf] = True

    # -- installation --------------------------------------------------------

    def install(self):
        before = {"linalg.rref": self._count_rref,
                  "linalg.solve": self._count_solve,
                  "sheaves.truncate": self._count_truncate,
                  "sheaves.incidence_complex": self._count_incidence}
        # every module that may hold a copy made by `from x import name`
        holders = [m for n, m in sys.modules.items()
                   if n.startswith("strat_ic") or n == "workloads"]
        for name, targets in TRACED.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, before.get(name))
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in holders:
                    for bound, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, bound, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def _self_times(self):
        """[(span, self seconds)] for every finished span."""
        spans = [s for s in self.spans if s is not None]
        covered = {}
        for sid, parent, _job, _name, t0, t1 in spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
        return [(s, (s[5] - s[4]) - covered.get(s[0], 0.0)) for s in spans]

    def layer_metrics(self):
        """calls, total and self seconds per traced name, plus ratios.

        total_s counts only outermost spans of a name, so a recursive call
        (get_example building its factors) is not counted twice.
        """
        timed = self._self_times()
        names = {s[0]: s[3] for s, _self in timed}
        parents = {s[0]: s[1] for s, _self in timed}
        stats = {name: [0, 0.0, 0.0] for name in TRACED}
        for (sid, parent, _job, name, t0, t1), self_s in timed:
            if name not in stats:
                continue
            row = stats[name]
            row[0] += 1
            row[2] += self_s
            p = parent
            while p is not None and names[p] != name:
                p = parents[p]
            if p is None:
                row[1] += t1 - t0
        out = {}
        for name, (calls, total, self_s) in stats.items():
            out[name + ".calls"] = calls
            out[name + ".total_s"] = total
            out[name + ".self_s"] = self_s
        out["linalg.rref.nnz_in"] = self.nnz_in
        out["linalg.solve.refactor_ratio"] = \
            self.solve_repeats / self.solve_calls if self.solve_calls else 0.0
        out["sheaves.truncate.repeat_ratio"] = \
            self.truncate_repeats / self.truncate_calls \
            if self.truncate_calls else 0.0
        out["sheaves.incidence_complex.repeat_ratio"] = \
            self.incidence_repeats / self.incidence_calls \
            if self.incidence_calls else 0.0
        return out

    def top_self_by_path(self, depth=4, limit=12):
        """Largest self times keyed by a span's name and its nearest
        `depth` traced ancestors, innermost first."""
        timed = self._self_times()
        names = {s[0]: s[3] for s, _self in timed}
        parents = {s[0]: s[1] for s, _self in timed}
        acc = {}
        for (sid, parent, _job, name, _t0, _t1), self_s in timed:
            path = [name]
            while parent is not None and len(path) <= depth:
                path.append(names[parent])
                parent = parents[parent]
            key = " < ".join(path)
            acc[key] = acc.get(key, 0.0) + self_s
        return sorted(acc.items(), key=lambda kv: -kv[1])[:limit]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                if s is None:
                    continue
                sid, parent, job, name, t0, t1 = s
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name, "start": t0, "end": t1})
                         + "\n")
