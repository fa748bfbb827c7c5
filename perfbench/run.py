"""strat-ic benchmark: one client at a time, closed loop.

    python3 perfbench/run.py --workload ih-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The job list is made from --workload and --seed only
(workloads.py); the next job starts when the last one ends.

With --trace 0 the job list is executed in a fresh interpreter, and again
in another while the last execution's duration still fits in --seconds;
no execution can reuse another's results.  The host this was built on
slows a virtual CPU to about half speed for seconds to minutes at a time,
so every job's latency is also measured in reference seconds: a timer
interrupts the job every PROBE_INTERVAL seconds to time a fixed burst of
Fraction arithmetic (the jobs' own kind of work), and the job's wall time,
less those bursts, is scaled by REFERENCE_BURST_S over their mean.  The
end-to-end latencies and rates are in reference seconds (the wall figures
are printed too); at full host speed the two agree.

With --trace 1 the job list runs once in this process with every layer's
public functions wrapped (tracer.py), and the per-layer metrics are printed
instead of the end-to-end ones.

Every job's answer is checked; a job that raises, exits non-zero or
disagrees with its check counts as failed.  Each job's report is hashed: a
job must hash the same in every execution of the run and in every earlier
run of the same code in this checkout, or it counts as failed.  The last
line of standard output is one JSON object; the exit code is 0 only when
every job passed.  --teeth adds one job with a deliberately wrong expected
answer, so the run must fail (teeth.py checks that it does).
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
PROBE_INTERVAL = 0.1
# a burst's duration at full speed on a 2-core Xeon VM (2.1 GHz)
REFERENCE_BURST_S = 0.0014


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--teeth", action="store_true")
    p.add_argument("--execute", action="store_true",
                   help="run the job list once and print its records "
                        "(used by the run itself)")
    return p.parse_args(argv)


def load_program():
    """Import strat_ic from this checkout's src, and nothing else."""
    if not (SRC / "strat_ic" / "__init__.py").is_file():
        sys.stderr.write("error: no package at %s; run from the root of a "
                         "strat-ic checkout\n" % (SRC / "strat_ic"))
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import strat_ic
    if Path(strat_ic.__file__).resolve().parent != SRC / "strat_ic":
        sys.stderr.write("error: strat_ic imported from %s, not from %s\n"
                         % (strat_ic.__file__, SRC))
        raise SystemExit(2)


def job_list(args):
    import workloads
    jobs = workloads.make_jobs(args.workload, args.seed)
    if args.teeth:
        jobs.insert(0, workloads.wrong_answer_job())
    return jobs


def _burst():
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


class Pace:
    """Samples host speed with bursts around and during each job."""

    def __init__(self):
        self.during = []

    def _tick(self, _signum, _frame):
        self.during.append(_burst())

    def run(self, fn):
        """(result, wall seconds, reference seconds) of fn().

        Two bursts before and two after the job bracket short jobs that no
        timer tick reaches.
        """
        around = [_burst(), _burst()]
        self.during = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        around += [_burst(), _burst()]
        bursts = around + self.during
        own = wall - sum(self.during)
        scale = REFERENCE_BURST_S * len(bursts) / sum(bursts)
        return result, wall, own * scale


def execute_jobs(jobs, tracer=None):
    """Run the jobs in order; [(key, ok, digest, wall, reference, error)].

    Under a tracer the speed bursts fall inside whichever span is open, which
    adds about one percent to the traced times.
    """
    import workloads
    pace = Pace()
    records = []
    for job in jobs:
        if tracer is None:
            run = lambda: workloads.execute(job)  # noqa: E731
        else:
            run = lambda: tracer.run_job(  # noqa: E731
                job.key, lambda: workloads.execute(job))
        # every job starts from a collected heap, so the collections
        # inside it do not depend on which jobs ran before
        gc.collect()
        (ok, digest, err), wall, ref = pace.run(run)
        records.append((job.key, ok, digest, wall, ref, err))
    return records


def run_executions(args):
    """Fresh-interpreter executions of the job list, as the docstring says.

    Returns (list of record lists, peak RSS in MB over the executions).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--execute",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--teeth"] if args.teeth else [])
    executions, rss = [], 0.0
    t_begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("error: execution exited %d" % proc.returncode)
        doc = json.loads(proc.stdout.splitlines()[-1])
        executions.append([tuple(r) for r in doc["records"]])
        rss = max(rss, doc["peak_rss_mb"])
        now = time.perf_counter()
        if now - t_begin + (now - t0) > args.seconds:
            return executions, rss


def measure_setup(workload, seed):
    """Process start to first job, in fresh interpreters: import the package
    and make the job list.  Returns (wall, reference) seconds per sample.

    This process and its children stay on one CPU meanwhile, so the bursts
    around each sample time the CPU the child ran on.
    """
    code = ("import sys; sys.path[:0] = [%r, %r]; import strat_ic.cli, "
            "workloads; workloads.make_jobs(%r, %d)"
            % (str(SRC), str(BENCH), workload, seed))
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    samples = []
    try:
        for _ in range(SETUP_REPEATS):
            bursts = [_burst(), _burst()]
            t0 = time.perf_counter()
            # no timeout: waiting with one polls in 50 ms steps
            subprocess.run([sys.executable, "-c", code], check=True,
                           stdout=subprocess.DEVNULL)
            wall = time.perf_counter() - t0
            bursts += [_burst(), _burst()]
            samples.append((wall, wall * REFERENCE_BURST_S * len(bursts)
                            / sum(bursts)))
    finally:
        os.sched_setaffinity(0, allowed)
    return samples


def tail(latencies):
    """(value, percentile): the highest percentile with at least ten samples
    above it, by nearest rank.  Below 20 samples no percentile at or above
    the median qualifies, and the slowest job is reported as percentile 100.
    """
    s = sorted(latencies)
    n = len(s)
    if n < 20:
        return s[-1], 100
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)
    return s[rank - 1], pct


def run_key(args):
    """Names the job list: workload, seed, and the teeth job if added."""
    return "%s:%d%s" % (args.workload, args.seed,
                        ":teeth" if args.teeth else "")


def code_digest():
    h = hashlib.sha256()
    for base in (SRC, BENCH):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_digests(list_key, records, list_digest):
    """Compare job digests within the run and with earlier runs of the same
    code in this checkout.

    Returns {job key or run key: message}; records new digests in OUT.
    """
    problems = {}
    seen = {}
    for key, digest in records:
        if digest is None:
            continue
        if seen.setdefault(key, digest) != digest:
            problems[key] = "gave two digests in one run"
    store_path = OUT / "digests.json"
    code = code_digest()
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    if store.get("code") != code:
        store = {"code": code, "jobs": {}, "runs": {}}
    for key, digest in seen.items():
        if store["jobs"].setdefault(key, digest) != digest:
            problems[key] = "differs from an earlier run"
    if store["runs"].setdefault(list_key, list_digest) != list_digest:
        problems[list_key] = "run digest differs from an earlier run"
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)
    return problems


def traced_metrics(args, p):
    import tracer as tracer_mod
    jobs = job_list(args)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        records = execute_jobs(jobs, tracer)
    finally:
        tracer.uninstall()
    jobs_per_s = len(records) / sum(r[4] for r in records)
    metrics = tracer.layer_metrics()
    metrics["trace.jobs_per_s"] = jobs_per_s
    spans_path = OUT / ("spans-%s-%d.jsonl" % (args.workload, args.seed))
    tracer.write(spans_path)
    p("spans %d written to %s" % (len(tracer.spans),
                                   spans_path.relative_to(ROOT)))
    p("largest self times by call path (function < traced callers):")
    for path, s in tracer.top_self_by_path():
        p("  %10.4f s  %s" % (s, path))
    try:
        base = json.loads((OUT / "untraced.json").read_text())
        base = base[run_key(args)]
        p("tracing overhead: traced %.4f jobs/s vs untraced %.4f jobs/s, "
          "reference seconds (traced/untraced %.3f)"
          % (jobs_per_s, base, jobs_per_s / base))
    except (OSError, ValueError, KeyError):
        p("tracing overhead: no untraced run of this workload and seed "
          "recorded yet in this checkout")
    units = {n: u for n, u, _b in tracer_mod.metric_names()}
    return [records], metrics, units


def untraced_metrics(args, p):
    executions, rss = run_executions(args)
    wall, ref = {}, {}
    for records in executions:
        for key, _ok, _digest, w, r, _err in records:
            wall.setdefault(key, []).append(w)
            ref.setdefault(key, []).append(r)
    # a job's latency is its median over the executions
    wall = [statistics.median(v) for v in wall.values()]
    ref = [statistics.median(v) for v in ref.values()]
    value, pct = tail(ref)
    setup = measure_setup(args.workload, args.seed)
    metrics = {
        "jobs_per_s": len(ref) / sum(ref),
        "job_p50_s": statistics.median(ref),
        "job_tail_s": value,
        "setup_s": statistics.median(r for _w, r in setup),
        "peak_rss_mb": rss,
    }
    units = {"jobs_per_s": "1/ref-s", "job_p50_s": "ref-s",
             "job_tail_s": "ref-s", "setup_s": "s", "peak_rss_mb": "MB"}
    p("executions %d; a job's latency is its median over them"
      % len(executions))
    p("job_tail_s is percentile %d of %d jobs" % (pct, len(ref)))
    p("wall clock: jobs_per_s %.6g 1/s  job_p50_s %.6g s  job_tail_s %.6g s"
      % (len(wall) / sum(wall), statistics.median(wall),
         tail(wall)[0]))
    p("setup_s samples, wall and reference seconds: %s"
      % "  ".join("%.4f %.4f" % s for s in setup))
    store = OUT / "untraced.json"
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    known[run_key(args)] = metrics["jobs_per_s"]
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return executions, metrics, units


def main(argv=None):
    args = parse_args(argv)
    load_program()
    try:
        jobs = job_list(args)
    except ValueError as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    if args.execute:
        records = execute_jobs(jobs)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"records": records, "peak_rss_mb": rss}))
        return 0
    OUT.mkdir(exist_ok=True)
    lines = []
    if args.trace:
        executions, metrics, units = traced_metrics(args, lines.append)
    else:
        executions, metrics, units = untraced_metrics(args, lines.append)

    records = [r for ex in executions for r in ex]
    list_digest = hashlib.sha256("".join(
        "%s %s\n" % (r[0], r[2]) for r in executions[0]).encode()).hexdigest()
    problems = check_digests(run_key(args), [(r[0], r[2]) for r in records],
                             list_digest)
    attempted = len(records)
    failed = sum(1 for r in records if not r[1] or r[0] in problems)

    p = print
    p("workload %s  seed %d  trace %d  jobs %d"
      % (args.workload, args.seed, args.trace, attempted))
    for i, ex in enumerate(executions):
        for key, _ok, _digest, wall, ref, err in ex:
            p("job %9.4f s %9.4f ref-s  execution %d  %s"
              % (wall, ref, i, key))
            if err:
                p("FAILED %s" % err)
    for key, msg in sorted(problems.items()):
        p("NONDETERMINISTIC %s: %s" % (key, msg))
    p("run digest %s" % list_digest)
    for line in lines:
        p(line)
    p("error_rate %.6f ratio  (%d failed of %d attempted)"
      % (failed / attempted, failed, attempted))
    for name in sorted(metrics):
        p("%-48s %.6g %s" % (name, metrics[name], units[name]))

    correct = failed == 0 and not problems
    p(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
