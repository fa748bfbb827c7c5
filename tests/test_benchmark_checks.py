"""Every benchmark job passes its own independent check.

perfbench/workloads.py pairs each job with an answer worked out from
textbook tables and closed formulas, and reads named rows of the reports.
A report that drops or renames a row a check reads, or an answer that
moves, fails the benchmark run; this test makes it a tier-1 failure
instead.  The module is loaded from its file, read-only, and run on every
distinct job that seeds 0 to 39 draw.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEEDS = range(40)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


workloads = _load_workloads()


def _distinct_jobs(workload):
    """The first job of each key that the seeds draw, in drawing order."""
    jobs = {}
    for seed in SEEDS:
        for job in workloads.make_jobs(workload, seed):
            jobs.setdefault(job.key, job)
    return list(jobs.values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_job_passes_its_check(workload):
    jobs = _distinct_jobs(workload)
    assert jobs
    failed = []
    for job in jobs:
        ok, digest, error = workloads.execute(job)
        if not ok or digest is None:
            failed.append(error)
    assert failed == []


def test_wrong_answer_job_fails_its_check():
    # the program answers, and the deliberately wrong expectation refuses it
    ok, digest, error = workloads.execute(workloads.wrong_answer_job())
    assert not ok and digest is not None
    assert error.endswith("answer disagrees with its check")
