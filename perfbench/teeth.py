"""Check that the benchmark's answer checks have teeth.

    python3 perfbench/teeth.py

Runs the ih-ladder job list with an extra job whose expected answer is wrong
on purpose (run.py --teeth).  The run must count that job as failed, report
a non-zero error rate, print "correct": false and exit non-zero; this
script exits 0 only if all of that happens.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "ih-ladder", "--seed", "0",
         "--seconds", "0", "--trace", "0", "--teeth"],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    problems = []
    if proc.returncode == 0:
        problems.append("run exited 0")
    if result.get("correct") is not False:
        problems.append("result not marked incorrect")
    if result.get("failed", 0) < 1:
        problems.append("wrong answer not counted as failed")
    if not any(ln.startswith("FAILED strat-ic ih --example cone-t2") and
               "disagrees" in ln for ln in lines):
        problems.append("the injected job is not the one reported")
    if not any(ln.startswith("error_rate") and not
               ln.startswith("error_rate 0.000000") for ln in lines):
        problems.append("error_rate stayed at zero")
    for p in problems:
        print("teeth check: %s" % p)
    print("teeth check %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
