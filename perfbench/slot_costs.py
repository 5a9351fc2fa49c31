"""Check that the candidates of each workload slot cost about the same.

    python3 perfbench/slot_costs.py

Counts the Python function calls each command makes, a measure of its work
that does not depend on how fast or how loaded the machine is.  It misses
work inside C functions, such as big-integer arithmetic, so it shows that
candidates take the same steps rather than the same time.  It counts a
seeded sample of eight of every slot's candidates (see workloads.py), the
slot's first and last candidate included.  Each command runs in a fresh
interpreter with an empty table store, as in a cold pass.  The output gives
each slot's smallest and largest count and how far apart they are.
"""

import os
import random
import shutil
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STORE = os.path.join(ROOT, ".perfbench_run", "slot-costs-store")
PER_SLOT = 8

# sys.settrace with a global function that returns None sees only the
# "call" event of each Python frame.
COUNT_CALLS = """
import sys
calls = 0
def count(frame, event, arg):
    global calls
    calls += 1
sys.settrace(count)
from eulerq.cli import main
code = main(sys.argv[1:])
sys.settrace(None)
print(calls, file=sys.stderr)
sys.exit(code)
"""


def calls(argv):
    shutil.rmtree(STORE, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), EULERQ_CACHE_DIR=STORE)
    proc = subprocess.run([sys.executable, "-c", COUNT_CALLS, *argv], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          check=True)
    return int(proc.stderr.split()[-1])


def main():
    rng = random.Random(0)
    for workload in workloads.WORKLOADS:
        print(f"== {workload}")
        for candidates, _ in workloads.slots(workload):
            sample = candidates
            if len(candidates) > PER_SLOT:
                sample = [candidates[0], *rng.sample(candidates[1:-1], PER_SLOT - 2),
                          candidates[-1]]
            counts = sorted((calls(argv), workloads.key(argv)) for argv in sample)
            lo, hi = counts[0], counts[-1]
            print(f"{len(candidates):4d} candidates, {len(sample)} counted: "
                  f"{lo[0]:>11,d} .. {hi[0]:>11,d} calls, max/min {hi[0] / lo[0]:.3f}  "
                  f"({lo[1]} .. {hi[1]})", flush=True)
    shutil.rmtree(STORE, ignore_errors=True)


if __name__ == "__main__":
    main()
