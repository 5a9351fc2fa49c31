"""A fixed pure-Python task of about 1.5 ms: the benchmark's gauge of how
fast the machine runs Python at the moment.

run.py runs it in its own process a few times before each timed launch,
every GAUGE_PERIOD_S while the launched command runs, and a few times after
it, and scales the launch's time by GAUGE_S over the mean of those
samples' speeds (see README.md).  The task is part of the benchmark, not of
eulerq, so a change to the program does not change it.  It mixes the kinds
of work eulerq does: a census of permutation statistics into a dict keyed
by tuples, products of sparse polynomials with Fraction coefficients, and
products of integer polynomials.  Change nothing here without re-recording
GAUGE_S and the baseline: every time metric depends on it.

    python3 perfbench/gauge.py      # prints the task's median CPU time
"""

import statistics
import time
from fractions import Fraction
from itertools import permutations


def census(n):
    counts = {}
    for w in permutations(range(n)):
        exc = sum(1 for i, x in enumerate(w) if x > i)
        des = [i + 1 for i in range(n - 1) if w[i] > w[i + 1]]
        key = (exc, len(des), sum(des))
        counts[key] = counts.get(key, 0) + 1
    return counts


def fraction_products(size):
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(size) for j in range(size)}
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in a.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return out


def int_products(degree, rounds):
    p = {d: d + 1 for d in range(degree)}
    for _ in range(rounds):
        q = {}
        for d1, c1 in p.items():
            for d2, c2 in p.items():
                q[d1 + d2] = q.get(d1 + d2, 0) + c1 * c2
        p = {d: c % 1000003 for d, c in q.items() if d < degree}
    return p


def task():
    return len(census(5)) + len(fraction_products(4)) + len(int_products(12, 2))


def sample():
    """The task's CPU time, once.  CPU time, not wall time, so a sample
    that the scheduler interrupts to run the timed command still measures
    only the task."""
    start = time.thread_time()
    task()
    return time.thread_time() - start


if __name__ == "__main__":
    print(f"{statistics.median(sample() for _ in range(2000)):.6f} s")
