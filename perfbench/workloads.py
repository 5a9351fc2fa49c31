"""Seeded sessions of eulerq commands, one generator per workload.

A workload is a list of slots.  Each slot is a fixed set of candidate
commands of the same cost (same command, same n or degree, same basis or
basis pair, a nonzero answer), and a session draws a fixed number of
distinct commands from every slot.  So the seed changes what is asked but
not how much work it is, and two seeds give sessions of equal cost.
slot_costs.py counts each candidate's Python calls to check this.

`domain(workload)` lists every command a seed can draw; the recorded
output digests cover all of it, so every seed is checked.
"""

import random
import shlex


VERIFY_CI = ["verify", "all", "--mode", "ci", "--output", "json"]
VERIFY_CENSUS = ["verify", "specializations", "--mode", "ci", "--output", "json"]
VERIFY_ALGEBRA = ["verify", "series", "--mode", "extended", "--n-max", "5",
                  "--output", "json"]


def partitions(n, largest=None):
    """Partitions of n as tuples, parts weakly decreasing, in reverse
    lexicographic order."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(first,) + rest
            for first in range(min(n, largest), 0, -1)
            for rest in partitions(n - first, first)]


def _parts(lam):
    return ",".join(map(str, lam))


def _qfun_n(n, basis, with_k):
    """qfun --n n --j j [--k k] for every j (and k) whose answer is not 0: a
    permutation of [n] with k fixed points has 1 to n-k-1 excedances, and
    k = n, whose only permutation is the identity, is left out."""
    if not with_k:
        return [["qfun", "--n", str(n), "--j", str(j), "--basis", basis] for j in range(n)]
    return [["qfun", "--n", str(n), "--j", str(j), "--k", str(k), "--basis", basis]
            for k in range(n - 1) for j in range(1, n - k)]


def _qfun_lambda(lams, basis):
    """qfun --lambda lam --j j for every j whose answer is not 0: a cycle of
    length l has 1 to l-1 excedances and a fixed point none."""
    return [["qfun", "--lambda", _parts(lam), "--j", str(j), "--basis", basis]
            for lam in lams
            for j in range(sum(1 for part in lam if part > 1), sum(lam) - len(lam) + 1)]


def _expand(atom, degree, target):
    return [["expand", f"{atom}[{_parts(lam)}]", target] for lam in partitions(degree)]


def _log_concavity(n):
    return [["expand", f"Q[{n},{j}]*Q[{n},{j}] - Q[{n},{j + 1}]*Q[{n},{j - 1}]", "s"]
            for j in range(1, n - 1)]


def slots(workload):
    """(candidates, how many to draw) pairs for one workload."""
    if workload == "verify-ci":
        return [([VERIFY_CI], 1)]
    if workload == "cli-census":
        # Each slot has one basis, and the session has them all.  The cycle
        # types both have 3360 permutations in S_8.
        return [
            (_qfun_n(8, "h", with_k=False), 1),
            (_qfun_n(8, "e", with_k=True), 1),
            (_qfun_n(7, "s", with_k=False) + _qfun_n(7, "s", with_k=True), 1),
            (_qfun_n(7, "p", with_k=False) + _qfun_n(7, "p", with_k=True), 1),
            (_qfun_lambda([(6, 1, 1), (4, 3, 1)], "m"), 2),
            ([["chartable", "8"]], 1),
            ([["chartable", "8", "--output", "json"]], 1),
            ([["stats", "--n", "8"], ["stats", "--n", "8", "--output", "json"]], 1),
            ([VERIFY_CENSUS], 1),
        ]
    if workload == "cli-algebra":
        return [
            (_expand("m", 10, "h"), 1),
            (_expand("m", 10, "e"), 1),
            (_expand("s", 11, "h") + _expand("p", 11, "h"), 1),
            (_expand("s", 10, "e"), 1),
            (_log_concavity(5), 1),
            ([VERIFY_ALGEBRA], 1),
        ]
    raise KeyError(workload)


WORKLOADS = ("verify-ci", "cli-census", "cli-algebra")


def store_backed(argv):
    """True for the commands whose output the table store keeps."""
    return argv[0] == "qfun" or (argv[0] == "chartable" and "--output" not in argv)


def is_verify(argv):
    return argv[0] == "verify"


def session(workload, seed):
    """The seeded command list: distinct argv lists in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for candidates, count in slots(workload):
        ops.extend(rng.sample(candidates, count))
    rng.shuffle(ops)
    return ops


def domain(workload):
    """Every command any seed can draw for this workload."""
    return [argv for candidates, _ in slots(workload) for argv in candidates]


def key(argv):
    """The digest-table key of one command."""
    return shlex.join(argv)
