"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

The smoke test runs every workload once untraced and once traced (about two
minutes on one core).
"""

import hashlib
import json
import os
import subprocess
import sys

import run
import workloads


def test_sessions_are_seeded_distinct_and_recorded():
    with open(run.DIGESTS) as fh:
        digests = json.load(fh)
    for workload in workloads.WORKLOADS:
        for seed in range(5):
            ops = workloads.session(workload, seed)
            assert ops == workloads.session(workload, seed)
            keys = [workloads.key(argv) for argv in ops]
            assert len(set(keys)) == len(keys)
            assert all(k in digests for k in keys)
            assert not any("--jobs" in argv or "--cache-dir" in argv or argv[0] == "cache"
                           for argv in ops)


def test_every_candidate_has_a_digest_and_a_nonzero_answer():
    """The slots leave out the commands whose answer is 0, which cost less
    than the rest of their slot."""
    with open(run.DIGESTS) as fh:
        digests = json.load(fh)
    zero = hashlib.sha256(b"0\n").hexdigest()
    for workload in workloads.WORKLOADS:
        for argv in workloads.domain(workload):
            assert digests[workloads.key(argv)] != zero, argv


def test_smoke():
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--smoke"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
