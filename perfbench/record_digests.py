"""Record the sha256 of the stdout of every command any seed can draw.

    PYTHONPATH=src python3 perfbench/record_digests.py

Runs each command of every workload's domain (see workloads.py) through
eulerq.cli.main in this process, with a temporary table store under
.perfbench_run/, and writes perfbench/digests.json.  Run it only on a
commit whose output is known good: the benchmark counts any command whose
stdout differs from these digests as failed.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    store = os.path.join(ROOT, ".perfbench_run", "record-store")
    shutil.rmtree(store, ignore_errors=True)
    os.environ["EULERQ_CACHE_DIR"] = store
    from eulerq.cli import main as cli_main

    digests = {}
    for workload in workloads.WORKLOADS:
        for argv in workloads.domain(workload):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv)
            if code != 0:
                sys.exit(f"exit code {code}: {workloads.key(argv)}")
            digests[workloads.key(argv)] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        print(f"{workload}: {len(workloads.domain(workload))} commands", flush=True)
    shutil.rmtree(store, ignore_errors=True)
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
