"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/BASELINE.json

For each workload: one untraced run per seed (seeds 1..N), reporting each
end-to-end metric's median and its spread, the distance between the first
and third quartiles as a share of the median; then one traced run at seed 0
for the per-layer breakdown.  The output also records the machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run
import workloads


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} commands failed")
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    summary = {"machine": run.machine(), "seconds": args.seconds, "seeds": args.seeds,
               "workloads": {}}
    for workload in workloads.WORKLOADS:
        results = [one_run(workload, seed, args.seconds, 0)
                   for seed in range(1, args.seeds + 1)]
        stats = {name: spread([r["metrics"][name]["value"] for r in results])
                 for name in run.END_TO_END}
        entry = {"end_to_end": stats,
                 "attempted": [r["attempted"] for r in results]}
        for name, s in stats.items():
            print(f"{workload:12s} {name:12s} median {s['median']:10.4f}  "
                  f"spread {100 * s['spread']:5.1f}%", flush=True)
        traced = one_run(workload, 0, args.seconds, 1)
        entry["per_layer_seed0"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
