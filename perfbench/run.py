"""Benchmark of the eulerq command line: seeded sessions of commands, timed
end to end, and a traced run that splits the time by module.

    python3 perfbench/run.py --workload verify-ci --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a source checkout.  The program under test is
src/eulerq, launched as `python -m eulerq.cli` with PYTHONPATH=src: a fresh
interpreter for every command, one command at a time (one client in a
closed loop).  Each launch gets a table store under .perfbench_run/ through
EULERQ_CACHE_DIR; nothing outside the checkout is read or written.

One repetition runs the seeded session twice: a cold pass against an empty
store, then a warm pass that reissues every command against the store the
cold pass filled.  Repetitions run back to back for --seconds.  The run
and every command it launches are pinned to one core.  While a timed
command runs, and just before and after it, this process times a fixed
pure-Python task (perfbench/gauge.py) on that core; the command's time is
its wall time less those samples' time, scaled to gauge speed.  Each
command's time is the median of its scaled times (see README.md for
why).  With --trace 1 the session runs twice untraced and twice under
perfbench/traced_cli.py, alternately; the per-layer metrics come from each
command's fastest traced run.  Every command must exit 0 with stdout bytes
whose sha256 matches perfbench/digests.json; verify output must also say
it passed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  perfbench/README.md gives the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import gauge
import traced_cli
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_ROOT = os.path.join(ROOT, ".perfbench_run")
TRACED_CLI = os.path.join(HERE, "traced_cli.py")
DIGESTS = os.path.join(HERE, "digests.json")

OP_TIMEOUT_S = 120
SETUP_CMD = [sys.executable, "-c", "import eulerq.cli"]
SETUP_LAUNCHES = 3     # per batch; a batch runs before each repetition and after the last
MIN_REPS = 2           # a --trace 0 run makes at least this many, even past --seconds
TRACE_REPS = 2         # untraced and traced repetitions of a --trace 1 run
# about the gauge task's CPU time on a slow core of the 2-core x86_64 VM the
# baseline was recorded on (`python3 perfbench/gauge.py` prints it); a
# launch's scaled time is what it would take where the task takes this long
GAUGE_S = 0.00155
GAUGE_PERIOD_S = 0.02  # between gauge samples while a command runs
GAUGE_AROUND = 5       # gauge samples just before and just after each launch

END_TO_END = {
    "setup_s": "s",
    "verify_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}

SUITES = ("genfun", "recurrences", "qexp", "series", "finite-spec", "derangements",
          "symmetry", "positivity", "characters", "structure", "specializations",
          "related")


# ---------------------------------------------------------------------------
# launching one command
# ---------------------------------------------------------------------------

def launch(cmd, env, stdout_path):
    """Run cmd to its end with stdout in stdout_path, timing the gauge task
    just before, every GAUGE_PERIOD_S while, and just after it runs.

    Returns (wall seconds, exit code or None after a timeout, peak RSS in
    MB, gauge samples before and after, gauge samples while it ran).  The
    end is seen on a pidfd, at once unless a gauge sample is running; the
    child is reaped with wait4, which also gives its own peak RSS.  The
    child is killed on every way out but its own end."""
    around = [gauge.sample() for _ in range(GAUGE_AROUND)]
    during = []
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while not select.select([pidfd], [], [], GAUGE_PERIOD_S)[0]:
                    if time.perf_counter() - start > OP_TIMEOUT_S:
                        break
                    during.append(gauge.sample())
                wall = time.perf_counter() - start
            finally:
                os.close(pidfd)
            if wall > OP_TIMEOUT_S:
                proc.kill()
                proc.wait()
                return wall, None, 0.0, around, during
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    around += [gauge.sample() for _ in range(GAUGE_AROUND)]
    return wall, proc.returncode, usage.ru_maxrss / 1024, around, during


def pin_to_one_core():
    """Keep this process and the commands it launches on one core, so the
    gauge samples the core the command runs on.  The cores of a shared
    host change speed each on its own."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def check(argv, code, stdout, digests):
    """Why the command's result is wrong, or None when it is right."""
    if code is None:
        return f"timed out after {OP_TIMEOUT_S} s"
    if code != 0:
        return f"exit code {code}"
    want = digests.get(workloads.key(argv))
    if want is None:
        return "no recorded digest for this command"
    if hashlib.sha256(stdout).hexdigest() != want:
        return "stdout differs from the recorded digest"
    if workloads.is_verify(argv) and json.loads(stdout).get("passed") is not True:
        return "verify did not pass"
    return None


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, run_dir, digests):
        self.run_dir = run_dir
        self.digests = digests
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + os.environ["PYTHONPATH"]
                                        if os.environ.get("PYTHONPATH") else "")
        self.env["EULERQ_CACHE_DIR"] = os.path.join(run_dir, "store")
        self.results = []    # one record per launched command, in order
        self.setup_times = []
        self.speeds = []     # each timed launch's gauge speed, GAUGE_S over sample time
        for sub in ("out", "trace"):
            os.makedirs(os.path.join(run_dir, sub), exist_ok=True)

    def run(self, argv, qid, traced=False):
        if traced:
            cmd = [sys.executable, TRACED_CLI, os.path.join(self.run_dir, "trace", qid),
                   qid, *argv]
        else:
            cmd = [sys.executable, "-m", "eulerq.cli", *argv]
        out = os.path.join(self.run_dir, "out", qid)
        wall, scaled, code, rss = self.timed(cmd, out)
        with open(out, "rb") as fh:
            stdout = fh.read()
        result = {"qid": qid, "argv": argv, "traced": traced, "wall_s": wall,
                  "scaled_s": scaled, "speed": self.speeds[-1], "exit_code": code,
                  "rss_mb": rss,
                  "sha256": hashlib.sha256(stdout).hexdigest(),
                  "error": check(argv, code, stdout, self.digests)}
        self.results.append(result)
        return result

    def timed(self, cmd, stdout_path):
        """launch(); returns (wall seconds, scaled seconds, exit code, peak
        RSS in MB).  The scaled time is the wall time less the gauge's CPU
        time while the command ran, which the core spent on the gauge, times
        the mean gauge speed over all the launch's samples: the work the
        core did for the command, at GAUGE_S speed."""
        wall, code, rss, around, during = launch(cmd, self.env, stdout_path)
        self.speeds.append(statistics.fmean(GAUGE_S / t for t in around + during))
        return wall, (wall - sum(during)) * self.speeds[-1], code, rss

    def warm_up(self):
        """Compile the package's bytecode and load it once, untimed."""
        subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "eulerq")],
                       cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, check=False)
        launch(SETUP_CMD, self.env, os.path.join(self.run_dir, "out", "warm-up"))

    def time_setup(self):
        """A batch of fresh interpreters that only import the command line
        module.  A batch runs before each repetition and after the last, and
        setup_s is the median of all their launches' scaled times."""
        for _ in range(SETUP_LAUNCHES):
            wall, scaled, code, rss = self.timed(SETUP_CMD,
                                                 os.path.join(self.run_dir, "out", "setup"))
            self.results.append({"qid": f"setup{len(self.setup_times)}", "argv": None,
                                 "traced": False, "wall_s": wall, "scaled_s": scaled,
                                 "speed": self.speeds[-1], "exit_code": code, "rss_mb": rss,
                                 "error": None if code == 0 else f"exit code {code}"})
            self.setup_times.append(scaled)

    def repetition(self, ops, rep, traced=False):
        """Cold pass on an empty store, then the warm pass on the filled one."""
        shutil.rmtree(self.env["EULERQ_CACHE_DIR"], ignore_errors=True)
        cold = [self.run(argv, f"r{rep}c{i}", traced) for i, argv in enumerate(ops)]
        warm = [self.run(argv, f"r{rep}w{i}", traced) for i, argv in enumerate(ops)]
        return cold, warm


def samples(ops, reps):
    """Each command's cold-pass and warm-pass results over the repetitions.
    A command that neither reads nor writes the store does the same work in
    both passes, so its samples from both count for both."""
    cold, warm = [], []
    for i, argv in enumerate(ops):
        c = [rep[0][i] for rep in reps]
        w = [rep[1][i] for rep in reps]
        if not workloads.store_backed(argv):
            c = w = c + w
        cold.append(c)
        warm.append(w)
    return cold, warm


def best_results(ops, reps):
    """Each command's fastest cold-pass and warm-pass result, by wall time."""
    return tuple([min(s, key=lambda r: r["wall_s"]) for s in per_command]
                 for per_command in samples(ops, reps))


def median_times(ops, reps):
    """Each command's median cold-pass and warm-pass time, scaled to
    gauge speed."""
    return tuple([statistics.median(r["scaled_s"] for r in s) for s in per_command]
                 for per_command in samples(ops, reps))


def end_to_end(setup_s, ops, reps):
    cold, warm = median_times(ops, reps)
    return {
        "setup_s": setup_s,
        "verify_s": sum(t for argv, t in zip(ops, cold) if workloads.is_verify(argv)),
        "cold_s": sum(cold),
        "warm_s": sum(warm),
        "peak_rss_mb": max(r["rss_mb"] for c, w in reps for r in c + w),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from the traced pass
# ---------------------------------------------------------------------------

class Trace:
    """Totals of the traced commands' summaries (see traced_cli.py)."""

    def __init__(self, summaries, traced_results, overhead_s):
        """summaries and traced_results: one per traced command run counted;
        overhead_s: traced less untraced time of the same commands."""
        self.calls = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.layer_calls = defaultdict(int)
        self.groups = defaultdict(float)
        self.counters = defaultdict(int)
        self.lru = defaultdict(lambda: [0, 0])
        self.main_s = 0.0
        for s in summaries:
            for name, k in s["keys"].items():
                self.calls[name] += k["calls"]
                self.layer_self[k["layer"]] += k["self_s"]
                self.layer_calls[k["layer"]] += k["calls"]
            for g, v in s["groups"].items():
                self.groups[g] += v
            for c, v in s["counters"].items():
                self.counters[c] = (max(self.counters[c], v) if c.endswith("max_degree")
                                    else self.counters[c] + v)
            for cache, (hits, misses) in s["lru"].items():
                self.lru[cache][0] += hits
                self.lru[cache][1] += misses
            self.main_s += s["main_s"]
        self.wall_s = sum(r["wall_s"] for r in traced_results)
        self.overhead_s = overhead_s

    def self_s(self, layer):
        return self.layer_self[layer], self.layer_calls[layer] > 0

    def count(self, *names):
        n = sum(self.calls[name] for name in names)
        return n, n > 0

    def incl(self, group):
        return self.groups[group], self.groups[group] > 0

    def hit_ratio(self, cache):
        hits, misses = self.lru[cache]
        return (hits / (hits + misses), True) if hits + misses else (0.0, False)


def _ratio(num, den):
    return (num / den, True) if den else (0.0, False)


Q_NAMES = tuple(f"eulerian.{n}" for n in traced_cli.Q_FUNCTIONS)
SERIES_MUL = ("polyalg.TruncSeries.__mul__", "polyalg.TruncSeries.inverse",
              "polyalg.QExpSeries.__mul__")

# name -> (unit, better, value from a Trace as (value, applicable))
PER_LAYER = {
    "permstats.self_s": ("s", "lower", lambda t: t.self_s("permstats")),
    "permstats.perms": ("count", "lower",
                        lambda t: (t.counters["perms"], t.counters["perms"] > 0)),
    "permstats.passes": ("count", "lower",
                         lambda t: (t.counters["passes"], t.counters["passes"] > 0)),
    "permstats.statistics_calls": ("count", "lower",
                                   lambda t: t.count("permstats.statistics")),
    "permstats.statistics_per_perm": ("ratio", "lower", lambda t: _ratio(
        t.calls["permstats.statistics"], t.counters["perms"])),
    "eulerian.self_s": ("s", "lower", lambda t: t.self_s("eulerian")),
    "eulerian.q_calls": ("count", "lower", lambda t: t.count(*Q_NAMES)),
    "eulerian.q_hit_ratio": ("ratio", "higher", lambda t: t.hit_ratio("eulerian.q")),
    "eulerian.oracle_s": ("s", "lower", lambda t: t.incl("oracle")),
    **{f"verify.{suite}_s": ("s", "lower", (lambda t, s=suite: t.incl(f"verify.{s}")))
       for suite in SUITES},
    "symfunc.self_s": ("s", "lower", lambda t: t.self_s("symfunc")),
    "symfunc.to_basis_calls": ("count", "lower", lambda t: t.count("symfunc.SymF.to_basis")),
    "symfunc.to_basis_s": ("s", "lower", lambda t: t.incl("to_basis")),
    "symfunc.to_basis_max_degree": ("degree", "lower", lambda t: (
        t.counters["to_basis_max_degree"], t.calls["symfunc.SymF.to_basis"] > 0)),
    "symfunc.mul_calls": ("count", "lower", lambda t: t.count("symfunc.SymF.__mul__")),
    "symfunc.mul_s": ("s", "lower", lambda t: t.incl("mul")),
    "symfunc.plethysm_s": ("s", "lower", lambda t: t.incl("symfunc.plethysm_h")),
    "symfunc.assembly_calls": ("count", "lower", lambda t: t.count("symfunc.QSymF.to_symf")),
    "symfunc.assembly_s": ("s", "lower", lambda t: t.incl("symfunc.QSymF.to_symf")),
    "symfunc.is_symmetric_s": ("s", "lower", lambda t: t.incl("symfunc.QSymF.is_symmetric")),
    "symfunc.lru_hit_ratio": ("ratio", "higher", lambda t: t.hit_ratio("symfunc")),
    "polyalg.self_s": ("s", "lower", lambda t: t.self_s("polyalg")),
    "polyalg.poly_mul_calls": ("count", "lower", lambda t: t.count("polyalg.Poly.__mul__")),
    "polyalg.series_mul_calls": ("count", "lower", lambda t: t.count(*SERIES_MUL)),
    "related.self_s": ("s", "lower", lambda t: t.self_s("related")),
    "cache.fetches": ("count", "lower", lambda t: t.count("cache.fetch")),
    "cache.hits": ("count", "higher", lambda t: (
        t.counters["cache_hits"], t.calls["cache.fetch"] > 0)),
    "cache.hit_ratio": ("ratio", "higher", lambda t: _ratio(
        t.counters["cache_hits"], t.calls["cache.fetch"])),
    "cache.self_s": ("s", "lower", lambda t: t.self_s("cache")),
    "cli.self_s": ("s", "lower", lambda t: t.self_s("cli")),
    "report.self_s": ("s", "lower", lambda t: t.self_s("report")),
    "trace.wall_s": ("s", "lower", lambda t: (t.wall_s, True)),
    "trace.startup_s": ("s", "lower", lambda t: (t.wall_s - t.main_s, True)),
    # a traced time at or below the untraced one means the overhead is
    # smaller than the run's noise, not that tracing saved time
    "trace.overhead_s": ("s", "lower", lambda t: (max(t.overhead_s, 0.0), t.overhead_s > 0)),
}


def per_layer(trace):
    values, not_applicable = {}, []
    for name, (unit, _, fn) in PER_LAYER.items():
        value, applicable = fn(trace)
        values[name] = (value, unit)
        if not applicable:
            not_applicable.append(name)
    return values, not_applicable


def span_layer_self(path, layer_of):
    """Each layer's self time recomputed from a spans file: every span's
    duration less its children's."""
    header, spans = traced_cli.read_spans(path)
    own = {sid: end - start for sid, _, _, start, end in spans}
    for _, parent, _, start, end in spans:
        if parent:
            own[parent] -= end - start
    out = defaultdict(float)
    for sid, _, name, _, _ in spans:
        out[layer_of[header["names"][name]]] += own[sid]
    return out


def load_summaries(run_dir, results):
    summaries = []
    for r in results:
        path = os.path.join(run_dir, "trace", r["qid"] + ".json")
        with open(path) as fh:
            summaries.append(json.load(fh))
    return summaries


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "machine": platform.machine()}


def measure(workload, seed, seconds, trace, reps, run_dir, digests, log):
    """One run of `reps` repetitions, or with trace of `reps` untraced and
    `reps` traced ones; returns (metrics {name: (value, unit)}, not
    applicable, runner)."""
    ops = workloads.session(workload, seed)
    log(f"session ({len(ops)} commands, seed {seed}):")
    for i, argv in enumerate(ops):
        log(f"  [{i}] eulerq {workloads.key(argv)}")
    runner = Runner(run_dir, digests)
    runner.warm_up()
    start = time.perf_counter()
    if trace:
        untraced, traced = [], []
        for _ in range(reps):
            untraced.append(runner.repetition(ops, 2 * len(untraced)))
            traced.append(runner.repetition(ops, 2 * len(traced) + 1, traced=True))
        untraced_s = sum(sum(median_times(ops, untraced), []))
        traced_s = sum(sum(median_times(ops, traced), []))
        cold, warm = best_results(ops, traced)
        t = Trace(load_summaries(run_dir, cold + warm), cold + warm, traced_s - untraced_s)
        metrics, not_applicable = per_layer(t)
        log(f"medians of {reps} scaled to gauge speed: untraced {untraced_s:.3f} s, "
            f"traced {traced_s:.3f} s"
            + ("" if t.overhead_s > 0 else "; overhead not resolved, reported as 0"))
        log(f"layer self times sum to {sum(t.layer_self.values()):.3f} s; traced wall "
            f"{t.wall_s:.3f} s less interpreter, import and exit {t.wall_s - t.main_s:.3f} s "
            f"is {t.main_s:.3f} s")
        return metrics, not_applicable, runner
    done, longest = [], 0.0
    # at least `reps` repetitions, then more while the next one, as long as
    # the longest so far, still ends within --seconds
    while len(done) < reps or time.perf_counter() - start + longest <= seconds:
        rep_start = time.perf_counter()
        runner.time_setup()
        done.append(runner.repetition(ops, len(done)))
        longest = max(longest, time.perf_counter() - rep_start)
    runner.time_setup()
    speeds = statistics.quantiles(runner.speeds, n=4)
    log(f"{len(done)} repetitions in {time.perf_counter() - start:.1f} s; gauge speed "
        f"of the launches, quartiles {' '.join(f'{q:.3f}' for q in speeds)}; "
        "median times, scaled to gauge speed:")
    for i, (argv, cold, warm) in enumerate(zip(ops, *median_times(ops, done))):
        store = "store" if workloads.store_backed(argv) else "     "
        log(f"  [{i}] cold {cold:7.3f} s  warm {warm:7.3f} s  {store}  {workloads.key(argv)}")
    values = end_to_end(statistics.median(runner.setup_times), ops, done)
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, [], runner


def write_record(run_dir, workload, seed, seconds, trace, metrics, not_applicable, runner):
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine(), "session": workloads.session(workload, seed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "not_applicable": not_applicable, "commands": runner.results}
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def fresh_run_dir(name):
    run_dir = os.path.join(RUN_ROOT, name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    return run_dir


def print_metrics(metrics, not_applicable, log):
    for name, (value, unit) in metrics.items():
        mark = "  (not applicable on this workload)" if name in not_applicable else ""
        log(f"  {name:32s} {value:14.6f} {unit}{mark}")


def smoke(digests):
    """One untraced and one traced repetition of each workload: every metric
    must be emitted, or marked not applicable; the layers' self times must
    add up to the time spent in main, and agree with the written spans."""
    problems = []
    for workload in workloads.WORKLOADS:
        print(f"== {workload}")
        run_dir = fresh_run_dir(f"smoke-{workload}")
        e2e, _, runner = measure(workload, 0, 0, False, 1, run_dir, digests, print)
        layers, not_applicable, traced_runner = measure(workload, 0, 0, True, 1, run_dir,
                                                        digests, print)
        print_metrics({**e2e, **layers}, not_applicable, print)
        missing = [n for n in END_TO_END if n not in e2e]
        missing += [n for n in PER_LAYER if n not in layers]
        zero = [n for n, (v, _) in e2e.items() if not v > 0]
        unmarked = [n for n, (v, _) in layers.items() if not v and n not in not_applicable]
        failed = [r for r in runner.results + traced_runner.results if r["error"]]
        summaries = load_summaries(run_dir, [r for r in traced_runner.results if r["traced"]])
        layer_sum = sum(k["self_s"] for s in summaries for k in s["keys"].values())
        main_s = sum(s["main_s"] for s in summaries)
        spans_differ = []
        for s in summaries:
            totals = defaultdict(float)
            for k in s["keys"].values():
                totals[k["layer"]] += k["self_s"]
            from_spans = span_layer_self(os.path.join(run_dir, "trace", s["qid"] + ".spans"),
                                         {name: k["layer"] for name, k in s["keys"].items()})
            if any(abs(totals[layer] - from_spans[layer]) > 1e-6 for layer in totals):
                spans_differ.append(s["qid"])
        if (missing or zero or unmarked or failed or spans_differ
                or abs(layer_sum - main_s) > 0.01 * main_s):
            problems.append({"workload": workload, "missing": missing, "zero": zero,
                             "unmarked_zero": unmarked, "layer_self_sum": layer_sum,
                             "main_s": main_s, "spans_differ_from_totals": spans_differ,
                             "failed": [(r["qid"], r["error"]) for r in failed]})
        print(f"not applicable on {workload}: {', '.join(not_applicable) or 'none'}")
    print(json.dumps({"smoke": not problems, "problems": problems}, sort_keys=True))
    return 0 if not problems else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="check that every metric is emitted, on every workload")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "eulerq", "cli.py")):
        print(f"error: no eulerq source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(DIGESTS) as fh:
        digests = json.load(fh)
    # a terminated run still kills the command it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_to_one_core()
    if args.smoke:
        return smoke(digests)
    if args.workload is None:
        p.error("--workload is required")

    def log(line):
        print(line, flush=True)

    log(f"eulerq benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}; machine {json.dumps(machine())}")
    run_dir = fresh_run_dir(args.workload)
    reps = TRACE_REPS if args.trace else MIN_REPS
    metrics, not_applicable, runner = measure(args.workload, args.seed, args.seconds,
                                              args.trace, reps, run_dir, digests, log)
    write_record(run_dir, args.workload, args.seed, args.seconds, args.trace, metrics,
                 not_applicable, runner)
    shutil.rmtree(runner.env["EULERQ_CACHE_DIR"], ignore_errors=True)
    failed = [r for r in runner.results if r["error"]]
    for r in failed:
        log(f"FAILED {r['qid']}: {r['error']}: {r['argv']}")
    log(f"ops {len(runner.results)}  ops_failed {len(failed)}  (set-up launches included)")
    print_metrics(metrics, not_applicable, log)
    if not_applicable:
        log("not applicable here, reported as 0: " + ", ".join(not_applicable))
    log(f"record: {os.path.relpath(os.path.join(run_dir, 'record.json'), ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runner.results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
