"""covkit benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload cli_mc --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's fixed round of work is repeated, untraced,
until the run is as near ``--seconds`` as the round length allows, and the
end-to-end metrics are reported.  Their times are scaled to a fixed host
speed, measured by a reference loop timed between the steps of every round
(see ``host_scale``).  With ``--trace 1`` one untraced round is followed
by two traced rounds, which give the per-layer metrics, the tracing
overhead, and a check that every count repeats exactly.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md for the metrics and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread: the pool of `sweep_stream` already fills both CPUs, and
# BLAS threads that spin beside it measure the scheduler, not covkit.  Set
# before numpy is imported; the set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread limits above)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 7

END_TO_END = [("wall_s", "s"), ("ops_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]


# The CPUs are shared with other tenants, and their speed drifts by up to
# 2x in spells of seconds to minutes; CPU time drifts with wall time.  So
# every timed step is bracketed by a fixed pure-Python reference loop that
# uses no covkit code, and the step's time is scaled by REF_S / (the mean of
# the two bracketing loop times).  Of the loops tried (this one, one with
# small numpy calls, one with numpy passes over a few MB), this one tracked
# the single-threaded workloads' slowdowns most closely.  REF_S is the
# loop's time on an idle host of the kind the benchmark was written on
# (2 vCPUs, Python 3.11), so the reported times read as seconds at that
# speed.  The run's file under .perfbench_out keeps the raw times.
REF_S = 0.0075
REF_REPEATS = 3


def _reference_loop():
    d, x = {}, 0
    for i in range(60_000):
        d[i & 1023] = x
        x = (x * 31 + i) % 1_000_003
    return x


def reference_s():
    """Fastest of a few timings of the reference loop: the host's speed now."""
    best = math.inf
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def host_scale(ref_before, ref_after):
    """Factor that scales a time measured between two reference timings."""
    return REF_S / (0.5 * (ref_before + ref_after))


def unit_of(name):
    if name.endswith(("calls", "responses_drawn", "trajectories",
                      "examples", "jobs")):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def environment(seed):
    commit = "unknown"
    try:
        # The ceiling keeps git from searching directories above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30).stdout.split()
        if len(out) == 2 and os.path.samefile(out[0], ROOT):
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "covkit")
    for fn in sorted(os.listdir(pkg)):
        if fn.endswith(".py"):
            with open(os.path.join(pkg, fn), "rb") as f:
                digest.update(fn.encode() + f.read())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit,
            "src_sha256": digest.hexdigest()[:16], "seed": seed}


def build(name, seed, workdir):
    import workloads
    return workloads.WORKLOADS[name](seed, workdir)


def probe(args):
    """Set up in a fresh process, then report that the first op could start."""
    workdir = os.path.join(WORK, f"probe-{os.getpid()}")
    try:
        build(args.workload, args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args, n):
    """Median scaled time from spawning a fresh interpreter to its first op.

    Returns (scaled median, raw times of the counted probes)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw, scaled = [], []
    ref = reference_s()
    for _ in range(n + 1):    # the first probe also fills bytecode caches
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as p:
            line = p.stdout.readline()
            t1 = time.perf_counter()
            p.stdout.read()
            code = p.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        ref_after = reference_s()
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * host_scale(ref, ref_after))
        ref = ref_after
    return statistics.median(scaled[1:]), raw[1:]


def scaled_round(wl):
    """prepare, each step timed between reference loops, check.

    Returns (scaled step times, raw step times, failures)."""
    wl.prepare()
    out, raw, scaled = [], [], []
    ref = reference_s()
    for step in wl.steps():
        t0 = time.perf_counter()
        out.append(step())
        dt = time.perf_counter() - t0
        ref_after = reference_s()
        raw.append(dt)
        scaled.append(dt * host_scale(ref, ref_after))
        ref = ref_after
    return scaled, raw, wl.check(out)


def traced_round(wl, rec):
    """prepare, one instrumented round, check; returns (wall, cpu, failures)."""
    import spans
    wl.prepare()
    c0, t0 = time.process_time(), time.perf_counter()
    with spans.instrumented(rec):
        out = wl.execute()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return wall, cpu, wl.check(out)


def run_untraced(wl, seconds):
    """Rounds until the run ends as near `seconds` as the round length allows.

    wall_s sums, over the round's steps, each step's median scaled time, so
    one slow spell spoils one step's sample, not a whole round."""
    steps, raws, failures, spent = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        scaled, raw, fails = scaled_round(wl)
        steps.append(scaled)
        raws.append(sum(raw))
        failures += fails
        spent.append(time.perf_counter() - t0)
        if len(steps) == 1:
            # Set-up plus one round: how many rounds fit depends on the
            # machine's speed, and later rounds add only allocator growth.
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.median(spent) > seconds:
            break
    wall = sum(statistics.median(col) for col in zip(*steps))
    metrics = {"wall_s": wall, "ops_per_s": wl.ops / wall,
               "peak_rss_mb": rss_mb}
    return metrics, len(steps), failures, {
        "round_wall_s": [sum(r) for r in steps], "raw_round_wall_s": raws}


def run_traced(wl):
    import spans
    _, raw, failures = scaled_round(wl)
    base = sum(raw)
    stats, walls = [], []
    for _ in range(2):
        rec = spans.Recorder()
        wall, cpu, fails = traced_round(wl, rec)
        failures += fails
        walls.append(wall)
        stats.append(spans.layer_metrics(rec, cpu, wall, wl.workers))
    os.makedirs(OUT, exist_ok=True)
    np.savez(os.path.join(OUT, f"spans-{wl.name}.npz"),
             names=np.array(rec.names), **rec.arrays())
    counts = [k for k in stats[0] if unit_of(k) == "count"]
    differ = [f"{k}: {stats[0][k]} then {stats[1][k]}" for k in counts
              if stats[0][k] != stats[1][k]]
    metrics = {k: stats[0][k] if k in counts
               else statistics.median(s[k] for s in stats) for k in stats[0]}
    metrics["trace.overhead"] = statistics.median(walls) / base
    extra = {"untraced_wall_s": base, "traced_wall_s": walls,
             "counts_differ": differ}
    return metrics, 3, failures, extra


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "covkit", "__init__.py")):
        print("perfbench: no covkit sources under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import covkit
    if not os.path.abspath(covkit.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported covkit from {covkit.__file__}, not "
              f"{SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{sorted(workloads.WORKLOADS)}")
    if args.probe:
        return probe(args)

    env = environment(args.seed)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        wl = build(args.workload, args.seed, workdir)
        sizes = wl.sizes()
        print(f"perfbench {wl.name} " + " ".join(
            f"{k}={v}" for k, v in env.items()))
        print("preflight " + " ".join(f"{k}={v}" for k, v in sizes.items())
              + f" (exact budget {workloads.EXACT_LEAF_BUDGET})")
        if sizes["exact_leaves"] > workloads.EXACT_LEAF_BUDGET:
            print(f"perfbench: refusing {wl.name}: {sizes['exact_leaves']} "
                  "leaves per exact call exceeds the budget", file=sys.stderr)
            return 3
        if args.trace:
            metrics, rounds, failures, extra = run_traced(wl)
        else:
            setup_s, raw_setup = measure_setup(args, SETUP_PROBES)
            metrics, rounds, failures, extra = run_untraced(wl, args.seconds)
            metrics["setup_s"] = setup_s
            extra["raw_setup_s"] = raw_setup
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it

    attempted = wl.ops * rounds
    failed = len(failures)
    differ = extra.get("counts_differ", [])
    units = dict(END_TO_END) if not args.trace else {
        k: unit_of(k) for k in metrics}
    for msg in failures[:10] + differ:
        print("FAIL " + msg)
    for k, u in units.items():
        print(f"  {k:40s} {metrics[k]:>14.6g} {u}")
    print(f"  {'fail_frac':40s} {failed / attempted:>14.6g} "
          f"({failed}/{attempted} ops)")
    result = {"correct": failed == 0 and not differ, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace"
                           f"{args.trace}.json"), "w") as f:
        json.dump(dict(result, environment=env, sizes=sizes, rounds=rounds,
                       failures=failures[:100], **extra), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
