#!/usr/bin/env python3
"""Run one workload of the simulator benchmark and print its metrics.

From the repository root:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --write-golden

The script builds benchmark/build/bh_perf with CMake, runs the workload
until --seconds have elapsed, checks every record it produced, and prints
as the last line of stdout one JSON object with the keys "correct",
"attempted", "failed" and "metrics". With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. A readable table goes to stderr. The exit code is 0 when every
check passed, 1 when one failed, and 2 when the benchmark could not run.
benchmark/README.md describes the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(BENCH, "build")
BINARY = os.path.join(BUILD, "bh_perf")
OUT = os.path.join(BENCH, "out")
GOLDEN = os.path.join(BENCH, "golden")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

COLD = ("benign-mitigation", "benign-mitigation-4ch", "attack-throttle")
WARM = "warm-export"
GOLDEN_SEEDS = (1, 2)
# Set-up is timed in processes that only set up, this many after each
# measured process. The host's speed changes every few seconds, so samples
# spread over the whole run give a steadier median than one burst would.
SETUP_PER_ROUND = 3
MECHANISMS = ("NoDefense", "PARA", "Graphene", "Hydra", "TWiCe", "AQUA",
              "REGA", "RFM", "PRAC", "BlockHammer")

# Simulated quantities. A change that only makes the simulator faster
# must leave each of them identical for a given seed.
MODELLED = (
    "core.retired_insts", "core.reject_stall_cycles", "mem.demand_acts",
    "mem.reads_served", "mem.read_latency_cycles.p50",
    "mem.read_latency_cycles.p90", "mitigation.preventive_actions",
    "breakhammer.suspect_marks", "breakhammer.quota_rejections",
    "dram.preventive_energy_frac", "sim.system.sim_cycles",
    "sim.system.capped_points",
)

# The simulator reads BH_* variables (BH_INSTS, BH_DENSE_TICK, ...);
# none may leak into a measurement.
ENV = {k: v for k, v in os.environ.items() if not k.startswith("BH_")}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then bring benchmark/build/bh_perf up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "experiment.h")):
        fail(f"simulator sources not found under {ROOT}/src")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=ENV).returncode != 0:
            fail("building bh_perf failed: " + " ".join(cmd))


def spawn(args):
    """Run bh_perf; return its parsed last stdout line (None on failure),
    wall seconds, peak RSS in MB and set-up seconds."""
    t0 = time.monotonic_ns()
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            env=ENV, cwd=ROOT)
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = (time.monotonic_ns() - t0) / 1e9
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: bh_perf {' '.join(args)} exited with "
              f"{proc.returncode}", file=sys.stderr)
        return None, wall, 0.0, 0.0
    res = json.loads(lines[-1])
    setup = (int(res["setup_end_ns"]) - t0) / 1e9 if "setup_end_ns" in res \
        else 0.0
    return res, wall, usage.ru_maxrss / 1024.0, setup


class Checker:
    """Counts attempted and failed points. A point fails when bh_perf
    reports it missing or non-finite, when its record digest differs from
    the golden for this seed, or when it differs from the first digest
    this run saw for the same key (pass to pass, traced to untraced,
    stored to exported)."""

    def __init__(self, golden):
        self.golden = golden
        self.reference = {}
        self.attempted = 0
        self.failed = 0

    def check(self, res, label):
        if res is None:
            self.attempted += max(1, len(self.reference))
            self.failed += max(1, len(self.reference))
            return
        digests = res["digests"]
        bad = set(res["failures"])
        for key, digest in digests.items():
            if self.golden is not None and self.golden.get(key) != digest:
                bad.add(key)
            if self.reference.setdefault(key, digest) != digest:
                bad.add(key)
        for key in sorted(bad)[:5]:
            reason = res["failures"].get(key, "digest differs")
            print(f"run.py: {label}: {key}: {reason}", file=sys.stderr)
        self.attempted += res["points"]
        self.failed += len(bad)


def fastest(per_pass):
    """Each point's fastest time, given one list of per-point seconds per
    pass. The work is identical in every pass, so this removes the host's
    transient slowdowns (see README.md)."""
    return [min(ts) for ts in zip(*per_pass)]


def cold_wall(passes):
    """One cold pass's wall time and its summed point time: each point's
    fastest time across the run's passes, plus the fastest remainder
    (process start, set-up, export, exit)."""
    pts = sum(fastest([p["res"]["point_s"] for p in passes]))
    rest = min(p["wall"] - sum(p["res"]["point_s"]) for p in passes)
    return rest + pts, pts


def measure(args, work, checker, command):
    """Run measured bh_perf processes until --seconds have elapsed.

    command(n, trace) gives the arguments of the n-th process; trace is the
    Chrome trace path, or None. With --trace 1 the processes alternate
    untraced and traced; the untraced ones give the tracing overhead.
    With --trace 0, SETUP_PER_ROUND set-up-only processes follow each one.
    Returns (untraced, traced, set-up seconds), or None when a process
    failed."""
    untraced, traced, setups = [], [], []
    deadline = time.monotonic() + args.seconds
    while True:
        tracing = args.trace and len(untraced) > len(traced)
        n = len(untraced) + len(traced)
        trace = f"{OUT}/trace-{args.workload}.json" if tracing else None
        res, wall, rss, _ = spawn(command(n, trace))
        checker.check(res, f"process {n}")
        if res is None:
            return None
        (traced if tracing else untraced).append(
            {"res": res, "wall": wall, "rss": rss})
        for i in range(0 if args.trace else SETUP_PER_ROUND):
            cmd = ["setup", f"--workload={args.workload}",
                   f"--seed={args.seed}", f"--insts={args.insts}"]
            if args.workload != WARM:
                cmd.append(f"--store={work}/setup-{n}-{i}")
            res, _, _, setup = spawn(cmd)
            checker.attempted += 1
            if res is None:
                checker.failed += 1
            else:
                setups.append(setup)
        if time.monotonic() >= deadline and (traced or not args.trace):
            return untraced, traced, setups


def run_cold(args, work, checker):
    def command(n, trace):
        cmd = ["sweep", f"--workload={args.workload}", f"--seed={args.seed}",
               f"--insts={args.insts}", f"--store={work}/store-{n}"]
        return cmd + [f"--trace={trace}"] if trace else cmd

    measured = measure(args, work, checker, command)
    if measured is None:
        return None
    untraced, traced, setups = measured
    if not args.trace:
        wall, pts = cold_wall(untraced)
        res = untraced[0]["res"]
        return {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "records_per_s": res["points"] / pts,
            "sim_minsts_per_s": res["retired_insts"] / pts / 1e6,
            "peak_rss_mb": statistics.median(p["rss"] for p in untraced),
        }

    results = [p["res"] for p in traced]
    trace0 = results[0]["trace"]

    def fast(name):
        return fastest([[pt.get(name, 0.0) for pt in r["trace"]["points"]]
                        for r in results])

    def process(name):
        return min(r["trace"]["process"].get(name, 0.0) for r in results)

    run = fast("system.run")
    point = fast("point")
    cycles = trace0["point_cycles"]
    mechs = trace0["point_mech"]
    layers = dict(results[0]["layers"])
    layers.update({
        "sim.sweep.expand_ms": 1e3 * process("sweep.expand"),
        "sim.store.open_ms": 1e3 * process("store.open"),
        "stats.export_ms": 1e3 * process("stats.export"),
        "sim.store.lookup_ms": 1e3 * sum(fast("store.lookup")),
        "sim.store.ingest_ms": 1e3 * sum(fast("store.ingest")),
        "sim.experiment.solo_s": sum(fast("experiment.solo")),
        "sim.system.build_ms": 1e3 * sum(fast("system.build")),
        "sim.system.run_s": sum(run),
        "sim.system.point_ms.p50": 1e3 * statistics.median(point),
        "sim.system.point_ms.p90": 1e3 * statistics.quantiles(
            point, n=10, method="inclusive")[8],
        "sim.system.ns_per_cycle": 1e9 * sum(run) / sum(cycles),
        "breakhammer.observe_ms": 1e3 * sum(
            fastest([r["trace"]["point_observe_s"] for r in results])),
        "trace.unattributed_frac": statistics.median(
            r["layers"]["trace.unattributed_frac"] for r in results),
        "trace.overhead_frac": cold_wall(traced)[0] / cold_wall(untraced)[0]
        - 1,
    })
    for mech in MECHANISMS:
        idx = [i for i, m in enumerate(mechs) if m == mech]
        if idx:
            layers[f"sim.system.ns_per_cycle.{mech}"] = 1e9 * sum(
                run[i] for i in idx) / sum(cycles[i] for i in idx)
    return layers


def run_warm(args, work, checker):
    store = f"{work}/store"
    res = spawn(["prepare", f"--seed={args.seed}", f"--insts={args.insts}",
                 f"--store={store}"])[0]
    checker.check(res, "prepare")
    if res is None:
        return None

    def command(_, trace):
        cmd = ["export", f"--workload={WARM}", f"--seed={args.seed}",
               f"--insts={args.insts}", f"--store={store}"]
        return cmd + [f"--trace={trace}"] if trace else cmd

    measured = measure(args, work, checker, command)
    if measured is None:
        return None
    untraced, traced, setups = measured
    for p in untraced + traced:
        res = p["res"]
        checker.attempted += res["points"] * len(res["pass_s"])
        if res["computed"]:
            print(f"run.py: warm export simulated {res['computed']} points",
                  file=sys.stderr)
            checker.failed += res["computed"]

    def fastest_pass(processes):
        return min(min(p["res"]["pass_s"]) for p in processes)

    if not args.trace:
        wall = fastest_pass(untraced)
        res = untraced[0]["res"]
        return {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "records_per_s": res["points"] / wall,
            # Nothing is simulated here: this is records_per_s times a
            # constant (the records' mean retired instructions), reported
            # because every workload prints every end-to-end metric.
            "sim_minsts_per_s": res["retired_insts"] / wall / 1e6,
            "peak_rss_mb": statistics.median(p["rss"] for p in untraced),
        }

    results = [p["res"] for p in traced]
    passes = [pt for r in results for pt in r["trace"]["points"]]
    layers = dict(results[0]["layers"])
    layers.update({
        "sim.sweep.expand_ms": 1e3 * min(
            r["trace"]["process"]["sweep.expand"] for r in results),
        "sim.store.open_ms": 1e3 * min(p["store.open"] for p in passes),
        "sim.store.lookup_ms": 1e3 * min(p["store.lookup"] for p in passes),
        "stats.export_ms": 1e3 * min(p["stats.export"] for p in passes),
        "sim.store.computed": sum(r["computed"] for r in results),
        "trace.unattributed_frac": statistics.median(
            r["layers"]["trace.unattributed_frac"] for r in results),
        "trace.overhead_frac": fastest_pass(traced) / fastest_pass(untraced)
        - 1,
    })
    return layers


def write_golden(args):
    golden_dir = args.golden_dir or GOLDEN
    os.makedirs(golden_dir, exist_ok=True)
    for seed in GOLDEN_SEEDS:
        store = f"{OUT}/golden-{os.getpid()}-{seed}"
        try:
            res = spawn(["prepare", f"--seed={seed}", f"--insts={args.insts}",
                         f"--store={store}"])[0]
        finally:
            shutil.rmtree(store, ignore_errors=True)
        if res is None or res["failures"]:
            fail(f"prepare failed for seed {seed}")
        path = os.path.join(golden_dir, f"seed{seed}.json")
        with open(path, "w") as f:
            json.dump(res["digests"], f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {len(res['digests'])} digests to {path}",
              file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=COLD + (WARM,))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--insts", type=int, default=0,
                        help="override every workload's instructions per "
                             "core (tests); goldens are then skipped unless "
                             "--golden-dir is given")
    parser.add_argument("--golden-dir",
                        help="directory of seed<N>.json golden digests")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate the golden digests of seeds "
                             f"{GOLDEN_SEEDS} and exit")
    args = parser.parse_args()
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0 or args.insts < 0:
        parser.error("--seed, --seconds and --insts must be non-negative")
    if not os.path.isfile(SPEC):
        fail(f"{SPEC} not found")
    with open(SPEC) as f:
        spec = json.load(f)

    build()
    os.makedirs(OUT, exist_ok=True)
    if args.write_golden:
        write_golden(args)
        return 0

    golden = None
    golden_dir = args.golden_dir or (None if args.insts else GOLDEN)
    if golden_dir and args.seed in GOLDEN_SEEDS:
        path = os.path.join(golden_dir, f"seed{args.seed}.json")
        if not os.path.isfile(path):
            fail(f"{path} not found")
        with open(path) as f:
            golden = json.load(f)
    checker = Checker(golden)
    work = f"{OUT}/run-{os.getpid()}"
    try:
        runner = run_warm if args.workload == WARM else run_cold
        values = runner(args, work, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    if values is not None:
        names = {m["name"] for m in wanted}
        unknown = set(values) - names
        if unknown:
            fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        for m in wanted:
            # Per-layer metrics a workload does not exercise read 0.
            metrics[m["name"]] = {"value": values.get(m["name"], 0.0),
                                  "unit": m["unit"]}
            print(f"{m['name']:36s} {metrics[m['name']]['value']:14.6g} "
                  f"{m['unit']}", file=sys.stderr)
    correct = values is not None and checker.failed == 0
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so spawn() kills and reaps bh_perf.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
