#!/usr/bin/env python3
"""Collect and compare result sets of the simulator benchmark.

    python3 benchmark/compare.py collect DIR [--runs 5] [--seed 1]
    python3 benchmark/compare.py BASE NEW

`collect` runs benchmark/run.py --runs times untraced and once traced on
every workload and stores each printed result under
DIR/<workload>/{untraced,traced}-<i>.json.

Comparing prints, for each workload and end-to-end metric, the first
quartile, median and third quartile of each side and a verdict:
"unchanged" when the medians differ by less than the metric's absolute
floor (20 ms for setup_s, none for the others); otherwise "unresolved" when either side's spread (quartile distance over median)
exceeds the metric's bound in BENCHMARK.json, unless every run of NEW
beats every run of BASE ("better"); otherwise "better" or "worse" when
the medians differ by more than the bound, and "unchanged" when not.
When both sets used the same seed, it also checks that every modelled
per-layer count (run.MODELLED) is identical across all traced runs of
both sides. The exit code is 1 on a "worse" verdict, a modelled count
that differs, or a run whose checks failed; otherwise 0.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

import run

WORKLOADS = run.COLD + (run.WARM,)

# setup_s lasts a few milliseconds, so host jitter alone moves it by more
# than its bound's share; medians closer than this many seconds are
# "unchanged". An absolute floor has no field in BENCHMARK.json.
ABSOLUTE_FLOOR = {"setup_s": 0.020}


def load_spec():
    with open(run.SPEC) as f:
        return json.load(f)


def collect(args):
    spec = load_spec()
    os.makedirs(args.dir, exist_ok=True)
    with open(os.path.join(args.dir, "meta.json"), "w") as f:
        json.dump({"seed": args.seed, "runs": args.runs}, f)
    for workload in WORKLOADS:
        os.makedirs(os.path.join(args.dir, workload), exist_ok=True)
        plan = [("untraced", i, 0) for i in range(args.runs)]
        plan.append(("traced", 0, 1))
        for kind, i, trace in plan:
            cmd = [sys.executable, os.path.join(run.BENCH, "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            if not lines:
                print(f"compare.py: {' '.join(cmd)} printed nothing",
                      file=sys.stderr)
                return 2
            path = os.path.join(args.dir, workload, f"{kind}-{i}.json")
            with open(path, "w") as f:
                f.write(lines[-1] + "\n")
            print(f"{path}: exit {proc.returncode}", file=sys.stderr)
    return 0


def load_set(directory):
    """{workload: {"untraced": [result, ...], "traced": [...]}}"""
    out = {}
    for workload in WORKLOADS:
        for kind in ("untraced", "traced"):
            for path in sorted(glob.glob(
                    os.path.join(directory, workload, f"{kind}-*.json"))):
                with open(path) as f:
                    result = json.load(f)
                out.setdefault(workload, {"untraced": [], "traced": []})
                out[workload][kind].append(result)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, bound, lower_is_better, floor=0.0):
    _, mb, _ = quartiles(base)
    _, mn, _ = quartiles(new)
    if abs(mn - mb) < floor:
        return "unchanged"
    sign = 1 if lower_is_better else -1
    worse_by = sign * (mn - mb) / mb
    spread = max((q3 - q1) / m for q1, m, q3 in
                 (quartiles(base), quartiles(new)))
    if spread > bound:
        # Too noisy to judge, unless every NEW run beats every BASE run.
        if max(sign * x for x in new) < min(sign * x for x in base):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def compare(args):
    spec = load_spec()
    sets = {side: load_set(d) for side, d in (("base", args.base),
                                              ("new", args.new))}
    seeds = []
    for d in (args.base, args.new):
        with open(os.path.join(d, "meta.json")) as f:
            seeds.append(json.load(f)["seed"])
    same_seed = seeds[0] == seeds[1]
    if not same_seed:
        print("compare.py: the two sets used different seeds, so their "
              "modelled counts are not compared", file=sys.stderr)

    status = 0
    print(f"{'workload':22s} {'metric':17s} {'base q1/med/q3':>30s} "
          f"{'new q1/med/q3':>30s} {'change':>8s}  verdict")
    for workload in WORKLOADS:
        runs = {side: sets[side].get(workload) for side in sets}
        if not runs["base"] or not runs["new"]:
            print(f"{workload:22s} missing from a set")
            status = 1
            continue
        for side, data in runs.items():
            bad = [r for r in data["untraced"] + data["traced"]
                   if not r["correct"]]
            if bad:
                print(f"{workload:22s} {side}: {len(bad)} run(s) failed "
                      "their checks")
                status = 1
        for m in spec["end_to_end"]:
            values = {side: [r["metrics"][m["name"]]["value"]
                             for r in runs[side]["untraced"]
                             if m["name"] in r["metrics"]]
                      for side in runs}
            if not values["base"] or not values["new"]:
                continue
            v = verdict(values["base"], values["new"], m["bound"],
                        m["better"] == "lower",
                        ABSOLUTE_FLOOR.get(m["name"], 0.0))
            qb, qn = quartiles(values["base"]), quartiles(values["new"])
            change = (qn[1] - qb[1]) / qb[1]
            print(f"{workload:22s} {m['name']:17s} "
                  f"{'/'.join(f'{x:.4g}' for x in qb):>30s} "
                  f"{'/'.join(f'{x:.4g}' for x in qn):>30s} "
                  f"{change:+8.2%}  {v}")
            if v == "worse":
                status = 1
        for name in run.MODELLED if same_seed else ():
            seen = {json.dumps(r["metrics"][name]["value"])
                    for side in runs for r in runs[side]["traced"]
                    if name in r["metrics"]}
            if len(seen) > 1:
                print(f"{workload:22s} {name}: modelled count differs: "
                      f"{sorted(seen)}")
                status = 1
    return status


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "collect":
        parser = argparse.ArgumentParser(prog="compare.py collect")
        parser.add_argument("dir")
        parser.add_argument("--runs", type=int, default=5)
        parser.add_argument("--seed", type=int, default=1)
        return collect(parser.parse_args(sys.argv[2:]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    return compare(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
