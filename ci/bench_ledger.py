#!/usr/bin/env python3
"""Write or check a perf-ledger entry (BENCH_<pr>.json).

    python3 ci/bench_ledger.py PARENT_DIR CHANGE_DIR --pr N [--out FILE]
        [--budget KEY=PARENT_TIME_FILE,CHANGE_TIME_FILE ...]
    python3 ci/bench_ledger.py --check BENCH_*.json

PARENT_DIR and CHANGE_DIR are `benchmark/compare.py collect` directories
of the parent commit and of the change. For every workload and every
end-to-end metric of BENCHMARK.json the entry records each side's first
quartile, median, third quartile and run count, and how many
index-matched pairs of runs each side won (a tie counts for neither).
It also records each side's median of every per-layer metric over the
traced runs. Each --budget names a ci/perf_budget.json row and two GNU
`time -v` outputs of its command, one per side; their wall clock and
peak RSS go into the entry too. The entry is written to FILE, by default
BENCH_<N>.json in the repository root.

--check reads committed entries and exits 1 unless each has every
workload and end-to-end metric of BENCHMARK.json with finite numbers on
both sides. Stdlib only.
"""

import argparse
import json
import math
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))
sys.path.insert(0, str(ROOT / "ci"))

import check_perf  # noqa: E402
import compare  # noqa: E402

SIDES = ("parent", "change")
STAT_KEYS = ("q1", "median", "q3", "n", "pairs_won")


def metric_values(runs, name):
    return [r["metrics"][name]["value"] for r in runs
            if name in r["metrics"]]


def pairs_won(mine, theirs, lower_is_better):
    sign = -1 if lower_is_better else 1
    return sum(1 for a, b in zip(mine, theirs) if sign * (a - b) > 0)


def end_to_end_entry(metric, runs):
    values = {side: metric_values(runs[side]["untraced"], metric["name"])
              for side in SIDES}
    lower = metric["better"] == "lower"
    entry = {"unit": metric["unit"], "better": metric["better"]}
    for side, other in zip(SIDES, reversed(SIDES)):
        if not values[side]:
            continue
        q1, med, q3 = compare.quartiles(values[side])
        entry[side] = {
            "q1": q1, "median": med, "q3": q3, "n": len(values[side]),
            "pairs_won": pairs_won(values[side], values[other], lower),
        }
    return entry


def per_layer_entry(metric, runs):
    entry = {"unit": metric["unit"], "better": metric["better"]}
    for side in SIDES:
        values = metric_values(runs[side]["traced"], metric["name"])
        if values:
            entry[side] = statistics.median(values)
    return entry


def budget_entry(arg):
    key, _, files = arg.partition("=")
    paths = files.split(",")
    if not key or len(paths) != 2:
        raise SystemExit(f"bench_ledger.py: bad --budget {arg!r}")
    entry = {}
    for side, path in zip(SIDES, paths):
        text = pathlib.Path(path).read_text()
        entry[side] = {"wall_s": check_perf.parse_wall_seconds(text),
                       "rss_mb": check_perf.parse_max_rss_mb(text)}
    return key, entry


def write(args):
    spec = compare.load_spec()
    sets = {"parent": compare.load_set(args.parent),
            "change": compare.load_set(args.change)}
    seeds = {}
    for side, directory in (("parent", args.parent),
                            ("change", args.change)):
        with open(pathlib.Path(directory) / "meta.json") as f:
            seeds[side] = json.load(f)["seed"]
    ledger = {"pr": args.pr, "seeds": seeds, "workloads": {}}
    for workload in compare.WORKLOADS:
        runs = {side: sets[side].get(workload) for side in SIDES}
        if not all(runs.values()):
            print(f"bench_ledger.py: {workload} missing from a set",
                  file=sys.stderr)
            return 1
        ledger["workloads"][workload] = {
            "end_to_end": {m["name"]: end_to_end_entry(m, runs)
                           for m in spec["end_to_end"]},
            "per_layer": {m["name"]: per_layer_entry(m, runs)
                          for m in spec["per_layer"]
                          if any(metric_values(runs[s]["traced"], m["name"])
                                 for s in SIDES)},
        }
    budgets = dict(budget_entry(arg) for arg in args.budget)
    if budgets:
        ledger["budget"] = budgets
    out = pathlib.Path(args.out or ROOT / f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


def check(paths):
    spec = compare.load_spec()
    problems = []
    for path in paths:
        try:
            ledger = json.loads(pathlib.Path(path).read_text())
        except (OSError, ValueError) as e:
            problems.append(f"{path}: {e}")
            continue
        workloads = ledger.get("workloads", {})
        for w in spec["workloads"]:
            metrics = workloads.get(w["name"], {}).get("end_to_end", {})
            for m in spec["end_to_end"]:
                entry = metrics.get(m["name"], {})
                for side in SIDES:
                    stats = entry.get(side, {})
                    for key in STAT_KEYS:
                        value = stats.get(key)
                        if not (isinstance(value, (int, float))
                                and math.isfinite(value)):
                            problems.append(
                                f"{path}: {w['name']} {m['name']} {side} "
                                f"{key} is {value!r}")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked {len(paths)} ledger file(s): "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--check":
        return check(sys.argv[2:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--out")
    parser.add_argument("--budget", action="append", default=[])
    return write(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
