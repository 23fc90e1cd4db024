#!/usr/bin/env python3
"""Self-test of the benchmark harness, at 2000 instructions per core.

    python3 benchmark/selftest.py

It checks that:
  1. every workload prints exactly the metric names of BENCHMARK.json;
  2. a traced sweep produces the same record digests as an untraced one;
  3. warm-export simulates nothing (sim.store.computed == 0);
  4. one flipped golden digest gives failed == 1 and a non-zero exit;
  5. seeds 1 and 2 generate different experiment points.
It takes well under a minute once bh_perf is built.
"""

import json
import os
import shutil
import subprocess
import sys

import run

INSTS = 2000


def run_py(*args):
    """Run benchmark/run.py; return (exit code, parsed last line or None)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH, "run.py"),
         "--insts", str(INSTS)] + list(args),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def digests(workload, tmp, traced):
    """Record digests of one bh_perf sweep pass at seed 3 (no golden)."""
    name = os.path.join(tmp, f"{workload}-{'traced' if traced else 'plain'}")
    cmd = [run.BINARY, "sweep", f"--workload={workload}", "--seed=3",
           f"--insts={INSTS}", f"--store={name}.store"]
    if traced:
        cmd.append(f"--trace={name}.json")
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                         env=run.ENV, text=True).stdout
    return json.loads(out.splitlines()[-1])["digests"]


def main():
    with open(run.SPEC) as f:
        spec = json.load(f)
    tmp = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    golden = os.path.join(tmp, "golden")
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    try:
        code, _ = run_py("--write-golden", "--golden-dir", golden)
        expect(code == 0, "golden digests written")
        seeds = []
        for seed in run.GOLDEN_SEEDS:
            with open(os.path.join(golden, f"seed{seed}.json")) as f:
                seeds.append(set(json.load(f)))
        expect(seeds[0] != seeds[1], "seeds 1 and 2 generate different points")

        for workload in run.COLD + (run.WARM,):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                code, res = run_py("--workload", workload, "--seed", "1",
                                   "--seconds", "1", "--trace", str(trace),
                                   "--golden-dir", golden)
                names = list(res["metrics"]) if res else None
                expect(code == 0 and res["correct"] and res["failed"] == 0
                       and names == [m["name"] for m in spec[kind]],
                       f"{workload} --trace {trace}: passes and prints the "
                       f"{kind} metrics")
                if workload == run.WARM and trace:
                    computed = res["metrics"]["sim.store.computed"]["value"]
                    expect(computed == 0, "warm-export simulates nothing")

        for workload in run.COLD:
            expect(digests(workload, tmp, False) ==
                   digests(workload, tmp, True),
                   f"{workload}: traced digests equal untraced digests")

        flipped = os.path.join(tmp, "flipped")
        shutil.copytree(golden, flipped)
        path = os.path.join(flipped, "seed1.json")
        with open(path) as f:
            table = json.load(f)
        # A benign-mitigation point: a benign mix on the default channel.
        key = next(k for k in sorted(table)
                   if "A#" not in k and "|ch=" not in k)
        table[key] = table[key][:-1] + ("0" if table[key][-1] != "0" else "1")
        with open(path, "w") as f:
            json.dump(table, f)
        code, res = run_py("--workload", "benign-mitigation", "--seed", "1",
                           "--seconds", "0", "--golden-dir", flipped)
        expect(code != 0 and res is not None and res["failed"] == 1
               and not res["correct"],
               "one flipped golden digest fails exactly one point")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
