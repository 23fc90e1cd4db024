#!/usr/bin/env python3
"""Compare a benchmark's wall clock and peak RSS against the perf budget.

Usage: check_perf.py <budget-key> <time-v-output-file>
       check_perf.py --require-all <key>=<time-v-file> [<key>=<file> ...]

The time file is the stderr of `/usr/bin/time -v <command>`; the script
extracts the "Elapsed (wall clock) time" and "Maximum resident set size"
lines, compares them against ci/perf_budget.json's entry for
<budget-key> (its max_wall_seconds and max_rss_mb, both required on
every row), prints a summary, and exits non-zero when either bound is
exceeded.

--require-all is the coverage check: every row of perf_budget.json must
appear among the <key>=<file> measurements (each of which is also
re-verified against its budget). Without it, deleting a measurement step
from the workflow would silently retire its budget row — the budget
would still be "green" while enforcing nothing. Stdlib only — no pip
dependencies.
"""

import json
import pathlib
import re
import sys


def parse_wall_seconds(time_v_text: str) -> float:
    """Parse GNU time -v's h:mm:ss or m:ss.ff elapsed format."""
    match = re.search(
        r"Elapsed \(wall clock\) time.*:\s*(?:(\d+):)?(\d+):([\d.]+)",
        time_v_text,
    )
    if not match:
        raise ValueError("no 'Elapsed (wall clock) time' line found")
    hours = int(match.group(1) or 0)
    minutes = int(match.group(2))
    seconds = float(match.group(3))
    return hours * 3600 + minutes * 60 + seconds


def parse_max_rss_mb(time_v_text: str) -> float:
    """Parse GNU time -v's peak resident set size (reported in KiB)."""
    match = re.search(r"Maximum resident set size \(kbytes\):\s*(\d+)",
                      time_v_text)
    if not match:
        raise ValueError("no 'Maximum resident set size' line found")
    return int(match.group(1)) / 1024.0


def load_budgets() -> tuple[pathlib.Path, dict]:
    budget_path = pathlib.Path(__file__).parent / "perf_budget.json"
    return budget_path, json.loads(budget_path.read_text())


def check_one(key: str, time_file: str, budgets: dict,
              budget_path: pathlib.Path) -> int:
    if key not in budgets:
        print(f"error: no budget entry '{key}' in {budget_path}",
              file=sys.stderr)
        return 2
    budget = budgets[key]
    missing = [f for f in ("max_wall_seconds", "max_rss_mb")
               if f not in budget]
    if missing:
        print(f"error: budget entry '{key}' in {budget_path} lacks "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    limit = float(budget["max_wall_seconds"])
    rss_limit = float(budget["max_rss_mb"])

    text = pathlib.Path(time_file).read_text()
    wall = parse_wall_seconds(text)
    rss = parse_max_rss_mb(text)

    print(f"perf[{key}]: wall clock {wall:.2f} s, budget {limit:.2f} s "
          f"({wall / limit * 100.0:.0f}% of budget)")
    print(f"perf[{key}]: peak RSS {rss:.1f} MB, budget {rss_limit:.1f} MB "
          f"({rss / rss_limit * 100.0:.0f}% of budget)")
    print(f"  command: {budget.get('command', '?')}")
    status = 0
    if wall > limit:
        print(f"perf[{key}]: FAIL — over budget by {wall - limit:.2f} s. "
              "If this slowdown is intentional, update ci/perf_budget.json "
              "with a justification.", file=sys.stderr)
        status = 1
    if rss > rss_limit:
        print(f"perf[{key}]: FAIL — peak RSS over budget by "
              f"{rss - rss_limit:.1f} MB. If this growth is intentional, "
              "update ci/perf_budget.json with a justification.",
              file=sys.stderr)
        status = 1
    if status == 0:
        print(f"perf[{key}]: OK")
    return status


def require_all(pairs: list[str]) -> int:
    budget_path, budgets = load_budgets()
    measured = {}
    for pair in pairs:
        key, sep, time_file = pair.partition("=")
        if not sep or not key or not time_file:
            print(f"error: malformed measurement '{pair}' "
                  "(want key=time-v-file)", file=sys.stderr)
            return 2
        measured[key] = time_file

    missing = sorted(set(budgets) - set(measured))
    if missing:
        print(f"perf: FAIL — budget row(s) with no measurement: "
              f"{', '.join(missing)}. Every row of {budget_path} must be "
              "measured by the workflow; add the measurement step or "
              "remove the row.", file=sys.stderr)
        return 1

    worst = 0
    for key, time_file in sorted(measured.items()):
        worst = max(worst, check_one(key, time_file, budgets, budget_path))
    if worst == 0:
        print(f"perf: all {len(budgets)} budget row(s) measured and "
              "within budget")
    return worst


def main() -> int:
    if len(sys.argv) >= 2 and sys.argv[1] == "--require-all":
        if len(sys.argv) < 3:
            print(__doc__, file=sys.stderr)
            return 2
        return require_all(sys.argv[2:])
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    budget_path, budgets = load_budgets()
    return check_one(sys.argv[1], sys.argv[2], budgets, budget_path)


if __name__ == "__main__":
    sys.exit(main())
