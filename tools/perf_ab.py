#!/usr/bin/env python3
"""Same-runner A/B throughput gate: is one build slower than another?

    python3 tools/perf_ab.py BASE_BIN HEAD_BIN

Both arguments are `flywheel_perf` binaries built from two commits,
such as a change and its parent, on this machine.  The grid is the
one BASE_BIN runs by default (every benchmark under `baseline` and
`flywheel`, 20 cells).  For ROUNDS rounds, every cell is timed by both
binaries back to back (`--repeats 3`, median kept), and the order of
the two alternates from cell to cell and round to round.  A cell's
ratio in one round is head speed over base speed (base seconds over
head seconds).  Its paired geomean is the geomean of its rounds, and
the grid's ratio is the geomean of the cells.

Verdict:
  fail          a cell is missing from either side, a run failed or
                reported a non-positive time; or a cell's paired
                geomean is below CELL_FLOOR; or the bootstrap 95% CI
                of the grid's ratio lies wholly below THRESHOLD
  pass          the CI lies wholly above THRESHOLD
  inconclusive  otherwise

Timing both builds on one machine, interleaved cell by cell, cancels
the speed of the host and most of its drift.  A committed baseline
recorded on another machine cancels neither.  The bootstrap resamples
each cell's rounds, so it measures the timing noise, not the spread
between cells.

Exit status: 0 on pass or inconclusive, 1 on fail, 2 when BASE_BIN
cannot list its grid or the arguments are wrong.  Standard library
only.
"""

import json
import math
import random
import statistics
import subprocess
import sys

ROUNDS = 5
REPEATS = 3
THRESHOLD = 0.90
CELL_FLOOR = 0.70
SEED = 1
RESAMPLES = 2000


def run_perf(binary, args):
    """The entries of one `flywheel_perf ARGS --quiet --json -` run,
    or None when it fails or its stdout is not the JSON document."""
    try:
        proc = subprocess.run([binary, *args, "--quiet", "--json", "-"],
                              stdout=subprocess.PIPE, check=True)
        entries = json.loads(proc.stdout)["entries"]
    except (OSError, subprocess.CalledProcessError, ValueError,
            KeyError, TypeError):
        return None
    return entries if isinstance(entries, list) else None


def list_grid(binary):
    """(bench, kind) cells of the binary's default grid, from a run
    that simulates one instruction per cell; None on failure."""
    entries = run_perf(binary, ["--instrs", "1", "--warmup", "0",
                                "--repeats", "1"])
    try:
        return [(e["bench"], e["kind"]) for e in entries]
    except (KeyError, TypeError):
        return None


def time_cell(binary, cell):
    """Median seconds of one cell timed by `binary`; None when the run
    failed or did not report that cell."""
    bench, kind = cell
    entries = run_perf(binary, ["--bench", bench, "--kind", kind,
                                "--repeats", str(REPEATS)])
    for e in entries or []:
        if isinstance(e, dict) and (e.get("bench"), e.get("kind")) == cell:
            seconds = e.get("median_seconds")
            return seconds if isinstance(seconds, (int, float)) else None
    return None


def measure(base_bin, head_bin, cells):
    """(base, head) times: each maps a cell to its seconds per round,
    None where the run failed."""
    times = {"base": {c: [] for c in cells}, "head": {c: [] for c in cells}}
    for r in range(ROUNDS):
        for i, cell in enumerate(cells):
            sides = [("base", base_bin), ("head", head_bin)]
            if (r + i) % 2:
                sides.reverse()
            for side, binary in sides:
                times[side][cell].append(time_cell(binary, cell))
        print("round %d/%d done" % (r + 1, ROUNDS), file=sys.stderr,
              flush=True)
    return times["base"], times["head"]


def bootstrap_ci(cell_logs):
    """Bootstrap 95% CI of exp(mean over cells of each cell's mean log
    ratio).  Each resample redraws every cell's rounds with
    replacement; the seed is fixed, so one input gives one CI."""
    rng = random.Random(SEED)
    means = []
    for _ in range(RESAMPLES):
        total = 0.0
        for logs in cell_logs:
            total += sum(rng.choice(logs) for _ in logs) / len(logs)
        means.append(total / len(cell_logs))
    means.sort()
    return (math.exp(means[round(0.025 * (RESAMPLES - 1))]),
            math.exp(means[round(0.975 * (RESAMPLES - 1))]))


def verdict(base, head):
    """Judge per-round cell times of two builds.

    `base` and `head` map each cell to its seconds per round (None for
    a failed run).  Returns a dict with "verdict" ("pass", "fail" or
    "inconclusive"), "problems" (why a cell could not be compared),
    "cells" ({cell: paired geomean}), "geomean" and "ci"; the last
    three are None when there are problems.
    """
    problems = []
    cell_logs = {}
    for cell in sorted(set(base) | set(head)):
        name = "/".join(cell)
        if cell not in base or cell not in head:
            problems.append("%s: missing from %s" % (
                name, "head" if cell in base else "base"))
            continue
        logs = []
        for b, h in zip(base[cell], head[cell]):
            if b is None or h is None:
                problems.append("%s: a run failed" % name)
                break
            if not (b > 0 and h > 0):
                problems.append("%s: non-positive time" % name)
                break
            logs.append(math.log(b / h))
        else:
            cell_logs[cell] = logs
    if problems or not cell_logs:
        return {"verdict": "fail", "problems": problems or ["empty grid"],
                "cells": None, "geomean": None, "ci": None}

    cells = {c: math.exp(sum(l) / len(l)) for c, l in cell_logs.items()}
    geomean = math.exp(sum(math.log(g) for g in cells.values())
                       / len(cells))
    lo, hi = bootstrap_ci(list(cell_logs.values()))
    if min(cells.values()) < CELL_FLOOR:
        result = "fail"
    elif hi < THRESHOLD:
        result = "fail"
    elif lo > THRESHOLD:
        result = "pass"
    else:
        result = "inconclusive"
    return {"verdict": result, "problems": [], "cells": cells,
            "geomean": geomean, "ci": (lo, hi)}


def report(base, head, judged):
    """Print the per-cell table and the verdict."""
    for problem in judged["problems"]:
        print("problem: " + problem)
    if judged["cells"] is not None:
        print("%-8s %-8s %10s %10s %7s" % ("bench", "kind", "base_s",
                                            "head_s", "ratio"))
        for cell, ratio in sorted(judged["cells"].items()):
            print("%-8s %-8s %10.4f %10.4f %7.3f" % (
                cell[0], cell[1], statistics.median(base[cell]),
                statistics.median(head[cell]), ratio))
        worst = min(judged["cells"], key=judged["cells"].get)
        lo, hi = judged["ci"]
        print("geomean %.3f, 95%% CI [%.3f, %.3f], worst cell %s %.3f"
              % (judged["geomean"], lo, hi, "/".join(worst),
                 judged["cells"][worst]))
        print("bounds: CI against %.2f, every cell at least %.2f"
              % (THRESHOLD, CELL_FLOOR))
    print("verdict: " + judged["verdict"])


def main(argv):
    if len(argv) != 3:
        print("usage: %s BASE_BIN HEAD_BIN" % argv[0], file=sys.stderr)
        return 2
    base_bin, head_bin = argv[1], argv[2]
    cells = list_grid(base_bin)
    if not cells:
        print("%s: cannot list its grid" % base_bin, file=sys.stderr)
        return 2
    base, head = measure(base_bin, head_bin, cells)
    judged = verdict(base, head)
    report(base, head, judged)
    return 1 if judged["verdict"] == "fail" else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
