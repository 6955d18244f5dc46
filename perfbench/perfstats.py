"""Statistics helpers for the repository benchmark (see run.py).

Kept free of I/O so test_perfbench.py can check them on hand-made data.
"""

import math
import statistics


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the
    median (Python's default 'exclusive' quartiles)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def tail_percentile(n, min_tail=10):
    """Highest whole percentile (50..99) that leaves at least `min_tail`
    of `n` samples beyond it, under the nearest-rank definition; None
    when even the median leaves fewer."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= min_tail:
            return p
    return None


def percentile(values, p):
    """Nearest-rank `p`-th percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def count_failures(figures, reference):
    """(attempted, failed) cell counts over a pass's produced figures.

    Every figure counts its grid cells (at least one) as attempted. A
    figure that errored, or whose JSON or CSV table does not match its
    reference digest, counts all of them as failed.
    """
    attempted = failed = 0
    for fig in figures:
        cells = max(fig["cells"], 1)
        attempted += cells
        name = fig["figure"]
        ok = (not fig.get("error")
              and reference.get(name + ".json") == fig["json"]
              and reference.get(name + ".csv") == fig["csv"])
        if not ok:
            failed += cells
    return attempted, failed


def covered(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """{span id: duration minus the part its child spans cover}."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        inside = [(max(c["t0"], s["t0"]), min(c["t1"], s["t1"]))
                  for c in children.get(s["id"], [])]
        out[s["id"]] = (s["t1"] - s["t0"]) - covered(
            [(a, b) for a, b in inside if b > a])
    return out
