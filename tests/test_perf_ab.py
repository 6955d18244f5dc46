"""Verdict rules of the same-runner A/B perf gate (tools/perf_ab.py),
checked on hand-made timings: no binary is built or run.

    python3 tests/test_perf_ab.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tools"))
import perf_ab  # noqa: E402

BENCHES = ("ijpeg", "gcc", "gzip", "vpr", "mesa",
           "equake", "parser", "vortex", "bzip2", "turb3d")
CELLS = [(b, k) for b in BENCHES for k in ("baseline", "flywheel")]


def timings(ratios):
    """Base and head seconds whose per-round ratios (base / head) are
    `ratios[cell]`, with the base at 1 s everywhere."""
    base = {c: [1.0] * len(r) for c, r in ratios.items()}
    head = {c: [1.0 / x for x in r] for c, r in ratios.items()}
    return base, head


def grid(rounds):
    """Every cell of the default grid with the same per-round ratios."""
    return {c: list(rounds) for c in CELLS}


class Verdict(unittest.TestCase):
    def judge(self, ratios):
        return perf_ab.verdict(*timings(ratios))

    def test_ci_wholly_above_threshold_passes(self):
        judged = self.judge(grid([0.97, 1.02, 0.99, 1.03, 1.00]))
        self.assertEqual(judged["verdict"], "pass")
        lo, hi = judged["ci"]
        self.assertGreater(lo, perf_ab.THRESHOLD)
        self.assertLessEqual(lo, judged["geomean"])
        self.assertLessEqual(judged["geomean"], hi)

    def test_ci_wholly_below_threshold_fails(self):
        judged = self.judge(grid([0.84, 0.87, 0.86, 0.88, 0.85]))
        self.assertEqual(judged["verdict"], "fail")
        self.assertLess(judged["ci"][1], perf_ab.THRESHOLD)

    def test_ci_straddling_threshold_is_inconclusive(self):
        judged = self.judge(grid([0.75, 1.05, 0.80, 1.00, 0.90]))
        self.assertEqual(judged["verdict"], "inconclusive")
        lo, hi = judged["ci"]
        self.assertLess(lo, perf_ab.THRESHOLD)
        self.assertGreater(hi, perf_ab.THRESHOLD)

    def test_one_slow_cell_fails_on_the_per_cell_bound(self):
        ratios = grid([1.0] * perf_ab.ROUNDS)
        ratios[("gcc", "flywheel")] = [0.5] * perf_ab.ROUNDS
        judged = self.judge(ratios)
        # The grid's geomean (0.966) alone would pass.
        self.assertGreater(judged["ci"][0], perf_ab.THRESHOLD)
        self.assertEqual(judged["verdict"], "fail")
        self.assertAlmostEqual(judged["cells"][("gcc", "flywheel")], 0.5)

    def test_cells_that_cannot_be_compared_fail(self):
        # A shrunken grid must not pass: a cell missing from either
        # side, a failed run or a non-positive time fails the gate.
        base, head = timings(grid([1.0] * perf_ab.ROUNDS))
        cases = {
            "missing from head": (base, {c: t for c, t in head.items()
                                         if c != ("vpr", "baseline")}),
            "missing from base": ({c: t for c, t in base.items()
                                   if c != ("vpr", "baseline")}, head),
        }
        for label, bad in (("failed run", None), ("zero time", 0.0),
                           ("negative time", -1.0)):
            broken = dict(head)
            broken[("mesa", "flywheel")] = [1.0, bad, 1.0, 1.0, 1.0]
            cases[label] = (base, broken)
        cases["empty grid"] = ({}, {})
        for label, (b, h) in cases.items():
            with self.subTest(label):
                judged = perf_ab.verdict(b, h)
                self.assertEqual(judged["verdict"], "fail")
                self.assertTrue(judged["problems"])

    def test_ci_is_reproducible(self):
        ratios = grid([0.95, 1.01, 0.98, 1.04, 0.99])
        self.assertEqual(self.judge(ratios)["ci"], self.judge(ratios)["ci"])


if __name__ == "__main__":
    unittest.main()
