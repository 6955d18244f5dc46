#!/usr/bin/env python3
"""Self-tests of the benchmark's statistics helpers and its front-door rule.

    python3 perfbench/test_perfbench.py
"""

import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perfstats  # noqa: E402
import run  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(perfstats.median([3, 1, 2]), 2)
        self.assertEqual(perfstats.median([4, 1, 2, 3]), 2.5)

    def test_quartile_spread(self):
        # statistics.quantiles (exclusive): q1 = 2.75, q3 = 8.25
        values = list(range(1, 11))
        self.assertAlmostEqual(perfstats.quartile_spread(values), 5.5 / 5.5)
        self.assertAlmostEqual(perfstats.quartile_spread([4, 5, 6, 7, 8]),
                               (7.5 - 4.5) / 6)
        self.assertEqual(perfstats.quartile_spread([7.0] * 10), 0.0)

    def test_tail_percentile(self):
        self.assertEqual(perfstats.tail_percentile(50), 80)
        self.assertEqual(perfstats.tail_percentile(201), 95)
        self.assertEqual(perfstats.tail_percentile(1000), 99)
        self.assertEqual(perfstats.tail_percentile(20), 50)
        self.assertIsNone(perfstats.tail_percentile(19))

    def test_percentile_nearest_rank(self):
        values = list(range(1, 51))
        self.assertEqual(perfstats.percentile(values, 80), 40)
        self.assertEqual(perfstats.percentile(values, 50), 25)
        self.assertEqual(perfstats.percentile([5.0], 99), 5.0)

    def test_count_failures(self):
        reference = {"a.json": "1", "a.csv": "2", "b.json": "3",
                     "b.csv": "4", "empty.json": "5", "empty.csv": "6"}
        figures = [
            {"figure": "a", "cells": 10, "json": "1", "csv": "2"},
            {"figure": "b", "cells": 5, "json": "3", "csv": "x"},
            {"figure": "empty", "cells": 0, "json": "5", "csv": "6"},
            {"figure": "a", "cells": 10, "json": "1", "csv": "2",
             "error": "connection refused"},
            {"figure": "unknown", "cells": 2, "json": "1", "csv": "2"},
        ]
        self.assertEqual(perfstats.count_failures(figures, reference),
                         (28, 17))

    def test_self_times(self):
        spans = [
            {"id": 0, "parent": -1, "t0": 0.0, "t1": 10.0},
            {"id": 1, "parent": 0, "t0": 1.0, "t1": 4.0},
            {"id": 2, "parent": 0, "t0": 3.0, "t1": 6.0},  # overlaps 1
            {"id": 3, "parent": 1, "t0": 2.0, "t1": 3.0},
        ]
        self.assertEqual(perfstats.self_times(spans),
                         {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0})

    def test_paper_gap(self):
        csv_text = ("bench,kind,feBoost,beBoost,timePs\n"
                    "x,baseline,0,0,154\n"
                    "x,flywheel,0.5,0.5,100\n"
                    "x,flywheel,1,0.5,50\n"
                    "y,baseline,0,0,77\n"
                    "y,flywheel,0.5,0.5,100\n")
        # speed-ups 1.54 and 0.77: average 1.155, 25% below the paper
        self.assertAlmostEqual(run.paper_gap_pct(csv_text), 25.0)


# The benchmark may call only the front doors the roadmap keeps, so the
# planned wake-up/select rewrite and the subtractions (the batch engine,
# the JSON snapshot writer, the ResultCache, the layout profiler, the
# perf-report schema and the exposed run-phase API) land without
# editing it.
FORBIDDEN = (
    "runSimBatch", "batchWidth", "BatchedCore", "LaneArray",
    "reduceToResult", "runSimWarmup", "forEachMeasureWindow",
    "SampleSchedule", "deriveSampleSchedule",
    "Codec::Json", "checkpointJson",
    "ResultCache", "cachePath", "configKey", "fnv1a64",
    "IssueWindow", "FW_LAYOUT_TOUCH", "layoutProfile",
    "BenchReport",
)
ALLOWED_INCLUDES = {
    "api/figures.hh", "api/session.hh", "common/json.hh", "common/log.hh",
    "core/report.hh", "core/sim_driver.hh", "serve/client.hh",
    "serve/journal.hh", "serve/server.hh", "serve/store.hh",
    "serve/worker.hh", "snapshot/checkpointer.hh", "snapshot/snapshot.hh",
    "workload/generator.hh", "workload/program.hh", "workload/profiles.hh",
}


class FrontDoors(unittest.TestCase):
    def sources(self):
        for name in sorted(os.listdir(HERE)):
            if name.endswith((".cc", ".hh")):
                with open(os.path.join(HERE, name)) as f:
                    yield name, f.read()

    def test_benchmark_uses_only_kept_front_doors(self):
        seen = 0
        for name, text in self.sources():
            seen += 1
            for token in FORBIDDEN:
                self.assertNotIn(token, text,
                                 "%s uses %s" % (name, token))
            for header in re.findall(r'#include "([^"]+)"', text):
                self.assertIn(header, ALLOWED_INCLUDES,
                              "%s includes %s" % (name, header))
        self.assertGreater(seen, 0)


if __name__ == "__main__":
    unittest.main()
