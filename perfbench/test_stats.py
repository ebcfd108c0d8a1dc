#!/usr/bin/env python3
"""Self-tests of the benchmark's own arithmetic.

    python3 perfbench/test_stats.py
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import stats  # noqa: E402


class Percentile(unittest.TestCase):
    def test_linear_interpolation(self):
        values = list(range(1, 101))
        self.assertAlmostEqual(stats.percentile(values, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(values, 90), 90.1)
        self.assertEqual(stats.percentile([7], 90), 7)
        self.assertEqual(stats.percentile([3, 1, 2], 0), 1)
        self.assertEqual(stats.percentile([3, 1, 2], 100), 3)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_tail_needs_ten_samples_above(self):
        self.assertTrue(stats.tail_ok(list(range(100)), 90))  # 10 above
        self.assertTrue(stats.tail_ok(list(range(99)), 90))   # 10 above
        self.assertFalse(stats.tail_ok(list(range(90)), 90))  # 9 above
        self.assertFalse(stats.tail_ok([], 90))

    def test_ties_do_not_count_as_above(self):
        values = [1.0] * 200 + [2.0] * 5
        self.assertEqual(stats.samples_above(values, stats.percentile(values, 90)), 5)
        self.assertFalse(stats.tail_ok(values, 90))


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(stats.self_times([("a", 0, -1, 10, 25)]), [15])

    def test_overlapping_children_are_subtracted_once(self):
        spans = [("run", 0, -1, 0, 100), ("x", 0, 0, 10, 30), ("y", 0, 0, 20, 50)]
        self.assertEqual(stats.self_times(spans), [60, 20, 30])

    def test_nested_children_count_only_for_their_parent(self):
        spans = [("run", 0, -1, 0, 100), ("x", 0, 0, 10, 30), ("z", 0, 1, 15, 25)]
        self.assertEqual(stats.self_times(spans), [80, 10, 10])

    def test_children_outside_the_parent_are_clipped(self):
        spans = [("run", 0, -1, 0, 100), ("x", 0, 0, 90, 120), ("y", 0, 0, 150, 160)]
        self.assertEqual(stats.self_times(spans)[0], 90)

    def test_self_times_add_up_to_the_root(self):
        spans = [("run", 0, -1, 0, 100), ("x", 0, 0, 10, 30), ("z", 0, 1, 15, 25),
                 ("y", 0, 0, 40, 70), ("run", 1, -1, 100, 150), ("x", 1, 4, 100, 150)]
        self.assertEqual(sum(stats.self_times(spans)), 150)
        by_name = stats.self_time_by_name(spans)
        self.assertEqual(by_name["x"], (2, 60))
        self.assertEqual(by_name["run"], (2, 50))


class Share(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(stats.share(3, 4), 0.75)

    def test_zero_base(self):
        self.assertEqual(stats.share(5, 0), 0.0)
        self.assertEqual(stats.share(0, 0), 0.0)
        self.assertEqual(stats.share(0, 0.0), 0.0)


class MetricLists(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        path = HERE.parent / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json beside perfbench/")
        spec = json.loads(path.read_text())

        def as_tuples(items):
            return [(m["name"], m["unit"], m["better"]) for m in items]

        self.assertEqual(as_tuples(spec["end_to_end"]), run.END_TO_END)
        self.assertEqual(as_tuples(spec["per_layer"]), run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
