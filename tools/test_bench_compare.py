#!/usr/bin/env python3
"""Self-check for the pure comparison core of tools/bench_compare.py.

Exercises compare() on synthetic baseline/run pairs only — no benchmark
binaries are executed, so this runs in milliseconds and is wired into ctest.
"""

import io
import json
import unittest

import bench_compare


def make_baseline(bench_ms, metrics=None, profile=None):
    base = {
        "schema": bench_compare.BASELINE_SCHEMA,
        "bench_ms": dict(bench_ms),
        "metrics": dict(metrics or {}),
    }
    if profile is not None:
        base["profile_self_ms"] = profile
    return base


class CompareTest(unittest.TestCase):
    def test_identical_run_passes(self):
        base = make_baseline({"a": 10.0, "b": 2.5}, {"m": 7})
        r = bench_compare.compare(base, {"a": 10.0, "b": 2.5}, {"m": 7}, 0.35, True)
        self.assertEqual(r["schema"], bench_compare.COMPARE_SCHEMA)
        self.assertEqual(r["verdict"], "pass")
        self.assertEqual(r["regressions"], 0)
        self.assertEqual([row["verdict"] for row in r["benchmarks"]], ["ok", "ok"])
        self.assertEqual(r["metric_drift"], [])

    def test_within_tolerance_is_ok(self):
        base = make_baseline({"a": 10.0})
        r = bench_compare.compare(base, {"a": 13.0}, {}, 0.35, True)
        self.assertEqual(r["benchmarks"][0]["verdict"], "ok")
        self.assertAlmostEqual(r["benchmarks"][0]["delta_rel"], 0.3)
        self.assertEqual(r["verdict"], "pass")

    def test_regression_fails_when_comparable(self):
        base = make_baseline({"a": 10.0, "b": 5.0})
        r = bench_compare.compare(base, {"a": 20.0, "b": 5.0}, {}, 0.35, True)
        self.assertEqual(r["verdict"], "fail")
        self.assertEqual(r["regressions"], 1)
        by_name = {row["name"]: row for row in r["benchmarks"]}
        self.assertEqual(by_name["a"]["verdict"], "regression")
        self.assertEqual(by_name["b"]["verdict"], "ok")

    def test_regression_only_warns_on_foreign_hardware(self):
        base = make_baseline({"a": 10.0})
        r = bench_compare.compare(base, {"a": 20.0}, {}, 0.35, False)
        self.assertEqual(r["verdict"], "warn")
        self.assertFalse(r["comparable"])

    def test_improvement_warns_to_suggest_rerecord(self):
        base = make_baseline({"a": 10.0})
        r = bench_compare.compare(base, {"a": 5.0}, {}, 0.35, True)
        self.assertEqual(r["benchmarks"][0]["verdict"], "improved")
        self.assertEqual(r["verdict"], "warn")

    def test_missing_and_new_benchmarks_warn(self):
        base = make_baseline({"gone": 10.0})
        r = bench_compare.compare(base, {"fresh": 1.0}, {}, 0.35, True)
        by_name = {row["name"]: row for row in r["benchmarks"]}
        self.assertEqual(by_name["gone"]["verdict"], "missing")
        self.assertIsNone(by_name["gone"]["current_ms"])
        self.assertEqual(by_name["fresh"]["verdict"], "new")
        self.assertIsNone(by_name["fresh"]["baseline_ms"])
        self.assertEqual(r["verdict"], "warn")

    def test_metric_drift_is_exact_and_warns(self):
        base = make_baseline({"a": 1.0}, {"hits": 100, "commits": 5})
        r = bench_compare.compare(base, {"a": 1.0}, {"hits": 101, "commits": 5},
                                  0.35, True)
        self.assertEqual(r["metric_drift"],
                         [{"name": "hits", "baseline": 100, "current": 101}])
        self.assertEqual(r["verdict"], "warn")

    def test_host_dependent_metrics_never_drift(self):
        # A baseline recorded on a 1-core host (pool counters 0) checks clean
        # on a 4-core host whether the current run reports them or not.
        base = make_baseline({"a": 1.0}, {"hits": 100, "probe.parallel_batches": 0,
                                          "probe.parallel_probes": 0})
        for current in ({"hits": 100, "probe.parallel_batches": 415,
                         "probe.parallel_probes": 15338}, {"hits": 100}):
            r = bench_compare.compare(base, {"a": 1.0}, current, 0.35, True)
            self.assertEqual(r["metric_drift"], [])
            self.assertEqual(r["verdict"], "pass")
        self.assertEqual(
            bench_compare.host_independent({"hits": 1, "probe.parallel_batches": 2,
                                            "probe.parallel_probes": 3}),
            {"hits": 1})
        # Real drift beside them still shows.
        r = bench_compare.compare(base, {"a": 1.0}, {"hits": 99}, 0.35, True)
        self.assertEqual(r["metric_drift"],
                         [{"name": "hits", "baseline": 100, "current": 99}])

    def test_zero_baseline_does_not_divide(self):
        base = make_baseline({"a": 0.0})
        r = bench_compare.compare(base, {"a": 3.0}, {}, 0.35, True)
        self.assertEqual(r["benchmarks"][0]["delta_rel"], 0.0)
        self.assertEqual(r["benchmarks"][0]["verdict"], "ok")

    def test_report_is_json_serializable(self):
        base = make_baseline({"a": 10.0}, {"m": 1})
        r = bench_compare.compare(base, {"b": 2.0}, {}, 0.35, False)
        round_tripped = json.loads(json.dumps(r))
        self.assertEqual(round_tripped, r)

    def test_flatten_campaign_aggregate(self):
        doc = {
            "schema": "noceas.campaign.aggregate.v1",
            "schedulers": [
                {"scheduler": "eas", "runs": 3, "miss_rate": 0.0,
                 "energy": {"mean": 10.0, "p50": 9.0, "p90": 12.0, "min": 8.0},
                 "makespan": {"mean": 100.0, "p50": 90.0, "p90": 120.0}},
                {"scheduler": "edf", "runs": 2, "miss_rate": 0.5,
                 "energy": {"mean": 20.0, "p50": 19.0, "p90": 22.0},
                 "makespan": {"mean": 50.0, "p50": 45.0, "p90": 60.0}},
            ],
        }
        flat = bench_compare.flatten_campaign_aggregate(doc)
        self.assertEqual(flat["campaign.eas.runs"], 3)
        self.assertEqual(flat["campaign.eas.energy.p90"], 12.0)
        self.assertEqual(flat["campaign.edf.miss_rate"], 0.5)
        self.assertEqual(flat["campaign.edf.makespan.p50"], 45.0)
        # 2 schedulers x (runs + miss_rate + 2 metrics x 3 stats) keys.
        self.assertEqual(len(flat), 16)

    def test_campaign_drift_flows_through_compare(self):
        base = make_baseline({"a": 1.0}, {"campaign.eas.energy.mean": 10.0})
        r = bench_compare.compare(base, {"a": 1.0},
                                  {"campaign.eas.energy.mean": 11.0}, 0.35, True)
        self.assertEqual(r["metric_drift"],
                         [{"name": "campaign.eas.energy.mean",
                           "baseline": 10.0, "current": 11.0}])
        self.assertEqual(r["verdict"], "warn")

    def test_regression_names_the_span_that_grew(self):
        base = make_baseline(
            {"a": 10.0},
            profile={"a": {"eas.schedule": 2.0, "eas.schedule;probe.batch": 8.0}})
        cur_profile = {"a": {"eas.schedule": 2.5, "eas.schedule;probe.batch": 17.0}}
        r = bench_compare.compare(base, {"a": 20.0}, {}, 0.35, True, cur_profile)
        suspect = r["benchmarks"][0]["suspect_span"]
        self.assertEqual(suspect["path"], "eas.schedule;probe.batch")
        self.assertEqual(suspect["baseline_ms"], 8.0)
        self.assertEqual(suspect["current_ms"], 17.0)
        self.assertAlmostEqual(suspect["delta_ms"], 9.0)
        self.assertEqual(r["verdict"], "fail")

    def test_regression_without_profile_data_has_no_suspect(self):
        base = make_baseline({"a": 10.0})
        r = bench_compare.compare(base, {"a": 20.0}, {}, 0.35, True)
        self.assertIsNone(r["benchmarks"][0]["suspect_span"])

    def test_ok_rows_carry_no_suspect_key(self):
        base = make_baseline({"a": 10.0}, profile={"a": {"s": 9.0}})
        r = bench_compare.compare(base, {"a": 10.0}, {}, 0.35, True, {"a": {"s": 9.0}})
        self.assertNotIn("suspect_span", r["benchmarks"][0])

    def test_attribution_counts_a_new_span_as_growth(self):
        suspect = bench_compare.attribute_regression(
            {"old": 5.0}, {"old": 5.0, "fresh": 4.0})
        self.assertEqual(suspect["path"], "fresh")
        self.assertEqual(suspect["baseline_ms"], 0.0)
        self.assertEqual(suspect["delta_ms"], 4.0)

    def test_attribution_with_no_growth_returns_none(self):
        self.assertIsNone(bench_compare.attribute_regression({"s": 5.0}, {"s": 4.0}))
        self.assertIsNone(bench_compare.attribute_regression({}, {"s": 4.0}))
        self.assertIsNone(bench_compare.attribute_regression({"s": 4.0}, None))

    def test_print_report_names_the_suspect(self):
        base = make_baseline({"a": 10.0}, profile={"a": {"repair.evaluate": 6.0}})
        r = bench_compare.compare(base, {"a": 20.0}, {}, 0.35, True,
                                  {"a": {"repair.evaluate": 15.5}})
        out = io.StringIO()
        bench_compare.print_report(r, out=out)
        self.assertIn("suspect: repair.evaluate self 6.00 -> 15.50 ms", out.getvalue())

    def test_print_report_renders_every_verdict(self):
        base = make_baseline({"slow": 10.0, "gone": 1.0}, {"m": 1})
        r = bench_compare.compare(base, {"slow": 20.0, "fresh": 2.0}, {"m": 3},
                                  0.35, True)
        out = io.StringIO()
        bench_compare.print_report(r, out=out)
        text = out.getvalue()
        self.assertIn("REGRESSION", text)
        self.assertIn("MISSING  gone", text)
        self.assertIn("NEW      fresh", text)
        self.assertIn("metric drift: m 1 -> 3", text)
        self.assertIn("regressed beyond 35%", text)


class DiffCommandTest(unittest.TestCase):
    def test_maps_miss_benchmarks_to_instances_and_schedulers(self):
        cmd = bench_compare.diff_command("BM_EasBase_MissBenchmarks/0", "bld")
        self.assertIn("gen --category 2 --index 2", cmd)
        self.assertIn("--scheduler-a eas-base", cmd)
        self.assertIn("bld/tools/noceas_cli diff", cmd)
        cmd = bench_compare.diff_command("BM_EasFull_MissBenchmarks/3")
        self.assertIn("gen --category 2 --index 8", cmd)
        self.assertIn("--scheduler-a eas", cmd)
        cmd = bench_compare.diff_command("BM_Edf_MissBenchmarks/1")
        self.assertIn("gen --category 2 --index 4", cmd)
        self.assertIn("--scheduler-a edf", cmd)

    def test_unmapped_benchmarks_get_no_hint(self):
        self.assertIsNone(bench_compare.diff_command("BM_Repair_LtsOnly/0"))
        self.assertIsNone(bench_compare.diff_command("BM_EasFull_MissBenchmarks"))
        self.assertIsNone(bench_compare.diff_command("BM_EasFull_MissBenchmarks/9"))
        self.assertIsNone(bench_compare.diff_command("BM_EasFull_MissBenchmarks/x"))

    def test_regression_row_carries_diff_command(self):
        base = make_baseline({"BM_EasFull_MissBenchmarks/0": 10.0})
        r = bench_compare.compare(base, {"BM_EasFull_MissBenchmarks/0": 20.0},
                                  {}, 0.35, True, build_dir="bld")
        row = r["benchmarks"][0]
        self.assertEqual(row["verdict"], "regression")
        self.assertIn("bld/tools/noceas_cli diff", row["diff_command"])
        json.dumps(r)  # hint must keep the report serializable

    def test_ok_rows_and_unmapped_regressions_carry_no_diff_command(self):
        base = make_baseline({"BM_EasFull_MissBenchmarks/0": 10.0,
                              "BM_Repair_LtsOnly/0": 10.0})
        r = bench_compare.compare(base, {"BM_EasFull_MissBenchmarks/0": 10.0,
                                         "BM_Repair_LtsOnly/0": 20.0}, {}, 0.35, True)
        by_name = {row["name"]: row for row in r["benchmarks"]}
        self.assertNotIn("diff_command", by_name["BM_EasFull_MissBenchmarks/0"])
        self.assertNotIn("diff_command", by_name["BM_Repair_LtsOnly/0"])

    def test_print_report_shows_the_hint(self):
        base = make_baseline({"BM_EasFull_MissBenchmarks/0": 10.0})
        r = bench_compare.compare(base, {"BM_EasFull_MissBenchmarks/0": 20.0},
                                  {}, 0.35, True)
        out = io.StringIO()
        bench_compare.print_report(r, out=out)
        self.assertIn("behavioral diff", out.getvalue())
        self.assertIn("--decisions-b BASELINE_DECISIONS.jsonl", out.getvalue())


if __name__ == "__main__":
    unittest.main()
