#!/usr/bin/env python3
"""Tests of the benchmark's own code: metric tables, BENCHMARK.json,
result lines, reply parsing and (when built) the C++ quantile self-test.

    python3 perfbench/test_perfbench.py
"""

import json
import subprocess
import unittest
from pathlib import Path

import report
import run

ROOT = Path(__file__).resolve().parent.parent


class TablesTest(unittest.TestCase):
    def test_names_are_valid_and_unique(self):
        names = ([n for n, *_ in report.END_TO_END] +
                 [n for n, *_ in report.PER_LAYER] + list(report.WORKLOADS))
        for name in names:
            self.assertTrue(report.NAME_RE.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_units_directions_bounds(self):
        for name, unit, better, bound in report.END_TO_END:
            self.assertTrue(report.UNIT_RE.fullmatch(unit), name)
            self.assertIn(better, ("higher", "lower"))
            self.assertTrue(0 < bound <= 0.25, name)
        for name, unit, better, workloads in report.PER_LAYER:
            self.assertTrue(report.UNIT_RE.fullmatch(unit), name)
            self.assertIn(better, ("higher", "lower"))
            self.assertTrue(set(workloads) <= set(report.ALL), name)
        setup = [row for row in report.END_TO_END if row[0] == "setup_s"]
        self.assertEqual(setup, [("setup_s", "s", "lower", 0.25)])
        # Set-up has the largest bound.
        self.assertEqual(max(b for *_, b in report.END_TO_END), 0.25)

    def test_every_workload_has_a_layer_and_a_reason(self):
        for workload, why in report.WORKLOADS.items():
            self.assertTrue(any(workload in w for *_, w in report.PER_LAYER))
            self.assertLessEqual(len(why), 200)
            self.assertNotIn("\n", why)


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.text = (ROOT / "BENCHMARK.json").read_text()
        self.bench = json.loads(self.text)

    def test_matches_tables(self):
        self.assertEqual(self.bench, report.benchmark_json())

    def test_contract_shape(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(len(self.text.encode()), 64 * 1024)
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for path in b["paths"]:
            self.assertRegex(path, r"\A[A-Za-z0-9_./-]{1,200}\Z")
            self.assertFalse(path.startswith("/") or ".." in path)
            self.assertTrue((ROOT / path).is_dir())
        self.assertTrue(1 <= len(b["command"]) <= 32)
        self.assertTrue((ROOT / b["command"][1]).is_file())
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_time_budget(self):
        # Four runs plus 22 per workload, each with its set-up and checks
        # (under 8 s), within 3420 s including two builds (~300 s each).
        runs = 4 + 22 * len(self.bench["workloads"])
        self.assertLess(runs * (self.bench["run_seconds"] + 8) + 600, 3420)


class ResultTest(unittest.TestCase):
    def test_end_to_end_needs_every_metric(self):
        values = {n: 1.0 for n, *_ in report.END_TO_END}
        metrics = report.metrics_for(0, "serve_route", values)
        self.assertEqual(list(metrics), [n for n, *_ in report.END_TO_END])
        self.assertEqual(metrics["setup_s"], {"value": 1.0, "unit": "s"})
        del values["setup_s"]
        with self.assertRaises(ValueError):
            report.metrics_for(0, "serve_route", values)

    def test_per_layer_fills_unexercised_layers_with_zero(self):
        values = {n: 2.0 for n, _, _, w in report.PER_LAYER
                  if "protocol_churn" in w}
        metrics = report.metrics_for(1, "protocol_churn", values)
        self.assertEqual(len(metrics), len(report.PER_LAYER))
        self.assertEqual(metrics["proto.map_applies"]["value"], 2.0)
        self.assertEqual(metrics["runtime.sys_frac"]["value"], 0.0)
        values["runtime.sys_frac"] = 1.0
        with self.assertRaises(ValueError):
            report.metrics_for(1, "protocol_churn", values)

    def test_result_line(self):
        metrics = {"x": {"value": 1.5, "unit": "s"}}
        self.assertEqual(json.loads(report.result_line(True, 10, 0, metrics)),
                         {"correct": True, "attempted": 10, "failed": 0,
                          "metrics": metrics})


class ServeTest(unittest.TestCase):
    def test_reply_and_retune_formats(self):
        self.assertTrue(run.REPLY_RE.match(b"OK 2 17"))
        self.assertFalse(run.REPLY_RE.match(b"OK 2"))
        self.assertFalse(run.REPLY_RE.match(b"ERR 2 17"))
        line = "anu_serve: retune version=3 shares=0.21,0.08,0.21 agree=yes"
        self.assertEqual(run.RETUNE_RE.match(line).group(2), "0.21,0.08,0.21")

    def test_share_swing(self):
        self.assertEqual(run.share_swing([]), 0.0)
        self.assertEqual(run.share_swing([[0.5, 0.5]]), 0.0)
        self.assertAlmostEqual(
            run.share_swing([[0.1, 0.9], [0.134, 0.866], [0.163, 0.837]]),
            0.029)


class QuantileTest(unittest.TestCase):
    def test_cpp_self_test(self):
        binary = run.BUILD / "perfbench_sim"
        if not binary.is_file():
            self.skipTest("perfbench_sim not built; run run.py once")
        proc = subprocess.run([str(binary), "--self-test"],
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
