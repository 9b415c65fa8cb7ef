"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds hyrd_perfbench (as run.py does), runs its self-test of the percentile
rule, ratio bases and self-time subtraction, smoke-runs every workload in
both modes, and checks that BENCHMARK.json, spec.json and hyrd_perfbench agree.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

sys.path.insert(0, HERE)
import run  # noqa: E402


def load(path):
    with open(path) as f:
        return json.load(f)


def bench(*args):
    out = subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                         capture_output=True, text=True, timeout=900)
    return out.returncode, out.stdout.splitlines(), out.stderr


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        self.spec = load(os.path.join(HERE, "spec.json"))

    def test_workloads_agree(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))
        self.assertEqual(sorted(names), sorted(self.spec["workloads"]))

    def test_every_layer_metric_has_a_target(self):
        layers = [m["name"] for m in self.bench["per_layer"]]
        self.assertEqual(sorted(layers), sorted(self.spec["per_layer_targets"]))
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        reported = e2e | set(self.spec["unbounded_metrics"])
        workloads = set(self.spec["workloads"])
        for name, t in self.spec["per_layer_targets"].items():
            self.assertLessEqual(set(t["moves"]), reported, name)
            self.assertLessEqual(set(t["on"]) | set(t["not_on"]), workloads, name)
            self.assertFalse(set(t["on"]) & set(t["not_on"]), name)

    def test_params_differ(self):
        want = {"tenants": 10, "write_ratio": 0.9, "outage_providers": ["Aliyun"]}
        self.assertEqual(run.params_differ(want, dict(want, write_ratio=0.90000000000000002)), [])
        self.assertEqual(run.params_differ(want, dict(want, tenants=11, extra=1)),
                         ["extra", "tenants"])
        self.assertEqual(run.params_differ(want, {"tenants": 10, "write_ratio": 0.9}),
                         ["outage_providers"])

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_selftest(self):
        out = subprocess.run([run.BINARY, "--selftest"], capture_output=True,
                             text=True)
        self.assertEqual(out.returncode, 0, out.stderr)

    def test_params_match_spec(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                out = subprocess.run([run.BINARY, "--workload", workload, "--params"],
                                     capture_output=True, text=True, check=True)
                got = json.loads(out.stdout)
                self.assertEqual(run.params_differ(run.spec_params(workload), got), [])

    def test_rejects_unknown_workload(self):
        out = subprocess.run([run.BINARY, "--workload", "nope"],
                             capture_output=True, text=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")

    def check_result(self, lines, trace):
        self.assertGreaterEqual(len(lines), 2)
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        report = json.loads(lines[-2])["report"]
        self.assertTrue(result["correct"], report["errors"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1000)
        declared = load(os.path.join(ROOT, "BENCHMARK.json"))
        kind = "per_layer" if trace else "end_to_end"
        names = [m["name"] for m in declared[kind]]
        self.assertEqual(list(result["metrics"]), names)
        units = {m["name"]: m["unit"] for m in declared[kind]}
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], units[name], name)
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)
            spec = load(os.path.join(HERE, "spec.json"))
            extra = set(spec["unbounded_metrics"]) - {"failed_op_ratio"}
            self.assertEqual(set(report["unbounded_metrics"]), extra)
            for timing in ("put_wall_p50_us", "op_wall_p99_us", "vlat_p50_ms"):
                self.assertGreaterEqual(report["samples"][timing], 1, timing)
            self.assertGreaterEqual(report["samples"]["op_wall_p99_us"], 1000)
        return result, report

    def smoke(self, workload, trace):
        code, lines, err = bench("--workload", workload, "--seed", "3",
                                 "--seconds", "1", "--trace", str(trace),
                                 "--smoke")
        self.assertEqual(code, 0, err[-2000:])
        return self.check_result(lines, trace)

    def test_smoke_fleet_congested(self):
        self.smoke("fleet-congested", 0)

    def test_smoke_fleet_churn_outage(self):
        _, report = self.smoke("fleet-churn-outage", 0)
        self.assertIn("\"failure_events\":2", report["fingerprint"])
        restore = report["restore"]
        self.assertGreater(restore["update_log_records_at_restore"], 0)
        self.assertGreaterEqual(restore["peak_queue_depth_after_resync"],
                                restore["peak_queue_depth_before_restore"])

    def test_smoke_large_stripes(self):
        self.smoke("large-stripes", 0)

    def test_traced_smoke_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = self.smoke(workload, 1)
                self.assertIn("trace.unattributed_share", result["metrics"])

    def test_same_seed_repeats_virtual_metrics(self):
        exact = ("vlat_p50_ms", "vlat_p99_ms", "degraded_vlat_p50_ms",
                 "storage_overhead", "cost_usd")
        first, _ = self.smoke("fleet-churn-outage", 0)
        second, _ = self.smoke("fleet-churn-outage", 0)
        for name in exact:
            self.assertEqual(first["metrics"][name], second["metrics"][name], name)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "large-stripes", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
