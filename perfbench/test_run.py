#!/usr/bin/env python3
"""Self-tests of the benchmark runner: `python3 perfbench/test_run.py`.

Builds the perfbench binary like `run.py` does and drives it on tiny
versions of the workloads (a few hundred records, tens of ops per client).
"""

import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stderr

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCH = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
LAYERS = run.load_json(os.path.join(run.HERE, "layers.json"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


class RunnerTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def runner(self, workload, seed=1):
        return run.Runner(self.binary, workload, seed, run.Ledger(), tiny=True)

    def test_seed_parsing_and_workload_selection(self):
        args = run.parse_args(["--workload", "update-clean", "--seed", "7"], WORKLOADS, 25)
        self.assertEqual((args.workload, args.seed, args.seconds, args.trace),
                         ("update-clean", 7, 25, 0))
        self.assertEqual(run.parse_args(["--workload", "ycsb-a-repl"], WORKLOADS, 9).seed, 42)
        for bad in (["--workload", "nope"], ["--workload", "ycsb-a-repl", "--seed", "x"],
                    ["--workload", "ycsb-a-repl", "--trace", "2"], ["--seed", "1"]):
            with self.assertRaises(SystemExit, msg=bad), redirect_stderr(io.StringIO()):
                run.parse_args(bad, WORKLOADS, 25)
        for name in WORKLOADS:
            spec = self.runner(name, seed=5).call("spec")
            self.assertEqual((spec["workload"], spec["seed"]), (name, 5))
            self.assertGreater(spec["attempted"], 0)
        proc = subprocess.run([self.binary, "spec", "--workload", "nope"],
                              capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 2)

    def test_metric_names_are_valid_and_mapped(self):
        e2e = [m["name"] for m in BENCH["end_to_end"]]
        layer = [m["name"] for m in BENCH["per_layer"]]
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(e2e + layer), len(set(e2e + layer)))
        mapped = [{k: m[k] for k in ("name", "unit", "better")}
                  for l in LAYERS["layers"] for m in l["metrics"]]
        self.assertEqual(mapped, BENCH["per_layer"])
        # run_wall_s is a target too, though per-layer: see layers.json.
        self.assertIn("run_wall_s", layer)
        for l in LAYERS["layers"]:
            self.assertTrue(l["moves"], l["layer"])
            for mv in l["moves"]:
                self.assertIn(mv["metric"], e2e + ["run_wall_s"])
                self.assertIn(mv["workload"], WORKLOADS)
            self.assertTrue(set(l["flat"]["metrics"]) <= set(e2e))
            self.assertTrue(set(l["flat"]["workloads"]) <= set(WORKLOADS))

    def test_per_layer_run_produces_every_declared_metric(self):
        r = self.runner("ycsb-t-cluster")
        metrics, _ = run.measure_layers(r, 0)
        self.assertEqual(r.ledger.errors, [])
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in BENCH["per_layer"]))

    def test_window_counters_exclude_preload(self):
        self.assertEqual(run.window_counters({"a": 5, "b": 2}, {"a": 3}), {"a": 2, "b": 2})
        self.assertEqual(run.counter_total({"n0.g1.server.puts": 2, "server.puts": 3,
                                            "xserver.puts": 7}, "server.puts"), 5)
        r = self.runner("ycsb-a-repl")
        setup, full = r.run("setup"), r.run("full")
        self.assertEqual(run.check_run(setup, r.ledger) + run.check_run(full, r.ledger), [])
        preload = run.counter_total(setup["counters"], "server.puts")
        self.assertEqual(preload, setup["records"])
        window = run.window_counters(full["counters"], setup["counters"])
        self.assertEqual(run.counter_total(window, "server.puts"), full["put"]["count"])

    def test_virtual_metrics_repeat_per_seed_and_change_with_it(self):
        for name in WORKLOADS:
            a, b = self.runner(name, 1).run("full"), self.runner(name, 1).run("full")
            c = self.runner(name, 2).run("full")
            self.assertEqual(run.virtual_fingerprint(a), run.virtual_fingerprint(b), name)
            self.assertNotEqual(run.virtual_fingerprint(a), run.virtual_fingerprint(c), name)

    def test_panicking_spec_counts_every_op_failed(self):
        r = self.runner("selftest-panic")
        metrics, _ = run.measure_end_to_end(r, 0)
        self.assertEqual(metrics, {})
        self.assertGreater(r.ledger.attempted, 0)
        self.assertEqual(r.ledger.failed, r.ledger.attempted)
        self.assertTrue(any(e.startswith("run-crashed") for e in r.ledger.errors))

    def test_fails_without_the_repository(self):
        os.makedirs(os.path.join(run.HERE, "out"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(run.HERE, "out")) as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "target", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0]],
                cwd=tmp, capture_output=True, text=True, timeout=180, check=False,
                env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
