#!/usr/bin/env python3
"""Tests of the end-to-end benchmark, run at a tiny scale.

Run from the root of a source checkout:

    python3 perfbench/test_bench.py

For every workload named in BENCHMARK.json it runs perfbench/run.py twice
untraced and twice traced at one seed, and checks that every metric
BENCHMARK.json names is printed with its unit, that the correctness gate
passed, and that every count is identical across the two invocations.
It also checks that the benchmark refuses to run, with a non-zero exit
and no result line, from a directory holding only the benchmark, and
that two checkouts sharing one CARGO_TARGET_DIR each configure a build
tree of their own sources.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)

# Per-layer metrics derived from counters rather than clocks.
DETERMINISTIC_UNITS = {"count", "bytes", "ratio"}
TIMING_RATIOS = {"trace.overhead_frac", "trace.accounted_frac"}


def run_bench(workload, trace, seed=7, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
               "--trace", str(trace), "--scale", "0.05"]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def result_of(completed):
    return json.loads(completed.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):

    def check_printed(self, result, expected):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in expected})
        for metric in expected:
            printed = metrics[metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(printed["value"], (int, float))

    def check_workload(self, workload):
        untraced = []
        traced = []
        for _ in range(2):
            for trace, results in ((0, untraced), (1, traced)):
                completed = run_bench(workload, trace)
                self.assertEqual(completed.returncode, 0, completed.stderr)
                results.append(result_of(completed))
        for result in untraced:
            self.check_printed(result, SPEC["end_to_end"])
            for name, printed in result["metrics"].items():
                self.assertGreater(printed["value"], 0, name)
        for result in traced:
            self.check_printed(result, SPEC["per_layer"])
        for metric in SPEC["per_layer"]:
            name = metric["name"]
            if metric["unit"] in DETERMINISTIC_UNITS and name not in TIMING_RATIOS:
                self.assertEqual(traced[0]["metrics"][name]["value"],
                                 traced[1]["metrics"][name]["value"], name)

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            completed = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(completed.returncode, 0)
            self.assertEqual(completed.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


def copy_checkout(destination):
    os.makedirs(destination)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), destination)
    for path in SPEC["paths"] + ["src"]:
        shutil.copytree(os.path.join(ROOT, path),
                        os.path.join(destination, path))


def load_runner(checkout):
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(checkout, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cmake_home(build_tree):
    with open(os.path.join(build_tree, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


class SharedTargetDirTest(unittest.TestCase):

    def test_checkouts_sharing_a_target_dir_build_their_own_sources(self):
        scratch = os.path.join(ROOT, ".bench_build", "two-checkouts")
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            checkouts = [os.path.join(scratch, name) for name in ("a", "b")]
            for checkout in checkouts:
                copy_checkout(checkout)
            target = os.path.join(scratch, "target")
            trees = []
            with mock.patch.dict(os.environ, {"CARGO_TARGET_DIR": target}):
                for checkout in checkouts:
                    runner = load_runner(checkout)
                    tree = runner.build_dir()
                    runner.configure(tree)
                    trees.append(tree)
            self.assertNotEqual(trees[0], trees[1])
            for checkout, tree in zip(checkouts, trees):
                self.assertEqual(os.path.dirname(tree), target)
                self.assertEqual(
                    os.path.realpath(cmake_home(tree)),
                    os.path.realpath(os.path.join(checkout, "perfbench")))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


def add_workload_tests():
    for workload in SPEC["workloads"]:
        name = workload["name"]
        setattr(BenchmarkTest, "test_workload_" + name,
                lambda self, name=name: self.check_workload(name))


add_workload_tests()

if __name__ == "__main__":
    unittest.main()
