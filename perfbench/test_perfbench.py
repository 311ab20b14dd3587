#!/usr/bin/env python3
"""Tests of the benchmark itself: argument rejection, the output checks
(a wrong expected value is a counted failure, a stale model a loud
error) and the traced run's replays on every workload.

    python3 perfbench/test_perfbench.py

The first test to need the measuring program builds it (and prepares
the models) through run.py, like a first benchmark run does.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["serve", "sweep", "train", "recover"]

with open(os.path.join(HERE, "expected.json")) as f:
    EXPECTED = json.load(f)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(*args, expected=None):
    cmd = [sys.executable, RUN] + list(args)
    if expected is not None:
        cmd += ["--expected", expected]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=1200)


def result(done):
    """The run's last stdout line as the result object, or None."""
    lines = done.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def expected_file(mutate):
    data = json.loads(json.dumps(EXPECTED))
    mutate(data)
    f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
    json.dump(data, f)
    f.close()
    return f.name


class ArgumentTest(unittest.TestCase):
    def assertRejected(self, *args):
        done = run(*args)
        self.assertEqual(done.returncode, 2, done.stderr)
        self.assertIsNone(result(done))

    def test_unknown_workload(self):
        self.assertRejected("--workload", "nope", "--seed", "1",
                            "--seconds", "1", "--trace", "0")

    def test_malformed_seed(self):
        for seed in ("-1", "x", "1.5", ""):
            self.assertRejected("--workload", "train", "--seed", seed,
                                "--seconds", "1", "--trace", "0")

    def test_malformed_seconds_and_trace(self):
        self.assertRejected("--workload", "train", "--seed", "1",
                            "--seconds", "0", "--trace", "0")
        self.assertRejected("--workload", "train", "--seed", "1",
                            "--seconds", "1", "--trace", "2")

    def test_missing_and_unknown_options(self):
        self.assertRejected("--workload", "train", "--seed", "1",
                            "--seconds", "1")
        self.assertRejected("--workload", "train", "--seed", "1",
                            "--seconds", "1", "--trace", "0",
                            "--bogus", "1")


class MeasuringProgramArgumentTest(unittest.TestCase):
    """vbbench itself rejects what run.py would never pass."""

    @classmethod
    def setUpClass(cls):
        # A short run builds the program and prepares the models.
        done = run("--workload", "sweep", "--seed", "3", "--seconds", "1",
                   "--trace", "0")
        assert done.returncode == 0, done.stderr
        cls.binary = os.path.join(ROOT, ".bench_build", "perfbench",
                                  "vbbench")

    def vbbench(self, *args):
        return subprocess.run([self.binary] + list(args),
                              capture_output=True, text=True, timeout=60)

    def test_rejects_bad_arguments(self):
        base = ["run", "--models", "m", "--seed", "1", "--seconds", "1",
                "--trace", "0"]
        for extra in (["--workload", "nope"],
                      ["--workload", "train", "--seed", "-3"],
                      ["--workload", "train", "--model-digest", "=0x1"],
                      ["--workload", "train", "--unknown", "1"]):
            done = self.vbbench(*(base + extra))
            self.assertEqual(done.returncode, 2, extra)
            self.assertEqual(done.stdout, "")
        self.assertEqual(self.vbbench("bogus").returncode, 2)


class OutputCheckTest(unittest.TestCase):
    seed = str(EXPECTED["recorded_seed"])

    def test_recorded_seed_passes(self):
        done = run("--workload", "train", "--seed", self.seed,
                   "--seconds", "1", "--trace", "0")
        r = result(done)
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)

    def test_wrong_expected_digest_is_a_counted_failure(self):
        def corrupt(data):
            data["workloads"]["train"]["weights"] = "0x0000000000000001"
        path = expected_file(corrupt)
        try:
            done = run("--workload", "train", "--seed", self.seed,
                       "--seconds", "1", "--trace", "0", expected=path)
        finally:
            os.unlink(path)
        r = result(done)
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)
        self.assertEqual(r["failed"], r["attempted"])
        self.assertIn("fail_frac = 1", done.stdout)

    def test_stale_model_fails_loudly(self):
        def stale(data):
            data["models"]["mnist_fc"] = "0x0123456789abcdef"
        path = expected_file(stale)
        try:
            done = run("--workload", "recover", "--seed", self.seed,
                       "--seconds", "1", "--trace", "0", expected=path)
        finally:
            os.unlink(path)
        self.assertNotEqual(done.returncode, 0)
        self.assertIsNone(result(done))
        self.assertIn("stale", done.stderr)
        self.assertIn("0x0123456789abcdef", done.stderr)

    def test_other_seed_checks_repeats(self):
        done = run("--workload", "sweep", "--seed", "12345",
                   "--seconds", "1", "--trace", "0")
        r = result(done)
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertTrue(r["correct"])
        self.assertGreaterEqual(r["attempted"], 3)
        self.assertEqual(sorted(r["metrics"]),
                         sorted(m["name"] for m in BENCH["end_to_end"]))


class ReplayTest(unittest.TestCase):
    # A metric per workload that only its replay can fill in.
    witness = {"serve": "resilience.read_s", "sweep": "dnn.forward_s",
               "train": "dnn.backward_s", "recover": "recovery.corrupt_frac"}

    def test_replays_match_on_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = run("--workload", workload, "--seed", "5",
                           "--seconds", "1", "--trace", "1")
                r = result(done)
                self.assertEqual(done.returncode, 0, done.stderr)
                self.assertTrue(r["correct"], done.stderr)
                self.assertEqual(sorted(r["metrics"]),
                                 sorted(m["name"]
                                        for m in BENCH["per_layer"]))
                self.assertGreater(
                    r["metrics"][self.witness[workload]]["value"], 0)
                self.assertGreater(r["metrics"]["trace.coverage"]["value"],
                                   0.5)


if __name__ == "__main__":
    unittest.main()
