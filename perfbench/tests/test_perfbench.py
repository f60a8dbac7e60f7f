#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark program through perfbench/run.py if needed and runs it on the
shrunken --smoke inputs (one stand-in, small campaign, few sessions),
except where a check only exists at full size. Takes about a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")


def run(workload, *extra, seed=1, trace=0):
    """Run the benchmark; return (exit code, stdout lines, result JSON)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


def error_rate(lines):
    for line in lines:
        if line.startswith("error_rate "):
            return float(line.split()[1])
    raise AssertionError("no error_rate line")


class BenchmarkTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        tmp_root = os.path.join(ROOT, ".bench_build", "tmp")
        os.makedirs(tmp_root, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(dir=tmp_root)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def corrupted_expect(self, name, edit):
        """A copy of the expectation dir with @name rewritten by @edit."""
        dst = os.path.join(self.tmp, "expect-" + name)
        shutil.copytree(os.path.join(BENCH, "expect"), dst)
        path = os.path.join(dst, name)
        with open(path) as f:
            text = f.read()
        changed = edit(text)
        self.assertNotEqual(text, changed)
        with open(path, "w") as f:
            f.write(changed)
        return dst

    def test_intact_expectation_passes(self):
        code, lines, result = run("sweep", "--smoke")
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertTrue(result["correct"])
        self.assertEqual(error_rate(lines), 0)

    def test_corrupted_sweep_expectation_fails(self):
        def bump_cycles(text):
            # "run <bench> <config> <key> <ipc> <cycles> ...": one job.
            m = re.search(r"^run bzip2 base \d+ \S+ (\d+)", text, re.M)
            return text[:m.start(1)] + str(int(m.group(1)) + 1) + text[m.end(1):]

        expect = self.corrupted_expect("sweep_500k.txt", bump_cycles)
        code, lines, result = run("sweep", "--smoke", "--expect", expect)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(error_rate(lines), 0)

    def test_corrupted_campaign_expectation_fails(self):
        # The pinned matrix is compared at the full campaign size only.
        expect = self.corrupted_expect(
            "campaign_seed1.json",
            lambda t: re.sub(r'"detected":(\d+)',
                             lambda m: '"detected":%d' % (int(m.group(1)) + 1),
                             t, count=1))
        code, lines, result = run("campaign", "--expect", expect)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(error_rate(lines), 0)

    def test_seed_reaches_plans_and_arrivals(self):
        for workload, tag in (("campaign", "campaign plans"),
                              ("verifier", "verifier arrivals")):
            prints = {}
            for seed in (1, 2):
                code, lines, _ = run(workload, "--describe-inputs", seed=seed)
                self.assertEqual(code, 0, "\n".join(lines))
                prints[seed] = [l for l in lines if l.startswith(tag)]
                self.assertEqual(len(prints[seed]), 1, "\n".join(lines))
            self.assertNotEqual(prints[1], prints[2], workload)
            again = run(workload, "--describe-inputs", seed=1)[1]
            self.assertIn(prints[1][0], again, workload)

    def test_every_metric_printed_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            for w in self.spec["workloads"]:
                code, lines, result = run(w["name"], "--smoke", trace=trace)
                self.assertEqual(code, 0, "\n".join(lines[-20:]))
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, (w["name"], trace))
                printed = {}
                for line in lines:
                    parts = line.split()
                    if parts and parts[0] == "metric":
                        printed[parts[1]] = parts[3]
                self.assertEqual(printed, want, (w["name"], trace))


if __name__ == "__main__":
    unittest.main()
