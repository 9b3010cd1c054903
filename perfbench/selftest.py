"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

A tiny-size smoke run checks that every metric named in BENCHMARK.json
is emitted with its unit, the verdict checks are shown to reject
corrupted outputs, and a directory without the program is shown to fail
without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from qhopf import chern, numrep  # noqa: E402
from qhopf.scalars import ParamScalar  # noqa: E402


def invoke(args: list, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


class SmokeTest(unittest.TestCase):
    def test_every_named_metric_is_emitted(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for wl in run.WORKLOADS:
                with self.subTest(workload=wl, trace=trace):
                    proc = invoke(["--workload", wl, "--seed", "3",
                                   "--seconds", "0", "--trace", str(trace),
                                   "--tiny"])
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    line = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(line), {"correct", "attempted",
                                                 "failed", "metrics"})
                    self.assertTrue(line["correct"])
                    self.assertEqual(line["failed"], 0)
                    self.assertGreaterEqual(line["attempted"], 1)
                    got = {n: m["unit"] for n, m in line["metrics"].items()}
                    self.assertEqual(got, want)

    def test_without_the_program_it_fails_without_a_result(self):
        bare = os.path.join(run.OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = invoke(["--workload", "deep-exact", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class CheckerTest(unittest.TestCase):
    def test_wrong_pairing_value_is_rejected(self):
        self.assertTrue(workloads.check_pairing(-3, chern.pairing(-3)))
        self.assertFalse(workloads.check_pairing(-3, ParamScalar(-2)))
        self.assertFalse(workloads.check_pairing(-3, ParamScalar({(0, 1): 1})))

    def test_corrupted_idempotent_is_rejected(self):
        e = chern.idempotent(-2)
        self.assertTrue(workloads.check_idempotent(2, (e, e @ e - e)))
        self.assertFalse(workloads.check_idempotent(2, (e, e @ e)))

    def test_corrupted_cli_output_is_rejected(self):
        spec = (((1, 0, 0, -1), {(0, 0): 2, (1, 0): -1}),
                ((0, 2, 0, 0), {(0, 1): 3}))
        text = workloads.render_spec(spec)
        code, out = workloads.run_cli(["normalize", text])
        self.assertTrue(workloads.check_cli_normalize(spec, (code, out)))
        bad = json.loads(out)
        bad["result"]["terms"][0]["coeff"] += " + q"
        self.assertFalse(workloads.check_cli_normalize(
            spec, (code, json.dumps(bad))))
        self.assertFalse(workloads.check_cli_normalize(spec, (1, out)))

        coinv = (((0, 2, 0, 0), {(0, 0): 1}), ((0, 0, 1, 0), {(1, 0): 2}))
        code, out = workloads.run_cli(["trace", workloads.render_spec(coinv)])
        self.assertTrue(workloads.check_cli_trace(coinv, (code, out)))
        bad = json.loads(out)
        bad["result"]["value"] = "-" + bad["result"]["value"]
        self.assertFalse(workloads.check_cli_trace(
            coinv, (code, json.dumps(bad))))

    def test_numeric_trace_outside_its_bound_is_rejected(self):
        spec = (((0, 1, 0, 0), {(0, 0): 1}),)
        x = workloads.build_element(spec)
        exact = float(workloads.exact_trace(spec, workloads.P_NUM,
                                            workloads.Q_NUM))
        res = numrep.numeric_trace(x, 40, 0.5, 1 / 3)
        self.assertTrue(workloads.check_numeric_trace(exact, res))
        off = numrep.TraceResult(res.value + 1e-6, res.tail_bound)
        self.assertFalse(workloads.check_numeric_trace(exact, off))

    def test_scalar_text_evaluator(self):
        f = workloads.eval_scalar_text
        p, q = workloads.CHECK_POINTS[0]
        self.assertEqual(f("(1 - q^2)/(1 - p)", p, q), (1 - q * q) / (1 - p))
        self.assertEqual(f("-2*p*q + 3", p, q), -2 * p * q + 3)

    def test_golden_digest_lookup(self):
        golden = {"a": {"*": "x"}, "b": {"1": "y"}}
        self.assertEqual(run.golden_digest(golden, "a", 7), "x")
        self.assertEqual(run.golden_digest(golden, "b", 1), "y")
        self.assertIsNone(run.golden_digest(golden, "b", 2))


if __name__ == "__main__":
    unittest.main()
