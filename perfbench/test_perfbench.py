"""Tests of the benchmark itself, on pools small enough to run in seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _smoke(workload: str, trace: bool = False) -> dict:
    return run.run_workload(workload, 1, 0.05, trace, workloads.SMOKE)


def _solve_once():
    bb = run.import_package()
    inst = workloads.build_pool("solve-sparse", 1, bb, workloads.SMOKE)[0]
    code, out, _, _ = run.run_cli(bb.cli, inst.argv, inst.stdin)
    return inst, code, out


class CheckerTest(unittest.TestCase):

    def test_clean_output_passes(self):
        inst, code, out = _solve_once()
        self.assertEqual(check.check_solve(inst.stdin, code, out), [])

    def test_flipped_witness_bit_fails(self):
        inst, code, out = _solve_once()
        res = json.loads(out)
        v1 = set(res["witness"]["v1"]) ^ {0}
        res["witness"]["v1"] = sorted(v1)
        self.assertNotEqual(check.check_solve(inst.stdin, code, json.dumps(res)), [])

    def test_wrong_forest_number_fails(self):
        inst, code, out = _solve_once()
        res = json.loads(out)
        res["forest_number"] -= 1
        self.assertNotEqual(check.check_solve(inst.stdin, code, json.dumps(res)), [])
        f = json.loads(out)["forest_number"]
        self.assertNotEqual(
            check.check_solve(inst.stdin, code, out, expect_f=f + 1), [])

    def test_nonzero_exit_fails(self):
        inst, _, out = _solve_once()
        self.assertNotEqual(check.check_solve(inst.stdin, 2, out), [])
        self.assertNotEqual(check.check_sweep(1, 4, 1, "{}"), [])

    def test_reference_witness_mismatch_fails(self):
        inst, code, out = _solve_once()
        w = json.loads(out)["witness"]
        self.assertEqual(check.check_solve(inst.stdin, code, out,
                                           ref_witness=[w["v1"], w["v2"]]), [])
        self.assertNotEqual(check.check_solve(inst.stdin, code, out,
                                              ref_witness=[w["v2"], w["v1"]]), [])

    def test_cycle_detected(self):
        rows = ["11", "11"]
        self.assertFalse(check.is_forest(rows, [0, 1], [0, 1]))
        self.assertTrue(check.is_forest(rows, [0, 1], [0]))


class CorruptedRunTest(unittest.TestCase):
    """A corrupted CLI output is counted and makes the command exit 1."""

    def _main_with(self, corrupt) -> tuple[int, dict]:
        real_cli, real_workload = run.run_cli, run.run_workload

        def run_cli(cli, argv, stdin):
            return corrupt(*real_cli(cli, argv, stdin))
        run.run_cli = run_cli
        run.run_workload = lambda w, s, sec, t: real_workload(
            w, s, sec, t, workloads.SMOKE)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "solve-sparse", "--seed", "1",
                                 "--seconds", "0.05"])
        finally:
            run.run_cli, run.run_workload = real_cli, real_workload
        return code, json.loads(out.getvalue().strip().splitlines()[-1])

    def test_flipped_bit_counted(self):
        def flip(code, out, err, t):
            res = json.loads(out)
            res["witness"]["v2"] = sorted(set(res["witness"]["v2"]) ^ {1})
            return code, json.dumps(res), err, t
        code, result = self._main_with(flip)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        # every checked first run fails; re-runs only have to repeat it
        self.assertEqual(result["failed"], sum(workloads.SMOKE.sparse.values()))

    def test_nonzero_exit_counted(self):
        code, result = self._main_with(lambda c, out, err, t: (2, out, err, t))
        self.assertEqual(code, 1)
        self.assertEqual(result["failed"], result["attempted"])


class MetricsTest(unittest.TestCase):

    def test_every_metric_named_with_unit(self):
        for workload in workloads.WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                record = _smoke(workload, trace)
                self.assertEqual(record["failed"], 0, record["failures"])
                want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                got = {k: v["unit"] for k, v in record["metrics"].items()}
                self.assertEqual(got, want, (workload, trace))
                for name, m in record["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)
                    if key == "end_to_end":
                        self.assertGreater(m["value"], 0, (workload, name))

    def test_times_scaled_by_probe(self):
        # (seconds, probe index) runs; the probe at index 1 ran at half speed
        samples = {"a": [(0.010, 0), (0.040, 1), (0.020, 2)], "b": [(0.020, 0)]}
        got = run.timings(samples, [(0.5, 1)], [1.0, 0.5, 1.0])
        self.assertAlmostEqual(got["instance_ms_p50"], 20.0)
        self.assertAlmostEqual(got["instances_per_s"], 50.0)
        self.assertAlmostEqual(got["setup_s"], 0.25)

    def test_seed_fixes_the_pool(self):
        # the seed orders the solve corpus and picks the sweep's instances
        bb = run.import_package()
        for workload in workloads.WORKLOADS:
            def pool(seed):
                return [(i.argv, i.stdin) for i in
                        workloads.build_pool(workload, seed, bb)]
            self.assertEqual(pool(3), pool(3))
            self.assertNotEqual(pool(3), pool(4), workload)
            same_corpus = sorted(pool(3)) == sorted(pool(4))
            self.assertEqual(same_corpus, workload != "sweep-structure", workload)

    def test_reference_decodes_hex_witness(self):
        ref = check.Reference({"solve-sparse": [[3, ["3", "1"]]]})
        self.assertEqual(ref.solve("solve-sparse", 0), (3, [[0, 1], [0]]))
        self.assertEqual(check.Reference({}).solve("solve-dense", 0), (None, None))

    def test_smoke_run_is_quick(self):
        t0 = time.perf_counter()
        record = _smoke("solve-dense")
        self.assertEqual(record["failed"], 0)
        self.assertLess(time.perf_counter() - t0, 10.0)


class BareDirectoryTest(unittest.TestCase):

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "solve-dense",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
