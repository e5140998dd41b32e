"""Self-tests of the benchmark: its oracles, its failure counting and its tracer.

    python3 perfbench/selftest.py

Runs in a few seconds on tiny inputs, from the root of a kcalib checkout.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from kcalib import (  # noqa: E402
    Analytic,
    Categorical,
    ClassLabel,
    Dataset,
    DiagNormal,
    KernelSpec,
    KroneckerDelta,
    MonteCarlo,
    ParamEuclidean,
    PredictionKernel,
    RealVector,
    default_kernel_spec,
    skce_block,
    skce_ustat,
)
from kcalib import calibration_tests as ct  # noqa: E402


def tiny_normals(n, d, seed=0):
    rng = np.random.default_rng(seed)
    mean = rng.normal(size=(n, d))
    var = rng.uniform(0.05, 2.0, size=(n, d))
    y = mean + rng.normal(size=(n, d)) + 0.5
    data = Dataset([DiagNormal(m, v) for m, v in zip(mean, var)], [RealVector(t) for t in y])
    return data, mean, var, y


class OracleAgreement(unittest.TestCase):
    def test_normal_ustat(self):
        for d in (1, 3):
            data, mean, var, y = tiny_normals(13, d)
            want = skce_ustat(default_kernel_spec(), data).value
            self.assertAlmostEqual(oracles.ustat_normal(mean, var, y) / want, 1.0, delta=1e-12)

    def test_normal_ustat_across_tiles(self):
        data, mean, var, y = tiny_normals(40, 2, seed=1)
        saved = oracles._TILE_ELEMENTS
        oracles._TILE_ELEMENTS = 200  # a few rows per tile
        try:
            tiled = oracles.ustat_normal(mean, var, y)
        finally:
            oracles._TILE_ELEMENTS = saved
        self.assertAlmostEqual(tiled / oracles.ustat_normal(mean, var, y), 1.0, delta=1e-12)

    def test_block_estimate(self):
        data, mean, var, y = tiny_normals(30, 1, seed=2)
        want = skce_block(default_kernel_spec(), data, 7).value
        got = oracles.block_estimate_normal(mean, var, y, 7)
        self.assertAlmostEqual(got / want, 1.0, delta=1e-12)

    def test_categorical_ustat(self):
        probs, labels = workloads.categorical_inputs(seed=3, n=17, classes=4)
        data = Dataset([Categorical(p) for p in probs], [ClassLabel(int(c)) for c in labels])
        spec = KernelSpec(PredictionKernel(metric=ParamEuclidean()), KroneckerDelta(), Analytic())
        want = skce_ustat(spec, data).value
        self.assertAlmostEqual(oracles.ustat_categorical(probs, labels) / want, 1.0, delta=1e-12)

    def test_cme_statistic(self):
        data, mean, var, y = tiny_normals(25, 2, seed=4)
        locs = ct.default_cme_locations(2, 3, seed=0)
        want = ct.test_cme(default_kernel_spec(), data, locs).statistic
        got = oracles.cme_statistic_normal(mean, var, y, *workloads.location_arrays(locs))
        self.assertAlmostEqual(got / want, 1.0, delta=1e-9)

    def test_monte_carlo_within_bound(self):
        data, mean, var, y = tiny_normals(12, 1, seed=5)
        spec = KernelSpec(expectation=MonteCarlo(samples=200, seed=0))
        mc = skce_ustat(spec, data).value
        bound = oracles.mc_error_bound_normal(mean, var, y, 200)
        self.assertGreater(bound, 0.0)
        self.assertLessEqual(abs(mc - oracles.ustat_normal(mean, var, y)), 4.0 * bound)

    def test_jsonl_reader(self):
        data, mean, var, y = tiny_normals(5, 2, seed=6)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.jsonl")
            workloads.dio.write_dataset(path, data)
            for got, want in zip(oracles.read_normal_jsonl(path), (mean, var, y)):
                np.testing.assert_array_equal(got, want)


class FailingWorkload(workloads.Workload):
    name = "failing"

    def setup(self):
        pass

    def ops(self):
        def boom():
            raise ValueError("deliberate")

        return [
            workloads.Op("ok", "estimate", lambda: 1.0),
            workloads.Op("boom", "test", boom),
        ]

    def check(self, outputs, checks):
        checks.true("ok output", outputs["ok"] == 1.0)


class Rounds(unittest.TestCase):
    def test_failed_operation_is_counted(self):
        workload = FailingWorkload(0, Path("."), traced=False)
        rounds, outputs, attempted, failed = workloads.run_rounds(workload, seconds=0.0)
        self.assertEqual(len(rounds), 2)
        self.assertEqual((attempted, failed), (4, 2))
        self.assertEqual(workloads.check_outputs(workload, outputs), [])

    def test_rounds_must_repeat(self):
        workload = FailingWorkload(0, Path("."), traced=False)
        problems = workloads.check_outputs(workload, [{"ok": 1.0}, {"ok": 1.0 + 1e-16 * 4}])
        self.assertEqual(len(problems), 1)

    def test_unreadable_output_is_a_problem(self):
        workload = FailingWorkload(0, Path("."), traced=False)
        problems = workloads.check_outputs(workload, [{}])  # its check reads outputs["ok"]
        self.assertEqual(len(problems), 1)
        self.assertIn("KeyError", problems[0])

    def test_checks(self):
        checks = workloads.Checks()
        checks.close("same", 1.0, 1.0 + 1e-12)
        checks.close("far", 1.0, 1.1)
        checks.rejects("rejects", 0.002)
        checks.rejects("keeps", 0.2)
        self.assertEqual([p.split(":")[0] for p in checks.problems], ["far", "keeps"])


class Tracing(unittest.TestCase):
    def test_spans_nest_and_uninstall(self):
        data, *_ = tiny_normals(10, 1)
        spec = default_kernel_spec()
        original = ct.h_matrix
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.phase = 0
            ct.test_bootstrap_ustat(spec, data, 100, seed=0)
            workloads.est.skce_ustat(spec, data)
        finally:
            tracer.uninstall()
        self.assertIs(ct.h_matrix, original)
        names = [s[0] for s in tracer.spans]
        boot = names.index("calibration_tests.test_bootstrap_ustat")
        h = names.index("estimators.h_matrix")
        self.assertEqual(tracer.spans[h][3], boot)
        self.assertEqual(tracer.spans[names.index("kernels.pairwise_h")][3], h)
        self.assertEqual(tracer.h_evaluations[0], 45)
        table = tracing.SpanTable(tracer, rounds=1)
        total = table.per_round("calibration_tests.test_bootstrap_ustat")
        resample = table.per_round("calibration_tests.test_bootstrap_ustat", self_time=True)
        self.assertGreater(total, resample)
        self.assertGreater(resample, 0.0)
        peaks = tracer.measure_peaks()
        self.assertGreater(peaks["estimators.skce_ustat"], 0.0)


class BareDirectory(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "lib-per-pair",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
