"""kcalib benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-regression --seed 1 --seconds 20 --trace 0

Run from the root of a kcalib checkout; the program is imported from its
``src`` directory. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
See README.md in this directory.
"""

import os

# One BLAS/OpenMP thread in this process and every child, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "estimate_s": "s",
    "test_s": "s",
    "peak_rss_mb": "MB",
}

IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy, scipy.special\n"
    "t1 = time.perf_counter()\n"
    "import scipy.optimize, scipy.stats\n"
    "t2 = time.perf_counter()\n"
    "import kcalib.cli\n"
    "t3 = time.perf_counter()\n"
    "print(t3 - t0, t2 - t1)\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", help=argparse.SUPPRESS)  # result file of a worker child
    return parser.parse_args(argv)


def fresh_import_times(work: Path, runs: int = 3):
    """Median seconds of ``import kcalib.cli`` in fresh interpreters: the total,
    and the part spent in ``scipy.optimize`` and ``scipy.stats`` beyond the
    numpy and ``scipy.special`` that kcalib needs anyway."""
    totals, scipy_parts = [], []
    for _ in range(runs):
        code, out, err, _ = workloads.run_child(
            [sys.executable, "-c", IMPORT_PROBE], work, workloads.child_env())
        if code != 0:
            raise RuntimeError(f"fresh import failed: {err[-400:]}")
        total, scipy_part = map(float, out.split())
        totals.append(total)
        scipy_parts.append(scipy_part)
    return statistics.median(totals), statistics.median(scipy_parts)


def run_probes(workload, tracer):
    """One call into each layer a workload's rounds may not reach, on 16 of its records."""
    tracer.phase = tracing.PROBE
    data, spec, flags = workload.probe_source()
    small = workloads.est.Dataset(data.predictions[:16], data.targets[:16])
    path = str(workload.work / "probe.jsonl")
    workloads.dio.write_dataset(path, small)
    for argv in (["estimate", *flags], ["test", "--method", "sqrt-block", *flags], ["diagnose"]):
        workloads.cli_in_process(argv + ["--data", path, "--format", "json"])
    for i in range(len(small) - 1):
        (p, y), (q, z) = small[i], small[i + 1]
        workloads.kn.eval_h(spec, p, y, q, z)
        workloads.dist.mixture_wasserstein(workloads.as_mixture(p), workloads.as_mixture(q))


def per_layer_metrics(table, peaks, import_s, import_scipy_s):
    def top_level_classical(span):
        parent = table.parent_name(span)
        return parent is None or not parent.startswith("classical.")

    def under_ustat(span):
        return table.has_ancestor(span, "estimators.skce_ustat")

    def outside_ustat(span):
        return table.parent_name(span) != "estimators.skce_ustat"

    classical = sum(
        table.per_round(f"classical.{fn}", keep=top_level_classical)
        for fn in ("quantile_curve", "pinball_loss", "nll", "mse")
    )
    values = {
        "cli.import_s": (import_s, "s"),
        "cli.import_scipy_stats_optimize_s": (import_scipy_s, "s"),
        "cli.main_s": (table.per_round("cli.main"), "s"),
        "dataset_io.parse_dataset_s": (table.per_round("dataset_io.parse_dataset"), "s"),
        "dataset_io.write_dataset_s": (table.per_round("dataset_io.write_dataset"), "s"),
        "estimators.Dataset_s": (table.per_round("estimators.Dataset"), "s"),
        "synthetic.make_scenario_dataset_s": (table.per_round("synthetic.make_scenario_dataset"), "s"),
        "kernels.pairwise_h_s": (table.per_round("kernels.pairwise_h", keep=under_ustat), "s"),
        "estimators.skce_ustat_s": (table.per_round("estimators.skce_ustat"), "s"),
        "estimators.skce_ustat_peak_mb": (peaks.get("estimators.skce_ustat", 0.0), "MB"),
        "estimators.h_matrix_s": (table.per_round("estimators.h_matrix"), "s"),
        "estimators.h_matrix_peak_mb": (peaks.get("estimators.h_matrix", 0.0), "MB"),
        "calibration_tests.test_bootstrap_ustat_s": (
            table.per_round("calibration_tests.test_bootstrap_ustat"), "s"),
        "calibration_tests.bootstrap_resample_s": (
            table.per_round("calibration_tests.test_bootstrap_ustat", self_time=True), "s"),
        "estimators.cme_feature_matrix_s": (table.per_round("estimators.cme_feature_matrix"), "s"),
        "calibration_tests.test_cme_s": (table.per_round("calibration_tests.test_cme"), "s"),
        "estimators.skce_block_s": (
            table.per_round("estimators.skce_block", keep=outside_ustat), "s"),
        "calibration_tests.test_asymptotic_sqrt_block_s": (
            table.per_round("calibration_tests.test_asymptotic_sqrt_block"), "s"),
        "classical.diagnose_s": (classical, "s"),
        "distributions.wasserstein2_us": (table.per_call_us("distributions.wasserstein2"), "us"),
        "distributions.mixture_wasserstein_us": (
            table.per_call_us("distributions.mixture_wasserstein"), "us"),
        "kernels.eval_h_us": (table.per_call_us("kernels.eval_h"), "us"),
        "kernels.expect_target_kernel_us": (table.per_call_us("kernels.expect_target_kernel"), "us"),
        "rng.substream_us": (table.per_call_us("rng.substream"), "us"),
        "estimators.h_evaluations": (table.h_evaluations(), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_workload(args, work: Path) -> dict:
    """The body of one run, in the process that runs the operations."""
    workload = workloads.WORKLOADS[args.workload](args.seed, work, traced=bool(args.trace))
    result = {"attempted": 0, "failed": 0}
    if args.trace:
        import_s, import_scipy_s = fresh_import_times(work)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rounds, outputs, result["attempted"], result["failed"] = workloads.run_rounds(
                workload, args.seconds, tracer)
            peaks = tracer.measure_peaks()
            run_probes(workload, tracer)
        finally:
            tracer.uninstall()
        table = tracing.SpanTable(tracer, len(rounds))
        result["metrics"] = per_layer_metrics(table, peaks, import_s, import_scipy_s)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        setup_s = workloads.time_setups(workload.setup)
        rounds, outputs, result["attempted"], result["failed"] = workloads.run_rounds(
            workload, args.seconds)
        result["metrics"] = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r["wall"] for r in rounds),
            "estimate_s": statistics.median(r["estimate"] for r in rounds),
            "test_s": statistics.median(r["test"] for r in rounds),
        }
        if all("rss" in r for r in rounds):
            result["metrics"]["peak_rss_mb"] = statistics.median(r["rss"] for r in rounds)
    result["problems"] = workloads.check_outputs(workload, outputs)
    workloads.log(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds, operations "
        f"{statistics.median(r['estimate'] + r['test'] + r['other'] for r in rounds):.3f} s "
        f"per round (median)"
    )
    return result


def run_in_worker(args, work: Path) -> dict:
    """Run the workload in a child, whose peak RSS is that of the operations."""
    result_path = work / "worker-result.json"
    argv = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--worker", str(result_path),
    ]
    code, _, err, rss = workloads.run_child(argv, work)
    sys.stderr.write(err)
    if code != 0 or not result_path.is_file():
        raise RuntimeError(f"worker exited with {code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = rss
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kcalib" / "__init__.py").is_file():
        print(f"perfbench: no kcalib sources under {SRC}; run from a kcalib checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    global workloads, tracing  # they import kcalib, so only once its sources are found
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.worker:
        work = Path(args.worker).parent
        result = run_workload(args, work)
        Path(args.worker).write_text(json.dumps(result), encoding="utf-8")
        return 0

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        if args.workload == "cli-regression" and not args.trace:
            result = run_workload(args, work)  # its operations are children already
        else:
            result = run_in_worker(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in result["problems"]:
        workloads.log(f"check failed: {problem}")
    metrics = result["metrics"]
    if not args.trace:
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    line = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(line, indent=1), encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
