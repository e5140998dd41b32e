"""Command-line interface.

Subcommands: generate, estimate, test, ucme, diagnose, recalibrate,
synthetic-benchmark. Exit codes: 0 success, 2 validation error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .calibration_tests import (
    default_cme_locations,
    test_asymptotic_block,
    test_asymptotic_sqrt_block,
    test_bootstrap_ustat,
    test_cme,
)
from .classical import (
    DEFAULT_TAU_GRID,
    binned_confidence_ece,
    mse,
    nll,
    oracle_ece,
    oracle_mce,
    pinball_loss,
    quantile_curve,
)
from .dataset_io import parse_dataset, parse_locations, write_dataset
from .estimators import Dataset, TestLocations, skce_block, skce_plug_in, skce_ustat, ucme_squared
from .exceptions import ConfigurationError, KcalibError
from .kernels import (
    Analytic,
    GaussianRBF,
    KernelSpec,
    KroneckerDelta,
    LaplacianExp,
    MonteCarlo,
    MW,
    ParamEuclidean,
    PredictionKernel,
    W2,
)
from .synthetic import (
    BenchmarkConfig,
    fit_linear_gaussian,
    gen_friedman1,
    linear_gaussian_predictions,
    make_scenario_dataset,
    run_estimator_benchmark,
    run_test_benchmark,
)


def _add_kernel_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("kernel")
    group.add_argument("--metric", choices=["w2", "mw", "param-euclidean"], default="w2")
    group.add_argument("--mw-order", type=float, default=2.0, help="transport order s for --metric mw")
    group.add_argument("--lam", type=float, default=1.0, help="prediction-kernel scale lambda")
    group.add_argument("--nu", type=float, default=1.0, help="prediction-kernel exponent nu in (0, 2]")
    group.add_argument(
        "--target-kernel", choices=["gaussian", "laplacian", "kronecker"], default="gaussian"
    )
    group.add_argument("--gamma", type=float, default=0.5, help="target-kernel inverse length scale")
    group.add_argument("--expectation", choices=["analytic", "monte-carlo"], default="analytic")
    group.add_argument("--mc-samples", type=int, default=1000)
    group.add_argument("--mc-seed", type=int, default=0)


def _kernel_spec(args: argparse.Namespace) -> KernelSpec:
    metric = {"w2": W2(), "mw": MW(args.mw_order), "param-euclidean": ParamEuclidean()}[args.metric]
    if args.target_kernel == "gaussian":
        tk = GaussianRBF(args.gamma)
    elif args.target_kernel == "laplacian":
        tk = LaplacianExp(args.gamma)
    else:
        tk = KroneckerDelta()
    if args.expectation == "analytic":
        mode = Analytic()
    else:
        mode = MonteCarlo(samples=args.mc_samples, seed=args.mc_seed)
    return KernelSpec(
        prediction_kernel=PredictionKernel(metric=metric, lam=args.lam, nu=args.nu),
        target_kernel=tk,
        expectation=mode,
    )


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, default=_json_default))
        return
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k, v in value.items():
                print(f"  {k}: {v}")
        else:
            print(f"{key}: {value}")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return str(obj)


def _payload(report, **fields) -> dict:
    """``fields`` and the ``diagnostics`` of ``report`` that are not arrays."""
    diagnostics = {k: v for k, v in report.diagnostics.items() if not isinstance(v, np.ndarray)}
    return {**fields, "diagnostics": diagnostics}


def _cme_locations(args, data: Dataset) -> TestLocations:
    """The --locations file, or the default locations at the data's dimension."""
    if args.locations:
        return parse_locations(args.locations)
    columns = data.columns
    if columns.family not in ("diag_normal", "laplace"):
        raise ConfigurationError(
            "default CME locations need real-vector predictions; pass --locations"
        )
    return default_cme_locations(columns.y.shape[0], args.cme_locations, seed=args.seed)


def _cmd_generate(args) -> int:
    if args.scenario == "friedman1":
        train_x, train_y = gen_friedman1(100, args.noise_sd, args.seed, replicate=0)
        coef, noise_var = fit_linear_gaussian(train_x, train_y)
        val_x, val_y = gen_friedman1(args.n, args.noise_sd, args.seed, replicate=1)
        data = linear_gaussian_predictions(coef, noise_var, val_x, val_y)
    else:
        data = make_scenario_dataset(args.scenario, args.dim, args.n, args.seed)
    write_dataset(args.out, data)
    _emit({"written": args.out, "n": len(data), "family": data.family}, args.format)
    return 0


def _cmd_estimate(args) -> int:
    spec = _kernel_spec(args)
    data = parse_dataset(args.data)
    if args.estimator == "plug-in":
        report = skce_plug_in(spec, data)
    elif args.estimator == "block":
        report = skce_block(spec, data, args.block_size)
    else:
        report = skce_ustat(spec, data)
    payload = _payload(report, estimator=report.kind, value=report.value)
    if report.sigma_hat_b is not None:
        payload["sigma_hat_b"] = report.sigma_hat_b
    if report.block_estimates is not None and args.show_blocks:
        payload["block_estimates"] = report.block_estimates.tolist()
    _emit(payload, args.format)
    return 0


def _cmd_test(args) -> int:
    spec = _kernel_spec(args)
    data = parse_dataset(args.data)
    if args.method == "block":
        report = test_asymptotic_block(spec, data, args.block_size, variant=args.variant)
    elif args.method == "sqrt-block":
        report = test_asymptotic_sqrt_block(spec, data)
    elif args.method == "bootstrap":
        report = test_bootstrap_ustat(spec, data, args.bootstrap, seed=args.seed)
    else:
        report = test_cme(spec, data, _cme_locations(args, data))
    payload = _payload(report, method=report.method, statistic=report.statistic, p_value=report.p_value)
    if report.seed is not None:
        payload["seed"] = report.seed
    _emit(payload, args.format)
    return 0


def _cmd_ucme(args) -> int:
    spec = _kernel_spec(args)
    data = parse_dataset(args.data)
    report = ucme_squared(spec, data, _cme_locations(args, data))
    inner_means = report.diagnostics["inner_means"].tolist()
    _emit(_payload(report, estimator=report.kind, value=report.value, inner_means=inner_means), args.format)
    return 0


def _cmd_diagnose(args) -> int:
    data = parse_dataset(args.data)
    selected = args.metrics.split(",")
    payload: dict = {}
    for metric in selected:
        if metric == "quantile-curve":
            curve = quantile_curve(data)
            payload["quantile_curve"] = {
                f"{t:.2f}": e for t, e in zip(curve.taus, curve.empirical)
            }
            payload["quantile_max_deviation"] = curve.max_diagonal_deviation()
        elif metric == "pinball":
            payload["pinball_mean"] = float(
                np.mean([pinball_loss(data, t) for t in DEFAULT_TAU_GRID])
            )
        elif metric == "nll":
            payload["nll"] = nll(data)
        elif metric == "mse":
            payload["mse"] = mse(data)
        elif metric == "binned-ece":
            payload["binned_ece"] = binned_confidence_ece(data, args.bins)
        elif metric == "oracle-ece":
            if not args.oracle_data:
                raise KcalibError("--oracle-data is required for oracle-ece")
            oracle_data = parse_dataset(args.oracle_data)
            if len(oracle_data) != len(data):
                raise KcalibError("oracle dataset must match the data length")
            payload["oracle_ece"] = oracle_ece(data, oracle_data.columns, q=args.norm_order)
            payload["oracle_mce"] = oracle_mce(data, oracle_data.columns)
        else:
            raise KcalibError(f"unknown diagnostic {metric!r}")
    _emit(payload, args.format)
    return 0


def _cmd_recalibrate(args) -> int:
    data = parse_dataset(args.data)
    write_dataset(args.out, Dataset(columns=data.columns.temperature_scaled(args.temperature)))
    _emit({"written": args.out, "temperature": args.temperature}, args.format)
    return 0


def _cmd_benchmark(args) -> int:
    config = BenchmarkConfig(
        scenario=args.scenario,
        d=args.dim,
        n_grid=args.n_grid,
        replicates=args.replicates,
        alpha=args.alpha,
        seed=args.seed,
        spec=_kernel_spec(args),
        num_bootstrap=args.bootstrap,
    )
    if args.mode == "estimators":
        result = run_estimator_benchmark(config)
    else:
        result = run_test_benchmark(config)
    if args.out == "-":
        result.to_csv(sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            result.to_csv(fh)
        _emit({"written": args.out, "rows": len(result.rows)}, args.format)
    return 0


def _sizes(text: str) -> tuple:
    """Comma-separated integers, as an argparse ``type``."""
    try:
        return tuple(int(n) for n in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcalib",
        description="Kernel calibration error estimation and calibration tests",
    )
    parser.add_argument("--version", action="version", version=f"kcalib {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("generate", help="write a synthetic scenario dataset")
    p.add_argument("--scenario", choices=["calibrated", "uncalibrated", "ols", "friedman1"], required=True)
    p.add_argument("--dim", type=int, default=1, help="dimension d; ignored by ols and friedman1, which write d = 1")
    p.add_argument("--n", type=int, default=100, help="records; ignored by ols, which always writes its 50 validation pairs")
    p.add_argument("--noise-sd", type=float, default=1.0, help="friedman1 noise level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("estimate", help="estimate the SKCE of a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--estimator", choices=["plug-in", "block", "u-statistic"], default="u-statistic")
    p.add_argument("--block-size", type=int, default=2)
    p.add_argument("--show-blocks", action="store_true")
    _add_kernel_args(p)
    common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("test", help="run a calibration hypothesis test")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=["block", "sqrt-block", "bootstrap", "cme"], default="sqrt-block")
    p.add_argument("--block-size", type=int, default=2)
    p.add_argument("--variant", choices=["empirical-std", "h-squared"], default="empirical-std")
    p.add_argument("--bootstrap", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--locations", help="dataset file of CME test locations")
    p.add_argument("--cme-locations", type=int, default=10)
    _add_kernel_args(p)
    common(p)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("ucme", help="estimate the squared UCME at test locations")
    p.add_argument("--data", required=True)
    p.add_argument("--locations")
    p.add_argument("--cme-locations", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    _add_kernel_args(p)
    common(p)
    p.set_defaults(func=_cmd_ucme)

    p = sub.add_parser("diagnose", help="classical calibration diagnostics")
    p.add_argument("--data", required=True)
    p.add_argument(
        "--metrics",
        default="quantile-curve,pinball,nll,mse",
        help="comma-separated subset of quantile-curve,pinball,nll,mse,binned-ece,oracle-ece",
    )
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--norm-order", type=float, default=2.0)
    p.add_argument("--oracle-data", help="dataset file with the true conditional per record")
    common(p)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("recalibrate", help="apply temperature scaling and write a new dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--temperature", type=float, required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_recalibrate)

    p = sub.add_parser("synthetic-benchmark", help="run estimator or test sweeps, write CSV")
    p.add_argument("--mode", choices=["estimators", "tests"], default="tests")
    p.add_argument("--scenario", choices=["calibrated", "uncalibrated"], default="calibrated")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--n-grid", type=_sizes, default="4,16,64,256,1024")
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bootstrap", type=int, default=500)
    p.add_argument("--out", default="-", help="CSV output path, or - for stdout")
    _add_kernel_args(p)
    common(p)
    p.set_defaults(func=_cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KcalibError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
