"""Synthetic scenario generators and benchmark sweeps.

Scenarios: calibrated/uncalibrated Gaussian setups, an OLS regression
pipeline with homoscedastic Gaussian predictions, and the Friedman-1 data
generator (data only; a misspecified linear Gaussian model is provided for
demos in place of any trained model).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .calibration_tests import (
    default_cme_locations,
    test_asymptotic_block,
    test_asymptotic_sqrt_block,
    test_bootstrap_ustat,
    test_cme,
)
from .distributions import _normal_rules, _real, _reals_rules, check_rows, checked_int
from .estimators import Dataset, TestLocations, skce_block, skce_plug_in, skce_ustat
from .exceptions import ParameterError
from .kernels import Columns, KernelSpec, default_kernel_spec, prepare
from .rng import substream


# ---------------------------------------------------------------------------
# Generators


def gen_calibrated(d: int, n: int, seed: int, replicate: int = 0) -> Dataset:
    """Calibrated model: predictions N(c 1_d, 0.1^2 I), c ~ U(0, 1), and
    targets drawn from the predictions themselves."""
    d, n = _checked_sizes(d, n)
    rng = substream(seed, "calibrated", replicate)
    mean, var = _means_and_variances(rng, d, n)
    return _normal_dataset(mean, var, mean + np.sqrt(var) * rng.standard_normal((n, d)))


def gen_uncalibrated(d: int, n: int, seed: int, replicate: int = 0) -> Dataset:
    """Uncalibrated model: as the calibrated setup, except the first target
    coordinate is drawn with mean 0.1 regardless of the predicted mean."""
    d, n = _checked_sizes(d, n)
    rng = substream(seed, "uncalibrated", replicate)
    mean, var = _means_and_variances(rng, d, n)
    shifted = mean.copy()
    shifted[:, 0] = 0.1
    return _normal_dataset(mean, var, shifted + np.sqrt(var) * rng.standard_normal((n, d)))


def _checked_sizes(d, n) -> tuple[int, int]:
    """``d`` and ``n`` as ints; a ``ParameterError`` unless both are integers >= 1."""
    d, n = checked_int(d, "dimension"), checked_int(n, "n")
    if d < 1 or n < 1:
        raise ParameterError("need d >= 1 and n >= 1")
    return d, n


def _means_and_variances(rng: np.random.Generator, d: int, n: int):
    """(n, d) means c 1_d with c ~ U(0, 1) and variances 0.1^2 of the scenario predictions."""
    c = rng.uniform(0.0, 1.0, size=n)
    return np.repeat(c[:, None], d, axis=1), np.full((n, d), 0.01)


def _normal_dataset(mean: np.ndarray, var: np.ndarray, y: np.ndarray) -> Dataset:
    """The dataset of normal predictions and real targets given as (n, d) rows, checked as a file is."""
    check_rows(_normal_rules(mean, var)[0] + _reals_rules(y))
    return Dataset(columns=Columns.build("diag_normal", (mean.T, var.T), y.T))


@dataclass
class OlsScenario:
    train_x: np.ndarray
    train_y: np.ndarray
    intercept: float
    slope: float
    noise_var: float
    validation_x: np.ndarray
    validation: Dataset


def _draw_sine_pairs(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    x = rng.uniform(-1.0, 1.0, size=n)
    eps = 0.15 * rng.standard_normal(n)
    y = np.sin(math.pi * x) + np.abs(1.0 + x) * eps
    return x, y


def gen_ols_scenario(seed: int, replicate: int = 0) -> OlsScenario:
    """Sine-wave regression data with an OLS linear model fitted on 100
    training points; 50 validation pairs get homoscedastic normal
    predictions from the fitted model."""
    rng = substream(seed, "ols", replicate)
    train_x, train_y = _draw_sine_pairs(rng, 100)
    coef, noise_var = fit_linear_gaussian(train_x, train_y)
    val_x, val_y = _draw_sine_pairs(rng, 50)
    return OlsScenario(
        train_x=train_x,
        train_y=train_y,
        intercept=float(coef[0]),
        slope=float(coef[1]),
        noise_var=noise_var,
        validation_x=val_x,
        validation=linear_gaussian_predictions(coef, noise_var, val_x, val_y),
    )


def friedman1_response(x: np.ndarray) -> np.ndarray:
    """Noiseless Friedman-1 response for inputs of shape (n, 10)."""
    x = np.atleast_2d(x)
    return (
        10.0 * np.sin(math.pi * x[:, 0] * x[:, 1])
        + 20.0 * (x[:, 2] - 0.5) ** 2
        + 10.0 * x[:, 3]
        + 5.0 * x[:, 4]
    )


def gen_friedman1(n: int, noise_sd: float, seed: int, replicate: int = 0):
    """Friedman-1 inputs uniform on [0, 1]^10 with Gaussian response noise."""
    n = checked_int(n, "n")
    if n < 1:
        raise ParameterError("need n >= 1")
    noise_sd = _real(noise_sd, "noise standard deviation", scalar=True)
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise ParameterError(f"noise standard deviation must be finite and nonnegative, got {noise_sd!r}")
    rng = substream(seed, "friedman1", replicate)
    x = rng.uniform(0.0, 1.0, size=(n, 10))
    y = friedman1_response(x) + noise_sd * rng.standard_normal(n)
    return x, y


def fit_linear_gaussian(x: np.ndarray, y: np.ndarray):
    """OLS fit with homoscedastic variance; a deliberately misspecified
    closed-form stand-in for trained Friedman-1 models."""
    design = np.column_stack([np.ones(len(x)), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ coef
    dof = max(len(x) - design.shape[1], 1)
    return coef, float(residuals @ residuals / dof)


def linear_gaussian_predictions(coef: np.ndarray, noise_var: float, x: np.ndarray, y: np.ndarray) -> Dataset:
    design = np.column_stack([np.ones(len(x)), x])
    means = design @ coef
    return _normal_dataset(means[:, None], np.full((len(means), 1), noise_var), np.asarray(y, dtype=np.float64)[:, None])


_SCENARIOS = {
    "calibrated": gen_calibrated,
    "uncalibrated": gen_uncalibrated,
    "ols": lambda d, n, seed, replicate: gen_ols_scenario(seed, replicate).validation,
}


def make_scenario_dataset(scenario: str, d: int, n: int, seed: int, replicate: int = 0) -> Dataset:
    """Replicate ``replicate`` of ``scenario`` at dimension ``d`` and size ``n``.

    ``ols`` ignores ``d`` and ``n``: it always gives its 50 validation pairs at d = 1.
    """
    if scenario not in _SCENARIOS:
        raise ParameterError(f"unknown scenario {scenario!r}")
    return _SCENARIOS[scenario](d, n, seed, replicate)


# ---------------------------------------------------------------------------
# Ground truth and benchmarks


@dataclass
class GroundTruthEstimate:
    value: float
    std_error: float
    num_datasets: int
    n_per: int


def estimate_ground_truth(
    spec: KernelSpec,
    scenario: str,
    d: int,
    num_datasets: int,
    n_per: int,
    seed: int,
) -> GroundTruthEstimate:
    """Mean of the U-statistic estimator over independent datasets."""
    num_datasets = checked_int(num_datasets, "dataset count")
    if num_datasets < 1:
        raise ParameterError("need at least one dataset")
    values = np.empty(num_datasets)
    for r in range(num_datasets):
        data = make_scenario_dataset(scenario, d, n_per, seed, replicate=r)
        values[r] = skce_ustat(spec, data).value
    std_error = float(np.std(values, ddof=1) / math.sqrt(num_datasets)) if num_datasets > 1 else 0.0
    return GroundTruthEstimate(
        value=float(values.mean()),
        std_error=std_error,
        num_datasets=num_datasets,
        n_per=n_per,
    )


@dataclass
class BenchmarkConfig:
    scenario: str = "calibrated"
    d: int = 1
    n_grid: tuple = (4, 16, 64, 256, 1024)
    replicates: int = 200
    alpha: float = 0.05
    seed: int = 0
    spec: KernelSpec = field(default_factory=default_kernel_spec)
    num_bootstrap: int = 500
    cme_locations: int = 10
    estimators: tuple = ("plug-in", "block-2", "block-sqrt", "u-statistic")
    tests: tuple = ("block-2", "sqrt-block", "bootstrap", "cme")
    ground_truth_datasets: int = 500
    ground_truth_n: int = 500

    def __post_init__(self):
        if self.scenario not in ("calibrated", "uncalibrated"):
            raise ParameterError(f"sweeps run the calibrated or uncalibrated scenario, not {self.scenario!r}")
        self.replicates = checked_int(self.replicates, "replicate count")
        if self.replicates < 1:
            raise ParameterError("need at least one replicate")
        self.n_grid = tuple(checked_int(n, "n of the grid") for n in self.n_grid)
        if any(n < 1 for n in self.n_grid) or len(self.n_grid) == 0:
            raise ParameterError("invalid n grid")
        self.cme_locations = checked_int(self.cme_locations, "CME location count")
        self.alpha = _real(self.alpha, "significance level", scalar=True)
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError("significance level must lie in (0, 1)")
        for kind, names, table in (("estimator", self.estimators, ESTIMATORS), ("test", self.tests, TESTS)):
            for name in names:
                if name not in table:
                    raise ParameterError(f"unknown {kind} {name!r}; choose from {', '.join(table)}")

    @cached_property
    def locations(self) -> TestLocations:
        """The CME test locations, drawn once and shared by every replicate."""
        return default_cme_locations(self.d, self.cme_locations, seed=self.seed)


@dataclass
class BenchmarkResult:
    """Grid of benchmark cells as flat rows with a fixed column order."""

    rows: list

    COLUMNS = ("scenario", "d", "n", "method", "metric", "value", "stderr")

    def to_csv(self, fh) -> None:
        fh.write(",".join(self.COLUMNS) + "\n")
        for row in self.rows:
            fh.write(",".join(str(row[c]) for c in self.COLUMNS) + "\n")


# The methods of a sweep: name -> (smallest n it runs at, as a function of
# the config; its call (config, data, replicate) -> report).
ESTIMATORS = {
    "plug-in": (lambda c: 1, lambda c, data, r: skce_plug_in(c.spec, data)),
    "block-2": (lambda c: 2, lambda c, data, r: skce_block(c.spec, data, 2)),
    "block-sqrt": (lambda c: 2, lambda c, data, r: skce_block(c.spec, data, max(2, math.isqrt(len(data))))),
    "u-statistic": (lambda c: 2, lambda c, data, r: skce_ustat(c.spec, data)),
}
TESTS = {
    "block-2": (lambda c: 4, lambda c, data, r: test_asymptotic_block(c.spec, data, 2)),
    "sqrt-block": (lambda c: 8, lambda c, data, r: test_asymptotic_sqrt_block(c.spec, data)),
    "bootstrap": (
        lambda c: 2,
        lambda c, data, r: test_bootstrap_ustat(c.spec, data, c.num_bootstrap, seed=c.seed * 7919 + r),
    ),
    "cme": (lambda c: c.cme_locations + 1, lambda c, data, r: test_cme(c.spec, data, c.locations)),
}


def _sweep(config: BenchmarkConfig, table: dict, names: tuple, cell) -> BenchmarkResult:
    """Rows of each (n, method) cell, every method of ``names`` run on the same replicates.

    Each replicate's dataset is made and prepared once, before any method is
    timed, and only one is alive at a time. ``cell(reports)`` gives a
    method's (metric, value, stderr) rows from its reports in replicate
    order; ``wall_time_s`` is the mean time of its own calls.
    """
    rows = []
    for n in config.n_grid:
        methods = [name for name in names if n >= table[name][0](config)]
        reports, seconds = {name: [] for name in methods}, dict.fromkeys(methods, 0.0)
        for r in range(config.replicates):
            data = make_scenario_dataset(config.scenario, config.d, n, config.seed, replicate=r)
            prepare(config.spec, data.columns)
            for name in methods:
                start = time.perf_counter()
                reports[name].append(table[name][1](config, data, r))
                seconds[name] += time.perf_counter() - start
        for name in methods:
            base = {"scenario": config.scenario, "d": config.d, "n": n, "method": name}
            cells = cell(reports[name]) + [("wall_time_s", seconds[name] / config.replicates, "")]
            rows += [base | {"metric": metric, "value": value, "stderr": stderr} for metric, value, stderr in cells]
    return BenchmarkResult(rows)


def run_estimator_benchmark(config: BenchmarkConfig) -> BenchmarkResult:
    """Mean absolute error and variance of SKCE estimates versus the
    scenario's ground truth, per (n, estimator) cell."""
    truth = 0.0 if config.scenario == "calibrated" else estimate_ground_truth(
        config.spec, config.scenario, config.d, config.ground_truth_datasets, config.ground_truth_n,
        seed=config.seed + 1_000_003,
    ).value

    def cell(reports):
        estimates = np.array([report.value for report in reports])
        abs_err = np.abs(estimates - truth)
        return [
            ("mean_abs_error", float(abs_err.mean()), float(abs_err.std(ddof=1) / math.sqrt(config.replicates))),
            ("variance", float(estimates.var(ddof=1)), ""),
            ("h_evaluations", reports[-1].diagnostics["h_evaluations"], ""),
        ]

    return _sweep(config, ESTIMATORS, config.estimators, cell)


def run_test_benchmark(config: BenchmarkConfig) -> BenchmarkResult:
    """Rejection rates at the configured significance level per (n, test)."""

    def cell(reports):
        rate = sum(report.p_value < config.alpha for report in reports) / config.replicates
        return [("rejection_rate", rate, math.sqrt(rate * (1.0 - rate) / config.replicates))]

    return _sweep(config, TESTS, config.tests, cell)
