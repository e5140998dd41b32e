"""Tests for the synthetic scenarios and benchmark harness."""

import math

import numpy as np
import pytest

from kcalib import DiagNormal, RealVector, default_cme_locations, default_kernel_spec, kernels
from kcalib.exceptions import ParameterError
from kcalib.kernels import KernelSpec, MonteCarlo
from kcalib.rng import substream
from kcalib.synthetic import (
    BenchmarkConfig,
    BenchmarkResult,
    estimate_ground_truth,
    fit_linear_gaussian,
    friedman1_response,
    gen_calibrated,
    gen_friedman1,
    gen_ols_scenario,
    gen_uncalibrated,
    linear_gaussian_predictions,
    make_scenario_dataset,
    run_estimator_benchmark,
    run_test_benchmark,
)


# ---------------------------------------------------------------------------
# basic generators


def test_gen_calibrated_shapes_and_determinism():
    a = gen_calibrated(3, 10, seed=1)
    b = gen_calibrated(3, 10, seed=1)
    c = gen_calibrated(3, 10, seed=1, replicate=1)
    assert len(a) == 10
    assert a.predictions[0].dim == 3
    assert np.array_equal(a.predictions[4].mean, b.predictions[4].mean)
    assert a.targets[4] == b.targets[4]
    assert not np.array_equal(a.predictions[4].mean, c.predictions[4].mean)


def test_gen_calibrated_parameters():
    data = gen_calibrated(2, 200, seed=2)
    means = np.array([p.mean for p in data.predictions])
    # predicted mean is constant across coordinates and uniform on (0, 1)
    assert np.all(means[:, 0] == means[:, 1])
    assert 0.0 <= means.min() and means.max() <= 1.0
    assert np.allclose([p.var for p in data.predictions], 0.01)


def test_gen_calibrated_targets_follow_predictions():
    data = gen_calibrated(1, 3000, seed=3)
    gaps = np.array(
        [float(y.values[0] - p.mean[0]) for p, y in zip(data.predictions, data.targets)]
    )
    assert abs(gaps.mean()) < 0.01
    assert abs(gaps.std() - 0.1) < 0.01


def test_gen_uncalibrated_first_coordinate_biased():
    data = gen_uncalibrated(2, 3000, seed=4)
    y = np.array([t.values for t in data.targets])
    means = np.array([p.mean for p in data.predictions])
    # first coordinate centre is pinned at 0.1 regardless of the prediction
    assert abs(y[:, 0].mean() - 0.1) < 0.01
    # remaining coordinates stay calibrated
    assert abs((y[:, 1] - means[:, 1]).mean()) < 0.01


def _per_record_scenario(d, n, seed, replicate, calibrated):
    """The scenario drawn one record at a time, as DiagNormal and RealVector objects."""
    rng = substream(seed, "calibrated" if calibrated else "uncalibrated", replicate)
    var = np.full(d, 0.01)
    predictions = [DiagNormal(np.full(d, c), var) for c in rng.uniform(0.0, 1.0, size=n)]
    if calibrated:
        return predictions, [p.sample(rng) for p in predictions]
    targets = []
    for p in predictions:
        mean = p.mean.copy()
        mean[0] = 0.1
        targets.append(RealVector(mean + np.sqrt(var) * rng.standard_normal(d)))
    return predictions, targets


@pytest.mark.parametrize("d", [1, 10])
@pytest.mark.parametrize("seed", [0, 3, 41])
@pytest.mark.parametrize("calibrated", [True, False], ids=["calibrated", "uncalibrated"])
def test_columnar_generators_match_per_record_draws(calibrated, seed, d):
    predictions, targets = _per_record_scenario(d, 37, seed, 2, calibrated)
    data = (gen_calibrated if calibrated else gen_uncalibrated)(d, 37, seed, replicate=2)
    mean, var = data.columns.params
    assert np.array_equal(mean, np.array([p.mean for p in predictions]).T)
    assert np.array_equal(var, np.array([p.var for p in predictions]).T)
    assert np.array_equal(data.columns.y, np.array([t.values for t in targets]).T)
    assert data.predictions == predictions and data.targets == targets


@pytest.mark.parametrize("d", [1, 10])
def test_default_cme_locations_match_per_location_draws(d):
    rng = substream(5, "cme-locations")
    means = [rng.uniform(0.0, 1.0, size=d) for _ in range(7)]
    targets = [RealVector(0.1 * rng.standard_normal(d)) for _ in range(7)]
    locs = default_cme_locations(d, 7, seed=5)
    assert locs.predictions == [DiagNormal(m, np.full(d, 0.01)) for m in means]
    assert locs.targets == targets


def test_generator_validation():
    with pytest.raises(ParameterError):
        gen_calibrated(0, 5, seed=0)
    with pytest.raises(ParameterError):
        gen_uncalibrated(1, 0, seed=0)


# ---------------------------------------------------------------------------
# OLS scenario


def test_ols_scenario_structure():
    sc = gen_ols_scenario(seed=5)
    assert len(sc.train_x) == 100
    assert len(sc.validation) == 50
    assert sc.noise_var > 0
    # all validation predictions share the fitted homoscedastic variance
    assert all(float(p.var[0]) == sc.noise_var for p in sc.validation.predictions)


def test_ols_fit_matches_lstsq():
    sc = gen_ols_scenario(seed=6)
    design = np.column_stack([np.ones_like(sc.train_x), sc.train_x])
    coef, *_ = np.linalg.lstsq(design, sc.train_y, rcond=None)
    assert math.isclose(sc.intercept, coef[0], rel_tol=1e-10)
    assert math.isclose(sc.slope, coef[1], rel_tol=1e-10)
    resid = sc.train_y - design @ coef
    assert math.isclose(sc.noise_var, float(resid @ resid) / 98, rel_tol=1e-10)


def test_ols_predictions_lie_on_fitted_line():
    sc = gen_ols_scenario(seed=7)
    for x, p in zip(sc.validation_x, sc.validation.predictions):
        assert math.isclose(float(p.mean[0]), sc.intercept + sc.slope * x, rel_tol=1e-10)


# ---------------------------------------------------------------------------
# Friedman-1


def test_friedman1_spot_value():
    # [TRIVIAL] closed-form response at x = (0.5, ..., 0.5):
    # 10 sin(pi/4) + 20 * 0 + 10 * 0.5 + 5 * 0.5 = 10/sqrt(2) + 7.5
    x = np.full((1, 10), 0.5)
    expected = 10.0 / math.sqrt(2.0) + 7.5
    assert math.isclose(float(friedman1_response(x)[0]), expected, rel_tol=1e-12)


def test_friedman1_ignores_noise_features():
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(20, 10))
    x2 = x.copy()
    x2[:, 5:] = rng.uniform(size=(20, 5))
    np.testing.assert_allclose(friedman1_response(x), friedman1_response(x2))


def test_gen_friedman1_noise_level():
    x, y = gen_friedman1(5000, noise_sd=1.0, seed=8)
    resid = y - friedman1_response(x)
    assert abs(resid.std() - 1.0) < 0.05
    assert abs(resid.mean()) < 0.05
    x0, y0 = gen_friedman1(100, noise_sd=0.0, seed=9)
    np.testing.assert_allclose(y0, friedman1_response(x0))


def test_linear_gaussian_fit_and_predictions():
    x, y = gen_friedman1(500, noise_sd=1.0, seed=10)
    coef, noise_var = fit_linear_gaussian(x, y)
    assert coef.shape == (11,)
    assert noise_var > 0
    data = linear_gaussian_predictions(coef, noise_var, x[:5], y[:5])
    assert len(data) == 5
    design = np.column_stack([np.ones(5), x[:5]])
    np.testing.assert_allclose(
        [float(p.mean[0]) for p in data.predictions], design @ coef, rtol=1e-10
    )


# ---------------------------------------------------------------------------
# scenario dispatch and ground truth


def test_make_scenario_dataset_dispatch():
    assert len(make_scenario_dataset("calibrated", 1, 5, seed=0)) == 5
    assert len(make_scenario_dataset("ols", 1, 50, seed=0)) == 50
    # ols ignores d and n: its 50 validation pairs at d = 1
    ols = make_scenario_dataset("ols", 3, 500, seed=4, replicate=2)
    assert ols.columns.y.shape == (1, 50)
    assert np.array_equal(ols.columns.y, gen_ols_scenario(4, replicate=2).validation.columns.y)
    with pytest.raises(ParameterError):
        make_scenario_dataset("nope", 1, 5, seed=0)


def test_ground_truth_calibrated_is_near_zero():
    spec = default_kernel_spec()
    gt = estimate_ground_truth(spec, "calibrated", 1, num_datasets=40, n_per=40, seed=0)
    assert abs(gt.value) < 3 * gt.std_error + 1e-4


def test_ground_truth_uncalibrated_is_positive():
    spec = default_kernel_spec()
    gt = estimate_ground_truth(spec, "uncalibrated", 1, num_datasets=40, n_per=40, seed=0)
    assert gt.value > 5 * gt.std_error


# ---------------------------------------------------------------------------
# benchmark harness


def test_estimator_benchmark_rows():
    config = BenchmarkConfig(
        scenario="calibrated",
        d=1,
        n_grid=(8, 16),
        replicates=5,
        seed=0,
        ground_truth_datasets=20,
        ground_truth_n=50,
    )
    result = run_estimator_benchmark(config)
    for row in result.rows:
        assert set(row) == set(BenchmarkResult.COLUMNS)
    metrics = {row["metric"] for row in result.rows}
    assert {"mean_abs_error", "variance", "h_evaluations", "wall_time_s"} <= metrics
    # every estimator appears at every n
    methods = {(row["method"], row["n"]) for row in result.rows}
    assert ("plug-in", 8) in methods and ("u-statistic", 16) in methods


def test_test_benchmark_rejection_rates():
    config = BenchmarkConfig(
        scenario="uncalibrated",
        d=1,
        n_grid=(64,),
        replicates=10,
        seed=1,
        num_bootstrap=100,
    )
    result = run_test_benchmark(config)
    rates = {
        row["method"]: row["value"]
        for row in result.rows
        if row["metric"] == "rejection_rate"
    }
    assert rates, "no rejection-rate rows produced"
    for method, rate in rates.items():
        assert 0.0 <= rate <= 1.0, method
    # obvious miscalibration at n = 64: the sqrt-block test should fire often
    assert rates["sqrt-block"] >= 0.7


def test_benchmark_csv_output(tmp_path):
    config = BenchmarkConfig(
        scenario="calibrated",
        d=1,
        n_grid=(8,),
        replicates=3,
        seed=2,
        ground_truth_datasets=10,
        ground_truth_n=20,
    )
    result = run_estimator_benchmark(config)
    out = tmp_path / "bench.csv"
    with open(out, "w") as fh:
        result.to_csv(fh)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(BenchmarkResult.COLUMNS)
    assert len(lines) > 1


def test_bootstrap_skips_an_n_below_two():
    config = BenchmarkConfig(n_grid=(1, 16), tests=("bootstrap",), replicates=3, num_bootstrap=100)
    rows = run_test_benchmark(config).rows
    assert [(row["n"], row["metric"]) for row in rows] == [(16, "rejection_rate"), (16, "wall_time_s")]


@pytest.mark.parametrize("names", [{"tests": ("nope",)}, {"estimators": ("plug-in", "nope")}])
def test_config_rejects_unknown_methods(names):
    with pytest.raises(ParameterError, match="unknown (test|estimator) 'nope'"):
        BenchmarkConfig(**names)


@pytest.mark.parametrize("scenario", ["ols", "nope"])
def test_config_rejects_scenarios_other_than_calibrated_and_uncalibrated(scenario):
    # ols ignores n, so a sweep over it would label one 50-pair dataset with every n of the grid
    with pytest.raises(ParameterError, match="calibrated or uncalibrated"):
        BenchmarkConfig(scenario=scenario)


@pytest.mark.parametrize("run", [run_estimator_benchmark, run_test_benchmark])
def test_sweeps_make_and_prepare_each_replicate_once(run, monkeypatch):
    calls, original = [], kernels._draws
    monkeypatch.setattr(kernels, "_draws", lambda *args: calls.append(args) or original(*args))
    config = BenchmarkConfig(
        n_grid=(12, 16), replicates=3, num_bootstrap=100, spec=KernelSpec(expectation=MonteCarlo(50))
    )
    rows = run(config).rows
    # every method of the config runs at both sizes (cme needs n > 10), on shared draws
    methods = config.estimators if run is run_estimator_benchmark else config.tests
    assert {(row["n"], row["method"]) for row in rows} == {(n, m) for n in (12, 16) for m in methods}
    assert len(calls) == len(config.n_grid) * config.replicates
