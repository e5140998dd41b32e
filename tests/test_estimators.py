"""Tests for SKCE and UCME estimators against brute-force oracles."""

import math

import numpy as np
import pytest

from kcalib import (
    Categorical,
    ClassLabel,
    Count,
    Dataset,
    DiagNormal,
    Laplace,
    Mixture,
    RealVector,
    TestLocations,
    TruncatedCountable,
    default_kernel_spec,
    eval_h,
    h_squared_hat,
    skce_block,
    skce_plug_in,
    skce_ustat,
    ucme_squared,
)
from kcalib import kernels
from kcalib.calibration_tests import default_cme_locations, test_asymptotic_block, test_bootstrap_ustat
from kcalib.classical import binned_confidence_ece, pinball_loss, quantile_curve
from kcalib.distributions import temperature_scale
from kcalib.estimators import cme_feature_matrix
from kcalib.exceptions import DimensionError, FamilyError, KcalibError, ParameterError
from kcalib.kernels import (
    KernelSpec,
    pairwise_h,
    KroneckerDelta,
    LaplacianExp,
    ParamEuclidean,
    PredictionKernel,
    eval_prediction_kernel,
    expect_target_kernel,
    eval_target_kernel,
)
from kcalib.rng import substream
from kcalib.synthetic import (
    BenchmarkConfig,
    estimate_ground_truth,
    gen_friedman1,
    make_scenario_dataset,
    run_test_benchmark,
)


def _normal_data(n, d=1, seed=0):
    rng = substream(seed, "est-data")
    preds, tgts = [], []
    for _ in range(n):
        mu = rng.normal(size=d)
        var = rng.uniform(0.1, 2.0, size=d)
        preds.append(DiagNormal(mu, var))
        tgts.append(RealVector(rng.normal(size=d)))
    return Dataset(preds, tgts)


def _brute_plug_in(spec, data):
    n = len(data)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += eval_h(
                spec, data.predictions[i], data.targets[i], data.predictions[j], data.targets[j]
            )
    return total / n**2


def _brute_block(spec, data, block_size):
    n = len(data)
    num_blocks = n // block_size
    etas = []
    for b in range(num_blocks):
        lo = b * block_size
        vals = []
        for i in range(lo, lo + block_size):
            for j in range(i + 1, lo + block_size):
                vals.append(
                    eval_h(
                        spec,
                        data.predictions[i],
                        data.targets[i],
                        data.predictions[j],
                        data.targets[j],
                    )
                )
        etas.append(float(np.mean(vals)))
    return float(np.mean(etas)), etas


# ---------------------------------------------------------------------------
# dataset container


def test_dataset_validation():
    with pytest.raises(ParameterError):
        Dataset([], [])
    with pytest.raises(ParameterError):
        Dataset([DiagNormal(0, 1)], [])
    with pytest.raises(FamilyError):
        Dataset([DiagNormal(0, 1), Laplace(0, 1)], [RealVector(0.0), RealVector(0.0)])
    with pytest.raises(FamilyError):
        Dataset([Categorical([0.5, 0.5])], [RealVector(0.0)])


def test_dataset_rejects_mixtures_no_metric_can_evaluate():
    normals = Mixture([0.5, 0.5], [DiagNormal(0, 1), DiagNormal(1, 2)])
    laplaces = Mixture([0.5, 0.5], [Laplace(0, 1), Laplace(1, 2)])
    with pytest.raises(FamilyError, match="mixed prediction families"):
        Dataset([normals, laplaces], [RealVector(0.0), RealVector(0.0)])
    categoricals = Mixture([0.5, 0.5], [Categorical([0.5, 0.5]), Categorical([0.9, 0.1])])
    with pytest.raises(FamilyError):
        Dataset([categoricals], [RealVector([0.0, 1.0])])


def test_dataset_rejects_mixtures_of_discrete_laws():
    # no prediction metric compares them, so they fail here rather than at the first reduction
    categoricals = Mixture([0.5, 0.5], [Categorical([0.5, 0.5]), Categorical([0.9, 0.1])])
    counts = Mixture([0.5, 0.5], [TruncatedCountable([0.5, 0.5]), TruncatedCountable([0.9, 0.1])])
    with pytest.raises(FamilyError, match="mixtures of categorical"):
        Dataset([categoricals, categoricals], [ClassLabel(0), ClassLabel(1)])
    with pytest.raises(FamilyError, match="mixtures of truncated countable"):
        Dataset([counts], [Count(1)])
    columns = Dataset([Categorical([0.5, 0.5])], [ClassLabel(0)]).columns
    as_mixtures = kernels.Columns.mixtures("categorical", columns.canonical(), [np.ones(1)], columns.y)
    with pytest.raises(FamilyError, match="mixtures of categorical"):
        Dataset(columns=as_mixtures)


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: Dataset([1.0], [RealVector([0.0])]), FamilyError),
        (lambda: _normal_data(3).subset([5]), ParameterError),
        (lambda: _normal_data(3).subset(["x"]), ParameterError),
        (lambda: DiagNormal("a", 1), ParameterError),
        (lambda: Laplace("a", 1), ParameterError),
        (lambda: Categorical(["a", "b"]), ParameterError),
        (lambda: RealVector(["a"]), ParameterError),
        (lambda: pairwise_h(default_kernel_spec(), [], [], [], []), ParameterError),
        (lambda: pairwise_h(default_kernel_spec(), [DiagNormal(0, 1)], [RealVector(0.0)], [0], [1]), ParameterError),
        (lambda: DiagNormal([], []), DimensionError),
        (lambda: RealVector([]), DimensionError),
        (lambda: Mixture([1.0], [3.0]), FamilyError),
        (lambda: Mixture([0.5, 0.5], [DiagNormal(0, 1), "x"]), FamilyError),
        (lambda: skce_block(default_kernel_spec(), _normal_data(6), 2.5), ParameterError),
        (lambda: test_asymptotic_block(default_kernel_spec(), _normal_data(6), 2.5), ParameterError),
        (lambda: test_bootstrap_ustat(default_kernel_spec(), _normal_data(6), 150.5), ParameterError),
        (lambda: test_bootstrap_ustat(default_kernel_spec(), _normal_data(6), 150, seed=1.5), ParameterError),
        (lambda: KernelSpec(expectation=kernels.MonteCarlo(2.5)), ParameterError),
        (lambda: make_scenario_dataset("uncalibrated", 1, 2.5, seed=0), ParameterError),
        (lambda: make_scenario_dataset("uncalibrated", 1.5, 4, seed=0), ParameterError),
        (lambda: default_cme_locations(1, 2.5), ParameterError),
        (lambda: run_test_benchmark(BenchmarkConfig(replicates=2.5)), ParameterError),
        (lambda: run_test_benchmark(BenchmarkConfig(n_grid=(16.5,))), ParameterError),
        (lambda: run_test_benchmark(BenchmarkConfig(cme_locations=2.5)), ParameterError),
        (lambda: estimate_ground_truth(default_kernel_spec(), "uncalibrated", 1, 2.5, 8, seed=0), ParameterError),
        (lambda: binned_confidence_ece(Dataset([Categorical([0.3, 0.7])], [ClassLabel(1)]), 2.5), ParameterError),
        (lambda: quantile_curve(_normal_data(4), []), ParameterError),
        (lambda: quantile_curve(_normal_data(4), [float("nan")]), ParameterError),
        (lambda: gen_friedman1(10, float("nan"), 0), ParameterError),
        (lambda: temperature_scale(DiagNormal(0, 1), "x"), ParameterError),
        (lambda: pinball_loss(_normal_data(4), "a"), ParameterError),
        (lambda: BenchmarkConfig(alpha="x"), ParameterError),
    ],
    ids=[
        "dataset-of-a-number", "subset-out-of-range", "subset-of-strings", "normal-of-a-string",
        "laplace-of-a-string", "categorical-of-strings", "target-of-a-string", "pairwise-h-of-nothing",
        "pairwise-h-out-of-range", "zero-dimensional-normal", "zero-dimensional-target",
        "mixture-of-a-number", "mixture-with-a-string", "block-of-a-fraction",
        "block-test-of-a-fraction", "bootstrap-of-a-fraction", "bootstrap-seed-of-a-fraction",
        "monte-carlo-samples-of-a-fraction", "scenario-size-of-a-fraction", "scenario-dimension-of-a-fraction",
        "cme-location-count-of-a-fraction", "sweep-replicates-of-a-fraction", "sweep-n-of-a-fraction",
        "sweep-cme-locations-of-a-fraction", "ground-truth-datasets-of-a-fraction",
        "binned-ece-bins-of-a-fraction", "quantile-curve-of-no-levels", "quantile-curve-of-nan",
        "friedman1-noise-of-nan", "temperature-of-a-string", "pinball-level-of-a-string", "sweep-alpha-of-a-string",
    ],
)
def test_library_calls_raise_only_kcalib_errors(call, error):
    with pytest.raises(KcalibError) as exc:
        call()
    assert type(exc.value) is error


def test_dataset_rejects_mixed_dimensions():
    with pytest.raises(DimensionError):
        Dataset([DiagNormal(0, 1), DiagNormal([0, 0], [1, 1])], [RealVector(0.0), RealVector([0, 0])])
    with pytest.raises(DimensionError):
        Dataset([Categorical([0.5, 0.5]), Categorical([0.2, 0.3, 0.5])], [ClassLabel(0), ClassLabel(2)])


def test_dataset_subset_and_indexing():
    data = _normal_data(5)
    sub = data.subset([0, 2, 4])
    assert len(sub) == 3
    assert sub[1] == data[2]
    assert data.family == "diag_normal"


# ---------------------------------------------------------------------------
# plug-in estimator


def test_plug_in_matches_brute_force():
    spec = default_kernel_spec()
    for seed in range(5):
        data = _normal_data(9, d=2, seed=seed)
        report = skce_plug_in(spec, data)
        oracle = _brute_plug_in(spec, data)
        assert math.isclose(report.diagnostics["raw_value"], oracle, rel_tol=1e-11, abs_tol=1e-14)


def test_plug_in_is_nonnegative_and_counts_evaluations():
    spec = default_kernel_spec()
    data = _normal_data(13)
    report = skce_plug_in(spec, data)
    assert report.value >= 0.0
    assert report.diagnostics["h_evaluations"] == 13 * 13
    assert report.kind == "plug-in"


def test_plug_in_clamps_but_keeps_raw():
    # a raw plug-in value can never be negative in exact arithmetic, but the
    # clamp guards the floating-point boundary; raw and value agree otherwise
    spec = default_kernel_spec()
    data = _normal_data(8, seed=3)
    report = skce_plug_in(spec, data)
    assert report.value == max(report.diagnostics["raw_value"], 0.0)


# ---------------------------------------------------------------------------
# block estimator


def test_block_matches_brute_force():
    spec = default_kernel_spec()
    data = _normal_data(11, seed=1)
    for block_size in (2, 3, 5):
        report = skce_block(spec, data, block_size)
        oracle, etas = _brute_block(spec, data, block_size)
        assert math.isclose(report.value, oracle, rel_tol=1e-11, abs_tol=1e-15)
        np.testing.assert_allclose(report.block_estimates, etas, rtol=1e-11)


def test_block_drops_trailing_points():
    spec = default_kernel_spec()
    data = _normal_data(11, seed=2)
    report = skce_block(spec, data, 4)
    assert report.diagnostics["num_blocks"] == 2
    assert report.diagnostics["dropped_points"] == 3
    assert report.diagnostics["h_evaluations"] == 2 * 6  # 2 blocks x C(4, 2)


def test_block_sigma_hat_is_sample_std():
    spec = default_kernel_spec()
    data = _normal_data(12, seed=4)
    report = skce_block(spec, data, 3)
    assert math.isclose(
        report.sigma_hat_b, float(np.std(report.block_estimates, ddof=1)), rel_tol=1e-12
    )


def test_block_validation():
    spec = default_kernel_spec()
    data = _normal_data(6)
    with pytest.raises(ParameterError):
        skce_block(spec, data, 1)
    with pytest.raises(ParameterError):
        skce_block(spec, data, 7)  # block larger than the dataset


# ---------------------------------------------------------------------------
# u-statistic


def test_ustat_matches_brute_force():
    spec = default_kernel_spec()
    for seed in range(4):
        data = _normal_data(10, seed=seed)
        report = skce_ustat(spec, data)
        n = len(data)
        vals = [
            eval_h(spec, data.predictions[i], data.targets[i], data.predictions[j], data.targets[j])
            for i in range(n)
            for j in range(i + 1, n)
        ]
        assert math.isclose(report.value, float(np.mean(vals)), rel_tol=1e-11, abs_tol=1e-15)
        assert report.diagnostics["h_evaluations"] == n * (n - 1) // 2


def test_ustat_equals_single_block():
    spec = default_kernel_spec()
    data = _normal_data(9, seed=5)
    assert math.isclose(
        skce_ustat(spec, data).value, skce_block(spec, data, 9).value, rel_tol=1e-13
    )


def test_plug_in_dominates_ustat_identity():
    # [DERIVED] n^2 * plug-in(raw) = 2 * C(n,2) * u-stat + sum of diagonal h
    spec = default_kernel_spec()
    data = _normal_data(8, seed=6)
    n = len(data)
    raw = skce_plug_in(spec, data).diagnostics["raw_value"]
    u = skce_ustat(spec, data).value
    diag = sum(
        eval_h(spec, data.predictions[i], data.targets[i], data.predictions[i], data.targets[i])
        for i in range(n)
    )
    assert math.isclose(raw * n**2, u * n * (n - 1) + diag, rel_tol=1e-10)


# ---------------------------------------------------------------------------
# h-squared


def test_h_squared_hat_matches_brute_force():
    spec = default_kernel_spec()
    data = _normal_data(7, seed=7)
    n = len(data)
    vals = [
        eval_h(spec, data.predictions[i], data.targets[i], data.predictions[j], data.targets[j]) ** 2
        for i in range(n)
        for j in range(i + 1, n)
    ]
    assert math.isclose(h_squared_hat(spec, data), float(np.mean(vals)), rel_tol=1e-11)


# ---------------------------------------------------------------------------
# categorical data path


def test_estimators_on_categorical_data():
    spec = KernelSpec(
        prediction_kernel=PredictionKernel(metric=ParamEuclidean(), lam=1.0, nu=2.0),
        target_kernel=KroneckerDelta(),
    )
    rng = substream(8, "cat-est")
    preds = [Categorical(rng.dirichlet(np.ones(3))) for _ in range(10)]
    tgts = [ClassLabel(int(rng.integers(0, 3))) for _ in range(10)]
    data = Dataset(preds, tgts)
    report = skce_plug_in(spec, data)
    assert math.isclose(
        report.diagnostics["raw_value"], _brute_plug_in(spec, data), rel_tol=1e-11, abs_tol=1e-15
    )
    assert report.value >= 0.0


def test_estimators_on_laplace_data():
    spec = KernelSpec(
        prediction_kernel=PredictionKernel(),
        target_kernel=LaplacianExp(gamma=1.0),
    )
    rng = substream(9, "lap-est")
    preds = [Laplace(rng.normal(), rng.uniform(0.3, 2.0)) for _ in range(9)]
    tgts = [RealVector(rng.normal()) for _ in range(9)]
    data = Dataset(preds, tgts)
    report = skce_ustat(spec, data)
    oracle, _ = _brute_block(spec, data, 9)
    assert math.isclose(report.value, oracle, rel_tol=1e-11, abs_tol=1e-15)


# ---------------------------------------------------------------------------
# UCME


def test_cme_features_match_definition():
    spec = default_kernel_spec()
    data = _normal_data(6, seed=10)
    locs = TestLocations(
        predictions=[DiagNormal(0.0, 1.0), DiagNormal(1.0, 0.5)],
        targets=[RealVector(0.0), RealVector(1.0)],
    )
    feats = cme_feature_matrix(spec, data, locs)
    assert feats.shape == (6, 2)
    for i in range(6):
        for j in range(2):
            kp = eval_prediction_kernel(
                spec.prediction_kernel, data.predictions[i], locs.predictions[j]
            )
            gap = eval_target_kernel(
                spec.target_kernel, locs.targets[j], data.targets[i]
            ) - expect_target_kernel(spec, data.predictions[i], locs.targets[j])
            assert math.isclose(feats[i, j], kp * gap, rel_tol=1e-11, abs_tol=1e-15)


def test_ucme_squared_matches_brute_force():
    spec = default_kernel_spec()
    data = _normal_data(8, seed=11)
    locs = TestLocations(
        predictions=[DiagNormal(0.5, 1.0), DiagNormal(-0.5, 2.0), DiagNormal(0.0, 0.3)],
        targets=[RealVector(0.2), RealVector(-0.4), RealVector(1.0)],
    )
    report = ucme_squared(spec, data, locs)
    feats = cme_feature_matrix(spec, data, locs)
    oracle = float(np.mean(feats.mean(axis=0) ** 2))
    assert math.isclose(report.value, oracle, rel_tol=1e-12)
    assert report.value >= 0.0


def test_locations_validation():
    with pytest.raises(ParameterError):
        TestLocations(predictions=[], targets=[])
    with pytest.raises(FamilyError):
        TestLocations(predictions=[Categorical([0.5, 0.5])], targets=[RealVector(0.0)])
