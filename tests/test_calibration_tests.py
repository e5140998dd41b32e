"""Tests for the calibration hypothesis tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from kcalib import (
    MW,
    W2,
    Analytic,
    Categorical,
    ClassLabel,
    Dataset,
    DiagNormal,
    GaussianRBF,
    KernelSpec,
    KroneckerDelta,
    Laplace,
    LaplacianExp,
    Mixture,
    MonteCarlo,
    ParamEuclidean,
    PredictionKernel,
    RealVector,
    TestLocations,
    default_cme_locations,
    default_kernel_spec,
    eval_h,
    h_squared_hat,
    mixture_wasserstein,
    skce_block,
    skce_plug_in,
    skce_ustat,
    test_asymptotic_block,
    test_asymptotic_sqrt_block,
    test_bootstrap_ustat,
    test_cme,
    ucme_squared,
    wasserstein2,
)
from kcalib import kernels
from kcalib.calibration_tests import _chi2_sf, _resample_counts
from kcalib.estimators import h_matrix
from kcalib.exceptions import ConfigurationError, DimensionError, FamilyError, KcalibError, ParameterError
from kcalib.kernels import eval_prediction_kernel, prediction_distance
from kcalib.synthetic import gen_calibrated, gen_uncalibrated


def _calibrated(n, d=1, seed=0, replicate=0):
    return gen_calibrated(d, n, seed, replicate)


# ---------------------------------------------------------------------------
# asymptotic block test


def test_block_test_statistic_definition():
    spec = default_kernel_spec()
    data = _calibrated(40, seed=1)
    report = test_asymptotic_block(spec, data, 4)
    est = skce_block(spec, data, 4)
    num_blocks = 10
    expected_stat = math.sqrt(num_blocks) * est.value / est.sigma_hat_b
    assert math.isclose(report.statistic, expected_stat, rel_tol=1e-12)
    assert math.isclose(report.p_value, stats.norm.sf(expected_stat), rel_tol=1e-10)


def test_block_test_h_squared_variant():
    spec = default_kernel_spec()
    data = _calibrated(30, seed=2)
    report = test_asymptotic_block(spec, data, 3, variant="h-squared")
    est = skce_block(spec, data, 3)
    hsq = h_squared_hat(spec, data)
    scale = math.sqrt(10 * 3 * 2)
    expected_stat = scale * est.value / math.sqrt(2.0 * hsq)
    assert math.isclose(report.statistic, expected_stat, rel_tol=1e-12)


def test_block_test_validation():
    spec = default_kernel_spec()
    data = _calibrated(10, seed=3)
    with pytest.raises(ParameterError):
        test_asymptotic_block(spec, data, 10)  # only a single block
    with pytest.raises(ParameterError):
        test_asymptotic_block(spec, data, 2, variant="bogus")


def test_sqrt_block_uses_sqrt_n():
    spec = default_kernel_spec()
    data = _calibrated(64, seed=4)
    report = test_asymptotic_sqrt_block(spec, data)
    assert report.diagnostics["block_size"] == 8
    assert report.diagnostics["num_blocks"] == 8
    with pytest.raises(ParameterError):
        test_asymptotic_sqrt_block(spec, _calibrated(7, seed=4))


def test_degenerate_variance_handled():
    # identical pairs give identical block estimates and zero variance
    spec = default_kernel_spec()
    p = DiagNormal(0.0, 1.0)
    y = RealVector(0.0)
    data = Dataset([p] * 8, [y] * 8)
    report = test_asymptotic_block(spec, data, 2)
    assert report.diagnostics.get("degenerate_variance")
    assert report.p_value in (0.0, 1.0)


# ---------------------------------------------------------------------------
# bootstrap test


def test_bootstrap_statistic_is_scaled_ustat():
    spec = default_kernel_spec()
    data = _calibrated(20, seed=5)
    report = test_bootstrap_ustat(spec, data, num_bootstrap=200, seed=9)
    n = len(data)
    expected = n * skce_ustat(spec, data).value
    assert math.isclose(report.statistic, expected, rel_tol=1e-10)
    # one triangle of h, diagonal included
    assert report.diagnostics["h_evaluations"] == n * (n + 1) // 2


def test_bootstrap_null_draws_match_manual_resampling():
    # [DERIVED] replay the resampling with the library's count stream and recompute
    # each draw directly from the doubly centered kernel matrix
    spec = default_kernel_spec()
    data = _calibrated(12, seed=6)
    n = len(data)
    report = test_bootstrap_ustat(spec, data, num_bootstrap=150, seed=3)
    h = h_matrix(spec, data)
    hc = h - h.mean(axis=1, keepdims=True) - h.mean(axis=0, keepdims=True) + h.mean()
    counts = _resample_counts(3, n, 150).astype(np.int64)
    for m in range(150):
        # n * U-statistic of the resample under the centered kernel,
        # expanded as an explicit double loop over multiplicities
        total = 0.0
        diag = 0.0
        for a in range(n):
            diag += counts[m, a] * hc[a, a]
            for b in range(n):
                total += counts[m, a] * counts[m, b] * hc[a, b]
        manual = (total - diag) / n
        assert math.isclose(report.diagnostics["null_draws"][m], manual, rel_tol=1e-9, abs_tol=1e-12)


def test_bootstrap_p_value_add_one_rule():
    spec = default_kernel_spec()
    data = _calibrated(16, seed=7)
    report = test_bootstrap_ustat(spec, data, num_bootstrap=199, seed=2)
    draws = report.diagnostics["null_draws"]
    expected = (1 + np.count_nonzero(draws >= report.statistic)) / 200
    assert math.isclose(report.p_value, expected, rel_tol=1e-12)
    assert 0 < report.p_value <= 1


def test_bootstrap_nan_statistic_has_nan_p_value():
    # 2 * gamma overflows the normal expectations at gamma = 1e308: h is NaN, and a NaN
    # statistic must not reject the null with p = 1 / (R + 1)
    spec = KernelSpec(target_kernel=GaussianRBF(1e308))
    data = gen_uncalibrated(1, 20, 1, 0)
    with np.errstate(all="ignore"):
        report = test_bootstrap_ustat(spec, data, num_bootstrap=200)
        block = test_asymptotic_sqrt_block(spec, data)
        h_squared = test_asymptotic_block(spec, data, 2, variant="h-squared")
    assert math.isnan(report.statistic)
    assert math.isnan(report.p_value)
    assert math.isnan(block.p_value)
    # a NaN estimate of E h^2 is no degenerate variance
    assert math.isnan(h_squared.statistic) and math.isnan(h_squared.p_value)
    assert "degenerate_variance" not in h_squared.diagnostics


def test_bootstrap_is_deterministic_in_seed():
    spec = default_kernel_spec()
    data = _calibrated(16, seed=8)
    a = test_bootstrap_ustat(spec, data, num_bootstrap=120, seed=5)
    b = test_bootstrap_ustat(spec, data, num_bootstrap=120, seed=5)
    c = test_bootstrap_ustat(spec, data, num_bootstrap=120, seed=6)
    assert a.p_value == b.p_value
    assert a.p_value != c.p_value or not np.array_equal(
        a.diagnostics["null_draws"], c.diagnostics["null_draws"]
    )


def _dense_bootstrap(spec, data, num_bootstrap, seed):
    """Statistic, null draws and p-value of the bootstrap from the full h matrix
    and the library's counts of all resamples."""
    n, h = len(data), h_matrix(spec, data)
    counts = _resample_counts(seed, n, num_bootstrap).astype(np.int64)
    hc = h - h.mean(axis=1, keepdims=True) - h.mean(axis=0, keepdims=True) + h.mean()
    draws = (np.sum((counts @ hc) * counts, axis=1) - counts @ np.diag(hc)) / n
    statistic = (h.sum() - np.trace(h)) / (n - 1)
    return statistic, draws, (1 + np.count_nonzero(draws >= statistic)) / (num_bootstrap + 1)


@pytest.mark.parametrize("tile", [4, 5, 7])
def test_bootstrap_ragged_tiles_match_dense_reference(tile, monkeypatch):
    # n = 23 is not a multiple of the tile side, so the last row and column of tiles are partial
    spec = default_kernel_spec()
    data = gen_uncalibrated(2, 23, seed=12, replicate=tile)
    monkeypatch.setattr(kernels, "TILE_BYTES", 8 * kernels.route(spec, data.columns)[1] * tile * tile)
    assert kernels.tile_size(kernels.prepare(spec, data.columns)) == tile
    report = test_bootstrap_ustat(spec, data, num_bootstrap=200, seed=tile)
    statistic, draws, p_value = _dense_bootstrap(spec, data, 200, seed=tile)
    assert report.statistic == pytest.approx(statistic, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(report.diagnostics["null_draws"], draws, rtol=1e-12, atol=1e-12)
    assert report.p_value == p_value


@pytest.mark.parametrize("rows", [1, 7, 150])
def test_bootstrap_draws_do_not_depend_on_tile_bytes(rows, monkeypatch):
    # TILE_BYTES sets the tile side, and with it the count slices of each tile, not the count stream
    n, num_bootstrap = 16, 150
    monkeypatch.setattr(kernels, "TILE_BYTES", 8 * n * rows + 8 * n - 1)
    spec, data = default_kernel_spec(), _calibrated(n, seed=13)
    report = test_bootstrap_ustat(spec, data, num_bootstrap=num_bootstrap, seed=rows)
    _, draws, p_value = _dense_bootstrap(spec, data, num_bootstrap, seed=rows)
    np.testing.assert_allclose(report.diagnostics["null_draws"], draws, rtol=1e-12, atol=1e-12)
    assert report.p_value == p_value


def test_bootstrap_null_draws_match_an_extended_precision_oracle():
    # The doubly centered form c^T h_c c - c . diag(h_c), formed densely in long double (in exact
    # fractions, at a smaller n, where long double has no more digits than double) from the h that
    # the tile pass sums: the upper triangle of h_matrix, mirrored.
    exact = np.finfo(np.longdouble).nmant < 63
    n, num_bootstrap = (60, 100) if exact else (600, 500)
    spec, data = default_kernel_spec(), gen_uncalibrated(1, n, seed=15)
    draws = test_bootstrap_ustat(spec, data, num_bootstrap=num_bootstrap, seed=n).diagnostics["null_draws"]
    h, counts = h_matrix(spec, data), _resample_counts(n, n, num_bootstrap)
    oracle_type = np.vectorize(Fraction, otypes=[object]) if exact else lambda x: x.astype(np.longdouble)
    h, counts, draws = oracle_type(np.triu(h) + np.triu(h, 1).T), oracle_type(counts), oracle_type(draws)
    hc = h - h.sum(axis=1, keepdims=True) / n - h.sum(axis=0, keepdims=True) / n + h.sum() / n**2
    oracle = (np.sum((counts @ hc) * counts, axis=1) - counts @ np.diagonal(hc)) / n
    error = np.max(np.abs(draws - oracle)) / np.max(np.abs(oracle))
    assert error <= 1e-14, float(error)


def _float64_count_bootstrap(spec, data, num_bootstrap, seed):
    """Statistic, null draws and p-value of the bootstrap with its counts held as float64: the same
    draws and shifted tile pass, each tile reading its count columns as slices."""
    n = len(data)
    shift, counts = (n - 1) / n, _resample_counts(seed, n, num_bootstrap).astype(float)
    row_sums, diag, quad = np.zeros(n), np.zeros(n), np.zeros(num_bootstrap)
    for _, rows, cols, h, _ in kernels.h_tiles(spec, data.columns, n, pairs=np.less_equal):
        h, weight = h[0], 2.0
        if rows == cols:
            h, weight = np.triu(h) + np.triu(h, 1).T, 1.0
            diag[rows] = np.diagonal(h)
            quad -= counts[:, rows] @ diag[rows]
        else:
            row_sums[cols] += h.sum(axis=0)
        row_sums[rows] += h.sum(axis=1)
        quad += weight * np.sum(((counts[:, rows] - shift) @ h) * (counts[:, cols] - shift), axis=1)
    total = row_sums.sum()
    draws = (quad + total * shift / n) / n
    statistic = (total - diag.sum()) / (n - 1)
    return statistic, draws, (1.0 + np.count_nonzero(draws >= statistic)) / (num_bootstrap + 1.0)


@pytest.mark.parametrize(
    "n, num_bootstrap",
    [(2, 40_000), (7, 20_000), (64, 2_000), (1000, 200), (70_000, 3)],
)
def test_resample_counts_are_tallies_of_uniform_indices(n, num_bootstrap):
    # 2**16 // n rows per draw call: 200 is not a multiple of 65 at n = 1000, and n > 2**16 draws one
    # row per call. Each count is Binomial(n, 1 / n); the pooled histogram's tail bins with an
    # expected count below 5 are merged into one.
    counts = _resample_counts(11, n, num_bootstrap)
    assert counts.dtype == np.min_scalar_type(n) and counts.shape == (num_bootstrap, n)
    assert np.array_equal(counts.sum(axis=1, dtype=np.int64), np.full(num_bootstrap, n))
    assert np.array_equal(_resample_counts(11, n, num_bootstrap), counts)
    observed = np.bincount(counts.ravel(), minlength=n + 1).astype(float)
    expected = counts.size * stats.binom.pmf(np.arange(n + 1), n, 1.0 / n)
    last = max(1, int(np.nonzero(expected >= 5)[0][-1]))
    observed = np.append(observed[:last], observed[last:].sum())
    expected = np.append(expected[:last], expected[last:].sum())
    assert stats.chisquare(observed, expected).pvalue > 1e-3, (observed, expected)


def test_bootstrap_small_integer_counts_match_float64_counts_bit_for_bit(monkeypatch):
    # The counts are held as uint8 up to n = 255 and uint16 from 256. Both sides make the same BLAS
    # calls on the same float64 values, so they agree at any BLAS thread count.
    empty, dtypes = np.empty, {}

    def spy(shape, *args, **kwargs):
        array = empty(shape, *args, **kwargs)
        dtypes.setdefault(array.shape, array.dtype)  # the first of a shape: the counts, not the draws
        return array

    monkeypatch.setattr(np, "empty", spy)
    spec = default_kernel_spec()
    # at n = 600 resamples are drawn 109 at a time
    for n, dtype in [(7, np.uint8), (255, np.uint8), (256, np.uint16), (600, np.uint16), (1024, np.uint16)]:
        data = gen_uncalibrated(1, n, seed=14, replicate=n)
        report = test_bootstrap_ustat(spec, data, num_bootstrap=500, seed=n)
        statistic, draws, p_value = _float64_count_bootstrap(spec, data, 500, seed=n)
        assert dtypes[(500, n)] == dtype
        assert np.array_equal(report.diagnostics["null_draws"], draws), n
        assert report.statistic == statistic and report.p_value == p_value, n


def test_bootstrap_validation():
    spec = default_kernel_spec()
    data = _calibrated(8, seed=9)
    with pytest.raises(ParameterError):
        test_bootstrap_ustat(spec, data, num_bootstrap=50)


# ---------------------------------------------------------------------------
# CME test


def test_cme_statistic_matches_manual_hotelling():
    spec = default_kernel_spec()
    data = _calibrated(64, d=2, seed=10)
    locs = default_cme_locations(2, 4, seed=1)
    report = test_cme(spec, data, locs)
    from kcalib.estimators import cme_feature_matrix

    z = cme_feature_matrix(spec, data, locs)
    zbar = z.mean(axis=0)
    cov = np.cov(z, rowvar=False, ddof=1)
    expected = 64 * zbar @ np.linalg.solve(cov, zbar)
    assert math.isclose(report.statistic, expected, rel_tol=1e-10)
    assert math.isclose(report.p_value, stats.chi2.sf(expected, df=4), rel_tol=1e-10)


def test_cme_requires_more_data_than_locations():
    spec = default_kernel_spec()
    data = _calibrated(8, seed=11)
    locs = default_cme_locations(1, 10, seed=0)
    with pytest.raises(ParameterError):
        test_cme(spec, data, locs)


def test_cme_refuses_locations_of_another_target_type():
    # 2-class categoricals embed in as many coordinates as d = 1 normals, so ParamEuclidean
    # would compare them
    spec = KernelSpec(prediction_kernel=PredictionKernel(ParamEuclidean()))
    data = gen_uncalibrated(1, 50, seed=0)
    locs = TestLocations(
        [Categorical([0.2 + 0.3 * j, 0.8 - 0.3 * j]) for j in range(3)], [ClassLabel(j % 2) for j in range(3)]
    )
    for call in (test_cme, ucme_squared):
        with pytest.raises(FamilyError, match="test locations take class-label targets, the data real-vector"):
            call(spec, data, locs)


def _target(p):
    return ClassLabel(0) if isinstance(p, Categorical) else RealVector(np.zeros(p.dim))


def _two_normals(shift):
    return Mixture([0.4, 0.6], [DiagNormal(shift, 1.0), DiagNormal(shift + 1.0, 0.5)])


_NORMALS = [DiagNormal(0.1 * i, 1.0 + 0.1 * i) for i in range(6)]
_MIXTURES = [_two_normals(0.1 * i) for i in range(6)]

# metric, data predictions, location predictions, the error of every pair of one of each
METRIC_RULES = {
    "w2-on-mixtures": (W2(), _MIXTURES, [_two_normals(1.0), _two_normals(2.0)], FamilyError),
    "w2-normal-laplace": (W2(), _NORMALS, [Laplace(0.0, 1.0), Laplace(1.0, 2.0)], FamilyError),
    "mw-normal-laplace": (MW(1.5), _MIXTURES, [Laplace(0.0, 1.0), Mixture([1.0], [Laplace(1.0, 2.0)])], FamilyError),
    "w2-across-dimensions": (W2(), _NORMALS, [DiagNormal([0.0, 1.0], [1.0, 1.0])] * 2, DimensionError),
    "mw-across-dimensions": (MW(), _MIXTURES, [DiagNormal([0.0, 1.0], [1.0, 1.0])] * 2, DimensionError),
    "param-euclidean-on-mixtures": (ParamEuclidean(), _MIXTURES, _NORMALS[:2], ConfigurationError),
    "param-euclidean-across-embedding-sizes": (
        ParamEuclidean(), [Categorical([0.2, 0.3, 0.5])] * 6, [Categorical([0.25] * 4)] * 2, DimensionError,
    ),
    "param-euclidean-normals-across-dimensions": (
        ParamEuclidean(), _NORMALS, [DiagNormal([0.0, 1.0], [1.0, 1.0])] * 2, DimensionError,
    ),
}


@pytest.mark.parametrize("case", list(METRIC_RULES))
def test_pair_functions_and_cme_locations_share_one_metric_rule_set(case):
    metric, preds, sites, error = METRIC_RULES[case]
    spec = KernelSpec(prediction_kernel=PredictionKernel(metric))
    p, q = preds[0], sites[0]
    calls = [
        lambda: prediction_distance(metric, p, q),
        lambda: eval_prediction_kernel(spec.prediction_kernel, p, q),
        lambda: eval_h(spec, p, _target(p), q, _target(q)),
        lambda: test_cme(
            spec, Dataset(preds, [_target(r) for r in preds]), TestLocations(sites, [_target(r) for r in sites])
        ),
    ]
    if isinstance(metric, W2):
        calls.append(lambda: wasserstein2(p, q))
    if isinstance(metric, MW):
        calls.append(lambda: mixture_wasserstein(p, q, metric.s))
    for call in calls:
        with pytest.raises(KcalibError) as exc:
            call()
        assert type(exc.value) is error


def test_cme_ridge_on_singular_covariance():
    # duplicated locations make the feature covariance exactly singular
    spec = default_kernel_spec()
    data = _calibrated(32, seed=12)
    locs = default_cme_locations(1, 2, seed=3)
    locs.predictions[1] = locs.predictions[0]
    locs.targets[1] = locs.targets[0]
    report = test_cme(spec, data, locs)
    assert report.diagnostics.get("ridge_regularized")
    assert math.isfinite(report.statistic)


def test_chi2_tail_matches_scipy_chdtrc():
    from scipy.special import chdtrc

    x = np.concatenate([[0.0, 1e-300, 1e-12], np.geomspace(1e-8, 2000.0, 400), np.linspace(0.0, 2000.0, 2001)])
    for j in range(1, 65):
        want = chdtrc(j, x)
        got = np.array([_chi2_sf(j, v) for v in x.tolist()])
        keep = want > 1e-300
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-12, atol=0.0, err_msg=f"J={j}")
    assert _chi2_sf(3, -1.0) == _chi2_sf(3, 0.0) == 1.0
    assert math.isnan(_chi2_sf(3, math.nan))
    assert _chi2_sf(4, math.inf) == 0.0 and _chi2_sf(79, 1e6) == 0.0


def test_default_cme_locations_shape_and_determinism():
    a = default_cme_locations(3, 5, seed=4)
    b = default_cme_locations(3, 5, seed=4)
    assert len(a) == 5
    assert a.predictions[0].dim == 3
    assert np.array_equal(a.predictions[2].mean, b.predictions[2].mean)
    assert a.targets[1] == b.targets[1]


# ---------------------------------------------------------------------------
# behaviour on calibrated vs uncalibrated data


def test_p_values_spread_under_null():
    spec = default_kernel_spec()
    ps = [
        test_asymptotic_sqrt_block(spec, _calibrated(128, seed=13, replicate=r)).p_value
        for r in range(20)
    ]
    # roughly uniform: not all tiny, not all large
    assert min(ps) < 0.6
    assert max(ps) > 0.3
    assert sum(p < 0.05 for p in ps) <= 4


def test_all_tests_reject_obvious_miscalibration():
    spec = default_kernel_spec()
    data = gen_uncalibrated(1, 512, seed=14)
    assert test_asymptotic_sqrt_block(spec, data).p_value < 0.01
    assert test_asymptotic_block(spec, data, 2).p_value < 0.05
    assert test_bootstrap_ustat(spec, data, num_bootstrap=200, seed=0).p_value < 0.01
    locs = default_cme_locations(1, 10, seed=0)
    assert test_cme(spec, data, locs).p_value < 0.01


def test_tiled_reports_name_their_path_and_tile_and_count_h():
    spec, n = default_kernel_spec(), 23
    data, locs = gen_uncalibrated(2, n, seed=3), default_cme_locations(2, 3)
    tile = kernels.tile_size(kernels.prepare(spec, data.columns))
    pairs = n * (n - 1) // 2
    reports = [  # B = 5 and the sqrt-block B = 4 each drop 3 points
        (skce_plug_in(spec, data), n * n),
        (skce_block(spec, data, 5), 4 * 10),
        (skce_ustat(spec, data), pairs),
        (test_bootstrap_ustat(spec, data, 100), n * (n + 1) // 2),
        (test_asymptotic_block(spec, data, 5), 4 * 10),
        (test_asymptotic_block(spec, data, 5, variant="h-squared"), 4 * 10 + pairs),
        (test_asymptotic_sqrt_block(spec, data), 5 * 6),
        (test_cme(spec, data, locs), n * 3),
        (ucme_squared(spec, data, locs), n * 3),
    ]
    for report, evaluations in reports:
        diagnostics = report.diagnostics
        assert (diagnostics["path"], diagnostics["tile"]) == ("normal GEMM", tile)
        assert diagnostics["h_evaluations"] == evaluations
    assert [r.diagnostics["dropped_points"] for r, _ in reports[4:7]] == [3, 3, 3]


def _spec(metric, tk, expectation=Analytic()):
    return KernelSpec(PredictionKernel(metric=metric), tk, expectation)


@pytest.mark.parametrize(
    "spec, predictions, target, path",
    [
        (default_kernel_spec(), [DiagNormal(0.0, 1.0)] * 4, RealVector(0.5), "normal GEMM"),
        (default_kernel_spec(), [DiagNormal([0.0, 1.0], [1.0, 2.0])] * 4, RealVector([0.5, 0.0]), "normal GEMM"),
        (_spec(ParamEuclidean(), LaplacianExp()), [Laplace(0.0, 1.0)] * 4, RealVector(0.5), "Laplace direct"),
        (_spec(ParamEuclidean(), KroneckerDelta()), [Categorical([0.3, 0.7])] * 4, ClassLabel(1), "discrete GEMM"),
        (_spec(MW(), GaussianRBF()), [Mixture([0.5, 0.5], [DiagNormal(0.0, 1.0)] * 2)] * 4, RealVector(0.5),
         "MW transport"),
        (_spec(MW(), GaussianRBF()), [DiagNormal(0.0, 1.0)] * 4, RealVector(0.5), "MW transport"),
        (KernelSpec(expectation=MonteCarlo(20)), [DiagNormal(0.0, 1.0)] * 4, RealVector(0.5), "Monte-Carlo"),
    ],
)
def test_reports_name_the_route_of_each_family(spec, predictions, target, path):
    data = Dataset(predictions, [target] * len(predictions))
    report = skce_ustat(spec, data)
    tile = kernels.tile_size(kernels.prepare(spec, data.columns))
    assert (report.diagnostics["path"], report.diagnostics["tile"]) == (path, tile)
