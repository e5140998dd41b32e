"""The tiled h-engine against brute-force double loops over ``eval_h``.

The tile side is shrunk through ``kernels.TILE_BYTES`` so that small
datasets span several tiles, and n runs over {2, T - 1, T, T + 1, 2T + 3}
for tile side T, which covers one tile, a full tile and a ragged last tile.
"""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from kcalib import (
    Analytic,
    Categorical,
    ClassLabel,
    Count,
    Dataset,
    DiagNormal,
    GaussianRBF,
    KernelSpec,
    KroneckerDelta,
    Laplace,
    LaplacianExp,
    Mixture,
    MonteCarlo,
    MW,
    ParamEuclidean,
    PredictionKernel,
    RealVector,
    TestLocations,
    TruncatedCountable,
    W2,
    default_kernel_spec,
    double_expect_target_kernel,
    eval_h,
    h_squared_hat,
    skce_block,
    skce_plug_in,
    skce_ustat,
    test_bootstrap_ustat,
)
from kcalib import distributions, kernels
from kcalib.calibration_tests import _resample_counts, default_cme_locations, test_asymptotic_block, test_cme
from kcalib.estimators import cme_feature_matrix, h_matrix
from kcalib.exceptions import ConfigurationError
from kcalib.kernels import eval_prediction_kernel, eval_target_kernel, expect_target_kernel
from kcalib.rng import substream
from kcalib.synthetic import make_scenario_dataset

TILE = 5
SIZES = (2, TILE - 1, TILE, TILE + 1, 2 * TILE + 3)
NUM_BOOTSTRAP = 120


def _spec(metric, tk, lam=0.8, nu=1.0):
    return KernelSpec(PredictionKernel(metric=metric, lam=lam, nu=nu), tk, Analytic())


def _normals(d, isotropic=False, offset=0.0):
    """Normals in d dimensions whose variances differ across coordinates, or (``isotropic``)
    only across predictions; means and targets are shifted by ``offset``."""

    def make(rng, n):
        def normal():
            mean = offset + rng.normal(size=d)
            var = np.full(d, rng.uniform(0.1, 1.5)) if isotropic else rng.uniform(0.1, 1.5, size=d)
            return DiagNormal(mean, var)

        preds = [normal() for _ in range(n)]
        tgts = [RealVector(offset + rng.normal(size=d)) for _ in range(n)]
        locs = [normal() for _ in range(3)]
        return preds, tgts, locs, [RealVector(offset + rng.normal(size=d)) for _ in range(3)]

    return make


def _laplaces(rng, n):
    preds = [Laplace(rng.normal(), rng.uniform(0.3, 2.0)) for _ in range(n - 1)]
    preds.insert(n // 2, Laplace(0.2, 1.0))  # scale * gamma = 1: the kernel pole
    tgts = [RealVector(rng.normal()) for _ in range(n)]
    locs = [Laplace(rng.normal(), rng.uniform(0.3, 2.0)) for _ in range(3)]
    return preds, tgts, locs, [RealVector(rng.normal()) for _ in range(3)]


def _categoricals(rng, n):
    preds = [Categorical(rng.dirichlet(np.ones(3))) for _ in range(n)]
    tgts = [ClassLabel(int(rng.integers(0, 3))) for _ in range(n)]
    locs = [Categorical(rng.dirichlet(np.ones(3))) for _ in range(3)]
    return preds, tgts, locs, [ClassLabel(int(rng.integers(0, 3))) for _ in range(3)]


def _counts(rng, n, support=4):
    # tail mass > 0; counts at the truncation point (support - 1) and beyond it
    def law():
        tail = rng.uniform(0.05, 0.3)
        return TruncatedCountable((1.0 - tail) * rng.dirichlet(np.ones(support)), tail)

    values = rng.integers(0, support + 3, size=n)
    values[0], values[-1] = support - 1, support + 1
    locs = [law() for _ in range(3)]
    return [law() for _ in range(n)], [Count(int(v)) for v in values], locs, [Count(v) for v in (0, support - 1, support + 2)]


def _mixtures(rng, n):
    def mixture():
        comps = [DiagNormal(rng.normal(), rng.uniform(0.2, 1.0)) for _ in range(2)]
        return Mixture(rng.dirichlet(np.ones(2)), comps)

    preds = [mixture() for _ in range(n)]
    tgts = [RealVector(rng.normal()) for _ in range(n)]
    return preds, tgts, [mixture() for _ in range(2)], [RealVector(rng.normal()) for _ in range(2)]


def _ragged_mixtures(rng, n):
    # 1 to 3 components: zero-weight padding, and pairs with a single-component side
    def mixture():
        k = int(rng.integers(1, 4))
        comps = [DiagNormal(rng.normal(), rng.uniform(0.2, 1.0)) for _ in range(k)]
        return Mixture(rng.dirichlet(np.ones(k)), comps)

    preds = [mixture() for _ in range(n)]
    tgts = [RealVector(rng.normal()) for _ in range(n)]
    return preds, tgts, [mixture() for _ in range(3)], [RealVector(rng.normal()) for _ in range(3)]


CASES = {
    "normal-d1": (default_kernel_spec(), _normals(1)),
    "normal-d3": (_spec(W2(), GaussianRBF(0.7), nu=1.5), _normals(3)),
    "normal-isotropic-d2": (_spec(W2(), GaussianRBF(0.7)), _normals(2, isotropic=True)),
    "normal-isotropic-d10": (default_kernel_spec(), _normals(10, isotropic=True)),
    "normal-d10": (_spec(ParamEuclidean(), GaussianRBF(0.3), nu=1.5), _normals(10)),
    "normal-offset-d2": (default_kernel_spec(), _normals(2, offset=1e6)),
    "normal-offset-isotropic-d10": (_spec(W2(), GaussianRBF(0.5)), _normals(10, isotropic=True, offset=1e6)),
    "laplace-pole": (_spec(ParamEuclidean(), LaplacianExp(1.0)), _laplaces),
    "categorical-kronecker": (_spec(ParamEuclidean(), KroneckerDelta(), nu=2.0), _categoricals),
    "categorical-gaussian": (_spec(ParamEuclidean(), GaussianRBF(0.5)), _categoricals),
    "categorical-laplacian": (_spec(ParamEuclidean(), LaplacianExp(0.7), nu=0.5), _categoricals),
    "truncated-countable-gaussian": (_spec(ParamEuclidean(), GaussianRBF(0.3)), _counts),
    "mixture-mw": (_spec(MW(2.0), GaussianRBF(0.5)), _mixtures),
    "mixture-mw-ragged": (_spec(MW(1.5), GaussianRBF(0.5)), _ragged_mixtures),
    "laplace-gaussian-mc": (
        KernelSpec(PredictionKernel(ParamEuclidean(), 0.8), GaussianRBF(0.5), MonteCarlo(40, seed=3)),
        _laplaces,
    ),
}


def _tile_bytes(spec, data):
    """TILE_BYTES at which the tiles of ``data`` have side TILE."""
    return 8 * kernels.route(spec, data.columns)[1] * TILE * TILE


def _brute_h(spec, data):
    n = len(data)
    return np.array(
        [
            [eval_h(spec, *data[i], *data[j]) for j in range(n)]
            for i in range(n)
        ]
    )


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_reductions_match_brute_force(case, n, monkeypatch):
    spec, make = CASES[case]
    rng = substream(n, "engine", case)
    preds, tgts, loc_preds, loc_tgts = make(rng, n)
    data = Dataset(preds, tgts)
    monkeypatch.setattr(kernels, "TILE_BYTES", _tile_bytes(spec, data))
    assert kernels.tile_size(kernels.prepare(spec, data.columns)) == TILE
    h = _brute_h(spec, data)
    iu = np.triu_indices(n, k=1)

    ustat = skce_ustat(spec, data).value
    assert ustat == pytest.approx(h[iu].mean(), rel=1e-12, abs=1e-12)
    assert h_squared_hat(spec, data) == pytest.approx(np.mean(h[iu] ** 2), rel=1e-12, abs=1e-12)

    block = max(2, n // 2 + 1)  # does not divide n once n > 2; exceeds a tile at 2T + 3
    etas = [
        h[lo : lo + block, lo : lo + block][np.triu_indices(block, k=1)].mean()
        for lo in range(0, n - block + 1, block)
    ]
    np.testing.assert_allclose(
        skce_block(spec, data, block).block_estimates, etas, rtol=1e-12, atol=1e-12
    )

    report = test_bootstrap_ustat(spec, data, NUM_BOOTSTRAP, seed=4)
    hc = h - h.mean(axis=1, keepdims=True) - h.mean(axis=0, keepdims=True) + h.mean()
    counts = _resample_counts(4, n, NUM_BOOTSTRAP).astype(np.int64)
    want = (np.einsum("ra,ab,rb->r", counts, hc, counts) - counts @ np.diag(hc)) / n
    np.testing.assert_allclose(report.diagnostics["null_draws"], want, rtol=1e-12, atol=1e-12)
    assert report.diagnostics["skce_ustat"] == pytest.approx(ustat, rel=1e-12, abs=1e-12)

    locs = TestLocations(loc_preds, loc_tgts)
    z = np.array(
        [
            [
                eval_prediction_kernel(spec.prediction_kernel, tp, p)
                * (eval_target_kernel(spec.target_kernel, ty, y) - expect_target_kernel(spec, p, ty))
                for tp, ty in zip(loc_preds, loc_tgts)
            ]
            for p, y in data
        ]
    )
    np.testing.assert_allclose(cme_feature_matrix(spec, data, locs), z, rtol=1e-12, atol=1e-12)


def _check_stacked_and_diagonal_tiles(case, monkeypatch):
    # blocks of 2 are evaluated as 2 x 2 diagonal tiles stacked along a leading axis
    spec, make = CASES[case]
    n = 2 * TILE + 3
    rng = substream(n, "engine-diagonal", case)
    data = Dataset(*make(rng, n)[:2])
    monkeypatch.setattr(kernels, "TILE_BYTES", _tile_bytes(spec, data))
    h = _brute_h(spec, data)
    etas = [h[lo, lo + 1] for lo in range(0, n - 1, 2)]
    np.testing.assert_allclose(skce_block(spec, data, 2).block_estimates, etas, rtol=1e-12, atol=1e-12)
    # one diagonal tile over the rows in shuffled order, and the same rows against a shifted copy
    rows, columns = rng.permutation(n), kernels.prepare(spec, data.columns)
    arrays = [columns.emb, *columns.params, columns.y]
    before = [a.tobytes() for a in arrays]
    got = kernels.h_values(spec, columns, rows[:, None], rows[None, :])
    np.testing.assert_allclose(got, h[np.ix_(rows, rows)], rtol=1e-12, atol=1e-12)
    shifted = np.roll(rows, 1)
    got = kernels.h_values(spec, columns, rows[:, None], shifted[None, :])
    np.testing.assert_allclose(got, h[np.ix_(rows, shifted)], rtol=1e-12, atol=1e-12)
    # the in-place forms write only into arrays the tile allocated, never into the prepared columns
    assert [a.tobytes() for a in arrays] == before


@pytest.mark.parametrize(
    "case", ["normal-d1", "normal-d3", "normal-offset-d2", "normal-isotropic-d10", "normal-d10"]
)
def test_stacked_and_diagonal_normal_tiles_match_brute_force(case, monkeypatch):
    _check_stacked_and_diagonal_tiles(case, monkeypatch)


@pytest.mark.parametrize(
    "case", ["categorical-kronecker", "categorical-gaussian", "categorical-laplacian", "truncated-countable-gaussian"]
)
def test_stacked_and_diagonal_discrete_tiles_match_brute_force(case, monkeypatch):
    _check_stacked_and_diagonal_tiles(case, monkeypatch)


def test_discrete_tile_expectations_under_kronecker_delta_are_exact():
    # the one-hot product adds only exact zeros to the mass of the target's class
    spec, make = CASES["categorical-kronecker"]
    preds, tgts, _, _ = make(substream(3, "engine-delta"), 40)
    columns = kernels.prepare(spec, Dataset(preds, tgts).columns)
    assert columns.route[0] == "discrete GEMM"
    rows, cols = np.arange(40)[:, None], np.arange(40)[::-1][None, :]
    probs, labels = np.array([p.probs for p in preds]), np.array([t.index for t in tgts])
    for i, j, want in ((rows, cols, probs[rows, labels[cols]]), (cols, rows, probs[cols, labels[rows]])):
        got = kernels._expect(spec.target_kernel, columns.take(i), columns.take(j).y, tile=True)
        assert np.array_equal(got, want)


def _ten_classes(rng, n):
    preds = [Categorical(rng.dirichlet(np.ones(10))) for _ in range(n)]
    return preds, [ClassLabel(int(rng.integers(10))) for _ in range(n)], None, None


@pytest.mark.parametrize(
    "case, d",
    [("normal-d1", 1), ("normal-d3", 3), ("normal-isotropic-d10", 10), ("normal-d10", 10),
     ("categorical-kronecker", 10), ("categorical-gaussian", 10), ("laplace-pole", 1),
     ("mixture-mw", 1), ("mixture-mw-ragged", 1)],
)
def test_one_tile_holds_tile_bytes(case, d):
    # The memory model of the tile route: a tile of side tile_size holds at most TILE_BYTES of
    # T x T arrays at once, plus its columns and matrix-product factors (16 rows of T floats per
    # dimension allow for them) and numpy's iteration buffers of two operands.
    spec, make = CASES[case]
    make = _ten_classes if case.startswith("categorical") else make  # d = 10 classes
    columns = kernels.prepare(spec, Dataset(*make(substream(1, "engine-memory"), 512)[:2]).columns)
    side = kernels.tile_size(columns)
    allowance = 8 * (2 * np.getbufsize() + 16 * (d + 1) * side)
    rows = np.arange(side)[:, None]
    for cols in (rows.T, rows.T + side):  # a diagonal tile and an off-diagonal one
        kernels.h_values(spec, columns, rows, cols)
        tracemalloc.start()
        try:
            kernels.h_values(spec, columns, rows, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= kernels.TILE_BYTES + allowance, (side, peak / 2**20)


def test_mixture_cme_at_normal_locations_matches_brute_force(monkeypatch):
    # what `kcalib test --method cme --metric mw` runs on a mixture file:
    # mixtures of 1 to 3 components against the default normal locations
    rng = substream(2, "engine-cme-mixed")
    preds = [
        Mixture(rng.dirichlet(np.ones(k)), [DiagNormal(rng.normal(), rng.uniform(0.2, 1.0)) for _ in range(k)])
        for k in (1, 3, 2, 3, 1, 2, 3, 2, 1, 3, 2)
    ]
    tgts = [RealVector(rng.normal()) for _ in preds]
    data, locs = Dataset(preds, tgts), default_cme_locations(1, 3, seed=0)
    spec = _spec(MW(2.0), GaussianRBF(0.5))
    monkeypatch.setattr(kernels, "TILE_BYTES", _tile_bytes(spec, data))  # row blocks of 8
    z = np.array(
        [
            [
                eval_prediction_kernel(spec.prediction_kernel, tp, p)
                * (eval_target_kernel(spec.target_kernel, ty, y) - expect_target_kernel(spec, p, ty))
                for tp, ty in zip(locs.predictions, locs.targets)
            ]
            for p, y in data
        ]
    )
    np.testing.assert_allclose(cme_feature_matrix(spec, data, locs), z, rtol=1e-12, atol=1e-12)


def test_transport_metric_solves_one_triangle(monkeypatch):
    spec, make = CASES["mixture-mw"]
    n = 2 * TILE + 3
    preds, tgts, _, _ = make(substream(1, "engine-count"), n)
    data = Dataset(preds, tgts)
    monkeypatch.setattr(kernels, "TILE_BYTES", _tile_bytes(spec, data))
    solved, original = [], kernels._solve_transport

    def counting(weights_a, weights_b, cost):  # the number of problems of each batched solve
        solved.append(len(cost))
        return original(weights_a, weights_b, cost)

    monkeypatch.setattr(kernels, "_solve_transport", counting)
    # no reduction takes a per-pair path
    monkeypatch.setattr(kernels, "eval_h", None)
    monkeypatch.setattr(kernels, "prediction_distance", None)
    skce_ustat(spec, data)
    assert sum(solved) == n * (n - 1) // 2
    assert len(solved) == 6  # one batched solve per upper tile of a 3 x 3 tiling
    solved.clear()
    test_bootstrap_ustat(spec, data, 100, seed=0)
    assert sum(solved) == n * (n + 1) // 2
    assert len(solved) == 6


def test_tiled_reductions_stay_small():
    data = make_scenario_dataset("uncalibrated", 1, 4096, seed=2)
    mc_data = make_scenario_dataset("uncalibrated", 1, 256, seed=2)
    spec, mc = default_kernel_spec(), KernelSpec(expectation=MonteCarlo(1000))
    # an untiled (S, n, n) array of the Monte-Carlo runs alone would take 524 MB
    for run in (
        lambda: skce_ustat(spec, data),
        lambda: skce_plug_in(spec, data),  # the n^2 square, one tile at a time
        lambda: test_bootstrap_ustat(spec, data, 500),
        lambda: skce_ustat(mc, mc_data),
        lambda: test_bootstrap_ustat(mc, mc_data, 500),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak / 2**20


def test_bootstrap_counts_take_two_bytes_each():
    # At n = 4,096 the counts are uint16: 2 R n bytes (7.8 MiB at R = 1,000; float64 counts alone
    # would take 31.25 MiB), plus about 4 (R, T) float64 tile temporaries (the two converted count slices,
    # a @ h and its product with b) and TILE_BYTES for the tile itself.
    data = make_scenario_dataset("uncalibrated", 1, 4096, seed=2)
    tracemalloc.start()
    try:
        test_bootstrap_ustat(default_kernel_spec(), data, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20


def test_h_matrix_is_refused_above_physical_memory(monkeypatch):
    # 8 n^2 = 8,192 bytes at n = 32: refused before allocation, while the plug-in holds no square
    data = make_scenario_dataset("uncalibrated", 1, 32, seed=3)
    spec = default_kernel_spec()
    monkeypatch.setattr(distributions, "PHYSICAL_MEMORY", 8_191)
    with pytest.raises(ConfigurationError, match="8,192 bytes"):
        h_matrix(spec, data)
    plug_in = skce_plug_in(spec, data).diagnostics["raw_value"]
    monkeypatch.setattr(distributions, "PHYSICAL_MEMORY", 8_192)
    assert plug_in == pytest.approx(float(np.sum(h_matrix(spec, data))) / 32**2, rel=1e-14)


def test_bootstrap_is_refused_when_its_tile_pass_exceeds_physical_memory(monkeypatch):
    # n = 200, R = 2,000: 400,000 bytes of uint8 counts, and 4 (R, n) float64 temporaries of the
    # tile pass, 12,800,000 bytes, that the counts alone do not cover; with the tile's 3 n x n floats,
    # 960,000 bytes, and a draw call's 327 rows of int64 indices and their tally, 1,046,400, 15,206,400 in all
    data, spec = make_scenario_dataset("uncalibrated", 1, 200, seed=4), default_kernel_spec()
    monkeypatch.setattr(distributions, "PHYSICAL_MEMORY", 400_000)
    with pytest.raises(ConfigurationError, match="15,206,400 bytes"):
        test_bootstrap_ustat(spec, data, 2000)
    monkeypatch.setattr(distributions, "PHYSICAL_MEMORY", 15_206_400)
    tracemalloc.start()
    try:
        test_bootstrap_ustat(spec, data, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15_206_400, peak


def test_bootstrap_refusal_counts_the_bytes_that_do_not_grow_with_resamples(monkeypatch):
    # n = 1,024, R = 100: 204,800 bytes of uint16 counts and 668,800 of the tile pass's 4 (R, T)
    # float64 temporaries (T = 209), 873,600 bytes, are less than the terms that do not grow with R:
    # a draw call's 64 rows of int64 indices and their tally, 1,048,576 bytes, and the tile's 3 T x T
    # floats, 1,048,344 bytes. Under a limit between the two sums the bootstrap is refused.
    data, spec = make_scenario_dataset("uncalibrated", 1, 1024, seed=5), default_kernel_spec()
    monkeypatch.setattr(distributions, "PHYSICAL_MEMORY", 2_000_000)
    with pytest.raises(ConfigurationError, match="2,970,520 bytes"):
        test_bootstrap_ustat(spec, data, 100)
    monkeypatch.setattr(distributions, "PHYSICAL_MEMORY", 2_970_520)
    tracemalloc.start()
    try:
        test_bootstrap_ustat(spec, data, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 873_600 < peak < 2_970_520, peak


def test_monte_carlo_h_is_symmetric():
    data = make_scenario_dataset("uncalibrated", 1, 64, seed=1)
    spec = KernelSpec(expectation=MonteCarlo(1000))
    for i, j in [(0, 1), (5, 40), (63, 2), (7, 7)]:
        (p, y), (q, z) = data[i], data[j]
        assert double_expect_target_kernel(spec, p, q) == double_expect_target_kernel(spec, q, p)
        forward, backward = eval_h(spec, p, y, q, z), eval_h(spec, q, z, p, y)
        assert math.isclose(forward, backward, rel_tol=1e-14, abs_tol=1e-300)
    ustat = skce_ustat(spec, data).value
    boot = test_bootstrap_ustat(spec, data, 100, seed=0).diagnostics["skce_ustat"]
    assert math.isclose(boot, ustat, rel_tol=1e-12)


# The Monte-Carlo key and the first three draws of each coordinate of one prediction of each
# family, at MonteCarlo(8, seed=5), as recorded when the draws were still made object by object:
# keys and draws must not move with the representation they are read from.
MONTE_CARLO_STREAM = {
    "normal-zero-variance": (
        DiagNormal([0.5, -1.0], [0.0, 2.0]), 0x36875122AB698E5E,
        ["0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p-1",
         "-0x1.1a8d4b89ea00ep+1", "-0x1.f3d4f530ef33ep-2", "-0x1.0c0eead0e5540p+1"],
    ),
    "laplace": (
        Laplace(0.3, 1.5), 0x8257418932F4EF50,
        ["-0x1.97083d94bcde1p-2", "0x1.c85c9b8560e96p-1", "0x1.abc39aa45a24cp-1"],
    ),
    "categorical": (
        Categorical([0.2, 0.5, 0.3]), 0x391213B88696F2C3,
        ["0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+0"],
    ),
    "truncated-countable": (
        TruncatedCountable([0.1, 0.6, 0.3]), 0x466041338B9C0A9A,
        ["0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"],
    ),
    "mixture-of-1": (
        Mixture([1.0], [DiagNormal(0.0, 1.0)]), 0x8099C9FF6D28608B,
        ["0x1.d34a953522040p-3", "-0x1.9a1e8c490bb95p+0", "0x1.c5bb24b5e553fp-1"],
    ),
    "mixture-of-2-laplace": (
        Mixture([0.3, 0.7], [Laplace(-1.0, 0.5), Laplace(2.0, 1.0)]), 0x12620AECE12A1385,
        ["-0x1.da61dd70a04a8p+0", "0x1.4ea80f04a72e0p+0", "0x1.cd31093481ab8p+0"],
    ),
    "mixture-of-3": (
        Mixture([0.2, 0.5, 0.3], [DiagNormal(-1.0, 0.5), DiagNormal(0.0, 1.0), DiagNormal(3.0, 0.25)]),
        0x673D22DB005FEEBF,
        ["0x1.78dd851b36685p+1", "-0x1.22bbb1dcc2ed7p+0", "-0x1.2b283572ab5dbp-1"],
    ),
}


@pytest.mark.parametrize("case", sorted(MONTE_CARLO_STREAM))
def test_monte_carlo_keys_and_draws_are_pinned(case):
    law, key, draws = MONTE_CARLO_STREAM[case]
    spec = KernelSpec(expectation=MonteCarlo(8, seed=5))
    keys, single = kernels._with_expectations(spec, kernels.Columns.of([law]), ("single",)).draws
    assert int(keys[0]) == key
    assert [float(v).hex() for v in single[:, :3, 0].ravel()] == draws


def test_monte_carlo_ustat_is_pinned():
    data = make_scenario_dataset("uncalibrated", 1, 64, seed=1)
    assert skce_ustat(KernelSpec(expectation=MonteCarlo(1000)), data).value.hex() == "0x1.e6b960b6ca2f7p-4"


def test_monte_carlo_double_expectation_draws_only_the_pair_samples(monkeypatch):
    data = make_scenario_dataset("uncalibrated", 1, 2, seed=1)
    labels, original = [], kernels.substream
    monkeypatch.setattr(kernels, "substream", lambda seed, key, label: labels.append(label) or original(seed, key, label))
    double_expect_target_kernel(KernelSpec(expectation=MonteCarlo(50)), data[0][0], data[1][0])
    assert sorted(labels) == ["pair-left", "pair-left", "pair-right", "pair-right"]


def test_reductions_of_one_dataset_draw_their_samples_once(monkeypatch):
    spec = KernelSpec(expectation=MonteCarlo(50))
    data = make_scenario_dataset("uncalibrated", 1, 40, seed=5)
    calls, original = [], kernels._draws
    monkeypatch.setattr(kernels, "_draws", lambda *args: calls.append(args) or original(*args))
    ustat = skce_ustat(spec, data).value
    test_bootstrap_ustat(spec, data, 100)
    test_cme(KernelSpec(expectation=MonteCarlo(50)), data, default_cme_locations(1, 3))  # an equal spec
    test_asymptotic_block(spec, data, 4, variant="h-squared")
    assert len(calls) == 1
    # replacing an item of the pair lists prepares again, and gives what a fresh dataset gives
    data.predictions[3] = make_scenario_dataset("calibrated", 1, 40, seed=6).predictions[3]
    edited = skce_ustat(spec, data).value
    assert len(calls) == 2 and edited != ustat
    assert edited == skce_ustat(spec, Dataset(list(data.predictions), list(data.targets))).value


def test_only_the_last_preparation_is_held():
    spec = KernelSpec(expectation=MonteCarlo(50))
    first = make_scenario_dataset("uncalibrated", 1, 20, seed=1)
    draws = weakref.ref(kernels.prepare(spec, first.columns).draws[1])
    gc.collect()
    assert draws() is not None
    kernels.prepare(spec, make_scenario_dataset("uncalibrated", 1, 20, seed=2).columns)
    gc.collect()
    assert draws() is None


def test_columns_follow_edits_of_the_pair_lists():
    spec = default_kernel_spec()
    data = make_scenario_dataset("uncalibrated", 1, 16, seed=3)
    before = skce_ustat(spec, data).value
    other = make_scenario_dataset("calibrated", 1, 16, seed=4)
    data.predictions[3], data.targets[3] = other[3]
    data.targets[9] = other.targets[9]
    after = skce_ustat(spec, data).value
    assert after != before
    assert after == skce_ustat(spec, Dataset(list(data.predictions), list(data.targets))).value
