"""Hypothesis tests of the null "the model is calibrated".

Four tests are provided: the asymptotic fixed-block test (two variance
variants), the increasing-block test with B = floor(sqrt(n)), a bootstrap
test for the degenerate U-statistic null, and the CME test based on
Hotelling's T^2 statistic at fixed test locations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import check_allocation, checked_int
from .estimators import (
    Dataset,
    TestLocations,
    cme_feature_matrix,
    h_squared_hat,
    skce_block,
)
from .exceptions import ParameterError
from .kernels import Columns, KernelSpec, h_tiles, route, tiling
from .rng import substream

_DRAW_INDICES = 2**16  # int64 indices a call of _resample_counts draws and tallies (one row of n when n is larger)


@dataclass
class TestReport:
    __test__ = False  # not a pytest class

    method: str
    statistic: float
    p_value: float
    seed: int | None = None
    diagnostics: dict = field(default_factory=dict)


def test_asymptotic_block(
    spec: KernelSpec,
    data: Dataset,
    block_size: int,
    variant: str = "empirical-std",
) -> TestReport:
    """One-sided p-value from the normal limit of the block estimator.

    ``empirical-std`` standardizes by the sample standard deviation of the
    block estimates; ``h-squared`` uses the estimate of E h^2 that governs
    the block variance under the null.
    """
    if variant not in ("empirical-std", "h-squared"):
        raise ParameterError(f"unknown variance variant {variant!r}")
    n = len(data)
    report = skce_block(spec, data, block_size)
    num_blocks = report.diagnostics["num_blocks"]
    diagnostics = {"skce": report.value, **report.diagnostics}
    if variant == "empirical-std":
        if num_blocks < 2:
            raise ParameterError(
                "the empirical-std variant needs at least 2 blocks (floor(n/B) >= 2)"
            )
        sigma = report.sigma_hat_b
        scale = math.sqrt(num_blocks)
        diagnostics["sigma_hat_b"] = sigma
    else:
        hsq = h_squared_hat(spec, data)
        diagnostics["h_evaluations"] += n * (n - 1) // 2
        sigma = math.sqrt(2.0 * hsq)  # NaN when h is: the statistic and p-value are NaN then
        scale = math.sqrt(num_blocks * block_size * (block_size - 1))
        diagnostics["h_squared_hat"] = hsq
    if sigma == 0.0 or sigma is None:
        # Degenerate data: every block estimate identical.
        diagnostics["degenerate_variance"] = True
        statistic = math.inf if report.value > 0 else 0.0
        p_value = 0.0 if report.value > 0 else 1.0
    else:
        statistic = scale * report.value / sigma
        p_value = 0.5 * math.erfc(statistic / math.sqrt(2.0))
    return TestReport(
        method=f"asymptotic-block(B={block_size}, {variant})",
        statistic=statistic,
        p_value=p_value,
        diagnostics=diagnostics,
    )


def test_asymptotic_sqrt_block(spec: KernelSpec, data: Dataset) -> TestReport:
    """Fixed-block test with the increasing block size B = floor(sqrt(n))."""
    n = len(data)
    if n < 8:
        raise ParameterError("the sqrt-block test needs at least 8 pairs")
    block_size = max(2, int(math.isqrt(n)))
    report = test_asymptotic_block(spec, data, block_size, variant="empirical-std")
    report.method = f"asymptotic-sqrt-block(B={block_size})"
    return report


def _resample_counts(seed: int, n: int, num_bootstrap: int) -> np.ndarray:
    """Multiplicity counts of ``num_bootstrap`` resamples of n pairs, one per row, as exact ``np.min_scalar_type(n)``
    integers: a row tallies n uniform indices (multinomial(n, 1/n)); the stream depends on (seed, n, R) only."""
    rng, rows = substream(seed, "bootstrap-ustat"), max(1, _DRAW_INDICES // n)
    counts = np.empty((num_bootstrap, n), np.min_scalar_type(n))
    for lo in range(0, num_bootstrap, rows):
        size = min(rows, num_bootstrap - lo)
        indices = rng.integers(0, n, size=(size, n))
        indices += np.arange(0, size * n, n)[:, None]  # row r tallies into bins r n to r n + n - 1
        counts[lo : lo + size] = np.bincount(indices.ravel(), minlength=size * n).reshape(size, n)
    return counts


def test_bootstrap_ustat(
    spec: KernelSpec, data: Dataset, num_bootstrap: int = 1000, seed: int = 0
) -> TestReport:
    """Bootstrap test for n times the U-statistic estimate.

    The null distribution is approximated by the centered bootstrap for
    degenerate U-statistics: indices are resampled with replacement and the
    resampled statistic uses the doubly centered kernel
    h(x*_a, x*_b) - mean_k h(x*_a, x_k) - mean_k h(x_k, x*_b) + mean_kl h.
    """
    n, num_bootstrap = len(data), checked_int(num_bootstrap, "the number of bootstrap resamples")
    if n < 2:
        raise ParameterError("the bootstrap test needs at least 2 pairs")
    if num_bootstrap < 100:
        raise ParameterError("need at least 100 bootstrap resamples for stable tail quantiles")
    # the counts, a draw call's int64 indices and tally, the tile (the floats per pair that its route counts) and
    # the tile pass's 4 (R, T) float64 temporaries: shifted count slices, a @ h and its product with b
    tiles, drawn = tiling(spec, data.columns), n * min(num_bootstrap, max(1, _DRAW_INDICES // n))
    side, nbytes = min(n, tiles["tile"]), np.min_scalar_type(n).itemsize * num_bootstrap * n + 16 * drawn
    check_allocation(nbytes + 8 * side * (route(spec, data.columns)[1] * side + 4 * num_bootstrap),
                     f"{num_bootstrap} bootstrap resamples of {n} pairs")
    counts = _resample_counts(seed, n, num_bootstrap)
    # With sum(c) = n and s = (n - 1) / n, a draw [c^T h_c c - c . diag(h_c)] / n under the centered kernel h_c above
    # is [(c - s)^T h (c - s) - c . diag(h) + sum(h) s / n] / n: one pass over h's upper tiles, no h_c, no cancellation.
    shift, row_sums, diag, quad = (n - 1) / n, np.zeros(n), np.zeros(n), np.zeros(num_bootstrap)
    for _, rows, cols, h, _ in h_tiles(spec, data.columns, n, pairs=np.less_equal):
        h, b = h[0], np.subtract(counts[:, cols], shift, dtype=float)  # float64 under any numpy's casting rules
        if rows == cols:  # diagonal tile, the first of its tile row: the lower triangle mirrors the upper
            h = np.triu(h) + np.triu(h, 1).T
            diag[rows] = np.diagonal(h)
            quad -= counts[:, rows] @ diag[rows]
            weight, a = 1.0, b  # the row slice, shifted once per tile row
        else:
            row_sums[cols] += h.sum(axis=0)
            weight = 2.0
        row_sums[rows] += h.sum(axis=1)
        quad += weight * np.sum((a @ h) * b, axis=1)
    total = float(row_sums.sum())
    statistic = (total - diag.sum()) / (n - 1)  # n * U-statistic
    draws = (quad + total * shift / n) / n
    # a NaN statistic (h overflowed) is compared with no draw: its p-value is NaN, not 1 / (R + 1)
    p_value = math.nan if math.isnan(statistic) else (1.0 + np.count_nonzero(draws >= statistic)) / (num_bootstrap + 1.0)
    return TestReport(
        method=f"bootstrap-ustat(resamples={num_bootstrap})",
        statistic=float(statistic),
        p_value=float(p_value),
        seed=seed,
        diagnostics={
            "skce_ustat": float(statistic) / n, "null_draws": draws, "h_evaluations": n * (n + 1) // 2, **tiles,
        },
    )


def _chi2_sf(j: int, x: float) -> float:
    """P(X > x) for X ~ chi-squared(j), j a positive integer: Q(j / 2, x / 2).

    Q(a + 1, z) = Q(a, z) + z^a e^-z / Gamma(a + 1) from Q(1, z) = e^-z or
    Q(1/2, z) = erfc(sqrt(z)); each term is formed in log space, so none
    overflows at large x or j.
    """
    if math.isnan(x):
        return x
    if x <= 0 or math.isinf(x):
        return float(x <= 0)
    z, a = x / 2.0, (j % 2) / 2.0
    terms = [math.exp((a + i) * math.log(z) - z - math.lgamma(a + i + 1.0)) for i in range(j // 2)]
    return math.fsum(terms + [math.erfc(math.sqrt(z)) if j % 2 else 0.0])


def test_cme(spec: KernelSpec, data: Dataset, locs: TestLocations) -> TestReport:
    """CME test: Hotelling's T^2 statistic against a chi-squared(J) null."""
    n, j_count = len(data), len(locs)
    if n <= j_count:
        raise ParameterError(
            f"the CME test needs n > J for an invertible covariance (n={n}, J={j_count})"
        )
    z = cme_feature_matrix(spec, data, locs)
    z_bar = z.mean(axis=0)
    cov = np.cov(z, rowvar=False, ddof=1).reshape(j_count, j_count)
    diagnostics = {"z_bar": z_bar, "h_evaluations": z.size, **tiling(spec, data.columns)}
    cond = np.linalg.cond(cov)
    if not np.isfinite(cond) or cond > 1e12:
        ridge = 1e-10 * np.trace(cov) / j_count
        if ridge <= 0:
            ridge = 1e-30
        cov = cov + ridge * np.eye(j_count)
        diagnostics["ridge_regularized"] = True
        diagnostics["ridge"] = ridge
    statistic = float(n * z_bar @ np.linalg.solve(cov, z_bar))
    p_value = _chi2_sf(j_count, statistic)
    return TestReport(
        method=f"cme(J={j_count})",
        statistic=statistic,
        p_value=p_value,
        diagnostics=diagnostics,
    )


# keep pytest from picking the test_* API up as test items when imported
for _fn in (test_asymptotic_block, test_asymptotic_sqrt_block, test_bootstrap_ustat, test_cme):
    _fn.__test__ = False
del _fn


def default_cme_locations(d: int, j_count: int, seed: int = 0) -> TestLocations:
    """Location scheme used by the synthetic benchmarks.

    Predictions are N(m, 0.1^2 I) with m uniform on the unit hypercube;
    targets are i.i.d. N(0, 0.1^2 I).
    """
    d, j_count = checked_int(d, "dimension"), checked_int(j_count, "location count")
    if d < 1 or j_count < 1:
        raise ParameterError("need d >= 1 and J >= 1")
    rng = substream(seed, "cme-locations")
    means = rng.uniform(0.0, 1.0, size=(j_count, d))
    targets = 0.1 * rng.standard_normal((j_count, d))
    return TestLocations(columns=Columns.build("diag_normal", (means.T, np.full((d, j_count), 0.01)), targets.T))
