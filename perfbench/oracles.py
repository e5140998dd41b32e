"""Reference computations written from the paper's closed forms.

Nothing here imports kcalib: the benchmark compares the program's outputs
with these numbers, so they must not share its code. All arrays are plain
numpy; predictions are given as parameter arrays.

Kernels (the benchmark's defaults, lam = nu = 1, gamma = 1/2):

* prediction kernel  k_P(p, q) = exp(-lam * d(p, q)^nu), with d the
  2-Wasserstein distance between diagonal normals,
  W2^2 = ||m - m'||^2 + ||s - s'||^2 (s the standard deviations), or the
  Euclidean distance between probability vectors for categoricals;
* target kernel      k_Y(y, y') = exp(-gamma ||y - y'||^2), or the
  Kronecker delta for class labels.

h((p, y), (q, y')) = k_P(p, q) * [k_Y(y, y') - E_{Z~p} k_Y(Z, y')
                                  - E_{Z'~q} k_Y(y, Z') + E k_Y(Z, Z')],
and the SKCE U-statistic is the mean of h over unordered pairs.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Elements of one (row tile x columns x dim) temporary; bounds oracle memory.
_TILE_ELEMENTS = 1 << 20


def gauss_expect(mean, var, y, gamma):
    """E_{Z ~ N(mean, diag var)} exp(-gamma ||Z - y||^2), broadcast over rows."""
    denom = 1.0 + 2.0 * gamma * var
    return np.prod(np.exp(-gamma * (mean - y) ** 2 / denom) / np.sqrt(denom), axis=-1)


def gauss_double_expect(mean1, var1, mean2, var2, gamma):
    """E exp(-gamma ||Z - Z'||^2) for independent Z ~ N(mean1, var1), Z' ~ N(mean2, var2)."""
    return gauss_expect(mean1, var1 + var2, mean2, gamma)


def _h_normal_tile(m1, v1, y1, m2, v2, y2, lam, nu, gamma):
    w2 = np.sqrt(np.sum((m1 - m2) ** 2 + (np.sqrt(v1) - np.sqrt(v2)) ** 2, axis=-1))
    kp = np.exp(-lam * w2**nu)
    ky = np.exp(-gamma * np.sum((y1 - y2) ** 2, axis=-1))
    bracket = (
        ky
        - gauss_expect(m1, v1, y2, gamma)
        - gauss_expect(m2, v2, y1, gamma)
        + gauss_double_expect(m1, v1, m2, v2, gamma)
    )
    return kp, bracket


def _upper_pairs_sum(n, dim, tile_fn):
    """fsum over i < j of tile_fn(rows, cols) evaluated tile by tile."""
    rows_per_tile = max(1, _TILE_ELEMENTS // max(1, n * dim))
    parts = []
    for lo in range(0, n - 1, rows_per_tile):
        hi = min(n - 1, lo + rows_per_tile)
        rows = np.arange(lo, hi)[:, None]
        cols = np.arange(lo, n)[None, :]
        values = tile_fn(slice(lo, hi), slice(lo, n))
        parts.append(float(np.sum(values[cols > rows])))
    return math.fsum(parts)


def ustat_normal(mean, var, y, lam=1.0, nu=1.0, gamma=0.5):
    """SKCE U-statistic for diagonal normals under W2 x Gaussian RBF.

    ``mean``, ``var`` and ``y`` have shape (n, d).
    """
    n, d = mean.shape

    def tile(r, c):
        kp, bracket = _h_normal_tile(
            mean[r, None], var[r, None], y[r, None], mean[None, c], var[None, c], y[None, c],
            lam, nu, gamma,
        )
        return kp * bracket

    return _upper_pairs_sum(n, d, tile) / (n * (n - 1) / 2)


def ustat_categorical(probs, labels, lam=1.0, nu=1.0):
    """SKCE U-statistic for categorical predictions under the parameter-Euclidean
    prediction kernel and the Kronecker delta on labels.

    With E_{Z~p} delta(Z, c) = p_c and E delta(Z, Z') = <p, q>.
    """
    n, k = probs.shape
    rows_all = np.arange(n)

    def tile(r, c):
        p, q = probs[r, None], probs[None, c]
        kp = np.exp(-lam * np.sqrt(np.sum((p - q) ** 2, axis=-1)) ** nu)
        li, lj = labels[r][:, None], labels[c][None, :]
        same = (li == lj).astype(float)
        e1 = probs[rows_all[r][:, None], lj]  # p_i(y_j)
        e2 = probs[rows_all[c][None, :], li]  # p_j(y_i)
        ee = probs[r] @ probs[c].T
        return kp * (same - e1 - e2 + ee)

    return _upper_pairs_sum(n, k, tile) / (n * (n - 1) / 2)


def block_estimate_normal(mean, var, y, block_size, **kernel):
    """Mean of the within-block U-statistics over floor(n / B) disjoint blocks."""
    num_blocks = len(mean) // block_size
    etas = [
        ustat_normal(mean[s], var[s], y[s], **kernel)
        for s in (slice(b * block_size, (b + 1) * block_size) for b in range(num_blocks))
    ]
    return float(np.mean(etas))


def cme_statistic_normal(mean, var, y, loc_mean, loc_var, loc_y, lam=1.0, nu=1.0, gamma=0.5):
    """Hotelling statistic n zbar' S^-1 zbar of the CME test.

    Feature z_ij = k_P(T_j, p_i) * (k_Y(t_j, y_i) - E_{Z~p_i} k_Y(Z, t_j)) for
    test locations (T_j, t_j); S is the sample covariance with ddof = 1.
    """
    m1, v1, y1 = mean[:, None], var[:, None], y[:, None]
    m2, v2, t2 = loc_mean[None], loc_var[None], loc_y[None]
    w2 = np.sqrt(np.sum((m1 - m2) ** 2 + (np.sqrt(v1) - np.sqrt(v2)) ** 2, axis=-1))
    kp = np.exp(-lam * w2**nu)
    z = kp * (np.exp(-gamma * np.sum((y1 - t2) ** 2, axis=-1)) - gauss_expect(m1, v1, t2, gamma))
    zbar = z.mean(axis=0)
    cov = np.atleast_2d(np.cov(z, rowvar=False, ddof=1))
    return float(len(mean) * zbar @ np.linalg.solve(cov, zbar))


def mc_error_bound_normal(mean, var, y, samples, lam=1.0, nu=1.0, gamma=0.5):
    """Standard-deviation bound on the Monte-Carlo error of the U-statistic.

    Each expectation in h is replaced by a mean over ``samples`` draws. The
    standard deviation of one such mean is sigma / sqrt(samples), with the
    kernel's variance under the prediction in closed form:
    Var k = E exp(-2 gamma ||.||^2) - (E exp(-gamma ||.||^2))^2. By Minkowski's
    inequality the error of the weighted mean over pairs has a standard
    deviation of at most the same weighted mean of the per-term deviations,
    whatever the draws share between pairs.
    """
    n, d = mean.shape

    def sd(first, second):
        return np.sqrt(np.maximum(second - first**2, 0.0))

    def tile(r, c):
        m1, v1, y1 = mean[r, None], var[r, None], y[r, None]
        m2, v2, y2 = mean[None, c], var[None, c], y[None, c]
        kp, _ = _h_normal_tile(m1, v1, y1, m2, v2, y2, lam, nu, gamma)
        terms = (
            sd(gauss_expect(m1, v1, y2, gamma), gauss_expect(m1, v1, y2, 2.0 * gamma))
            + sd(gauss_expect(m2, v2, y1, gamma), gauss_expect(m2, v2, y1, 2.0 * gamma))
            + sd(
                gauss_double_expect(m1, v1, m2, v2, gamma),
                gauss_double_expect(m1, v1, m2, v2, 2.0 * gamma),
            )
        )
        return kp * terms

    return _upper_pairs_sum(n, d, tile) / (n * (n - 1) / 2) / math.sqrt(samples)


def normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def read_normal_jsonl(path):
    """(mean, var, y) arrays of a diagonal-normal dataset file, read with json alone."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = json.loads(lines[0])
    if header.get("family") != "diag_normal":
        raise ValueError(f"{path}: expected diag_normal records, got {header!r}")
    records = [json.loads(line) for line in lines[1:] if line.strip()]
    mean = np.array([r["prediction"]["mean"] for r in records], dtype=float)
    var = np.array([r["prediction"]["var"] for r in records], dtype=float)
    y = np.array([r["target"]["values"] for r in records], dtype=float)
    return mean, var, y
