"""End-to-end acceptance suite.

Each test re-derives its expected values from first principles (explicit
double loops, large-sample Monte-Carlo oracles, transportation-polytope
vertex enumeration, quasi-random quadrature) rather than reusing library
code paths, and checks the statistical behaviour of the estimators and
tests on the synthetic benchmark scenarios at stated tolerances.

One summary line per criterion is printed by the conftest hook.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import qmc

from kcalib import (
    Categorical,
    Dataset,
    DiagNormal,
    GaussianRBF,
    KernelSpec,
    Laplace,
    LaplacianExp,
    KroneckerDelta,
    Mixture,
    MonteCarlo,
    PredictionKernel,
    RealVector,
    ClassLabel,
    Count,
    TestLocations,
    TruncatedCountable,
    W2,
    ParamEuclidean,
    default_cme_locations,
    default_kernel_spec,
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
from kcalib.classical import quantile_curve
from kcalib.kernels import (
    double_expect_target_kernel,
    eval_prediction_kernel,
    eval_target_kernel,
    expect_target_kernel,
)
from kcalib.synthetic import (
    friedman1_response,
    gen_calibrated,
    gen_friedman1,
    gen_ols_scenario,
    gen_uncalibrated,
)

ALPHA = 0.05


# ---------------------------------------------------------------------------
# Criteria 1 and 2: unbiasedness of the u-statistic, non-negative bias of the
# plug-in, on 10^4 small calibrated datasets.


@pytest.fixture(scope="module")
def small_calibrated_estimates():
    spec = default_kernel_spec()
    datasets = [gen_calibrated(1, 16, seed=1234, replicate=r) for r in range(10_000)]
    start = time.perf_counter()
    ustat = np.array([skce_ustat(spec, data).value for data in datasets])
    ustat_elapsed = time.perf_counter() - start
    plug_in = np.array([skce_plug_in(spec, data).value for data in datasets])
    return ustat, plug_in, ustat_elapsed


def test_criterion_01_ustat_unbiased(small_calibrated_estimates):
    ustat, _, elapsed = small_calibrated_estimates
    mean = ustat.mean()
    std_error = ustat.std(ddof=1) / math.sqrt(ustat.size)
    assert abs(mean) <= 3.0 * std_error, (
        f"mean u-statistic {mean:.3e} is {abs(mean) / std_error:.2f} standard"
        f" errors from 0 (se={std_error:.3e})"
    )
    assert elapsed < 120.0, f"u-statistic pass took {elapsed:.1f}s (budget 120s)"


def test_criterion_02_plug_in_biased_up(small_calibrated_estimates):
    ustat, plug_in, _ = small_calibrated_estimates
    assert plug_in.mean() > ustat.mean()
    assert np.all(plug_in >= 0.0)


# ---------------------------------------------------------------------------
# Criterion 3: estimator values match explicit double-loop recomputation.


def _h_brute(spec, p, y, q, z):
    # Definitional four-term form, assembled here rather than via the
    # library's h evaluation helpers.
    kp = eval_prediction_kernel(spec.prediction_kernel, p, q)
    bracket = (
        eval_target_kernel(spec.target_kernel, y, z)
        - expect_target_kernel(spec, p, z)
        - expect_target_kernel(spec, q, y)
        + double_expect_target_kernel(spec, p, q)
    )
    return kp * bracket


def _random_normal_dataset(rng, n, d):
    predictions, targets = [], []
    for _ in range(n):
        mean = rng.uniform(-1.0, 1.0, size=d)
        var = rng.uniform(0.05, 1.5, size=d)
        predictions.append(DiagNormal(mean, var))
        targets.append(RealVector(rng.normal(0.0, 1.0, size=d)))
    return Dataset(predictions, targets)


def test_criterion_03_estimators_match_brute_force():
    rng = np.random.default_rng(20240811)
    spec = default_kernel_spec()
    for _ in range(50):
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, 4))
        data = _random_normal_dataset(rng, n, d)
        h = np.array(
            [
                [
                    _h_brute(spec, data.predictions[i], data.targets[i],
                             data.predictions[j], data.targets[j])
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

        plug_raw = h.sum() / (n * n)
        report = skce_plug_in(spec, data)
        assert report.value == pytest.approx(max(plug_raw, 0.0), abs=1e-12)
        assert report.diagnostics["raw_value"] == pytest.approx(plug_raw, abs=1e-12)

        block_size = int(rng.integers(2, n + 1))
        num_blocks = n // block_size
        block_means = []
        for b in range(num_blocks):
            lo = b * block_size
            total = 0.0
            for i in range(lo, lo + block_size):
                for j in range(i + 1, lo + block_size):
                    total += h[i, j]
            block_means.append(total / (block_size * (block_size - 1) / 2))
        assert skce_block(spec, data, block_size).value == pytest.approx(
            np.mean(block_means), abs=1e-12
        )

        ustat_brute = (h.sum() - np.trace(h)) / (n * (n - 1))
        assert skce_ustat(spec, data).value == pytest.approx(ustat_brute, abs=1e-12)

        locs = default_cme_locations(d, 3, seed=int(rng.integers(10_000)))
        inner = np.zeros(3)
        for j in range(3):
            for i in range(n):
                p, y = data.predictions[i], data.targets[i]
                kp = eval_prediction_kernel(
                    spec.prediction_kernel, locs.predictions[j], p
                )
                inner[j] += kp * (
                    eval_target_kernel(spec.target_kernel, locs.targets[j], y)
                    - expect_target_kernel(spec, p, locs.targets[j])
                )
            inner[j] /= n
        assert ucme_squared(spec, data, locs).value == pytest.approx(
            float(np.mean(inner**2)), abs=1e-12
        )


# ---------------------------------------------------------------------------
# Criterion 4: every closed-form (family x kernel) expectation agrees with an
# independent vectorized Monte-Carlo oracle within 4 standard errors.

_MC_N = 1_000_000


def _assert_close_to_mc(analytic, values, context):
    mc_mean = values.mean()
    se = values.std(ddof=1) / math.sqrt(values.size)
    # Guard against se == 0 for degenerate draws (e.g. constant kernels).
    tol = 4.0 * se + 1e-12
    assert abs(analytic - mc_mean) <= tol, (
        f"{context}: analytic {analytic!r} vs MC {mc_mean!r} "
        f"(diff {abs(analytic - mc_mean):.2e}, 4se {4 * se:.2e})"
    )


def _sample_normal(rng, p, n):
    return rng.normal(p.mean, np.sqrt(p.var), size=(n, p.mean.size))


def _sample_laplace(rng, p, n):
    return rng.laplace(p.loc, p.scale, size=n)


def _sample_mixture(rng, p, n, sampler):
    counts = rng.multinomial(n, p.weights)
    parts = [sampler(rng, c, m) for c, m in zip(p.components, counts) if m]
    out = np.concatenate(parts, axis=0)
    return out[rng.permutation(n)]


def _laplace_double_cases(rng, num):
    """Parameter draws covering all closed-form branches of the Laplace double
    expectation: both scales at the kernel pole, one at the pole, equal scales
    off the pole, distinct generic scales, and near-pole neighbourhoods."""
    cases = []
    for i in range(num):
        gamma = float(rng.uniform(0.3, 2.0))
        locs = rng.uniform(-1.5, 1.5, size=2)
        branch = i % 5
        if branch == 0:  # both scales exactly at the pole scale*gamma = 1
            b1 = b2 = 1.0 / gamma
        elif branch == 1:  # equal scales, off the pole
            b1 = b2 = float(rng.uniform(0.2, 2.0))
            if abs(b1 * gamma - 1.0) < 0.05:
                b1 = b2 = b1 + 0.1
        elif branch == 2:  # first scale at the pole
            b1, b2 = 1.0 / gamma, float(rng.uniform(0.2, 2.0))
        elif branch == 3:  # second scale at the pole
            b1, b2 = float(rng.uniform(0.2, 2.0)), 1.0 / gamma
        else:  # generic distinct scales, including near-pole neighbourhoods
            delta = float(rng.choice([1e-6, 1e-4, 0.3, 0.8]))
            b1 = (1.0 + delta) / gamma
            b2 = float(rng.uniform(0.2, 2.0))
        cases.append((Laplace(locs[0], b1), Laplace(locs[1], b2), gamma))
    return cases


def test_criterion_04_analytic_expectations_match_mc_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(424242)

    # Diagonal normals with the squared-exponential target kernel.
    for draw in range(100):
        d = int(rng.integers(1, 4))
        p = DiagNormal(rng.uniform(-2, 2, d), rng.uniform(0.01, 3.0, d))
        q = DiagNormal(rng.uniform(-2, 2, d), rng.uniform(0.01, 3.0, d))
        y = rng.uniform(-2, 2, d)
        gamma = float(rng.uniform(0.1, 2.0))
        spec = KernelSpec(target_kernel=GaussianRBF(gamma))
        z = _sample_normal(rng, p, _MC_N)
        vals = np.exp(-gamma * np.sum((z - y) ** 2, axis=1))
        _assert_close_to_mc(
            expect_target_kernel(spec, p, RealVector(y)), vals,
            f"normal/rbf single draw {draw}",
        )
        if draw < 50:  # double expectations are twice the sampling work
            zq = _sample_normal(rng, q, _MC_N)
            vals = np.exp(-gamma * np.sum((z - zq) ** 2, axis=1))
            _assert_close_to_mc(
                double_expect_target_kernel(spec, p, q), vals,
                f"normal/rbf double draw {draw}",
            )

    # Laplace with the exponential (L1) target kernel: single expectation,
    # including the 1e-8 pole band and its neighbourhood.
    for draw in range(100):
        gamma = float(rng.uniform(0.3, 2.0))
        offset = [0.0, 1e-9, -1e-9, 1e-6, 0.4][draw % 5]
        p = Laplace(float(rng.uniform(-1.5, 1.5)), (1.0 + offset) / gamma)
        y = float(rng.uniform(-2, 2))
        spec = KernelSpec(target_kernel=LaplacianExp(gamma))
        z = _sample_laplace(rng, p, _MC_N)
        vals = np.exp(-gamma * np.abs(z - y))
        _assert_close_to_mc(
            expect_target_kernel(spec, p, RealVector([y])), vals,
            f"laplace single draw {draw} (offset {offset})",
        )

    # Laplace double expectation across all five closed-form branches.
    for draw, (p, q, gamma) in enumerate(_laplace_double_cases(rng, 100)):
        spec = KernelSpec(target_kernel=LaplacianExp(gamma))
        vals = np.exp(
            -gamma * np.abs(_sample_laplace(rng, p, _MC_N) - _sample_laplace(rng, q, _MC_N))
        )
        _assert_close_to_mc(
            double_expect_target_kernel(spec, p, q), vals,
            f"laplace double branch {draw % 5} draw {draw}",
        )

    # Discrete families with the discrete kernel (support enumeration).
    for draw in range(100):
        k = int(rng.integers(2, 6))
        probs_p = rng.dirichlet(np.ones(k))
        probs_q = rng.dirichlet(np.ones(k))
        if draw % 2 == 0:
            p, q = Categorical(probs_p), Categorical(probs_q)
            y = ClassLabel(int(rng.integers(k)))
        else:
            p = TruncatedCountable(probs_p, tail_mass=0.0)
            q = TruncatedCountable(probs_q, tail_mass=0.0)
            y = Count(int(rng.integers(k)))
        spec = KernelSpec(target_kernel=KroneckerDelta())
        zp = rng.choice(k, size=_MC_N, p=probs_p)
        _assert_close_to_mc(
            expect_target_kernel(spec, p, y),
            (zp == (y.index if isinstance(y, ClassLabel) else y.value)).astype(float),
            f"discrete single draw {draw}",
        )
        if draw < 50:
            zq = rng.choice(k, size=_MC_N, p=probs_q)
            _assert_close_to_mc(
                double_expect_target_kernel(spec, p, q),
                (zp == zq).astype(float),
                f"discrete double draw {draw}",
            )

    # Mixtures: component-weighted averaging for both supported bases.
    for draw in range(100):
        gamma = float(rng.uniform(0.3, 1.5))
        m = int(rng.integers(2, 4))
        weights = rng.dirichlet(np.ones(m))
        if draw % 2 == 0:
            comps = [
                DiagNormal([rng.uniform(-1.5, 1.5)], [rng.uniform(0.05, 2.0)])
                for _ in range(m)
            ]
            p = Mixture(weights, comps)
            y = float(rng.uniform(-2, 2))
            spec = KernelSpec(target_kernel=GaussianRBF(gamma))
            z = _sample_mixture(rng, p, _MC_N, _sample_normal)[:, 0]
        else:
            comps = [
                Laplace(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.0))
                for _ in range(m)
            ]
            p = Mixture(weights, comps)
            y = float(rng.uniform(-2, 2))
            spec = KernelSpec(target_kernel=LaplacianExp(gamma))
            z = _sample_mixture(
                rng, p, _MC_N, lambda r, c, n: _sample_laplace(r, c, n)
            )
        power = 2 if draw % 2 == 0 else 1
        vals = np.exp(-gamma * np.abs(z - y) ** power)
        _assert_close_to_mc(
            expect_target_kernel(spec, p, RealVector([y])), vals,
            f"mixture single draw {draw}",
        )

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"expectation oracle pass took {elapsed:.1f}s (budget 300s)"


# ---------------------------------------------------------------------------
# Criterion 5: mixture transport distance equals the minimum over the
# vertices of the transportation polytope (basic feasible solutions).


def _vertex_min_cost(a, b, cost):
    m, k = cost.shape
    num_basic = m + k - 1
    constraints = np.zeros((m + k, m * k))
    for i in range(m):
        constraints[i, i * k : (i + 1) * k] = 1.0
    for j in range(k):
        constraints[m + j, j::k] = 1.0
    rhs = np.concatenate([a, b])
    flat_cost = cost.ravel()
    best = math.inf
    for cells in itertools.combinations(range(m * k), num_basic):
        cells = list(cells)
        sub = constraints[:, cells]
        sol, _, rank, _ = np.linalg.lstsq(sub, rhs, rcond=None)
        if rank < num_basic:
            continue
        if not np.allclose(sub @ sol, rhs, atol=1e-10):
            continue
        if np.all(sol >= -1e-12):
            best = min(best, float(flat_cost[cells] @ sol))
    return best


def test_criterion_05_mixture_transport_matches_vertex_enumeration():
    rng = np.random.default_rng(555)
    for instance in range(200):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        if instance % 2 == 0:
            d = int(rng.integers(1, 3))
            comps_p = [
                DiagNormal(rng.uniform(-2, 2, d), rng.uniform(0.05, 2.0, d))
                for _ in range(m)
            ]
            comps_q = [
                DiagNormal(rng.uniform(-2, 2, d), rng.uniform(0.05, 2.0, d))
                for _ in range(k)
            ]
        else:
            comps_p = [Laplace(rng.uniform(-2, 2), rng.uniform(0.1, 2.0)) for _ in range(m)]
            comps_q = [Laplace(rng.uniform(-2, 2), rng.uniform(0.1, 2.0)) for _ in range(k)]
        p = Mixture(rng.dirichlet(np.ones(m)), comps_p)
        q = Mixture(rng.dirichlet(np.ones(k)), comps_q)
        s = float(rng.choice([1.0, 1.5, 2.0]))
        cost = np.array(
            [[wasserstein2(ci, cj) ** s for cj in q.components] for ci in p.components]
        )
        expected = _vertex_min_cost(p.weights, q.weights, cost) ** (1.0 / s)
        assert mixture_wasserstein(p, q, s) == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# Criteria 6-8: significance level and power of the calibration tests on the
# synthetic benchmark scenarios.


def _rates(rates):
    return ", ".join(f"{name} {rate:.3f}" for name, rate in rates.items())


def _rejection_rates(generator, d, n, seed, reps, runners):
    counts = {name: 0 for name in runners}
    for r in range(reps):
        data = generator(d, n, seed=seed, replicate=r)
        for name, runner in runners.items():
            if runner(data, r).p_value < ALPHA:
                counts[name] += 1
    return {name: c / reps for name, c in counts.items()}


def test_criterion_06_type_i_error_in_binomial_band(record_property):
    start = time.perf_counter()
    spec = default_kernel_spec()
    runners = {
        "block-2": lambda data, r: test_asymptotic_block(spec, data, 2),
        "sqrt-block": lambda data, r: test_asymptotic_sqrt_block(spec, data),
        "bootstrap": lambda data, r: test_bootstrap_ustat(
            spec, data, num_bootstrap=500, seed=r
        ),
    }
    for d, seed in ((1, 7), (10, 11)):
        rates = _rejection_rates(gen_calibrated, d, 1024, seed, 200, runners)
        record_property(f"type-I rates at d={d} (band 0.02-0.09)", _rates(rates))
        for name, rate in rates.items():
            assert 0.02 <= rate <= 0.09, f"d={d} {name}: type-I rate {rate}"
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"type-I pass took {elapsed:.1f}s (budget 900s)"


def test_criterion_07_power_and_block_size_ordering(record_property):
    spec = default_kernel_spec()
    rates_1024 = _rejection_rates(
        gen_uncalibrated, 1, 1024, 77, 200,
        {
            "sqrt-block": lambda data, r: test_asymptotic_sqrt_block(spec, data),
            "bootstrap": lambda data, r: test_bootstrap_ustat(
                spec, data, num_bootstrap=500, seed=r
            ),
        },
    )
    record_property("power at n=1024 (at least 0.95)", _rates(rates_1024))
    assert rates_1024["sqrt-block"] >= 0.95
    assert rates_1024["bootstrap"] >= 0.95

    # Power ordering between B=2 and B=floor(sqrt(n)). At n=256 both tests
    # reject essentially always on this scenario (p-values below 1e-9), so
    # the ordering can only be observed as non-strict there; the strict gap
    # shows up at small n, where the larger blocks are visibly more powerful.
    ordering_runners = {
        "block-2": lambda data, r: test_asymptotic_block(spec, data, 2),
        "sqrt-block": lambda data, r: test_asymptotic_sqrt_block(spec, data),
    }
    rates_256 = _rejection_rates(gen_uncalibrated, 1, 256, 77, 500, ordering_runners)
    record_property("power at n=256 (block-2 at most sqrt-block)", _rates(rates_256))
    assert rates_256["block-2"] <= rates_256["sqrt-block"], rates_256
    rates_16 = _rejection_rates(gen_uncalibrated, 1, 16, 77, 500, ordering_runners)
    record_property("power at n=16 (block-2 below sqrt-block)", _rates(rates_16))
    assert rates_16["block-2"] < rates_16["sqrt-block"], rates_16


def test_criterion_08_cme_level_and_slow_convergence():
    spec = default_kernel_spec()
    locs = default_cme_locations(1, 10, seed=0)
    rates_1024 = _rejection_rates(
        gen_calibrated, 1, 1024, 42, 200,
        {"cme": lambda data, r: test_cme(spec, data, locs)},
    )
    assert rates_1024["cme"] <= 0.10, rates_1024

    # Slow convergence: at n=64 the CME test is still far above the level
    # while the bootstrap test already holds it.
    rates_64 = _rejection_rates(
        gen_calibrated, 1, 64, 42, 200,
        {
            "cme": lambda data, r: test_cme(spec, data, locs),
            "bootstrap": lambda data, r: test_bootstrap_ustat(
                spec, data, num_bootstrap=500, seed=r
            ),
        },
    )
    assert rates_64["cme"] > rates_64["bootstrap"], rates_64


# ---------------------------------------------------------------------------
# Criterion 9: the OLS sine-regression pipeline is rejected by the bootstrap
# test even though its quantile curve looks nearly calibrated.


def test_criterion_09_ols_scenario_rejected_but_quantile_calibrated(record_property):
    spec = default_kernel_spec()
    p_values, deviations = [], []
    for s in range(100):
        scenario = gen_ols_scenario(seed=303, replicate=s)
        report = test_bootstrap_ustat(spec, scenario.validation, num_bootstrap=10_000, seed=s)
        p_values.append(report.p_value)
        deviations.append(quantile_curve(scenario.validation).mean_diagonal_deviation())
    p_values = np.array(p_values)
    record_property(
        "bootstrap p-values",
        f"median {np.median(p_values):.4f} (below 0.05), share below {ALPHA} {np.mean(p_values < ALPHA):.2f} "
        f"(at least 0.5); mean quantile deviation {np.mean(deviations):.4f} (below 0.15)",
    )
    assert np.median(p_values) < 0.05
    assert np.mean(p_values < ALPHA) >= 0.5
    assert np.mean(deviations) < 0.15


# ---------------------------------------------------------------------------
# Criterion 10: exact evaluation counts of the quadratic and linear-cost
# estimators.


def test_criterion_10_h_evaluation_counts():
    spec = default_kernel_spec()
    rng = np.random.default_rng(1010)
    for n in (4, 6, 7, 10, 12, 20):
        data = _random_normal_dataset(rng, n, 1)
        assert skce_plug_in(spec, data).diagnostics["h_evaluations"] == n * n
        for block_size in (2, 3, 5, n):
            if block_size > n:
                continue
            expected = (n // block_size) * (block_size * (block_size - 1) // 2)
            report = skce_block(spec, data, block_size)
            assert report.diagnostics["h_evaluations"] == expected, (n, block_size)


# ---------------------------------------------------------------------------
# Criterion 11: Friedman-1 generator against quasi-random quadrature.


def test_criterion_11_friedman1_mean_and_spot_value():
    _, y = gen_friedman1(1_000_000, noise_sd=0.0, seed=77)
    sobol = qmc.Sobol(d=10, scramble=True, seed=5).random(2**21)
    qmc_mean = np.mean(
        10.0 * np.sin(math.pi * sobol[:, 0] * sobol[:, 1])
        + 20.0 * (sobol[:, 2] - 0.5) ** 2
        + 10.0 * sobol[:, 3]
        + 5.0 * sobol[:, 4]
    )
    assert abs(y.mean() - qmc_mean) < 0.01
    spot = friedman1_response(np.full((1, 10), 0.5))[0]
    assert spot == pytest.approx(10.0 / math.sqrt(2.0) + 7.5, abs=1e-9)
    assert spot == pytest.approx(14.571068, abs=1e-6)
