"""Tests for kernels, analytic kernel expectations, and the h-function."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from kcalib import (
    Analytic,
    Categorical,
    ClassLabel,
    Count,
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
    TruncatedCountable,
    W2,
    default_kernel_spec,
    double_expect_target_kernel,
    eval_h,
    eval_kernel,
    expect_target_kernel,
    mixture_wasserstein,
    wasserstein2,
)
from kcalib import kernels
from kcalib.estimators import Dataset
from kcalib.exceptions import ConfigurationError, DimensionError, FamilyError, ParameterError
from kcalib.kernels import (
    eval_prediction_kernel,
    eval_target_kernel,
    pairwise_h,
    prediction_distance,
)
from kcalib.rng import substream


def _spec(metric=None, tk=None, lam=1.0, nu=1.0, expectation=None):
    return KernelSpec(
        prediction_kernel=PredictionKernel(metric=metric or W2(), lam=lam, nu=nu),
        target_kernel=tk or GaussianRBF(gamma=0.5),
        expectation=expectation or Analytic(),
    )


# ---------------------------------------------------------------------------
# base kernels


def test_gaussian_rbf_values():
    k = GaussianRBF(gamma=0.5)
    assert math.isclose(
        eval_target_kernel(k, RealVector([0.0, 0.0]), RealVector([1.0, 2.0])),
        math.exp(-0.5 * 5.0),
    )
    assert eval_target_kernel(k, RealVector(1.0), RealVector(1.0)) == 1.0


def test_laplacian_exp_values():
    k = LaplacianExp(gamma=2.0)
    assert math.isclose(
        eval_target_kernel(k, RealVector([1.0, -1.0]), RealVector([0.0, 1.0])),
        math.exp(-2.0 * 3.0),
    )


def test_kronecker_delta_on_labels_and_counts():
    k = KroneckerDelta()
    assert eval_target_kernel(k, ClassLabel(2), ClassLabel(2)) == 1.0
    assert eval_target_kernel(k, ClassLabel(2), ClassLabel(1)) == 0.0
    assert eval_target_kernel(k, Count(3), Count(3)) == 1.0
    assert eval_target_kernel(k, Count(3), Count(4)) == 0.0


def test_gaussian_on_counts_uses_index_coordinate():
    k = GaussianRBF(gamma=1.0)
    assert math.isclose(eval_target_kernel(k, Count(1), Count(3)), math.exp(-4.0))


def test_kernel_parameter_validation():
    with pytest.raises(ParameterError):
        GaussianRBF(gamma=0.0)
    with pytest.raises(ParameterError):
        LaplacianExp(gamma=-1.0)
    with pytest.raises(ParameterError):
        PredictionKernel(lam=0.0)
    with pytest.raises(ParameterError):
        PredictionKernel(nu=2.5)
    with pytest.raises(ParameterError):
        PredictionKernel(nu=0.0)


# ---------------------------------------------------------------------------
# prediction kernels


def test_prediction_kernel_is_exp_of_distance():
    pk = PredictionKernel(metric=W2(), lam=2.0, nu=1.5)
    p = DiagNormal(0.0, 1.0)
    q = DiagNormal(1.0, 2.0)
    d = wasserstein2(p, q)
    assert math.isclose(eval_prediction_kernel(pk, p, q), math.exp(-2.0 * d**1.5))


def test_param_euclidean_embeddings():
    pe = ParamEuclidean()
    # categorical: distance between probability vectors
    d = prediction_distance(pe, Categorical([0.2, 0.8]), Categorical([0.5, 0.5]))
    assert math.isclose(d, math.sqrt(2 * 0.3**2))
    # diag normal: (mean, sd) coordinates make the embedding distance match
    # the exact 2-Wasserstein distance
    p = DiagNormal([0.0, 1.0], [1.0, 4.0])
    q = DiagNormal([3.0, 1.0], [4.0, 1.0])
    assert math.isclose(prediction_distance(pe, p, q), wasserstein2(p, q), rel_tol=1e-12)
    # laplace: (loc, sqrt(2) scale) coordinates likewise
    a, b = Laplace(0.0, 1.0), Laplace(2.0, 3.0)
    assert math.isclose(prediction_distance(pe, a, b), wasserstein2(a, b), rel_tol=1e-12)


def test_mw_metric_wraps_plain_predictions():
    mw = MW(s=2.0)
    p = DiagNormal(0.0, 1.0)
    q = Mixture([0.5, 0.5], [DiagNormal(-1.0, 1.0), DiagNormal(1.0, 1.0)])
    expected = mixture_wasserstein(Mixture([1.0], [p]), q, s=2.0)
    assert math.isclose(prediction_distance(mw, p, q), expected, rel_tol=1e-12)


def test_w2_metric_rejects_mixtures():
    # the exact 2-Wasserstein distance has no closed form between mixtures;
    # the MW metric is the supported alternative
    a = Mixture([0.5, 0.5], [Laplace(0, 1), Laplace(2, 1)])
    b = Mixture([1.0], [Laplace(1, 1)])
    with pytest.raises(FamilyError):
        prediction_distance(W2(), a, b)
    assert prediction_distance(MW(), a, b) > 0.0


# ---------------------------------------------------------------------------
# analytic expectations against quadrature oracles


def test_normal_gaussian_expectation_quadrature():
    # [DERIVED] quadrature oracle for E_{Z~N(mu, v)} exp(-gamma (Z - y)^2)
    gamma, mu, v, y = 0.7, 0.3, 1.7, -0.9
    spec = _spec(tk=GaussianRBF(gamma=gamma))
    oracle, _ = integrate.quad(
        lambda z: math.exp(-gamma * (z - y) ** 2) * stats.norm.pdf(z, mu, math.sqrt(v)),
        -np.inf,
        np.inf,
    )
    got = expect_target_kernel(spec, DiagNormal(mu, v), RealVector(y))
    assert math.isclose(got, oracle, rel_tol=1e-9)


def test_normal_gaussian_double_expectation_quadrature():
    gamma, m1, v1, m2, v2 = 0.5, 0.0, 1.0, 1.5, 0.25
    spec = _spec(tk=GaussianRBF(gamma=gamma))
    oracle, _ = integrate.dblquad(
        lambda z2, z1: math.exp(-gamma * (z1 - z2) ** 2)
        * stats.norm.pdf(z1, m1, math.sqrt(v1))
        * stats.norm.pdf(z2, m2, math.sqrt(v2)),
        -8, 8, -8, 8,
    )
    got = double_expect_target_kernel(spec, DiagNormal(m1, v1), DiagNormal(m2, v2))
    assert math.isclose(got, oracle, rel_tol=1e-8)


def test_normal_gaussian_expectation_multivariate_factorises():
    gamma = 0.4
    spec = _spec(tk=GaussianRBF(gamma=gamma))
    p = DiagNormal([0.1, -0.7], [0.5, 2.0])
    y = RealVector([1.0, 0.2])
    per_dim = [
        expect_target_kernel(spec, DiagNormal(m, v), RealVector(t))
        for m, v, t in [(0.1, 0.5, 1.0), (-0.7, 2.0, 0.2)]
    ]
    got = expect_target_kernel(spec, p, y)
    assert math.isclose(got, per_dim[0] * per_dim[1], rel_tol=1e-12)


@pytest.mark.parametrize(
    "scale,gamma",
    [
        (0.5, 0.9),       # generic, beta*gamma < 1
        (3.0, 0.9),       # generic, beta*gamma > 1
        (1.0, 1.0),       # exactly at the pole
        (1.0, 1.0 + 3e-9),  # inside the pole band
        (1.0, 1.0 + 1e-6),  # just outside the band
    ],
)
def test_laplace_expectation_quadrature(scale, gamma):
    loc, y = 0.4, -0.8
    spec = _spec(tk=LaplacianExp(gamma=gamma))
    oracle, _ = integrate.quad(
        lambda z: math.exp(-gamma * abs(z - y)) * stats.laplace.pdf(z, loc, scale),
        -np.inf,
        np.inf,
        limit=200,
    )
    got = expect_target_kernel(spec, Laplace(loc, scale), RealVector(y))
    assert math.isclose(got, oracle, rel_tol=1e-7)


@pytest.mark.parametrize(
    "b1,b2,gamma",
    [
        (0.5, 2.0, 0.8),      # generic, distinct scales
        (1.5, 1.5, 0.4),      # equal scales off the pole
        (1.0, 2.0, 1.0),      # first factor at the pole
        (2.0, 1.0, 1.0),      # second factor at the pole
        (1.0, 1.0, 1.0),      # both at the pole
        (1.0, 1.0 + 5e-9, 1.0),  # inside the pole band on both sides
    ],
)
def test_laplace_double_expectation_quadrature(b1, b2, gamma):
    # [DERIVED] oracle integrates the single-factor expectation (itself
    # verified against direct quadrature above) over the second factor,
    # splitting the domain at both density kinks.
    l1, l2 = 0.0, 1.3
    spec = _spec(tk=LaplacianExp(gamma=gamma))

    def inner(z2):
        f = lambda z1: math.exp(-gamma * abs(z1 - z2)) * stats.laplace.pdf(z1, l1, b1)
        a, b = sorted([l1, z2])
        val = sum(
            integrate.quad(f, u, v, limit=200, epsrel=1e-11)[0]
            for u, v in [(-np.inf, a), (a, b), (b, np.inf)]
        )
        return val * stats.laplace.pdf(z2, l2, b2)

    lo, hi = sorted([l1, l2])
    oracle = sum(
        integrate.quad(inner, a, b, limit=200, epsrel=1e-10)[0]
        for a, b in [(-np.inf, lo), (lo, hi), (hi, np.inf)]
    )
    got = double_expect_target_kernel(spec, Laplace(l1, b1), Laplace(l2, b2))
    assert math.isclose(got, oracle, rel_tol=1e-6)


@pytest.mark.parametrize("x", [0.0, 1e-17, -1e-17, 1e-16, -1e-16, 1e-8, -1e-8])
def test_exprel_matches_scipy_near_zero(x):
    from scipy.special import exprel

    assert kernels._exprel(np.array(x)) == pytest.approx(exprel(x), rel=1e-15)


@given(x=st.floats(-800.0, 800.0))
@settings(max_examples=300, deadline=None)
def test_exprel_matches_scipy(x):
    from scipy.special import exprel

    with np.errstate(over="ignore"):  # exp(x) overflows above 709.8: both give inf
        ours = kernels._exprel(np.array(x))
    assert ours == pytest.approx(exprel(x), rel=1e-15)


def test_laplace_expectation_continuous_across_pole():
    # values just inside and outside the pole band must agree to high
    # relative accuracy — the closed form degenerates near beta * gamma = 1
    spec_in = _spec(tk=LaplacianExp(gamma=1.0 + 0.5e-8))
    spec_out = _spec(tk=LaplacianExp(gamma=1.0 + 2e-8))
    p, y = Laplace(0.0, 1.0), RealVector(0.7)
    inside = expect_target_kernel(spec_in, p, y)
    outside = expect_target_kernel(spec_out, p, y)
    assert math.isclose(inside, outside, rel_tol=1e-6)


@given(
    log_offset=st.floats(-10, -4), side=st.sampled_from([-1.0, 1.0]),
    gamma=st.floats(0.2, 3.0), loc=st.floats(-3, 3), y=st.floats(-3, 3),
)
@settings(max_examples=200, deadline=None)
def test_laplace_expectation_near_pole_matches_mpmath(log_offset, side, gamma, loc, y):
    # scale * gamma = t with t - 1 = +-[1e-10, 1e-4], where the exact formula
    # divides by t^2 - 1; the oracle evaluates that formula at 50 digits
    import mpmath

    scale = (1.0 + side * 10.0**log_offset) / gamma
    spec = _spec(tk=LaplacianExp(gamma=gamma))
    got = expect_target_kernel(spec, Laplace(loc, scale), RealVector(y))
    with mpmath.workdps(50):
        b, g, m = mpmath.mpf(scale), mpmath.mpf(gamma), abs(mpmath.mpf(loc) - mpmath.mpf(y))
        oracle = (b * g * mpmath.exp(-m / b) - mpmath.exp(-g * m)) / ((b * g) ** 2 - 1)
        assert abs(got - oracle) <= 1e-12 * oracle


@given(
    log_offset=st.floats(-10, -4), side=st.sampled_from([-1.0, 1.0]),
    near=st.sampled_from(["equal", "pole-first", "pole-second", "pole-both"]),
    far=st.floats(1.5, 4.0), gamma=st.floats(0.2, 3.0), m=st.floats(0, 4),
)
@settings(max_examples=200, deadline=None)
def test_laplace_double_expectation_near_poles_matches_mpmath(log_offset, side, near, far, gamma, m):
    # scales with b1 = b2 (1 + delta) or b gamma = 1 + delta, delta = +-[1e-10, 1e-4], where the
    # exact formula divides by b1^2 - b2^2 and b^2 gamma^2 - 1; the oracle evaluates it at 60 digits
    import mpmath

    delta = side * 10.0**log_offset
    b1, b2 = {
        "equal": (far / gamma, far / gamma * (1.0 + delta)),
        "pole-first": ((1.0 + delta) / gamma, far / gamma),
        "pole-second": (far / gamma, (1.0 + delta) / gamma),
        "pole-both": ((1.0 + delta) / gamma, (1.0 - delta) / gamma),
    }[near]
    spec = _spec(tk=LaplacianExp(gamma=gamma))
    got = double_expect_target_kernel(spec, Laplace(0.5, b1), Laplace(0.5 + m, b2))
    with mpmath.workdps(60):
        p, q, g, m = mpmath.mpf(b1), mpmath.mpf(b2), mpmath.mpf(gamma), mpmath.mpf(0.5 + m) - mpmath.mpf(0.5)
        c1, c2, d = (p * g) ** 2 - 1, (q * g) ** 2 - 1, p * p - q * q
        oracle = (
            g * p**3 / (c1 * d) * mpmath.exp(-m / p)
            - g * q**3 / (c2 * d) * mpmath.exp(-m / q)
            + mpmath.exp(-g * m) / (c1 * c2)
        )
        assert abs(got - oracle) <= 1e-12 * oracle


def test_categorical_expectations_enumerate_support():
    spec = _spec(tk=KroneckerDelta())
    p = Categorical([0.2, 0.5, 0.3])
    q = Categorical([0.1, 0.1, 0.8])
    # E_{Z~p} delta(Z, y) = p_y
    assert math.isclose(expect_target_kernel(spec, p, ClassLabel(1)), 0.5)
    # E E delta = <p, q>
    assert math.isclose(
        double_expect_target_kernel(spec, p, q), 0.2 * 0.1 + 0.5 * 0.1 + 0.3 * 0.8
    )


def test_truncated_countable_expectation_renormalises():
    spec = _spec(tk=KroneckerDelta())
    p = TruncatedCountable([0.4, 0.4], tail_mass=0.2)
    # expectation over the truncated support renormalises the retained mass
    assert math.isclose(expect_target_kernel(spec, p, Count(0)), 0.5)


def test_mixture_expectation_is_weighted_average():
    spec = _spec(tk=GaussianRBF(gamma=0.5))
    m = Mixture([0.3, 0.7], [DiagNormal(0.0, 1.0), DiagNormal(2.0, 0.5)])
    y = RealVector(1.0)
    parts = [
        expect_target_kernel(spec, c, y) for c in m.components
    ]
    assert math.isclose(
        expect_target_kernel(spec, m, y), 0.3 * parts[0] + 0.7 * parts[1], rel_tol=1e-12
    )
    q = DiagNormal(0.5, 2.0)
    dparts = [double_expect_target_kernel(spec, c, q) for c in m.components]
    assert math.isclose(
        double_expect_target_kernel(spec, m, q),
        0.3 * dparts[0] + 0.7 * dparts[1],
        rel_tol=1e-12,
    )


def test_unsupported_pair_names_monte_carlo_fallback():
    spec = _spec(tk=GaussianRBF(gamma=1.0))
    with pytest.raises(ConfigurationError, match="[Mm]onte"):
        expect_target_kernel(spec, Laplace(0.0, 1.0), RealVector(0.0))


# ---------------------------------------------------------------------------
# monte carlo expectations


def test_monte_carlo_expectation_converges():
    mc = MonteCarlo(samples=200_000, seed=4)
    spec = _spec(tk=GaussianRBF(gamma=1.0), expectation=mc)
    exact_spec = _spec(tk=GaussianRBF(gamma=1.0))
    p, y = DiagNormal(0.3, 0.8), RealVector(-0.2)
    got = expect_target_kernel(spec, p, y)
    exact = expect_target_kernel(exact_spec, p, y)
    assert math.isclose(got, exact, abs_tol=3e-3)


def test_monte_carlo_supports_laplace_gaussian_combination():
    mc = MonteCarlo(samples=400_000, seed=9)
    spec = _spec(tk=GaussianRBF(gamma=1.0), expectation=mc)
    p, y = Laplace(0.0, 1.0), RealVector(0.5)
    oracle, _ = integrate.quad(
        lambda z: math.exp(-((z - 0.5) ** 2)) * stats.laplace.pdf(z, 0.0, 1.0),
        -np.inf,
        np.inf,
    )
    assert math.isclose(expect_target_kernel(spec, p, y), oracle, abs_tol=3e-3)


def test_monte_carlo_is_deterministic_and_order_free():
    mc = MonteCarlo(samples=1000, seed=77)
    spec = _spec(tk=GaussianRBF(gamma=0.5), expectation=mc)
    p, q = DiagNormal(0.0, 1.0), DiagNormal(1.0, 2.0)
    y = RealVector(0.3)
    a1 = expect_target_kernel(spec, p, y)
    b1 = double_expect_target_kernel(spec, p, q)
    # evaluating in a different order changes nothing
    b2 = double_expect_target_kernel(spec, p, q)
    a2 = expect_target_kernel(spec, p, y)
    assert a1 == a2
    assert b1 == b2


# ---------------------------------------------------------------------------
# h-function


def test_h_function_definition():
    spec = default_kernel_spec()
    p, q = DiagNormal(0.1, 0.5), DiagNormal(-0.3, 1.5)
    y, z = RealVector(0.2), RealVector(-0.1)
    kp = eval_prediction_kernel(spec.prediction_kernel, p, q)
    term1 = eval_kernel(spec, p, y, q, z)
    term2 = kp * expect_target_kernel(spec, p, z)
    term3 = kp * expect_target_kernel(spec, q, y)
    term4 = kp * double_expect_target_kernel(spec, p, q)
    assert math.isclose(
        eval_h(spec, p, y, q, z), term1 - term2 - term3 + term4, rel_tol=1e-12
    )


def test_h_function_symmetry():
    spec = default_kernel_spec()
    p, q = Laplace(0.0, 1.0), Laplace(1.0, 0.5)
    y, z = RealVector(0.4), RealVector(-1.2)
    spec = _spec(tk=LaplacianExp(gamma=1.0))
    assert math.isclose(
        eval_h(spec, p, y, q, z), eval_h(spec, q, z, p, y), rel_tol=1e-12
    )


def test_h_vanishes_in_expectation_when_calibrated():
    # [DERIVED] for a calibrated pair, E_{Y~p} h((p, Y), (q, z)) = 0
    spec = default_kernel_spec()
    p, q = DiagNormal(0.2, 0.7), DiagNormal(-0.5, 1.2)
    z = RealVector(0.5)
    oracle, _ = integrate.quad(
        lambda y: eval_h(spec, p, RealVector(y), q, z)
        * stats.norm.pdf(y, 0.2, math.sqrt(0.7)),
        -np.inf,
        np.inf,
    )
    assert abs(oracle) < 1e-10


# ---------------------------------------------------------------------------
# vectorised pairwise evaluation matches the scalar path


def _pairwise_matches_scalar(spec, preds, tgts):
    n = len(preds)
    rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    rows, cols = rows.ravel(), cols.ravel()
    fast = pairwise_h(spec, preds, tgts, rows, cols)
    slow = np.array(
        [eval_h(spec, preds[i], tgts[i], preds[j], tgts[j]) for i, j in zip(rows, cols)]
    )
    np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-14)


def test_pairwise_h_normal_gaussian_w2():
    rng = substream(3, "pw-n")
    preds = [DiagNormal(rng.normal(size=2), rng.uniform(0.1, 2.0, size=2)) for _ in range(7)]
    tgts = [RealVector(rng.normal(size=2)) for _ in range(7)]
    _pairwise_matches_scalar(default_kernel_spec(), preds, tgts)


def test_pairwise_h_normal_gaussian_param_euclidean():
    rng = substream(4, "pw-pe")
    spec = _spec(metric=ParamEuclidean(), tk=GaussianRBF(gamma=0.8), lam=0.7, nu=1.5)
    preds = [DiagNormal([rng.normal()], [rng.uniform(0.1, 2.0)]) for _ in range(6)]
    tgts = [RealVector([rng.normal()]) for _ in range(6)]
    _pairwise_matches_scalar(spec, preds, tgts)


def test_pairwise_h_laplace():
    rng = substream(5, "pw-l")
    spec = _spec(tk=LaplacianExp(gamma=1.0), lam=1.2, nu=1.0)
    preds = [Laplace(rng.normal(), rng.uniform(0.3, 2.0)) for _ in range(6)]
    # include a prediction exactly at the kernel pole beta * gamma = 1
    preds.append(Laplace(0.0, 1.0))
    tgts = [RealVector(rng.normal()) for _ in range(7)]
    _pairwise_matches_scalar(spec, preds, tgts)


def test_pairwise_h_categorical():
    rng = substream(6, "pw-c")
    spec = _spec(metric=ParamEuclidean(), tk=KroneckerDelta(), lam=1.0, nu=2.0)
    preds = []
    tgts = []
    for _ in range(8):
        w = rng.dirichlet(np.ones(3))
        preds.append(Categorical(w))
        tgts.append(ClassLabel(int(rng.integers(0, 3))))
    _pairwise_matches_scalar(spec, preds, tgts)


def test_pairwise_h_fallback_mixtures():
    rng = substream(7, "pw-m")
    spec = _spec(metric=MW(), tk=GaussianRBF(gamma=0.5))
    preds = [
        Mixture(
            rng.dirichlet(np.ones(2)),
            [DiagNormal(rng.normal(), rng.uniform(0.2, 1.0)) for _ in range(2)],
        )
        for _ in range(4)
    ]
    tgts = [RealVector(rng.normal()) for _ in range(4)]
    _pairwise_matches_scalar(spec, preds, tgts)


def test_pairwise_h_rejects_mixed_families():
    pairs = np.array([0]), np.array([1])
    tgts = [RealVector(0.0), RealVector(1.0)]
    with pytest.raises(FamilyError):
        pairwise_h(default_kernel_spec(), [DiagNormal(0.0, 1.0), Laplace(0.0, 1.0)], tgts, *pairs)
    mixtures = [Mixture([1.0], [DiagNormal(0.0, 1.0)]), Mixture([1.0], [Laplace(0.0, 1.0)])]
    with pytest.raises(FamilyError):
        pairwise_h(_spec(metric=MW(), tk=GaussianRBF(gamma=0.5)), mixtures, tgts, *pairs)


def _c_ordered(columns):
    arrays = [columns.emb, *columns.params, columns.y, columns.weights]
    return all(a.flags.c_contiguous for a in arrays if a is not None)


def test_columns_producers_hold_c_ordered_arrays(tmp_path):
    # take along the last axis gathers fast only from C-ordered arrays
    from kcalib.dataset_io import parse_dataset, write_dataset
    from kcalib.synthetic import default_cme_locations, gen_calibrated, gen_uncalibrated, make_scenario_dataset

    rng = substream(3, "c-ordered")
    normals = Dataset(
        [DiagNormal(rng.normal(size=3), rng.uniform(0.1, 1.0, 3)) for _ in range(6)],
        [RealVector(rng.normal(size=3)) for _ in range(6)],
    )
    mixtures = Dataset(
        [Mixture(rng.dirichlet(np.ones(k)), [Laplace(rng.normal(), 1.0) for _ in range(k)]) for k in (1, 3, 2)],
        [RealVector(rng.normal()) for _ in range(3)],
    )
    categoricals = Dataset([Categorical(rng.dirichlet(np.ones(4))) for _ in range(5)], [ClassLabel(1)] * 5)
    truncated = Dataset([TruncatedCountable([0.5, 0.3], tail_mass=0.2)] * 3, [Count(0)] * 3)
    produced = {
        f"objects-{name}": data.columns
        for name, data in [("normal", normals), ("mixture", mixtures), ("categorical", categoricals),
                           ("truncated", truncated)]
    }
    for name, data in [("normal", normals), ("mixture", mixtures), ("categorical", categoricals)]:
        write_dataset(str(tmp_path / f"{name}.jsonl"), data)
        produced[f"parsed-{name}"] = parse_dataset(str(tmp_path / f"{name}.jsonl")).columns
    produced["gen_calibrated"] = gen_calibrated(3, 7, seed=1).columns
    produced["gen_uncalibrated"] = gen_uncalibrated(2, 7, seed=1).columns
    produced["scenario"] = make_scenario_dataset("uncalibrated", 4, 9, seed=1).columns
    produced["cme-locations"] = default_cme_locations(3, 4, seed=0).columns
    produced["subset"] = normals.subset([4, 0, 2]).columns
    produced["subset-mixture"] = mixtures.subset([2, 0]).columns
    produced["temperature-scaled"] = normals.columns.temperature_scaled(2.0)
    assert [name for name, columns in produced.items() if not _c_ordered(columns)] == []


# ---------------------------------------------------------------------------
# property tests


@given(
    m1=st.floats(-2, 2), m2=st.floats(-2, 2),
    v1=st.floats(0.05, 4.0), v2=st.floats(0.05, 4.0),
    gamma=st.floats(0.1, 3.0),
)
@settings(max_examples=50, deadline=None)
def test_double_expectation_bounds(m1, m2, v1, v2, gamma):
    spec = _spec(tk=GaussianRBF(gamma=gamma))
    val = double_expect_target_kernel(spec, DiagNormal(m1, v1), DiagNormal(m2, v2))
    assert 0.0 < val <= 1.0


@given(
    loc=st.floats(-2, 2), scale=st.floats(0.05, 4.0),
    y=st.floats(-3, 3), gamma=st.floats(0.1, 3.0),
)
@settings(max_examples=50, deadline=None)
def test_laplace_expectation_bounds(loc, scale, y, gamma):
    spec = _spec(tk=LaplacianExp(gamma=gamma))
    val = expect_target_kernel(spec, Laplace(loc, scale), RealVector(y))
    assert 0.0 < val <= 1.0


# ---------------------------------------------------------------------------
# predictive laws on columns


def _law(p):
    """(cdf, quantile, log density, mean) of a univariate prediction, from scipy.stats or written
    out; the quantile is None where the test checks the generalized inverse by its definition."""
    if isinstance(p, Mixture):
        parts = [_law(c) for c in p.components]

        def log_density(y):
            total = sum(w * math.exp(law[2](y)) for w, law in zip(p.weights, parts))
            return math.log(total) if total > 0 else -math.inf

        return (lambda y: sum(w * law[0](y) for w, law in zip(p.weights, parts)), None, log_density,
                sum(w * law[3] for w, law in zip(p.weights, parts)))
    if isinstance(p, Laplace):
        law = stats.laplace(p.loc, p.scale)
        return law.cdf, law.ppf, law.logpdf, p.loc
    m, v = float(p.mean[0]), float(p.var[0])
    if v == 0.0:  # a point mass
        return (lambda y: float(y >= m)), (lambda tau: m), (lambda y: math.inf if y == m else -math.inf), m
    law = stats.norm(m, math.sqrt(v))
    return law.cdf, law.ppf, law.logpdf, m


def _counts(p):
    """(cdf, quantile, log mass, mean) of a categorical or truncated count law, written out; it has no
    quantile or mean."""
    probs = p.probs

    def log_mass(y):
        k = int(y)
        if k < len(probs):
            return math.log(probs[k]) if probs[k] > 0 else -math.inf
        if p.tail_mass > 0:
            raise FamilyError("mass beyond the truncation")
        return -math.inf

    return (lambda y: float(np.sum(probs[: int(math.floor(y)) + 1])) if y >= 0 else 0.0), None, log_mass, None


_N, _L = DiagNormal, Laplace
_LAWS = {
    "normal-point-mass": ([_N(0.3, 2.0), _N(-1.0, 0.0), _N(2.0, 0.5)], [1.0, -1.0, -4.0]),
    "laplace": ([_L(0.7, 1.3), _L(-0.2, 0.6)], [-2.0, 1.1]),
    "normal-mixture-padded": (
        [Mixture([0.3, 0.7], [_N(-1.0, 0.0), _N(1.0, 1.0)]),
         Mixture([0.2, 0.5, 0.3], [_N(-1.0, 0.5), _N(0.0, 1.0), _N(4.0, 0.1)]),
         Mixture([0.3, 0.7], [_N(-1.0, 0.0), _N(1.0, 1.0)])],
        [-1.0, 0.5, 0.2],
    ),
    "laplace-mixture-padded": (
        [Mixture([0.4, 0.6], [_L(-1.0, 0.5), _L(2.0, 1.5)]), Mixture([1.0], [_L(0.5, 1.0)])], [0.3, -2.5]
    ),
}
_DISCRETE_LAWS = {
    "categorical": ([Categorical([0.2, 0.8, 0.0]), Categorical([0.5, 0.3, 0.2])], [ClassLabel(2), ClassLabel(0)]),
    "truncated": ([TruncatedCountable([0.5, 0.3, 0.2]), TruncatedCountable([0.1, 0.6, 0.3])], [Count(1), Count(7)]),
    "truncated-tail": ([TruncatedCountable([0.5, 0.3], 0.2)] * 2, [Count(1), Count(0)]),
}


@pytest.mark.parametrize("name", [*_LAWS, *_DISCRETE_LAWS])
def test_columnar_laws_match_scipy_and_written_out_formulas(name):
    if name in _LAWS:
        predictions, ys = _LAWS[name]
        targets, laws = [RealVector(y) for y in ys], [_law(p) for p in predictions]
    else:
        predictions, targets = _DISCRETE_LAWS[name]
        ys, laws = [float(kernels._target_coords(t)[0]) for t in targets], [_counts(p) for p in predictions]
    columns = kernels.Columns.of(predictions, targets)
    np.testing.assert_allclose(columns.log_density(), [law[2](y) for law, y in zip(laws, ys)], rtol=1e-12, atol=0.0)
    if name == "categorical":
        for method in (columns.cdf, columns.quantile):
            with pytest.raises(DimensionError):
                method(0.5)
    else:
        for y in (-3.0, -1.0, 0.0, 0.5, 1.0, 2.5):
            np.testing.assert_allclose(columns.cdf(y), [law[0](y) for law in laws], rtol=1e-12, atol=1e-300)
    if name not in _LAWS:
        with pytest.raises(FamilyError):
            columns.mean()
        with pytest.raises(DimensionError):
            columns.quantile(0.5)
        return
    np.testing.assert_allclose(columns.mean()[0], [law[3] for law in laws], rtol=1e-12, atol=1e-15)
    for tau in (0.01, 0.05, 0.3, 0.5, 0.77, 0.99):
        got = columns.quantile(tau)
        for q, law in zip(got, laws):
            if law[1] is not None:
                assert math.isclose(q, law[1](tau), rel_tol=1e-12, abs_tol=1e-12)
            else:  # the generalized inverse inf{y : F(y) >= tau}, found to 1e-12
                assert law[0](q) >= tau - 1e-12 and law[0](q - 1e-10) < tau


def test_columnar_log_mass_beyond_a_declared_tail_is_undetermined():
    columns = kernels.Columns.of([TruncatedCountable([0.5, 0.3], 0.2)] * 2, [Count(1), Count(9)])
    with pytest.raises(FamilyError):
        columns.log_density()
    mixture = Mixture([0.5, 0.5], [TruncatedCountable([0.5, 0.3], 0.2), TruncatedCountable([0.6, 0.2], 0.2)])
    with pytest.raises(FamilyError):
        mixture.log_density(Count(5))


def _normal_log_density(mean, var, y):
    """Written out: the limit of the normal log density as the zero variances shrink to 0. It is
    +inf where every zero-variance coordinate equals its mean, -inf where one does not."""
    points = [(m, t) for m, v, t in zip(mean, var, y) if v == 0.0]
    if points:
        return math.inf if all(t == m for m, t in points) else -math.inf
    return sum(-0.5 * ((t - m) ** 2 / v + math.log(2.0 * math.pi * v)) for m, v, t in zip(mean, var, y))


@pytest.mark.parametrize(
    "mean, var, y",
    [
        ([1e6], [0.0], [1e6 + 5.0]),  # within np.allclose of the atom, but not at it
        ([1e6], [0.0], [1e6]),
        ([0.0, 0.0], [0.0, 1.0], [0.0, 5.0]),  # the atom's coordinate at its mean, a density in the other
        ([0.0, 0.0], [0.0, 1.0], [1e-9, 0.0]),
        ([2.0, -1.0, 0.5], [0.0, 0.3, 0.0], [2.0, 4.0, 0.5]),
        ([0.3, -1.0], [2.0, 0.5], [1.0, -4.0]),
    ],
)
def test_normal_log_density_places_point_masses_by_exact_equality(mean, var, y):
    want = _normal_log_density(mean, var, y)
    got = DiagNormal(mean, var).log_density(RealVector(y))
    assert got == want or math.isclose(got, want, rel_tol=1e-12)
    # as the component of a mixture, next to a standard normal in every coordinate
    mixture = Mixture([0.25, 0.75], [DiagNormal(mean, var), DiagNormal(np.zeros(len(y)), np.ones(len(y)))])
    other = _normal_log_density(np.zeros(len(y)), np.ones(len(y)), y)
    want = want if math.isinf(want) else math.log(0.25 * math.exp(want) + 0.75 * math.exp(other))
    if want == -math.inf:
        want = math.log(0.75) + other
    got = mixture.log_density(RealVector(y))
    assert got == want or math.isclose(got, want, rel_tol=1e-12)
