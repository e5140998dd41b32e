"""Tests for predictive distributions, Wasserstein distances and recalibration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from kcalib import (
    Categorical,
    ClassLabel,
    Count,
    DiagNormal,
    Laplace,
    Mixture,
    RealVector,
    TruncatedCountable,
    mixture_wasserstein,
    temperature_scale,
    wasserstein2,
)
from kcalib import distributions
from kcalib.distributions import _solve_transport
from kcalib.exceptions import DimensionError, FamilyError, ParameterError
from kcalib.rng import substream


# ---------------------------------------------------------------------------
# targets


def test_class_label_requires_nonnegative_index():
    assert ClassLabel(3).index == 3
    with pytest.raises(ParameterError):
        ClassLabel(-1)


def test_real_vector_accepts_scalar_and_sequence():
    assert RealVector(1.5).dim == 1
    assert RealVector([1.0, 2.0]).dim == 2
    assert RealVector([1.0, 2.0]) == RealVector(np.array([1.0, 2.0]))
    assert RealVector([1.0]) != RealVector([1.0, 2.0])


def test_count_requires_nonnegative():
    assert Count(0).value == 0
    with pytest.raises(ParameterError):
        Count(-2)


# ---------------------------------------------------------------------------
# categorical


def test_categorical_validates_simplex():
    with pytest.raises(ParameterError):
        Categorical([0.7, 0.7])
    with pytest.raises(ParameterError):
        Categorical([1.0])  # needs at least two classes
    with pytest.raises(ParameterError):
        Categorical([1.2, -0.2])


def test_categorical_normalises_tiny_drift():
    p = Categorical([0.5 + 1e-12, 0.5])
    assert math.isclose(float(np.sum(p.probs)), 1.0, abs_tol=1e-15)


def test_categorical_sampling_frequencies():
    p = Categorical([0.2, 0.5, 0.3])
    rng = substream(123, "cat")
    draws = np.array([p.sample(rng).index for _ in range(20000)])
    freq = np.bincount(draws, minlength=3) / len(draws)
    # 4 sigma on a binomial proportion with n = 20000
    assert np.all(np.abs(freq - [0.2, 0.5, 0.3]) < 4 * np.sqrt(0.5 * 0.5 / 20000))


def test_categorical_log_density():
    p = Categorical([0.2, 0.8])
    assert math.isclose(p.log_density(ClassLabel(1)), math.log(0.8))
    with pytest.raises(DimensionError):
        p.log_density(ClassLabel(5))


# ---------------------------------------------------------------------------
# diagonal normal


def test_diag_normal_matches_scipy_cdf_quantile():
    p = DiagNormal(0.3, 2.0)
    for y in [-1.0, 0.0, 0.3, 2.5]:
        assert math.isclose(p.cdf(y), stats.norm.cdf(y, 0.3, math.sqrt(2.0)), rel_tol=1e-12)
    for tau in [0.01, 0.25, 0.5, 0.9, 0.999]:
        assert math.isclose(
            p.quantile(tau), stats.norm.ppf(tau, 0.3, math.sqrt(2.0)), rel_tol=1e-10
        )


@given(z=st.floats(-30.0, 8.0))
@settings(max_examples=300, deadline=None)
def test_diag_normal_cdf_matches_scipy_ndtr(z):
    from scipy.special import ndtr

    assert math.isclose(DiagNormal(0.0, 1.0).cdf(z), ndtr(z), rel_tol=1e-12, abs_tol=0.0)


@given(tau=st.floats(1e-10, 1.0 - 1e-10))
@settings(max_examples=300, deadline=None)
def test_diag_normal_quantile_matches_scipy_ndtri(tau):
    from scipy.special import ndtri

    assert math.isclose(DiagNormal(0.0, 1.0).quantile(tau), ndtri(tau), rel_tol=1e-12, abs_tol=0.0)


def test_mixture_log_density_matches_scipy_logsumexp():
    from scipy.special import logsumexp

    m = Mixture([0.2, 0.5, 0.3], [DiagNormal(-1.0, 0.5), DiagNormal(0.0, 1.0), DiagNormal(40.0, 0.1)])
    for y in (-3.0, 0.0, 2.5, 40.0, 1e3):
        terms = [math.log(w) + c.log_density(RealVector(y)) for w, c in zip(m.weights, m.components)]
        assert math.isclose(m.log_density(RealVector(y)), logsumexp(terms), rel_tol=1e-14)
    point = Mixture([0.5, 0.5], [DiagNormal(0.0, 0.0), DiagNormal(1.0, 1.0)])
    assert point.log_density(RealVector(0.0)) == math.inf
    assert point.log_density(RealVector(3.0)) == pytest.approx(math.log(0.5 * stats.norm.pdf(2.0)))


def test_diag_normal_log_density_matches_scipy():
    p = DiagNormal([0.1, -0.4], [0.5, 2.0])
    y = RealVector([0.0, 1.0])
    expected = stats.norm.logpdf(0.0, 0.1, math.sqrt(0.5)) + stats.norm.logpdf(
        1.0, -0.4, math.sqrt(2.0)
    )
    assert math.isclose(p.log_density(y), expected, rel_tol=1e-12)


def test_diag_normal_zero_variance_is_point_mass():
    p = DiagNormal(1.0, 0.0)
    assert p.cdf(0.5) == 0.0
    assert p.cdf(1.0) == 1.0
    assert p.log_density(RealVector(1.0)) == math.inf
    assert p.log_density(RealVector(0.0)) == -math.inf
    rng = substream(0, "pm")
    assert p.sample(rng) == RealVector(1.0)


def test_diag_normal_rejects_negative_variance_and_mismatch():
    with pytest.raises(ParameterError):
        DiagNormal(0.0, -1.0)
    with pytest.raises(DimensionError):
        DiagNormal([0.0, 1.0], [1.0])


def test_diag_normal_sampling_moments():
    p = DiagNormal([1.0, -2.0], [0.25, 4.0])
    rng = substream(7, "dn")
    draws = np.array([p.sample(rng).values for _ in range(20000)])
    assert np.allclose(draws.mean(axis=0), [1.0, -2.0], atol=0.06)
    assert np.allclose(draws.var(axis=0), [0.25, 4.0], rtol=0.05)


# ---------------------------------------------------------------------------
# laplace


def test_laplace_cdf_quantile_roundtrip():
    p = Laplace(0.7, 1.3)
    for tau in [0.03, 0.25, 0.5, 0.77, 0.99]:
        assert math.isclose(p.cdf(p.quantile(tau)), tau, rel_tol=1e-12)
    # scipy cross-check
    for y in [-2.0, 0.7, 3.1]:
        assert math.isclose(p.cdf(y), stats.laplace.cdf(y, 0.7, 1.3), rel_tol=1e-12)


def test_laplace_log_density_matches_scipy():
    p = Laplace(-0.2, 0.6)
    assert math.isclose(
        p.log_density(RealVector(1.1)), stats.laplace.logpdf(1.1, -0.2, 0.6), rel_tol=1e-12
    )


def test_laplace_rejects_nonpositive_scale():
    with pytest.raises(ParameterError):
        Laplace(0.0, 0.0)


def test_laplace_sampling_moments():
    p = Laplace(2.0, 0.5)
    rng = substream(5, "lap")
    draws = np.array([float(p.sample(rng).values[0]) for _ in range(20000)])
    assert abs(draws.mean() - 2.0) < 0.03
    # Var = 2 b^2
    assert abs(draws.var() - 0.5) < 0.03


# ---------------------------------------------------------------------------
# mixture


def test_mixture_validation():
    with pytest.raises(ParameterError):
        Mixture([0.5, 0.6], [Laplace(0, 1), Laplace(1, 1)])
    with pytest.raises(FamilyError):
        Mixture([0.5, 0.5], [Laplace(0, 1), DiagNormal(0, 1)])
    with pytest.raises(FamilyError):
        m = Mixture([1.0], [Laplace(0, 1)])
        Mixture([1.0], [m])  # no nested mixtures
    with pytest.raises(DimensionError):
        Mixture([0.5, 0.5], [DiagNormal([0, 0], [1, 1]), DiagNormal(0, 1)])


def test_mixture_drops_zero_weight_components():
    m = Mixture([0.0, 1.0], [Laplace(0, 1), Laplace(3, 2)])
    assert len(m.components) == 1
    assert m.components[0] == Laplace(3, 2)


def test_mixture_cdf_is_weighted_sum():
    m = Mixture([0.3, 0.7], [DiagNormal(0.0, 1.0), DiagNormal(2.0, 0.5)])
    for y in [-1.0, 0.5, 2.0]:
        expected = 0.3 * stats.norm.cdf(y, 0, 1) + 0.7 * stats.norm.cdf(y, 2, math.sqrt(0.5))
        assert math.isclose(m.cdf(y), expected, rel_tol=1e-12)


def test_mixture_quantile_inverts_cdf():
    m = Mixture([0.4, 0.6], [Laplace(-1.0, 0.5), Laplace(2.0, 1.5)])
    for tau in [0.05, 0.3, 0.5, 0.8, 0.95]:
        assert math.isclose(m.cdf(m.quantile(tau)), tau, abs_tol=1e-9)


def test_mixture_quantile_of_point_masses_is_the_generalized_inverse():
    # F jumps past tau at the atom -1, so inf{y : F(y) >= tau} = -1
    assert Mixture([0.3, 0.7], [DiagNormal(-1, 0), DiagNormal(1, 1)]).quantile(0.05) == -1.0
    assert Mixture([0.5, 0.5], [DiagNormal(-1, 0), DiagNormal(1, 0)]).quantile(0.05) == -1.0
    assert Mixture([0.5, 0.5], [DiagNormal(-1, 0), DiagNormal(1, 0)]).quantile(0.75) == 1.0


def test_mixture_log_density_logsumexp():
    m = Mixture([0.25, 0.75], [DiagNormal(0.0, 1.0), DiagNormal(5.0, 1.0)])
    y = RealVector(1.0)
    expected = math.log(
        0.25 * stats.norm.pdf(1.0, 0, 1) + 0.75 * stats.norm.pdf(1.0, 5, 1)
    )
    assert math.isclose(m.log_density(y), expected, rel_tol=1e-12)


def test_mixture_sampling_mean():
    m = Mixture([0.5, 0.5], [DiagNormal(0.0, 0.1), DiagNormal(4.0, 0.1)])
    rng = substream(11, "mix")
    draws = np.array([float(m.sample(rng).values[0]) for _ in range(20000)])
    assert abs(draws.mean() - 2.0) < 0.06


# ---------------------------------------------------------------------------
# truncated countable


def test_truncated_countable_validation_and_density():
    p = TruncatedCountable([0.5, 0.3, 0.2])
    assert p.support_size == 3
    assert math.isclose(p.log_density(Count(1)), math.log(0.3))
    assert p.log_density(Count(7)) == -math.inf
    with pytest.raises(ParameterError):
        TruncatedCountable([0.5, 0.3], tail_mass=0.4)  # does not sum to one


def test_truncated_countable_tail_mass():
    p = TruncatedCountable([0.5, 0.3], tail_mass=0.2)
    with pytest.raises(FamilyError):
        p.log_density(Count(9))  # density beyond support is unknown
    rng = substream(0, "tc")
    with pytest.raises(FamilyError):
        p.sample(rng)


def test_truncated_countable_sampling():
    p = TruncatedCountable([0.1, 0.6, 0.3])
    rng = substream(21, "tc2")
    draws = np.array([p.sample(rng).value for _ in range(20000)])
    freq = np.bincount(draws, minlength=3) / len(draws)
    assert np.all(np.abs(freq - [0.1, 0.6, 0.3]) < 0.02)


# One law per plain family, with the formula its class sampled by before every family sampled
# through ``distributions._sample``, the sampler of the Monte-Carlo expectations.
PER_CLASS_SAMPLES = {
    "categorical": (
        Categorical([0.1, 0.2, 0.3, 0.4]),
        lambda p, rng: ClassLabel(int(rng.choice(p.n_classes, p=p.probs))),
    ),
    "diag_normal": (
        DiagNormal([0.3, -1.0, 2.0], [0.5, 0.0, 2.0]),
        lambda p, rng: RealVector(p.mean + np.sqrt(p.var) * rng.standard_normal(p.dim)),
    ),
    "laplace": (Laplace(0.4, 1.3), lambda p, rng: RealVector([rng.laplace(p.loc, p.scale)])),
    "truncated_countable": (
        TruncatedCountable([0.05, 0.5, 0.25, 0.2]),
        lambda p, rng: Count(int(rng.choice(p.support_size, p=p.probs / p.probs.sum()))),
    ),
}


@pytest.mark.parametrize("family", list(PER_CLASS_SAMPLES))
def test_sample_draws_what_the_per_class_formula_drew(family):
    p, formula = PER_CLASS_SAMPLES[family]
    for seed in range(300):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        assert p.sample(rng) == formula(p, reference)
        assert rng.random() == reference.random()  # and used up as many draws


def _laws(rng):
    """One law of each family, mixtures included. Probabilities and weights are dyadic, so that
    normalizing them again leaves every bit in place."""
    probs = (rng.multinomial(12, np.full(4, 0.25)) + 1) / 16.0
    normals = [DiagNormal(rng.normal(size=3), rng.gamma(2.0, size=3)) for _ in range(2)]
    return [
        DiagNormal(rng.normal(size=3), rng.gamma(2.0, size=3)),
        DiagNormal(rng.normal(), 0.0),
        Laplace(rng.normal(), rng.gamma(2.0)),
        Categorical(probs),
        TruncatedCountable(probs * 0.75, tail_mass=0.25),
        TruncatedCountable([0.5, 0.5]),
        Mixture([0.25, 0.75], normals),
        Mixture([0.5, 0.0, 0.5], [Laplace(rng.normal(), 1.0) for _ in range(3)]),
    ]


def test_repr_evaluates_to_an_equal_prediction():
    rng = np.random.default_rng(11)
    for _ in range(50):
        for p in _laws(rng):
            assert eval(repr(p)) == p, repr(p)


def test_repr_of_normalized_probabilities_evaluates_within_a_few_ulps():
    # Normalizing is not idempotent in floating point: probabilities that a constructor has
    # normalized once may move by a few ulps when normalized again.
    rng = np.random.default_rng(12)
    for _ in range(200):
        for p in (Categorical(rng.dirichlet(np.ones(5))), TruncatedCountable(rng.dirichlet(np.ones(5)) * 0.9, 0.1)):
            q = eval(repr(p))
            assert type(q) is type(p) and np.allclose(q.probs, p.probs, rtol=2e-15, atol=0.0)


# ---------------------------------------------------------------------------
# wasserstein distances


def test_w2_normal_closed_form():
    p = DiagNormal([0.0, 1.0], [1.0, 4.0])
    q = DiagNormal([3.0, 1.0], [4.0, 1.0])
    # sqrt(|mu - mu'|^2 + sum (sqrt v - sqrt v')^2)
    expected = math.sqrt(9.0 + (1.0 - 2.0) ** 2 + (2.0 - 1.0) ** 2)
    assert math.isclose(wasserstein2(p, q), expected, rel_tol=1e-12)


def test_w2_laplace_closed_form():
    p = Laplace(0.0, 1.0)
    q = Laplace(2.0, 3.0)
    expected = math.sqrt(4.0 + 2.0 * (1.0 - 3.0) ** 2)
    assert math.isclose(wasserstein2(p, q), expected, rel_tol=1e-12)


def test_w2_identity_and_symmetry():
    p = DiagNormal([0.3, -1.0], [0.5, 2.0])
    q = DiagNormal([1.0, 0.0], [1.5, 0.25])
    assert wasserstein2(p, p) == 0.0
    assert math.isclose(wasserstein2(p, q), wasserstein2(q, p), rel_tol=1e-15)


def test_w2_normal_matches_empirical_transport():
    # [DERIVED] compare the closed form against the empirical quantile coupling
    # in one dimension: W2^2 = int_0^1 (F^-1(t) - G^-1(t))^2 dt.
    p = DiagNormal(0.5, 2.0)
    q = DiagNormal(-1.0, 0.3)
    taus = (np.arange(200000) + 0.5) / 200000
    quad = np.sqrt(np.mean((p.quantile_vec(taus) - q.quantile_vec(taus)) ** 2)) if hasattr(p, "quantile_vec") else None
    if quad is None:
        qp = stats.norm.ppf(taus, 0.5, math.sqrt(2.0))
        qq = stats.norm.ppf(taus, -1.0, math.sqrt(0.3))
        quad = math.sqrt(float(np.mean((qp - qq) ** 2)))
    assert math.isclose(wasserstein2(p, q), quad, rel_tol=1e-3)


def test_w2_laplace_matches_quantile_coupling():
    p = Laplace(0.0, 1.0)
    q = Laplace(1.5, 0.4)
    taus = (np.arange(2_000_000) + 0.5) / 2_000_000
    qp = stats.laplace.ppf(taus, 0.0, 1.0)
    qq = stats.laplace.ppf(taus, 1.5, 0.4)
    quad = math.sqrt(float(np.mean((qp - qq) ** 2)))
    assert math.isclose(wasserstein2(p, q), quad, rel_tol=1e-3)


def test_w2_rejects_mixed_families():
    with pytest.raises(FamilyError):
        wasserstein2(DiagNormal(0, 1), Laplace(0, 1))


def test_mixture_wasserstein_single_components():
    # single-component mixtures reduce to the base distance
    p = Mixture([1.0], [DiagNormal(0.0, 1.0)])
    q = Mixture([1.0], [DiagNormal(2.0, 1.0)])
    assert math.isclose(mixture_wasserstein(p, q), 2.0, rel_tol=1e-9)


def test_mixture_wasserstein_identical_is_zero():
    m = Mixture([0.5, 0.5], [Laplace(0, 1), Laplace(2, 1)])
    assert mixture_wasserstein(m, m) < 1e-9


def test_mixture_wasserstein_brute_force_two_by_two():
    # [DERIVED] with 2x2 transport the optimal plan is parameterised by a
    # single scalar; scan it densely as an independent oracle.
    a = Mixture([0.3, 0.7], [DiagNormal(0.0, 1.0), DiagNormal(2.0, 1.0)])
    b = Mixture([0.6, 0.4], [DiagNormal(1.0, 0.5), DiagNormal(3.0, 2.0)])
    cost = np.array(
        [
            [wasserstein2(pa, pb) ** 2 for pb in b.components]
            for pa in a.components
        ]
    )
    best = math.inf
    for t in np.linspace(0.0, 0.3, 300001):
        plan = np.array([[t, 0.3 - t], [0.6 - t, 0.1 + t]])
        if np.all(plan >= -1e-15):
            best = min(best, float(np.sum(plan * cost)))
    assert math.isclose(mixture_wasserstein(a, b), math.sqrt(best), rel_tol=1e-6)


def test_mixture_wasserstein_order_one():
    a = Mixture([0.5, 0.5], [Laplace(0.0, 1.0), Laplace(4.0, 1.0)])
    b = Mixture([1.0], [Laplace(0.0, 1.0)])
    d1 = mixture_wasserstein(a, b, s=1.0)
    d2 = mixture_wasserstein(a, b, s=2.0)
    # order-1 value is the plain weighted cost; order-2 weights squared costs
    w = wasserstein2(Laplace(4.0, 1.0), Laplace(0.0, 1.0))
    assert math.isclose(d1, 0.5 * w, rel_tol=1e-9)
    assert math.isclose(d2, math.sqrt(0.5 * w**2), rel_tol=1e-9)
    with pytest.raises(ParameterError):
        mixture_wasserstein(a, b, s=0.5)


def test_transport_chunks_match_single_problem_solves(monkeypatch):
    # 20 variables a chunk: 2 problems of 3 x 3, 3 of 2 x 3, 6 of 3 x 1, so every
    # stack crosses many chunk boundaries and ends on a partial chunk
    rng = substream(11, "transport-chunks")
    monkeypatch.setattr(distributions, "TRANSPORT_LP_VARIABLES", 20)
    calls, linprog = [], optimize.linprog
    monkeypatch.setattr(optimize, "linprog", lambda *args, **kw: calls.append(1) or linprog(*args, **kw))

    def masses(count, k):  # 1 to k components, the rest zero-weight padding
        sizes = rng.integers(1, k + 1, count)
        return np.array([np.r_[rng.dirichlet(np.ones(s)), np.zeros(k - s)] for s in sizes])

    for ka, kb, count, chunks in [(3, 3, 251, 126), (2, 3, 250, 84), (3, 1, 7, 2)]:
        wa, wb, cost = masses(count, ka), masses(count, kb), rng.uniform(0.0, 4.0, (count, ka, kb))
        calls.clear()
        values = _solve_transport(wa, wb, cost)
        assert len(calls) == chunks
        single = [_solve_transport(wa[i : i + 1], wb[i : i + 1], cost[i : i + 1])[0] for i in range(count)]
        np.testing.assert_allclose(values, single, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# temperature scaling


def test_temperature_scale_categorical():
    p = Categorical([0.1, 0.9])
    sharp = temperature_scale(p, 0.5)
    raw = np.array([0.1, 0.9]) ** 2.0
    assert np.allclose(sharp.probs, raw / raw.sum(), atol=1e-12)
    flat = temperature_scale(p, 1e6)
    assert np.allclose(flat.probs, [0.5, 0.5], atol=1e-4)


def test_temperature_scale_normal_and_laplace():
    p = temperature_scale(DiagNormal([1.0], [2.0]), 3.0)
    assert np.allclose(p.var, [6.0])
    assert np.allclose(p.mean, [1.0])
    q = temperature_scale(Laplace(0.5, 2.0), 4.0)
    assert math.isclose(q.scale, 8.0)
    assert math.isclose(q.loc, 0.5)


def test_temperature_scale_identity_and_validation():
    p = DiagNormal(0.0, 1.0)
    assert temperature_scale(p, 1.0) == p
    with pytest.raises(ParameterError):
        temperature_scale(p, 0.0)
    with pytest.raises(ParameterError):
        temperature_scale(p, -1.0)


def test_temperature_scale_rejects_unsupported_family():
    m = Mixture([0.4, 0.6], [Laplace(0, 1), Laplace(1, 2)])
    with pytest.raises(FamilyError):
        temperature_scale(m, 2.0)


# ---------------------------------------------------------------------------
# property tests


@given(
    mu=st.floats(-5, 5),
    var=st.floats(1e-3, 10.0),
    tau=st.floats(0.001, 0.999),
)
@settings(max_examples=60, deadline=None)
def test_normal_quantile_cdf_roundtrip(mu, var, tau):
    p = DiagNormal(mu, var)
    assert abs(p.cdf(p.quantile(tau)) - tau) < 1e-9


@given(
    w=st.floats(0.05, 0.95),
    l1=st.floats(-3, 3),
    l2=st.floats(-3, 3),
    b1=st.floats(0.1, 3.0),
    b2=st.floats(0.1, 3.0),
    tau=st.floats(0.01, 0.99),
)
@settings(max_examples=40, deadline=None)
def test_mixture_quantile_cdf_roundtrip(w, l1, l2, b1, b2, tau):
    m = Mixture([w, 1 - w], [Laplace(l1, b1), Laplace(l2, b2)])
    assert abs(m.cdf(m.quantile(tau)) - tau) < 1e-7


@given(
    m1=st.floats(-4, 4), m2=st.floats(-4, 4),
    v1=st.floats(0.01, 9.0), v2=st.floats(0.01, 9.0),
)
@settings(max_examples=60, deadline=None)
def test_w2_triangle_inequality_normals(m1, m2, v1, v2):
    p = DiagNormal(m1, v1)
    q = DiagNormal(m2, v2)
    r = DiagNormal(0.0, 1.0)
    assert wasserstein2(p, q) <= wasserstein2(p, r) + wasserstein2(r, q) + 1e-10
