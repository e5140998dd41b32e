"""Tensor-product kernels on (prediction, target) pairs.

A kernel spec combines an exponential-metric kernel on the prediction space
with a target-space kernel, evaluated either with closed-form expectations
over predicted distributions or with seeded Monte-Carlo averaging. The
centered kernel ``h_values`` is the building block of all SKCE estimators.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import (
    DISCRETE,
    FAMILIES,
    TARGET_TYPES,
    TARGETS,
    Mixture,
    Prediction,
    RealVector,
    Target,
    _frozen,
    _real,
    _sample,
    _solve_transport,
    _unchecked,
    check_allocation,
    check_rows,
    checked_index,
    checked_int,
    target_value,
)
from .exceptions import ConfigurationError, DimensionError, FamilyError, ParameterError
from .rng import substream

_STANDARD_NORMAL = statistics.NormalDist()
_ERFC = np.frompyfunc(math.erfc, 1, 1)  # numpy has no erfc, and scipy.special is slow to import

# ---------------------------------------------------------------------------
# Kernel configuration types


@dataclass(frozen=True)
class GaussianRBF:
    """exp(-gamma * ||y - y'||_2^2) on targets."""

    gamma: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ParameterError(f"gamma must be finite and positive, got {self.gamma!r}")


@dataclass(frozen=True)
class LaplacianExp:
    """exp(-gamma * ||y - y'||_1) on targets."""

    gamma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ParameterError(f"gamma must be finite and positive, got {self.gamma!r}")


@dataclass(frozen=True)
class KroneckerDelta:
    """1 if targets are equal, else 0."""


TargetKernel = GaussianRBF | LaplacianExp | KroneckerDelta


@dataclass(frozen=True)
class W2:
    """Closed-form 2-Wasserstein metric (diagonal normals, Laplace)."""


@dataclass(frozen=True)
class MW:
    """Mixture transport metric of order ``s`` with W2 ground cost."""

    s: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.s) and self.s >= 1.0):
            raise ParameterError(f"transport order must satisfy s >= 1, got {self.s!r}")


@dataclass(frozen=True)
class ParamEuclidean:
    """Euclidean distance between canonical parameter embeddings."""


PredictionMetric = W2 | MW | ParamEuclidean


@dataclass(frozen=True)
class PredictionKernel:
    """exp(-lam * d(p, p')^nu) for a prediction-space metric d."""

    metric: PredictionMetric = field(default_factory=W2)
    lam: float = 1.0
    nu: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ParameterError(f"lambda must be finite and positive, got {self.lam!r}")
        if not (math.isfinite(self.nu) and 0 < self.nu <= 2):
            raise ParameterError(f"nu must lie in (0, 2], got {self.nu!r}")


@dataclass(frozen=True)
class Analytic:
    """Closed-form expectations; rejects unsupported (family, kernel) pairs."""


@dataclass(frozen=True)
class MonteCarlo:
    """Seeded Monte-Carlo expectations with a fixed sample count."""

    samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if checked_int(self.samples, "the number of Monte-Carlo samples") < 1:
            raise ParameterError("Monte-Carlo expectations need at least 1 sample")


ExpectationMode = Analytic | MonteCarlo


@dataclass(frozen=True)
class KernelSpec:
    prediction_kernel: PredictionKernel = field(default_factory=PredictionKernel)
    target_kernel: TargetKernel = field(default_factory=GaussianRBF)
    expectation: ExpectationMode = field(default_factory=Analytic)


def default_kernel_spec() -> KernelSpec:
    """exp(-W2(p, p')) * exp(-(y - y')^2 / 2), the benchmark default."""
    return KernelSpec(
        prediction_kernel=PredictionKernel(metric=W2(), lam=1.0, nu=1.0),
        target_kernel=GaussianRBF(gamma=0.5),
        expectation=Analytic(),
    )


# ---------------------------------------------------------------------------
# Closed forms over broadcastable arrays
#
# Each function broadcasts its arguments against each other, with the
# parameter or target dimension first, so one expression serves a single
# pair, a list of pairs and a (rows x cols) tile alike, and numpy's inner
# loops run over the pairs rather than over a short dimension.
#
# On an outer-product tile of normals, the single expectations and the
# Gaussian target kernel expand sum a (m - y)^2 into sum a m^2 - 2 (a m)^T y +
# a^T y^2: one GEMM, not d passes over the tile. Means and targets are centred
# by the tile mean of the means first, so the expansion cancels only the spread
# of the tile, not an offset all points share. Distances take direct
# differences, accumulated row by row: a Gram expansion under the square root
# loses about 8 digits where two predictions nearly coincide. Isotropic normals
# reuse the squared mean distance in the double expectation.
#
# On an outer-product tile of discrete laws with masses P over the support
# 0, ..., K - 1, E k(Z_i, y_j) is the GEMM P_i^T G_j with G = k_Y(support, y),
# one-hot under the Kronecker delta (so exact: only zeros are added), and
# E k(Z_i, Z'_j) is P_i^T (Grid P_j) with Grid the K x K kernel on the support.
#
# Tile forms work in place, on T x T arrays that they allocate themselves, so
# that ``route`` can count the few such arrays a tile holds at once; only the
# double expectation of anisotropic normals keeps the (d, T, T) pair-list form.


def _row_sum(a, b, square: bool = True):
    """The sum over the rows k of (a_k - b_k)^2, or of |a_k - b_k|, accumulated row by row in one array."""
    total = row = None
    for k in range(len(a)):
        row = np.subtract(a[k], b[k], out=row)
        (np.square if square else np.abs)(row, out=row)
        if total is None:
            total, row = row, None
        else:
            total += row
    return total


def _kernel_of(pk: PredictionKernel, d):
    """exp(-lam d^nu) from the distances ``d``, in place."""
    if pk.nu != 1.0:
        d **= pk.nu
    d *= -pk.lam
    return np.exp(d, out=d)


def _points(a):
    """The points of ``a`` (d, ..., T, 1) or (d, ..., 1, T) as rows, (..., T, d)."""
    a = a.reshape(a.shape[:-2] + (-1,))
    return a.transpose(tuple(range(1, a.ndim)) + (0,))


def _tile_rows(x, y):
    """The predictions ``x`` and targets ``y`` of an outer-product tile as rows (``_points``), and
    whether the predictions run along its last axis."""
    return _points(x), _points(y), x.shape[-1] != 1 or y.shape[-2] != 1


def _tile_product(left, right, transpose):
    """The tile of the inner products of prediction rows ``left`` and target rows ``right``,
    predictions along axis -2, or along -1 where ``transpose``."""
    return right @ left.swapaxes(-1, -2) if transpose else left @ right.swapaxes(-1, -2)


def _exprel(x):
    """(exp(x) - 1) / x, and 1 where |x| < 1e-16, as ``scipy.special.exprel`` defines it."""
    tiny = np.abs(x) < 1e-16
    return np.where(tiny, 1.0, np.expm1(x) / np.where(tiny, 1.0, x))


def _target_kernel(tk: TargetKernel, a, b, tile: bool = False):
    """k_Y(a, b), in place; on a ``tile`` the Gaussian as a centred Gram product."""
    if tile and isinstance(tk, GaussianRBF):  # the expectation over a normal of zero variance
        return _normal_expect_tile(a, np.zeros_like(a), b, tk.gamma)
    out = _row_sum(a, b, square=isinstance(tk, GaussianRBF))
    if isinstance(tk, KroneckerDelta):
        return np.equal(out, 0.0, out=out, casting="unsafe")
    out *= -tk.gamma
    return np.exp(out, out=out)


def _normal_expect(mean, var, y, gamma):
    """E exp(-gamma ||Z - y||^2) for Z ~ N(mean, diag(var)).

    With var = var1 + var2 and y = mean2 this is the double expectation
    over two independent normals.
    """
    denom = 1.0 + 2.0 * gamma * var
    quad = np.sum((mean - y) ** 2 / denom, axis=0)
    return np.exp(-gamma * quad) / np.sqrt(np.prod(denom, axis=0))


def _normal_expect_tile(mean, var, y, gamma):
    """``_normal_expect`` on an outer-product tile, predictions along axis -2 and targets along
    axis -1 (or the other way round): with a = 1 / denom, the exponential of the matrix product
    [2 g a m, -g a, c] [y, y^2, 1]^T, c = -g sum a m^2 - sum log(denom) / 2 the normalization."""
    (m, y, transpose), denom = _tile_rows(mean, y), 1.0 + 2.0 * gamma * _points(var)
    centre = m.mean(axis=-2, keepdims=True)
    m, y, a = m - centre, y - centre, 1.0 / denom
    c = -gamma * np.sum(a * m * m, axis=-1, keepdims=True) - 0.5 * np.sum(np.log(denom), axis=-1, keepdims=True)
    left = np.concatenate([2.0 * gamma * a * m, -gamma * a, c], axis=-1)
    right = np.concatenate([y, y * y, np.ones(y.shape[:-1] + (1,))], axis=-1)
    out = _tile_product(left, right, transpose)
    return np.exp(out, out=out)


def _laplace_expect(loc, scale, y, gamma):
    """E exp(-gamma |Z - y|) for Z ~ Laplace(loc, scale).

    With g = gamma |loc - y|, t = scale * gamma and u = g (t - 1) / t this is
    exp(-g) (1 + g expm1(u) / u) / (t + 1), with no pole at t = 1. The factor
    exp(-g) expm1(u) / u is taken as exp(max(u, 0) - g) exprel(-|u|): no overflow.
    """
    g = gamma * np.abs(loc - y)
    t = scale * gamma
    u = g * (t - 1.0) / t
    return (np.exp(-g) + g * np.exp(np.maximum(u, 0.0) - g) * _exprel(-np.abs(u))) / (t + 1.0)


def _exp_dd(y1, y2):
    """The divided difference exp[0, y1, y2] for 0 >= y1 >= y2, with no cancellation."""
    far = y2 < -0.5
    out = (np.exp(y1) * _exprel(y2 - y1) - _exprel(y1)) / np.where(far, y2, -1.0)
    # near 0, the sum over k of h_k(y1, y2) / (k + 2)!, h_k the complete symmetric polynomials
    y1, y2 = y1[~far], y2[~far]
    series, h, power, fact = 0.5, 1.0, 1.0, 2.0
    for k in range(3, 18):
        power, fact = power * y2, fact * k
        h = y1 * h + power
        series = series + h / fact
    out[~far] = series
    return out


def _laplace_double(l1, b1, l2, b2, gamma):
    """E exp(-gamma |Z - Z'|) for independent Z ~ Laplace(l1, b1), Z' ~ Laplace(l2, b2).

    That is 2 / gamma times the density at m = |l1 - l2| of a sum of Laplace variables of
    rates 1/b1, 1/b2, gamma, sorted as x0 <= x1 <= x2: 2 (x0 x1 x2)^2 / gamma f[x0, x1, x2],
    f(r) = exp(-m r) q(r), q(r) = 1 / prod_k (r + x_k). By Leibniz's rule f[...] is a sum of
    positive terms, products of divided differences of exp(-m r) and q: no pole, no cancellation.
    """
    m, (a, b) = np.abs(l1 - l2), np.broadcast_arrays(1.0 / b1, 1.0 / b2)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    x0, x1, x2 = np.minimum(lo, gamma), np.maximum(lo, np.minimum(hi, gamma)), np.maximum(hi, gamma)
    y1, y2 = m * (x0 - x1), m * (x0 - x2)
    # with q[x0, x1, x2] = -q[x1, x2] / x0 and the common factor of q[x1, x2] and q[x2] taken out
    q12 = (1.0 / (x0 + x2) + 1.0 / x1) / (x0 + x1)
    dd = q12 * (1.0 / x0 + m * _exprel(y1)) + m * m * _exp_dd(y1, y2) / (x0 + x2)
    return (x0 * x1) ** 2 * x2 / (gamma * (x1 + x2)) * np.exp(-m * x0) * dd


def _support(size: int, ndim: int) -> np.ndarray:
    """Coordinates of the points 0, ..., size - 1 along axis 1 of ``ndim`` axes."""
    return np.arange(size, dtype=np.float64).reshape((1, size) + (1,) * (ndim - 2))


def _discrete_expect(tk: TargetKernel, probs, y, tile: bool = False):
    """E k(Z, y) for Z with masses ``probs`` on the points 0, 1, ...; on a ``tile`` as the
    product of the masses and k_Y(support, y)."""
    if tile:
        p, y, transpose = _tile_rows(probs, y)
        return _tile_product(p, _target_kernel(tk, _support(len(probs), 2), y[None]), transpose)
    kernel = _target_kernel(tk, _support(probs.shape[0], y.ndim + 1), y[:, None])
    return np.sum(probs * kernel, axis=0)


def _discrete_double(tk: TargetKernel, p, q, tile: bool = False):
    """E k(Z, Z') for Z, Z' with masses ``p`` and ``q``; on a ``tile`` (``p`` along axis -2) as
    the products of p, the kernel on the support and q."""
    grid = _target_kernel(tk, _support(p.shape[0], 3), _support(q.shape[0], 3).swapaxes(1, 2))
    if tile:
        return _tile_product(_points(p) @ grid, _points(q), False)
    return np.sum(p * np.tensordot(grid, q, axes=(1, 0)), axis=0)


# ---------------------------------------------------------------------------
# Columnar parameter arrays


@dataclass(frozen=True, eq=False)
class Columns:
    """Parameter arrays of predictions of one family, one column per prediction.

    ``emb`` is the canonical parameter embedding (for normals and Laplace
    also the W2 embedding), ``params`` holds what the expectations read
    (mean and var, loc and scale, or the masses of a discrete law) and ``y``
    the target coordinates; the first axis runs over the coordinates of a
    field (one for a number), the last over the predictions. A mixture's
    ``emb`` and ``params`` hold its components (of ``family``) on an axis
    before the predictions, ``weights`` (K, n) their weights. ``draws`` holds
    each prediction's Monte-Carlo key and its "single", "pair-left" and
    "pair-right" samples (or some of these, in this order), (d, S, n) each.
    Views from ``take`` keep their rows in ``at``.
    Columns from ``prepare`` hold their ``route``.
    """

    family: str
    emb: np.ndarray | None = None
    params: tuple = ()
    y: np.ndarray | None = None
    weights: np.ndarray | None = None
    draws: tuple = ()
    at: np.ndarray | None = None
    route: tuple = ()

    @classmethod
    def build(cls, family: str, canonical: tuple, y=None, weights=None) -> "Columns":
        """Columns of ``family`` from the fields (``distributions.FAMILIES``) its predictions hold,
        the coordinates of a field on the first axis (one for a number) and the predictions on the
        last; for mixtures, those of the components on an axis before the predictions.
        The arrays are held C-ordered, so that ``take`` along the last axis is a fast gather.
        """
        canonical = tuple(np.ascontiguousarray(a) for a in canonical)
        y, weights = (None if a is None else np.ascontiguousarray(a) for a in (y, weights))
        params, emb = canonical, canonical[0]
        if family == "diag_normal":
            emb = np.concatenate([canonical[0], np.sqrt(canonical[1])])
        elif family == "laplace":
            emb = np.concatenate([canonical[0], math.sqrt(2.0) * canonical[1]])
        elif family == "truncated_countable":
            # Expectations renormalize over the truncated support; the
            # induced absolute error is bounded by 2 * tail_mass.
            emb, params = np.concatenate(canonical), (canonical[0] / canonical[0].sum(axis=0),)
        if y is not None and y.shape[0] != _target_dim(family, params):
            raise DimensionError("target dimension does not match the prediction dimension")
        return cls(family, emb, params, y, weights)

    @classmethod
    def of(cls, predictions, targets=None) -> "Columns":
        if len(predictions) == 0:
            raise ParameterError("a batch needs at least one prediction")
        p0 = predictions[0]
        family = getattr(p0, "family", None)
        if family != "mixture" and family not in FAMILIES:
            raise FamilyError(f"unknown prediction type {type(p0).__name__}")
        if any(type(p) is not type(p0) for p in predictions):  # also the components of mixtures
            raise FamilyError("the predictions of one batch must share one family")
        try:
            y = None if targets is None else _stack([_target_coords(t) for t in targets])
            if family == "mixture":
                parts = cls.of([c for p in predictions for c in p.components])
                return cls.mixtures(parts.family, parts.canonical(), [p.weights for p in predictions], y)
            canonical = tuple(_stack([getattr(p, name) for p in predictions]) for name, _ in FAMILIES[family][1])
        except ValueError as exc:  # ragged rows
            raise DimensionError("predictions and targets of one batch must share one dimension") from exc
        return cls.build(family, canonical, y)

    @classmethod
    def mixtures(cls, family: str, canonical: tuple, weights: list, y=None) -> "Columns":
        """Columns of mixtures from the ``canonical`` arrays of their components of ``family``,
        those of each mixture in turn on the last axis, and the ``weights`` of each mixture.

        A shorter mixture repeats its first component at weight 0, so that
        every closed form stays finite.
        """
        counts = np.array([len(w) for w in weights])
        slot = np.arange(counts.max())[:, None]
        index = np.cumsum(counts) - counts + np.where(slot < counts, slot, 0)
        padded = np.where(slot < counts, np.concatenate(weights).take(index), 0.0)
        return cls.build(family, tuple(a.take(index, axis=-1) for a in canonical), y, padded)

    def __len__(self) -> int:
        return self.emb.shape[-1]

    @property
    def dim(self) -> int:
        """The dimension of each prediction: of its law, or the support size of a discrete one."""
        return self.params[0].shape[0]

    def canonical(self) -> tuple:
        """The fields ``build`` made these columns from (for a mixture, those of its components)."""
        return (self.emb[:-1], self.emb[-1:]) if self.family == "truncated_countable" else self.params

    def rows(self) -> list:
        """The ``canonical`` fields with one row per prediction (one float for a number field); a
        mixture's with one per component, component-major (component c of prediction i in row c n + i)."""
        rows = [np.moveaxis(a.reshape(len(a), -1), -1, 0) for a in self.canonical()]
        return [r[:, 0] if kind == "number" else r for r, (_, kind) in zip(rows, FAMILIES[self.family][1])]

    def per_prediction(self, items: list, mixture, weights=None) -> list:
        """``items``, one per row of ``rows``, as one item per prediction: for a mixture,
        ``mixture(weights, items of its components)``, its kept weights cut from its row of
        ``weights`` (one item per weight, the weights themselves by default)."""
        if self.weights is None:
            return items
        n = self.weights.shape[1]
        weights = _frozen(self.weights.T.copy()) if weights is None else weights
        return [
            mixture(w[:m], [items[c * n + i] for c in range(m)])
            for i, (w, m) in enumerate(zip(weights, np.count_nonzero(self.weights, axis=0).tolist()))
        ]

    def prediction_objects(self) -> list:
        """The predictions as objects, built without checking them again."""
        rows = [r.tolist() if r.ndim == 1 else _frozen(r.copy()) for r in self.rows()]
        laws = [_unchecked(FAMILIES[self.family][0], *values) for values in zip(*rows)]
        return self.per_prediction(laws, lambda w, parts: _unchecked(Mixture, w, tuple(parts)))

    def target_objects(self) -> list:
        """The targets as objects, built without checking them again."""
        if self.family in DISCRETE:
            return [TARGETS[TARGET_TYPES[self.family][0]][0](int(v)) for v in self.y[0].tolist()]
        return [_unchecked(RealVector, v) for v in _frozen(self.y.T.copy())]

    def take(self, index) -> "Columns":
        """A view of the predictions at ``index``, an integer array of any shape."""

        def pick(arrays):
            return tuple(None if a is None else a.take(index, axis=-1) for a in arrays)

        (emb, y, weights), params = pick((self.emb, self.y, self.weights)), pick(self.params)
        return Columns(self.family, emb, params, y, weights, pick(self.draws), at=index)

    def temperature_scaled(self, t: float) -> "Columns":
        """Generalized temperature scaling with temperature ``t`` > 0.

        Categorical probabilities are raised to the power 1/t and renormalized;
        normal variances and Laplace scales are multiplied by t. Means and
        locations are unchanged, so point predictions keep their accuracy.
        """
        t, family = _real(t, "temperature", scalar=True), self.family if self.weights is None else "mixture"
        if not math.isfinite(t) or t <= 0:
            raise ParameterError(f"temperature must be finite and positive, got {t!r}")
        if family == "categorical":  # over the largest mass, so that no row underflows to 0 / 0
            powered = (self.emb / self.emb.max(axis=0)) ** (1.0 / t)
            return Columns.build(family, (powered / powered.sum(axis=0),), self.y)
        if family not in ("diag_normal", "laplace"):
            raise FamilyError(f"temperature scaling has no closed form for family {family!r}")
        canonical, rules = (self.params[0], self.params[1] * t), FAMILIES[family][2]
        check_rows(rules(*(a.T for a in canonical))[0])  # a scale may overflow, or underflow to 0
        return Columns.build(family, canonical, self.y)

    # Predictive laws, one closed form per family. A mixture's is a weighted sum, or a
    # log-sum-exp, over its component axis, where its zero-weight padding adds nothing.

    def cdf(self, y) -> np.ndarray:
        """P(Z <= y) for Z ~ each univariate prediction or count law, ``y`` broadcast against them."""
        if self.family == "categorical" or self.dim != 1 and self.family != "truncated_countable":
            raise DimensionError(f"no cdf of {self.family!r} predictions of dimension {self.dim}")
        if self.weights is not None:
            return np.sum(self.weights * replace(self, weights=None).cdf(y), axis=0)
        if self.family == "diag_normal":
            mean, var = self.params[0][0], self.params[1][0]
            point = var == 0.0
            z = (mean - y) / np.sqrt(2.0 * np.where(point, 1.0, var))
            return np.where(point, 1.0 * (y >= mean), 0.5 * np.asarray(_ERFC(z), dtype=np.float64))
        if self.family == "laplace":
            loc, scale = (a[0] for a in self.params)
            z = (y - loc) / scale
            half = 0.5 * np.exp(-np.abs(z))
            return np.where(z < 0, half, 1.0 - half)
        cumulative = np.cumsum(self.emb[:-1], axis=0)
        k = np.clip(np.floor(y), 0, len(cumulative) - 1).astype(np.intp)
        k = np.broadcast_to(k, cumulative.shape[1:])[None]
        return np.where(y < 0, 0.0, np.take_along_axis(cumulative, k, 0)[0])

    def quantile(self, tau: float) -> np.ndarray:
        """inf{y : P(Z <= y) >= tau} for Z ~ each univariate prediction, ``tau`` in (0, 1).

        A mixture's is found by bisection to 1e-12, bracketed by the quantiles of its components.
        """
        tau = _real(tau, "quantile level", scalar=True)
        if not 0.0 < tau < 1.0:
            raise ParameterError(f"quantile level must lie in (0, 1), got {tau!r}")
        if self.family in DISCRETE or self.dim != 1:
            raise DimensionError(f"no quantile of {self.family!r} predictions of dimension {self.dim}")
        if self.weights is not None:
            parts = replace(self, weights=None).quantile(tau)
            lo, hi = parts.min(axis=0), parts.max(axis=0)
            hi = np.where(self.cdf(lo) >= tau, lo, hi)  # an atom at lo, or all quantiles equal
            while True:  # F(lo) < tau <= F(hi) where lo < hi
                mid = 0.5 * (lo + hi)
                open_ = (hi - lo > 1e-12) & (lo < mid) & (mid < hi)
                if not open_.any():
                    return hi
                above = self.cdf(mid) >= tau
                lo, hi = np.where(open_ & ~above, mid, lo), np.where(open_ & above, mid, hi)
        if self.family == "diag_normal":
            return self.params[0][0] + np.sqrt(self.params[1][0]) * _STANDARD_NORMAL.inv_cdf(tau)
        loc, scale = (a[0] for a in self.params)
        return loc + scale * math.log(2.0 * tau) if tau < 0.5 else loc - scale * math.log(2.0 * (1.0 - tau))

    def log_density(self) -> np.ndarray:
        """Log density of each prediction at its target; log mass for a discrete law."""
        y = self.y
        if self.weights is not None:
            parts = replace(self, weights=None, y=y[:, None]).log_density()
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(self.weights > 0, np.log(self.weights) + parts, -np.inf)
                top = terms.max(axis=0)
                total = top + np.log(np.sum(np.exp(terms - top), axis=0))
            return np.where(np.isinf(top), top, total)
        if self.family == "diag_normal":
            # the limit as the zero variances shrink to 0: +inf where every point-mass coordinate
            # equals its mean exactly, else -inf; the other coordinates do not decide
            mean, var = self.params
            point = var == 0.0
            atom = np.all(~point | (y == mean), axis=0)
            safe = np.where(point, 1.0, var)
            value = -0.5 * (np.sum((y - mean) ** 2 / safe, axis=0) + np.sum(np.log(2.0 * math.pi * safe), axis=0))
            return np.where(point.any(axis=0), np.where(atom, np.inf, -np.inf), value)
        if self.family == "laplace":
            loc, scale = (a[0] for a in self.params)
            return -np.abs(y[0] - loc) / scale - np.log(2.0 * scale)
        probs = self.emb if self.family == "categorical" else self.emb[:-1]
        index = np.broadcast_to(y[0].astype(np.intp), probs.shape[1:])
        beyond = index >= len(probs)  # past a truncation: no mass if the tail mass is 0, else unknown
        if self.family != "categorical" and np.any(beyond & (self.emb[-1] > 0)):
            raise FamilyError("log mass beyond the truncation point is undetermined (tail mass > 0)")
        mass = np.take_along_axis(probs, np.minimum(index, len(probs) - 1)[None], 0)[0]
        with np.errstate(divide="ignore"):
            return np.where(beyond, -np.inf, np.log(mass))

    def mean(self) -> np.ndarray:
        """The mean vector of each prediction, (d, n)."""
        if self.weights is not None:
            return np.sum(self.weights * replace(self, weights=None).mean(), axis=-2)
        if self.family in ("diag_normal", "laplace"):
            return self.params[0]
        raise FamilyError(f"no predictive mean for family {self.family!r}")


def _stack(rows) -> np.ndarray:
    """(dimension, n) array of n equal-length rows, or (1, n) of n numbers."""
    return np.array(rows, dtype=np.float64).reshape(len(rows), -1).T


def _target_dim(family: str, params: tuple) -> int:
    return 1 if family in DISCRETE else params[0].shape[0]


def _expect(tk: TargetKernel, x: Columns, y, tile: bool = False):
    """E k_Y(Z, y) for Z ~ the predictions of ``x``, at target coordinates ``y``; normals and
    discrete laws on a ``tile`` as a matrix product."""
    if x.draws:
        return np.mean(_target_kernel(tk, x.draws[1], y[:, None]), axis=0)
    if x.weights is not None:  # a weighted sum over the components
        return np.sum(x.weights * _expect(tk, replace(x, weights=None), y[:, None]), axis=0)
    if x.family == "diag_normal":
        return (_normal_expect_tile if tile else _normal_expect)(*x.params, y, tk.gamma)
    if x.family == "laplace":
        return _laplace_expect(*x.params, y, tk.gamma)[0]
    return _discrete_expect(tk, x.params[0], y, tile)


def _double_expect(tk: TargetKernel, x: Columns, z: Columns):
    """E k_Y(Z, Z') for Z ~ the predictions of ``x`` and Z' ~ those of ``z``.

    Over Monte-Carlo draws the prediction with the smaller key takes its
    "pair-left" samples and the other its "pair-right" ones (``x`` left on a
    tie), so the estimate, and with it h, is symmetric in x and z.
    """
    if x.draws:
        swap = z.draws[0] < x.draws[0]
        left = np.where(swap, z.draws[-2], x.draws[-2])
        right = np.where(swap, x.draws[-1], z.draws[-1])
        return np.mean(_target_kernel(tk, left, right), axis=0)
    if x.weights is not None:  # two mixtures: a weighted sum over the K x K component pairs
        x_k = replace(x, weights=None, params=[a[:, :, None] for a in x.params])
        grid = _double_expect(tk, x_k, replace(z, weights=None, params=[a[:, None] for a in z.params]))
        return np.sum(x.weights[:, None] * z.weights[None] * grid, axis=(0, 1))
    if x.family == "diag_normal":
        return _normal_expect(x.params[0], x.params[1] + z.params[1], z.params[0], tk.gamma)
    if x.family == "laplace":
        return _laplace_double(*x.params, *z.params, tk.gamma)[0]
    return _discrete_double(tk, x.params[0], z.params[0])


def _check_metric(metric: PredictionMetric, x: Columns, z: Columns) -> None:
    """Raise what ``metric`` raises between the predictions of ``x`` and ``z``.

    ParamEuclidean embeds no mixture. W2 compares normals, or Laplace laws,
    with each other; MW also their mixtures, a plain prediction being a
    mixture of one component. Each compares embeddings of one size only.
    """
    laws = [c.family if c.weights is None else "mixture" for c in (x, z)]
    if isinstance(metric, ParamEuclidean):
        if "mixture" in laws:
            raise ConfigurationError("no canonical parameter embedding for family 'mixture'")
    elif x.family != z.family or x.family not in ("diag_normal", "laplace") or (
        isinstance(metric, W2) and "mixture" in laws
    ):
        raise FamilyError(f"no {type(metric).__name__} between {laws[0]!r} and {laws[1]!r}")
    if x.emb.shape[0] != z.emb.shape[0]:
        raise DimensionError(
            f"no {type(metric).__name__} between predictions of mismatched dimensions "
            f"(parameter embeddings of {x.emb.shape[0]} and {z.emb.shape[0]} coordinates)"
        )


def _distance(metric: PredictionMetric, x: Columns, z: Columns, need=None):
    """d between the predictions of the views ``x`` and ``z``, broadcast together.

    W2 and ParamEuclidean are the Euclidean distance of the embeddings
    ``emb``. MW is evaluated where the boolean ``need`` is true (everywhere
    when it is None) and is inf elsewhere; the transport problems of those
    pairs go to one batched solve, a plain prediction being a mixture of one
    component.
    """
    if not isinstance(metric, MW):
        sq = _row_sum(x.emb, z.emb)
        return np.sqrt(sq, out=sq)
    shape = np.broadcast_shapes(x.at.shape, z.at.shape)
    need = np.broadcast_to(True if need is None else need, shape)

    def needed(c):  # W2 embeddings (e, K, P) and weights (K, P) of the components at the needed pairs
        emb, w = (c.emb[:, None], np.ones_like(c.emb[:1])) if c.weights is None else (c.emb, c.weights)
        return [np.broadcast_to(a, a.shape[: a.ndim - len(shape)] + shape)[..., need] for a in (emb, w)]

    (ea, wa), (eb, wb) = needed(x), needed(z)
    cost = np.sqrt(_row_sum(ea[:, :, None], eb[:, None])) ** metric.s
    value = _solve_transport(wa.T, wb.T, np.moveaxis(cost, -1, 0))
    dist = np.full(shape, np.inf)
    dist[need] = np.maximum(value, 0.0) ** (1.0 / metric.s)
    return dist


def _prediction_kernel(pk: PredictionKernel, x: Columns, z: Columns, need=None):
    """k_P between the predictions of the views ``x`` and ``z``: exp(-lam d^nu) of ``_distance``,
    so 0 under MW where ``need`` is false."""
    return _kernel_of(pk, _distance(pk.metric, x, z, need))


def _with_expectations(spec: KernelSpec, columns: Columns, labels=("single", "pair-left", "pair-right")):
    """``columns`` with the Monte-Carlo draws of ``labels``, or checked for closed-form expectations."""
    tk, mode = spec.target_kernel, spec.expectation
    if isinstance(mode, MonteCarlo):
        size = len(labels) * mode.samples * _target_dim(columns.family, columns.params) * len(columns)
        check_allocation(8 * size, f"{mode.samples} Monte-Carlo samples of {len(columns)} predictions")
        return replace(columns, draws=_draws(mode, columns, labels))
    closed = {"diag_normal": GaussianRBF, "laplace": LaplacianExp}.get(columns.family, TargetKernel)
    if not isinstance(tk, closed):  # discrete laws take every target kernel
        raise ConfigurationError(
            f"no closed-form expectation for family {columns.family!r} with "
            f"{type(tk).__name__}; use MonteCarlo expectation mode"
        )
    return columns


# The last (spec, columns, prepared columns) of ``prepare``.
_prepared = None


def prepare(spec: KernelSpec, columns: Columns, sites: Columns | None = None) -> Columns:
    """``columns`` checked against ``spec`` and given their Monte-Carlo draws and ``route``.

    Raises, before any tile, what ``eval_h`` raises on a pair of ``columns``
    (given test locations ``sites``, a ``FamilyError`` if they take another
    type of target, else what a CME feature of one raises). The last
    preparation is kept and returned again for an equal spec and the same
    ``columns`` object, so the reductions of one dataset share its draws; it
    is dropped before another is made, so at most one is held.
    """
    global _prepared
    if sites is not None and TARGET_TYPES[sites.family][0] != TARGET_TYPES[columns.family][0]:
        raise FamilyError(
            f"test locations take {TARGET_TYPES[sites.family][1]} targets, "
            f"the data {TARGET_TYPES[columns.family][1]} targets"
        )
    # with one type of target, embeddings of one size have targets of one dimension
    _check_metric(spec.prediction_kernel.metric, columns if sites is None else sites, columns)
    last = _prepared
    if last is None or last[1] is not columns or last[0] != spec:
        _prepared = None
        last = _prepared = (spec, columns, replace(_with_expectations(spec, columns), route=route(spec, columns)))
    return last[2]


# ---------------------------------------------------------------------------
# Prediction-space metric and kernel


def prediction_distance(metric: PredictionMetric, p: Prediction, q: Prediction) -> float:
    """d(p, q): ``_distance`` between the one-column views of ``p`` and ``q``."""
    x, z = (Columns.of([r]).take(np.zeros(1, dtype=np.intp)) for r in (p, q))
    _check_metric(metric, x, z)
    return float(_distance(metric, x, z)[0])


def eval_prediction_kernel(pk: PredictionKernel, p: Prediction, q: Prediction) -> float:
    d = prediction_distance(pk.metric, p, q)
    return math.exp(-pk.lam * d**pk.nu)


# ---------------------------------------------------------------------------
# Target kernel on concrete targets


def _target_coords(y: Target) -> np.ndarray:
    value = target_value(y)
    if value is None:
        raise FamilyError(f"unknown target type {type(y).__name__}")
    return np.atleast_1d(np.asarray(value, dtype=np.float64))


def eval_target_kernel(tk: TargetKernel, y: Target, z: Target) -> float:
    a, b = _target_coords(y), _target_coords(z)
    if a.shape != b.shape:
        if isinstance(tk, KroneckerDelta):
            return 0.0
        raise DimensionError("target dimensions do not match")
    return float(_target_kernel(tk, a[:, None], b[:, None])[0])


# ---------------------------------------------------------------------------
# Monte-Carlo expectations


def _digest(*parts) -> bytes:
    """The 8-byte blake2b digest of the bytes of ``parts`` in turn."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(part)
    return h.digest()


def _draws(mode: MonteCarlo, columns: Columns, labels) -> tuple:
    """Keys of the predictions of ``columns`` and their samples of each of ``labels``, ordered as
    in ``Columns.draws``, each from the substream of its key and the label.

    A key is blake2b over the family and the bytes of the prediction's field rows; a mixture's
    over its kept weights and the keys of its components, whose draws it shuffles together.
    """
    family, size = columns.family, mode.samples
    fields = [np.moveaxis(a, 0, -1).copy() for a in columns.canonical()]  # C-ordered field rows

    def key(*at) -> bytes:  # of the law whose field rows are at ``at``
        return _digest(family.encode(), *(f[at] for f in fields))

    if columns.weights is None:
        keys = [key(i) for i in range(len(columns))]

        def coords(i, rng):
            return _sample(family, [f[i] for f in fields], rng, size)
    else:
        weights = columns.weights.T.copy()
        kept = [w[:m] for w, m in zip(weights, np.count_nonzero(weights, axis=1).tolist())]
        keys = [_digest(b"mixture", w, *(key(c, i) for c in range(len(w)))) for i, w in enumerate(kept)]

        def coords(i, rng):
            counts = rng.multinomial(size, kept[i])
            parts = [_sample(family, [f[c, i] for f in fields], rng, int(m)) for c, m in enumerate(counts) if m > 0]
            return np.concatenate(parts, axis=0)[rng.permutation(size)]

    keys = np.frombuffer(b"".join(keys), dtype="<u8")
    return (keys,) + tuple(
        np.stack([coords(i, substream(mode.seed, k, label)).T for i, k in enumerate(keys.tolist())], -1)
        for label in labels
    )


# ---------------------------------------------------------------------------
# Public kernel surface


def expect_target_kernel(spec: KernelSpec, p: Prediction, y: Target) -> float:
    """E_{Z ~ p} k_Y(Z, y)."""
    x, coords = _with_expectations(spec, Columns.of([p]), ("single",)), _target_coords(y)
    real = isinstance(y, RealVector) or x.family in DISCRETE
    if not real or coords.shape != (_target_dim(x.family, x.params),):
        raise DimensionError("target must be a real vector matching the prediction dimension")
    return float(_expect(spec.target_kernel, x, coords[:, None])[0])


def double_expect_target_kernel(spec: KernelSpec, p: Prediction, q: Prediction) -> float:
    """E_{Z ~ p, Z' ~ q} k_Y(Z, Z')."""
    if isinstance(spec.expectation, Analytic) and isinstance(p, Mixture) != isinstance(q, Mixture):
        p, q = (r if isinstance(r, Mixture) else Mixture([1.0], [r]) for r in (p, q))
    x, z = (_with_expectations(spec, Columns.of([r]), ("pair-left", "pair-right")) for r in (p, q))
    if not (x.draws or x.family == z.family or {x.family, z.family} <= set(DISCRETE)):
        raise ConfigurationError(f"no closed form across {p.family!r}, {q.family!r}; use MonteCarlo mode")
    if _target_dim(x.family, x.params) != _target_dim(z.family, z.params):
        raise DimensionError("prediction dimensions do not match")
    return float(_double_expect(spec.target_kernel, x, z)[0])


def eval_kernel(spec: KernelSpec, p: Prediction, y: Target, q: Prediction, z: Target) -> float:
    """Tensor-product kernel value on two (prediction, target) pairs."""
    return eval_prediction_kernel(spec.prediction_kernel, p, q) * eval_target_kernel(
        spec.target_kernel, y, z
    )


def eval_h(spec: KernelSpec, p: Prediction, y: Target, q: Prediction, z: Target) -> float:
    """Kernel on two pairs with each prediction's own law marginalized out.

    For tensor kernels this factors as k_P(p, q) times the centered
    target-kernel bracket.
    """
    kp = eval_prediction_kernel(spec.prediction_kernel, p, q)
    bracket = (
        eval_target_kernel(spec.target_kernel, y, z)
        - expect_target_kernel(spec, p, z)
        - expect_target_kernel(spec, q, y)
        + double_expect_target_kernel(spec, p, q)
    )
    return kp * bracket


# ---------------------------------------------------------------------------
# Tiled evaluation

# Bytes of the float64 temporaries of one tile, from which ``tile_size``
# sets the tile side.
TILE_BYTES = 1 << 20

# The paths of ``route`` whose outer-product tiles take the tile forms of ``h_values``.
_TILE_PATHS = ("normal GEMM", "discrete GEMM")


def route(spec: KernelSpec, columns: Columns) -> tuple:
    """The path that h of ``columns`` takes under ``spec``, as reports name it, the floats per pair
    that its tile temporaries hold, from which ``tile_size`` sets the tile side, and whether every
    prediction is an isotropic normal.

    The paths are "Monte-Carlo" (4 d S floats over S draws in d dimensions), "MW transport",
    "Laplace direct", "normal GEMM" and "discrete GEMM". "Laplace direct" counts the 21 T x T arrays
    that its closed forms hold at their peak (20.2 measured, where every location is equal). The
    GEMM paths count the 3 T x T arrays that a tile evaluated in place holds at its peak;
    anisotropic normals 4 d + 4, for the (d, T, T) arrays of ``_normal_expect``. "MW transport"
    evaluates its expectations for each of the K^2 component pairs of mixtures of K components (a
    plain prediction has one), so it counts K^2 times what one component pair holds, 21 for
    Laplace laws and 3 d + 4 for normals of dimension d, and 2 d + 4 for the transport inputs. It
    counts 34 and 69 floats for normals at d = 1 and K = 2 and 3 (26.3 and 56.5 measured), 160 at
    d = 10 and K = 2 (128 measured) and 195 for Laplace laws at K = 3 (166 measured, every
    location equal).
    """
    if isinstance(spec.expectation, MonteCarlo):
        return "Monte-Carlo", 4 * spec.expectation.samples * _target_dim(columns.family, columns.params), False
    if isinstance(spec.prediction_kernel.metric, MW):
        k, d = (1 if columns.weights is None else columns.weights.shape[0]), columns.dim
        return "MW transport", (21 if columns.family == "laplace" else 3 * d + 4) * k * k + 2 * d + 4, False
    if columns.family == "laplace":
        return "Laplace direct", 21, False
    if columns.family != "diag_normal":
        return "discrete GEMM", 3, False
    isotropic = bool(np.all(columns.params[1] == columns.params[1][:1]))
    return "normal GEMM", 3 if isotropic else 4 * columns.dim + 4, isotropic


def tiling(spec: KernelSpec, columns: Columns) -> dict:
    """The ``path`` and ``tile`` side of the reductions of h over ``columns`` under ``spec``, for their reports."""
    columns = prepare(spec, columns)
    return {"path": columns.route[0], "tile": tile_size(columns)}


def tile_size(columns: Columns) -> int:
    """Side of the square tiles over which h of ``columns`` from ``prepare`` is evaluated: their
    pairs hold TILE_BYTES of the floats per pair that their ``route`` counts."""
    return max(1, math.isqrt(TILE_BYTES // (8 * columns.route[1])))


def h_tiles(spec: KernelSpec, columns: Columns, block_size: int, num_blocks: int = 1, pairs=np.less):
    """The one walk over h tiles: h over the pairs (i, j) with ``pairs(i, j)`` of each of the first
    ``num_blocks`` blocks of ``block_size`` rows of ``columns``, one square tile at a time, those on
    or above a block's diagonal for ``np.less`` or ``np.less_equal`` and every tile for None.

    Yields the first block of a tile, its ``rows`` and ``cols`` within a block as slices, h and the
    mask of the pairs counted (True, all, for None), the last two (blocks, rows, cols): blocks smaller
    than a tile are evaluated several at a time, stacked along the leading axis.
    """
    columns = prepare(spec, columns)
    size = tile_size(columns)
    side = min(block_size, size)
    group = max(1, size**2 // side**2)
    for lo in range(0, block_size, side):
        rows = slice(lo, min(lo + side, block_size))
        for hi in range(0 if pairs is None else lo, block_size, side):
            cols = slice(hi, min(hi + side, block_size))
            for first in range(0, num_blocks, group):
                offsets = np.arange(first, min(first + group, num_blocks))[:, None, None] * block_size
                i, j = offsets + np.arange(lo, rows.stop)[:, None], offsets + np.arange(hi, cols.stop)
                counted = True if pairs is None else pairs(i, j)
                yield first, rows, cols, h_values(spec, columns, i, j, counted), counted


def h_values(spec: KernelSpec, columns: Columns, i, j, need=None) -> np.ndarray:
    """h between rows ``i`` and ``j`` of ``columns`` from ``prepare``, index arrays broadcast together.

    Under MW, h is evaluated only where the boolean ``need`` is true (all
    pairs when it is None) and is 0 elsewhere: a reduction over the symmetric
    h asks for one triangle only.

    On the normal and discrete paths of the ``route``, an outer-product tile,
    ``i`` of shape (..., T, 1) and ``j`` of (..., 1, T'), takes the tile forms
    in place; where ``j`` is ``i`` transposed, E k(Z_j, y_i) is the transpose
    of E k(Z_i, y_j).
    """
    pk, tk, x, z = spec.prediction_kernel, spec.target_kernel, columns.take(i), columns.take(j)
    if not (columns.route[0] in _TILE_PATHS and i.ndim == j.ndim >= 2 and i.shape[-1] == 1 and j.shape[-2] == 1):
        return _prediction_kernel(pk, x, z, need) * (
            _target_kernel(tk, x.y, z.y) - _expect(tk, x, z.y) - _expect(tk, z, x.y) + _double_expect(tk, x, z)
        )
    if x.family == "diag_normal":
        kp, h = _normal_tile(pk, tk, x, z, columns.route[2])
    else:
        kp, h = _prediction_kernel(pk, x, z), _discrete_double(tk, x.params[0], z.params[0], True)
    h += _target_kernel(tk, x.y, z.y, True)
    first = _expect(tk, x, z.y, True)
    h -= first
    if np.array_equal(i[..., 0], j[..., 0, :]):
        h -= first.swapaxes(-1, -2)
    else:
        del first  # so that the tile holds at most three T x T arrays here
        h -= _expect(tk, z, x.y, True)
    h *= kp
    return h


def _normal_tile(pk: PredictionKernel, tk: GaussianRBF, x: Columns, z: Columns, isotropic: bool):
    """k_P and E k_Y(Z, Z') on an outer-product tile of normals.

    Isotropic normals share the squared mean distances M with the W2 distance and take, in place,
    exp(-gamma M / D) / D^(d/2) with D = 1 + 2 gamma (v + v'); other normals take ``_normal_expect``.
    """
    d, gamma, (m1, v1), (m2, v2) = x.dim, tk.gamma, x.params, z.params
    if not isotropic:
        return _prediction_kernel(pk, x, z), _normal_expect(m1, v1 + v2, m2, gamma)
    quad = _row_sum(m1, m2)
    kp = _row_sum(math.sqrt(d) * x.emb[d : d + 1], math.sqrt(d) * z.emb[d : d + 1])  # adds d (s - s')^2
    kp += quad
    kp = _kernel_of(pk, np.sqrt(kp, out=kp))
    norm = np.add(0.5 + 2.0 * gamma * v1[0], 0.5 + 2.0 * gamma * v2[0])
    quad /= norm
    norm **= 0.5 * d
    quad *= -gamma
    double = np.exp(quad, out=quad)
    double /= norm
    return kp, double


def pairwise_h(spec: KernelSpec, predictions, targets, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """h values for the index pairs (rows[k], cols[k])."""
    columns = prepare(spec, Columns.of(predictions, targets))
    return h_values(spec, columns, checked_index(rows, len(columns)), checked_index(cols, len(columns)))


def cme_values(spec: KernelSpec, columns: Columns, sites: Columns) -> np.ndarray:
    """n x J matrix k(T_j, (p_i, y_i)) - E_{Z~p_i} k(T_j, (p_i, Z)).

    Rows are the pairs (p_i, y_i) of ``columns``, columns the test locations
    T_j of ``sites``; blocks of rows are evaluated as one tile each.
    """
    columns, tk = prepare(spec, columns, sites), spec.target_kernel
    tile, n, j_count = columns.route[0] in _TILE_PATHS, len(columns), len(sites)
    t, step = sites.take(np.arange(j_count)[None, :]), max(1, tile_size(columns) ** 2 // j_count)
    z = np.empty((n, j_count))
    for lo in range(0, n, step):
        x = columns.take(np.arange(lo, min(lo + step, n))[:, None])
        z[lo : lo + step] = _prediction_kernel(spec.prediction_kernel, t, x) * (
            _target_kernel(tk, t.y, x.y, tile) - _expect(tk, x, t.y, tile)
        )
    return z
