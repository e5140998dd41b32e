"""Tensor-product kernels on (prediction, target) pairs.

A kernel spec combines an exponential-metric kernel on the prediction space
with a target-space kernel, evaluated either with closed-form expectations
over predicted distributions or with seeded Monte-Carlo averaging. The
centered kernel ``eval_h`` is the building block of all SKCE estimators.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    Categorical,
    ClassLabel,
    Count,
    DiagNormal,
    Laplace,
    Mixture,
    Prediction,
    RealVector,
    Target,
    TruncatedCountable,
    mixture_wasserstein,
    wasserstein2,
)
from .exceptions import ConfigurationError, DimensionError, FamilyError, ParameterError
from .rng import substream

# Relative half-width of the band around the Laplacian kernel poles inside
# which the limit formulas replace the exact ones (which divide by
# beta^2 * gamma^2 - 1 and beta^2 - beta'^2).
_LAPLACE_POLE_TOL = 1e-8


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
        if self.samples < 1:
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
# loops run over the pairs rather than over a short dimension. Distances take
# direct differences: a Gram expansion inside the square root loses about 8
# digits.


def _distance(a, b):
    return np.sqrt(np.sum((a - b) ** 2, axis=0))


def _prediction_kernel(pk: PredictionKernel, a, b):
    return np.exp(-pk.lam * _distance(a, b) ** pk.nu)


def _target_kernel(tk: TargetKernel, a, b):
    if isinstance(tk, KroneckerDelta):
        return np.all(a == b, axis=0).astype(np.float64)
    if isinstance(tk, GaussianRBF):
        return np.exp(-tk.gamma * np.sum((a - b) ** 2, axis=0))
    return np.exp(-tk.gamma * np.sum(np.abs(a - b), axis=0))


def _normal_expect(mean, var, y, gamma):
    """E exp(-gamma ||Z - y||^2) for Z ~ N(mean, diag(var)).

    With var = var1 + var2 and y = mean2 this is the double expectation
    over two independent normals.
    """
    denom = 1.0 + 2.0 * gamma * var
    quad = np.sum((mean - y) ** 2 / denom, axis=0)
    return np.exp(-gamma * quad) / np.sqrt(np.prod(denom, axis=0))


def _laplace_expect(loc, scale, y, gamma):
    """E exp(-gamma |Z - y|) for Z ~ Laplace(loc, scale)."""
    m = np.abs(loc - y)
    bg = scale * gamma
    pole = np.abs(bg - 1.0) <= _LAPLACE_POLE_TOL
    denom = np.where(pole, 1.0, bg * bg - 1.0)
    exact = (bg * np.exp(-m / scale) - np.exp(-gamma * m)) / denom
    limit = 0.5 * (1.0 + gamma * m) * np.exp(-gamma * m)
    return np.where(pole, limit, exact)


def _laplace_double(l1, b1, l2, b2, gamma):
    """E exp(-gamma |Z - Z'|) for independent Z ~ Laplace(l1, b1), Z' ~ Laplace(l2, b2)."""
    m = np.abs(l1 - l2)
    g1 = b1 * gamma
    g2 = b2 * gamma
    pole1 = np.abs(g1 - 1.0) <= _LAPLACE_POLE_TOL
    pole2 = np.abs(g2 - 1.0) <= _LAPLACE_POLE_TOL
    eq = np.abs(b1 - b2) <= _LAPLACE_POLE_TOL * np.maximum(b1, b2)
    c1 = np.where(pole1, 1.0, g1 * g1 - 1.0)
    c2 = np.where(pole2, 1.0, g2 * g2 - 1.0)
    d = b1 * b1 - b2 * b2
    d_safe = np.where(eq, 1.0, d)

    def one_pole(g, c, b):  # the other scale sits at the pole
        return g**3 / (c * c) * np.exp(-m / b) - (
            (1.0 + gamma * m) / (2.0 * c) + g * g / (c * c)
        ) * np.exp(-gamma * m)

    both = (3.0 + 3.0 * gamma * m + (gamma * m) ** 2) / 8.0 * np.exp(-gamma * m)
    equal = np.exp(-gamma * m) / (c1 * c1) + (
        gamma * (b1 + m) / (2.0 * c1) - g1 / (c1 * c1)
    ) * np.exp(-m / b1)
    p1only = one_pole(g2, c2, b2)
    p2only = one_pole(g1, c1, b1)
    generic = (
        gamma * b1**3 / (c1 * d_safe) * np.exp(-m / b1)
        - gamma * b2**3 / (c2 * d_safe) * np.exp(-m / b2)
        + np.exp(-gamma * m) / (c1 * c2)
    )
    out = generic
    out = np.where(eq & ~pole1, equal, out)
    out = np.where(pole1 & ~pole2, p1only, out)
    out = np.where(pole2 & ~pole1, p2only, out)
    out = np.where(pole1 & pole2, both, out)
    return out


def _support(size: int, ndim: int) -> np.ndarray:
    """Coordinates of the points 0, ..., size - 1 along axis 1 of ``ndim`` axes."""
    return np.arange(size, dtype=np.float64).reshape((1, size) + (1,) * (ndim - 2))


def _discrete_expect(tk: TargetKernel, probs, y):
    """E k(Z, y) for Z with masses ``probs`` on the points 0, 1, ..."""
    kernel = _target_kernel(tk, _support(probs.shape[0], y.ndim + 1), y[:, None])
    return np.sum(probs * kernel, axis=0)


def _discrete_double(tk: TargetKernel, p, q):
    grid = _target_kernel(tk, _support(p.shape[0], 3), _support(q.shape[0], 3).swapaxes(1, 2))
    return np.sum(p * np.tensordot(grid, q, axes=(1, 0)), axis=0)


# ---------------------------------------------------------------------------
# Columnar parameter arrays


_DISCRETE = ("categorical", "truncated_countable")


@dataclass(frozen=True, eq=False)
class Columns:
    """Parameter arrays of predictions of one family, one column per prediction.

    ``emb`` is the canonical parameter embedding (for normals and Laplace
    also the W2 embedding), ``params`` holds what the expectations read
    (mean and var, loc and scale, or the masses of a discrete law) and ``y``
    the target coordinates; the last axis runs over the predictions.
    Mixtures keep only the lists, which the per-pair fallback reads.
    """

    family: str
    emb: np.ndarray | None = None
    params: tuple = ()
    y: np.ndarray | None = None
    predictions: list = field(default_factory=list)
    targets: list | None = None

    @classmethod
    def of(cls, predictions, targets=None) -> "Columns":
        p0 = predictions[0]
        emb, params, y = None, (), None
        try:
            if isinstance(p0, DiagNormal):
                params = (_stack([p.mean for p in predictions]), _stack([p.var for p in predictions]))
                emb = np.concatenate([params[0], np.sqrt(params[1])])
            elif isinstance(p0, Laplace):
                params = (np.array([p.loc for p in predictions]), np.array([p.scale for p in predictions]))
                emb = np.stack([params[0], math.sqrt(2.0) * params[1]])
            elif isinstance(p0, Categorical):
                emb = _stack([p.probs for p in predictions])
                params = (emb,)
            elif isinstance(p0, TruncatedCountable):
                probs = _stack([p.probs for p in predictions])
                emb = np.concatenate([probs, [[p.tail_mass for p in predictions]]])
                # Expectations renormalize over the truncated support; the
                # induced absolute error is bounded by 2 * tail_mass.
                params = (probs / probs.sum(axis=0),)
            if emb is not None and targets is not None:
                y = _stack([_target_coords(t) for t in targets])
        except ValueError as exc:  # ragged rows
            raise DimensionError("predictions and targets of one batch must share one dimension") from exc
        if y is not None and y.shape[0] != _target_dim(p0.family, params):
            raise DimensionError("target dimension does not match the prediction dimension")
        return cls(p0.family, emb, params, y, predictions, targets)

    def take(self, index) -> "Columns":
        """The predictions at ``index``, an integer array of any shape."""
        return Columns(
            self.family,
            self.emb.take(index, axis=-1),
            tuple(a.take(index, axis=-1) for a in self.params),
            None if self.y is None else self.y.take(index, axis=-1),
        )


def _stack(rows) -> np.ndarray:
    """(dimension, n) array of n equal-length rows."""
    return np.array(rows, dtype=np.float64).T


def _target_dim(family: str, params: tuple) -> int:
    return params[0].shape[0] if family == "diag_normal" else 1


def _expectations_closed(family: str, tk: TargetKernel) -> bool:
    if family == "diag_normal":
        return isinstance(tk, GaussianRBF)
    if family == "laplace":
        return isinstance(tk, LaplacianExp)
    return family in _DISCRETE


def _closed_form(spec: KernelSpec, family: str) -> bool:
    """Whether h between two predictions of ``family`` has a closed form."""
    metric = spec.prediction_kernel.metric
    if isinstance(metric, W2):
        metric_closed = family in ("diag_normal", "laplace")
    else:
        metric_closed = isinstance(metric, ParamEuclidean)
    return (
        isinstance(spec.expectation, Analytic)
        and metric_closed
        and _expectations_closed(family, spec.target_kernel)
    )


def _expect(tk: TargetKernel, x: Columns, y):
    """E k_Y(Z, y) for Z ~ the predictions of ``x``, at target coordinates ``y``."""
    if x.family == "diag_normal":
        return _normal_expect(*x.params, y, tk.gamma)
    if x.family == "laplace":
        return _laplace_expect(*x.params, y[0], tk.gamma)
    return _discrete_expect(tk, x.params[0], y)


def _double_expect(tk: TargetKernel, x: Columns, z: Columns):
    """E k_Y(Z, Z') for Z ~ the predictions of ``x`` and Z' ~ those of ``z``."""
    if x.family == "diag_normal":
        (m1, v1), (m2, v2) = x.params, z.params
        return _normal_expect(m1, v1 + v2, m2, tk.gamma)
    if x.family == "laplace":
        return _laplace_double(*x.params, *z.params, tk.gamma)
    return _discrete_double(tk, x.params[0], z.params[0])


def _h(spec: KernelSpec, x: Columns, z: Columns):
    tk = spec.target_kernel
    kp = _prediction_kernel(spec.prediction_kernel, x.emb, z.emb)
    return kp * (
        _target_kernel(tk, x.y, z.y)
        - _expect(tk, x, z.y)
        - _expect(tk, z, x.y)
        + _double_expect(tk, x, z)
    )


# ---------------------------------------------------------------------------
# Prediction-space metric and kernel


def _param_embedding(p: Prediction) -> np.ndarray:
    emb = Columns.of([p]).emb
    if emb is None:
        raise ConfigurationError(f"no canonical parameter embedding for family {p.family!r}")
    return emb[:, 0]


def prediction_distance(metric: PredictionMetric, p: Prediction, q: Prediction) -> float:
    if isinstance(metric, W2):
        return wasserstein2(p, q)
    if isinstance(metric, MW):
        if not isinstance(p, Mixture):
            p = Mixture([1.0], [p])
        if not isinstance(q, Mixture):
            q = Mixture([1.0], [q])
        return mixture_wasserstein(p, q, metric.s)
    a, b = _param_embedding(p), _param_embedding(q)
    if a.shape != b.shape:
        raise DimensionError("parameter embeddings have mismatched dimensions")
    return float(_distance(a, b))


def eval_prediction_kernel(pk: PredictionKernel, p: Prediction, q: Prediction) -> float:
    d = prediction_distance(pk.metric, p, q)
    return math.exp(-pk.lam * d**pk.nu)


# ---------------------------------------------------------------------------
# Target kernel on concrete targets


def _target_coords(y: Target) -> np.ndarray:
    if isinstance(y, RealVector):
        return y.values
    if isinstance(y, ClassLabel):
        return np.array([float(y.index)])
    if isinstance(y, Count):
        return np.array([float(y.value)])
    raise FamilyError(f"unknown target type {type(y).__name__}")


def eval_target_kernel(tk: TargetKernel, y: Target, z: Target) -> float:
    a, b = _target_coords(y), _target_coords(z)
    if a.shape != b.shape:
        if isinstance(tk, KroneckerDelta):
            return 0.0
        raise DimensionError("target dimensions do not match")
    return float(_target_kernel(tk, a, b))


# ---------------------------------------------------------------------------
# Analytic expectations


def _component_columns(tk: TargetKernel, p: Prediction) -> tuple[np.ndarray, Columns]:
    """Mixture weights and columns of p's components; p itself if no mixture."""
    if isinstance(p, Mixture):
        weights, x = p.weights, Columns.of(p.components)
    else:
        weights, x = np.ones(1), Columns.of([p])
    if not _expectations_closed(x.family, tk):
        raise ConfigurationError(
            f"no closed-form expectation for family {p.family!r} with "
            f"{type(tk).__name__}; use MonteCarlo expectation mode"
        )
    return weights, x


def _analytic_expect(tk: TargetKernel, p: Prediction, y: Target) -> float:
    weights, x = _component_columns(tk, p)
    coords = _target_coords(y)
    if coords.shape != (_target_dim(x.family, x.params),) or (
        x.family not in _DISCRETE and not isinstance(y, RealVector)
    ):
        raise DimensionError("target must be a real vector matching the prediction dimension")
    return float(weights @ _expect(tk, x, coords[:, None]))


def _analytic_double_expect(tk: TargetKernel, p: Prediction, q: Prediction) -> float:
    (wp, x), (wq, z) = _component_columns(tk, p), _component_columns(tk, q)
    if x.family != z.family and not (x.family in _DISCRETE and z.family in _DISCRETE):
        raise ConfigurationError(
            f"no closed-form double expectation for families {p.family!r}, {q.family!r} with "
            f"{type(tk).__name__}; use MonteCarlo expectation mode"
        )
    if x.family == "diag_normal" and x.emb.shape[0] != z.emb.shape[0]:
        raise DimensionError("prediction dimensions do not match")
    # One broadcast over the (components of p) x (components of q) grid.
    grid = _double_expect(tk, x.take(np.arange(wp.size)[:, None]), z.take(np.arange(wq.size)[None, :]))
    return float(wp @ grid @ wq)


# ---------------------------------------------------------------------------
# Monte-Carlo expectations


def _pred_key(p: Prediction) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(p.family.encode())
    if isinstance(p, Categorical):
        h.update(p.probs.tobytes())
    elif isinstance(p, DiagNormal):
        h.update(p.mean.tobytes())
        h.update(p.var.tobytes())
    elif isinstance(p, Laplace):
        h.update(np.array([p.loc, p.scale]).tobytes())
    elif isinstance(p, TruncatedCountable):
        h.update(p.probs.tobytes())
        h.update(np.array([p.tail_mass]).tobytes())
    elif isinstance(p, Mixture):
        h.update(p.weights.tobytes())
        for c in p.components:
            h.update(_pred_key(c).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


def _sample_coords(p: Prediction, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n samples as an (n, dim) coordinate array."""
    if isinstance(p, DiagNormal):
        return rng.normal(p.mean, np.sqrt(p.var), size=(n, p.dim))
    if isinstance(p, Laplace):
        return rng.laplace(p.loc, p.scale, size=(n, 1))
    if isinstance(p, Categorical):
        return rng.choice(p.n_classes, size=n, p=p.probs).astype(float).reshape(n, 1)
    if isinstance(p, TruncatedCountable) and p.tail_mass == 0.0:
        return rng.choice(p.support_size, size=n, p=p.probs).astype(float).reshape(n, 1)
    if isinstance(p, Mixture):
        counts = rng.multinomial(n, p.weights)
        parts = [_sample_coords(c, rng, int(m)) for c, m in zip(p.components, counts) if m > 0]
        coords = np.concatenate(parts, axis=0)
        return coords[rng.permutation(n)]
    raise FamilyError(f"cannot sample family {p.family!r} with undeclared tail support")


def _mc_expect(tk: TargetKernel, p: Prediction, y: Target, mode: MonteCarlo) -> float:
    rng = substream(mode.seed, _pred_key(p), "single")
    coords = _sample_coords(p, rng, mode.samples)
    return float(np.mean(_target_kernel(tk, coords.T, _target_coords(y)[:, None])))


def _mc_double_expect(tk: TargetKernel, p: Prediction, q: Prediction, mode: MonteCarlo) -> float:
    # The prediction with the smaller key draws from "pair-left" (p on a tie),
    # so the estimate, and with it h, is symmetric in p and q.
    key_p, key_q = _pred_key(p), _pred_key(q)
    if key_q < key_p:
        p, q, key_p, key_q = q, p, key_q, key_p
    rng_l = substream(mode.seed, key_p, "pair-left")
    rng_r = substream(mode.seed, key_q, "pair-right")
    left = _sample_coords(p, rng_l, mode.samples)
    right = _sample_coords(q, rng_r, mode.samples)
    return float(np.mean(_target_kernel(tk, left.T, right.T)))


# ---------------------------------------------------------------------------
# Public kernel surface


def expect_target_kernel(spec: KernelSpec, p: Prediction, y: Target) -> float:
    """E_{Z ~ p} k_Y(Z, y)."""
    if isinstance(spec.expectation, MonteCarlo):
        return _mc_expect(spec.target_kernel, p, y, spec.expectation)
    return _analytic_expect(spec.target_kernel, p, y)


def double_expect_target_kernel(spec: KernelSpec, p: Prediction, q: Prediction) -> float:
    """E_{Z ~ p, Z' ~ q} k_Y(Z, Z')."""
    if isinstance(spec.expectation, MonteCarlo):
        return _mc_double_expect(spec.target_kernel, p, q, spec.expectation)
    return _analytic_double_expect(spec.target_kernel, p, q)


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

# Bytes of the largest (rows x cols x parameter dimension) float64 temporary
# of one tile; the tile side follows from the parameter dimension.
TILE_BYTES = 1 << 20


def tile_size(columns: Columns) -> int:
    """Side of the square tiles over which h of ``columns`` is evaluated."""
    width = 1 if columns.emb is None else columns.emb.shape[0]
    return max(1, math.isqrt(TILE_BYTES // (8 * width)))


def upper_tiles(n: int, size: int):
    """Row and column index vectors of the tiles on and above the diagonal of n x n."""
    for lo in range(0, n, size):
        rows = np.arange(lo, min(lo + size, n))
        for hi in range(lo, n, size):
            yield rows, np.arange(hi, min(hi + size, n))


def h_values(spec: KernelSpec, columns: Columns, i, j, need=None) -> np.ndarray:
    """h between rows ``i`` and ``j`` of ``columns``, index arrays broadcast together.

    Closed forms evaluate every pair. Other families call ``eval_h`` once per
    pair where the boolean ``need`` is true (every pair when it is None) and
    leave 0 elsewhere, so a reduction over the symmetric h asks for one
    triangle only.
    """
    if _closed_form(spec, columns.family):
        return _h(spec, columns.take(i), columns.take(j))
    i, j = np.broadcast_arrays(i, j)
    out = np.zeros(i.shape)
    need = np.ones(i.shape, dtype=bool) if need is None else np.broadcast_to(need, i.shape)
    preds, tgts = columns.predictions, columns.targets
    for pos in zip(*np.nonzero(need)):
        a, b = i[pos], j[pos]
        out[pos] = eval_h(spec, preds[a], tgts[a], preds[b], tgts[b])
    return out


def pairwise_h(
    spec: KernelSpec,
    predictions,
    targets,
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """h values for the index pairs (rows[k], cols[k])."""
    return h_values(spec, Columns.of(predictions, targets), np.asarray(rows), np.asarray(cols))


def cme_values(spec: KernelSpec, columns: Columns, sites: Columns) -> np.ndarray:
    """n x J matrix k(T_j, (p_i, y_i)) - E_{Z~p_i} k(T_j, (p_i, Z)).

    Rows are the pairs (p_i, y_i) of ``columns``, columns the test locations
    T_j of ``sites``.
    """
    n, j_count = len(columns.predictions), len(sites.predictions)
    pk, tk = spec.prediction_kernel, spec.target_kernel
    if sites.family == columns.family and _closed_form(spec, columns.family):
        if sites.emb.shape[0] != columns.emb.shape[0]:
            raise DimensionError("test locations and data differ in dimension")
        x, t = columns.take(np.arange(n)[:, None]), sites.take(np.arange(j_count)[None, :])
        return _prediction_kernel(pk, t.emb, x.emb) * (_target_kernel(tk, t.y, x.y) - _expect(tk, x, t.y))
    z = np.empty((n, j_count))
    for j, (tp, ty) in enumerate(zip(sites.predictions, sites.targets)):
        for i, (p, y) in enumerate(zip(columns.predictions, columns.targets)):
            z[i, j] = eval_prediction_kernel(pk, tp, p) * (
                eval_target_kernel(tk, ty, y) - expect_target_kernel(spec, p, ty)
            )
    return z
