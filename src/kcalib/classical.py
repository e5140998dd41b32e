"""Non-kernel calibration diagnostics: ECE/MCE, quantile curves, losses."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DISCRETE, _real, checked_int
from .estimators import Dataset
from .exceptions import DimensionError, FamilyError, ParameterError
from .kernels import Columns

DEFAULT_TAU_GRID = tuple(np.round(np.arange(0.05, 0.96, 0.05), 2))


def _masses(columns: Columns) -> np.ndarray:
    """The masses of discrete laws on the points 0, 1, ..., (K, n)."""
    if columns.family not in DISCRETE or columns.weights is not None:
        family = columns.family if columns.weights is None else "mixture"
        raise FamilyError(f"oracle calibration errors are defined for discrete families, not {family!r}")
    return columns.params[0]


def _gaps(data: Dataset, oracle) -> np.ndarray:
    """|oracle mass - predicted mass| at each point of the common (truncated) support, (K, n)."""
    predicted = _masses(data.columns)
    if not isinstance(oracle, Columns):
        oracle = Columns.of([oracle(p) for p in data.predictions])
    true = _masses(oracle)
    true, predicted = (np.pad(a, ((0, max(len(true), len(predicted)) - len(a)), (0, 0))) for a in (true, predicted))
    return np.abs(true - predicted)


def oracle_ece(data: Dataset, oracle, q: float = 2.0) -> float:
    """Sample-average q-norm discrepancy between the true conditional and
    the prediction, aligned over the common (truncated) support.

    ``oracle`` maps a prediction to the true conditional distribution of the
    target given that prediction, as a prediction of the same target space;
    or it is the ``Columns`` of those laws, one per prediction.
    """
    if not (1.0 < q < math.inf):
        raise ParameterError(f"norm order must lie in (1, inf), got {q!r}")
    return float(np.mean(np.sum(_gaps(data, oracle) ** q, axis=0)))


def oracle_mce(data: Dataset, oracle) -> float:
    """Maximum sup-norm discrepancy over the dataset's predictions (``oracle`` as in ``oracle_ece``)."""
    return float(np.max(_gaps(data, oracle)))


def binned_confidence_ece(data: Dataset, num_bins: int = 10) -> float:
    """Standard confidence-binned ECE baseline (biased; no debiasing)."""
    if checked_int(num_bins, "the number of bins") < 1:
        raise ParameterError("need at least one bin")
    columns = data.columns
    if columns.family != "categorical" or columns.weights is not None:
        raise FamilyError("binned confidence ECE requires categorical predictions")
    confidences = columns.emb.max(axis=0)
    correct = 1.0 * (columns.emb.argmax(axis=0) == columns.y[0])
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    bins = np.clip(np.digitize(confidences, edges[1:-1]), 0, num_bins - 1)
    n = len(data)
    ece = 0.0
    for b in range(num_bins):
        mask = bins == b
        count = int(mask.sum())
        if count == 0:
            continue
        ece += (count / n) * abs(correct[mask].mean() - confidences[mask].mean())
    return ece


@dataclass
class QuantileCurve:
    """Empirical cumulative probability at each quantile level."""

    taus: np.ndarray
    empirical: np.ndarray

    def max_diagonal_deviation(self) -> float:
        return float(np.max(np.abs(self.empirical - self.taus)))

    def mean_diagonal_deviation(self) -> float:
        return float(np.mean(np.abs(self.empirical - self.taus)))


def quantile_curve(data: Dataset, taus=DEFAULT_TAU_GRID) -> QuantileCurve:
    """Fraction of points whose predicted CDF value falls at or below tau.

    A quantile-calibrated model yields a curve close to the diagonal.
    """
    taus = _real(taus, "quantile levels")
    if taus.ndim != 1 or taus.size == 0 or not np.all((taus > 0) & (taus <= 1)):
        raise ParameterError(f"quantile levels must be a nonempty list of numbers in (0, 1], got {taus.tolist()!r}")
    columns = data.columns
    if columns.family in DISCRETE or columns.y.shape[0] != 1:
        raise DimensionError("quantile diagnostics require univariate real targets")
    pit = columns.cdf(columns.y[0])
    empirical = np.array([np.mean(pit <= t) for t in taus])
    return QuantileCurve(taus=taus, empirical=empirical)


def pinball_loss(data: Dataset, tau: float) -> float:
    """Mean check loss of the predicted tau-quantiles against the targets."""
    columns = data.columns
    pred, obs, tau = columns.quantile(tau), columns.y[0], float(tau)
    return float(np.mean((1.0 - tau) * np.maximum(pred - obs, 0.0) + tau * np.maximum(obs - pred, 0.0)))


def nll(data: Dataset) -> float:
    """Mean negative log density; +inf if any point has zero density."""
    values = data.columns.log_density()
    if np.any(values == -math.inf):
        return math.inf
    return -float(np.mean(values))


def mse(data: Dataset) -> float:
    """Mean squared Euclidean distance between targets and predictive means."""
    columns = data.columns
    return float(np.mean(np.sum((columns.y - columns.mean()) ** 2, axis=0)))
