"""SKCE and UCME estimators over datasets of (prediction, target) pairs."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import is_

import numpy as np

from .distributions import (
    DISCRETE,
    _target_size,
    check_allocation,
    check_rows,
    checked_index,
    checked_int,
    discrete_mixture,
    pair_rules,
)
from .exceptions import DimensionError, FamilyError, ParameterError
from .kernels import Columns, KernelSpec, cme_values, h_tiles, tiling


def _same_items(a, b) -> bool:
    return len(a) == len(b) and all(map(is_, a, b))


class Dataset:
    """Homogeneous sequence of (prediction, target) pairs.

    Its ``columns`` are the source of truth. ``Dataset(predictions, targets)``
    checks the pairs; ``Dataset(columns=...)`` takes columns that have been
    checked already (by the parser or a generator), and builds the
    ``predictions`` and ``targets`` lists only when they are first read.
    """

    def __init__(self, predictions=(), targets=(), *, columns: Columns | None = None):
        self._lists = self._items = None
        if columns is not None:
            if len(columns) == 0:
                raise ParameterError("datasets must contain at least one pair")
            if columns.weights is not None and columns.family in DISCRETE:
                raise FamilyError(discrete_mixture(columns.family))
            self._columns = columns
            return
        predictions = list(predictions)
        targets = list(targets)
        if len(predictions) != len(targets):
            raise ParameterError("predictions and targets must have equal length")
        if len(predictions) == 0:
            raise ParameterError("datasets must contain at least one pair")
        laws = [getattr(p, "law", None) for p in predictions]
        if None in laws:
            raise FamilyError(f"unknown prediction type {type(predictions[laws.index(None)]).__name__}")
        family, dim = laws[0], predictions[0].dim
        components = family.removeprefix("mixture of ")
        if components != family and components in DISCRETE:
            raise FamilyError(discrete_mixture(components))
        check_rows([
            ([law != family for law in laws], FamilyError,
             lambda r: f"mixed prediction families: {family!r} vs {laws[r]!r}"),
            ([p.dim != dim for p in predictions], DimensionError,
             lambda r: f"mixed prediction dimensions: {dim} vs {predictions[r].dim}"),
            *pair_rules(components, dim, [type(y) for y in targets], [_target_size(y) for y in targets]),
        ])
        self._lists = (predictions, targets)
        self._columns = None

    def _pairs(self) -> tuple:
        if self._lists is None:
            self._lists = (self._columns.prediction_objects(), self._columns.target_objects())
            self._items = tuple(map(list, self._lists))
        return self._lists

    @property
    def predictions(self) -> list:
        return self._pairs()[0]

    @property
    def targets(self) -> list:
        return self._pairs()[1]

    @property
    def columns(self) -> Columns:
        """Columnar parameter arrays.

        Once the ``predictions`` and ``targets`` lists exist, the columns are
        built again when an item of them has been replaced since, so edits of
        those lists are never stale.
        """
        lists = self._lists
        if lists is not None and (
            self._items is None or not all(map(_same_items, self._items, lists))
        ):
            self._items = tuple(map(list, lists))
            self._columns = Columns.of(*self._items)
        return self._columns

    @property
    def family(self) -> str:
        columns = self.columns
        return columns.family if columns.weights is None else "mixture"

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, i):
        return self.predictions[i], self.targets[i]

    def subset(self, indices) -> "Dataset":
        return Dataset(columns=replace(self.columns.take(checked_index(indices, len(self))), at=None))


class TestLocations(Dataset):
    """Fixed (prediction, target) locations for the UCME/CME test."""

    __test__ = False  # not a pytest class


@dataclass
class EstimateReport:
    """An estimate; the ``diagnostics`` of a reduction of h name its ``path`` and ``tile`` side
    (``kernels.route``) and count its ``h_evaluations``."""

    kind: str
    value: float
    block_estimates: np.ndarray | None = None
    sigma_hat_b: float | None = None
    diagnostics: dict = field(default_factory=dict)


def h_matrix(spec: KernelSpec, data: Dataset) -> np.ndarray:
    """Full n x n matrix of h values, diagonal included (n^2 evaluations)."""
    n = len(data)
    check_allocation(8 * n * n, f"the {n} x {n} matrix of h")
    h = np.empty((n, n))
    for _, rows, cols, tile, _ in h_tiles(spec, data.columns, n, pairs=None):
        h[rows, cols] = tile[0]
    return h


def skce_plug_in(spec: KernelSpec, data: Dataset) -> EstimateReport:
    """Biased plug-in estimator: n^-2 sum over all ordered pairs of h."""
    n = len(data)
    raw = float(_block_sums(spec, data, n, 1, pairs=None)[0]) / (n * n)
    return EstimateReport(
        kind="plug-in",
        value=max(raw, 0.0),
        diagnostics={"raw_value": raw, "h_evaluations": n * n, **tiling(spec, data.columns)},
    )


def _block_sums(spec: KernelSpec, data: Dataset, block_size: int, num_blocks: int, square=False, pairs=np.less):
    """Sum of h (or h^2) over the pairs that ``pairs`` counts (``h_tiles``) of each of the first ``num_blocks`` blocks."""
    sums = np.zeros(num_blocks)
    for first, _, _, h, counted in h_tiles(spec, data.columns, block_size, num_blocks, pairs):
        sums[first : first + len(h)] += np.sum(h * h if square else h, axis=(1, 2), where=counted)
    return sums


def skce_block(spec: KernelSpec, data: Dataset, block_size: int) -> EstimateReport:
    """Unbiased block estimator with ``floor(n / B)`` disjoint blocks.

    Trailing ``n mod B`` points are dropped, as the block formula implies.
    """
    n, block_size = len(data), checked_int(block_size, "block size")
    if not 2 <= block_size <= n:
        raise ParameterError(f"block size must satisfy 2 <= B <= n, got B={block_size}, n={n}")
    num_blocks = n // block_size
    pairs_per_block = block_size * (block_size - 1) // 2
    etas = _block_sums(spec, data, block_size, num_blocks) / pairs_per_block
    sigma_hat = float(np.std(etas, ddof=1)) if num_blocks >= 2 else None
    return EstimateReport(
        kind=f"block(B={block_size})",
        value=float(np.mean(etas)),
        block_estimates=etas,
        sigma_hat_b=sigma_hat,
        diagnostics={
            "h_evaluations": num_blocks * pairs_per_block,
            "dropped_points": n - num_blocks * block_size,
            "num_blocks": num_blocks,
            "block_size": block_size,
            **tiling(spec, data.columns),
        },
    )


def skce_ustat(spec: KernelSpec, data: Dataset) -> EstimateReport:
    """Minimum-variance unbiased estimator: the block estimator with B = n."""
    n = len(data)
    if n < 2:
        raise ParameterError("the U-statistic estimator needs at least 2 pairs")
    report = skce_block(spec, data, n)
    report.kind = "u-statistic"
    return report


def h_squared_hat(spec: KernelSpec, data: Dataset) -> float:
    """Unbiased estimate of E h^2: mean of h(i, j)^2 over unordered pairs."""
    n = len(data)
    if n < 2:
        raise ParameterError("estimating E h^2 needs at least 2 pairs")
    return float(_block_sums(spec, data, n, 1, square=True)[0]) / (n * (n - 1) // 2)


def cme_feature_matrix(spec: KernelSpec, data: Dataset, locs: TestLocations) -> np.ndarray:
    """n x J matrix with entries k(T_j, (p_i, y_i)) - E_{Z~p_i} k(T_j, (p_i, Z))."""
    return cme_values(spec, data.columns, locs.columns)


def ucme_squared(spec: KernelSpec, data: Dataset, locs: TestLocations) -> EstimateReport:
    """Plug-in estimator of the squared unnormalized calibration mean embedding."""
    z = cme_feature_matrix(spec, data, locs)
    inner_means = z.mean(axis=0)
    return EstimateReport(
        kind=f"ucme(J={len(locs)})",
        value=float(np.mean(inner_means**2)),
        diagnostics={"inner_means": inner_means, "h_evaluations": z.size, **tiling(spec, data.columns)},
    )
