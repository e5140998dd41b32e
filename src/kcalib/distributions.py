"""Predictive-distribution families, transport distances, and recalibration.

Supported families: categorical, diagonal-covariance normal, univariate
Laplace, finite mixtures of a single non-mixture family, and truncated
countable distributions with an explicitly declared tail mass. All values
are immutable after construction; only ``sample`` touches mutable state,
and it mutates nothing but the caller-owned generator.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from inspect import Parameter, Signature

import numpy as np

from .exceptions import ConfigurationError, DimensionError, FamilyError, ParameterError

SIMPLEX_TOL = 1e-9
MAX_MIXTURE_COMPONENTS = 64
TRANSPORT_LP_VARIABLES = 1024  # per transport LP: one LP over thousands of pairs costs HiGHS far more memory
# Bytes of physical memory; ``check_allocation`` refuses larger arrays.
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


# ---------------------------------------------------------------------------
# Validation rules
#
# Each family's rules take its parameters as rows, one per prediction or
# target, and return (bad, error class, message) checks in the order in which
# a single value meets them, and a function that gives the canonical rows
# (normalized, say) once the checks have passed. A constructor checks its one
# row; the dataset parser checks all rows of a file at once (where they stack)
# and reports the first bad one.


def check_rows(checks) -> None:
    """Raise the error of the first row that fails one of ``checks``, with that row in ``row``.

    ``bad`` is a bool (all rows or none), a boolean per row, or a function
    giving either; a function is called only if no earlier check failed on
    every row, so it may rely on their passing. The message is a string or a
    function of the row. Of the checks a row fails, the one listed first wins.
    """
    first = None
    for bad, kind, message in checks:
        if callable(bad):
            bad = bad()
        if isinstance(bad, np.ndarray):
            if not np.count_nonzero(bad):
                continue
            row = int(np.argmax(bad))
        elif isinstance(bad, list):
            if not any(bad):
                continue
            row = bad.index(True)
        elif bad:
            row = 0
        else:
            continue
        if first is None or row < first[0]:
            first = (row, kind, message)
            if row == 0:  # no later check can fail on an earlier row
                break
    if first is not None:
        row, kind, message = first
        error = kind(message if isinstance(message, str) else message(row))
        error.row = row
        raise error


def checked_index(index, n: int) -> np.ndarray:
    """``index`` as an integer array of positions among ``n``; a ``ParameterError`` if it is not one."""
    index = np.asarray(index)
    if index.size and (index.dtype.kind not in "iu" or index.min() < -n or index.max() >= n):
        raise ParameterError(f"indices must be integers in [-{n}, {n}), got {index.tolist()!r}")
    return index.astype(np.intp, copy=False)


def checked_int(value, what: str) -> int:
    """``value`` as an int; a ``ParameterError`` if it is not an integer."""
    if not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_allocation(nbytes: int, what: str) -> None:
    """Refuse, before it is allocated, an array of ``nbytes`` larger than ``PHYSICAL_MEMORY``."""
    if nbytes > PHYSICAL_MEMORY:
        raise ConfigurationError(
            f"{what} would take {nbytes:,} bytes, more than the {PHYSICAL_MEMORY:,} bytes of memory"
        )


def _index_rules(values, what: str) -> list:
    """Checks of nonnegative integer targets (class indices or counts)."""
    bad = [not isinstance(v, (int, np.integer)) or v < 0 for v in values]
    return [(bad, ParameterError, lambda r: f"{what} must be a nonnegative integer, got {values[r]!r}")]


def _reals_rules(values: np.ndarray) -> list:
    """Checks of real target vectors, rows of ``values``."""
    return [
        (values.ndim != 2, DimensionError, "real targets must be one-dimensional vectors"),
        (values.shape[-1] == 0, DimensionError, "real targets need at least one coordinate"),
        (lambda: ~np.isfinite(values).all(axis=1), ParameterError, "real targets must be finite"),
    ]


# Rows of K terms summing to within 2 K ulps of 1, twice the rounding of one normalization, are
# canonical and kept as they are; a row the rules normalize lands in this band, so it stays as it is.
_BAND = 2.0**-51  # per term


def _simplex_rules(probs: np.ndarray, what: str):
    """Checks of probability vectors, rows of ``probs``; the rows normalized (kept if canonical, ``_BAND``)."""
    total = probs.sum(axis=-1)
    off = np.abs(total - 1.0)
    checks = [
        (probs.ndim != 2, ParameterError, f"{what} must be a vector"),
        (lambda: ~np.isfinite(probs).all(axis=1), ParameterError, f"{what} must be finite"),
        (lambda: (probs < 0).any(axis=1), ParameterError, f"{what} must be nonnegative"),
        (lambda: off > SIMPLEX_TOL, ParameterError, lambda r: f"{what} must sum to 1 (got {float(total[r])!r})"),
    ]
    return checks, lambda: probs / np.where(off <= _BAND * probs.shape[-1], 1.0, total)[..., None]


def _categorical_rules(probs: np.ndarray):
    """Checks of class probabilities, rows of ``probs``; the rows normalized."""
    checks, normalized = _simplex_rules(probs, "class probabilities")
    checks.append((probs.shape[-1] < 2, ParameterError, "categorical predictions need at least 2 classes"))
    return checks, lambda: (normalized(),)


def _normal_rules(mean: np.ndarray, var: np.ndarray):
    """Checks of diagonal-normal parameters, rows of ``mean`` and ``var``."""
    return [
        (mean.ndim != 2 or var.ndim != 2 or mean.shape != var.shape, DimensionError,
         "mean and var must be vectors of equal length"),
        (mean.shape[-1] == 0, DimensionError, "normal predictions need at least one dimension"),
        (lambda: ~(np.isfinite(mean) & np.isfinite(var)).all(axis=1), ParameterError,
         "normal parameters must be finite"),
        (lambda: (var < 0).any(axis=1), ParameterError, "variances must be nonnegative"),
    ], lambda: (mean, var)


def _laplace_rules(loc, scale):
    """Checks of Laplace parameters, one location and scale per row."""
    return [
        (lambda: ~(np.isfinite(loc) & np.isfinite(scale)), ParameterError, "Laplace parameters must be finite"),
        (lambda: scale <= 0, ParameterError, "Laplace scale must be strictly positive"),
    ], lambda: (loc, scale)


def _truncated_rules(probs: np.ndarray, tail: np.ndarray):
    """Checks of truncated countable laws, rows of ``probs`` with a tail mass each; the rows
    with the probabilities rescaled to carry 1 - tail mass unless canonical (``_BAND``)."""
    mass = probs.sum(axis=-1)
    total = mass + tail
    off = np.abs(total - 1.0)
    return [
        (probs.ndim != 2 or probs.shape[-1] < 1, ParameterError, "truncated probabilities must be a nonempty vector"),
        (lambda: ~(np.isfinite(probs).all(axis=1) & np.isfinite(tail)), ParameterError,
         "truncated parameters must be finite"),
        (lambda: (probs < 0).any(axis=1) | (tail < 0), ParameterError, "probabilities and tail mass must be nonnegative"),
        (lambda: off > SIMPLEX_TOL, ParameterError,
         lambda r: f"probs plus tail mass must sum to 1 (got {float(total[r])!r})"),
        (lambda: mass <= 0, ParameterError, "truncated support must carry positive mass"),
    ], lambda: (probs * np.where(off <= _BAND * (probs.shape[-1] + 1), 1.0, (1.0 - tail) / mass)[..., None], tail)


def _mixture_rules(weights: np.ndarray, count: int):
    """Checks of mixture weights, rows of ``weights``, of ``count`` components each; the
    weights normalized."""
    checks, normalized = _simplex_rules(weights, "mixture weights")
    checks += [
        (count != weights.shape[-1], ParameterError, "number of weights must match number of components"),
        (count == 0, ParameterError, "mixtures need at least one component"),
        (count > MAX_MIXTURE_COMPONENTS, ParameterError, f"mixtures are capped at {MAX_MIXTURE_COMPONENTS} components"),
    ]
    return checks, normalized


def _real(value, what: str, scalar: bool = False, ndmin: int = 0):
    """``value`` as a float (``scalar``) or a new array of floats of at least ``ndmin`` dimensions;
    a ``ParameterError`` if it holds other things."""
    try:
        return float(value) if scalar else np.array(value, dtype=np.float64, ndmin=ndmin)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{what} must be real numbers, got {value!r}") from exc


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _unchecked(cls, *values):
    """A ``cls`` holding the already checked ``values`` in its slots, in order."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


# ---------------------------------------------------------------------------
# Targets


@dataclass(frozen=True)
class ClassLabel:
    """A class index for categorical predictions."""

    index: int

    def __post_init__(self):
        check_rows(_index_rules([self.index], "class index"))
        object.__setattr__(self, "index", int(self.index))


class RealVector:
    """A real-valued target vector."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = _real(values, "real targets", ndmin=1)
        check_rows(_reals_rules(arr[None]))
        self.values = _frozen(arr)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other):
        return isinstance(other, RealVector) and np.array_equal(self.values, other.values)

    def __repr__(self):
        return f"RealVector({self.values.tolist()})"


@dataclass(frozen=True)
class Count:
    """A nonnegative integer count target."""

    value: int

    def __post_init__(self):
        check_rows(_index_rules([self.value], "count"))
        object.__setattr__(self, "value", int(self.value))


Target = ClassLabel | RealVector | Count

# The target type each family's pairs take (``TARGETS``), and as named in messages; a mixture's
# pairs take its components'.
TARGET_TYPES = {
    "categorical": ("class", "class-label"),
    "truncated_countable": ("count", "count"),
    "diag_normal": ("reals", "real-vector"),
    "laplace": ("reals", "real-vector"),
}


def pair_rules(family: str, dim: int, types: list, sizes: list) -> list:
    """Checks of pairs of predictions of ``family`` and dimension ``dim`` (a categorical's number of
    classes) with targets of the classes ``types`` and the ``sizes`` (a class label's index, a real
    vector's dimension, a count's value), one of each per row."""
    kind = TARGETS[TARGET_TYPES[family][0]][0]
    checks = [([not issubclass(t, kind) for t in types], FamilyError, wrong_target(family))]
    if kind is ClassLabel:
        checks.append(([s >= dim for s in sizes], DimensionError,
                       lambda r: f"class index {sizes[r]} out of range for {dim} classes"))
    elif kind is RealVector:
        checks.append(([s != dim for s in sizes], DimensionError,
                       lambda r: f"target dimension {sizes[r]} != prediction dimension {dim}"))
    else:  # a count is held as a float
        checks.append(([s > sys.float_info.max for s in sizes], ParameterError, "count is too large to hold as a float"))
    return checks


# Families whose mixtures no prediction metric compares: W2 and MW take normal or Laplace
# components, and ParamEuclidean embeds no mixture.
DISCRETE = ("categorical", "truncated_countable")


def discrete_mixture(family: str) -> str:
    """The message for a mixture of components of ``family``, one of ``DISCRETE``."""
    return f"mixtures of {family.replace('_', ' ')} predictions are not supported: no prediction metric compares them"


def wrong_target(family: str) -> str:
    """The message for a prediction of ``family`` paired with a target of another type."""
    return f"{family.replace('_', ' ')} predictions require {TARGET_TYPES[family][1]} targets"


def _target_size(y: Target) -> int:
    """What ``pair_rules`` checks of a target: a class label's index, a real vector's dimension or
    a count's value (0 for what is no target)."""
    value = target_value(y)
    return len(value) if isinstance(value, np.ndarray) else value or 0


# ---------------------------------------------------------------------------
# Predictions


class Prediction:
    """Base class of all prediction families.

    A plain family's constructor is this class's: it takes the family's
    fields (``FAMILIES``), by position or by name (``DEFAULTS`` gives those
    that may be left out), converts each by its kind, checks them with the
    family's rules and keeps their canonical rows in its ``__slots__``, in
    ``FAMILIES`` order. ``dim`` is the size of the first field, and
    ``sample`` draws from the fields with the sampler of the Monte-Carlo
    expectations (``_sample``). ``==`` compares the slots of any prediction,
    a mixture's too, and ``repr`` names them.
    ``cdf``, ``quantile`` and ``log_density`` evaluate the prediction's
    one-column ``kernels.Columns``, where each is written once per family.
    """

    family: str

    def __init__(self, *args, **kwargs):
        _, fields, rules = FAMILIES[self.family]
        if kwargs or len(args) != len(fields):
            bound = self.__signature__.bind(*args, **kwargs)
            bound.apply_defaults()
            args = bound.args
        checks, canonical = rules(*[_field_row(value, name, kind) for value, (name, kind) in zip(args, fields)])
        check_rows(checks)
        for (name, kind), row in zip(fields, canonical()):
            setattr(self, name, float(row) if kind == "number" else _frozen(row[0]))

    @property
    def dim(self) -> int:
        """The dimension of the law, or the support size of a discrete one."""
        field = getattr(self, self.__slots__[0])
        return 1 if isinstance(field, float) else len(field)

    @property
    def law(self) -> str:
        """The family, naming a mixture's component family too ("mixture of laplace")."""
        return self.family

    def sample(self, rng: np.random.Generator) -> Target:
        """A target drawn from this prediction with ``rng`` (``_sample``)."""
        draw = _sample(self.family, [np.atleast_1d(getattr(self, name)) for name in self.__slots__], rng, 1)[0]
        kind = TARGETS[TARGET_TYPES[self.family][0]][0]
        return kind(draw) if kind is RealVector else kind(int(draw[0]))

    def __eq__(self, other):
        return isinstance(other, type(self)) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self.__slots__
        )

    def __repr__(self):
        fields = (f"{name}={np.asarray(getattr(self, name)).tolist()!r}" for name in self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"

    def cdf(self, y: float) -> float:
        """P(Z <= y) for Z ~ this univariate prediction (``Columns.cdf``)."""
        return float(_column(self).cdf(_real(y, "y", scalar=True))[0])

    def quantile(self, tau: float) -> float:
        """inf{y : P(Z <= y) >= tau} for Z ~ this univariate prediction (``Columns.quantile``)."""
        return float(_column(self).quantile(tau)[0])

    def log_density(self, target: Target) -> float:
        """Log density, or log mass for a discrete law, at ``target`` (``Columns.log_density``)."""
        family = self.law.removeprefix("mixture of ")
        check_rows(pair_rules(family, self.dim, [type(target)], [_target_size(target)]))
        return float(_column(self, [target]).log_density()[0])


def _field_row(value, name: str, kind: str):
    """One prediction's ``value`` of the field ``name`` of ``kind`` (``FAMILIES``) as the family's
    rules take it: a number as a float, a vector or an array as a new array of one row, so that no
    stored field is a view of the caller's array."""
    if kind == "number":
        return _real(value, name, scalar=True)
    return _real(value, name, ndmin=1 if kind == "vector" else 0)[None]


def _kernels():
    """The ``kernels`` module, imported on use: it builds on this one."""
    from . import kernels

    return kernels


def _column(p: Prediction, targets=None):
    """The one-column ``Columns`` of ``p``, with ``targets`` if given."""
    return _kernels().Columns.of([p], targets)


class Categorical(Prediction):
    """Distribution over a finite set of class labels: ``Categorical(probs)``."""

    family = "categorical"
    __slots__ = ("probs",)
    n_classes = Prediction.dim


class DiagNormal(Prediction):
    """Multivariate normal with diagonal covariance, ``DiagNormal(mean, var)``; zero variance allowed."""

    family = "diag_normal"
    __slots__ = ("mean", "var")


class Laplace(Prediction):
    """Univariate Laplace distribution with strictly positive scale: ``Laplace(loc, scale)``."""

    family = "laplace"
    __slots__ = ("loc", "scale")


class Mixture(Prediction):
    """Finite mixture of predictions from one non-mixture family.

    Zero-weight components are dropped at construction, so stored weights
    are strictly positive.
    """

    family = "mixture"
    __slots__ = ("weights", "components")

    def __init__(self, weights, components):
        components = tuple(components)
        checks, normalized = _mixture_rules(_real(weights, "mixture weights")[None], len(components))
        check_rows(checks)
        weights = normalized()[0]
        keep = weights > 0
        if not np.all(keep):  # the kept weights, normalized again
            weights = _simplex_rules(weights[keep][None], "mixture weights")[1]()[0]
        components = tuple(c for c, k in zip(components, keep) if k)
        first = components[0]
        if isinstance(first, Mixture):
            raise FamilyError("mixtures of mixtures are not supported")
        if getattr(first, "family", None) not in FAMILIES:
            raise FamilyError(f"unknown prediction type {type(first).__name__}")
        for c in components:
            if not isinstance(c, type(first)):
                raise FamilyError("mixture components must share one family")
            if c.dim != first.dim:
                raise DimensionError("mixture components must share one dimension")
        self.weights = _frozen(weights)
        self.components = components

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def law(self) -> str:
        return f"mixture of {self.components[0].family}"

    def sample(self, rng: np.random.Generator) -> Target:
        idx = int(rng.choice(len(self.components), p=self.weights))
        return self.components[idx].sample(rng)


class TruncatedCountable(Prediction):
    """Distribution over counts {0, ..., K} with a declared tail mass:
    ``TruncatedCountable(probs, tail_mass=0.0)``.

    The library never auto-truncates: the caller supplies the truncated
    probabilities and the mass assigned beyond the cutoff.
    """

    family = "truncated_countable"
    __slots__ = ("probs", "tail_mass")
    support_size = Prediction.dim


# Each family's class and fields, as the class's constructor and dataset files name them, in the
# order of the class's slots; a field is of kind "number" (converted as float() does), "vector"
# (as np.atleast_1d does) or "array" (as np.asarray does). Then the family's rules, which take
# one row of each field per prediction (a number each for a number field).
FAMILIES = {
    "diag_normal": (DiagNormal, (("mean", "vector"), ("var", "vector")), _normal_rules),
    "laplace": (Laplace, (("loc", "number"), ("scale", "number")), _laplace_rules),
    "categorical": (Categorical, (("probs", "array"),), _categorical_rules),
    "truncated_countable": (TruncatedCountable, (("probs", "array"), ("tail_mass", "number")), _truncated_rules),
}

# The fields that a constructor call or a dataset record may leave out, with the value they take.
DEFAULTS = {"tail_mass": 0.0}

for _cls, _fields, _ in FAMILIES.values():  # the constructors' signatures, as help() shows them
    _cls.__signature__ = Signature([
        Parameter(key, Parameter.POSITIONAL_OR_KEYWORD, default=DEFAULTS.get(key, Parameter.empty)) for key, _ in _fields
    ])

# Each target type as dataset files name it, with its class and the one field it holds: an
# integer (a "number" in files) or a vector of reals (a "vector").
TARGETS = {"class": (ClassLabel, "index"), "count": (Count, "value"), "reals": (RealVector, "values")}


def _sample(family: str, fields: list, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` draws, (size, d), from the law of ``family`` with one row of each of its ``fields``."""
    if family == "diag_normal":
        return rng.normal(fields[0], np.sqrt(fields[1]), size=(size, len(fields[0])))
    if family == "laplace":
        return rng.laplace(fields[0][0], fields[1][0], size=(size, 1))
    if family == "truncated_countable" and fields[1][0] != 0.0:
        raise FamilyError(f"cannot sample family {family!r} with undeclared tail support")
    return rng.choice(len(fields[0]), size=size, p=fields[0]).astype(float).reshape(size, 1)


def target_value(y):
    """The field of the target ``y`` (``TARGETS``); None if ``y`` is no target."""
    return next((getattr(y, field) for cls, field in TARGETS.values() if isinstance(y, cls)), None)


# ---------------------------------------------------------------------------
# Distances between predictions (``kernels.prediction_distance`` on one-column views)


def wasserstein2(p: Prediction, q: Prediction) -> float:
    """2-Wasserstein distance in closed form, between diagonal normals of one dimension (diagonal
    covariances commute) or between Laplace laws: the Euclidean distance of their W2 embeddings."""
    kernels = _kernels()
    return kernels.prediction_distance(kernels.W2(), p, q)


def _solve_transport(weights_a: np.ndarray, weights_b: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Exact minimum costs of P transportation problems, chunked into block-diagonal LPs.

    Masses ``weights_a`` (P, Ka) move to ``weights_b`` (P, Kb) at ``cost`` (P, Ka, Kb); a
    chunk holds about ``TRANSPORT_LP_VARIABLES`` variables.
    """
    from scipy.optimize import linprog  # loaded on use: they are slow to import
    from scipy.sparse import csr_array

    count, ka, kb = cost.shape
    step = max(1, TRANSPORT_LP_VARIABLES // (ka * kb))
    # a block's constraints: a row sum per source, a column sum per target but the redundant last
    lengths = np.tile(np.r_[np.full(ka, kb), np.full(kb - 1, ka)], step)
    values = np.empty(count)
    for lo in range(0, count, step):
        c, size = cost[lo : lo + step], min(step, count - lo)
        var = np.arange(c.size).reshape(c.shape)
        cols = np.concatenate([var.reshape(size, -1), var[:, :, :-1].swapaxes(1, 2).reshape(size, -1)], 1)
        indptr = np.r_[0, np.cumsum(lengths[: size * (ka + kb - 1)])]
        a_eq = csr_array((np.ones(cols.size), cols.ravel(), indptr), shape=(indptr.size - 1, c.size))
        b_eq = np.concatenate([weights_a[lo : lo + step], weights_b[lo : lo + step, :-1]], 1).ravel()
        res = linprog(c.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        if not res.success:  # pragma: no cover - marginals are always feasible
            raise ParameterError(f"transportation problem failed: {res.message}")
        values[lo : lo + size] = np.sum(res.x.reshape(size, -1) * c.reshape(size, -1), axis=1)
    return values


def mixture_wasserstein(p: Mixture, q: Mixture, s: float = 2.0) -> float:
    """Transport distance of order ``s`` >= 1 between mixtures with ``wasserstein2`` ground cost;
    a plain prediction is a mixture of one component.

    Solves min over couplings of the component weights of
    sum_ij w_ij d(p_i, q_j)^s, then takes the 1/s power.
    """
    kernels = _kernels()
    return kernels.prediction_distance(kernels.MW(_real(s, "transport order", scalar=True)), p, q)


# ---------------------------------------------------------------------------
# Temperature scaling


def temperature_scale(p: Prediction, t: float) -> Prediction:
    """Generalized temperature scaling with temperature ``t`` > 0 (``Columns.temperature_scaled``)."""
    return _column(p).temperature_scaled(t).prediction_objects()[0]
