"""Line-delimited dataset files.

Format: the first line is a JSON header ``{"schema": 1, "family": ...,
"dimension": ...}``; every following line is a JSON record with a
family-tagged ``prediction`` object and a variant-tagged ``target`` object.
All records must match the header's family and dimension (when the header
omits ``dimension``, every record must match the first record's), and
mismatches and non-finite parameters are rejected at parse time with the
offending line number.
"""

from __future__ import annotations

import json
import math

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
    _pred_dim,
)
from .estimators import Dataset, TestLocations, _check_pair, _family
from .exceptions import DatasetFormatError, KcalibError

SCHEMA_VERSION = 1


def prediction_to_dict(p: Prediction) -> dict:
    if isinstance(p, Categorical):
        return {"family": "categorical", "probs": p.probs.tolist()}
    if isinstance(p, DiagNormal):
        return {"family": "diag_normal", "mean": p.mean.tolist(), "var": p.var.tolist()}
    if isinstance(p, Laplace):
        return {"family": "laplace", "loc": p.loc, "scale": p.scale}
    if isinstance(p, TruncatedCountable):
        return {
            "family": "truncated_countable",
            "probs": p.probs.tolist(),
            "tail_mass": p.tail_mass,
        }
    if isinstance(p, Mixture):
        return {
            "family": "mixture",
            "weights": p.weights.tolist(),
            "components": [prediction_to_dict(c) for c in p.components],
        }
    raise DatasetFormatError(f"cannot serialize prediction family {p.family!r}")


def target_to_dict(y: Target) -> dict:
    if isinstance(y, ClassLabel):
        return {"type": "class", "index": y.index}
    if isinstance(y, RealVector):
        return {"type": "reals", "values": y.values.tolist()}
    if isinstance(y, Count):
        return {"type": "count", "value": y.value}
    raise DatasetFormatError(f"cannot serialize target type {type(y).__name__}")


def _require_finite(obj, line: int) -> None:
    if isinstance(obj, dict):
        for v in obj.values():
            _require_finite(v, line)
    elif isinstance(obj, list):
        for v in obj:
            _require_finite(v, line)
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise DatasetFormatError("non-finite parameter", line)


def prediction_from_dict(obj: dict, line: int, depth: int = 0) -> Prediction:
    family = obj.get("family")
    try:
        if family == "categorical":
            return Categorical(obj["probs"])
        if family == "diag_normal":
            return DiagNormal(obj["mean"], obj["var"])
        if family == "laplace":
            return Laplace(obj["loc"], obj["scale"])
        if family == "truncated_countable":
            return TruncatedCountable(obj["probs"], obj.get("tail_mass", 0.0))
        if family == "mixture":
            if depth >= 1:
                raise DatasetFormatError("mixtures of mixtures are not supported", line)
            components = [
                prediction_from_dict(c, line, depth + 1) for c in obj["components"]
            ]
            return Mixture(obj["weights"], components)
    except DatasetFormatError:
        raise
    except (KcalibError, KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"invalid prediction: {exc}", line) from exc
    raise DatasetFormatError(f"unknown prediction family {family!r}", line)


def target_from_dict(obj: dict, line: int) -> Target:
    kind = obj.get("type")
    try:
        if kind == "class":
            return ClassLabel(obj["index"])
        if kind == "reals":
            return RealVector(obj["values"])
        if kind == "count":
            return Count(obj["value"])
    except (KcalibError, KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"invalid target: {exc}", line) from exc
    raise DatasetFormatError(f"unknown target type {kind!r}", line)


def _parse_records(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError("missing header line", 1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"invalid header JSON: {exc}", 1) from exc
    if not isinstance(header, dict) or header.get("schema") != SCHEMA_VERSION:
        raise DatasetFormatError(f"unsupported schema {header!r}", 1)
    family = header.get("family")
    dimension = header.get("dimension")
    components = None
    predictions, targets = [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"invalid record JSON: {exc}", lineno) from exc
        if not isinstance(record, dict) or "prediction" not in record or "target" not in record:
            raise DatasetFormatError("record must have 'prediction' and 'target'", lineno)
        _require_finite(record, lineno)
        p = prediction_from_dict(record["prediction"], lineno)
        y = target_from_dict(record["target"], lineno)
        if p.family != family:
            raise DatasetFormatError(
                f"record family {p.family!r} does not match header family {family!r}", lineno
            )
        if components is None:
            components = _family(p)  # the first record fixes a mixture's component family
        if _family(p) != components:
            raise DatasetFormatError(f"record family {_family(p)!r} does not match {components!r}", lineno)
        if dimension is None:
            dimension = _pred_dim(p)  # no header dimension: the first record fixes it
        if _pred_dim(p) != dimension:
            raise DatasetFormatError(
                f"record dimension {_pred_dim(p)} does not match dataset dimension {dimension}",
                lineno,
            )
        try:
            _check_pair(p, y)
        except KcalibError as exc:
            raise DatasetFormatError(str(exc), lineno) from exc
        predictions.append(p)
        targets.append(y)
    if not predictions:
        raise DatasetFormatError("empty dataset", 2)
    return predictions, targets


def parse_dataset(path: str) -> Dataset:
    predictions, targets = _parse_records(path)
    try:
        return Dataset(predictions, targets)
    except KcalibError as exc:
        raise DatasetFormatError(f"inconsistent dataset: {exc}") from exc


def parse_locations(path: str) -> TestLocations:
    predictions, targets = _parse_records(path)
    return TestLocations(predictions, targets)


def write_dataset(path: str, data: Dataset) -> None:
    first = data.predictions[0]
    header = {"schema": SCHEMA_VERSION, "family": first.family, "dimension": _pred_dim(first)}
    lines = [json.dumps(header)]
    for p, y in zip(data.predictions, data.targets):
        lines.append(
            json.dumps({"prediction": prediction_to_dict(p), "target": target_to_dict(y)})
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# Test locations are a dataset and are written like one.
write_locations = write_dataset
