"""Line-delimited dataset files.

Format: the first line is a JSON header ``{"schema": 1, "family": ...,
"dimension": ...}``; every following line is a JSON record with a
family-tagged ``prediction`` object and a variant-tagged ``target`` object.
All records must match the header's family and dimension (when the header
omits ``dimension``, every record must match the first record's), and
mismatches and non-finite parameters are rejected at parse time with the
offending line number.

The parser checks each record's structure as it decodes it, gathers each
field of all records into one array and checks those with the families'
own rules (``distributions``) at once, so it builds no per-record objects.
Records whose fields do not stack into arrays (vectors of several lengths,
mixtures of several sizes or with zero weights) are built one at a time by
the constructors and checked as ``Dataset(predictions, targets)`` checks
them.
The writer builds none either: it formats each column once, every number by
the ``repr`` that ``json.dumps`` calls, and fills one line template per
family, so it writes the bytes that one ``json.dumps`` per record would.
"""

from __future__ import annotations

import json
import math
from functools import partial

import numpy as np

from .distributions import (
    DEFAULTS,
    DISCRETE,
    FAMILIES,
    TARGET_TYPES,
    TARGETS,
    ClassLabel,
    Mixture,
    Prediction,
    RealVector,
    _index_rules,
    _mixture_rules,
    _reals_rules,
    _target_size,
    check_rows,
    discrete_mixture,
    pair_rules,
    wrong_target,
)
from .estimators import Dataset, TestLocations
from .exceptions import DatasetFormatError, DimensionError, KcalibError
from .kernels import Columns

SCHEMA_VERSION = 1
_PREDICTION, _TARGET = "invalid prediction: ", "invalid target: "


class _Ragged(Exception):
    """The records' fields do not stack into arrays: they are built one record at a time."""


# ---------------------------------------------------------------------------
# Records, checked for what needs no numbers


def _decoder(constants: list):
    """A JSON decoder that appends every non-finite number it reads (NaN, Infinity, or a number
    too large for a float) to ``constants``."""

    def number(text):
        value = float(text)
        if math.isinf(value):
            constants.append(text)
        return value

    return json.JSONDecoder(parse_constant=constants.append, parse_float=number).decode


def _component_family(prediction, line: int, nested: bool = False):
    """The family of a prediction object whose fields are present; for a mixture, that of its
    components (None if it has none)."""
    if not isinstance(prediction, dict):
        raise DatasetFormatError(f"{_PREDICTION}not an object", line)
    family = prediction.get("family")
    if family == "mixture":
        if nested:
            raise DatasetFormatError("mixtures of mixtures are not supported", line)
        if "components" not in prediction:
            raise DatasetFormatError(f"{_PREDICTION}'components'", line)
        components = prediction["components"]
        if not isinstance(components, list):
            raise DatasetFormatError(f"{_PREDICTION}components must be a list", line)
        families = {_component_family(c, line, nested=True) for c in components}
        if "weights" not in prediction:
            raise DatasetFormatError(f"{_PREDICTION}'weights'", line)
        if len(families) > 1:
            raise DatasetFormatError(f"{_PREDICTION}mixture components must share one family", line)
        return families.pop() if families else None
    if not isinstance(family, str) or family not in FAMILIES:
        raise DatasetFormatError(f"unknown prediction family {family!r}", line)
    for key, _ in FAMILIES[family][1]:
        if key not in prediction and key not in DEFAULTS:
            raise DatasetFormatError(f"{_PREDICTION}{key!r}", line)
    return family


def _record(raw: str, line: int, family, first: list, decode, constants: list):
    """The prediction and target objects of one record line.

    ``decode`` appends the non-finite numbers it reads to ``constants``;
    ``first`` holds the component family of the first mixture record, which
    every mixture record must share. An error found after the prediction's
    fields carries the prediction in ``prediction``: the prediction's numbers
    are checked before it.
    """
    try:
        record = decode(raw)
    except ValueError as exc:  # also an integer of more digits than Python converts
        raise DatasetFormatError(f"invalid record JSON: {exc}", line) from exc
    if not isinstance(record, dict) or "prediction" not in record or "target" not in record:
        raise DatasetFormatError("record must have 'prediction' and 'target'", line)
    if constants:
        raise DatasetFormatError("non-finite parameter", line)
    prediction, target = record["prediction"], record["target"]
    components = _component_family(prediction, line)
    try:
        kind = target.get("type") if isinstance(target, dict) else None
        if not isinstance(kind, str) or kind not in TARGETS:
            raise DatasetFormatError(f"unknown target type {kind!r}", line)
        field = TARGETS[kind][1]
        if field not in target:
            raise DatasetFormatError(f"{_TARGET}{field!r}", line)
        if prediction["family"] != family:
            raise DatasetFormatError(
                f"record family {prediction['family']!r} does not match header family {family!r}", line
            )
        if components is not None:  # a mixture without components fails its own rules
            if family == "mixture" and components in DISCRETE:
                raise DatasetFormatError(discrete_mixture(components), line)
            if not first:
                first.append(components)
            if components != first[0]:
                raise DatasetFormatError(
                    f"record family 'mixture of {components}' does not match 'mixture of {first[0]}'", line
                )
            if kind != TARGET_TYPES[components][0]:
                raise DatasetFormatError(wrong_target(components), line)
    except DatasetFormatError as exc:
        exc.prediction = prediction
        raise
    return prediction, target


# ---------------------------------------------------------------------------
# Fields of many records, checked at once


def _floats(values: list, kind: str) -> np.ndarray:
    """One field of each record as floats, (n,) numbers or (n, d) vectors or arrays; ``_Ragged``
    if the fields do not stack so."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _Ragged from exc
    if kind == "vector" and arr.ndim == 1:  # numbers stand for vectors of one coordinate
        arr = arr[:, None]
    # (float() rejects what np.array turns into NaN, such as null)
    if arr.ndim != (1 if kind == "number" else 2) or (kind == "number" and np.isnan(arr).any()):
        raise _Ragged
    return arr


def _labelled(label: str, checks: list) -> list:
    return [
        (bad, kind, label + message if isinstance(message, str) else lambda r, m=message: label + m(r))
        for bad, kind, message in checks
    ]


def _per_record(checks: list, k: int) -> list:
    """Checks of the ``k`` components of each mixture, as checks of the mixtures: a mixture
    fails with its first failing component."""

    def grouped(bad):
        return np.asarray(bad() if callable(bad) else bad, dtype=bool).reshape(-1, k)

    def per_record(bad, kind, message):
        if not (callable(bad) or np.ndim(bad)):  # a bool: all rows or none
            return bad, kind, message
        if not isinstance(message, str):
            message = partial(lambda m, r: m(r * k + int(np.argmax(grouped(bad)[r]))), message)
        return lambda: grouped(bad).any(axis=1), kind, message

    return [per_record(*check) for check in checks]


def _columnwise(a: np.ndarray, n: int, k) -> np.ndarray:
    """Rows of one canonical array, one per record (or per component, record-major), as columns
    (a number as a column of one row)."""
    a = a.reshape(len(a), -1)
    return a.T if k is None else np.moveaxis(a.reshape(n, k, -1), (0, 1), (-1, -2))


def _columns(family: str, records: list, dimension) -> Columns:
    """The checked columns of ``records``; raises the first bad record's error, its index in ``row``.

    Raises ``_Ragged`` when the fields of the records do not stack, or when
    a mixture has no component or one of weight 0, which it drops.
    """
    n, predictions, k, weights = len(records), [p for p, _ in records], None, None
    if family == "mixture":
        k, weights = len(predictions[0]["components"]), _floats([p["weights"] for p in predictions], "array")
        if k == 0 or any(len(p["components"]) != k for p in predictions) or not np.all(weights > 0):
            raise _Ragged
        predictions = [c for p in predictions for c in p["components"]]
        family = predictions[0]["family"]
    _, fields, rules = FAMILIES[family]
    arrays = [_floats([p.get(key, DEFAULTS.get(key)) for p in predictions], kind) for key, kind in fields]
    checks, canonical = rules(*arrays)
    checks = _labelled(_PREDICTION, checks)
    if k is not None:
        weight_checks, normalized = _mixture_rules(weights, k)
        checks = _per_record(checks, k) + _labelled(_PREDICTION, weight_checks)
    dim = arrays[0][0].size
    target_type, field = TARGETS[TARGET_TYPES[family][0]]
    values = [t[field] for _, t in records]
    if target_type is RealVector:
        y = _floats(values, "vector")
        target_checks, sizes = _reals_rules(y), [y.shape[-1]] * n
    else:  # an index that is no integer fails its own check first
        target_checks = _index_rules(values, "class index" if target_type is ClassLabel else "count")
        sizes = [v if isinstance(v, (int, np.integer)) else 0 for v in values]
    check_rows(
        checks
        + _labelled(_TARGET, target_checks)
        + [_dimension_check(dim, dimension)]
        + pair_rules(family, dim, [target_type] * n, sizes)
    )
    y = y.T if target_type is RealVector else _floats(values, "number")[None]
    canonical = tuple(_columnwise(a, n, k) for a in canonical())
    return Columns.build(family, canonical, y, None if k is None else normalized().T)


def _dimension_check(dim: int, dimension) -> tuple:
    """The check that a record of dimension ``dim`` has the dataset's ``dimension`` (if not None)."""
    return (dimension is not None and dim != dimension, DimensionError,
            f"record dimension {dim} does not match dataset dimension {dimension}")


def _prediction(prediction: dict) -> Prediction:
    """The object of a record's ``prediction``, whose structure ``_record`` has checked."""
    if prediction["family"] == "mixture":
        return Mixture(prediction["weights"], [_prediction(c) for c in prediction["components"]])
    cls, fields, _ = FAMILIES[prediction["family"]]
    return cls(*[prediction.get(key, DEFAULTS.get(key)) for key, _ in fields])


def _built(label: str, build, *args):
    """``build(*args)``; its ``KcalibError`` with ``label`` before the message."""
    try:
        return build(*args)
    except KcalibError as exc:
        exc.args = (label + str(exc),)
        raise


def _checked_columns(family, records: list, dimension) -> Columns:
    """The columns of all ``records``, checked as arrays or, where they do not stack, one record at a
    time as ``Dataset(predictions, targets)`` checks them; the first bad record's error carries its
    index in ``row``."""
    try:
        return _columns(family, records, dimension)
    except _Ragged:
        pass
    predictions, targets = [], []
    for row, (prediction, target) in enumerate(records):
        try:
            p = _built(_PREDICTION, _prediction, prediction)
            kind, field = TARGETS[target["type"]]
            y = _built(_TARGET, kind, target[field])
            dimension = p.dim if dimension is None else dimension  # the first record fixes it
            check_rows([_dimension_check(p.dim, dimension)]
                       + pair_rules(p.law.removeprefix("mixture of "), p.dim, [kind], [_target_size(y)]))
        except KcalibError as exc:
            exc.row = row
            raise
        predictions.append(p)
        targets.append(y)
    return Columns.of(predictions, targets)


# ---------------------------------------------------------------------------
# Files


def _parse_records(path: str) -> Columns:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:  # named at the line of its first bad byte
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise DatasetFormatError(f"not UTF-8 text: byte {data[exc.start]:#04x} ({exc.reason})", line) from exc
    if not lines:
        raise DatasetFormatError("missing header line", 1)
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise DatasetFormatError(f"invalid header JSON: {exc}", 1) from exc
    if not isinstance(header, dict) or header.get("schema") != SCHEMA_VERSION:
        raise DatasetFormatError(f"unsupported schema {header!r}", 1)
    family = header.get("family")
    dimension = header.get("dimension")
    records, line_of, first, failure, constants = [], [], [], None, []
    decode = _decoder(constants)
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            records.append(_record(raw, lineno, family, first, decode, constants))
        except DatasetFormatError as exc:  # reported unless an earlier record fails its numbers
            failure = exc
            break
        line_of.append(lineno)
    if not records and failure is None:
        raise DatasetFormatError("empty dataset", 2)
    with np.errstate(all="ignore"):
        columns = _at_lines(lambda: _checked_columns(family, records, dimension), line_of) if records else None
        prediction = getattr(failure, "prediction", None)
        if prediction is not None:  # the numbers of its prediction are checked first
            _at_lines(lambda: _built(_PREDICTION, _prediction, prediction), [failure.line])
    if failure is not None:
        raise failure
    return columns


def _at_lines(check, line_of: list):
    """``check()``, its error reported at the line of its row."""
    try:
        return check()
    except KcalibError as exc:
        raise DatasetFormatError(str(exc), line_of[getattr(exc, "row", 0)]) from exc


def parse_dataset(path: str) -> Dataset:
    return Dataset(columns=_parse_records(path))


def parse_locations(path: str) -> TestLocations:
    return TestLocations(columns=_parse_records(path))


def _texts(a: np.ndarray) -> list:
    """The JSON text of each row of ``a`` as ``json.dumps`` writes it: a number per row of a 1-D
    array, the comma-separated numbers of a row of a 2-D one.

    Each number is formatted once, by the ``repr`` that ``json.dumps`` calls,
    and a non-finite one is spelled as ``json.dumps`` spells it.
    """
    if a.ndim == 2 and a.shape[1] == 1:  # rows of one number each, without a list per row
        a = a[:, 0]
    text = str(a.tolist())
    if not np.isfinite(a).all():
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text[1:-1].split(", ") if a.ndim == 1 else text[2:-2].split("], [")


def _object(items: list) -> str:
    """A JSON object of ``(key, text)`` pairs, where a text holds ``%s`` for each value that it takes."""
    return "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in items) + "}"


def write_dataset(path: str, data: Dataset) -> None:
    """Write ``data`` as a dataset file, in the bytes of one ``json.dumps`` per record.

    Each column is formatted once (``_texts``) and each line fills one
    template of its family's fields (``distributions.FAMILIES``) and target
    (``distributions.TARGETS``); a mixture joins its components' texts.
    """
    columns = data.columns
    family = columns.family
    header = {"schema": SCHEMA_VERSION, "family": data.family, "dimension": columns.dim}
    values = [_texts(r) for r in columns.rows()]
    prediction = _object([("family", json.dumps(family))] + [
        (key, "%s" if kind == "number" else "[%s]") for key, kind in FAMILIES[family][1]
    ])
    if columns.weights is not None:
        weights = [row.split(", ") for row in _texts(columns.weights.T)]
        parts = list(map(prediction.__mod__, zip(*values)))
        values = list(zip(*columns.per_prediction(parts, lambda w, c: (", ".join(w), ", ".join(c)), weights)))
        prediction = _object([("family", '"mixture"'), ("weights", "[%s]"), ("components", "[%s]")])
    kind = TARGET_TYPES[family][0]
    if kind == "reals":
        targets, target = _texts(columns.y.T), "[%s]"
    else:
        targets, target = list(map(str, map(int, columns.y[0].tolist()))), "%s"
    target = _object([("type", json.dumps(kind)), (TARGETS[kind][1], target)])
    line = _object([("prediction", prediction), ("target", target)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        fh.writelines(map((line + "\n").__mod__, zip(*values, targets)))


# Test locations are a dataset and are written like one.
write_locations = write_dataset
