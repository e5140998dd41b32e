"""Tests for dataset files and the command-line interface."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcalib
from kcalib import cli, distributions, kernels, synthetic
from kcalib import (
    Categorical,
    ClassLabel,
    Count,
    Dataset,
    DiagNormal,
    Laplace,
    Mixture,
    RealVector,
    TestLocations,
    TruncatedCountable,
)
from kcalib.classical import oracle_ece, oracle_mce
from kcalib.dataset_io import (
    parse_dataset,
    parse_locations,
    write_dataset,
    write_locations,
)
from kcalib.exceptions import ConfigurationError, DatasetFormatError, KcalibError, ParameterError


def _json_dumps_file(data) -> str:
    """The file of ``data`` as one ``json.dumps`` of a record object per pair, built from the
    prediction and target objects: the bytes that ``write_dataset`` must write."""

    def prediction(p):
        if isinstance(p, Mixture):
            return {"family": "mixture", "weights": p.weights.tolist(), "components": [prediction(c) for c in p.components]}
        return {"family": p.family, **{k: np.asarray(getattr(p, k)).tolist() for k, _ in distributions.FAMILIES[p.family][1]}}

    def target(y):
        if isinstance(y, RealVector):
            return {"type": "reals", "values": y.values.tolist()}
        return {"type": "class", "index": y.index} if isinstance(y, ClassLabel) else {"type": "count", "value": y.value}

    header = {"schema": 1, "family": data.family, "dimension": data.columns.dim}
    records = [{"prediction": prediction(p), "target": target(y)} for p, y in zip(data.predictions, data.targets)]
    return "".join(json.dumps(r) + "\n" for r in [header, *records])


def _roundtrip(tmp_path, data, write=write_dataset, parse=parse_dataset):
    path = tmp_path / "data.jsonl"
    write(str(path), data)
    assert path.read_text(encoding="utf-8") == _json_dumps_file(data)
    return parse(str(path))


# ---------------------------------------------------------------------------
# round trips


def test_roundtrip_diag_normal(tmp_path):
    data = Dataset(
        [DiagNormal([0.1, -2.0], [1.0, 0.5]), DiagNormal([3.0, 0.0], [2.0, 2.0])],
        [RealVector([0.0, 1.0]), RealVector([-1.0, 2.0])],
    )
    out = _roundtrip(tmp_path, data)
    assert len(out) == 2
    for (p, y), (q, z) in zip(data, out):
        assert p == q
        assert y == z


def test_roundtrip_categorical(tmp_path):
    data = Dataset(
        [Categorical([0.2, 0.3, 0.5]), Categorical([0.9, 0.05, 0.05])],
        [ClassLabel(2), ClassLabel(0)],
    )
    out = _roundtrip(tmp_path, data)
    assert all(p == q for (p, _), (q, _) in zip(data, out))


def test_roundtrip_laplace_and_mixture(tmp_path):
    m = Mixture([0.4, 0.6], [Laplace(0.0, 1.0), Laplace(2.0, 0.5)])
    data = Dataset([m, Mixture([1.0], [Laplace(1.0, 1.0)])], [RealVector(0.5), RealVector(1.5)])
    out = _roundtrip(tmp_path, data)
    assert out.predictions[0] == m


def test_roundtrip_truncated_countable(tmp_path):
    data = Dataset(
        [TruncatedCountable([0.5, 0.3], tail_mass=0.2), TruncatedCountable([0.7, 0.3])],
        [Count(0), Count(1)],
    )
    out = _roundtrip(tmp_path, data)
    assert out.predictions[0] == data.predictions[0]
    assert out.targets[1] == Count(1)


def test_roundtrip_locations(tmp_path):
    locs = TestLocations(
        predictions=[DiagNormal(0.0, 1.0), DiagNormal(1.0, 2.0)],
        targets=[RealVector(0.0), RealVector(1.0)],
    )
    out = _roundtrip(tmp_path, locs, write_locations, parse_locations)
    assert len(out) == 2
    assert out.predictions[1] == locs.predictions[1]


def test_parse_drops_zero_weight_components_as_the_constructor_does(tmp_path):
    parts = [{"family": "diag_normal", "mean": [m], "var": [1.0]} for m in (0.0, 1.0, 2.0)]
    records = [
        {"prediction": {"family": "mixture", "weights": w, "components": parts[: len(w)]},
         "target": {"type": "reals", "values": [0.5]}}
        for w in ([0.25, 0.0, 0.75], [0.5, 0.5], [0.5, 0.5, 0.0])
    ]
    path = _write(tmp_path, ['{"schema": 1, "family": "mixture", "dimension": 1}'] + [json.dumps(r) for r in records])
    data = parse_dataset(path)
    normals = [DiagNormal(m, 1.0) for m in (0.0, 1.0, 2.0)]
    assert data.predictions == [
        Mixture([0.25, 0.0, 0.75], normals), Mixture([0.5, 0.5], normals[:2]), Mixture([0.5, 0.5, 0.0], normals)
    ]
    assert data.columns.weights.shape == (2, 3)


_EXTREMES = [5e-324, -0.0, 1e-05, 1e16, 1e308, 0.1, 1.0 / 3.0]


def _mixtures_of(component, rng, n=30):
    """Mixtures of 1 to 3 components with ragged kept weights: a weight of 0 drops its component."""
    weights = [[1.0], [0.3, 0.7], [0.2, 0.3, 0.5], [0.25, 0.0, 0.75], [0.0, 1.0]]
    return Dataset(
        [Mixture(w, [component(rng) for _ in w]) for w in (weights[i % len(weights)] for i in range(n))],
        [RealVector(rng.normal()) for _ in range(n)],
    )


def _truncated(rng, tail):
    return TruncatedCountable(rng.dirichlet(np.ones(5)) * (1.0 - tail), tail_mass=tail)


_WRITTEN = {
    "normal-d1": lambda rng: Dataset([DiagNormal(rng.normal(), rng.gamma(2.0)) for _ in range(40)],
                                     [RealVector(rng.normal()) for _ in range(40)]),
    "normal-d10": lambda rng: Dataset([DiagNormal(rng.normal(size=10), rng.gamma(2.0, size=10)) for _ in range(20)],
                                      [RealVector(rng.normal(size=10)) for _ in range(20)]),
    "categorical": lambda rng: Dataset([Categorical(rng.dirichlet(np.ones(4))) for _ in range(40)],
                                       [ClassLabel(int(i)) for i in rng.integers(4, size=40)]),
    "laplace": lambda rng: Dataset([Laplace(rng.normal(), rng.gamma(2.0)) for _ in range(40)],
                                   [RealVector(rng.normal()) for _ in range(40)]),
    "truncated-no-tail": lambda rng: Dataset([_truncated(rng, 0.0) for _ in range(40)],
                                             [Count(int(i)) for i in rng.integers(9, size=40)]),
    "truncated-tail": lambda rng: Dataset([_truncated(rng, 0.15) for _ in range(40)],
                                          [Count(int(i)) for i in rng.integers(9, size=40)]),
    "mixtures-of-normals": lambda rng: _mixtures_of(lambda r: DiagNormal(r.normal(), r.gamma(2.0)), rng),
    "mixtures-of-laplace": lambda rng: _mixtures_of(lambda r: Laplace(r.normal(), r.gamma(2.0)), rng),
    "extreme-floats": lambda rng: Dataset([DiagNormal([a, -b], [abs(b), abs(a)]) for a in _EXTREMES for b in _EXTREMES],
                                          [RealVector([b, a]) for a in _EXTREMES for b in _EXTREMES]),
    "extreme-laplace": lambda rng: Dataset([Laplace(-a, a or 1.0) for a in _EXTREMES], [RealVector(a) for a in _EXTREMES]),
    # columns built by hand need not be finite: written as json.dumps spells them
    "non-finite-columns": lambda rng: Dataset(columns=kernels.Columns.build(
        "diag_normal", (np.array([[np.nan, 0.5, -np.inf]]), np.array([[1.0, np.inf, 2.0]])), np.array([[0.0, np.nan, 1.0]])
    )),
}


@pytest.mark.parametrize("case", sorted(_WRITTEN))
def test_written_bytes_are_one_json_dumps_per_record(case, tmp_path):
    data = _WRITTEN[case](np.random.default_rng(7))
    if case == "non-finite-columns":  # which the parser rejects
        path = tmp_path / "data.jsonl"
        write_dataset(str(path), data)
        assert path.read_text(encoding="utf-8") == _json_dumps_file(data)
        assert "NaN" in path.read_text() and "-Infinity" in path.read_text()
    else:
        assert len(_roundtrip(tmp_path, data)) == len(data)


def _simplex_row(rng, k, alpha, zeros):
    """``k`` probabilities, each 0 with probability ``zeros`` (not all), summing to 1 within a
    few ulps, or for half the draws to 1 + 1e-12, off the canonical band."""
    row = rng.dirichlet(np.full(k, alpha)) * (rng.random(k) >= zeros)
    row = row / row.sum() if row.sum() > 0 else np.eye(k)[0]
    return row * (1.0 + 1e-12) if rng.random() < 0.5 else row


def _truncated_law(rng, k, alpha, zeros, tail):
    return TruncatedCountable((1.0 - tail) * _simplex_row(rng, k, alpha, zeros), tail)


# Each family's predictions of dimension (or support size) k, drawn with the rng, alpha and zeros
# of ``_simplex_row``, and a target of dimension k that they take.
_CANONICAL = {
    "categorical": (lambda rng, k, a, z: Categorical(_simplex_row(rng, k + 1, a, z)), lambda k: ClassLabel(0)),
    "diag_normal": (lambda rng, k, a, z: DiagNormal(rng.normal(size=k) / a, rng.gamma(a, size=k) * (rng.random(k) >= z)),
                    lambda k: RealVector(np.zeros(k))),
    "laplace": (lambda rng, k, a, z: Laplace(rng.normal() / a, max(rng.gamma(a), 5e-324)), lambda k: RealVector(0.5)),
    "truncated": (lambda rng, k, a, z: _truncated_law(rng, k, a, z, 0.0), lambda k: Count(k)),
    "truncated-tail": (lambda rng, k, a, z: _truncated_law(rng, k, a, z, rng.uniform(0.0, 0.5)), lambda k: Count(0)),
}


@given(
    family=st.sampled_from(sorted(_CANONICAL)), mixture=st.booleans(), k=st.integers(1, 6), n=st.integers(1, 8),
    alpha=st.floats(0.01, 5.0), zeros=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_canonical_predictions_are_fixed_points(family, mixture, k, n, alpha, zeros, seed):
    # write -> parse, eval(repr(p)) and the constructor given p's own canonical fields all give p
    rng = np.random.default_rng(seed)
    draw, target = _CANONICAL[family]
    k = 1 if family == "laplace" else k
    if mixture:  # of 1 to 4 components, ragged, some of weight 0 (dropped)
        predictions = [Mixture(_simplex_row(rng, m, alpha, zeros), [draw(rng, k, alpha, zeros) for _ in range(m)])
                       for m in rng.integers(1, 5, size=n)]
    else:
        predictions = [draw(rng, k, alpha, zeros) for _ in range(n)]
    for p in predictions:
        assert eval(repr(p)) == p
        assert type(p)(*(getattr(p, name) for name in p.__slots__)) == p
    if mixture and family not in ("diag_normal", "laplace"):
        return  # no dataset holds mixtures of discrete laws
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.jsonl")
        write_dataset(path, Dataset(predictions, [target(k) for _ in predictions]))
        assert parse_dataset(path).predictions == predictions


def test_writing_formats_columns_without_record_objects(tmp_path):
    # 32,768 d = 1 normals, which a dict and a json.dumps per record would hold in 36 MiB
    data = synthetic.make_scenario_dataset("uncalibrated", 1, 32768, seed=4)
    data.columns
    tracemalloc.start()
    try:
        write_dataset(str(tmp_path / "data.jsonl"), data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak / 2**20


def test_file_format_has_header(tmp_path):
    data = Dataset([DiagNormal(0.0, 1.0)], [RealVector(0.0)])
    path = tmp_path / "d.jsonl"
    write_dataset(str(path), data)
    lines = path.read_text().strip().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == 1
    assert header["family"] == "diag_normal"
    assert header["dimension"] == 1
    record = json.loads(lines[1])
    assert "prediction" in record and "target" in record


# ---------------------------------------------------------------------------
# parse errors carry line numbers


def _write(tmp_path, lines):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


HEADER = '{"schema": 1, "family": "diag_normal", "dimension": 1}'
RECORD = '{"prediction": {"family": "diag_normal", "mean": [0.0], "var": [1.0]}, "target": {"type": "reals", "values": [0.5]}}'


def test_parse_rejects_bad_json_with_line_number(tmp_path):
    path = _write(tmp_path, [HEADER, RECORD, "{not json"])
    with pytest.raises(DatasetFormatError, match="line 3"):
        parse_dataset(path)


def test_parse_rejects_bad_header(tmp_path):
    path = _write(tmp_path, ['{"schema": 99, "family": "diag_normal", "dimension": 1}', RECORD])
    with pytest.raises(DatasetFormatError, match="line 1"):
        parse_dataset(path)


def test_parse_rejects_empty_file(tmp_path):
    path = _write(tmp_path, [HEADER])
    with pytest.raises(DatasetFormatError, match="empty"):
        parse_dataset(path)


def test_parse_rejects_nonfinite_values(tmp_path):
    bad = RECORD.replace("[1.0]", "[NaN]")
    path = _write(tmp_path, [HEADER, bad])
    with pytest.raises(DatasetFormatError, match="line 2"):
        parse_dataset(path)


def test_parse_rejects_infinite_values(tmp_path):
    bad = RECORD.replace("[0.0]", "[Infinity]")
    path = _write(tmp_path, [HEADER, RECORD, bad])
    with pytest.raises(DatasetFormatError, match="line 3"):
        parse_dataset(path)


def test_parse_rejects_family_mismatch(tmp_path):
    other = '{"prediction": {"family": "laplace", "loc": 0.0, "scale": 1.0}, "target": {"type": "reals", "values": [0.0]}}'
    path = _write(tmp_path, [HEADER, RECORD, other])
    with pytest.raises(DatasetFormatError, match="line 3"):
        parse_dataset(path)


HEADER_NO_DIM = '{"schema": 1, "family": "diag_normal"}'
RECORD_D2 = '{"prediction": {"family": "diag_normal", "mean": [0.0, 0.0], "var": [1.0, 1.0]}, "target": {"type": "reals", "values": [0.5, 0.5]}}'


def test_parse_rejects_mixed_dimensions_without_header_dimension(tmp_path):
    path = _write(tmp_path, [HEADER_NO_DIM, RECORD, RECORD_D2])
    with pytest.raises(DatasetFormatError, match="line 3"):
        parse_dataset(path)


CAT_HEADER = '{"schema": 1, "family": "categorical", "dimension": 3}'
CAT_RECORD = '{"prediction": {"family": "categorical", "probs": [0.2, 0.3, 0.5]}, "target": {"type": "class", "index": 1}}'


@pytest.mark.parametrize(
    "header,good,bad",
    [
        (CAT_HEADER, CAT_RECORD, CAT_RECORD.replace('"index": 1', '"index": 7')),
        (CAT_HEADER, CAT_RECORD, CAT_RECORD.replace('{"type": "class", "index": 1}', '{"type": "reals", "values": [1.0]}')),
        (HEADER, RECORD, RECORD.replace("[0.5]", "[0.5, 0.5]")),
    ],
    ids=["class-out-of-range", "reals-on-categorical", "2d-target-on-d1-normal"],
)
def test_parse_rejects_mismatched_pair_with_line_number(tmp_path, header, good, bad):
    path = _write(tmp_path, [header, good, bad])
    with pytest.raises(DatasetFormatError, match="line 3"):
        parse_dataset(path)
    with pytest.raises(DatasetFormatError, match="line 3"):
        parse_locations(path)


def test_parse_rejects_nested_mixture(tmp_path):
    inner = '{"family": "mixture", "weights": [1.0], "components": [{"family": "laplace", "loc": 0.0, "scale": 1.0}]}'
    rec = (
        '{"prediction": {"family": "mixture", "weights": [1.0], "components": [%s]},'
        ' "target": {"type": "reals", "values": [0.0]}}' % inner
    )
    path = _write(tmp_path, ['{"schema": 1, "family": "mixture", "dimension": 1}', rec])
    with pytest.raises(DatasetFormatError, match="line 2"):
        parse_dataset(path)


# ---------------------------------------------------------------------------
# a one-record file builds what the constructor builds


# Per plain family: valid fields and a target for them, then values that are valid too and values
# out of their field's range, each put in place of one field.
_ONE_RECORD = {
    "diag_normal": ({"mean": [0.5, -1.0], "var": [1.0, 0.25]}, {"type": "reals", "values": [0.0, 1.0]},
                    [("var", [0.0, 1e300])], [("var", [-1.0, 0.25]), ("var", [1.0])]),
    "laplace": ({"loc": 0.5, "scale": 2.0}, {"type": "reals", "values": [0.0]},
                [("loc", "-1.5"), ("scale", 5e-324)], [("scale", 0.0), ("scale", -1.0)]),
    "categorical": ({"probs": [0.2, 0.3, 0.5]}, {"type": "class", "index": 1},
                    [("probs", [0.2, 0.3, 0.5 + 1e-12])], [("probs", [1.2, -0.1, -0.1]), ("probs", [0.2, 0.2]), ("probs", [1.0])]),
    "truncated_countable": ({"probs": [0.5, 0.3], "tail_mass": 0.2}, {"type": "count", "value": 1},
                            [("probs", [0.25, 0.55])], [("tail_mass", -0.2), ("tail_mass", 0.5), ("probs", [0.0, 0.0])]),
}


def _field_cases(family):
    """(case, fields) pairs: the valid fields, then one field at a time replaced by a value that is
    valid too, not real, of the wrong shape, not finite, null or out of range."""
    good, _, valid, out_of_range = _ONE_RECORD[family]
    yield "valid", good
    for key, value in good.items():
        number = not isinstance(value, list)
        yield f"{key} not real", {**good, key: "x" if number else ["x"] * len(value)}
        yield f"{key} wrong shape", {**good, key: [value]}
        yield f"{key} not finite", {**good, key: math.inf if number else [math.nan] * len(value)}
        yield f"{key} null", {**good, key: None if number else [None] * len(value)}
    for case, replaced in (("valid", valid), ("out of range", out_of_range)):
        for key, value in replaced:
            yield f"{key} {case} {value!r}", {**good, key: value}
    if family == "truncated_countable":
        yield "tail_mass left out", {"probs": [0.5, 0.5]}


@pytest.mark.parametrize("family", sorted(_ONE_RECORD))
def test_one_record_file_builds_what_the_constructor_builds(family, tmp_path):
    cls, target = distributions.FAMILIES[family][0], _ONE_RECORD[family][1]
    for case, fields in _field_cases(family):
        record = json.dumps({"prediction": {"family": family, **fields}, "target": target})
        path = _write(tmp_path, [json.dumps({"schema": 1, "family": family}), record])
        try:
            expected = cls(**fields)
        except KcalibError as exc:
            with pytest.raises(DatasetFormatError, match="line 2: ") as parsed:
                parse_dataset(path)
            cause = parsed.value.__cause__
            if cause is None:  # the decoder refuses NaN and Infinity before any field is checked
                assert "non-finite parameter" in str(parsed.value), case
            else:
                assert type(cause) is type(exc), (case, cause, exc)
        else:
            assert parse_dataset(path).predictions == [expected], case


# ---------------------------------------------------------------------------
# property test: serialization round-trips exactly


@given(
    means=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=3),
    scale=st.floats(1e-6, 1e6),
)
@settings(max_examples=50, deadline=None)
def test_roundtrip_preserves_exact_floats(tmp_path_factory, means, scale):
    tmp_path = tmp_path_factory.mktemp("rt")
    d = len(means)
    data = Dataset(
        [DiagNormal(means, np.full(d, scale))], [RealVector(np.zeros(d))]
    )
    out = _roundtrip(tmp_path, data)
    assert np.array_equal(out.predictions[0].mean, np.asarray(means, dtype=np.float64))
    assert np.array_equal(out.predictions[0].var, np.full(d, scale))


# ---------------------------------------------------------------------------
# CLI


# The package root this test process imported kcalib from. The child runs in
# a tmp dir, where a relative PYTHONPATH entry (e.g. ``src``) no longer
# resolves, so the absolute root goes first on the child's PYTHONPATH.
_PACKAGE_ROOT = str(Path(kcalib.__file__).resolve().parents[1])


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "kcalib.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture(scope="module")
def sample_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    path = tmp / "sample.jsonl"
    res = _run(
        ["generate", "--scenario", "calibrated", "--dim", "1", "--n", "32",
         "--seed", "3", "--out", str(path)],
        cwd=str(tmp),
    )
    assert res.returncode == 0, res.stderr
    return str(path)


def test_cli_generate_creates_parseable_file(sample_file):
    data = parse_dataset(sample_file)
    assert len(data) == 32
    assert data.family == "diag_normal"


def test_cli_generate_ols_ignores_n_and_dim(tmp_path, capsys):
    out = tmp_path / "ols.jsonl"
    assert cli.main(["generate", "--scenario", "ols", "--n", "500", "--dim", "3", "--seed", "2", "--out", str(out)]) == 0
    data = parse_dataset(str(out))
    assert np.array_equal(data.columns.y, synthetic.gen_ols_scenario(2).validation.columns.y)
    assert data.columns.y.shape == (1, 50)
    with pytest.raises(SystemExit):
        cli.main(["generate", "--help"])
    assert "ignored by ols" in capsys.readouterr().out


def test_cli_estimate_json_output(sample_file, tmp_path):
    res = _run(
        ["estimate", "--data", sample_file, "--estimator", "block",
         "--block-size", "4", "--format", "json"],
        cwd=str(tmp_path),
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["estimator"].startswith("block")
    assert math.isfinite(payload["value"])
    assert payload["diagnostics"]["h_evaluations"] == 8 * 6
    assert payload["diagnostics"]["path"] == "normal GEMM"
    assert payload["diagnostics"]["tile"] == 209  # 3 T x T arrays of isotropic normals


def test_cli_test_block_and_bootstrap(sample_file, tmp_path):
    res = _run(
        ["test", "--data", sample_file, "--method", "sqrt-block", "--format", "json"],
        cwd=str(tmp_path),
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert 0.0 <= payload["p_value"] <= 1.0
    diagnostics = payload["diagnostics"]  # B = 5: 6 blocks of 10 pairs, 2 points dropped
    assert (diagnostics["path"], diagnostics["h_evaluations"], diagnostics["dropped_points"]) == ("normal GEMM", 60, 2)

    res2 = _run(
        ["test", "--data", sample_file, "--method", "bootstrap",
         "--bootstrap", "150", "--seed", "5", "--format", "json"],
        cwd=str(tmp_path),
    )
    assert res2.returncode == 0, res2.stderr
    p1 = json.loads(res2.stdout)["p_value"]
    # deterministic given the seed
    res3 = _run(
        ["test", "--data", sample_file, "--method", "bootstrap",
         "--bootstrap", "150", "--seed", "5", "--format", "json"],
        cwd=str(tmp_path),
    )
    assert res3.returncode == 0, res3.stderr
    assert json.loads(res3.stdout)["p_value"] == p1


def test_cli_test_cme_with_location_file(sample_file, tmp_path):
    locs = TestLocations(
        predictions=[DiagNormal(0.3 * j, 0.01) for j in range(3)],
        targets=[RealVector(0.1 * j) for j in range(3)],
    )
    loc_path = tmp_path / "locs.jsonl"
    write_locations(str(loc_path), locs)
    res = _run(
        ["test", "--data", sample_file, "--method", "cme",
         "--locations", str(loc_path), "--format", "json"],
        cwd=str(tmp_path),
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["method"] == "cme(J=3)"


def test_cli_cme_refuses_locations_of_another_target_type(tmp_path, capsys):
    data_path, loc_path = str(tmp_path / "data.jsonl"), str(tmp_path / "locs.jsonl")
    argv = ["generate", "--scenario", "uncalibrated", "--dim", "1", "--n", "50", "--seed", "0", "--out", data_path]
    assert cli.main(argv) == 0
    locs = TestLocations(
        [Categorical([0.2 + 0.3 * j, 0.8 - 0.3 * j]) for j in range(3)], [ClassLabel(j % 2) for j in range(3)]
    )
    write_locations(loc_path, locs)
    for command in (["test", "--method", "cme"], ["ucme"]):
        argv = [*command, "--metric", "param-euclidean", "--data", data_path, "--locations", loc_path]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "test locations take class-label targets" in err and "Traceback" not in err


def test_cli_ucme(sample_file, tmp_path):
    res = _run(
        ["ucme", "--data", sample_file, "--cme-locations", "4", "--format", "json"],
        cwd=str(tmp_path),
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["value"] >= 0.0
    assert payload["diagnostics"]["path"] == "normal GEMM"
    assert payload["diagnostics"]["h_evaluations"] == 32 * 4


def test_cli_diagnose(sample_file, tmp_path):
    res = _run(
        ["diagnose", "--data", sample_file,
         "--metrics", "quantile-curve,pinball,nll,mse", "--format", "json"],
        cwd=str(tmp_path),
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert "nll" in payload and "mse" in payload


def test_cli_diagnose_pinball_on_point_mass_mixtures(tmp_path, capsys):
    parts = [{"family": "diag_normal", "mean": [m], "var": [v]} for m, v in ((-1.0, 0.0), (1.0, 1.0), (1.0, 0.0))]
    records = [
        {"prediction": {"family": "mixture", "weights": w, "components": c}, "target": {"type": "reals", "values": [0.0]}}
        for w, c in (([0.3, 0.7], parts[:2]), ([0.5, 0.5], [parts[0], parts[2]]))
    ]
    path = _write(tmp_path, ['{"schema": 1, "family": "mixture", "dimension": 1}'] + [json.dumps(r) for r in records])
    assert cli.main(["diagnose", "--data", path, "--metrics", "pinball", "--format", "json"]) == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["pinball_mean"])


def test_cli_recalibrate_roundtrip(sample_file, tmp_path):
    out = tmp_path / "scaled.jsonl"
    res = _run(
        ["recalibrate", "--data", sample_file, "--temperature", "2.0",
         "--out", str(out)],
        cwd=str(tmp_path),
    )
    assert res.returncode == 0, res.stderr
    scaled = parse_dataset(str(out))
    original = parse_dataset(sample_file)
    assert np.allclose(
        scaled.predictions[0].var, 2.0 * original.predictions[0].var
    )
    # targets pass through unchanged
    assert scaled.targets[0] == original.targets[0]


def _per_record_temperature_scale(p, t):
    """Temperature scaling one prediction object at a time."""
    if isinstance(p, DiagNormal):
        return DiagNormal(p.mean, p.var * t)
    if isinstance(p, Laplace):
        return Laplace(p.loc, p.scale * t)
    scaled = p.probs ** (1.0 / t)
    return Categorical(scaled / scaled.sum())


@pytest.mark.parametrize("family", ["diag_normal", "laplace", "categorical"])
@pytest.mark.parametrize("t", [0.3, 2.0])
def test_cli_recalibrate_matches_per_record_scaling(family, t, tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng([7, len(family)])
    n = 50
    if family == "diag_normal":
        preds = [DiagNormal(rng.normal(size=2), rng.uniform(0.0, 3.0, 2)) for _ in range(n)]
        tgts = [RealVector(rng.normal(size=2)) for _ in range(n)]
    elif family == "laplace":
        preds = [Laplace(rng.normal(), rng.uniform(0.1, 3.0)) for _ in range(n)]
        tgts = [RealVector(rng.normal()) for _ in range(n)]
    else:
        preds = [Categorical(rng.dirichlet(np.full(4, 0.5))) for _ in range(n)]
        tgts = [ClassLabel(int(c)) for c in rng.integers(0, 4, n)]
    data, out, want = tmp_path / "data.jsonl", tmp_path / "scaled.jsonl", tmp_path / "want.jsonl"
    write_dataset(str(data), Dataset(preds, tgts))
    original = parse_dataset(str(data))
    write_dataset(str(want), Dataset([_per_record_temperature_scale(p, t) for p in original.predictions], tgts))
    # the command reads and writes columns: it builds no prediction or target objects
    for cls in (DiagNormal, Laplace, Categorical, RealVector, ClassLabel):
        monkeypatch.setattr(cls, "__init__", None)
    monkeypatch.setattr(kernels, "_unchecked", None)
    assert cli.main(["recalibrate", "--data", str(data), "--temperature", str(t), "--out", str(out)]) == 0
    monkeypatch.undo()
    if family != "categorical":
        assert out.read_bytes() == want.read_bytes()
    else:
        got, expected = parse_dataset(str(out)), parse_dataset(str(want))
        np.testing.assert_allclose(got.columns.emb, expected.columns.emb, rtol=0.0, atol=1e-15)
        assert got.targets == expected.targets


def test_cli_recalibrate_rejects_mixtures_and_bad_temperatures(tmp_path, capsys):
    data, out = tmp_path / "data.jsonl", tmp_path / "scaled.jsonl"
    write_dataset(str(data), Dataset([Mixture([0.4, 0.6], [Laplace(0, 1), Laplace(1, 2)])], [RealVector(0.5)]))
    assert cli.main(["recalibrate", "--data", str(data), "--temperature", "2", "--out", str(out)]) == 2
    assert "no closed form for family 'mixture'" in capsys.readouterr().err
    write_dataset(str(data), Dataset([Laplace(0.0, 1e-300)], [RealVector(0.5)]))
    assert cli.main(["recalibrate", "--data", str(data), "--temperature", "1e-300", "--out", str(out)]) == 2
    assert "Laplace scale must be strictly positive" in capsys.readouterr().err
    for t in ("0", "-1", "nan"):
        assert cli.main(["recalibrate", "--data", str(data), "--temperature", t, "--out", str(out)]) == 2
        assert "temperature must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_cli_benchmark_csv(tmp_path):
    out = tmp_path / "bench.csv"
    res = _run(
        ["synthetic-benchmark", "--mode", "tests", "--scenario", "uncalibrated",
         "--n-grid", "32", "--replicates", "3", "--bootstrap", "100",
         "--seed", "1", "--out", str(out)],
        cwd=str(tmp_path),
    )
    assert res.returncode == 0, res.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("scenario,")
    assert len(lines) > 1


@pytest.mark.parametrize("grid", ["4,x", ",", ""])
def test_cli_benchmark_rejects_a_malformed_n_grid(grid, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["synthetic-benchmark", "--n-grid", grid])
    assert exc.value.code == 2
    assert "--n-grid" in capsys.readouterr().err


def _mixture_record(components, target):
    weights = [1.0 / len(components)] * len(components)
    prediction = {"family": "mixture", "weights": weights, "components": components}
    return json.dumps({"prediction": prediction, "target": target})


NORMAL_PARTS = [{"family": "diag_normal", "mean": [m], "var": [1.0]} for m in (0.0, 1.0)]
LAPLACE_PARTS = [{"family": "laplace", "loc": m, "scale": 1.0} for m in (0.0, 1.0)]
CAT_PARTS = [{"family": "categorical", "probs": p} for p in ([0.2, 0.3, 0.5], [0.6, 0.2, 0.2])]
REALS = {"type": "reals", "values": [0.5]}


@pytest.mark.parametrize(
    "good,bad",
    [
        (_mixture_record(NORMAL_PARTS, REALS), _mixture_record(LAPLACE_PARTS, REALS)),
        (_mixture_record(NORMAL_PARTS, REALS), _mixture_record(CAT_PARTS, REALS)),
    ],
    ids=["normal-and-laplace-mixtures", "reals-on-categorical-mixture"],
)
def test_mixtures_no_metric_can_evaluate_are_rejected_with_line_number(tmp_path, good, bad):
    path = _write(tmp_path, ['{"schema": 1, "family": "mixture"}', good, bad])
    with pytest.raises(DatasetFormatError, match="line 3"):
        parse_dataset(path)
    res = _run(["estimate", "--data", path, "--metric", "mw"], cwd=str(tmp_path))
    assert res.returncode == 2
    assert "line 3" in res.stderr
    assert "Traceback" not in res.stderr


def test_mixtures_of_discrete_laws_are_rejected_with_line_number(tmp_path):
    # no prediction metric compares them: they fail at load time, not at the first reduction
    good = _mixture_record(CAT_PARTS, {"type": "class", "index": 1})
    path = _write(tmp_path, ['{"schema": 1, "family": "mixture"}', good, good])
    with pytest.raises(DatasetFormatError, match="line 2: mixtures of categorical"):
        parse_dataset(path)
    for metric in ("w2", "mw", "param-euclidean"):
        res = _run(["estimate", "--data", path, "--metric", metric, "--target-kernel", "kronecker"], cwd=str(tmp_path))
        assert res.returncode == 2
        assert "line 2: mixtures of categorical" in res.stderr


def test_zero_dimensional_records_are_rejected_with_line_number(tmp_path):
    empty = '{"prediction": {"family": "diag_normal", "mean": [], "var": []}, "target": {"type": "reals", "values": []}}'
    for header in ('{"schema": 1, "family": "diag_normal"}', '{"schema": 1, "family": "diag_normal", "dimension": 0}'):
        path = _write(tmp_path, [header, empty, empty])
        with pytest.raises(DatasetFormatError, match="line 2: invalid prediction: normal predictions need at least one"):
            parse_dataset(path)
        res = _run(["estimate", "--data", path], cwd=str(tmp_path))
        assert res.returncode == 2
        assert "line 2" in res.stderr and "Traceback" not in res.stderr


def test_oversized_arrays_are_refused_before_allocation(sample_file, monkeypatch, capsys):
    # the limit is lowered, so that the refused arrays are small: the 32-pair sample file needs
    # 100 * 32 = 3,200 bytes of uint8 bootstrap counts, 4 * 8 * 100 * 32 = 102,400 bytes of (R, T)
    # float64 tile temporaries, 8 * 3 * 32 * 32 = 24,576 bytes of the tile itself and 16 * 100 * 32 =
    # 51,200 bytes of the one draw call's int64 indices and tally, 181,376 in all, and 8 * 3 * 10 * 32
    # = 7,680 bytes of draws
    monkeypatch.setattr(distributions, "PHYSICAL_MEMORY", 3_000)
    data = parse_dataset(sample_file)
    with pytest.raises(ConfigurationError, match="181,376 bytes"):
        kcalib.test_bootstrap_ustat(kcalib.default_kernel_spec(), data, 100)
    with pytest.raises(ConfigurationError, match="7,680 bytes"):
        kcalib.skce_ustat(kcalib.KernelSpec(expectation=kcalib.MonteCarlo(10)), data)
    commands = [
        (["test", "--method", "bootstrap", "--bootstrap", "100"], "181,376 bytes"),
        (["estimate", "--expectation", "monte-carlo", "--mc-samples", "10"], "7,680 bytes"),
    ]
    for command, size in commands:
        assert cli.main([*command, "--data", sample_file]) == 2
        err = capsys.readouterr().err
        assert size in err and "3,000 bytes" in err
    monkeypatch.setattr(distributions, "PHYSICAL_MEMORY", 181_376)
    assert cli.main(["test", "--method", "bootstrap", "--bootstrap", "100", "--data", sample_file]) == 0


def test_cli_error_exit_codes(tmp_path):
    # unreadable dataset -> domain error -> exit code 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n")
    res = _run(["estimate", "--data", str(bad)], cwd=str(tmp_path))
    assert res.returncode == 2
    assert "line 1" in res.stderr

    missing = _run(["estimate", "--data", str(tmp_path / "missing.jsonl")], cwd=str(tmp_path))
    assert missing.returncode == 2

    # mixed record dimensions under a header without "dimension"
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("\n".join([HEADER_NO_DIM, RECORD, RECORD_D2]) + "\n")
    res = _run(["estimate", "--data", str(mixed)], cwd=str(tmp_path))
    assert res.returncode == 2
    assert "line 3" in res.stderr
    assert "Traceback" not in res.stderr

    # default CME locations are real vectors: a categorical file needs --locations
    categorical = tmp_path / "categorical.jsonl"
    write_dataset(
        str(categorical),
        Dataset(
            [Categorical(np.roll([0.6, 0.3, 0.1], k)) for k in range(12)],
            [ClassLabel(k % 3) for k in range(12)],
        ),
    )
    kernel = ["--metric", "param-euclidean", "--target-kernel", "kronecker"]
    for command in (["test", "--method", "cme"], ["ucme"]):
        res = _run([*command, "--data", str(categorical), *kernel], cwd=str(tmp_path))
        assert res.returncode == 2, res.stderr
        assert "--locations" in res.stderr
        assert "Traceback" not in res.stderr


@pytest.mark.parametrize("flag", ["--data", "--locations", "--oracle-data"])
def test_files_that_are_not_utf8_are_rejected_with_line_number(tmp_path, flag):
    good = tmp_path / "good.jsonl"
    good.write_text("\n".join([CAT_HEADER, CAT_RECORD, CAT_RECORD.replace('"index": 1', '"index": 2')]) + "\n")
    bad = tmp_path / "bad.jsonl"
    # a UTF-16 byte order mark at the start of the third line
    bad.write_bytes(b"\n".join([CAT_HEADER.encode(), CAT_RECORD.encode(), b"\xff\xfe" + CAT_RECORD.encode()]) + b"\n")
    with pytest.raises(DatasetFormatError, match="line 3: not UTF-8"):
        parse_dataset(str(bad))
    kernel = ["--metric", "param-euclidean", "--target-kernel", "kronecker"]
    command = {
        "--data": ["estimate", "--data", str(bad), *kernel],
        "--locations": ["test", "--method", "cme", "--data", str(good), "--locations", str(bad), *kernel],
        "--oracle-data": ["diagnose", "--metrics", "oracle-ece", "--data", str(good), "--oracle-data", str(bad)],
    }[flag]
    res = _run(command, cwd=str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "line 3: not UTF-8" in res.stderr
    assert "Traceback" not in res.stderr


def test_integers_that_no_float_holds_are_rejected_with_line_number(tmp_path):
    header = '{"schema": 1, "family": "truncated_countable", "dimension": 2}'
    record = '{"prediction": {"family": "truncated_countable", "probs": [0.5, 0.5]}, "target": {"type": "count", "value": %s}}'
    # more digits than a float holds (checked as a count), and more than Python converts (as JSON)
    for digits, message in ((400, "count is too large"), (5000, "invalid record JSON")):
        path = _write(tmp_path, [header, record % 1, record % ("1" + "0" * digits)])
        with pytest.raises(DatasetFormatError, match=f"line 3: .*{message}"):
            parse_dataset(path)
    with pytest.raises(ParameterError, match="too large"):
        Dataset([TruncatedCountable([0.5, 0.5])], [Count(10**400)])


def test_cli_import_leaves_scipy_stats_and_optimize_unloaded(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")]))
    code = "import sys, kcalib.cli; print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=str(tmp_path), env=env
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_cli_import_leaves_scipy_sparse_unloaded(tmp_path):
    # the batched transport solver loads scipy.sparse on its first use only
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")]))
    code = "import sys, kcalib.cli; print('scipy.sparse' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=str(tmp_path), env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_cli_import_leaves_scipy_special_unloaded(tmp_path):
    # the normal CDF, its inverse and exprel come from the standard library and numpy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")]))
    code = "import sys, kcalib.cli; print('scipy.special' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=str(tmp_path), env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_cli_commands_on_normals_leave_scipy_special_unloaded(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, sys\n"
        "from kcalib import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(code, 'scipy.special' in sys.modules)\n"
    )
    data, scaled = str(tmp_path / "d.jsonl"), str(tmp_path / "s.jsonl")
    commands = [
        ["generate", "--scenario", "uncalibrated", "--n", "64", "--seed", "2", "--out", data],
        ["estimate", "--data", data],
        ["test", "--data", data, "--method", "sqrt-block"],
        ["test", "--data", data, "--method", "bootstrap", "--bootstrap", "100"],
        ["diagnose", "--data", data],
        ["recalibrate", "--data", data, "--temperature", "2", "--out", scaled],
        ["test", "--data", data, "--method", "cme"],
    ]
    for argv in commands:
        res = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, cwd=str(tmp_path), env=env
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["0", "False"], argv


def test_estimate_and_tests_on_a_parsed_file_build_no_records(sample_file, tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(5)
    classes, oracle = str(tmp_path / "classes.jsonl"), str(tmp_path / "oracle.jsonl")
    labels = [ClassLabel(int(c)) for c in rng.integers(0, 3, 8)]
    for path in (classes, oracle):
        write_dataset(path, Dataset([Categorical(p) for p in rng.dirichlet(np.ones(3), 8)], labels))
    built = []

    def counting(init):
        def counted(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        return counted

    for cls in (DiagNormal, RealVector, Categorical, ClassLabel):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    unchecked = kernels._unchecked  # how lists read from columns are built
    monkeypatch.setattr(kernels, "_unchecked", lambda cls, *values: built.append(cls) or unchecked(cls, *values))
    monte_carlo = ["--expectation", "monte-carlo", "--mc-samples", "200"]
    commands = [
        ["estimate"],
        ["estimate", *monte_carlo],
        ["test", "--method", "sqrt-block"],
        ["test", "--method", "bootstrap", "--bootstrap", "100"],
        ["test", "--method", "bootstrap", "--bootstrap", "100", *monte_carlo],
        ["test", "--method", "cme"],
        ["diagnose", "--metrics", "quantile-curve,pinball,nll,mse"],
    ]
    for argv in commands:
        assert cli.main([*argv, "--data", sample_file, "--format", "json"]) == 0
    capsys.readouterr()
    assert cli.main(["diagnose", "--metrics", "oracle-ece", "--oracle-data", oracle, "--data", classes,
                     "--format", "json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert built == []
    data, truth = parse_dataset(classes), parse_dataset(oracle).predictions
    laws = {id(p): q for p, q in zip(data.predictions, truth)}
    assert math.isclose(printed["oracle_ece"], oracle_ece(data, lambda p: laws[id(p)]), rel_tol=1e-12)
    assert printed["oracle_mce"] == oracle_mce(data, lambda p: laws[id(p)])
    # the count sees the objects that reading the lists builds
    assert len(parse_dataset(sample_file).predictions) == 32
    assert built.count(DiagNormal) == built.count(RealVector) == 32


# ---------------------------------------------------------------------------
# fuzz: malformed records never crash the CLI


_MUTATIONS = ("drop", "ragged", "empty", "nan", "huge", "negative-variance", "family", "target-type", "not-an-object")


def _mutate(record: dict, mutation: str, pick: int) -> None:
    prediction, target = (p if isinstance(p, dict) else {} for p in (record.get("prediction"), record.get("target")))
    vectors = [v for v in (prediction.get("mean"), prediction.get("var"), target.get("values")) if v]
    if mutation == "drop":
        owner = [record, record, prediction, prediction, prediction, target, target][pick % 7]
        owner.pop(["prediction", "target", "mean", "var", "family", "values", "type"][pick % 7], None)
    elif mutation == "ragged" and vectors:
        vectors[pick % len(vectors)].append(0.5)
    elif mutation == "empty" and vectors:
        vectors[pick % len(vectors)].clear()
    elif mutation in ("nan", "huge") and vectors:
        vectors[pick % len(vectors)][0] = float("nan") if mutation == "nan" else "__HUGE__"
    elif mutation == "negative-variance" and prediction.get("var"):
        prediction["var"][0] = -1.0
    elif mutation == "family":
        prediction["family"] = ["laplace", "categorical", "mixture", "truncated_countable", "bogus"][pick % 5]
    elif mutation == "target-type":
        target["type"] = ["class", "count", "bogus"][pick % 3]
    elif mutation == "not-an-object":
        record[["prediction", "target"][pick % 2]] = [1.5, None, "x"][pick % 3]


@st.composite
def _mutated_records(draw):
    d = draw(st.integers(1, 2))
    n = draw(st.integers(2, 6))
    records = [
        {
            "prediction": {"family": "diag_normal", "mean": [0.1 * i] * d, "var": [0.5] * d},
            "target": {"type": "reals", "values": [0.2 * i - 0.3] * d},
        }
        for i in range(n)
    ]
    edits = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(_MUTATIONS), st.integers(0, 6)),
                          min_size=1, max_size=3))
    for row, mutation, pick in edits:
        _mutate(records[row], mutation, pick)
    header = json.dumps({"schema": 1, "family": "diag_normal", "dimension": d})
    return [header] + [json.dumps(r).replace('"__HUGE__"', "1e999") for r in records]


@given(lines=_mutated_records(), command=st.sampled_from([["estimate"], ["diagnose"], ["test", "--method", "cme"]]))
@settings(max_examples=150, deadline=None)
def test_cli_fuzzed_records_exit_cleanly_and_name_the_line(tmp_path_factory, lines, command):
    path = tmp_path_factory.mktemp("fuzz") / "data.jsonl"
    path.write_text("\n".join(lines) + "\n")
    try:
        parse_dataset(str(path))
        bad_line = None
    except DatasetFormatError as exc:
        bad_line = exc.line
        assert bad_line is not None and 2 <= bad_line <= len(lines)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*command, "--data", str(path), "--format", "json"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if bad_line is not None:
        assert code == 2
        assert f"line {bad_line}:" in err.getvalue()


def test_cli_version(tmp_path):
    res = _run(["--version"], cwd=str(tmp_path))
    assert res.returncode == 0
    assert "kcalib" in res.stdout
