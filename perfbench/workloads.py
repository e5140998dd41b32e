"""The benchmark's workloads: inputs, operations and checks of their outputs.

Every workload is a closed loop with one client: it starts an operation
only when the previous one has returned, and repeats the same round of
operations. Inputs are built through the program (``kcalib generate`` or
``kcalib.synthetic`` and ``dataset_io.write_dataset``); families that
``synthetic`` lacks come from the generators below. The seed decides the
inputs and nothing else.

Library calls go through module attributes (``est.skce_ustat``, ...) looked
up at call time, so a traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from kcalib import calibration_tests as ct
from kcalib import cli
from kcalib import dataset_io as dio
from kcalib import distributions as dist
from kcalib import estimators as est
from kcalib import kernels as kn
from kcalib import synthetic as syn

BOOTSTRAP = 500
CME_LOCATIONS = 10
# Every test must reject the miscalibrated inputs at this level; the
# smallest bootstrap p-value with 500 resamples is 1/501.
P_MAX = 0.01
REL_TOL = 1e-9
# Kernel of all normal-family operations (the CLI default).
GAMMA = 0.5


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_child(argv, scratch, env=None):
    """Run a process to its end; (exit code, stdout, stderr, peak RSS in MB).

    Its output is captured in files under ``scratch``. The peak RSS is the
    child's own ``ru_maxrss`` from ``wait4``.
    """
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (
            proc.returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
            usage.ru_maxrss / 1024.0,
        )


def child_env() -> dict:
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def cli_in_process(argv):
    """``kcalib.cli.main(argv)`` in this process; its JSON payload."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"kcalib {' '.join(argv)} exited with {code}")
    return json.loads(buf.getvalue())


def as_mixture(p):
    return p if isinstance(p, dist.Mixture) else dist.Mixture([1.0], [p])


def normal_arrays(data):
    mean = np.array([p.mean for p in data.predictions])
    var = np.array([p.var for p in data.predictions])
    y = np.array([t.values for t in data.targets])
    return mean, var, y


def location_arrays(locs):
    return (
        np.array([p.mean for p in locs.predictions]),
        np.array([p.var for p in locs.predictions]),
        np.array([t.values for t in locs.targets]),
    )


def categorical_inputs(seed: int, n: int = 2048, classes: int = 10):
    """Dirichlet(1) class probabilities; each label is drawn from the
    prediction shifted by one class, so the model is miscalibrated."""
    rng = np.random.default_rng([seed, 1])
    probs = rng.dirichlet(np.ones(classes), size=n)
    shifted = np.cumsum(np.roll(probs, 1, axis=1), axis=1)
    labels = np.minimum((shifted < rng.random(n)[:, None]).sum(axis=1), classes - 1)
    return probs, labels


def mixture_inputs(seed: int, n: int = 48, components: int = 3, shift: float = 1.0):
    """Mixtures of one-dimensional normals; each target is a draw from its
    prediction moved by ``shift``, so the model is miscalibrated."""
    rng = np.random.default_rng([seed, 2])
    weights = rng.dirichlet(np.ones(components), size=n)
    means = rng.normal(0.0, 1.0, size=(n, components))
    var = rng.uniform(0.1, 1.0, size=(n, components))
    pick = np.minimum(
        (np.cumsum(weights, axis=1) < rng.random(n)[:, None]).sum(axis=1), components - 1
    )
    rows = np.arange(n)
    y = means[rows, pick] + np.sqrt(var[rows, pick]) * rng.standard_normal(n) + shift
    return weights, means, var, y


def fingerprint(output) -> str:
    """Exact digest of an operation's output, to check that rounds repeat."""
    if dataclasses.is_dataclass(output):
        output = dataclasses.asdict(output)

    def default(obj):
        if isinstance(obj, np.ndarray):
            return hashlib.sha1(np.ascontiguousarray(obj).tobytes()).hexdigest()
        return repr(obj)

    return json.dumps(output, sort_keys=True, default=default)


class Checks:
    """Collects the ways the program's outputs disagree with expectations."""

    def __init__(self):
        self.problems = []

    def true(self, what: str, ok: bool) -> None:
        if not ok:
            self.problems.append(what)

    def close(self, what: str, got, want, rel: float = REL_TOL, abs_tol: float = 0.0) -> None:
        got, want = float(got), float(want)
        ok = abs(got - want) <= max(rel * max(abs(got), abs(want)), abs_tol)
        self.true(f"{what}: got {got!r}, want {want!r} (rel {rel:g})", ok)

    def rejects(self, what: str, p_value) -> None:
        self.true(f"{what}: p-value {p_value!r} does not reject at {P_MAX}", p_value <= P_MAX)


@dataclass
class Op:
    name: str
    kind: str  # "estimate", "test" or "other"
    fn: Callable


class Workload:
    """Base: ``setup`` builds inputs, ``ops`` lists one round, ``check`` judges outputs."""

    name = ""

    def __init__(self, seed: int, work: Path, traced: bool):
        self.seed = seed
        self.work = work
        self.traced = traced
        self.rss = []  # peak RSS (MB) of each child an untraced round started

    def before_round(self) -> None:
        if self.traced:  # the traced run builds its inputs in every round
            self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def check(self, outputs: dict, checks: Checks) -> None:
        raise NotImplementedError

    def probe_source(self):
        """(univariate dataset, kernel spec, CLI kernel flags) for the traced run's probes."""
        raise NotImplementedError


class CliRegression(Workload):
    """One ``kcalib`` process per command on a JSONL file of 4096 d=1 normals."""

    name = "cli-regression"
    n = 4096

    def __init__(self, seed, work, traced):
        super().__init__(seed, work, traced)
        self.data_path = str(work / "data.jsonl")
        self.recal_path = str(work / "recalibrated.jsonl")

    def _kcalib(self, argv):
        argv = list(argv) + ["--format", "json"]
        if self.traced:  # in-process, so spans reach the layers below the CLI
            return cli_in_process(argv)
        code, out, err, rss = run_child(
            [sys.executable, "-m", "kcalib.cli", *argv], self.work, child_env())
        self.rss.append(rss)
        if code != 0:
            raise RuntimeError(f"kcalib {' '.join(argv)} exited with {code}: {err[-400:]}")
        return json.loads(out)

    def setup(self):
        self._kcalib(
            ["generate", "--scenario", "uncalibrated", "--dim", "1", "--n", str(self.n),
             "--seed", str(self.seed), "--out", self.data_path]
        )

    def ops(self):
        data, recal = ["--data", self.data_path], ["--data", self.recal_path]
        commands = [
            ("estimate", "estimate", ["estimate", *data, "--estimator", "u-statistic"]),
            ("sqrt-block", "test", ["test", *data, "--method", "sqrt-block"]),
            ("bootstrap", "test",
             ["test", *data, "--method", "bootstrap", "--bootstrap", str(BOOTSTRAP)]),
            ("cme", "test", ["test", *data, "--method", "cme"]),
            ("diagnose", "other", ["diagnose", *data]),
            ("recalibrate", "other",
             ["recalibrate", *data, "--temperature", "2", "--out", self.recal_path]),
            ("recalibrated-sqrt-block", "test", ["test", *recal, "--method", "sqrt-block"]),
        ]
        return [Op(name, kind, lambda argv=argv: self._kcalib(argv)) for name, kind, argv in commands]

    def check(self, outputs, checks):
        mean, var, y = oracles.read_normal_jsonl(self.data_path)
        n = len(mean)
        checks.true(f"generate wrote {n} records, want {self.n}", n == self.n)
        ustat = oracles.ustat_normal(mean, var, y, gamma=GAMMA)
        if "estimate" in outputs:
            out = outputs["estimate"]
            checks.close("estimate u-statistic vs oracle", out["value"], ustat)
            checks.true("estimate h_evaluations", out["diagnostics"]["h_evaluations"] == n * (n - 1) // 2)
        if "bootstrap" in outputs:
            out = outputs["bootstrap"]
            checks.close("bootstrap skce_ustat vs oracle u-statistic", out["diagnostics"]["skce_ustat"], ustat)
            checks.close("bootstrap statistic = n * skce_ustat", out["statistic"], n * ustat)
            checks.rejects("bootstrap", out["p_value"])
        block = math.isqrt(n)
        if "sqrt-block" in outputs:
            out = outputs["sqrt-block"]
            want = oracles.block_estimate_normal(mean, var, y, block, gamma=GAMMA)
            checks.close("sqrt-block estimate vs oracle", out["diagnostics"]["skce"], want)
            checks.rejects("sqrt-block", out["p_value"])
        if "cme" in outputs:
            locs = ct.default_cme_locations(1, CME_LOCATIONS, seed=0)
            want = oracles.cme_statistic_normal(mean, var, y, *location_arrays(locs), gamma=GAMMA)
            checks.close("cme statistic vs oracle", outputs["cme"]["statistic"], want, rel=1e-6)
            checks.rejects("cme", outputs["cme"]["p_value"])
        if "diagnose" in outputs:
            self._check_diagnose(outputs["diagnose"], mean[:, 0], var[:, 0], y[:, 0], checks)
        if "recalibrate" in outputs:
            r_mean, r_var, r_y = oracles.read_normal_jsonl(self.recal_path)
            checks.true("recalibrate keeps means and targets",
                        np.array_equal(r_mean, mean) and np.array_equal(r_y, y))
            checks.true("recalibrate scales variances by 2",
                        np.allclose(r_var, 2.0 * var, rtol=1e-15, atol=0.0))
            if "recalibrated-sqrt-block" in outputs:
                out = outputs["recalibrated-sqrt-block"]
                want = oracles.block_estimate_normal(r_mean, r_var, r_y, block, gamma=GAMMA)
                checks.close("recalibrated sqrt-block estimate vs oracle", out["diagnostics"]["skce"], want)
                checks.rejects("recalibrated sqrt-block", out["p_value"])

    @staticmethod
    def _check_diagnose(out, mean, var, y, checks):
        sd = np.sqrt(var)
        checks.close("diagnose mse", out["mse"], np.mean((y - mean) ** 2))
        nll = np.mean(0.5 * np.log(2.0 * math.pi * var) + (y - mean) ** 2 / (2.0 * var))
        checks.close("diagnose nll", out["nll"], nll)
        pit = np.array([oracles.normal_cdf(z) for z in (y - mean) / sd])
        for key, value in out["quantile_curve"].items():
            checks.close(f"diagnose quantile curve at {key}", value, np.mean(pit <= float(key)),
                         abs_tol=1.5 / len(y))
        taus = [float(k) for k in out["quantile_curve"]]
        inv = statistics.NormalDist().inv_cdf
        losses = []
        for tau in taus:
            diff = mean + sd * inv(tau) - y
            losses.append(np.mean((1.0 - tau) * np.maximum(diff, 0.0) + tau * np.maximum(-diff, 0.0)))
        checks.close("diagnose pinball mean", out["pinball_mean"], np.mean(losses), rel=1e-7)

    def probe_source(self):
        return dio.parse_dataset(self.data_path), kn.default_kernel_spec(), []


class LibVectorized(Workload):
    """In-process library calls on the vectorized closed-form paths."""

    name = "lib-vectorized"
    n_d10 = 2048
    n_categorical = 2048
    n_block = 32768

    def categorical_spec(self):
        return kn.KernelSpec(
            prediction_kernel=kn.PredictionKernel(metric=kn.ParamEuclidean()),
            target_kernel=kn.KroneckerDelta(),
            expectation=kn.Analytic(),
        )

    def setup(self):
        self.d10 = syn.make_scenario_dataset("uncalibrated", 10, self.n_d10, self.seed)
        dio.write_dataset(str(self.work / "d10.jsonl"), self.d10)
        self.probs, self.labels = categorical_inputs(self.seed, self.n_categorical)
        self.categorical = est.Dataset(
            [dist.Categorical(p) for p in self.probs], [dist.ClassLabel(int(c)) for c in self.labels]
        )
        dio.write_dataset(str(self.work / "categorical.jsonl"), self.categorical)
        self.d1 = syn.make_scenario_dataset("uncalibrated", 1, self.n_block, self.seed)
        dio.write_dataset(str(self.work / "d1.jsonl"), self.d1)

    def ops(self):
        spec, cat = kn.default_kernel_spec(), self.categorical_spec()
        return [
            Op("ustat-d10", "estimate", lambda: est.skce_ustat(spec, self.d10)),
            Op("bootstrap-d10", "test",
               lambda: ct.test_bootstrap_ustat(spec, self.d10, BOOTSTRAP, seed=0)),
            Op("cme-d10", "test", lambda: ct.test_cme(
                spec, self.d10, ct.default_cme_locations(10, CME_LOCATIONS, seed=0))),
            Op("ustat-categorical", "estimate", lambda: est.skce_ustat(cat, self.categorical)),
            Op("bootstrap-categorical", "test",
               lambda: ct.test_bootstrap_ustat(cat, self.categorical, BOOTSTRAP, seed=0)),
            Op("sqrt-block-d1", "test", lambda: ct.test_asymptotic_sqrt_block(spec, self.d1)),
        ]

    def check(self, outputs, checks):
        mean, var, y = normal_arrays(self.d10)
        ustat = oracles.ustat_normal(mean, var, y, gamma=GAMMA)
        if "ustat-d10" in outputs:
            checks.close("d=10 u-statistic vs oracle", outputs["ustat-d10"].value, ustat)
        if "bootstrap-d10" in outputs:
            out = outputs["bootstrap-d10"]
            checks.close("d=10 bootstrap skce_ustat vs oracle", out.diagnostics["skce_ustat"], ustat)
            checks.rejects("d=10 bootstrap", out.p_value)
        if "cme-d10" in outputs:
            locs = ct.default_cme_locations(10, CME_LOCATIONS, seed=0)
            want = oracles.cme_statistic_normal(mean, var, y, *location_arrays(locs), gamma=GAMMA)
            checks.close("d=10 cme statistic vs oracle", outputs["cme-d10"].statistic, want, rel=1e-6)
            checks.rejects("d=10 cme", outputs["cme-d10"].p_value)
        cat = oracles.ustat_categorical(self.probs, self.labels)
        if "ustat-categorical" in outputs:
            checks.close("categorical u-statistic vs oracle", outputs["ustat-categorical"].value, cat)
        if "bootstrap-categorical" in outputs:
            out = outputs["bootstrap-categorical"]
            checks.close("categorical bootstrap skce_ustat vs oracle", out.diagnostics["skce_ustat"], cat)
            checks.rejects("categorical bootstrap", out.p_value)
        if "sqrt-block-d1" in outputs:
            out = outputs["sqrt-block-d1"]
            mean, var, y = normal_arrays(self.d1)
            want = oracles.block_estimate_normal(mean, var, y, math.isqrt(len(mean)), gamma=GAMMA)
            checks.close("n=32768 sqrt-block estimate vs oracle", out.diagnostics["skce"], want)
            checks.rejects("n=32768 sqrt-block", out.p_value)

    def probe_source(self):
        return self.d1, kn.default_kernel_spec(), []


class LibPerPair(Workload):
    """The scalar ``eval_h`` path: mixtures under MW, and Monte-Carlo expectations."""

    name = "lib-per-pair"
    n_mixture = 48
    n_mc = 64
    mc_samples = 1000

    def mixture_spec(self):
        return kn.KernelSpec(
            prediction_kernel=kn.PredictionKernel(metric=kn.MW(2.0)),
            target_kernel=kn.GaussianRBF(GAMMA),
            expectation=kn.Analytic(),
        )

    def mc_spec(self):
        return kn.KernelSpec(
            prediction_kernel=kn.PredictionKernel(metric=kn.W2()),
            target_kernel=kn.GaussianRBF(GAMMA),
            expectation=kn.MonteCarlo(samples=self.mc_samples, seed=0),
        )

    def setup(self):
        weights, means, var, y = mixture_inputs(self.seed, self.n_mixture)
        predictions = [
            dist.Mixture(w, [dist.DiagNormal([m], [v]) for m, v in zip(ms, vs)])
            for w, ms, vs in zip(weights, means, var)
        ]
        self.mixtures = est.Dataset(predictions, [dist.RealVector([t]) for t in y])
        dio.write_dataset(str(self.work / "mixtures.jsonl"), self.mixtures)
        self.mc = syn.make_scenario_dataset("uncalibrated", 1, self.n_mc, self.seed)
        dio.write_dataset(str(self.work / "mc.jsonl"), self.mc)

    def ops(self):
        mw, mc = self.mixture_spec(), self.mc_spec()
        return [
            Op("ustat-mixture", "estimate", lambda: est.skce_ustat(mw, self.mixtures)),
            Op("bootstrap-mixture", "test",
               lambda: ct.test_bootstrap_ustat(mw, self.mixtures, BOOTSTRAP, seed=0)),
            Op("ustat-mc", "estimate", lambda: est.skce_ustat(mc, self.mc)),
            Op("bootstrap-mc", "test", lambda: ct.test_bootstrap_ustat(mc, self.mc, BOOTSTRAP, seed=0)),
            Op("cme-mc", "test", lambda: ct.test_cme(
                mc, self.mc, ct.default_cme_locations(1, CME_LOCATIONS, seed=0))),
        ]

    def check(self, outputs, checks):
        preds = self.mixtures.predictions
        for i in range(8):
            p, q = preds[i], preds[i + 1]
            checks.close(f"MW symmetric on mixtures {i}, {i + 1}",
                         dist.mixture_wasserstein(p, q), dist.mixture_wasserstein(q, p), abs_tol=1e-9)
            checks.true(f"MW of mixture {i} with itself is 0",
                        abs(dist.mixture_wasserstein(p, p)) <= 1e-9)
        if "ustat-mixture" in outputs and "bootstrap-mixture" in outputs:
            out = outputs["bootstrap-mixture"]
            checks.close("mixture bootstrap skce_ustat vs skce_ustat",
                         out.diagnostics["skce_ustat"], outputs["ustat-mixture"].value)
        if "bootstrap-mixture" in outputs:
            checks.rejects("mixture bootstrap", outputs["bootstrap-mixture"].p_value)
        mean, var, y = normal_arrays(self.mc)
        analytic = oracles.ustat_normal(mean, var, y, gamma=GAMMA)
        bound = 4.0 * oracles.mc_error_bound_normal(mean, var, y, self.mc_samples, gamma=GAMMA)
        if "ustat-mc" in outputs:
            checks.close("Monte-Carlo u-statistic within 4 MC standard deviations of the analytic one",
                         outputs["ustat-mc"].value, analytic, rel=0.0, abs_tol=bound)
        if "bootstrap-mc" in outputs:
            out = outputs["bootstrap-mc"]
            # Under Monte-Carlo expectations h(i, j) and h(j, i) use different
            # draws, so the bootstrap's statistic is another MC estimate.
            checks.close("Monte-Carlo bootstrap skce_ustat within 4 MC standard deviations",
                         out.diagnostics["skce_ustat"], analytic, rel=0.0, abs_tol=bound)
            checks.rejects("Monte-Carlo bootstrap", out.p_value)
        if "cme-mc" in outputs:
            checks.rejects("Monte-Carlo cme", outputs["cme-mc"].p_value)

    def probe_source(self):
        return self.mixtures, self.mixture_spec(), ["--metric", "mw"]


WORKLOADS = {w.name: w for w in (CliRegression, LibVectorized, LibPerPair)}


def time_setups(setup, min_runs: int = 3, min_total: float = 1.0, max_runs: int = 50) -> float:
    """Median time of repeated set-ups: at least ``min_runs`` and ``min_total`` seconds."""
    times = []
    while len(times) < min_runs or (sum(times) < min_total and len(times) < max_runs):
        start = time.perf_counter()
        setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_rounds(workload: Workload, seconds: float, tracer=None):
    """Whole rounds until ``seconds`` have passed, and at least two.

    Returns per-round times by kind, per-round outputs, attempted and failed.
    """
    ops = workload.ops()
    rounds, outputs = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.phase = len(rounds)
        workload.before_round()
        workload.rss.clear()  # only the operations' children count
        times = {"estimate": 0.0, "test": 0.0, "other": 0.0}
        outs = {}
        round_start = time.perf_counter()
        for op in ops:
            attempted += 1
            op_start = time.perf_counter()
            try:
                outs[op.name] = op.fn()
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                log(f"{workload.name}: operation {op.name} failed: {exc!r}")
            times[op.kind] += time.perf_counter() - op_start
        times["wall"] = time.perf_counter() - round_start
        if workload.rss:
            times["rss"] = max(workload.rss)
        rounds.append(times)
        outputs.append(outs)
    return rounds, outputs, attempted, failed


def check_outputs(workload: Workload, outputs: list) -> list:
    """Problems found: outputs that differ between rounds, or from the oracles."""
    checks = Checks()
    first = {}
    for outs in outputs:
        for name, out in outs.items():
            if name not in first:
                first[name] = out
            else:
                checks.true(f"{name}: output differs between rounds",
                            fingerprint(out) == fingerprint(first[name]))
    try:
        workload.check(first, checks)
    except Exception as exc:  # an output the checks cannot read is wrong, not fatal
        checks.true(f"checking the outputs raised {exc!r}", False)
    return checks.problems
