"""Spans around calls into kcalib's layers, recorded from outside the program.

``Tracer.install`` replaces each listed public function, in every loaded
``kcalib`` module that binds it, with a wrapper that records a span (name,
start, end, parent span, phase). Calls the program makes between its own
modules go through those bindings, so spans nest as the calls do and a
layer's self time is its span minus its child spans. Spans stay in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc

# (module, public name) of every function the traced run wraps.
TRACED = [
    ("kcalib.cli", "main"),
    ("kcalib.dataset_io", "parse_dataset"),
    ("kcalib.dataset_io", "write_dataset"),
    ("kcalib.estimators", "Dataset"),
    ("kcalib.synthetic", "make_scenario_dataset"),
    ("kcalib.kernels", "pairwise_h"),
    ("kcalib.kernels", "eval_h"),
    ("kcalib.kernels", "expect_target_kernel"),
    ("kcalib.estimators", "skce_ustat"),
    ("kcalib.estimators", "skce_block"),
    ("kcalib.estimators", "h_matrix"),
    ("kcalib.estimators", "cme_feature_matrix"),
    ("kcalib.calibration_tests", "test_bootstrap_ustat"),
    ("kcalib.calibration_tests", "test_cme"),
    ("kcalib.calibration_tests", "test_asymptotic_sqrt_block"),
    ("kcalib.distributions", "wasserstein2"),
    ("kcalib.distributions", "mixture_wasserstein"),
    ("kcalib.rng", "substream"),
    ("kcalib.classical", "quantile_curve"),
    ("kcalib.classical", "pinball_loss"),
    ("kcalib.classical", "nll"),
    ("kcalib.classical", "mse"),
]

# Calls whose tracemalloc peak is measured, on the largest dataset seen.
PEAK = ("estimators.skce_ustat", "estimators.h_matrix")

# Estimators whose reports carry ``h_evaluations``.
COUNTED = ("estimators.skce_ustat", "estimators.skce_block")

PROBE = "probe"


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Records spans while installed; ``phase`` labels the spans that follow."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, phase]
        self.stack = []
        self.phase = None
        self.enabled = True
        self.h_evaluations = {}  # phase -> count summed from estimator reports
        self.peak_args = {}  # span name -> (size, args, kwargs) of the largest call
        self._originals = {}
        self._patched = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, time.perf_counter(), None, parent, self.phase])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if name in COUNTED and (parent < 0 or spans[parent][0] != "estimators.skce_ustat"):
                count = result.diagnostics.get("h_evaluations", 0)
                self.h_evaluations[self.phase] = self.h_evaluations.get(self.phase, 0) + count
            if name in PEAK:
                size = len(args[1])
                if size > self.peak_args.get(name, (-1,))[0]:
                    self.peak_args[name] = (size, args, kwargs)
            return result

        return traced

    def install(self):
        for module, attr in TRACED:
            original = getattr(sys.modules[module], attr)
            wrapped = self.wrap(span_name(module, attr), original)
            self._originals[span_name(module, attr)] = original
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "kcalib" and not mod_name.startswith("kcalib."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def measure_peaks(self):
        """Peak traced memory (MB) of one more call of each PEAK function.

        Runs after the timed rounds, with spans off, so tracemalloc's cost
        stays out of the span times.
        """
        peaks = {}
        self.enabled = False
        try:
            for name, (_, args, kwargs) in self.peak_args.items():
                tracemalloc.start()
                try:
                    self._originals[name](*args, **kwargs)
                    peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
                finally:
                    tracemalloc.stop()
        finally:
            self.enabled = True
        return peaks

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class SpanTable:
    """Per-layer figures from a finished tracer's spans.

    Round phases are the integers 0, 1, ...; a layer that no round reached
    is read from the probe phase instead.
    """

    def __init__(self, tracer: Tracer, rounds: int):
        self.tracer = tracer
        self.rounds = rounds
        self.spans = tracer.spans
        self.child_time = [0.0] * len(self.spans)
        self.by_name = {}
        for i, span in enumerate(self.spans):
            self.by_name.setdefault(span[0], []).append(i)
            if span[3] >= 0:
                self.child_time[span[3]] += span[2] - span[1]

    def _select(self, name, keep=None):
        def pick(phases):
            return [
                (i, self.spans[i])
                for i in self.by_name.get(name, ())
                if self.spans[i][4] in phases and (keep is None or keep(self.spans[i]))
            ]

        chosen = pick(set(range(self.rounds)))
        if chosen:
            return chosen, False
        return pick({PROBE}), True

    def parent_name(self, span):
        return self.spans[span[3]][0] if span[3] >= 0 else None

    def has_ancestor(self, span, name):
        while span[3] >= 0:
            span = self.spans[span[3]]
            if span[0] == name:
                return True
        return False

    def per_round(self, name, keep=None, self_time=False):
        """Median over rounds of the summed span (or self) time, in seconds."""
        chosen, probed = self._select(name, keep)
        totals = {}
        for i, s in chosen:
            duration = s[2] - s[1] - (self.child_time[i] if self_time else 0.0)
            totals[s[4]] = totals.get(s[4], 0.0) + duration
        if probed or not totals:
            return sum(totals.values())
        return statistics.median(totals.get(r, 0.0) for r in range(self.rounds))

    def per_call_us(self, name):
        chosen, _ = self._select(name)
        if not chosen:
            return 0.0
        return 1e6 * statistics.fmean(s[2] - s[1] for _, s in chosen)

    def h_evaluations(self):
        counts = self.tracer.h_evaluations
        per_round = [counts.get(r, 0) for r in range(self.rounds)]
        if any(per_round):
            return statistics.median(per_round)
        return counts.get(PROBE, 0)
