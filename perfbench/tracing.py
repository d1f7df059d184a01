"""Span tracer that wraps gsir's functions from outside the package.

gsir modules import each other's functions by name (`from .kernels import
centered_gram`), so a wrapper on `gsir.kernels.centered_gram` alone records
nothing: the caller looks the name up in its own module.  `Tracer.install`
therefore replaces every global of every loaded gsir module that is bound to
a traced function, and `uninstall` restores them.

A span is [name, start, end, parent index, cpu start, cpu end]: wall clock
and process CPU clock.  Spans stay in memory until the run ends.  A span's
self time is its CPU time minus the CPU time of its direct children (the
program runs single-threaded, so spans nest).
"""

import functools
import importlib
import json
import os
import sys
import time

# (module, function) -> span name.  Functions that share a span name are one
# layer entry (both fit variants are "estimator.fit").
TRACED = {
    ("gsir.cli", "main"): "cli.main",
    ("gsir.cli", "read_points_csv"): "cli.read_points_csv",
    ("gsir.experiments", "load_config"): "experiments",
    ("gsir.experiments", "run_experiment"): "experiments",
    ("gsir.estimator", "fit_gsir1"): "estimator.fit",
    ("gsir.estimator", "fit_gsir2"): "estimator.fit",
    ("gsir.estimator", "evaluate_predictors"): "estimator.evaluate_predictors",
    ("gsir.kernels", "centered_gram"): "kernels.centered_gram",
    ("gsir.kernels", "gram_matrix"): "kernels.gram_matrix",
    ("gsir.kernels", "median_bandwidth"): "kernels.median_bandwidth",
    ("gsir.linalg", "symmetric_eigh"): "linalg.symmetric_eigh",
    ("gsir.linalg", "spectral_apply"): "linalg.spectral_apply",
    ("gsir.linalg", "operator_norm"): "linalg.operator_norm",
    ("gsir.seqsim", "simulate_sample"): "seqsim.simulate_sample",
    ("gsir.seqsim", "estimate_regression_ops"): "seqsim.estimate_regression_ops",
    ("gsir.seqsim", "error_report"): "seqsim.error_report",
    ("gsir.datasets", "generate"): "datasets.generate",
    ("gsir.metrics", "subspace_distance"): "metrics",
    ("gsir.metrics", "max_canonical_correlation"): "metrics",
    ("gsir.rates", "optimal_rate_theory"): "rates",
    ("gsir.rates", "rate_bound_terms"): "rates",
    ("gsir.rates", "fit_loglog_slope"): "rates",
    ("gsir.modelio", "save_fit"): "modelio.save_fit",
    ("gsir.modelio", "load_fit"): "modelio.load_fit",
}


# Counts computed from argument shapes or output sizes, not measured: they
# repeat exactly for the same inputs.  (function, count name, rule).
COMPUTED = {
    ("gsir.linalg", "symmetric_eigh"):
        ("linalg.symmetric_eigh.dim3_sum", lambda a, r: len(a[0]) ** 3),
    ("gsir.kernels", "gram_matrix"):
        ("kernels.gram_matrix.entries", lambda a, r: r.size),
    ("gsir.estimator", "evaluate_predictors"):
        ("estimator.evaluate_predictors.rows", lambda a, r: r.shape[0]),
    ("gsir.cli", "read_points_csv"):
        ("cli.read_points_csv.rows", lambda a, r: r[0].shape[0]),
    ("gsir.modelio", "save_fit"):
        ("modelio.model_bytes", lambda a, r: os.path.getsize(a[1])),
    ("gsir.experiments", "run_experiment"):
        ("experiments.tasks", lambda a, r: len(a[0].n_grid) * a[0].replications),
}


class Tracer:
    """Records spans and computed counts for calls into traced functions."""

    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for name, _ in COMPUTED.values()}
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name, computed):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1], span[4] = time.perf_counter(), time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2], span[5] = time.perf_counter(), time.process_time()
                stack.pop()
            if computed:
                counts[computed[0]] += computed[1](args, result)
            return result
        return traced

    def install(self):
        wrappers = {}
        for key, name in TRACED.items():
            fn = getattr(importlib.import_module(key[0]), key[1])
            wrappers[id(fn)] = (fn, self._wrap(fn, name, COMPUTED.get(key)))
        for modname, module in list(sys.modules.items()):
            if modname != "gsir" and not modname.startswith("gsir."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def layers(self):
        """{span name: {"calls", "s", "self_s"}} in CPU seconds, summed over spans."""
        child_cpu = [0.0] * len(self.spans)
        for name, _, _, parent, c0, c1 in self.spans:
            if parent >= 0:
                child_cpu[parent] += c1 - c0
        out = {}
        for (name, _, _, _, c0, c1), covered in zip(self.spans, child_cpu):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += c1 - c0
            row["self_s"] += c1 - c0 - covered
        return out

    def write(self, path):
        """Write the spans as JSON lines; wall start and end are relative to
        the first span, cpu is the span's CPU seconds."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, c0, c1) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "cpu": c1 - c0,
                                     "parent": parent}) + "\n")
