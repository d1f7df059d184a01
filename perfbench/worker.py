"""One workload run in a fresh interpreter: make inputs, time CLI passes, check.

Started by run.py; prints one JSON object on its last stdout line.  Every
pass calls `gsir.cli.main` in this process with `--threads 1`, on inputs
that this file generates from the seed.
"""

import argparse
import collections
import contextlib
import csv
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SLOPE_TOL = 0.08   # acceptance criterion 2's allowed |slope + exponent|
CANCOR_MIN = 0.9   # acceptance criterion 8's recovery floor

# Sizes per mode.  "full" is the measured benchmark; "smoke" is the quick
# self-check of the harness itself.
SIZES = {
    "full": {"sim_grid": [250, 500, 1000, 2000], "sim_reps": 40, "j_dim": 200,
             "rec_grid": [200, 500, 1000], "rec_reps": 2, "n_test": 500,
             "fit_n": 2000, "predict_rows": 20000},
    "smoke": {"sim_grid": [250, 500, 1000, 2000], "sim_reps": 2, "j_dim": 200,
              "rec_grid": [100, 200], "rec_reps": 1, "n_test": 200,
              "fit_n": 300, "predict_rows": 2000},
}


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _truncated_normal(rng, shape):
    """iid standard normals redrawn until they lie in [-3, 3]."""
    x = rng.standard_normal(shape)
    bad = np.abs(x) > 3.0
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(x) > 3.0
    return x


# One CLI invocation of a pass and the files it writes.
Call = collections.namedtuple("Call", "label argv outputs")


def sim_rate(seed, work, size):
    """README sim config: alpha=2, beta=1, J=200, y_dim=2, optimal delta."""
    out = work / "sim.csv"
    cfg = _write_json(work / "sim.json", {
        "schema_version": 1, "mode": "sim_rate", "base_seed": seed,
        "n_grid": size["sim_grid"], "replications": size["sim_reps"],
        "alpha": 2.0, "beta": 1.0, "delta": "optimal",
        "model": {"j_dim": size["j_dim"], "y_dim": 2}, "output_path": str(out)})
    calls = [Call("sim-rate", ["sim-rate", "--config", cfg, "--threads", "1"],
                  [out])]

    def check():
        header, rows = _read_csv(out)
        i_n, i_err = header.index("n"), header.index("err_r1")
        grid = size["sim_grid"]
        med = [statistics.median(float(r[i_err]) for r in rows if int(r[i_n]) == n)
               for n in grid]
        # Closed-form smooth-branch exponent at alpha=2, beta=1:
        # alpha*beta / (2*alpha*beta + alpha + 1) = 2/7.
        dev = abs(float(np.polyfit(np.log(grid), np.log(med), 1)[0]) + 2.0 / 7.0)
        ok = len(rows) == len(grid) * size["sim_reps"] and dev <= SLOPE_TOL
        return ok, {"rate_slope_dev": dev}

    return calls, check, {"reps": len(size["sim_grid"]) * size["sim_reps"]}


def recovery(seed, work, size):
    """README recovery config: m3_symmetric, p=5, eps=1e-3, d=1."""
    out = work / "recovery.csv"
    cfg = _write_json(work / "recovery.json", {
        "schema_version": 1, "mode": "kernel_recovery", "base_seed": seed,
        "n_grid": size["rec_grid"], "replications": size["rec_reps"],
        "dataset": {"model": "m3_symmetric", "p": 5, "sigma_noise": 0.2},
        "epsilon": 1e-3, "d": 1, "n_test": size["n_test"],
        "output_path": str(out)})
    calls = [Call("kernel-recovery",
                  ["kernel-recovery", "--config", cfg, "--threads", "1"], [out])]

    def check():
        header, rows = _read_csv(out)
        i_n, i_v, i_c = (header.index(k) for k in ("n", "variant", "max_cancor"))
        top = str(size["rec_grid"][-1])
        cancor = min(statistics.median(float(r[i_c]) for r in rows
                                       if r[i_n] == top and r[i_v] == v)
                     for v in ("gsir1", "gsir2"))
        ok = (len(rows) == 2 * len(size["rec_grid"]) * size["rec_reps"]
              and cancor >= CANCOR_MIN)
        return ok, {"cancor": cancor}

    return calls, check, {"reps": len(size["rec_grid"]) * size["rec_reps"]}


def fit_predict(seed, work, size):
    """Fit gsir1 and gsir2 at n=fit_n, then predict held-out rows with gsir1."""
    models = {v: work / f"model_{v}.json" for v in ("gsir1", "gsir2")}
    calls = []
    for variant, path in models.items():
        cfg = _write_json(work / f"fit_{variant}.json", {
            "schema_version": 1, "variant": variant,
            "dataset": {"model": "m3_symmetric", "p": 5, "sigma_noise": 0.2,
                        "n": size["fit_n"]},
            "kernel_x": {"family": "gaussian", "gamma": "median"},
            "kernel_y": {"family": "gaussian", "gamma": "median"},
            "epsilon": 1e-3, "d": 1, "base_seed": seed, "output_path": str(path)})
        calls.append(Call("fit", ["fit", "--config", cfg, "--threads", "1"], [path]))
    # Held-out design drawn here, independently of gsir.datasets; the true
    # predictor of m3_symmetric is x_1^2 - 1.
    rng = np.random.default_rng([seed, 1])
    x = _truncated_normal(rng, (size["predict_rows"], 5))
    truth = x[:, 0] ** 2 - 1.0
    data = work / "heldout.csv"
    np.savetxt(data, x, fmt="%.17g", delimiter=",", comments="",
               header=",".join(f"x_{j + 1}" for j in range(5)))
    pred = work / "pred.csv"
    cfg = _write_json(work / "predict.json", {
        "schema_version": 1, "model_path": str(models["gsir1"]),
        "data_csv": str(data), "output_path": str(pred)})
    calls.append(Call("predict", ["predict", "--config", cfg, "--threads", "1"],
                      [pred]))

    def check():
        header, rows = _read_csv(pred)
        p = np.array([float(r[0]) for r in rows])
        ok = header == ["pred_1"] and p.shape == truth.shape
        cancor = abs(float(np.corrcoef(p, truth)[0, 1])) if ok else 0.0
        return ok and cancor >= CANCOR_MIN, {"cancor": cancor}

    return calls, check, {"predict_rows": size["predict_rows"]}


WORKLOADS = {"sim_rate": sim_rate, "recovery": recovery, "fit_predict": fit_predict}


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Runner:
    """Runs passes, checks each call's output and counts failures.

    Times are [wall, cpu] pairs: perf_counter seconds and this process's
    CPU seconds (user + sys, all threads).
    """

    def __init__(self, cli, calls, check):
        self.cli, self.calls, self.check = cli, calls, check
        self.digests = None
        self.quality = {}
        self.attempted = self.failed = 0
        self.call_s = {c.label: [] for c in calls}

    def _call(self, call):
        self.attempted += 1
        out = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = self.cli.main(call.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        spent = [time.perf_counter() - t0, time.process_time() - c0]
        self.call_s[call.label].append(spent)
        if code != 0:
            print(f"call failed ({code}): {' '.join(call.argv)}\n{out.getvalue()}",
                  file=sys.stderr)
            return spent, None
        return spent, [_digest(p) for p in call.outputs]

    def run_pass(self):
        """One pass; returns [wall, cpu] summed over its CLI calls."""
        spent, digests = zip(*(self._call(c) for c in self.calls))
        digests = list(digests)
        if self.digests is None:
            self.digests = digests
            self.failed += digests.count(None)
            if None not in digests:
                ok, self.quality = self.check()
                self.failed += not ok   # charged to the call whose output failed
        else:
            self.failed += sum(d is None or d != first
                               for d, first in zip(digests, self.digests))
        return [sum(s[0] for s in spent), sum(s[1] for s in spent)]

    def run_for(self, seconds, min_passes):
        """Passes until another one would end more than `seconds` after the first began."""
        times, start = [], time.perf_counter()
        while True:
            times.append(self.run_pass())
            spent = time.perf_counter() - start
            typical = statistics.median(t[0] for t in times)
            if len(times) >= min_passes and spent + typical > seconds:
                return times


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gsir.cli
    if not Path(gsir.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported gsir from {gsir.__file__}, not {src}")

    work = Path(args.workdir)
    calls, check, scale = WORKLOADS[args.workload](args.seed, work, SIZES[args.size])
    runner = Runner(gsir.cli, calls, check)
    result = {"scale": scale}
    if args.trace:
        # Untraced and traced passes alternate, so the two see the same
        # machine; trace.overhead_s compares them.
        from tracing import Tracer
        tracer, untraced, traced = Tracer(), [], []
        start = time.perf_counter()
        while not traced or (time.perf_counter() - start
                             + untraced[-1][0] + traced[-1][0] <= args.seconds):
            untraced.append(runner.run_pass())
            tracer.install()
            kept, runner.call_s = runner.call_s, collections.defaultdict(list)
            try:
                traced.append(runner.run_pass())
            finally:
                tracer.uninstall()
                runner.call_s = kept
        result.update(pass_s=untraced, traced_s=traced, layers=tracer.layers(),
                      counts=tracer.counts)
        trace_path = work.parent / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path)
    else:
        result["pass_s"] = runner.run_for(args.seconds, 2)
    result.update(call_s=runner.call_s, attempted=runner.attempted,
                  failed=runner.failed, quality=runner.quality,
                  digests={str(Path(p).name): d for c, ds in
                           zip(calls, runner.digests) if ds
                           for p, d in zip(c.outputs, ds)},
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
