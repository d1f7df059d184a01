"""Stage timings of the dense fit path or of the sequence-space oracle, for
one checkout or two side by side.

    python bench/fit_stages.py --out BENCH.json [--label NAME=SRC_DIR ...]
                               [--n 500 1000 2000 4000] [--repeats 3]
                               [--suite fit|oracle]

Each label names a `src` directory holding a `gsir` package (default: this
checkout's `src` as "current").  Every (label, stage, n) cell runs in its own
fresh interpreter with OPENBLAS_NUM_THREADS=1, so the peak resident memory
(`ru_maxrss`) belongs to that stage alone; times are the best of
`--repeats` calls in process CPU seconds (user + system) and wall seconds.

Stages, on the m3_symmetric design (p=5, sigma 0.2) with median-bandwidth
gaussian kernels, eps=1e-3, d=1 (the benchmark's fit_predict settings):

- centered_gram:   `centered_gram` of x;
- fit_gsir1, fit_gsir2: one fit each;
- fit_gsir1_laplace_y: gsir1 with a laplace kernel on y, whose centered Gram
  has full numerical rank, so the thin factor of Gy is as wide as it gets;
- predict_20000:   `evaluate_predictors` of a saved gsir1 model on 20 000
  held-out rows (the model is fitted by an earlier, untimed process).

Oracle stages (`--suite oracle`), on the README sim model (J=200, y_dim=2,
alpha=2, beta=1, identity S) at eps = n^(-2/7), the optimal schedule.  Each
cell first runs one untimed replication, so per-model constants are in place
as they are after the first replication of a `sim-rate` run:

- simulate_sample, empirical_operators, estimate_regression_ops (which
  includes empirical_operators) and error_report, one call each;
- replication: simulate_sample, estimate_regression_ops and error_report in
  a row, what `sim-rate` does per (n, rep).
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SUITES = {"fit": ("centered_gram", "fit_gsir1", "fit_gsir2",
                  "fit_gsir1_laplace_y", "predict_20000"),
          "oracle": ("simulate_sample", "empirical_operators",
                     "estimate_regression_ops", "error_report", "replication")}
ORACLE_J, ORACLE_Y = 200, 2
PREDICT_ROWS = 20000
SEED = 0


def _best(fn, repeats):
    cpu, wall = [], []
    for _ in range(repeats):
        c0, w0 = time.process_time(), time.perf_counter()
        fn()
        cpu.append(time.process_time() - c0)
        wall.append(time.perf_counter() - w0)
    return min(cpu), min(wall)


def _oracle_call(stage, n):
    from gsir.seqsim import (build_model, empirical_operators, error_report,
                             estimate_regression_ops, simulate_sample)

    model = build_model(ORACLE_J, ORACLE_Y, alpha=2.0, beta=1.0)
    eps = float(n) ** (-2.0 / 7.0)
    sample = simulate_sample(model, n, SEED)
    ops = estimate_regression_ops(sample, eps)
    error_report(model, ops)
    return {
        "simulate_sample": lambda: simulate_sample(model, n, SEED),
        "empirical_operators": lambda: empirical_operators(sample),
        "estimate_regression_ops": lambda: estimate_regression_ops(sample, eps),
        "error_report": lambda: error_report(model, ops),
        "replication": lambda: error_report(model, estimate_regression_ops(
            simulate_sample(model, n, SEED), eps)),
    }[stage]


def _measure(call, repeats):
    cpu, wall = _best(call, repeats)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"cpu_s": round(cpu, 5), "wall_s": round(wall, 5),
            "peak_rss_mb": round(rss, 1)}


def run_cell(stage, n, repeats, model_path):
    """Time one stage in this process and return its record."""
    if stage in SUITES["oracle"]:
        return _measure(_oracle_call(stage, n), repeats)
    from gsir.datasets import SyntheticModel, generate
    from gsir.estimator import evaluate_predictors, fit_gsir1, fit_gsir2
    from gsir.kernels import KernelSpec, centered_gram, median_bandwidth
    from gsir.modelio import load_fit, save_fit

    design = SyntheticModel("m3_symmetric", 5, 0.2)
    x, y, _ = generate(design, n, SEED)
    kx = KernelSpec("gaussian", median_bandwidth(x))
    ky = KernelSpec("gaussian", median_bandwidth(y))
    if stage == "centered_gram":
        call = lambda: centered_gram(kx, x)
    elif stage == "fit_gsir1":
        call = lambda: fit_gsir1(x, y, kx, ky, 1e-3, 1)
    elif stage == "fit_gsir2":
        call = lambda: fit_gsir2(x, y, kx, ky, 1e-3, 1)
    elif stage == "fit_gsir1_laplace_y":
        ly = KernelSpec("laplace", median_bandwidth(y))
        call = lambda: fit_gsir1(x, y, kx, ly, 1e-3, 1)
    elif stage == "save_model":
        save_fit(fit_gsir1(x, y, kx, ky, 1e-3, 1), model_path)
        return {}
    else:
        fit = load_fit(model_path)
        x_new, _, _ = generate(design, PREDICT_ROWS, SEED + 1)
        call = lambda: evaluate_predictors(fit, x_new)
    return _measure(call, repeats)


def _cell(src, stage, n, repeats, model_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    cmd = [sys.executable, __file__, "--cell", stage, str(n), str(repeats),
           str(model_path)]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--label", nargs="+", action="extend", default=None,
                        help="NAME=SRC_DIR pairs, repeated or space separated "
                             "(default current=<repo>/src)")
    parser.add_argument("--n", nargs="*", type=int, default=[500, 1000, 2000, 4000])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--suite", choices=sorted(SUITES), default="fit")
    parser.add_argument("--cell", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cell:
        stage, n, repeats, model_path = args.cell
        print(json.dumps(run_cell(stage, int(n), int(repeats), model_path)))
        return 0
    if not args.out:
        parser.error("--out is required")
    labels = args.label or [f"current={Path(__file__).resolve().parents[1] / 'src'}"]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.n:
            for pair in labels:
                name, src = pair.split("=", 1)
                model_path = Path(tmp) / f"{name}_{n}.json"
                if args.suite == "fit":
                    _cell(src, "save_model", n, 1, model_path)
                for stage in SUITES[args.suite]:
                    rec = _cell(src, stage, n, args.repeats, model_path)
                    rows.append({"commit": name, "stage": stage, "n": n, **rec})
                    print(json.dumps(rows[-1]), flush=True)
    doc = {"harness": "bench/fit_stages.py", "suite": args.suite,
           "blas_threads": 1, "repeats": args.repeats, "cpu_count": os.cpu_count(),
           **({"predict_rows": PREDICT_ROWS} if args.suite == "fit" else
              {"j_dim": ORACLE_J, "y_dim": ORACLE_Y}),
           "rows": rows}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
