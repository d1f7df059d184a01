"""Stage timings of the dense fit path, of the sequence-space oracle, or of
the five CLI subcommands, for one checkout or two side by side.

    python bench/fit_stages.py --out BENCH.json [--label NAME=SRC_DIR ...]
                               [--n 500 1000 2000 4000] [--repeats 3]
                               [--suite fit|oracle|cli]

Each label names a `src` directory holding a `gsir` package (default: this
checkout's `src` as "current").  Every (label, stage, n) cell runs in its own
fresh interpreter with OPENBLAS_NUM_THREADS=1, so the peak resident memory
(`ru_maxrss`) belongs to that stage alone; times are the best of
`--repeats` calls in process CPU seconds (user + system) and wall seconds.
The labels of one (stage, n) run back to back, in the given order on even
stages and in reverse on odd ones, so machine drift between cells falls on
both labels alike and neither label always runs first.

Stages, on the m3_symmetric design (p=5, sigma 0.2) with median-bandwidth
gaussian kernels, eps=1e-3, d=1 (the benchmark's fit_predict settings):

- median_bandwidth: `median_bandwidth` of x;
- centered_gram:   `centered_gram` of x;
- reflected_gram:  `reflected_gram` of x, the centering a fit runs (no row
  for a checkout that lacks it);
- fit_gsir1, fit_gsir2: one fit each;
- fit_gsir1_laplace_y: gsir1 with a laplace kernel on y, whose centered Gram
  has full numerical rank, so the thin factor of Gy is as wide as it gets;
- recovery_pair:   gsir1 then gsir2 on one draw, as `kernel-recovery` fits
  them: on one `estimator.factorize` result passed as `shared=` to both, or
  as two plain fits on a checkout that lacks `factorize`;
- predict_20000:   `evaluate_predictors` of a saved gsir1 model on 20 000
  held-out rows (the model is fitted by an earlier, untimed process).

Each fit row also records r and r_y, the ranks of the pivoted-Cholesky
factors of Gx and Gy, read from `estimator._factor`'s output.

Oracle stages (`--suite oracle`), on the README sim model (J=200, y_dim=2,
alpha=2, beta=1, identity S) at eps = n^(-2/7), the optimal schedule.  Each
cell first runs one untimed replication, so per-model constants are in place
as they are after the first replication of a `sim-rate` run:

- simulate_sample, empirical_operators, estimate_regression_ops (which
  includes empirical_operators) and error_report, one call each;
- replication: simulate_sample, estimate_regression_ops and error_report in
  a row, what `sim-rate` does per (n, rep).

CLI suite (`--suite cli`; `--n` does not apply): the five README commands of
`bench/digests.py` (theory, sim-rate, kernel-recovery, fit, then predict of
the fitted model), each as a fresh interpreter that imports `gsir.cli` and
calls `main`, so import cost counts as users pay it.  Each repeat runs every
label once, in the given order on even repeats and in reverse on odd ones,
so neither label always runs first; a row holds the medians over repeats of:
import_cpu_s (`import gsir.cli`), run_cpu_s (`main`), cpu_s (their sum, with
its quartiles), process_cpu_s (the whole interpreter, start-up included) and
peak_rss_mb.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from digests import COMMANDS, POINTS

SUITES = {"fit": ("median_bandwidth", "centered_gram", "reflected_gram",
                  "fit_gsir1", "fit_gsir2", "fit_gsir1_laplace_y", "recovery_pair",
                  "predict_20000"),
          "oracle": ("simulate_sample", "empirical_operators",
                     "estimate_regression_ops", "error_report", "replication"),
          "cli": tuple(command for command, _, _ in COMMANDS)}
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


def _recovery_pair(estimator, x, y, kx, ky):
    shared = ({"shared": estimator.factorize(x, y, kx, ky, 1e-3, 1)}
              if hasattr(estimator, "factorize") else {})
    estimator.fit_gsir1(x, y, kx, ky, 1e-3, 1, **shared)
    estimator.fit_gsir2(x, y, kx, ky, 1e-3, 1, **shared)


def _measure(call, repeats):
    cpu, wall = _best(call, repeats)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"cpu_s": round(cpu, 5), "wall_s": round(wall, 5),
            "peak_rss_mb": round(rss, 1)}


def run_cell(stage, n, repeats, model_path):
    """Time one stage in this process and return its record."""
    if stage in SUITES["oracle"]:
        return _measure(_oracle_call(stage, n), repeats)
    from gsir import estimator, kernels
    from gsir.datasets import SyntheticModel, generate
    from gsir.estimator import evaluate_predictors, fit_gsir1, fit_gsir2
    from gsir.kernels import KernelSpec, centered_gram, median_bandwidth
    from gsir.modelio import load_fit, save_fit

    design = SyntheticModel("m3_symmetric", 5, 0.2)
    x, y, _ = generate(design, n, SEED)
    kx = KernelSpec("gaussian", median_bandwidth(x))
    ky = KernelSpec("gaussian", median_bandwidth(y))
    if stage == "median_bandwidth":
        call = lambda: median_bandwidth(x)
    elif stage == "centered_gram":
        call = lambda: centered_gram(kx, x)
    elif stage == "reflected_gram":
        if not hasattr(kernels, "reflected_gram"):
            return {}
        call = lambda: kernels.reflected_gram(kx, x)
    elif stage == "fit_gsir1":
        call = lambda: fit_gsir1(x, y, kx, ky, 1e-3, 1)
    elif stage == "fit_gsir2":
        call = lambda: fit_gsir2(x, y, kx, ky, 1e-3, 1)
    elif stage == "fit_gsir1_laplace_y":
        ly = KernelSpec("laplace", median_bandwidth(y))
        call = lambda: fit_gsir1(x, y, kx, ly, 1e-3, 1)
    elif stage == "recovery_pair":
        call = lambda: _recovery_pair(estimator, x, y, kx, ky)
    elif stage == "save_model":
        save_fit(fit_gsir1(x, y, kx, ky, 1e-3, 1), model_path)
        return {}
    else:
        fit = load_fit(model_path)
        x_new, _, _ = generate(design, PREDICT_ROWS, SEED + 1)
        call = lambda: evaluate_predictors(fit, x_new)
    ranks, factor = [], estimator._factor

    def spy(*args):      # Gy is factored first, then Gx
        c, piv = factor(*args)
        ranks.append(c.shape[1])
        return c, piv

    estimator._factor = spy
    rec = _measure(call, repeats)
    return {**rec, "r": ranks[1], "r_y": ranks[0]} if ranks else rec


def _env(src):
    # absolute: the cells run in a temporary working directory
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(Path(src).resolve()))


def _cell(src, stage, n, repeats, model_path):
    env = _env(src)
    cmd = [sys.executable, __file__, "--cell", stage, str(n), str(repeats),
           str(model_path)]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


# One CLI command in a fresh interpreter: CPU seconds of the import and of
# main, then peak RSS, as the last stdout line.  It imports nothing before
# gsir.cli that a `gsir` process would not.
CLI_PROBE = """import time
c0 = time.process_time()
import gsir.cli
c1 = time.process_time()
code = gsir.cli.main({argv!r})
c2 = time.process_time()
import json, resource
print(json.dumps([code, c1 - c0, c2 - c1,
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]))
"""


def _children_cpu():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _cli_run(src, command, work):
    """{import_cpu_s, run_cpu_s, process_cpu_s, peak_rss_mb} of one command."""
    c0 = _children_cpu()
    out = subprocess.run([sys.executable, "-c", CLI_PROBE.format(
        argv=[command, "--config", command + ".json"])], cwd=work, env=_env(src),
        check=True, capture_output=True, text=True)
    code, import_s, run_s, rss = json.loads(out.stdout.splitlines()[-1])
    if code != 0:
        raise RuntimeError(f"gsir {command} exited {code}: {out.stderr}")
    return {"import_cpu_s": import_s, "run_cpu_s": run_s,
            "process_cpu_s": _children_cpu() - c0, "peak_rss_mb": rss}


def cli_rows(labels, repeats):
    """Median fresh-process costs of each README command, per label."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(repeats):
            for pair in labels if rep % 2 == 0 else labels[::-1]:
                name, src = pair.split("=", 1)
                work = Path(tmp, name)
                if rep == 0:
                    work.mkdir()
                    subprocess.run([sys.executable, "-c", POINTS], cwd=work,
                                   env=_env(src), check=True)
                for command, _, config in COMMANDS:
                    (work / f"{command}.json").write_text(json.dumps(config))
                    runs.setdefault((name, command), []).append(
                        _cli_run(src, command, work))
    rows = []
    for (name, command), recs in runs.items():
        cpu = [r["import_cpu_s"] + r["run_cpu_s"] for r in recs]
        q1, _, q3 = statistics.quantiles(cpu, n=4) if len(cpu) > 1 else cpu * 3
        row = {"commit": name, "stage": command, "cpu_s": round(statistics.median(cpu), 4),
               "cpu_s_quartiles": [round(q1, 4), round(q3, 4)]}
        for key in ("import_cpu_s", "run_cpu_s", "process_cpu_s", "peak_rss_mb"):
            row[key] = round(statistics.median(r[key] for r in recs), 4)
        rows.append(row)
        print(json.dumps(row), flush=True)
    return rows


def stage_rows(labels, ns, repeats, suite):
    """Best-of-repeats cost of each fit or oracle stage, per n and label."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in ns:
            if suite == "fit":
                for pair in labels:
                    name, src = pair.split("=", 1)
                    _cell(src, "save_model", n, 1, Path(tmp) / f"{name}_{n}.json")
            for i, stage in enumerate(SUITES[suite]):
                for pair in labels if i % 2 == 0 else labels[::-1]:
                    name, src = pair.split("=", 1)
                    rec = _cell(src, stage, n, repeats, Path(tmp) / f"{name}_{n}.json")
                    if rec:
                        rows.append({"commit": name, "stage": stage, "n": n, **rec})
                        print(json.dumps(rows[-1]), flush=True)
    return rows


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
    if args.suite == "cli":
        rows = cli_rows(labels, args.repeats)
    else:
        rows = stage_rows(labels, args.n, args.repeats, args.suite)
    doc = {"harness": "bench/fit_stages.py", "suite": args.suite,
           "blas_threads": 1, "repeats": args.repeats, "cpu_count": os.cpu_count(),
           **({"predict_rows": PREDICT_ROWS} if args.suite == "fit" else
              {"j_dim": ORACLE_J, "y_dim": ORACLE_Y} if args.suite == "oracle" else
              {"configs": "bench/digests.py COMMANDS"}),
           "rows": rows}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
