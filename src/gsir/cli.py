"""Command-line front end.

Subcommands: theory, sim-rate, kernel-recovery (experiment runners driven by
a JSON config), plus fit and predict (train a model to JSON, evaluate it on
new points).  Exit codes: 0 success, 2 config, usage or input-data error
(including a malformed model or an input too large to allocate), 3
numerical failure.
"""

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from .datasets import generate
from .estimator import evaluate_predictors, fit_gsir1, fit_gsir2
from .experiments import (check_dense_memory, load_config, resolve_kernel,
                          run_experiment)
from .linalg import NumericalError
from .modelio import ConfigError, csv_text, load_fit, save_fit


def _read_table(path):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    if len(rows) < 2:
        raise ConfigError(f"data file {path} needs a header row and data rows")
    return rows[0], rows[1:]


def _columns(header, prefix, path):
    """Indices of prefix_1..prefix_k columns (or the bare name), in order."""
    if prefix in header:
        return [header.index(prefix)]
    found = {}
    for idx, name in enumerate(header):
        if name.startswith(prefix + "_"):
            try:
                j = int(name[len(prefix) + 1:])
            except ValueError:
                continue
            found[j] = idx
    expected = list(range(1, len(found) + 1))
    if sorted(found) != expected:
        raise ConfigError(f"data file {path} has non-contiguous {prefix}_* "
                          f"columns: {sorted(found)}")
    return [found[j] for j in expected]


def _parse_block(body, idxs, path):
    try:
        block = np.array([[float(row[i]) for i in idxs] for row in body])
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"data file {path} has malformed rows: {exc}") from exc
    if not np.all(np.isfinite(block)):
        raise ConfigError(f"data file {path} contains NaN or infinite values")
    return block


def read_points_csv(path, need_response):
    """Read x_1..x_p (and y columns when fitting) from a CSV file."""
    header, body = _read_table(path)
    x_idx = _columns(header, "x", path)
    if not x_idx:
        raise ConfigError(f"data file {path} has no x_1..x_p columns")
    x = _parse_block(body, x_idx, path)
    if not need_response:
        return x, None
    y_idx = _columns(header, "y", path)
    if not y_idx:
        raise ConfigError(f"data file {path} has no y column(s)")
    return x, _parse_block(body, y_idx, path)


def _run_fit(config):
    out = config.output_path
    if not out:
        raise ConfigError("fit needs an output path: give --out or 'output_path'")
    if config.dataset is None:
        x, y = read_points_csv(config.data_csv, need_response=True)
    else:
        x, y, _ = generate(*config.dataset, config.base_seed)
    n = x.shape[0]
    if n < 3:
        raise ConfigError(f"fit needs at least 3 samples, got {n}")
    if config.d > n - 1:
        raise ConfigError(f"field 'd' must satisfy 1 <= d <= n - 1 = {n - 1}, "
                          f"got {config.d}")
    check_dense_memory(n)
    kx = resolve_kernel(config.kernel_x, x, "kernel_x")
    ky = resolve_kernel(config.kernel_y, y, "kernel_y")
    fit_fn = fit_gsir1 if config.variant == "gsir1" else fit_gsir2
    fit = fit_fn(x, y, kx, ky, config.epsilon, config.d)
    save_fit(fit, out)
    for note in fit.warnings:
        print(f"warning: {note}", file=sys.stderr)
    print(f"fit {config.variant}: n={n} d={config.d} eigenvalues="
          f"{[format(v, '.6g') for v in fit.eigenvalues]} -> {out}")


def _run_predict(config):
    out = config.output_path
    if not out:
        raise ConfigError("predict needs an output path: give --out or 'output_path'")
    try:
        fit = load_fit(config.model_path)
    except (OSError, ValueError, RecursionError) as exc:
        # RecursionError: JSON nested too deeply for the decoder
        raise ConfigError(f"cannot load model {config.model_path}: {exc}") from exc
    x, _ = read_points_csv(config.data_csv, need_response=False)
    if x.shape[1] != fit.train_points.shape[1]:
        raise ConfigError(f"data file {config.data_csv} has {x.shape[1]} x "
                          f"columns, the model takes {fit.train_points.shape[1]}")
    pred = evaluate_predictors(fit, x)
    with open(out, "w", newline="") as fh:
        fh.write(csv_text([f"pred_{j + 1}" for j in range(pred.shape[1])], pred))
    print(f"predict: {pred.shape[0]} points x {pred.shape[1]} predictors -> {out}")


def _run_mode(config, threads):
    report = run_experiment(config, threads=threads)
    if config.output_path:
        print(f"{config.mode}: {len(report.rows)} rows -> {config.output_path}")
    else:
        print(f"{config.mode}: {len(report.rows)} rows (no output_path; "
              f"summary below)")
    print(json.dumps(report.summary, indent=2, default=str))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gsir",
        description="Nonlinear sufficient dimension reduction experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("theory", "tabulate optimal rates over an (alpha, beta) grid"),
            ("sim-rate", "sequence-space convergence experiment"),
            ("kernel-recovery", "synthetic-data recovery experiment"),
            ("fit", "fit a model and save it as JSON"),
            ("predict", "evaluate a saved model at new points")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="", help="output path (overrides config)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the base seed (sim-rate, kernel-recovery, fit)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for replications")
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    try:
        config = load_config(args.config, args.command)
        if args.seed is not None and not hasattr(config, "base_seed"):
            raise ConfigError(f"{args.command} takes no seed")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        overrides = {"base_seed": args.seed, "output_path": args.out or None}
        config = dataclasses.replace(
            config, **{key: v for key, v in overrides.items() if v is not None})
        if args.command == "fit":
            _run_fit(config)
        elif args.command == "predict":
            _run_predict(config)
        else:
            _run_mode(config, args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy refuses an array larger than the address space at once
        print(f"config error: input too large: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError, ValueError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
