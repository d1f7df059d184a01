"""Command-line front end.

Subcommands: theory, sim-rate, kernel-recovery (experiment runners driven by
a JSON config), plus fit and predict (train a model to JSON, evaluate it on
new points).  Exit codes: 0 success; 3 numerical failure, a `NumericalError`
or numpy `LinAlgError`; 2 every other input problem, a `ValueError` (config,
data, model, sizes), a `MemoryError` or an `OSError`.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from .datasets import generate
from .experiments import (DENSE_FIT_ARRAYS, _seed, check_memory, load_config,
                          resolve_kernel, run_experiment)
from .linalg import NumericalError
from .modelio import ConfigError, load_fit, read_points_csv, save_fit, write_csv


def _run_fit(config):
    from .estimator import fit_gsir1, fit_gsir2
    if config.dataset is None:
        x, y = read_points_csv(config.data_csv, need_response=True)
    n, p = (config.dataset[1], config.dataset[0].p) if config.dataset else x.shape
    # Sized before the draw: the dense fit and the n x p training design.
    # This function traced 6.52, 3.35, 3.00, 3.00, 4.11 n p doubles at
    # (n, p) = (3, 4e5), (10, 2e5), (50, 4e4), (200, 1e4), (1000, 1e3); at
    # n = 3 most of it is the text of one training row, which save_fit
    # writes a row at a time.  So 7 n p, at 10 bytes a double.
    check_memory(DENSE_FIT_ARRAYS * 8 * n * n + 10 * 7 * n * p,
                 f"n={n}, p={p}, one dense fit")
    if config.dataset is not None:
        x, y, _ = generate(*config.dataset, config.base_seed)
    kx = resolve_kernel(config.kernel_x, x, "kernel_x")
    ky = resolve_kernel(config.kernel_y, y, "kernel_y")
    fit_fn = fit_gsir1 if config.variant == "gsir1" else fit_gsir2
    fit = fit_fn(x, y, kx, ky, config.epsilon, config.d)
    save_fit(fit, config.output_path)
    for note in fit.warnings:
        print(f"warning: {note}", file=sys.stderr)
    print(f"fit {config.variant}: n={len(x)} d={config.d} eigenvalues="
          f"{[format(v, '.6g') for v in fit.eigenvalues]} -> {config.output_path}")


def _run_predict(config):
    from .estimator import evaluate_predictors
    try:
        fit = load_fit(config.model_path)
    except (OSError, ValueError, RecursionError) as exc:
        # RecursionError: JSON nested too deeply for the decoder
        raise ConfigError(f"cannot load model {config.model_path}: {exc}") from exc
    x, _ = read_points_csv(config.data_csv, need_response=False)
    pred = evaluate_predictors(fit, x)
    write_csv(config.output_path, [f"pred_{j + 1}" for j in range(pred.shape[1])], pred)
    print(f"predict: {pred.shape[0]} points x {pred.shape[1]} predictors -> "
          f"{config.output_path}")


def _run_mode(config, threads):
    report = run_experiment(config, threads=threads)
    dest = (f"-> {config.output_path}" if config.output_path
            else "(no output_path; summary below)")
    print(f"{config.mode}: {len(report.rows)} rows {dest}")
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
        seed = None if args.seed is None else _seed(args.seed, "--seed")
        overrides = {"base_seed": seed, "output_path": args.out or None}
        config = dataclasses.replace(
            config, **{key: v for key, v in overrides.items() if v is not None})
        if args.command in ("fit", "predict") and not config.output_path:
            raise ConfigError(f"{args.command} needs an output path: give --out or "
                              f"'output_path'")
        if args.command == "fit":
            _run_fit(config)
        elif args.command == "predict":
            _run_predict(config)
        else:
            _run_mode(config, args.threads)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:
        # MemoryError: numpy refuses an array larger than the address space
        print(f"config error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
