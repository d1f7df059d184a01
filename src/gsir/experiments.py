"""Experiment configuration, orchestration, and CSV reports.

Config documents are strict JSON (unknown fields are rejected), one schema
per subcommand (`COMMANDS`).  Each config dataclass is its own schema: a
field built with `_field` names the converter that reads it from the JSON
key of the same name.  Every replication's randomness derives only from
(base_seed, n, replication_index) through numpy's SeedSequence, so results
do not depend on scheduling and identical configs produce byte-identical
CSV output.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
from dataclasses import MISSING, dataclass, field, fields

from .datasets import SyntheticModel, generate
from .metrics import max_canonical_correlation, subspace_distance
from .modelio import (ConfigError, _as_int, _as_kernel, _as_real, _as_text,
                      _load_json, _one_of, _reject_unknown, _require, write_csv)
from .rates import VARIANTS, fit_loglog_slope, optimal_rate_theory, rate_bound_terms
from .seqsim import (build_model, error_report, estimate_regression_ops,
                     simulate_sample, truncation_tail_fraction,
                     RESIDUAL_KINDS, S_KINDS)

SCHEMA_VERSION = 1

SLOPE_TOL = 0.08   # |fitted slope + exponent| allowed at the optimal delta
R2_MIN = 0.95      # minimum r^2 for a trustworthy slope


# --------------------------------------------------------------------------
# config parsing: the converters of `modelio` and the config-only ones below
# --------------------------------------------------------------------------

def _between(lo, hi=float("inf")):
    """Converter of a number in the open interval (lo, hi)."""
    def convert(value, name):
        value = _as_real(value, name)
        if not lo < value < hi:
            raise ConfigError(f"field {name!r} must lie in ({lo}, {hi}), got {value}")
        return value
    return convert


_above_one = _between(1)
_count = partial(_as_int, minimum=1)
_seed = partial(_as_int, minimum=0)
_positive = partial(_as_real, positive=True)


def _alpha_beta(value, name):
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"field {name!r} must be an [alpha, beta] pair, got {value!r}")
    return _above_one(value[0], f"{name} alpha"), _positive(value[1], f"{name} beta")


def _as_list(convert, increasing=False):
    """Converter of a nonempty JSON list to the tuple of its converted entries."""
    def read(value, name):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"field {name!r} must be a nonempty list, got {value!r}")
        out = tuple(convert(v, f"{name} entry") for v in value)
        if increasing and any(b <= a for a, b in zip(out, out[1:])):
            raise ConfigError(f"field {name!r} must be strictly increasing, "
                              f"got {list(out)}")
        return out
    return read


_as_n_grid = _as_list(partial(_as_int, minimum=10), increasing=True)


def _as_deltas(value, name):
    """(): the theoretical optimum; a bare number is a one-entry list."""
    if value == "optimal":
        return ()
    return _as_list(_between(0, 1), increasing=True)(
        value if isinstance(value, list) else [value], name)


def _as_dataset(ds, name, sized=False):
    """The synthetic design; sized (a fit draws its own sample) adds n."""
    if not isinstance(ds, dict):
        raise ConfigError(f"field 'dataset' must be an object, got {ds!r}")
    _reject_unknown(ds, ("model", "p", "sigma_noise") + ("n",) * sized,
                    "dataset section")
    try:
        model = SyntheticModel(
            name=_as_text(_require(ds, "model", "dataset section"), "dataset.model"),
            p=_as_int(_require(ds, "p", "dataset section"), "dataset.p", minimum=1),
            sigma_noise=_as_real(_require(ds, "sigma_noise", "dataset section"),
                                 "dataset.sigma_noise"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid dataset section: {exc}") from exc
    if not sized:
        return model
    n = _as_int(_require(ds, "n", "dataset section"), "dataset.n", minimum=3)
    return model, n


def _field(convert, default=MISSING, key=None):
    """Config field read by convert from JSON key `key` (default: its name)."""
    return field(default=default, metadata={"convert": convert, "key": key})


def _build(cls, doc, where, header=(), prefix=""):
    """Read the config dataclass cls from a JSON object.

    Absent optional fields keep their dataclass defaults.  header lists
    further allowed keys that the caller checks itself.
    """
    spec = [(f.metadata["key"] or f.name, f) for f in fields(cls) if f.metadata]
    _reject_unknown(doc, header + tuple(key for key, _ in spec), where)
    values = {}
    for key, f in spec:
        if key in doc:
            values[f.name] = f.metadata["convert"](doc[key], prefix + key)
        elif f.default is MISSING:
            _require(doc, key, where)
    return cls(**values)


# (family, gamma) of a kernel section that a config leaves out.
DEFAULT_KERNEL = ("gaussian", "median")


@dataclass(frozen=True)
class SimModelParams:
    j_dim: int = _field(_count, 200)
    y_dim: int = _field(_count, 2)
    s_kind: str = _field(_one_of(S_KINDS), "identity")
    residual_kind: str = _field(_one_of(RESIDUAL_KINDS), "independent")

    def __post_init__(self):
        if self.j_dim <= self.y_dim:
            raise ConfigError(f"field 'model.j_dim' must exceed model.y_dim = {self.y_dim}"
                              f" so that R's span is a proper subspace, got {self.j_dim}")


def _as_sim_model(value, name):
    if not isinstance(value, dict):
        raise ConfigError(f"field {name!r} must be an object, got {value!r}")
    return _build(SimModelParams, value, "model section", prefix="model.")


@dataclass(frozen=True)
class SimRateConfig:
    base_seed: int = _field(_seed)
    n_grid: tuple = _field(_as_n_grid)
    replications: int = _field(_count)
    alpha: float = _field(_above_one)
    beta: float = _field(_positive)
    deltas: tuple = _field(_as_deltas, (), key="delta")  # (): the theoretical optimum
    epsilon_constant: float = _field(_positive, 1.0)
    model: SimModelParams = _field(_as_sim_model, SimModelParams())
    output_path: str = _field(_as_text, "")
    mode: str = "sim_rate"

    def __post_init__(self):
        # build_model's j^-alpha and (j^-alpha)^beta: 0 in float64 below 2^-1075 = e^-745.1
        lam = (self.model.y_dim + np.arange(2.0)) ** -self.alpha
        if not lam[1] > 0:
            raise ConfigError(f"field 'alpha' needs alpha ln(model.y_dim + 1) < 745.1, "
                              f"else j^-alpha is 0 at j = y_dim + 1; got {self.alpha}")
        if not lam[0] ** self.beta > 0:
            raise ConfigError(f"field 'beta' needs alpha beta ln(model.y_dim) < 745.1, "
                              f"else (j^-alpha)^beta is 0 at j = y_dim; got {self.beta}")


@dataclass(frozen=True)
class RecoveryConfig:
    base_seed: int = _field(_seed)
    n_grid: tuple = _field(_as_n_grid)
    replications: int = _field(_count)
    dataset: SyntheticModel = _field(_as_dataset)
    epsilon: float = _field(_positive)
    d: int = _field(_count)
    kernel_x: tuple = _field(_as_kernel, DEFAULT_KERNEL)  # (family, gamma-or-'median')
    kernel_y: tuple = _field(_as_kernel, DEFAULT_KERNEL)
    n_test: int = _field(partial(_as_int, minimum=2), 2000)
    output_path: str = _field(_as_text, "")
    mode: str = "kernel_recovery"

    def __post_init__(self):
        if self.d > min(self.n_grid) - 1:
            raise ConfigError(f"field 'd' must be at most min(n_grid) - 1 = "
                              f"{min(self.n_grid) - 1}, got {self.d}")
        if self.n_test <= max(self.d, self.dataset.d_true):
            raise ConfigError(f"field 'n_test' must exceed max(d, true predictors) = "
                              f"{max(self.d, self.dataset.d_true)}, got {self.n_test}")


@dataclass(frozen=True)
class TheoryConfig:
    grid: tuple = _field(_as_list(_alpha_beta))  # ((alpha, beta), ...)
    n_ref: int = _field(partial(_as_int, minimum=2), 10000)
    epsilon_constant: float = _field(_positive, 1.0)
    output_path: str = _field(_as_text, "")
    mode: str = "theory_table"


@dataclass(frozen=True)
class FitConfig:
    variant: str = _field(_one_of(VARIANTS))
    epsilon: float = _field(_positive)
    d: int = _field(_count)
    data_csv: str = _field(_as_text, None)
    dataset: tuple = _field(partial(_as_dataset, sized=True), None)  # (model, n)
    kernel_x: tuple = _field(_as_kernel, DEFAULT_KERNEL)
    kernel_y: tuple = _field(_as_kernel, DEFAULT_KERNEL)
    base_seed: int = _field(_seed, 0)
    output_path: str = _field(_as_text, "")

    def __post_init__(self):
        if (self.data_csv is None) == (self.dataset is None):
            raise ConfigError("fit config needs exactly one of 'data_csv' or 'dataset'")


@dataclass(frozen=True)
class PredictConfig:
    model_path: str = _field(_as_text)
    data_csv: str = _field(_as_text)
    output_path: str = _field(_as_text, "")


@dataclass(frozen=True)
class RateReport:
    """A run's CSV, as its header and rows of cells, and its summary."""
    header: tuple
    rows: tuple
    summary: dict


# The config schema of each subcommand; a run mode's schema has a `mode`.
COMMANDS = {"theory": TheoryConfig, "sim-rate": SimRateConfig,
            "kernel-recovery": RecoveryConfig, "fit": FitConfig,
            "predict": PredictConfig}


def parse_config(doc, command):
    """Validate a parsed JSON document and build the config of `command`."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    version = _require(doc, "schema_version", "config")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}; "
                          f"expected {SCHEMA_VERSION}")
    cls = COMMANDS[command]
    mode = getattr(cls, "mode", None)
    if mode is not None and _require(doc, "mode", "config") != mode:
        raise ConfigError(f"config mode {doc['mode']!r} does not match "
                          f"subcommand {command!r} (expected {mode!r})")
    return _build(cls, doc, f"{command} config",
                  header=("schema_version",) + ("mode",) * (mode is not None))


def load_config(path, command):
    """Read and validate the JSON config file of `gsir <command>`."""
    return parse_config(_load_json(path), command)


# --------------------------------------------------------------------------
# seeding and scheduling
# --------------------------------------------------------------------------

def derive_seed(base_seed, n, rep):
    """Splittable per-replication seed from (base_seed, n, rep) only."""
    return np.random.SeedSequence((base_seed, n, rep))


# Most (n, rep) tasks one run takes; the README configs run 80, the
# benchmark's 160.
MAX_TASKS = 10 ** 6


def _tasks(config):
    """The (n, rep) pairs of a run, in report order."""
    if len(config.n_grid) * config.replications > MAX_TASKS:
        raise ConfigError(f"{len(config.n_grid)} n_grid entries x {config.replications} "
                          f"replications exceed {MAX_TASKS} (n, rep) tasks")
    return [(n, rep) for n in config.n_grid for rep in range(config.replications)]


def _workers(threads, tasks):
    """Worker threads for tasks: at most one per task and one per CPU."""
    return min(threads, len(tasks), os.cpu_count() or 1)


def _run_tasks(fn, tasks, threads):
    workers = _workers(threads, tasks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


# n x n float64 arrays per dense fit, sized by the worst traced peak: where r
# and r_y both stay near n (m3, n=600, laplace kernel_y, eps = 1e-12) a gsir1
# fit, whose B sits beside its factorization's B2, peaks at 7.07 n^2, alone or
# as a kernel-recovery replication's second fit (gsir2 alone: 6.07 n^2).
DENSE_FIT_ARRAYS = 8


def _physical_memory():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(nbytes, what):
    """ConfigError unless the nbytes that `what` holds at its peak fit in
    physical memory: a run too large fails before it draws a sample."""
    if nbytes > _physical_memory():
        from decimal import Decimal      # nbytes may be beyond float range
        raise ConfigError(f"{what}: {Decimal(nbytes) / 2 ** 30:.3g} GiB needed, more than "
                          f"the {_physical_memory() / 2 ** 30:.3g} GiB of physical memory")


# --------------------------------------------------------------------------
# runners
# --------------------------------------------------------------------------

def _report(config, header, rows, summary):
    """The run's RateReport; its CSV goes to config.output_path when set."""
    report = RateReport(header, tuple(rows), summary)
    if config.output_path:
        write_csv(config.output_path, report.header, report.rows)
    return report


def _group_medians(rows, key, values):
    """Column medians of values(row) over the rows that share key(row)."""
    groups = {}
    for row in rows:
        groups.setdefault(key(row), []).append(values(row))
    return {k: np.median(v, axis=0).tolist() for k, v in groups.items()}


def run_sim_rate(config, threads=1):
    """Simulate, estimate at epsilon = c * n^-delta, and report errors.

    One population model serves every replication; each (n, rep) sample is
    simulated once and estimated at every delta in the grid.
    """
    theory = optimal_rate_theory(config.alpha, config.beta)
    deltas = config.deltas if config.deltas else (theory.delta_opt,)
    tasks = _tasks(config)
    # Each worker holds one replication, and the report a row per (task,
    # delta).  tracemalloc of one replication after a warm-up one, at (n, J)
    # = (2000, 200), (4000, 200), (1000, 400), (500, 800), (20000, 20) with
    # y_dim 2 and (20000, 40) with y_dim 30: 4.24, 7.50, 7.09, 18.6, 5.44 and
    # 35.5 MB, within 4% of n (J + 6 y_dim + 2) + 3 J^2 doubles.  numpy's
    # eigh of Sxx mallocs about 3 J^2 more where tracemalloc cannot see it
    # (its copy of Sxx and dsyevd's work): peak RSS grew 130 MB at (200, 1600)
    # and 279 MB at (200, 2400).  So 6 J^2, at 10 bytes a double, a 1.25
    # margin.  A row peaks at 1.24 KB with y_dim 2 and 2.94 KB with y_dim 30
    # (tracemalloc over a serial run of 600 rows): 1280 + 64 y_dim bytes.
    n, j, y = max(config.n_grid), config.model.j_dim, config.model.y_dim
    check_memory(_workers(threads, tasks) * 10 * (n * (j + 6 * y + 2) + 6 * j * j)
                 + len(tasks) * len(deltas) * (1280 + 64 * y),
                 f"sim-rate at n={n}, j_dim={j}, {len(tasks) * len(deltas)} rows")
    model = build_model(config.model.j_dim, config.model.y_dim, config.alpha,
                        config.beta, seed=config.base_seed, s_kind=config.model.s_kind)

    def one(task):
        n, rep = task
        sample = simulate_sample(model, n, derive_seed(config.base_seed, n, rep),
                                 residual_kind=config.model.residual_kind)
        out = []
        for delta in deltas:
            eps = config.epsilon_constant * float(n) ** -delta
            out.append((delta, n, rep, eps,
                        error_report(model, estimate_regression_ops(sample, eps))))
        return out

    results = [res for chunk in _run_tasks(one, tasks, threads) for res in chunk]

    summary = {
        "alpha": config.alpha,
        "beta": config.beta,
        "branch": theory.branch,
        "delta_opt": theory.delta_opt,
        "exponent_opt": theory.exponent_opt,
        "tail_fraction": truncation_tail_fraction(config.alpha,
                                                  config.model.j_dim),
        "by_delta": [],
    }
    names = ("err_r1", "err_r2", "err_m", "eta_span_err")
    medians = _group_medians(results, lambda res: res[:2],
                             lambda res: [getattr(res[-1], name) for name in names])
    for delta in deltas:
        med = {"delta": delta}
        for i, name in enumerate(names):
            med[f"median_{name}"] = {n: medians[delta, n][i] for n in config.n_grid}
        if len(config.n_grid) >= 3:
            for name in names:
                vals = [med[f"median_{name}"][n] for n in config.n_grid]
                fitline = fit_loglog_slope(config.n_grid, vals)
                med[f"slope_{name}"] = fitline.slope
                med[f"r2_{name}"] = fitline.r_squared
            med["slope_within_tolerance"] = bool(
                abs(med["slope_err_r1"] + theory.exponent_opt) <= SLOPE_TOL
                and med["r2_err_r1"] >= R2_MIN)
        summary["by_delta"].append(med)
    if len(deltas) > 1:
        summary["argmin_delta_by_n"] = {
            n: min(summary["by_delta"], key=lambda m: m["median_err_r1"][n])["delta"]
            for n in config.n_grid
        }
    d = results[0][-1].d
    header = (("n", "rep", "epsilon", "err_r1", "err_r2", "err_m")
              + tuple(f"proj_err_{j + 1}" for j in range(d))
              + tuple(f"bound_ok_{j + 1}" for j in range(d)))
    rows = [(n, rep, eps, rec.err_r1, rec.err_r2, rec.err_m, *rec.proj_err,
             *(("1" if ok else "0") if app else "na"
               for ok, app in zip(rec.bound_ok, rec.bound_applicable)))
            for _, n, rep, eps, rec in results]
    return _report(config, header, rows, summary)


def resolve_kernel(spec, points, name):
    """KernelSpec for the parsed (family, gamma) of config field `name`;
    'median' is set from points."""
    from .kernels import KernelSpec, median_bandwidth
    family, gamma = spec
    if gamma != "median":
        return KernelSpec(family, gamma)
    if family == "linear":
        return KernelSpec("linear")
    try:
        gamma = median_bandwidth(points)
    except ValueError as exc:
        raise ConfigError(f"field {name!r}: {exc}; give an explicit gamma") from exc
    return KernelSpec(family, gamma)


def run_kernel_recovery(config, threads=1):
    """Fit both variants on synthetic draws and score recovery of the truth.

    Each replication spawns two child seeds (train, test) from its
    SeedSequence.  The variant-free part of the solve is built once per draw
    (`estimator.factorize`) and solved for each variant.  Fitted predictors are
    evaluated at the held-out test design and compared to the true predictor
    values there.
    """
    from .estimator import evaluate_predictors, factorize, solve
    tasks = _tasks(config)
    # Each worker also holds the held-out design.  Its traced peak (generate, both
    # predictions and scores) was 15, 7, 16, 60, 29 and 27 doubles a test row at
    # (p, d, d_true) = (5,1,1), (1,1,1), (5,2,2), (20,2,1), (2,8,2), (1,8,1); the
    # scores' SVDs copy what tracemalloc cannot see (peak RSS: 51 and 47 in the
    # last two).  So 3 p + 6 d + d_true + 1, at 10 bytes a double.  And the
    # training design: generate peaks at 3 n p doubles, and x and the
    # factorization's copy (both fits' train_points) stay.  Beyond the test
    # term, one replication traced 2.40, 2.82, 2.91, 2.96 n p doubles at
    # (n, p) = (10, 2e5), (50, 4e4), (100, 2e4), (200, 1e4), n_test 2 or 3.
    # So 4 n p, at 10 bytes a double.
    n, fits, p = max(config.n_grid), _workers(threads, tasks), config.dataset.p
    test_bytes = 10 * config.n_test * (3 * p + 6 * config.d + config.dataset.d_true + 1)
    check_memory((DENSE_FIT_ARRAYS * 8 * n * n + 10 * 4 * n * p + test_bytes) * fits,
                 f"p={p}, n={n}, n_test={config.n_test}, {fits} dense fit(s)")
    header = (("n", "rep", "variant", "subspace_dist", "max_cancor")
              + tuple(f"eig_{j + 1}" for j in range(config.d)))

    def one(task):
        n, rep = task
        train_seed, test_seed = derive_seed(config.base_seed, n, rep).spawn(2)
        x, y, _ = generate(config.dataset, n, train_seed)
        x_test, _, f_test = generate(config.dataset, config.n_test, test_seed)
        kx = resolve_kernel(config.kernel_x, x, "kernel_x")
        ky = resolve_kernel(config.kernel_y, y, "kernel_y")
        shared = factorize(x, y, kx, ky, config.epsilon, config.d)
        out = []
        for variant in VARIANTS:
            fit = solve(shared, variant, config.d)
            pred = evaluate_predictors(fit, x_test)
            out.append((n, rep, variant, subspace_distance(pred, f_test),
                        max_canonical_correlation(pred, f_test),
                        *map(float, fit.eigenvalues)))
        return out

    rows = [row for chunk in _run_tasks(one, tasks, threads) for row in chunk]

    summary = {"by_variant": {}}
    # (variant, n) -> medians of (max_cancor, subspace_dist)
    medians = _group_medians(rows, lambda row: (row[2], row[0]),
                             lambda row: (row[4], row[3]))
    for variant in VARIANTS:
        med_cancor = {n: medians[variant, n][0] for n in config.n_grid}
        med_dist = {n: medians[variant, n][1] for n in config.n_grid}
        cvals = [med_cancor[n] for n in config.n_grid]
        summary["by_variant"][variant] = {
            "median_max_cancor": med_cancor,
            "median_subspace_dist": med_dist,
            "cancor_monotone_nondecreasing": bool(
                all(b >= a for a, b in zip(cvals, cvals[1:]))),
        }
    return _report(config, header, rows, summary)


def run_theory_table(config):
    """Tabulate optimal exponents and bound sums over an (alpha, beta) grid."""
    header = ("alpha", "beta", "branch", "delta_opt", "exponent_opt", "rn_sum",
              "rnprime_sum")
    rows = []
    for alpha, beta in config.grid:
        th = optimal_rate_theory(alpha, beta)
        eps = config.epsilon_constant * float(config.n_ref) ** -th.delta_opt
        try:
            _, rn = rate_bound_terms(config.n_ref, eps, alpha, beta, "gsir1")
            _, rnp = rate_bound_terms(config.n_ref, eps, alpha, beta, "gsir2")
        except ValueError as exc:   # epsilon outside (0, 1), or a term overflows
            raise ConfigError(f"epsilon_constant {config.epsilon_constant} with n_ref "
                              f"{config.n_ref} at alpha={alpha}, beta={beta}: {exc}") from exc
        rows.append((alpha, beta, th.branch, th.delta_opt, th.exponent_opt, rn, rnp))
    return _report(config, header, rows, {"n_ref": config.n_ref,
                                          "epsilon_constant": config.epsilon_constant})


def run_experiment(config, threads=1):
    """Dispatch on config mode."""
    if config.mode == "sim_rate":
        return run_sim_rate(config, threads=threads)
    if config.mode == "kernel_recovery":
        return run_kernel_recovery(config, threads=threads)
    return run_theory_table(config)

