"""Nonlinear sufficient dimension reduction with regularized kernel operators.

The package re-exports the README's entry points lazily: `gsir.fit_gsir1`
imports `gsir.estimator` on first use, so `import gsir` loads no SciPy and
each subcommand loads only the modules it runs.  Import everything else from
its submodule; the README's Layout section lists them.
"""

from importlib import import_module

__version__ = "0.1.0"

# re-exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("kernels", ("KernelSpec", "median_bandwidth")),
    ("estimator", ("fit_gsir1", "fit_gsir2", "evaluate_predictors")),
    ("seqsim", ("build_model", "simulate_sample", "estimate_regression_ops",
                "error_report")),
    ("rates", ("optimal_rate_theory", "rate_bound_terms", "fit_loglog_slope")),
    ("modelio", ("save_fit", "load_fit"))) for name in names}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
