"""Nonlinear sufficient dimension reduction with regularized kernel operators.

Library layout:

  kernels      kernel evaluation, centered Gram matrices, median bandwidth
  linalg       spectral functional calculus on symmetric PSD matrices
  estimator    the two regularized inverse-regression variants
  seqsim       sequence-space simulation oracle with known population operators
  rates        closed-form rate theory and log-log slope fitting
  datasets     synthetic designs with known sufficient predictors
  metrics      subspace-recovery scores
  experiments  config-driven experiment runners and CSV reports
  modelio      file formats: JSON value converters, saved models, CSV text
  cli          command-line front end

The package re-exports the README's entry points; import everything else
from its submodule.
"""

from .kernels import KernelSpec, median_bandwidth
from .estimator import fit_gsir1, fit_gsir2, evaluate_predictors
from .seqsim import build_model, simulate_sample, estimate_regression_ops, \
    error_report
from .rates import optimal_rate_theory, rate_bound_terms, fit_loglog_slope
from .modelio import save_fit, load_fit

__version__ = "0.1.0"
