"""Argument checks of the public functions, one row per check: the callable,
its arguments, the exception it raises and a fragment of its message."""

import dataclasses

import numpy as np
import pytest

from gsir.datasets import SyntheticModel, true_predictors
from gsir.estimator import evaluate_predictors, factorize, fit_gsir1, solve
from gsir.experiments import ConfigError, parse_config
from gsir.kernels import KernelSpec, gram_matrix, reflected_gram
from gsir.linalg import NumericalError, operator_norm
from gsir.metrics import max_canonical_correlation, subspace_distance
from gsir.rates import fit_loglog_slope, rate_bound_terms
from gsir.seqsim import (build_model, empirical_operators, lemma_alpha_sum,
                         power_spectrum, simulate_sample, truncation_tail_fraction)

GAUSS = KernelSpec("gaussian", 0.5)
RNG = np.random.default_rng(0)
X = RNG.standard_normal((12, 2))
Y = np.sin(X[:, :1])
WITH_NAN = np.where(np.arange(12)[:, None] == 3, np.nan, X)
FIT = fit_gsir1(X, Y, GAUSS, GAUSS, 1e-2, 1)
FZ = factorize(X, Y, GAUSS, GAUSS, 1e-2)
LINEAR_FZ = factorize(X, Y, KernelSpec("linear"), GAUSS, 1e-2)     # rank 2
BLOCK = RNG.standard_normal((10, 2))
MODEL = build_model(6, 2, 2.0, 1.0)
ONE_ROW = dataclasses.replace(simulate_sample(MODEL, 4, 0), n=1)
LISTED_DATASET = {"schema_version": 1, "variant": "gsir1", "dataset": ["m1_ratio", 2],
                  "kernel_x": {"family": "gaussian"}, "kernel_y": {"family": "gaussian"},
                  "epsilon": 1e-2, "d": 1, "output_path": "model.json"}
LISTED_MODEL = {"schema_version": 1, "mode": "sim_rate", "base_seed": 0,
                "n_grid": [40, 80], "replications": 2, "alpha": 2.0, "beta": 1.0,
                "model": [12, 2]}


@pytest.mark.parametrize("fn,args,exc,fragment", [
    (fit_gsir1, (WITH_NAN, Y, GAUSS, GAUSS, 1e-2, 1), ValueError,
     "x contains non-finite entries"),
    (fit_gsir1, (X, WITH_NAN[:, :1], GAUSS, GAUSS, 1e-2, 1), ValueError,
     "y contains non-finite entries"),
    (factorize, (WITH_NAN, Y, GAUSS, GAUSS, 1e-2), ValueError,
     "x contains non-finite entries"),
    (factorize, (X, WITH_NAN[:, 1:], GAUSS, GAUSS, 1e-2), ValueError,
     "y contains non-finite entries"),
    (evaluate_predictors, (FIT, WITH_NAN), ValueError,
     "x_new contains non-finite entries"),
    (evaluate_predictors, (FIT, X[None]), ValueError, "x_new must be a 2-d array"),
    (gram_matrix, (GAUSS, X, X[:, :1]), ValueError, "point dimensions differ: 2 vs 1"),
    (reflected_gram, (GAUSS, X[:1]), ValueError, "centering needs at least 2 points"),
    (subspace_distance, (BLOCK[None], BLOCK), ValueError, "first block must be 2-d"),
    (subspace_distance, (BLOCK, WITH_NAN), ValueError,
     "second block contains non-finite entries"),
    (subspace_distance, (BLOCK, X), ValueError, "different point counts: 10 vs 12"),
    (max_canonical_correlation, (BLOCK, BLOCK[None]), ValueError,
     "second block must be 2-d"),
    (max_canonical_correlation, (WITH_NAN, BLOCK), ValueError,
     "first block contains non-finite entries"),
    (max_canonical_correlation, (BLOCK, X), ValueError,
     "different point counts: 10 vs 12"),
    (true_predictors, (SyntheticModel("m2_additive", 2, 0.1), X[:, 0]), ValueError,
     "points have 1 coordinates; model m2_additive needs at least 2"),
    (operator_norm, (np.array([[1.0, np.inf]]),), NumericalError,
     "matrix contains non-finite entries"),
    (rate_bound_terms, (0, 0.1, 2.0, 1.0), ValueError, "n must be at least 1"),
    (fit_loglog_slope, ([10, 20, 40], [0.3, 0.2]), ValueError,
     "ns and errors must be 1-d of equal length"),
    (build_model, (0, 2, 2.0, 1.0), ValueError, "dimensions must be positive"),
    (build_model, (6, 2, 2.0, 1.0, 0, "diagonal"), ValueError, "unknown s_kind"),
    (simulate_sample, (MODEL, 10, 0, "skewed"), ValueError, "unknown residual_kind"),
    (empirical_operators, (ONE_ROW,), ValueError, "need n >= 2 to center columns"),
    (power_spectrum, (2.0, 0), ValueError, "j_dim must be positive"),
    (lemma_alpha_sum, ([], 0.1), ValueError, "lambdas must be a nonempty 1-d sequence"),
    (truncation_tail_fraction, (1.0, 10), ValueError, "alpha must exceed 1"),
    (parse_config, (LISTED_DATASET, "fit"), ConfigError,
     "field 'dataset' must be an object"),
    (parse_config, (LISTED_MODEL, "sim-rate"), ConfigError,
     "field 'model' must be an object"),
    (solve, (FZ, "gsir3", 1), ValueError,
     "variant must be one of ('gsir1', 'gsir2'), got 'gsir3'"),
    (solve, (FZ, "gsir1", 0), ValueError, "d must satisfy 1 <= d <= n - 1 = 11, got 0"),
    (solve, (LINEAR_FZ, "gsir2", 3), NumericalError,
     "d=3 exceeds the numerical rank 2 of the centered Gram matrix; the achievable d is 2"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_bad_arguments_raise(fn, args, exc, fragment):
    with pytest.raises(exc) as info:
        fn(*args)
    assert fragment in str(info.value)


def test_one_dimensional_inputs_are_read_as_columns():
    fit = fit_gsir1(X[:, :1], Y, GAUSS, GAUSS, 1e-2, 1)
    assert np.array_equal(evaluate_predictors(fit, BLOCK[:, 0]),
                          evaluate_predictors(fit, BLOCK[:, :1]))
    a, b = BLOCK[:, 0], BLOCK[:, 1]
    assert subspace_distance(a, b) == subspace_distance(a[:, None], b[:, None])
    assert (max_canonical_correlation(a, b)
            == max_canonical_correlation(a[:, None], b[:, None]))
    model = SyntheticModel("m1_ratio", 1, 0.1)
    assert np.array_equal(true_predictors(model, a), true_predictors(model, a[:, None]))
