"""Property tests from the paper's inequalities and the invariances of the
median bandwidth rule.

- mu_j is nonincreasing in epsilon, for both variants: B^T B is E^T S^-2 E
  (gsir1) or E^T S^-1 E (gsir2), with E free of epsilon and S = Lx^T Lx / n
  + epsilon I growing in Loewner order.
- The variants sandwich each other: mu2_j / (lambda_max + eps) <= mu1_j <=
  mu2_j / eps, lambda_max the top eigenvalue of Gx / n.
- The sequence-space oracle: err_m <= err_r1 (err_r1 + 2 ||R||), since
  m - M = (D S^T + S D^T) / 2 with D = r1 - R and S = r1 + R.
- Predictions under the median rule do not change when x is translated
  (gaussian and laplace kernels), or rotated or scaled (gaussian: the rule
  sets gamma from Euclidean distances, so a laplace kernel is not scale
  free), nor when y is mapped to a y + b.

The inequalities hold within rounding of the largest value, the invariances
within rounding of the prediction scale: rounding, not bits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gsir.datasets import MODEL_DIMS, SyntheticModel, generate
from gsir.estimator import evaluate_predictors, fit_gsir1
from gsir.kernels import KernelSpec, centered_gram, median_bandwidth
from gsir.linalg import operator_norm
from gsir.seqsim import (build_model, error_report, estimate_regression_ops,
                         simulate_sample)
from reference_solve import fitted_spectrum

ROUNDING = 1e-10

designs = st.sampled_from(sorted(MODEL_DIMS))
seeds = st.integers(0, 2 ** 32 - 1)
epsilons = st.floats(1e-5, 1e-1)


def sample(design, seed, n=60):
    return generate(SyntheticModel(design, 3, 0.2), n, seed)[:2]


def median_kernel(family, points):
    return KernelSpec(family, median_bandwidth(points))


@settings(max_examples=10, deadline=None)
@given(design=designs, seed=seeds, eps=st.lists(epsilons, min_size=2, max_size=2),
       family_y=st.sampled_from(["gaussian", "laplace"]))
def test_spectrum_falls_with_epsilon_and_the_variants_sandwich(design, seed, eps,
                                                                family_y):
    x, y = sample(design, seed)
    kx, ky = median_kernel("gaussian", x), median_kernel(family_y, y)
    small, large = sorted(eps)
    mu = {(variant, e): fitted_spectrum(x, y, kx, ky, e, variant)
          for variant in ("gsir1", "gsir2") for e in (small, large)}
    for variant in ("gsir1", "gsir2"):
        # every mu beyond a fit's rank is 0, and the rank falls with eps
        top, r = mu[variant, small][0], len(mu[variant, large])
        assert r <= len(mu[variant, small])
        assert np.all(mu[variant, large] <= mu[variant, small][:r] + ROUNDING * top)
    lam_max = np.linalg.eigvalsh(centered_gram(kx, x))[-1] / len(x)
    for e in (small, large):
        mu1, mu2 = mu["gsir1", e], mu["gsir2", e]
        slack = ROUNDING * mu1[0]
        assert np.all(mu2 / (lam_max + e) <= mu1 + slack)
        assert np.all(mu1 <= mu2 / e + slack)


@settings(max_examples=15, deadline=None)
@given(seed=seeds, eps=epsilons, beta=st.floats(0.5, 2.0),
       s_kind=st.sampled_from(["identity", "random"]))
def test_oracle_error_of_m_is_bounded_by_that_of_r1(seed, eps, beta, s_kind):
    model = build_model(40, 2, 2.0, beta, seed=seed, s_kind=s_kind)
    rec = error_report(model, estimate_regression_ops(
        simulate_sample(model, 150, seed), eps))
    bound = rec.err_r1 * (rec.err_r1 + 2.0 * operator_norm(model.R))
    assert rec.err_m <= bound * (1.0 + ROUNDING)


def predictions(x, y, x_new, family="gaussian"):
    fit = fit_gsir1(x, y, median_kernel(family, x), median_kernel("gaussian", y),
                    1e-3, 1)
    return evaluate_predictors(fit, x_new)[:, 0]


def assert_same_predictions(a, b):
    # up to the eigenvector's sign
    assert np.max(np.abs(a - np.sign(a @ b) * b)) <= 1e-8 * np.max(np.abs(a))


@settings(max_examples=10, deadline=None)
@given(design=designs, seed=seeds, family=st.sampled_from(["gaussian", "laplace"]),
       shift=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3))
def test_predictions_ignore_translating_x(design, seed, family, shift):
    x, y = sample(design, seed)
    x_new = sample(design, seed + 1, n=20)[0]
    assert_same_predictions(predictions(x, y, x_new, family),
                            predictions(x + shift, y, x_new + shift, family))


@settings(max_examples=10, deadline=None)
@given(design=designs, seed=seeds, scale=st.floats(1e-2, 1e2),
       a=st.floats(0.1, 10.0), b=st.floats(-10.0, 10.0))
def test_gaussian_predictions_ignore_rotating_and_scaling_x_and_mapping_y(
        design, seed, scale, a, b):
    x, y = sample(design, seed)
    x_new = sample(design, seed + 1, n=20)[0]
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))[0]
    pred = predictions(x, y, x_new)
    assert_same_predictions(pred, predictions(x @ q, y, x_new @ q))
    assert_same_predictions(pred, predictions(scale * x, y, scale * x_new))
    assert_same_predictions(pred, predictions(x, a * y + b, x_new))
