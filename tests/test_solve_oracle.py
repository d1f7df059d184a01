"""The thin-factor solve against the dense reference in `reference_solve`."""

import dataclasses

import numpy as np
import pytest

from gsir.estimator import (align_sign, evaluate_predictors, fit_gsir1,
                            fit_gsir2, gsir_spectrum)
from gsir.kernels import KernelSpec
from reference_solve import dense_centered_gram, reference_fit

FIT = {"gsir1": fit_gsir1, "gsir2": fit_gsir2}
EPS = 0.01


def make_data(n, q):
    rng = np.random.default_rng(n + q)
    x = rng.standard_normal((n, 3))
    y = np.column_stack([np.sin(x[:, 0]) + x[:, 1] ** 2, x[:, 2],
                         np.tanh(x[:, 0] * x[:, 1])])[:, :q]
    return x, y + 0.1 * rng.standard_normal((n, q))


def assert_matches_reference(fit, x, y, d, mu_tol=1e-10, pred_tol=1e-8):
    mu_ref, coef_ref = reference_fit(x, y, fit.kernel_x, fit.kernel_y,
                                     fit.epsilon, d, fit.variant)
    mu = gsir_spectrum(x, y, fit.kernel_x, fit.kernel_y, fit.epsilon, fit.variant)
    # Eigenvalue errors of a symmetric matrix scale with its largest one.
    assert mu.shape == mu_ref.shape
    assert np.max(np.abs(mu - mu_ref)) <= mu_tol * mu_ref[0]
    assert np.array_equal(fit.eigenvalues, mu[:d])
    pred = evaluate_predictors(fit, x)
    pred_ref = evaluate_predictors(dataclasses.replace(fit, coefficients=coef_ref), x)
    for j in range(d):
        s = align_sign(pred[:, j], pred_ref[:, j])
        scale = np.max(np.abs(pred_ref[:, j]))
        assert np.max(np.abs(s * pred[:, j] - pred_ref[:, j])) <= pred_tol * scale


@pytest.mark.parametrize("variant", ["gsir1", "gsir2"])
@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("family", ["gaussian", "laplace", "linear"])
@pytest.mark.parametrize("n", [50, 200])
def test_solve_matches_dense_reference(n, family, q, variant):
    # laplace makes Gy full rank; linear makes it rank q
    x, y = make_data(n, q)
    kernel = KernelSpec(family, 0.5)
    fit = FIT[variant](x, y, kernel, kernel, EPS, q)
    assert fit.warnings == ()
    assert_matches_reference(fit, x, y, q)


@pytest.mark.parametrize("variant", ["gsir1", "gsir2"])
@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("n", [50, 200])
def test_linear_kernel_null_space_does_not_leak(n, q, variant):
    # a linear kernel on 3-d x gives Gx rank 3: the other n - 3 eigenvalues
    # are rounding noise and must carry no weight into the solve
    x, y = make_data(n, q)
    kernel = KernelSpec("linear")
    fit = FIT[variant](x, y, kernel, kernel, EPS, q)
    assert_matches_reference(fit, x, y, q, mu_tol=1e-13, pred_tol=1e-11)


@pytest.mark.parametrize("variant", ["gsir1", "gsir2"])
def test_spectrum_is_zero_beyond_the_rank_of_gx(variant):
    # linear Gx has rank 3 and laplace Gy full rank, so B^T B is wide but of
    # rank 3: its rounding-level eigenvalues must not reach the spectrum
    x, y = make_data(200, 1)
    mu = gsir_spectrum(x, y, KernelSpec("linear"), KernelSpec("laplace", 0.5),
                       EPS, variant)
    assert mu.shape == (200,) and np.all(mu[:3] > 0) and np.all(mu[3:] == 0.0)


@pytest.mark.parametrize("variant", ["gsir1", "gsir2"])
@pytest.mark.parametrize("n", [50, 200])
def test_constant_response_matches_reference(n, variant):
    x, _ = make_data(n, 1)
    y = np.full((n, 1), 2.0)
    kernel = KernelSpec("gaussian", 0.5)
    fit = FIT[variant](x, y, kernel, kernel, EPS, 2)
    mu = gsir_spectrum(x, y, kernel, kernel, EPS, variant)
    mu_ref, _ = reference_fit(x, y, kernel, kernel, EPS, 2, variant)
    assert np.all(mu == 0.0) and np.max(mu_ref) < 1e-12
    assert any("gap" in w for w in fit.warnings)
    assert not any("null space" in w for w in fit.warnings)
    again = FIT[variant](x, y, kernel, kernel, EPS, 2)
    assert np.array_equal(fit.coefficients, again.coefficients)


@pytest.mark.parametrize("variant", ["gsir1", "gsir2"])
@pytest.mark.parametrize("n", [50, 200])
def test_d_beyond_positive_spectrum_completes_orthonormally(n, variant):
    # a linear kernel on a 1-d response gives Gy rank 1: mu_2 = mu_3 = 0
    x, y = make_data(n, 1)
    kx, ky = KernelSpec("gaussian", 0.5), KernelSpec("linear")
    fit = FIT[variant](x, y, kx, ky, EPS, 3)
    assert fit.eigenvalues[0] > 0 and np.all(fit.eigenvalues[1:] == 0.0)
    assert any("gap" in w for w in fit.warnings)
    assert not any("null space" in w for w in fit.warnings)
    assert_matches_reference(dataclasses.replace(
        fit, d=1, coefficients=fit.coefficients[:, :1],
        eigenvalues=fit.eigenvalues[:1]), x, y, 1)
    again = FIT[variant](x, y, kx, ky, EPS, 3)
    assert np.array_equal(fit.coefficients, again.coefficients)
    # gsir1 coefficients are Gx-orthonormal whenever the eigenvectors of the
    # objective matrix are orthonormal on the active part of Gx
    if variant == "gsir1":
        gx = dense_centered_gram(kx, x)
        gram = fit.coefficients.T @ gx @ fit.coefficients
        assert np.allclose(np.diag(gram), 1.0, atol=1e-8)
