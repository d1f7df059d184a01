"""The thin-factor solve against the dense reference in `reference_solve`,
and its structured QR against the Householder QR of the whole factor."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg.lapack import dpstrf, dtpqrt

import gsir.estimator
from gsir.datasets import SyntheticModel, generate
from gsir.estimator import (_factor, evaluate_predictors, fit_gsir1, fit_gsir2,
                            gsir_spectrum)
from gsir.kernels import KernelSpec, centered_gram, median_bandwidth, reflected_gram
from gsir.linalg import NumericalError
from reference_solve import (align_sign, dense_centered_gram, reference_fit,
                             reference_qr_solve)

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


@pytest.mark.parametrize("fit_fn", [fit_gsir1, fit_gsir2])
@pytest.mark.parametrize("n", [300, 1000])
def test_permuted_rows_give_the_same_predictions(n, fit_fn):
    # the near-null tail of the factor's range, and with it the coefficients,
    # depends on the pivot order; predictions and their signs must not
    design = SyntheticModel("m3_symmetric", 5, 0.2)
    x, y, _ = generate(design, n, 11)
    x_new, _, _ = generate(design, 500, 12)
    kx = KernelSpec("gaussian", median_bandwidth(x))
    ky = KernelSpec("gaussian", median_bandwidth(y))
    perm = np.random.default_rng(13).permutation(n)
    pred = evaluate_predictors(fit_fn(x, y, kx, ky, 1e-3, 2), x_new)
    pred_p = evaluate_predictors(fit_fn(x[perm], y[perm], kx, ky, 1e-3, 2), x_new)
    scale = np.max(np.abs(pred), axis=0)
    assert np.all(np.max(np.abs(pred_p - pred), axis=0) <= 1e-7 * scale)


@pytest.mark.parametrize("variant", ["gsir1", "gsir2"])
def test_largest_in_sample_value_is_positive(variant):
    x, y = make_data(200, 3)
    kernel = KernelSpec("gaussian", 0.5)
    fit = FIT[variant](x, y, kernel, kernel, EPS, 3)
    values = centered_gram(kernel, x) @ fit.coefficients
    assert np.all(values[np.argmax(np.abs(values), axis=0), np.arange(3)] > 0)


@pytest.mark.parametrize("on", ["x", "y"])
def test_overflowing_gram_raises(on):
    # a linear kernel on values near 1e200 overflows the Gram matrix
    x, y = make_data(50, 1)
    x, y = (x * 1e200, y) if on == "x" else (x, y * 1e200)
    for fit_fn in (fit_gsir1, fit_gsir2):
        with pytest.raises(NumericalError, match="non-finite"):
            fit_fn(x, y, KernelSpec("linear"), KernelSpec("linear"), EPS, 1)


def test_no_eigensolver_is_wider_than_the_rank_of_gy(monkeypatch):
    x, y = make_data(300, 1)
    kernel = KernelSpec("gaussian", 0.5)
    r_y = dpstrf(centered_gram(kernel, y), lower=1, tol=-1)[2]
    widths = []

    def spy(solver):
        def wrapped(a, *args, **kwargs):
            widths.append(max(np.shape(a)))
            return solver(a, *args, **kwargs)
        return wrapped

    for module in (np.linalg, gsir.estimator):
        for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd", "dsyevd",
                     "dsyevr", "dsyev", "symmetric_eigh"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(getattr(module, name)))
    for fit_fn in (fit_gsir1, fit_gsir2):
        fit_fn(x, y, kernel, kernel, EPS, 2)
    assert widths and max(widths) <= r_y < 300 // 4


@pytest.mark.parametrize("p", [1, 2, 4])
def test_d_beyond_rank_reports_the_factor_rank(p):
    # a linear kernel on p-dimensional x gives Gx rank p
    rng = np.random.default_rng(p)
    x = rng.standard_normal((60, p))
    y = x[:, :1] + 0.1 * rng.standard_normal((60, 1))
    linear, gauss = KernelSpec("linear"), KernelSpec("gaussian", 0.5)
    assert fit_gsir1(x, y, linear, gauss, EPS, p).coefficients.shape == (60, p)
    with pytest.raises(ValueError, match=f"rank {p} .* achievable d is {p}$"):
        fit_gsir1(x, y, linear, gauss, EPS, p + 1)


@pytest.mark.parametrize("variant", ["gsir1", "gsir2"])
def test_d_beyond_rank_is_refused_before_the_qr_and_eigensolve(monkeypatch, variant):
    # Gx of a linear kernel on two columns has rank 2: its factor alone
    # refuses d = 3; at d = 2 the n - 2 rows below its triangle need one QR
    calls = []
    for name in ("dtpqrt", "dsyevd"):
        solver = getattr(gsir.estimator, name)

        def spy(*args, name=name, solver=solver, **kwargs):
            calls.append(name)
            return solver(*args, **kwargs)

        monkeypatch.setattr(gsir.estimator, name, spy)
    x, y = make_data(60, 1)
    linear, gauss = KernelSpec("linear"), KernelSpec("gaussian", 0.5)
    with pytest.raises(NumericalError, match="^d=3 exceeds the numerical rank 2 of "
                       "the centered Gram matrix; the achievable d is 2$"):
        FIT[variant](x[:, :2], y, linear, gauss, EPS, 3)
    assert calls == []
    FIT[variant](x[:, :2], y, linear, gauss, EPS, 2)
    assert calls == ["dtpqrt", "dsyevd"]


def test_constant_x_leaves_no_direction():
    # a constant x with an explicit gamma gives Gx = 0, a factor of rank 0
    x, y = np.ones((20, 2)), make_data(20, 1)[1]
    kernel = KernelSpec("gaussian", 0.5)
    for variant, fit_fn in FIT.items():
        with pytest.raises(NumericalError, match="the achievable d is 0$"):
            fit_fn(x, y, kernel, kernel, EPS, 1)
        assert np.array_equal(gsir_spectrum(x, y, kernel, kernel, EPS, variant),
                              np.zeros(20))


@pytest.mark.parametrize("variant", ["gsir1", "gsir2"])
@pytest.mark.parametrize("eps", [1e-12, 1e-300])
def test_tiny_epsilon_matches_reference(eps, variant):
    # c = Qx Lx^-T h keeps its digits however small eps is; the equivalent
    # (G q / sqrt(mu) - Lx h) / (eps n) loses them as eps / |Gx / n| shrinks
    x, y = make_data(50, 1)
    kernel = KernelSpec("gaussian", 0.5)
    fit = FIT[variant](x, y, kernel, kernel, eps, 1)
    assert_matches_reference(fit, x, y, 1)


def qr_reference_cell(cell):
    """(x, y, held-out x, kernel_x) of one cell."""
    if cell == "gaussian_x3":
        design = SyntheticModel("m3_symmetric", 5, 0.2)
        x, y, _ = generate(design, 600, 0)
        x, x_new = x[:, :3], generate(design, 300, 1)[0][:, :3]
        return x, y, x_new, KernelSpec("gaussian", median_bandwidth(x))
    x, y = make_data(200, 3)
    kernel = {"gaussian": KernelSpec("gaussian", median_bandwidth(x)),
              "laplace": KernelSpec("laplace", 0.5), "linear": KernelSpec("linear")}
    return x, y, make_data(300, 3)[0], kernel[cell]


def assert_matches_qr_reference(x, y, x_new, kx, ky, d, variant):
    fit = FIT[variant](x, y, kx, ky, EPS, d)
    coef_ref, mu_ref, warnings_ref = reference_qr_solve(x, y, kx, ky, EPS, variant, d)
    assert len(fit.warnings) == len(warnings_ref)
    mu = gsir_spectrum(x, y, kx, ky, EPS, variant)
    mu_all = reference_qr_solve(x, y, kx, ky, EPS, variant)
    assert np.max(np.abs(mu - mu_all)) <= 1e-12 * mu_all[0]
    assert np.max(np.abs(fit.eigenvalues - mu_ref)) <= 1e-12 * mu_ref[0]
    pred = evaluate_predictors(fit, x_new)
    pred_ref = evaluate_predictors(dataclasses.replace(fit, coefficients=coef_ref), x_new)
    scale = np.max(np.abs(pred_ref), axis=0)
    assert np.all(np.max(np.abs(pred - pred_ref), axis=0) <= 1e-12 * scale)


@pytest.mark.parametrize("variant", ["gsir1", "gsir2"])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("cell", ["gaussian", "laplace", "linear", "gaussian_x3"])
def test_structured_qr_matches_householder_qr(cell, d, variant):
    # centered gaussian and laplace Gx keep r = n columns, their reflections
    # r = n - 1, so one row lies below the triangle; linear Gx has r = 3 and
    # x[:, :3] at n = 600 r = 376, so n - r rows lie below it
    x, y, x_new, kx = qr_reference_cell(cell)
    r = dpstrf(centered_gram(kx, x), lower=1, tol=-1)[2]
    assert (r == len(x)) == (cell in ("gaussian", "laplace"))
    ky = KernelSpec("gaussian", median_bandwidth(y))
    assert_matches_qr_reference(x, y, x_new, kx, ky, d, variant)


@pytest.mark.parametrize("variant", ["gsir1", "gsir2"])
@pytest.mark.parametrize("cell", ["gaussian", "linear", "gaussian_x3"])
def test_structured_qr_completion_matches_householder_qr(cell, variant):
    # a linear kernel on a 1-d response gives Gy rank 1, so two of the three
    # predictors complete p within the span of Fx's top pivot columns
    x, y, x_new, kx = qr_reference_cell(cell)
    fit = FIT[variant](x, y[:, :1], kx, KernelSpec("linear"), EPS, 3)
    assert fit.eigenvalues[0] > 0 and np.all(fit.eigenvalues[1:] == 0.0)
    assert_matches_qr_reference(x, y[:, :1], x_new, kx, KernelSpec("linear"), 3,
                                variant)


@pytest.mark.parametrize("cell", ["gaussian", "laplace"])
def test_factor_rank_is_below_n_where_the_centered_gram_keeps_n(cell):
    # dpstrf keeps all n columns of these centered Grams, singular as centering
    # makes them; the zero first row and column of the reflected Gram, where
    # the constant vector went, leave n - 1
    x, _, _, kx = qr_reference_cell(cell)
    n = len(x)
    assert dpstrf(centered_gram(kx, x), lower=1, tol=-1)[2] == n
    assert _factor(*reflected_gram(kx, x))[0].shape[1] == n - 1


@pytest.mark.parametrize("seed", [0, 1])
def test_spectrum_has_no_rounding_level_tail(seed):
    # both laplace Grams keep all n columns when centered, and a solve on
    # those factors ended its spectrum in one value near 1e-17 mu_1; on the
    # reflected factors the last value is exactly 0 and the others are not
    # rounding
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((30, 3))
    y = np.column_stack([np.sin(x[:, 0]), x[:, 1]]) + 0.1 * rng.standard_normal((30, 2))
    kernel = KernelSpec("laplace", 0.5)
    for points in (x, y):
        assert dpstrf(centered_gram(kernel, points), lower=1, tol=-1)[2] == 30
    for variant in FIT:
        mu = gsir_spectrum(x, y, kernel, kernel, EPS, variant)
        assert mu[-1] == 0.0 and np.all(mu[:-1] > 1e-6 * mu[0])


def test_every_fit_runs_the_qr_on_at_least_one_row(monkeypatch):
    heights = []

    def spy(l, nb, a, b, **kwargs):
        heights.append(b.shape[0])
        return dtpqrt(l, nb, a, b, **kwargs)

    monkeypatch.setattr(gsir.estimator, "dtpqrt", spy)
    for cell in ("gaussian", "laplace", "linear", "gaussian_x3"):
        x, y, _, kx = qr_reference_cell(cell)
        fit_gsir1(x, y, kx, KernelSpec("laplace", 0.5), EPS, 1)
    assert len(heights) == 4 and min(heights) >= 1
