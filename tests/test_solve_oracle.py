"""The thin-factor solve against the dense reference in `reference_solve`,
its structured QR against the Householder QR of the whole factor, and, with
linear kernels on a sequence-space draw, the fit against the oracle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpstrf, dtpqrt

import gsir.estimator
from gsir.datasets import SyntheticModel, generate
from gsir.estimator import (_STOP_TAU, _ULP, _factor, evaluate_predictors, factorize,
                            fit_gsir1, fit_gsir2, solve)
from gsir.experiments import derive_seed
from gsir.kernels import KernelSpec, centered_gram, median_bandwidth, reflected_gram
from gsir.linalg import NumericalError
from gsir.seqsim import (RESIDUAL_KINDS, S_KINDS, build_model, error_report,
                         estimate_regression_ops, simulate_sample)
from reference_oracle import span_projection_error
from reference_solve import (align_sign, dense_centered_gram, fitted_spectrum,
                             reference_fit, reference_qr_solve)
from test_acceptance import RATE_DELTA, RATE_N_GRID, RATE_SEED

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
    mu = fitted_spectrum(x, y, fit.kernel_x, fit.kernel_y, fit.epsilon, fit.variant)
    # Eigenvalue errors of a symmetric matrix scale with its largest one;
    # every mu beyond the fit's rank r is 0
    r = len(mu)
    assert np.max(np.abs(mu - mu_ref[:r])) <= mu_tol * mu_ref[0]
    assert np.max(mu_ref[r:]) <= mu_tol * mu_ref[0]
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
    # linear Gx has rank 3 and laplace Gy full rank, so B is 3 x r_y and of
    # rank 3: d = 3 fits with three positive mu, and no rounding-level
    # eigenvalue beyond them lets d = 4 fit
    x, y = make_data(200, 1)
    kx, ky = KernelSpec("linear"), KernelSpec("laplace", 0.5)
    assert np.all(FIT[variant](x, y, kx, ky, EPS, 3).eigenvalues > 0)
    with pytest.raises(NumericalError, match="the achievable d is 3$"):
        FIT[variant](x, y, kx, ky, EPS, 4)


@pytest.mark.parametrize("variant", ["gsir1", "gsir2"])
@pytest.mark.parametrize("n", [50, 200])
def test_constant_response_matches_reference(n, variant):
    x, _ = make_data(n, 1)
    y = np.full((n, 1), 2.0)
    kernel = KernelSpec("gaussian", 0.5)
    fit = FIT[variant](x, y, kernel, kernel, EPS, 2)
    mu = fitted_spectrum(x, y, kernel, kernel, EPS, variant)
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


def m3_cell(n):
    """x, y, 500 held-out rows and median gaussian kernels on m3_symmetric."""
    design = SyntheticModel("m3_symmetric", 5, 0.2)
    x, y, _ = generate(design, n, 11)
    x_new, _, _ = generate(design, 500, 12)
    return (x, y, x_new, KernelSpec("gaussian", median_bandwidth(x)),
            KernelSpec("gaussian", median_bandwidth(y)))


@pytest.mark.parametrize("fit_fn", [fit_gsir1, fit_gsir2])
@pytest.mark.parametrize("n", [300, 1000])
def test_permuted_rows_give_the_same_predictions(n, fit_fn, monkeypatch):
    # the near-null tail of the factor's range, and with it the coefficients,
    # depends on the pivot order; predictions and their signs must not.  Both
    # fits share the stop's floor n ulp max K_ii: at _STOP_TAU eps the row
    # order also picks the columns kept, which
    # test_permuted_rows_stay_within_the_tau_bound bounds
    monkeypatch.setattr(gsir.estimator, "_STOP_TAU", 0.0)
    x, y, x_new, kx, ky = m3_cell(n)
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
    # a gaussian Gy keeps r_y < r columns, a laplace Gy r_y > r: the
    # eigenproblem is B^T B (r_y x r_y) or B B^T (r x r), the smaller one
    x, y = make_data(300, 1)
    kernel = KernelSpec("gaussian", 0.5)
    r = _factor(*reflected_gram(kernel, x), EPS)[0].shape[1]
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
    for kernel_y in (kernel, KernelSpec("laplace", 0.5)):
        r_y = _factor(*reflected_gram(kernel_y, y))[0].shape[1]
        assert (r_y < 300 // 4 < r) if kernel_y is kernel else (r < r_y)
        widths.clear()
        for fit_fn in (fit_gsir1, fit_gsir2):
            fit_fn(x, y, kernel, kernel_y, EPS, 2)
        assert widths and max(widths) <= min(r, r_y)


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
    for fit_fn in FIT.values():
        with pytest.raises(NumericalError, match="the achievable d is 0$"):
            fit_fn(x, y, kernel, kernel, EPS, 1)


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
    mu = fitted_spectrum(x, y, kx, ky, EPS, variant)
    mu_all = reference_qr_solve(x, y, kx, ky, EPS, variant)
    assert np.max(np.abs(mu - mu_all[:len(mu)])) <= 1e-12 * mu_all[0]
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
@pytest.mark.parametrize("d", [1, 3])
def test_wide_gy_factor_matches_both_references(d, variant):
    # a laplace Gy keeps more columns than the gaussian Gx, r < r_y: the mu
    # come from the r x r B B^T, against the dense reference and against the
    # r_y x r_y B^T B of the Householder-QR reference
    x, y, x_new, kx = qr_reference_cell("gaussian")
    ky = KernelSpec("laplace", 0.5)
    r = _factor(*reflected_gram(kx, x), EPS)[0].shape[1]
    assert r < _factor(*reflected_gram(ky, y))[0].shape[1]
    fit = FIT[variant](x, y, kx, ky, EPS, d)
    assert_matches_reference(fit, x, y, d)
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
    # the constant vector went, leave n - 1 at the stop's floor (eps = 0)
    x, _, _, kx = qr_reference_cell(cell)
    n = len(x)
    assert dpstrf(centered_gram(kx, x), lower=1, tol=-1)[2] == n
    assert _factor(*reflected_gram(kx, x), 0.0)[0].shape[1] == n - 1


@pytest.mark.parametrize("seed", [0, 1])
def test_spectrum_has_no_rounding_level_tail(seed):
    # both laplace Grams keep all n columns when centered, and a solve on
    # those factors ended its spectrum in one value near 1e-17 mu_1; the
    # reflected factors have rank n - 1, the largest d a fit allows, and no
    # mu of a fit at that d is rounding
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((30, 3))
    y = np.column_stack([np.sin(x[:, 0]), x[:, 1]]) + 0.1 * rng.standard_normal((30, 2))
    kernel = KernelSpec("laplace", 0.5)
    for points in (x, y):
        assert dpstrf(centered_gram(kernel, points), lower=1, tol=-1)[2] == 30
    for variant in FIT:
        mu = fitted_spectrum(x, y, kernel, kernel, EPS, variant)
        assert len(mu) == 29 and np.all(mu > 1e-6 * mu[0])


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


def stop_tol(n, top, eps):
    return max(_STOP_TAU * eps, n * _ULP * top)


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
@pytest.mark.parametrize("family", ["gaussian", "laplace", "linear"])
def test_stop_leaves_residual_diagonal_at_most_tol(family, eps):
    # the residual R = H G H - F F^T of each Gram is positive semidefinite,
    # its diagonal is at most tol, and so is its norm over n: T moves by at
    # most _STOP_TAU eps.  No ridge sits on Gy: its tol is the floor
    x, y = make_data(200, 3)
    for points, ridge in ((x, eps), (y, 0.0)):
        spec = KernelSpec(family, median_bandwidth(points))
        g, top = reflected_gram(spec, points)
        dense = np.triu(g) + np.triu(g, 1).T      # reflected_gram writes g's upper triangle
        n, tol = len(points), stop_tol(len(points), top, ridge)
        f, piv = _factor(g, top, ridge)
        if family == "gaussian" and ridge:
            assert f.shape[1] < n - 1             # the stop cut columns
        resid = dense[np.ix_(piv, piv)] - f @ f.T
        slack = 8 * n * _ULP * top                # rounding of the dense check
        assert np.max(np.diagonal(resid)) <= tol + slack
        w = np.linalg.eigvalsh(resid)
        assert w[0] >= -slack and w[-1] / n <= tol + slack


def tau_bound(x, y, kx, ky, eps, d, variant):
    """(mu_ref, coef_ref, beta, bound): the exact stop's spectrum and top-d
    coefficients (the dense reference on the full Gx), the largest move of
    the mu that the stop can make, and of each predictor relative to its
    scale.

    With W = Gx / n and V = Gy / n the mu are the eigenvalues of
    V^1/2 X V^1/2, X = T^-1 W T^-1 = T^-1 - eps T^-2 (gsir1) or
    W T^-1 = I - eps T^-1 (gsir2).  The stop lowers W by at most tol and
    leaves V as it is (`test_stop_leaves_residual_diagonal_at_most_tol`), and
    T >= eps I, so |dT^-1| <= rho / eps with rho = tol / eps, and Weyl's
    inequality gives |d mu| <= |V| |dX| <= beta = 3 rho |V| / eps (gsir1) or
    rho |V| (gsir2): relative to |V|, so to the scale of the mu.  Davis-Kahan
    (Yu, Wang & Samworth 2015) moves the j-th eigenvector by at most
    2^1.5 beta / gap_j; the predictions are it mapped through T^-1 and Gx,
    which move by at most rho relative each, so to first order they move by
    at most bound_j of their scale."""
    n = len(x)
    mu_ref, coef_ref = reference_fit(x, y, kx, ky, eps, d, variant, exact=True)
    rho = stop_tol(n, reflected_gram(kx, x)[1], eps) / eps
    v = np.linalg.eigvalsh(dense_centered_gram(ky, y))[-1] / n
    beta = rho * v * (3 / eps if variant == "gsir1" else 1.0)
    gaps = np.minimum(mu_ref[:d] - mu_ref[1:d + 1],
                      np.concatenate([[np.inf], mu_ref[:d - 1] - mu_ref[1:d]]))
    return mu_ref, coef_ref, beta, 2 ** 1.5 * beta / gaps + 2 * rho / (1 - rho)


@pytest.mark.parametrize("variant", ["gsir1", "gsir2"])
def test_stop_moves_mu_and_predictions_within_the_tau_bound(variant):
    # against the exact stop, the dense reference on the full Gx
    x, y, x_new, kx, ky = m3_cell(300)
    eps, d = 1e-3, 2
    # the stop cuts Gx's factor, and Gy's stays at the floor
    assert (_factor(*reflected_gram(kx, x), eps)[0].shape[1] <
            _factor(*reflected_gram(kx, x))[0].shape[1])
    fit = FIT[variant](x, y, kx, ky, eps, d)
    mu = fitted_spectrum(x, y, kx, ky, eps, variant)
    mu_ref, coef_ref, beta, bound = tau_bound(x, y, kx, ky, eps, d, variant)
    r = len(mu)      # every mu beyond the rank r of the fit is 0
    assert np.max(np.abs(mu - mu_ref[:r])) <= beta and np.max(mu_ref[r:]) <= beta
    pred = evaluate_predictors(fit, x_new)
    pred_ref = evaluate_predictors(dataclasses.replace(fit, coefficients=coef_ref), x_new)
    for j in range(d):
        s = align_sign(pred[:, j], pred_ref[:, j])
        scale = np.max(np.abs(pred_ref[:, j]))
        assert np.max(np.abs(s * pred[:, j] - pred_ref[:, j])) <= bound[j] * scale


@pytest.mark.parametrize("fit_fn", [fit_gsir1, fit_gsir2])
@pytest.mark.parametrize("n", [300, 1000])
def test_permuted_rows_stay_within_the_tau_bound(n, fit_fn):
    # at _STOP_TAU eps the row order also picks the columns Gx's factor
    # keeps.  Each fit is within the tau bound of the exact stop, whose
    # predictions do not depend on the row order, so the two fits are within
    # twice that bound of each other, with the same signs
    x, y, x_new, kx, ky = m3_cell(n)
    perm = np.random.default_rng(13).permutation(n)
    fit = fit_fn(x, y, kx, ky, 1e-3, 2)
    pred = evaluate_predictors(fit, x_new)
    pred_p = evaluate_predictors(fit_fn(x[perm], y[perm], kx, ky, 1e-3, 2), x_new)
    _, coef_ref, _, bound = tau_bound(x, y, kx, ky, 1e-3, 2, fit.variant)
    pred_ref = evaluate_predictors(dataclasses.replace(fit, coefficients=coef_ref), x_new)
    scale = np.max(np.abs(pred_ref), axis=0)
    assert np.all(np.max(np.abs(pred_p - pred), axis=0) <= 2 * bound * scale)


@pytest.mark.parametrize("variant", ["gsir1", "gsir2"])
def test_linear_kernel_y_fit_does_not_depend_on_the_scale_of_y(variant):
    # no ridge sits on Gy, so its factor's stop scales with y: a linear
    # kernel_y on y * 1e-4, whose centered Gram is below _STOP_TAU * EPS,
    # keeps the same columns, and the fit the same predictors with every mu
    # scaled by 1e-8
    x, y = make_data(200, 3)
    kx, ky = KernelSpec("gaussian", 0.5), KernelSpec("linear")
    assert np.max(np.diagonal(centered_gram(ky, y * 1e-4))) < _STOP_TAU * EPS
    fit = FIT[variant](x, y, kx, ky, EPS, 2)
    fit_s = FIT[variant](x, y * 1e-4, kx, ky, EPS, 2)
    assert np.allclose(fit_s.eigenvalues, 1e-8 * fit.eigenvalues, rtol=1e-9, atol=0.0)
    pred, pred_s = evaluate_predictors(fit, x), evaluate_predictors(fit_s, x)
    scale = np.max(np.abs(pred), axis=0)
    assert np.all(np.max(np.abs(pred_s - pred), axis=0) <= 1e-9 * scale)


@pytest.mark.parametrize("variant", ["gsir1", "gsir2"])
def test_gap_warning_is_relative_to_mu_1(variant):
    # a linear kernel_y on y * 1e-6 scales every mu by 1e-12, and the gap
    # rule scales with them: each d warns on y * 1e-6 exactly when it warns
    # on y.  Gy has rank 3, so d = 4 meets the exact tie mu_4 = mu_5 = 0.
    x, y = make_data(200, 3)
    kx, ky = KernelSpec("gaussian", 0.5), KernelSpec("linear")
    for d in (2, 3, 4):
        fits = [FIT[variant](x, s * y, kx, ky, EPS, d) for s in (1.0, 1e-6)]
        assert [any("gap" in w for w in fit.warnings) for fit in fits] == [d == 4] * 2


def assert_bitwise_equal(fit, plain):
    assert (fit.variant, fit.d, fit.warnings) == (plain.variant, plain.d, plain.warnings)
    for name in ("coefficients", "eigenvalues"):
        a, b = getattr(fit, name), getattr(plain, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("family", ["gaussian", "laplace", "linear"])
def test_shared_factorization_is_bitwise_two_independent_fits(family, q):
    # gsir1, gsir2, then gsir1 again on one factorization: gsir1 must leave
    # the shared B2 as it found it
    x, y = make_data(200, q)
    kernel = KernelSpec(family, 0.5)
    shared = factorize(x, y, kernel, kernel, EPS, q)
    for variant in ("gsir1", "gsir2", "gsir1"):
        assert_bitwise_equal(solve(shared, variant, q),
                             FIT[variant](x, y, kernel, kernel, EPS, q))


@pytest.mark.parametrize("variant", ["gsir1", "gsir2"])
def test_shared_factorization_completes_beyond_the_positive_spectrum(variant):
    # Gy of a linear kernel on a 1-d response has rank 1: d = 3 takes the
    # orthonormal completion and warns on the gap, the same as a plain fit
    x, y = make_data(200, 1)
    kx, ky = KernelSpec("gaussian", 0.5), KernelSpec("linear")
    fit = solve(factorize(x, y, kx, ky, EPS, 3), variant, 3)
    assert np.all(fit.eigenvalues[1:] == 0.0) and any("gap" in w for w in fit.warnings)
    assert_bitwise_equal(fit, FIT[variant](x, y, kx, ky, EPS, 3))


def test_shared_factorization_refuses_d_beyond_the_rank(monkeypatch):
    # Gx of a linear kernel on two columns has rank 2: the factorization
    # refuses d = 3 before the QR, and solve refuses d = 3 on one built for 2
    heights = []

    def spy(l, nb, a, b, **kwargs):
        heights.append(b.shape[0])
        return dtpqrt(l, nb, a, b, **kwargs)

    monkeypatch.setattr(gsir.estimator, "dtpqrt", spy)
    x, y = make_data(60, 1)
    linear, gauss = KernelSpec("linear"), KernelSpec("gaussian", 0.5)
    refusal = "^d=3 exceeds the numerical rank 2 of the centered Gram matrix"
    with pytest.raises(NumericalError, match=refusal):
        factorize(x[:, :2], y, linear, gauss, EPS, 3)
    assert heights == []
    shared = factorize(x[:, :2], y, linear, gauss, EPS, 2)
    for variant in FIT:
        with pytest.raises(NumericalError, match=refusal):
            solve(shared, variant, 3)
        assert solve(shared, variant, 2).d == 2
    assert len(heights) == 1


def test_factorization_keeps_its_own_points():
    # x edited in place after factorize: solve still fits the points it was
    # factorized from, byte for byte as a plain fit of them
    x, y = make_data(50, 1)
    kernel = KernelSpec("gaussian", 0.5)
    shared = factorize(x, y, kernel, kernel, EPS, 1)
    plain = fit_gsir1(x, y, kernel, kernel, EPS, 1)
    x[0, 0] += 1.0
    fit = solve(shared, "gsir1", 1)
    assert_bitwise_equal(fit, plain)
    assert fit.train_points.tobytes() == plain.train_points.tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(12, 60), j_dim=st.integers(1, 60), y_dim=st.integers(1, 3),
       alpha=st.floats(1.1, 6.0), beta=st.floats(0.2, 2.0),
       s_kind=st.sampled_from(S_KINDS), residual_kind=st.sampled_from(RESIDUAL_KINDS),
       eps=st.floats(1e-5, 1e-1), seed=st.integers(0, 2 ** 32 - 1))
def test_linear_kernel_fit_is_the_sequence_space_oracle(n, j_dim, y_dim, alpha, beta,
                                                        s_kind, residual_kind, eps, seed):
    # With linear kernels on a draw's coordinates (x = Zx, y = Zy), Gx / n has
    # the eigenvalues of Sxx, so the fit's mu are the squared singular values
    # of the oracle's r1 (gsir1) or r2 (gsir2), and its predictors are linear,
    # a = Zc^T c (Zc the centred Zx): gsir1's lie along r1's top left singular
    # vectors, and gsir2's span (Sxx + eps I)^-1/2 of r2's, so proj_err and
    # eta_span_err are the oracle's.  They agree at rounding where the factor
    # keeps the rank of Zc, min(J, n - 1), and within `tau_bound` of the exact
    # stop where the stop cuts it
    model = build_model(j_dim, y_dim, alpha, beta, seed, s_kind)
    sample = simulate_sample(model, n, seed, residual_kind)
    x, y = sample.Zx, sample.Zy
    ops = estimate_regression_ops(sample, eps)
    report = error_report(model, ops)
    d, _, vecs = model.m_spectrum
    linear = KernelSpec("linear")
    fz = factorize(x, y, linear, linear, eps, d)
    exact = len(fz.lx) == min(j_dim, n - 1)
    # relative rounding, which grows with the condition of T = Gx / n + eps I
    rounding = 1e-12 * (1.0 + np.max(ops.w) / eps)
    zc = x - x.mean(axis=0)
    for variant, op in (("gsir1", ops.r1), ("gsir2", ops.r2)):
        mu = fitted_spectrum(x, y, linear, linear, eps, variant)
        sv = np.linalg.svd(op, compute_uv=False) ** 2
        ref, fitted = (np.zeros(max(len(mu), len(sv), d + 1)) for _ in range(2))
        ref[:len(sv)], fitted[:len(mu)] = sv, mu
        gaps = np.minimum(ref[:d] - ref[1:d + 1],
                          np.concatenate([[np.inf], ref[:d - 1] - ref[1:d]]))
        beta_mu, bound = ((0.0, 0.0) if exact else
                          tau_bound(x, y, linear, linear, eps, d, variant)[2:])
        assert np.max(np.abs(fitted - ref)) <= beta_mu + rounding * ref[0]
        # how far each predictor's direction may turn (Davis-Kahan); sines are
        # compared squared, as sqrt(1 - cos^2) loses half the digits near 0
        turn = bound + rounding * ref[0] / gaps
        a = zc.T @ solve(fz, variant, d).coefficients
        if variant == "gsir1":
            cos = np.abs(np.sum(a * vecs, axis=0)) / np.linalg.norm(a, axis=0)
            sin2 = np.maximum(0.0, 1.0 - cos * cos)
            assert np.all(np.abs(sin2 - report.proj_err ** 2) <= 2 * turn)
        else:
            sin2 = span_projection_error(a, vecs, d) ** 2
            assert abs(sin2 - report.eta_span_err ** 2) <= 2 * np.max(turn)


def test_linear_kernel_fit_is_the_oracle_on_criterion_2s_draws():
    # One replication per n of acceptance criterion 2's protocol (J = 200,
    # alpha = 2, beta = 1, identity S, eps = n^(-2/7)): the fit's gsir1
    # predictors have the oracle's proj_err, so the rate criterion 2 checks
    # holds for `factorize` and `solve` too.  The factor keeps r = J at every
    # n, so the tolerance is the rounding one of the test above
    model = build_model(200, 2, alpha=2.0, beta=1.0, s_kind="identity", seed=0)
    d, _, vecs = model.m_spectrum
    linear = KernelSpec("linear")
    for n in RATE_N_GRID:
        eps = float(n) ** (-RATE_DELTA)
        sample = simulate_sample(model, n, derive_seed(RATE_SEED, n, 0))
        ops = estimate_regression_ops(sample, eps)
        fz = factorize(sample.Zx, sample.Zy, linear, linear, eps, d)
        assert len(fz.lx) == 200
        a = (sample.Zx - sample.Zx.mean(axis=0)).T @ solve(fz, "gsir1", d).coefficients
        sin2 = 1.0 - (np.sum(a * vecs, axis=0) / np.linalg.norm(a, axis=0)) ** 2
        ref = np.zeros(d + 1)
        sv = np.linalg.svd(ops.r1, compute_uv=False)[:d + 1] ** 2
        ref[:len(sv)] = sv
        gaps = np.minimum(ref[:d] - ref[1:], np.concatenate([[np.inf], ref[:d - 1] - ref[1:d]]))
        turn = 1e-12 * (1.0 + np.max(ops.w) / eps) * ref[0] / gaps
        assert np.all(np.abs(sin2 - error_report(model, ops).proj_err ** 2) <= 2 * turn)
