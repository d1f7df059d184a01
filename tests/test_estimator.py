import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsir.datasets import SyntheticModel, generate
from gsir.estimator import (_BLOCK, evaluate_predictors, fit_gsir1, fit_gsir2,
                            gsir_spectrum)
from gsir.kernels import KernelSpec, centered_gram, gram_matrix, median_bandwidth
from gsir.linalg import inv_shift, inv_sqrt_shift, spectral_apply, sqrt
from gsir.seqsim import span_projection_error
from reference_solve import align_sign, eval_kernel

GAUSS = KernelSpec("gaussian", 0.5)
LINEAR = KernelSpec("linear")

X4 = np.array([[-1.5], [-0.5], [0.5], [1.5]])


def make_data(seed, n, p=2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = np.sin(x[:, :1]) + 0.1 * rng.standard_normal((n, 1))
    return x, y


@pytest.mark.parametrize("fit_fn", [fit_gsir1, fit_gsir2])
def test_constant_response_gives_zero_eigenvalues(fit_fn):
    x, _ = make_data(0, 20)
    y = np.ones((20, 1))
    fit = fit_fn(x, y, GAUSS, GAUSS, 0.1, 1)
    assert np.max(np.abs(fit.eigenvalues)) < 1e-12
    # all directions tie at zero, so the gap warning must fire
    assert any("gap" in w for w in fit.warnings)


def test_linear_rank_one_dependence():
    fit = fit_gsir1(X4, X4, LINEAR, LINEAR, 0.01, 1)
    assert fit.eigenvalues[0] > 0
    mu = gsir_spectrum(X4, X4, LINEAR, LINEAR, 0.01)
    assert mu[1] <= 1e-10


def test_linear_rank_one_refuses_d2():
    with pytest.raises(ValueError, match="achievable d is 1"):
        fit_gsir1(X4, X4, LINEAR, LINEAR, 0.01, 2)


@pytest.mark.parametrize("fit_fn", [fit_gsir1, fit_gsir2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gsir1_normalization_constraint(fit_fn, seed):
    # first predictor always satisfies c_1^T Gx c_1 = 1
    x, y = make_data(seed, 30)
    fit = fit_fn(x, y, GAUSS, GAUSS, 0.05, 1)
    gx = centered_gram(GAUSS, x)
    c = fit.coefficients[:, 0]
    if fit.variant == "gsir2":
        # stored coefficients carry the extra half-inverse; undo it
        n = x.shape[0]
        t = spectral_apply(gx / n + fit.epsilon * np.eye(n), sqrt())
        c = t @ c
    assert abs(c @ gx @ c - 1.0) < 1e-6


@pytest.mark.parametrize("seed", [3, 4])
def test_gsir1_full_normalization(seed):
    x, y = make_data(seed, 25)
    fit = fit_gsir1(x, y, GAUSS, GAUSS, 0.05, 2)
    gx = centered_gram(GAUSS, x)
    gram = fit.coefficients.T @ gx @ fit.coefficients
    assert np.max(np.abs(gram - np.eye(2))) < 1e-6


def test_gsir2_agrees_with_gsir1_on_rank_one():
    f1 = fit_gsir1(X4, X4, LINEAR, LINEAR, 0.01, 1)
    f2 = fit_gsir2(X4, X4, LINEAR, LINEAR, 0.01, 1)
    e1 = evaluate_predictors(f1, X4).ravel()
    e2 = evaluate_predictors(f2, X4).ravel()
    corr = np.corrcoef(e1, e2)[0, 1]
    assert abs(corr) >= 0.999


def test_smaller_epsilon_dominates_eigenvalues():
    x, y = make_data(5, 30)
    lo = fit_gsir1(x, y, GAUSS, GAUSS, 0.01, 3)
    hi = fit_gsir1(x, y, GAUSS, GAUSS, 0.1, 3)
    assert np.all(lo.eigenvalues >= hi.eigenvalues)


@pytest.mark.parametrize("bad", [dict(epsilon=0.0), dict(epsilon=-1.0),
                                 dict(d=0), dict(d=30)])
def test_fit_rejects_bad_scalars(bad):
    x, y = make_data(6, 30)
    kwargs = dict(epsilon=0.1, d=1)
    kwargs.update(bad)
    with pytest.raises(ValueError):
        fit_gsir1(x, y, GAUSS, GAUSS, kwargs["epsilon"], kwargs["d"])


def test_fit_rejects_mismatched_samples():
    x, y = make_data(7, 30)
    with pytest.raises(ValueError, match="different sample sizes"):
        fit_gsir1(x, y[:-1], GAUSS, GAUSS, 0.1, 1)


def test_fit_rejects_tiny_sample():
    with pytest.raises(ValueError, match="at least 3"):
        fit_gsir1(np.zeros((2, 1)), np.zeros((2, 1)), GAUSS, GAUSS, 0.1, 1)


def test_evaluate_zero_coefficients():
    x, y = make_data(8, 15)
    fit = fit_gsir1(x, y, GAUSS, GAUSS, 0.1, 1)
    zeroed = dataclasses.replace(fit, coefficients=np.zeros_like(fit.coefficients))
    assert np.all(evaluate_predictors(zeroed, x) == 0.0)


def test_evaluate_at_train_is_centered_gram_product():
    x, y = make_data(9, 15)
    fit = fit_gsir1(x, y, GAUSS, GAUSS, 0.1, 2)
    k = gram_matrix(GAUSS, x)
    q = np.eye(15) - np.full((15, 15), 1.0 / 15)
    assert np.max(np.abs(evaluate_predictors(fit, x) - k @ q @ fit.coefficients)) < 1e-12


def test_evaluate_matches_scalar_expansion():
    x = np.array([[0.0], [1.0], [2.5]])
    y = np.array([[0.1], [0.9], [2.2]])
    fit = fit_gsir1(x, y, GAUSS, GAUSS, 0.1, 1)
    x_star = np.array([[1.7]])
    kvals = np.array([eval_kernel(GAUSS, x_star[0], xi) for xi in x])
    by_hand = float(np.sum(fit.coefficients[:, 0] * (kvals - kvals.mean())))
    assert abs(evaluate_predictors(fit, x_star)[0, 0] - by_hand) < 1e-12


def test_evaluate_rejects_wrong_dimension():
    x, y = make_data(10, 12)
    fit = fit_gsir1(x, y, GAUSS, GAUSS, 0.1, 1)
    with pytest.raises(ValueError, match="dimension"):
        evaluate_predictors(fit, np.zeros((4, 5)))


def test_align_sign_cases():
    v = np.array([1.0, -2.0, 0.5])
    assert align_sign(v, v) == 1.0
    assert align_sign(v, -v) == -1.0
    assert align_sign([1.0, 0.0], [-1.0, 10.0]) == -1.0
    assert align_sign([1.0, 0.0], [0.0, 1.0]) == 1.0


def test_align_sign_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        align_sign([0.0, 0.0], [1.0, 0.0])


@pytest.mark.parametrize("n", [50, 200])
def test_objective_matrices_are_psd(n):
    # brute-force build of both symmetrized objective matrices
    x, y = make_data(11, n)
    gx = centered_gram(GAUSS, x)
    gy = centered_gram(GAUSS, y)
    eps = 0.05
    b = spectral_apply(gx / n, inv_shift(eps))
    w = spectral_apply(gx, sqrt())
    for half in (b, spectral_apply(gx / n, inv_sqrt_shift(eps))):
        s = half @ w @ gy @ w @ half / (n * n)
        s = (s + s.T) / 2.0
        eig = np.linalg.eigvalsh(s)
        assert eig.min() >= -1e-9 * max(eig.max(), 1e-30)


@pytest.mark.parametrize("seed", [12, 13])
def test_gsir1_objective_value_matches_eigenvalue(seed):
    x, y = make_data(seed, 40)
    eps = 0.05
    fit = fit_gsir1(x, y, GAUSS, GAUSS, eps, 2)
    n = 40
    gx = centered_gram(GAUSS, x)
    gy = centered_gram(GAUSS, y)
    b = np.linalg.inv(gx / n + eps * np.eye(n))
    a = b @ gy @ gx @ b / (n * n)
    for j in range(2):
        c = fit.coefficients[:, j]
        quad = float(c @ gx @ a @ c)
        assert abs(quad - fit.eigenvalues[j]) < 1e-8 * max(fit.eigenvalues[j], 1e-12)


def test_permutation_equivariance():
    x, y = make_data(14, 25)
    rng = np.random.default_rng(15)
    perm = rng.permutation(25)
    fit = fit_gsir1(x, y, GAUSS, GAUSS, 0.05, 2)
    fit_p = fit_gsir1(x[perm], y[perm], GAUSS, GAUSS, 0.05, 2)
    assert np.allclose(fit.eigenvalues, fit_p.eigenvalues, rtol=1e-9, atol=1e-9)
    ev = evaluate_predictors(fit, x)[perm]
    ev_p = evaluate_predictors(fit_p, x[perm])
    for j in range(2):
        s = align_sign(ev_p[:, j], ev[:, j])
        assert np.max(np.abs(s * ev_p[:, j] - ev[:, j])) < 1e-7


@pytest.mark.parametrize("fit_fn", [fit_gsir1, fit_gsir2])
def test_spans_converge_as_epsilon_shrinks(fit_fn):
    # p > n keeps the centered Gram at full numerical rank, so the
    # regularized solution path has a stable small-epsilon limit
    rng = np.random.default_rng(16)
    x = rng.standard_normal((30, 40))
    y = np.column_stack([np.tanh(x[:, 0]) + 0.4 * x[:, 2], x[:, 1]])
    y = y + 0.05 * rng.standard_normal((30, 2))
    ref = evaluate_predictors(fit_fn(x, y, LINEAR, GAUSS, 1e-10, 2), x)
    angles = []
    for eps in (1e-2, 1e-4, 1e-6):
        fit = fit_fn(x, y, LINEAR, GAUSS, eps, 2)
        angles.append(span_projection_error(evaluate_predictors(fit, x), ref, 2))
    assert angles[1] <= angles[0] + 1e-12
    assert angles[2] <= angles[1] + 1e-12
    assert angles[2] < 1e-3


def test_variant_spans_agree_for_low_rank_response():
    # with a d-column response under a linear kernel the cross operator has
    # rank d, and the two variants pick out the same span at every epsilon
    rng = np.random.default_rng(16)
    x = rng.standard_normal((30, 40))
    y = np.column_stack([x[:, 0] + 0.3 * x[:, 2], x[:, 1] - 0.2 * x[:, 3]])
    y = y + 0.05 * rng.standard_normal((30, 2))
    for eps in (1e-2, 1e-4, 1e-6):
        f1 = fit_gsir1(x, y, LINEAR, LINEAR, eps, 2)
        f2 = fit_gsir2(x, y, LINEAR, LINEAR, eps, 2)
        e1 = evaluate_predictors(f1, x)
        e2 = evaluate_predictors(f2, x)
        assert span_projection_error(e1, e2, 2) < 1e-6


@pytest.mark.parametrize("d", [1, 3])
def test_blocked_evaluation_is_bitwise_one_shot(d):
    x, y = make_data(17, 40)
    fit = fit_gsir1(x, y, GAUSS, GAUSS, 0.05, d)
    x_new = np.random.default_rng(18).standard_normal((_BLOCK + 37, 2))
    k = gram_matrix(GAUSS, x_new, x)
    one_shot = k @ (fit.coefficients - fit.coefficients.mean(axis=0))
    assert np.array_equal(evaluate_predictors(fit, x_new), one_shot)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(12, 40),
       d=st.integers(1, 2), fit_fn=st.sampled_from([fit_gsir1, fit_gsir2]),
       data=st.data())
def test_permuted_rows_give_identical_predictions(seed, n, d, fit_fn, data):
    # each predictor's largest-magnitude value at the training points is
    # positive, so predictions need no sign alignment
    x, y = make_data(seed, n)
    perm = np.array(data.draw(st.permutations(range(n))))
    fit = fit_fn(x, y, GAUSS, GAUSS, 0.05, d)
    fit_p = fit_fn(x[perm], y[perm], GAUSS, GAUSS, 0.05, d)
    x_new = make_data(seed + 1, 15)[0]
    pred = evaluate_predictors(fit, x_new)
    assert np.max(np.abs(evaluate_predictors(fit_p, x_new) - pred)) <= \
        1e-8 * np.max(np.abs(pred))
    mu = gsir_spectrum(x, y, GAUSS, GAUSS, 0.05, fit.variant)
    assert np.array_equal(mu[:d], fit.eigenvalues)


def traced_peak(call):
    """Peak bytes numpy and Python allocate during call(), from tracemalloc,
    which counts every array allocation and so, unlike RSS, is exact."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_fit_peak_memory():
    # The benchmark's fit settings.  Centering works in K's memory beside one
    # block of rows.  The reflected Gx keeps r = n - 1 columns at this n; the
    # QR packs Lx into Gx's buffer, with no r x r copy, so the fit's peak is
    # that buffer beside S (r x r) and three r x r_y blocks (G, its Fortran
    # copy for BLAS and Lx^T G / n), r_y = 33: 2.18 n^2.
    n = 600
    x, y, _ = generate(SyntheticModel("m3_symmetric", 5, 0.2), n, 0)
    kx = KernelSpec("gaussian", median_bandwidth(x))
    ky = KernelSpec("gaussian", median_bandwidth(y))
    n2 = 8 * n * n
    assert traced_peak(lambda: centered_gram(kx, x)) <= 1.3 * n2
    assert traced_peak(lambda: fit_gsir1(x, y, kx, ky, 1e-3, 1)) <= 2.4 * n2
    # On x[:, :3] the factor has r = 376 <= 0.9 n columns, so after the QR Lx
    # moves out of Gx's buffer.  The peak is that moment: the buffer, the
    # r x r copy and the QR's reflectors for the n - r rows below Lx: 1.72 n^2.
    x3 = x[:, :3]
    kx3 = KernelSpec("gaussian", median_bandwidth(x3))
    assert traced_peak(lambda: fit_gsir1(x3, y, kx3, ky, 1e-3, 1)) <= 1.8 * n2
    # A laplace kernel on y keeps r_y = n - 1, and Gy's eigensolve takes about
    # 3 r_y^2 beside Lx; with Gx's buffer freed that is 4.69 n^2 (5.30 with it)
    ly = KernelSpec("laplace", median_bandwidth(y))
    assert traced_peak(lambda: fit_gsir1(x3, y, kx3, ly, 1e-3, 1)) <= 4.8 * n2
