import contextlib
import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsir.estimator
from gsir.datasets import SyntheticModel, generate
from gsir.estimator import _BLOCK, evaluate_predictors, fit_gsir1, fit_gsir2
from gsir.experiments import DENSE_FIT_ARRAYS, parse_config, run_kernel_recovery
from gsir.kernels import (FAMILIES, KernelSpec, centered_gram, gram_matrix,
                          median_bandwidth)
from gsir.linalg import inv_shift, inv_sqrt_shift, spectral_apply, sqrt
from gsir.seqsim import span_projection_error
from reference_solve import align_sign, eval_kernel, fitted_spectrum, stopped_gram

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
    # on the Gx the fit's factor represents, stopped at its tol
    x, y = make_data(seed, 40)
    eps = 0.05
    fit = fit_gsir1(x, y, GAUSS, GAUSS, eps, 2)
    n = 40
    gx = stopped_gram(GAUSS, x, eps)
    gy = centered_gram(GAUSS, y)
    b = np.linalg.inv(gx / n + eps * np.eye(n))
    a = b @ gy @ gx @ b / (n * n)
    for j in range(2):
        c = fit.coefficients[:, j]
        quad = float(c @ gx @ a @ c)
        assert abs(quad - fit.eigenvalues[j]) < 1e-8 * max(fit.eigenvalues[j], 1e-12)


@contextlib.contextmanager
def floor_stop():
    """Both fits of a permutation test share the stop's floor n ulp max K_ii:
    at _STOP_TAU eps the row order also picks the columns Gx's factor keeps,
    which `test_solve_oracle` bounds against the exact stop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gsir.estimator, "_STOP_TAU", 0.0)
        yield


@floor_stop()
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
    # Two full blocks and a 37-row tail, which is not a multiple of 8, for
    # every kernel family: the blocks reuse one buffer, and OpenBLAS gives
    # their rows the bits of one whole-array product when the block's row
    # count is a multiple of 8.
    assert _BLOCK % 8 == 0
    x, y = make_data(17, 40, p=4)
    x_new = np.random.default_rng(18).standard_normal((2 * _BLOCK + 37, 4))
    for family in FAMILIES:
        spec = KernelSpec(family, 0.5)
        fit = fit_gsir1(x, y, spec, GAUSS, 0.05, d)
        k = gram_matrix(spec, x_new, x)
        one_shot = k @ (fit.coefficients - fit.coefficients.mean(axis=0))
        assert np.array_equal(evaluate_predictors(fit, x_new), one_shot), family


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(12, 40),
       d=st.integers(1, 2), fit_fn=st.sampled_from([fit_gsir1, fit_gsir2]),
       data=st.data())
@floor_stop()
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
    mu = fitted_spectrum(x, y, GAUSS, GAUSS, 0.05, fit.variant)
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
    # The benchmark's fit settings.  Centering works in K's memory.  The
    # reflected Gx keeps r = 499 of n = 600 columns at eps = 1e-3; its buffer
    # shrinks in place to the n x r factor before the QR copies Lx's triangle
    # and the n - r rows below it, so the fit's peak is that moment: the
    # factor and its two copies, 2 n r doubles, beside Gy's n x r_y factor,
    # r_y = 34: 1.72 n^2.
    n = 600
    x, y, _ = generate(SyntheticModel("m3_symmetric", 5, 0.2), n, 0)
    kx = KernelSpec("gaussian", median_bandwidth(x))
    ky = KernelSpec("gaussian", median_bandwidth(y))
    n2 = 8 * n * n
    assert traced_peak(lambda: centered_gram(kx, x)) <= 1.3 * n2
    assert traced_peak(lambda: fit_gsir1(x, y, kx, ky, 1e-3, 1)) <= 1.8 * n2
    # At eps = 1e-12 the stop's floor rules and Gx keeps r = n - 1 columns:
    # the factorization's r x r Lx and L while `solve` runs its
    # eigenproblem, 2.18 n^2.
    assert traced_peak(lambda: fit_gsir1(x, y, kx, ky, 1e-12, 1)) <= 2.4 * n2
    # On x[:, :3] the factor has r = 171 < n / 2 columns, so the peak is Gx
    # itself while it is factored, beside Gy's factor: 1.06 n^2.  Its finite
    # check reads Gx's max and min, so no n x n mask sits beside it.
    x3 = x[:, :3]
    kx3 = KernelSpec("gaussian", median_bandwidth(x3))
    assert traced_peak(lambda: fit_gsir1(x3, y, kx3, ky, 1e-3, 1)) <= 1.1 * n2
    # A laplace kernel on y keeps r_y = n - 1 > r, so the eigenproblem is the
    # r x r B B^T; the peak is Gy's n x r_y factor, in x's row order, and the
    # copies of its two row blocks that G = Qx^T F is formed from: 2.35 n^2
    # (4.69 n^2 when B^T B was solved)
    ly = KernelSpec("laplace", median_bandwidth(y))
    assert traced_peak(lambda: fit_gsir1(x3, y, kx3, ly, 1e-3, 1)) <= 2.5 * n2


@pytest.mark.parametrize("fit_fn", [fit_gsir1, fit_gsir2])
def test_fit_under_a_line_tracer_is_bitwise_the_untraced_fit(fit_fn):
    # A tracer (coverage, a debugger) holds the frame's locals, so an extra
    # reference to Gx's buffer is alive when `factorize` shrinks it in place
    x, y = make_data(21, 60, p=3)
    fit = fit_fn(x, y, GAUSS, GAUSS, 1e-3, 2)

    def tracer(frame, event, arg):
        return tracer

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        traced = fit_fn(x, y, GAUSS, GAUSS, 1e-3, 2)
    finally:
        sys.settrace(outer)
    assert np.array_equal(traced.coefficients, fit.coefficients)
    assert np.array_equal(traced.eigenvalues, fit.eigenvalues)


def test_recovery_replication_peak_is_within_the_memory_check():
    # r and r_y both near n (laplace kernel_y, eps = 1e-12) is the worst
    # case: one replication's two fits on a shared factorization, or one
    # plain gsir1 fit, peak at 7.2 n^2 here, 7.07 n^2 at n = 600
    n = 200
    config = parse_config({
        "schema_version": 1, "mode": "kernel_recovery", "base_seed": 5, "n_grid": [n],
        "replications": 1, "dataset": {"model": "m3_symmetric", "p": 5, "sigma_noise": 0.2},
        "kernel_y": {"family": "laplace", "gamma": "median"}, "epsilon": 1e-12,
        "d": 1, "n_test": 50}, "kernel-recovery")
    run_kernel_recovery(config)      # loads what the first run imports
    assert traced_peak(lambda: run_kernel_recovery(config)) <= DENSE_FIT_ARRAYS * 8 * n * n
    x, y, _ = generate(config.dataset, n, 0)
    kx = KernelSpec("gaussian", median_bandwidth(x))
    ly = KernelSpec("laplace", median_bandwidth(y))
    assert traced_peak(lambda: fit_gsir1(x, y, kx, ly, 1e-12, 1)) <= DENSE_FIT_ARRAYS * 8 * n * n
