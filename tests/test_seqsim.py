import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from gsir.linalg import operator_norm, spectral_apply
from gsir.rates import fit_loglog_slope
from gsir.seqsim import (RegressionOps, SpectralModel, SpectralSample,
                         build_model, empirical_operators, error_report,
                         estimate_regression_ops, hurwitz_zeta, lemma_alpha_sum,
                         power_spectrum, simulate_sample, truncation_tail_fraction)
from reference_oracle import (inv_sqrt_shift, reference_error_report,
                              reference_regression_ops, span_projection_error,
                              top_eigenvectors)

REL = 1e-12

# Allowed deviation of the rank-of-R oracle from the dense reference, for
# epsilon >= 1e-4: relative for operators and operator norms, absolute for
# the squared sines of the projection errors.  The largest deviations seen
# over 400 random cases were 6e-13 (r1), 1.1e-11 (err_m, against its own
# size, where the dense reference cancels) and 4e-12 (a projection error).
ORACLE_TOL = 1e-9


def _assert_oracle_close(model, ops, ref):
    # m, m' and q are formed here from what RegressionOps stores
    estimates = {"sxx": ops.sxx, "sxy": ops.sxy, "r1": ops.r1, "r2": ops.r2,
                 "m": ops.r1 @ ops.r1.T, "m_prime": ops.r2 @ ops.r2.T,
                 "q": (ops.v * inv_sqrt_shift(ops.epsilon)(ops.w)) @ ops.v.T}
    for name, new in estimates.items():
        old = getattr(ref, name)
        assert np.max(np.abs(new - old)) <= ORACLE_TOL * np.max(np.abs(old)), name
    rec, want = error_report(model, ops), reference_error_report(model, ref)
    for name in ("err_r1", "err_r2"):
        assert abs(getattr(rec, name) - getattr(want, name)) <= \
            ORACLE_TOL * getattr(want, name), name
    # err_m against the scale of m: the dense reference cancels digits there
    scale = want.err_m + operator_norm(model.R) ** 2
    assert abs(rec.err_m - want.err_m) <= ORACLE_TOL * scale
    assert rec.d == want.d
    assert np.allclose(rec.gap, want.gap, rtol=ORACLE_TOL, atol=0.0)
    assert np.all(np.abs(rec.proj_err ** 2 - want.proj_err ** 2) <= ORACLE_TOL)
    assert abs(rec.eta_span_err ** 2 - want.eta_span_err ** 2) <= ORACLE_TOL
    assert np.array_equal(rec.bound_applicable, want.bound_applicable)
    assert np.array_equal(rec.bound_ok, want.bound_ok)


def test_power_spectrum_values():
    assert np.allclose(power_spectrum(2.0, 3), [1.0, 0.25, 1.0 / 9.0], rtol=0, atol=0)


def test_build_model_identity_r():
    model = build_model(2, 2, alpha=2.0, beta=1.0)
    assert np.allclose(model.R, np.diag([1.0, 0.25]), rtol=0, atol=0)


def test_build_model_rprime_is_extra_half_power():
    model = build_model(2, 2, alpha=2.0, beta=0.5)
    assert np.allclose(model.Rprime, np.diag([1.0, 0.25]), rtol=0, atol=0)


def test_build_model_chained_construction_is_exact():
    model = build_model(7, 3, alpha=1.7, beta=0.9, seed=3, s_kind="random")
    assert np.array_equal(model.R, (model.lambdas ** 0.9)[:, None] * model.S)
    assert np.array_equal(model.Rprime, np.sqrt(model.lambdas)[:, None] * model.R)


def test_build_model_spectrum_shape():
    model = build_model(50, 2, alpha=1.5, beta=1.0)
    lam = model.lambdas
    assert lam[0] == 1.0
    assert np.all(lam > 0)
    assert np.all(np.diff(lam) < 0)


def test_build_model_random_s_norm():
    model = build_model(20, 4, alpha=2.0, beta=1.0, seed=9, s_kind="random")
    assert operator_norm(model.S) <= 1.0 + 1e-12


@pytest.mark.parametrize("kwargs", [dict(alpha=1.0), dict(alpha=0.5),
                                    dict(beta=0.0), dict(beta=-1.0)])
def test_build_model_rejects_bad_exponents(kwargs):
    base = dict(alpha=2.0, beta=1.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        build_model(5, 2, base["alpha"], base["beta"])


def test_simulate_sample_deterministic():
    model = build_model(10, 2, alpha=2.0, beta=1.0)
    a = simulate_sample(model, 50, seed=42)
    b = simulate_sample(model, 50, seed=42)
    assert np.array_equal(a.Zx, b.Zx)
    assert np.array_equal(a.Zu, b.Zu)
    assert np.array_equal(a.Zy, b.Zy)


def test_simulate_sample_linear_identity_exact():
    model = build_model(10, 2, alpha=2.0, beta=1.0)
    s = simulate_sample(model, 100, seed=1)
    # same association order as the draw, so equality is bitwise
    assert np.array_equal(s.Zy, s.Zx @ model.R + s.Zu)


def test_simulate_sample_coordinates_bounded():
    model = build_model(10, 2, alpha=2.0, beta=1.0)
    s = simulate_sample(model, 500, seed=2)
    bound = np.sqrt(3.0 * model.lambdas)
    assert np.all(np.abs(s.Zx) <= bound + 1e-15)


def test_simulate_sample_rejects_tiny_n():
    model = build_model(5, 2, alpha=2.0, beta=1.0)
    with pytest.raises(ValueError, match="n >= 2"):
        simulate_sample(model, 1, seed=0)


def test_simulate_sample_column_variances():
    model = build_model(20, 2, alpha=2.0, beta=1.0)
    n = 50000
    s = simulate_sample(model, n, seed=3)
    # var(zeta_j^2) = 0.8 lambda_j^2 for the scaled uniform scores
    se = model.lambdas * np.sqrt(0.8 / n)
    var = s.Zx.var(axis=0)
    assert np.all(np.abs(var - model.lambdas) <= 5.0 * se)


def test_simulate_sample_residual_decorrelated():
    model = build_model(5, 3, alpha=2.0, beta=1.0)
    n = 20000
    s = simulate_sample(model, n, seed=4)
    for k in range(3):
        for j in range(5):
            corr = np.corrcoef(s.Zu[:, k], s.Zx[:, j])[0, 1]
            assert abs(corr) < 5.0 / np.sqrt(n)


@pytest.mark.parametrize("kind", ["independent", "heteroscedastic"])
def test_residual_rows_bounded(kind):
    model = build_model(10, 4, alpha=2.0, beta=1.0)
    assert np.array_equal(model.noise_scales, np.arange(1.0, 5.0) ** -2.0)
    s = simulate_sample(model, 2000, seed=5, residual_kind=kind)
    # |w| <= sqrt(3), heteroscedastic factor <= (1 + sqrt(3))/2
    factor = (1.0 + np.sqrt(3.0)) / 2.0 if kind == "heteroscedastic" else 1.0
    cap = np.sqrt(3.0) * factor * float(np.sum(model.noise_scales))
    assert np.max(np.linalg.norm(s.Zu, axis=1)) <= cap + 1e-12


def test_zero_residual_reduces_to_exact_regression():
    model = build_model(6, 2, alpha=2.0, beta=1.0)
    base = simulate_sample(model, 200, seed=6)
    zeroed = SpectralSample(n=base.n, Zx=base.Zx, Zu=np.zeros_like(base.Zu),
                            Zy=base.Zx @ model.R)
    ops = empirical_operators(zeroed)
    assert np.max(np.abs(ops.sxu)) == 0.0
    gap = operator_norm(ops.sxy - ops.sxx @ model.R)
    assert gap <= REL * operator_norm(ops.sxy)


@pytest.mark.parametrize("kind", ["independent", "heteroscedastic"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_residual_identity(kind, seed):
    model = build_model(30, 3, alpha=2.0, beta=1.0, seed=7, s_kind="random")
    s = simulate_sample(model, 300, seed=seed, residual_kind=kind)
    ops = empirical_operators(s)
    lhs = ops.sxy
    rhs = ops.sxu + ops.sxx @ model.R
    assert operator_norm(lhs - rhs) <= REL * operator_norm(lhs)


def test_sxx_concentrates_at_root_n():
    model = build_model(10, 2, alpha=2.0, beta=1.0)
    lam = np.diag(model.lambdas)
    ns = [400, 1600, 6400]
    med = []
    for n in ns:
        errs = [operator_norm(empirical_operators(
            simulate_sample(model, n, seed=100 * n + r)).sxx - lam)
            for r in range(8)]
        med.append(np.median(errs))
    fitline = fit_loglog_slope(ns, med)
    assert -0.65 < fitline.slope < -0.35


def test_sxu_norm_scales_at_root_n():
    model = build_model(20, 2, alpha=2.0, beta=1.0)
    ns = [250, 1000, 4000, 16000]
    med = []
    for n in ns:
        errs = [operator_norm(empirical_operators(
            simulate_sample(model, n, seed=7 * n + r)).sxu)
            for r in range(10)]
        med.append(np.median(errs))
    fitline = fit_loglog_slope(ns, med)
    assert abs(fitline.slope + 0.5) <= 0.1


def test_regression_ops_hand_case():
    model = build_model(1, 1, alpha=2.0, beta=1.0)
    sample = SpectralSample(n=2, Zx=np.array([[1.0], [-1.0]]),
                            Zu=np.zeros((2, 1)), Zy=np.array([[1.0], [-1.0]]))
    ops = estimate_regression_ops(sample, 0.1)
    assert abs(ops.sxx[0, 0] - 1.0) < REL
    assert abs(ops.sxy[0, 0] - 1.0) < REL
    assert abs(ops.r1[0, 0] - 1.0 / 1.1) < REL
    assert abs(ops.r2[0, 0] - 1.1 ** -0.5) < REL


def test_regression_ops_rejects_bad_epsilon():
    model = build_model(3, 1, alpha=2.0, beta=1.0)
    s = simulate_sample(model, 10, seed=0)
    with pytest.raises(ValueError, match="epsilon"):
        estimate_regression_ops(s, 0.0)


def test_regression_ops_match_separate_spectral_functions():
    # Applying the spectral functions of sxx straight to sxy gives the
    # operators that the dense J x J functions b and q give.
    model = build_model(20, 2, alpha=2.0, beta=1.0, seed=4, s_kind="random")
    s = simulate_sample(model, 300, seed=12)
    _assert_oracle_close(model, estimate_regression_ops(s, 0.03),
                         reference_regression_ops(s, 0.03))


@settings(max_examples=60, deadline=None)
@given(j_dim=st.integers(1, 60), y_dim=st.integers(1, 4),
       s_kind=st.sampled_from(["identity", "random"]),
       residual_kind=st.sampled_from(["independent", "heteroscedastic"]),
       n=st.integers(2, 2000), log_eps=st.floats(-4.0, 0.0),
       seed=st.integers(0, 2 ** 16))
def test_oracle_matches_dense_reference(j_dim, y_dim, s_kind, residual_kind, n,
                                        log_eps, seed):
    model = build_model(j_dim, y_dim, alpha=2.0, beta=1.0, seed=seed,
                        s_kind=s_kind)
    s = simulate_sample(model, n, seed=seed, residual_kind=residual_kind)
    eps = 10.0 ** log_eps
    ref = reference_regression_ops(s, eps)
    # The top-d eigenvectors of m and m' are determined only where their
    # eigenvalues are separated (n = 2 leaves rank 1, for one).
    d = min(j_dim, y_dim)
    for m in (ref.m, ref.m_prime):
        mu = np.linalg.eigvalsh(m)[::-1][:d + 1]
        assume(np.all(-np.diff(mu) > 1e-6 * mu[0]))
    _assert_oracle_close(model, estimate_regression_ops(s, eps), ref)


def test_r1_error_shrinks_with_epsilon_when_noise_free():
    model = build_model(3, 2, alpha=2.0, beta=1.0)
    base = simulate_sample(model, 400, seed=8)
    zeroed = SpectralSample(n=base.n, Zx=base.Zx, Zu=np.zeros_like(base.Zu),
                            Zy=base.Zx @ model.R)
    errs = [operator_norm(estimate_regression_ops(zeroed, eps).r1 - model.R)
            for eps in (1e-1, 1e-2, 1e-3)]
    assert errs[0] > errs[1] > errs[2]


def test_r1_r2_functional_calculus_link():
    model = build_model(15, 3, alpha=2.0, beta=1.0, seed=11, s_kind="random")
    s = simulate_sample(model, 500, seed=9)
    ops = estimate_regression_ops(s, 0.05)
    back = spectral_apply(ops.sxx, inv_sqrt_shift(0.05)) @ ops.r2
    assert operator_norm(back - ops.r1) <= 1e-9 * operator_norm(ops.r1)


def test_error_report_exact_estimate():
    model = build_model(4, 2, alpha=2.0, beta=1.0)
    eye = np.eye(4)
    ops = RegressionOps(epsilon=0.1, sxx=np.diag(model.lambdas),
                        sxy=np.diag(model.lambdas) @ model.R,
                        r1=model.R.copy(), r2=model.Rprime.copy(),
                        w=model.lambdas, v=eye)
    rec = error_report(model, ops)
    assert rec.err_r1 == 0.0
    assert rec.err_r2 == 0.0
    assert rec.err_m == 0.0
    assert rec.d == 2
    assert np.all(rec.proj_err == 0.0)
    assert np.all(rec.bound_applicable)
    assert np.all(rec.bound_ok)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_error_report_projection_bound(seed):
    model = build_model(30, 2, alpha=2.0, beta=1.0)
    s = simulate_sample(model, 300, seed=seed)
    rec = error_report(model, estimate_regression_ops(s, 0.05))
    assert rec.d == 2
    assert np.all(rec.gap > 0)
    assert np.all(rec.bound_applicable)
    assert np.all(rec.bound_ok)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_error_report_bound_quotient_may_overflow():
    # at n <= J and a tiny epsilon, err_m (2.1e307) is finite but
    # 4 err_m / delta_2 overflows: +inf, so the bound holds, with no warning
    model = build_model(12, 2, alpha=2.0, beta=1.0)
    rec = error_report(model, estimate_regression_ops(simulate_sample(model, 10, seed=1),
                                                      1e-170))
    assert 1e307 < rec.err_m < np.inf
    assert np.all(rec.bound_ok)


def test_error_report_epsilon_defaults_to_ops():
    model = build_model(5, 2, alpha=2.0, beta=1.0)
    s = simulate_sample(model, 50, seed=10)
    ops = estimate_regression_ops(s, 0.07)
    assert error_report(model, ops).epsilon == 0.07


def test_error_report_tied_eigenvalues_not_applicable():
    # hand-built S making both nonzero eigenvalues of M equal
    lam = power_spectrum(2.0, 5)
    s = np.zeros((5, 2))
    s[0, 0] = lam[1] / lam[0]  # lambda_1 s_1 = lambda_2 s_2 with s_2 = 1
    s[1, 1] = 1.0
    r = lam[:, None] * s
    model = SpectralModel(j_dim=5, y_dim=2, lambdas=lam, S=s, R=r,
                          Rprime=np.sqrt(lam)[:, None] * r,
                          noise_scales=np.array([1.0, 0.25]))
    sample = simulate_sample(model, 100, seed=11)
    rec = error_report(model, estimate_regression_ops(sample, 0.05))
    assert rec.d == 2
    assert np.all(rec.gap == 0.0)
    assert not np.any(rec.bound_applicable)
    assert np.all(np.isfinite(rec.proj_err))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_rank_one_eigenvector_bound(seed):
    model = build_model(20, 1, alpha=2.0, beta=1.0)
    s = simulate_sample(model, 200, seed=seed)
    ops = estimate_regression_ops(s, 0.05)
    m_pop = model.R @ model.R.T
    m_hat = ops.r1 @ ops.r1.T
    err_m = operator_norm(m_hat - m_pop)
    v_pop = model.R[:, 0] / np.linalg.norm(model.R[:, 0])
    v_hat = top_eigenvectors(m_hat, 1)[:, 0]
    if v_hat @ v_pop < 0:
        v_hat = -v_hat
    delta1 = operator_norm(m_pop)  # mu_1 - mu_2 with mu_2 = 0
    assert np.linalg.norm(v_hat - v_pop) <= 4.0 * np.sqrt(2.0) * err_m / delta1


def test_span_projection_error_cases():
    a = np.eye(4)[:, :2]
    assert span_projection_error(a, a, 2) == 0.0
    b = np.eye(4)[:, 2:]
    assert abs(span_projection_error(a, b, 2) - 1.0) < 1e-12
    # one shared direction, one at 45 degrees: sin of the larger angle
    c = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    assert abs(span_projection_error(a, c, 2) - np.sqrt(0.5)) < 1e-12


def test_span_projection_error_rank_check():
    a = np.ones((4, 2))
    with pytest.raises(ValueError, match="rank"):
        span_projection_error(a, np.eye(4)[:, :2], 2)


def test_lemma_alpha_sum_two_terms():
    assert abs(lemma_alpha_sum(np.array([1.0, 0.25]), 1.0) - 0.7) < 1e-12


def test_lemma_alpha_sum_series():
    val = lemma_alpha_sum(power_spectrum(2.0, 10000), 1.0)
    assert abs(val - 1.07667) < 2e-4


def test_lemma_alpha_sum_slope():
    lam = power_spectrum(2.0, 100000)
    eps_grid = [1e-2, 1e-3, 1e-4, 1e-5]
    sums = [lemma_alpha_sum(lam, eps) for eps in eps_grid]
    slope = np.polyfit(np.log(eps_grid), np.log(sums), 1)[0]
    assert abs(slope + 0.5) <= 0.1


def test_lemma_alpha_sum_rejects_bad_input():
    with pytest.raises(ValueError, match="epsilon"):
        lemma_alpha_sum([1.0], 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        lemma_alpha_sum([1.0, -0.5], 0.1)


def test_truncation_tail_fraction_matches_zeta():
    expected = (zeta(2.0, 1) - np.sum(power_spectrum(2.0, 200))) / zeta(2.0, 1)
    assert abs(truncation_tail_fraction(2.0, 200) - expected) < 1e-12
    assert truncation_tail_fraction(2.0, 200) <= 0.01


@pytest.mark.parametrize("s", [1.01, 1.1, 1.5, 2.0, 3.0, 7.5, 20.0, 100.0])
def test_hurwitz_zeta_matches_scipy(s):
    # within 5 ulp of SciPy's (cephes) Euler-Maclaurin sum, which it replaces
    for a in (1, 2, 3, 11, 51, 201, 10001):
        want = zeta(s, a)
        assert abs(hurwitz_zeta(s, a) - want) <= 1e-15 * want, (s, a)
